//! End-to-end integration: fault-tolerant shuffle-exchange networks,
//! exercised through the Ascend/Descend simulator.

use ftdb_core::verify::verify_exhaustive;
use ftdb_core::{FaultSet, FtShuffleExchange, NaturalFtShuffleExchange};
use ftdb_graph::Embedding;
use ftdb_sim::ascend_descend::{
    allreduce_hypercube, allreduce_shuffle_exchange, descend_shuffle_exchange,
    scan_shuffle_exchange, sequential_inclusive_scan,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel, SimError};
use ftdb_sim::workload;
use ftdb_topology::se_embedding::embed_se_into_debruijn;
use ftdb_topology::{DeBruijn2, ShuffleExchange};
use proptest::prelude::*;

/// The three shuffle-exchange collectives, run on one input: all-reduce and
/// descend report every node's total, the scan its inclusive prefix sums.
/// Returns the step count and the per-node result.
fn run_collective(
    which: usize,
    se: &ShuffleExchange,
    placement: &Embedding,
    machine: &PhysicalMachine,
    values: &[u64],
) -> Result<(usize, Vec<u64>), SimError> {
    match which {
        0 => {
            allreduce_shuffle_exchange(se, placement, machine, values).map(|o| (o.steps, o.values))
        }
        1 => descend_shuffle_exchange(se, placement, machine, values).map(|o| (o.steps, o.values)),
        _ => scan_shuffle_exchange(se, placement, machine, values).map(|o| (o.steps, o.prefix)),
    }
}

#[test]
fn se_embeds_into_debruijn_for_all_practical_h() {
    // The external containment the paper cites, verified constructively.
    for h in 2..=6 {
        let se = ShuffleExchange::new(h);
        let db = DeBruijn2::new(h);
        let embedding = embed_se_into_debruijn(h)
            .into_embedding()
            .unwrap_or_else(|| panic!("no SE⊆DB embedding found for h={h}"));
        embedding.verify(se.graph(), db.graph()).unwrap();
    }
}

#[test]
fn ft_shuffle_exchange_via_db_is_exhaustively_tolerant() {
    for (h, k) in [(3, 1), (3, 2), (4, 1)] {
        let ft = FtShuffleExchange::new(h, k).unwrap();
        // The right reconfiguration for the SE target composes the SE ⊆ DB
        // containment with the rank map, so enumerate the fault sets and
        // check through the construction's own reconfigure method.
        let mut all_ok = true;
        let combos = ftdb_core::fault::Combinations::new(ft.node_count(), k);
        for combo in combos {
            let faults = FaultSet::from_nodes(ft.node_count(), combo.iter().copied());
            all_ok &= ft.reconfigure_verified(&faults).is_ok();
        }
        assert!(all_ok, "FT-SE via DB failed for h={h}, k={k}");
    }
}

#[test]
fn natural_ft_shuffle_exchange_is_exhaustively_tolerant() {
    for (h, k) in [(3, 1), (3, 2), (4, 1), (4, 2)] {
        let se = NaturalFtShuffleExchange::new(h, k);
        let report = verify_exhaustive(se.target().graph(), se.graph(), k, 4);
        assert!(
            report.is_tolerant(),
            "natural SE^{k}_{h}: {:?}",
            report.failures
        );
    }
}

#[test]
fn ascend_and_descend_agree_on_the_total() {
    let h = 5;
    let se = ShuffleExchange::new(h);
    let n = se.node_count();
    let machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
    let placement = Embedding::identity(n);
    let mut rng = ftdb_tests::seeded_rng(77);
    let (values, total) = workload::random_values(n, &mut rng);
    let reference = allreduce_hypercube(h, &values).unwrap();
    let ascend = allreduce_shuffle_exchange(&se, &placement, &machine, &values).unwrap();
    let descend = descend_shuffle_exchange(&se, &placement, &machine, &values).unwrap();
    assert!(reference.values.iter().all(|&v| v == total));
    assert!(ascend.values.iter().all(|&v| v == total));
    assert!(descend.values.iter().all(|&v| v == total));
    assert_eq!(ascend.steps, 2 * h);
    assert_eq!(descend.steps, 2 * h);
    assert_eq!(reference.steps, h);
}

#[test]
fn every_single_fault_stalls_the_unprotected_se_machine() {
    // The motivating claim, exhaustively: whichever single processor fails,
    // the Ascend run on the spare-less SE machine cannot complete, because
    // Ascend uses every node.
    let h = 4;
    let se = ShuffleExchange::new(h);
    let n = se.node_count();
    let values = workload::index_values(n);
    for faulty in 0..n {
        let mut machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(faulty);
        let result = allreduce_shuffle_exchange(&se, &Embedding::identity(n), &machine, &values);
        assert!(
            matches!(result, Err(SimError::FaultyProcessor { .. })),
            "faulty={faulty} unexpectedly completed"
        );
    }
}

#[test]
fn every_single_fault_is_absorbed_by_the_ft_machine() {
    let h = 4;
    let k = 1;
    let ft = FtShuffleExchange::new(h, k).unwrap();
    let se = ShuffleExchange::new(h);
    let n = se.node_count();
    let values = workload::index_values(n);
    let expected = allreduce_hypercube(h, &values).unwrap().values[0];
    for faulty in 0..ft.node_count() {
        let faults = FaultSet::from_nodes(ft.node_count(), [faulty]);
        let placement = ft.reconfigure_verified(&faults).unwrap();
        let machine =
            PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
        let out = allreduce_shuffle_exchange(&se, &placement, &machine, &values)
            .unwrap_or_else(|e| panic!("faulty={faulty}: {e}"));
        assert_eq!(out.steps, 2 * h);
        assert!(out.values.iter().all(|&v| v == expected));
    }
}

#[test]
fn natural_construction_also_supports_the_ascend_run() {
    // The degree-(6k+4)-style construction is a valid host too: its
    // reconfiguration embeds SE directly (no containment needed).
    let h = 4;
    let k = 2;
    let ftse = NaturalFtShuffleExchange::new(h, k);
    let se = ShuffleExchange::new(h);
    let values = workload::index_values(se.node_count());
    let expected = allreduce_hypercube(h, &values).unwrap().values[0];
    let mut rng = ftdb_tests::seeded_rng(13);
    for _ in 0..20 {
        let faults = FaultSet::random(ftse.node_count(), k, &mut rng).expect("k within node count");
        let placement = ftse.reconfigure_verified(&faults).unwrap();
        let machine =
            PhysicalMachine::with_faults(ftse.graph().clone(), faults, PortModel::MultiPort);
        let out = allreduce_shuffle_exchange(&se, &placement, &machine, &values).unwrap();
        assert!(out.values.iter().all(|&v| v == expected));
    }
}

#[test]
fn each_collective_reports_its_first_failed_step() {
    // All-reduce and the scan exchange first, descend unshuffles first, so
    // on SE_4 with processors 5 and 8 dead the first failed step differs:
    // exchange pair (4, 5) against unshuffle move 1 -> 8.
    let se = ShuffleExchange::new(4);
    let n = se.node_count();
    let identity = Embedding::identity(n);
    let values = workload::index_values(n);
    let mut dead = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
    dead.inject_fault(5);
    dead.inject_fault(8);
    // B(2,4) carries every shuffle link but not the exchange link 2 - 3.
    let debruijn = PhysicalMachine::new(DeBruijn2::new(4).graph().clone(), PortModel::MultiPort);
    let expected = [
        (
            SimError::FaultyProcessor { node: 5 },
            SimError::MissingLink { link: (2, 3) },
        ),
        (
            SimError::FaultyProcessor { node: 8 },
            SimError::MissingLink { link: (2, 3) },
        ),
        (
            SimError::FaultyProcessor { node: 5 },
            SimError::MissingLink { link: (2, 3) },
        ),
    ];
    for (which, (on_dead, on_debruijn)) in expected.into_iter().enumerate() {
        assert_eq!(
            run_collective(which, &se, &identity, &dead, &values),
            Err(on_dead),
            "collective {which}"
        );
        assert_eq!(
            run_collective(which, &se, &identity, &debruijn, &values),
            Err(on_debruijn),
            "collective {which}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every collective completes in 2h steps on a reconfigured
    /// fault-tolerant machine with up to k faults, and agrees with the
    /// hypercube all-reduce or the sequential scan.
    #[test]
    fn collectives_survive_up_to_k_faults(
        which in 0usize..3,
        h in 2usize..6,
        k in 1usize..4,
        faults in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let faults = faults.min(k);
        let ft = FtShuffleExchange::new(h, k).expect("SE_h embeds into B(2,h)");
        let se = ShuffleExchange::new(h);
        let mut rng = ftdb_tests::seeded_rng(seed);
        let fault_set = FaultSet::random(ft.node_count(), faults, &mut rng).expect("faults <= k");
        let placement = ft.reconfigure_verified(&fault_set).expect("Theorem 1");
        let machine = PhysicalMachine::with_faults(ft.graph().clone(), fault_set, PortModel::MultiPort);
        let (values, _) = workload::random_values(se.node_count(), &mut rng);
        let expected = if which == 2 {
            sequential_inclusive_scan(&values)
        } else {
            allreduce_hypercube(h, &values).expect("one value per node").values
        };
        let (steps, got) = run_collective(which, &se, &placement, &machine, &values)
            .expect("a reconfigured machine runs every collective");
        prop_assert_eq!(steps, 2 * h);
        prop_assert_eq!(got, expected);
    }
}
