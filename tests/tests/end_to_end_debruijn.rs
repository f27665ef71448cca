//! End-to-end integration: fault-tolerant de Bruijn graphs across the whole
//! stack (topology → core → verification → simulation).

use ftdb_core::verify::{verify_exhaustive, verify_up_to};
use ftdb_core::{FaultSet, FtDeBruijn2, FtDeBruijnM};
use ftdb_graph::{traversal, Embedding};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::routing::run_logical_workload;
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;

#[test]
fn base2_construction_is_exhaustively_tolerant_for_small_instances() {
    // Theorem 1, checked over every fault set, for a family of instances.
    for (h, k) in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)] {
        let ft = FtDeBruijn2::new(h, k);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), k, 4);
        assert!(
            report.is_tolerant(),
            "B^{k}(2,{h}) failed for fault sets {:?}",
            report.failures
        );
        let expected = ftdb_core::fault::Combinations::total(ft.node_count(), k);
        assert_eq!(u128::from(report.checked), expected);
    }
}

#[test]
fn base_m_construction_is_exhaustively_tolerant_for_small_instances() {
    for (m, h, k) in [(3, 3, 1), (3, 3, 2), (4, 2, 1), (4, 2, 2), (5, 2, 1)] {
        let ft = FtDeBruijnM::new(m, h, k);
        let report = verify_exhaustive(ft.target().graph(), ft.graph(), k, 4);
        assert!(report.is_tolerant(), "B^{k}({m},{h}) not tolerant");
    }
}

#[test]
fn tolerance_holds_for_every_fault_count_up_to_k() {
    let ft = FtDeBruijn2::new(4, 3);
    let reports = verify_up_to(ft.target().graph(), ft.graph(), 3, 4);
    assert_eq!(reports.len(), 4);
    for (faults, report) in reports.iter().enumerate() {
        assert!(report.is_tolerant(), "failed at {faults} faults");
    }
}

#[test]
fn reconfigured_machine_routes_an_entire_permutation() {
    let ft = FtDeBruijn2::new(6, 3);
    let db = ft.target().clone();
    let mut rng = ftdb_tests::seeded_rng(11);
    let faults = FaultSet::random(ft.node_count(), 3, &mut rng).expect("k within node count");
    let placement = ft.reconfigure_verified(&faults).unwrap();
    let machine = PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
    let pairs = workload::permutation_pairs(db.node_count(), &mut rng);
    let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.delivered as usize, db.node_count());
    assert!(stats.max_hops <= db.h());
}

#[test]
fn unprotected_machine_loses_packets_under_the_same_faults() {
    let db = DeBruijn2::new(6);
    let mut rng = ftdb_tests::seeded_rng(11);
    let faults = FaultSet::random(db.node_count(), 3, &mut rng).expect("k within node count");
    let machine = PhysicalMachine::with_faults(db.graph().clone(), faults, PortModel::MultiPort);
    let pairs = workload::permutation_pairs(db.node_count(), &mut rng);
    let stats = run_logical_workload(
        &db,
        &Embedding::identity(db.node_count()),
        &machine,
        &pairs,
        1,
    );
    assert!(
        stats.dropped > 0,
        "faults must cost the unprotected machine packets"
    );
}

#[test]
fn surviving_subgraph_is_connected_after_max_faults() {
    // Not claimed by the paper, but a useful operational property: after
    // removing any k nodes the embedded target keeps the healthy part that
    // hosts it connected (the target de Bruijn graph is connected).
    let ft = FtDeBruijn2::new(5, 2);
    let mut rng = ftdb_tests::seeded_rng(3);
    for _ in 0..25 {
        let faults = FaultSet::random(ft.node_count(), 2, &mut rng).expect("k within node count");
        let phi = ft.reconfigure_verified(&faults).unwrap();
        // Build the image subgraph and check connectivity.
        let mut keep = ftdb_graph::BitSet::new(ft.node_count());
        for &v in phi.as_slice() {
            keep.insert(v);
        }
        let induced = ftdb_graph::ops::induced_subgraph(ft.graph(), &keep);
        assert!(traversal::is_connected(&induced.graph));
        assert_eq!(induced.graph.node_count(), ft.target().node_count());
    }
}

#[test]
fn displacements_never_exceed_k_in_practice() {
    let ft = FtDeBruijn2::new(7, 5);
    let mut rng = ftdb_tests::seeded_rng(5);
    for _ in 0..50 {
        let faults = FaultSet::random(ft.node_count(), 5, &mut rng).expect("k within node count");
        let phi = ft.reconfigure(&faults);
        let deltas = ftdb_core::reconfig::displacements(&phi);
        assert!(deltas.iter().all(|&d| d <= 5));
        assert!(deltas.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn edge_faults_are_handled_by_marking_an_endpoint() {
    // The paper: "edge faults can be tolerated by viewing a node that is
    // incident to the faulty edge as being faulty."
    let ft = FtDeBruijn2::new(4, 2);
    let edges: Vec<(usize, usize)> = ft.graph().edges().take(2).collect();
    let faults = FaultSet::from_edge_faults(ft.node_count(), edges.iter().copied());
    assert!(faults.len() <= 2);
    let phi = ft.reconfigure_verified(&faults).unwrap();
    for (u, v) in edges {
        let dead = u.min(v);
        assert!(phi.as_slice().iter().all(|&img| img != dead));
    }
}
