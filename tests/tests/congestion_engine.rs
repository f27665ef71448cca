//! Cross-crate acceptance tests for the cycle-level congestion engine:
//! analytic completion bounds, port-limit saturation, port-model ordering,
//! per-cycle conservation, agreement with the static routing kernels, and
//! the full mid-run-fault → online-reconfiguration → drain story.

use ftdb_core::FtDeBruijn2;
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{run_recovery, CongestionConfig, CongestionSim, FaultResponse};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::routing::run_logical_workload;
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;

fn run_workload(
    db: &DeBruijn2,
    port: PortModel,
    pairs: &[(usize, usize)],
) -> ftdb_sim::congestion::CongestionReport {
    let machine = PhysicalMachine::new(db.graph().clone(), port);
    let mut sim = CongestionSim::new(machine, CongestionConfig::default());
    sim.load_oblivious(db, &Embedding::identity(db.node_count()), pairs);
    sim.run()
}

#[test]
fn healthy_permutation_completes_within_analytic_order_bounds() {
    // A random permutation on B(2,h) keeps traffic spread: total flits is at
    // most n·h over 2n-ish directed links, so the makespan stays within a
    // small multiple of the h-cycle lower bound — far below the n·h serial
    // bound. `h + n` is a generous, analytic, load-balance-order cap.
    for h in [4usize, 6, 8] {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let mut rng = ftdb_tests::seeded_rng(h as u64);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let report = run_workload(&db, PortModel::MultiPort, &pairs);
        assert!(report.completed);
        assert_eq!(report.delivered, n as u64);
        assert!(
            (report.cycles as usize) >= 1 && (report.cycles as usize) <= h + n,
            "h={h}: {} cycles outside (0, h + n = {}]",
            report.cycles,
            h + n
        );
        // The longest packet needs at least its hop count in cycles.
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let stats = run_logical_workload(&db, &Embedding::identity(n), &machine, &pairs, 1);
        assert!(report.cycles as usize >= stats.max_hops);
    }
}

#[test]
fn congestion_engine_agrees_with_static_kernels_on_flit_totals() {
    // Contention delays flits but never creates or destroys them: the total
    // moved flits equals the static kernels' total hop count, per workload.
    let h = 6;
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    let placement = Embedding::identity(n);
    let mut rng = ftdb_tests::seeded_rng(77);
    for pairs in [
        workload::permutation_pairs(n, &mut rng),
        workload::bit_reversal_pairs(h),
        workload::all_to_one(n, 3),
        workload::uniform_pairs(n, 2 * n, &mut rng),
    ] {
        let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
        for port in [PortModel::MultiPort, PortModel::SinglePort] {
            let report = run_workload(&db, port, &pairs);
            assert!(report.completed);
            assert_eq!(report.delivered, stats.delivered);
            assert_eq!(report.total_flits, stats.total_hops, "port={port:?}");
        }
    }
}

#[test]
fn conservation_invariant_holds_every_cycle_with_dynamic_faults() {
    let h = 5;
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
    let mut sim = CongestionSim::new(
        machine,
        CongestionConfig {
            fault_response: FaultResponse::RerouteAdaptive,
            ..CongestionConfig::default()
        },
    );
    let mut rng = ftdb_tests::seeded_rng(13);
    let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
    sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
    sim.schedule_fault(2, 7).unwrap();
    sim.schedule_fault(5, 20).unwrap();
    let mut guard = 0u32;
    loop {
        let (injected, delivered, dropped, in_flight) = sim.counts();
        assert_eq!(
            delivered + dropped + in_flight,
            injected,
            "conservation broken at cycle {}",
            sim.cycle()
        );
        if in_flight == 0 {
            break;
        }
        sim.step();
        guard += 1;
        assert!(guard < 10_000, "run failed to drain");
    }
}

#[test]
fn hot_spot_throughput_saturates_at_the_roots_link_limit() {
    // Oblivious routes to root r all enter over r's predecessor links; the
    // drain rate is capped by the number of distinct last-hop links, so the
    // makespan is bounded below by (senders / in-degree) and the engine
    // must actually approach that saturation rate.
    let h = 6;
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let root = 5;
    let report = run_workload(&db, PortModel::MultiPort, &workload::all_to_one(n, root));
    assert!(report.completed);
    assert_eq!(report.delivered, n as u64);
    let in_degree = db.graph().degree(root) as u64;
    let senders = (n - 1) as u64;
    let lower = senders.div_ceil(in_degree);
    assert!(
        report.cycles as u64 >= lower,
        "{} cycles beat the root's port limit ({lower})",
        report.cycles
    );
    // Saturation: the run must not be more than ~2x above the cap either —
    // the bottleneck links stay busy nearly every cycle.
    assert!(
        report.cycles as u64 <= 2 * lower + h as u64 + 2,
        "{} cycles: root links are idling (cap {lower})",
        report.cycles
    );
}

#[test]
fn single_port_is_measurably_slower_than_multi_port() {
    let h = 6;
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let mut rng = ftdb_tests::seeded_rng(29);
    let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
    let multi = run_workload(&db, PortModel::MultiPort, &pairs);
    let single = run_workload(&db, PortModel::SinglePort, &pairs);
    assert!(multi.completed && single.completed);
    assert_eq!(multi.delivered, single.delivered);
    assert!(
        single.cycles > multi.cycles,
        "SinglePort ({}) must be slower than MultiPort ({})",
        single.cycles,
        multi.cycles
    );
    assert!(single.flits_per_cycle() < multi.flits_per_cycle());
}

#[test]
fn mid_run_fault_with_online_reconfiguration_delivers_all_survivors() {
    for (h, k, fault_cycle) in [(4usize, 1usize, 1u32), (5, 2, 3), (6, 3, 2)] {
        let ft = FtDeBruijn2::new(h, k);
        let n = ft.target().node_count();
        let mut rng = ftdb_tests::seeded_rng((h * 31 + k) as u64);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let schedule: Vec<(u32, usize)> = (0..k)
            .map(|i| (fault_cycle, (i * 13 + 2) % ft.node_count()))
            .collect();
        let outcome = run_recovery(
            &ft,
            &pairs,
            &schedule,
            PortModel::MultiPort,
            CongestionConfig {
                fault_response: FaultResponse::RerouteAdaptive,
                ..CongestionConfig::default()
            },
        )
        .expect("schedule within the fault budget");
        assert!(outcome.report.completed, "h={h} k={k}");
        // Everything not hosted on a dying processor arrives.
        assert_eq!(
            outcome.report.delivered + outcome.lost_on_dead_nodes,
            n as u64,
            "h={h} k={k}"
        );
        assert_eq!(outcome.report.dropped, outcome.lost_on_dead_nodes);
        // Recovery latency is measured and bounded: the drain finishes in
        // cycles-order of the surviving traffic, not the cap.
        assert!(outcome.drain_cycles >= 1);
        assert!((outcome.drain_cycles as usize) < 4 * n, "h={h} k={k}");
    }
}

#[test]
fn over_budget_fault_schedules_are_rejected_not_panicked() {
    let ft = FtDeBruijn2::new(4, 1);
    let result = run_recovery(
        &ft,
        &[(0, 9)],
        &[(1, 2), (3, 4)],
        PortModel::MultiPort,
        CongestionConfig::default(),
    );
    assert!(matches!(
        result,
        Err(ftdb_sim::SimError::FaultBudgetExceeded {
            faults: 2,
            budget: 1
        })
    ));
}
