//! Golden outputs of the single-table congestion engine, frozen before its
//! cycle kernel was folded into the one-shard `ShardedSim`.
//!
//! Each canned scenario was run once on that engine and its observable
//! output recorded here: the `Debug` text of the `CongestionReport` (and of
//! the `OpenLoopReport` or `RecoveryOutcome` where the scenario has one),
//! and every packet's `(inject, delivered, dropped)` stamps. The surviving
//! kernel must reproduce them at every shard count, so the retired engine's
//! verdicts stay in tier-1 after its code is gone, and the reference model
//! of the cycle rules (`ftdb_tests::model`) must reproduce every report,
//! every packet's stamps and the recovery outcome too.
//!
//! The scenarios cover every flow-control mode, both port models, node and
//! link kills under both fault responses, a second load through a
//! different placement, one open-loop measurement window and one online
//! recovery.

use ftdb_core::{FtDeBruijn2, LinkFaultSet};
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{
    measure_open_loop, run_recovery, CongestionConfig, FaultResponse, FlowControl, ShardedSim,
    Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload::{self, InjectionProcess, OpenLoopSpec};
use ftdb_tests::model::{self, CycleModel};
use ftdb_topology::DeBruijn2;

/// One load of a scenario: pairs (or an open-loop schedule) routed through
/// a placement.
enum Load {
    Pairs(Embedding, Vec<(usize, usize)>),
    Timed(Embedding, Vec<(u32, usize, usize)>),
}

/// A canned run on `B(2,h)`.
struct Scenario {
    name: &'static str,
    h: usize,
    port: PortModel,
    config: CongestionConfig,
    loads: Vec<Load>,
    /// `(cycle, node)` processor kills.
    node_kills: Vec<(u32, usize)>,
    /// `(cycle, bernoulli probability, seed)` directed-link kills.
    link_kills: Option<(u32, f64, u64)>,
    /// Measure this open-loop window instead of running to quiescence.
    window: Option<OpenLoopSpec>,
}

fn config(flow_control: FlowControl, fault_response: FaultResponse) -> CongestionConfig {
    CongestionConfig {
        max_cycles: 4_000,
        fault_response,
        flow_control,
    }
}

fn vc(vcs: u32, buffer_depth: u32, switching: Switching) -> FlowControl {
    FlowControl::VirtualChannel {
        vcs,
        buffer_depth,
        switching,
    }
}

fn open_spec(offered_load: f64, seed: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        offered_load,
        process: InjectionProcess::Bernoulli,
        warmup_cycles: 8,
        measure_cycles: 16,
        drain_cycles: 64,
        seed,
    }
}

fn scenarios() -> Vec<Scenario> {
    use FaultResponse::{Drop, RerouteAdaptive};
    let id4 = || Embedding::identity(16);
    let id5 = || Embedding::identity(32);
    let perm = |h: usize, seed: u64| {
        workload::permutation_pairs(1 << h, &mut ftdb_tests::seeded_rng(seed))
    };
    let uniform = |h: usize, count: usize, seed: u64| {
        workload::uniform_pairs(1 << h, count, &mut ftdb_tests::seeded_rng(seed))
    };
    let credit = |buffer_depth| FlowControl::CreditBased { buffer_depth };
    let saf = Switching::StoreAndForward;
    let worm = Switching::Wormhole { packet_flits: 3 };
    let base = |name, h, port, config, loads| Scenario {
        name,
        h,
        port,
        config,
        loads,
        node_kills: Vec::new(),
        link_kills: None,
        window: None,
    };
    let window_spec = open_spec(0.3, 17);
    vec![
        base(
            "b4_perm_infinite_multi",
            4,
            PortModel::MultiPort,
            config(FlowControl::Infinite, Drop),
            vec![Load::Pairs(id4(), perm(4, 1))],
        ),
        base(
            "b4_uniform_infinite_single",
            4,
            PortModel::SinglePort,
            config(FlowControl::Infinite, Drop),
            vec![Load::Pairs(id4(), uniform(4, 48, 2))],
        ),
        base(
            "b5_uniform_credit1_single",
            5,
            PortModel::SinglePort,
            config(credit(1), Drop),
            vec![Load::Pairs(id5(), uniform(5, 96, 3))],
        ),
        base(
            "b4_hotspot_credit1_multi_deadlocks",
            4,
            PortModel::MultiPort,
            config(credit(1), Drop),
            vec![Load::Pairs(id4(), workload::all_to_one(16, 5))],
        ),
        base(
            "b4_hotspot_vc2_saf_single",
            4,
            PortModel::SinglePort,
            config(vc(2, 1, saf), Drop),
            vec![Load::Pairs(id4(), workload::all_to_one(16, 9))],
        ),
        base(
            "b5_uniform_vc2_wormhole3_single",
            5,
            PortModel::SinglePort,
            config(vc(2, 2, worm), Drop),
            vec![Load::Pairs(id5(), uniform(5, 80, 4))],
        ),
        Scenario {
            node_kills: vec![(2, 7), (4, 20)],
            ..base(
                "b5_node_kills_drop_credit2_single",
                5,
                PortModel::SinglePort,
                config(credit(2), Drop),
                vec![Load::Pairs(id5(), uniform(5, 96, 5))],
            )
        },
        Scenario {
            node_kills: vec![(1, 3), (3, 17), (3, 26)],
            ..base(
                "b5_node_kills_reroute_vc2_wormhole3_multi",
                5,
                PortModel::MultiPort,
                config(vc(2, 2, worm), RerouteAdaptive),
                vec![Load::Pairs(id5(), uniform(5, 96, 6))],
            )
        },
        Scenario {
            link_kills: Some((2, 0.15, 7)),
            ..base(
                "b5_link_kills_drop_infinite_multi",
                5,
                PortModel::MultiPort,
                config(FlowControl::Infinite, Drop),
                vec![Load::Pairs(id5(), uniform(5, 96, 8))],
            )
        },
        Scenario {
            link_kills: Some((1, 0.15, 9)),
            node_kills: vec![(3, 11)],
            ..base(
                "b5_link_and_node_kills_reroute_credit1_single",
                5,
                PortModel::SinglePort,
                config(credit(1), RerouteAdaptive),
                vec![Load::Pairs(id5(), uniform(5, 64, 10))],
            )
        },
        base(
            "b4_second_load_through_complement_placement",
            4,
            PortModel::MultiPort,
            config(credit(2), Drop),
            vec![
                Load::Pairs(id4(), perm(4, 11)),
                Load::Timed(
                    Embedding::from_map((0..16).map(|v| 15 - v).collect()),
                    workload::open_loop_injections(16, &open_spec(0.2, 12)),
                ),
            ],
        ),
        Scenario {
            node_kills: vec![(12, 6)],
            window: Some(window_spec),
            ..base(
                "b5_open_loop_window_credit2_single",
                5,
                PortModel::SinglePort,
                config(credit(2), RerouteAdaptive),
                vec![Load::Timed(
                    id5(),
                    workload::open_loop_injections(32, &window_spec),
                )],
            )
        },
    ]
}

/// Loads, faults and runs one scenario; returns the report text and the
/// encoded per-packet outcomes.
fn observe(sim: &mut ShardedSim, sc: &Scenario) -> (String, String) {
    let db = DeBruijn2::new(sc.h);
    for load in &sc.loads {
        match load {
            Load::Pairs(placement, pairs) => sim.load_oblivious(&db, placement, pairs),
            Load::Timed(placement, injections) => {
                sim.load_oblivious_timed(&db, placement, injections)
            }
        }
    }
    for &(cycle, node) in &sc.node_kills {
        sim.schedule_fault(cycle, node).unwrap();
    }
    if let Some((cycle, p, seed)) = sc.link_kills {
        let links = LinkFaultSet::bernoulli(db.graph(), p, &mut ftdb_tests::seeded_rng(seed));
        sim.schedule_link_faults(cycle, &links).unwrap();
    }
    let mut text = String::new();
    match &sc.window {
        Some(spec) => text += &format!("{:?}\n", measure_open_loop(sim, spec)),
        None => sim.run_to_quiescence(),
    }
    text += &format!("{:?}", sim.report());
    let outcomes = encode_outcomes((0..sim.counts().0 as usize).map(|id| sim.packet_outcome(id)));
    (text, outcomes)
}

/// Every packet as `inject:dCYCLE` (delivered), `inject:xCYCLE` (dropped)
/// or `inject:-` (unresolved), space-separated in id order.
fn encode_outcomes(outcomes: impl Iterator<Item = (u32, Option<u32>, Option<u32>)>) -> String {
    outcomes
        .map(|outcome| match outcome {
            (i, Some(d), _) => format!("{i}:d{d}"),
            (i, None, Some(x)) => format!("{i}:x{x}"),
            (i, None, None) => format!("{i}:-"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs one scenario on the model, to the open-loop window's horizon where
/// the scenario has one; returns the report text and the encoded outcomes.
fn model_observe(sc: &Scenario) -> (String, String) {
    let db = DeBruijn2::new(sc.h);
    let machine = PhysicalMachine::new(db.graph().clone(), sc.port);
    let mut model = CycleModel::new(machine, sc.config);
    for load in &sc.loads {
        match load {
            Load::Pairs(placement, pairs) => model.load(&db, placement, pairs),
            Load::Timed(placement, injections) => model.load_timed(&db, placement, injections),
        }
    }
    for &(cycle, node) in &sc.node_kills {
        model.schedule_fault(cycle, node);
    }
    if let Some((cycle, p, seed)) = sc.link_kills {
        let links = LinkFaultSet::bernoulli(db.graph(), p, &mut ftdb_tests::seeded_rng(seed));
        model.schedule_link_faults(cycle, &links);
    }
    model.run_until(sc.window.as_ref().map_or(u32::MAX, OpenLoopSpec::horizon));
    let outcomes =
        encode_outcomes((0..model.counts().0 as usize).map(|id| model.packet_outcome(id)));
    (format!("{:?}", model.report()), outcomes)
}

#[test]
fn the_model_reproduces_every_golden_output() {
    for sc in &scenarios() {
        let (want_report, want_outcomes) = golden(sc.name);
        let (report, outcomes) = model_observe(sc);
        // A window scenario's text leads with its `OpenLoopReport`, which
        // `measure_open_loop` derives from these outcomes.
        let want_report = want_report.lines().last().expect("a report line");
        assert_eq!(report, want_report, "{}: report", sc.name);
        assert_eq!(outcomes, want_outcomes, "{}: packet outcomes", sc.name);
    }
}

fn golden(name: &str) -> (&'static str, &'static str) {
    GOLDEN
        .iter()
        .find(|g| g.0 == name)
        .map(|g| (g.1, g.2))
        .unwrap_or_else(|| panic!("no golden output for {name}"))
}

#[test]
fn retired_engine_outputs_hold_at_every_shard_count() {
    let scenarios = scenarios();
    assert_eq!(
        scenarios.len(),
        GOLDEN.len(),
        "one golden entry per scenario"
    );
    for sc in &scenarios {
        let (want_report, want_outcomes) = golden(sc.name);
        let db = DeBruijn2::new(sc.h);
        for (shards, threads) in [
            (1usize, 1usize),
            (2, 1),
            (4, 1),
            (4, 2),
            (3, 2),
            (4, 3),
            (2, 4),
        ] {
            let machine = PhysicalMachine::new(db.graph().clone(), sc.port);
            let mut sim = ShardedSim::new(machine, sc.config, shards, threads);
            let (report, outcomes) = observe(&mut sim, sc);
            let what = format!("{} shards={shards} threads={threads}", sc.name);
            assert_eq!(report, want_report, "{what}: report");
            assert_eq!(outcomes, want_outcomes, "{what}: packet outcomes");
        }
    }
}

#[test]
fn retired_engine_recovery_outcome_holds() {
    // A processor of B^1(2,4) dies mid-run under depth-2 credit flow; the
    // online reconfiguration re-targets and re-routes every survivor.
    let ft = FtDeBruijn2::new(4, 1);
    let pairs = workload::uniform_pairs(16, 48, &mut ftdb_tests::seeded_rng(21));
    let config = config(
        FlowControl::CreditBased { buffer_depth: 2 },
        FaultResponse::RerouteAdaptive,
    );
    let outcome = run_recovery(&ft, &pairs, &[(3, 5)], PortModel::SinglePort, config)
        .expect("one fault is within the budget");
    assert_eq!(format!("{outcome:?}"), RECOVERY);
    let model = model::run_recovery(&ft, &pairs, &[(3, 5)], PortModel::SinglePort, config)
        .expect("one fault is within the budget");
    assert_eq!(format!("{model:?}"), RECOVERY, "the model's recovery");
}

/// The single-table engine's recorded `RecoveryOutcome`.
const RECOVERY: &str = "RecoveryOutcome { report: CongestionReport { cycles: 12, injected: 48, delivered: 42, dropped: 6, total_flits: 101, completed: true, deadlocked: false, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 42, mean: 5.261904761904762, p50: 5, p95: 9, max: 11 } }, fault_cycle: 3, drain_cycles: 9, lost_on_dead_nodes: 6, rerouted: 38 }";

/// `(scenario, report text, packet outcomes)` recorded from the
/// single-table engine.
const GOLDEN: &[(&str, &str, &str)] = &[
    (
        "b4_perm_infinite_multi",
        "CongestionReport { cycles: 4, injected: 16, delivered: 16, dropped: 0, total_flits: 60, completed: true, deadlocked: false, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 16, mean: 2.75, p50: 3, p95: 3, max: 3 } }",
        "0:d0 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d3 0:d2",
    ),
    (
        "b4_uniform_infinite_single",
        "CongestionReport { cycles: 18, injected: 48, delivered: 48, dropped: 0, total_flits: 181, completed: true, deadlocked: false, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 48, mean: 8.333333333333334, p50: 8, p95: 15, max: 17 } }",
        "0:d3 0:d3 0:d3 0:d3 0:d3 0:d4 0:d5 0:d4 0:d2 0:d5 0:d4 0:d6 0:d8 0:d7 0:d1 0:d6 0:d9 0:d6 0:d6 0:d4 0:d6 0:d8 0:d10 0:d9 0:d11 0:d9 0:d9 0:d12 0:d7 0:d11 0:d10 0:d11 0:d9 0:d7 0:d10 0:d12 0:d7 0:d15 0:d9 0:d12 0:d15 0:d15 0:d13 0:d14 0:d13 0:d13 0:d14 0:d17",
    ),
    (
        "b5_uniform_credit1_single",
        "CongestionReport { cycles: 13, injected: 96, delivered: 4, dropped: 0, total_flits: 120, completed: false, deadlocked: true, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 4, mean: 4.25, p50: 4, p95: 5, max: 5 } }",
        "0:- 0:- 0:- 0:- 0:d5 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:d3 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:d5 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:d4 0:- 0:- 0:- 0:- 0:- 0:- 0:-",
    ),
    (
        "b4_hotspot_credit1_multi_deadlocks",
        "CongestionReport { cycles: 8, injected: 16, delivered: 1, dropped: 0, total_flits: 32, completed: false, deadlocked: true, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 1, mean: 3.0, p50: 3, p95: 3, max: 3 } }",
        "0:d3 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:-",
    ),
    (
        "b4_hotspot_vc2_saf_single",
        "CongestionReport { cycles: 11, injected: 16, delivered: 16, dropped: 0, total_flits: 63, completed: true, deadlocked: false, vc_flits: [30, 33], vc_hol_blocked_cycles: [1, 48], latency: LatencySummary { count: 16, mean: 6.0, p50: 6, p95: 10, max: 10 } }",
        "0:d3 0:d3 0:d4 0:d4 0:d5 0:d5 0:d6 0:d6 0:d7 0:d7 0:d8 0:d8 0:d9 0:d9 0:d10 0:d2",
    ),
    (
        "b5_uniform_vc2_wormhole3_single",
        "CongestionReport { cycles: 60, injected: 80, delivered: 80, dropped: 0, total_flits: 1161, completed: true, deadlocked: false, vc_flits: [444, 717], vc_hol_blocked_cycles: [1212, 815], latency: LatencySummary { count: 80, mean: 29.175, p50: 27, p95: 54, max: 59 } }",
        "0:d12 0:d6 0:d10 0:d9 0:d18 0:d12 0:d12 0:d13 0:d15 0:d15 0:d15 0:d18 0:d27 0:d15 0:d16 0:d13 0:d17 0:d9 0:d27 0:d21 0:d27 0:d21 0:d28 0:d21 0:d33 0:d14 0:d21 0:d10 0:d27 0:d27 0:d18 0:d34 0:d3 0:d34 0:d24 0:d33 0:d36 0:d36 0:d36 0:d27 0:d18 0:d37 0:d33 0:d40 0:d32 0:d31 0:d22 0:d27 0:d45 0:d43 0:d14 0:d36 0:d31 0:d39 0:d46 0:d25 0:d51 0:d39 0:d30 0:d7 0:d45 0:d34 0:d37 0:d37 0:d49 0:d47 0:d27 0:d36 0:d54 0:d48 0:d43 0:d42 0:d51 0:d57 0:d16 0:d59 0:d45 0:d38 0:d54 0:d59",
    ),
    (
        "b5_node_kills_drop_credit2_single",
        "CongestionReport { cycles: 26, injected: 96, delivered: 72, dropped: 24, total_flits: 400, completed: true, deadlocked: false, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 72, mean: 11.930555555555555, p50: 12, p95: 22, max: 25 } }",
        "0:d7 0:d0 0:d5 0:d6 0:d4 0:d4 0:d4 0:d4 0:d8 0:x5 0:d4 0:d5 0:d6 0:d4 0:d6 0:d5 0:d9 0:d10 0:d14 0:d5 0:d6 0:x4 0:d9 0:x7 0:d4 0:x7 0:d8 0:d12 0:d7 0:d9 0:d11 0:x2 0:x16 0:d12 0:d9 0:d11 0:x4 0:d13 0:x9 0:d6 0:d12 0:d12 0:d10 0:x4 0:d7 0:x7 0:d7 0:x14 0:d12 0:d14 0:d9 0:d12 0:d14 0:x15 0:d8 0:d15 0:d10 0:x13 0:d15 0:x2 0:x4 0:d13 0:d17 0:d17 0:d13 0:x2 0:d12 0:x15 0:x2 0:d11 0:d17 0:d18 0:d20 0:d18 0:d20 0:d15 0:x4 0:x2 0:d21 0:d19 0:x17 0:d19 0:d21 0:x2 0:d15 0:d24 0:x23 0:d20 0:d20 0:d22 0:d20 0:d25 0:d15 0:d19 0:d24 0:x18",
    ),
    (
        "b5_node_kills_reroute_vc2_wormhole3_multi",
        "CongestionReport { cycles: 46, injected: 96, delivered: 85, dropped: 11, total_flits: 1311, completed: true, deadlocked: false, vc_flits: [546, 765], vc_hol_blocked_cycles: [794, 607], latency: LatencySummary { count: 85, mean: 19.176470588235293, p50: 17, p95: 39, max: 45 } }",
        "0:d9 0:d10 0:d7 0:d9 0:d10 0:d9 0:d12 0:d5 0:x7 0:x3 0:d12 0:d6 0:d14 0:d7 0:d10 0:d9 0:d12 0:d7 0:d13 0:d9 0:d16 0:d15 0:x3 0:d13 0:d16 0:d15 0:d9 0:d9 0:x16 0:d5 0:d18 0:x1 0:d12 0:d19 0:d10 0:d15 0:d15 0:d15 0:d23 0:d18 0:d15 0:d7 0:d23 0:d22 0:d21 0:d19 0:d7 0:d22 0:d6 0:x1 0:d13 0:d21 0:x16 0:d24 0:d23 0:d19 0:x27 0:x29 0:d27 0:x20 0:d10 0:d13 0:d31 0:d16 0:d12 0:d30 0:d38 0:d26 0:d24 0:d30 0:d20 0:d38 0:x13 0:d17 0:d18 0:d34 0:d22 0:d19 0:d20 0:d27 0:d31 0:d16 0:d41 0:d37 0:d21 0:d45 0:d41 0:d15 0:d28 0:d27 0:d29 0:d43 0:d33 0:d39 0:d32 0:d25",
    ),
    (
        "b5_link_kills_drop_infinite_multi",
        "CongestionReport { cycles: 15, injected: 96, delivered: 40, dropped: 56, total_flits: 312, completed: true, deadlocked: false, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 40, mean: 6.3, p50: 6, p95: 11, max: 14 } }",
        "0:x4 0:d4 0:x3 0:x2 0:x2 0:d4 0:d4 0:x5 0:x2 0:d5 0:x2 0:d5 0:d5 0:d4 0:d4 0:x4 0:x2 0:d5 0:x2 0:d2 0:d5 0:x3 0:x2 0:x2 0:x3 0:d4 0:x4 0:x3 0:x5 0:d3 0:x5 0:x4 0:x4 0:d6 0:x6 0:d5 0:x3 0:x2 0:d8 0:x7 0:x3 0:d6 0:d6 0:x2 0:d7 0:x2 0:d8 0:d7 0:x6 0:d4 0:d8 0:d5 0:d7 0:x9 0:x4 0:x2 0:x2 0:d6 0:d8 0:x2 0:x3 0:d7 0:x2 0:d10 0:d7 0:x5 0:d9 0:d7 0:x10 0:x2 0:d11 0:x6 0:d4 0:x2 0:x8 0:x11 0:x4 0:d11 0:x12 0:d7 0:x13 0:x2 0:x10 0:x6 0:x10 0:x2 0:x2 0:d14 0:d0 0:d10 0:d10 0:x7 0:x6 0:x5 0:x7 0:x2",
    ),
    (
        "b5_link_and_node_kills_reroute_credit1_single",
        "CongestionReport { cycles: 13, injected: 64, delivered: 12, dropped: 2, total_flits: 124, completed: false, deadlocked: true, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 12, mean: 6.583333333333333, p50: 6, p95: 11, max: 11 } }",
        "0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:d8 0:d9 0:- 0:- 0:d7 0:- 0:d6 0:d4 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:x1 0:- 0:- 0:- 0:d8 0:- 0:- 0:- 0:- 0:d6 0:d6 0:- 0:- 0:x3 0:d4 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:- 0:d11 0:d4 0:- 0:d6 0:- 0:- 0:-",
    ),
    (
        "b4_second_load_through_complement_placement",
        "CongestionReport { cycles: 28, injected: 91, delivered: 91, dropped: 0, total_flits: 342, completed: true, deadlocked: false, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 91, mean: 3.8241758241758244, p50: 4, p95: 6, max: 7 } }",
        "0:d3 0:d3 0:d4 0:d3 0:d3 0:d3 0:d4 0:d3 0:d2 0:d3 0:d4 0:d4 0:d4 0:d4 0:d3 0:d4 0:d4 0:d3 0:d6 0:d4 1:d8 1:d6 1:d7 1:d5 1:d6 2:d7 2:d8 3:d7 3:d8 3:d7 3:d7 4:d7 4:d9 4:d8 4:d4 5:d9 5:d9 5:d9 5:d9 5:d12 6:d10 6:d10 6:d10 7:d10 8:d12 8:d13 8:d13 8:d15 9:d9 9:d11 9:d14 10:d12 10:d13 10:d15 10:d14 10:d16 11:d15 11:d14 11:d14 12:d16 12:d17 12:d15 12:d18 13:d16 14:d17 14:d19 15:d18 15:d18 15:d18 15:d15 16:d20 16:d19 17:d21 17:d20 19:d22 19:d23 19:d22 19:d24 21:d24 21:d24 21:d25 21:d24 21:d24 21:d25 22:d26 22:d26 22:d25 22:d26 22:d27 23:d26 23:d27",
    ),
    (
        "b5_open_loop_window_credit2_single",
        "OpenLoopReport { offered_load: 0.3, offered_realized: 0.322265625, throughput: 0.15234375, accepted: 0.9333333333333333, latency: LatencySummary { count: 154, mean: 18.57792207792208, p50: 18, p95: 31, max: 36 }, window_injected: 165, window_delivered: 154, cum_injected_by_window_end: 241, cum_delivered_by_window_end: 98, deadlocked: false, cycles: 60 }\nCongestionReport { cycles: 60, injected: 241, delivered: 225, dropped: 16, total_flits: 1135, completed: true, deadlocked: false, vc_flits: [], vc_hol_blocked_cycles: [], latency: LatencySummary { count: 225, mean: 15.262222222222222, p50: 16, p95: 28, max: 36 } }",
        "0:d4 0:d4 0:d4 0:d4 0:d5 0:d4 0:d4 0:d6 0:d5 1:d6 1:d5 1:d6 1:d4 1:d5 1:d6 1:d3 1:d6 1:d7 2:d8 2:d8 2:d7 2:d10 2:d11 2:d9 2:d8 2:d8 2:d8 2:d8 2:d7 3:d9 3:d11 3:d9 3:d10 3:d13 3:d10 3:d11 3:d20 4:d8 4:d12 4:x12 4:d10 4:d14 4:d12 4:d11 4:x16 4:x12 4:d16 5:d10 5:d13 5:d12 5:d16 5:d12 5:d11 5:d12 5:d15 5:d15 5:d18 6:d15 6:x12 6:d17 6:d22 6:d18 6:d15 6:d22 6:d21 6:d12 7:d26 7:d18 7:d17 7:d24 7:x20 7:d21 7:d24 7:d20 7:d13 7:d22 8:d17 8:d22 8:d17 8:d20 8:d16 8:d19 8:d26 8:d22 8:d15 8:d23 8:d22 8:d18 8:d18 8:d21 9:d23 9:x12 9:d25 9:d18 9:d28 9:d29 9:d24 9:d23 10:d26 10:d23 10:d19 10:d29 10:d24 10:d26 10:d19 11:d27 11:d31 11:x12 11:d25 11:d22 11:d29 11:d23 11:d28 11:d30 11:x21 11:d31 11:d28 11:d17 11:d27 11:d27 11:d30 12:d30 12:d32 12:d30 12:d30 12:d29 12:d29 12:d28 13:d29 13:d23 13:d24 13:d32 13:x27 13:d19 13:d21 13:d28 13:d23 14:d32 14:d23 14:d39 14:d35 14:d32 14:d37 14:d22 14:d38 14:d34 14:d29 14:d33 14:d23 14:d36 14:d36 15:d29 15:d37 15:d34 15:d42 15:d30 15:d37 15:d34 15:d39 15:d41 15:d29 16:d35 16:d28 16:d26 16:d40 16:d36 16:x44 16:d32 17:d38 17:d41 17:x44 17:d34 17:d31 17:d33 17:d39 18:d43 18:d38 18:x44 18:d46 18:d49 18:d35 18:x32 18:d36 18:d46 18:d33 18:d45 18:d40 19:d42 19:d41 19:d28 19:d40 19:d35 19:d35 19:d44 19:d40 19:d51 19:d46 19:d37 19:d36 19:d39 20:d46 20:d46 20:d38 20:x50 20:d34 20:d45 20:d42 20:d48 20:d43 20:d38 21:d42 21:x21 21:d43 21:d51 21:d52 21:d38 21:d44 21:d49 21:d51 21:d40 21:d37 21:d47 22:d47 22:d22 22:d43 22:d52 22:x22 22:d53 22:d32 22:d43 22:d47 22:d53 22:d47 22:d54 22:d37 23:d48 23:d47 23:d54 23:d41 23:d59 23:d46",
    ),
];
