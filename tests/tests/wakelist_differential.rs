//! Differential property suite: the congestion engine against
//! [`CycleModel`], the reference model of its cycle rules written from
//! `docs/CONGESTION.md` (`tests/model.rs`).
//!
//! The engine is a wake-list kernel with implicit O(1) route state, timed
//! credit and claim-expiry FIFOs and any number of shards; the model is a
//! plain loop over every live packet in id order with materialized paths
//! and per-link counters. For any machine, placement, workload, kill
//! schedule, port model and flow-control mode the two must agree on every
//! `CongestionReport` field, every packet's outcome stamps and every
//! step's `CycleEvents`, at shards {1, 2, 4} and at several thread counts.
//! The engine also checks credit conservation after every step and
//! between `run_until` chunks, while packets sit in buffers that another
//! shard owns.

use ftdb_analysis::sim_experiments::{sim5_load_sweep, SweepScenario};
use ftdb_core::{FaultSet, FtDeBruijn2, LinkFaultSet};
use ftdb_graph::{Embedding, Graph};
use ftdb_sim::congestion::{
    measure_open_loop, run_recovery, CongestionConfig, CongestionReport, CycleEvents,
    FaultResponse, FlowControl, ShardedSim, Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload::{self, InjectionProcess, OpenLoopSpec};
use ftdb_tests::model::{self, CycleModel};
use ftdb_topology::DeBruijn2;
use proptest::prelude::*;
use rand::RngExt;

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct RunOutcome {
    report: CongestionReport,
    report_text: String,
    counts: (u64, u64, u64, u64),
    outcomes: Vec<(u32, Option<u32>, Option<u32>)>,
}

/// One workload on one machine: what the engine and the model both run.
struct Workload<'a> {
    h: usize,
    machine: &'a PhysicalMachine,
    placement: &'a Embedding,
    flow: FlowControl,
    response: FaultResponse,
    pairs: &'a [(usize, usize)],
    /// An open-loop schedule, loaded instead of `pairs`.
    timed: Option<&'a [(u32, usize, usize)]>,
    node_kills: &'a [(u32, usize)],
    link_kills: &'a [(u32, LinkFaultSet)],
}

impl Workload<'_> {
    fn config(&self) -> CongestionConfig {
        CongestionConfig {
            flow_control: self.flow,
            fault_response: self.response,
            // Small cap so pathological schedules still finish fast; the
            // same cap on both sides keeps truncated runs comparable too.
            max_cycles: 5_000,
        }
    }

    fn describe(&self) -> String {
        format!(
            "h={}, {:?}, {:?}, {:?}, {} pairs, timed={}, node kills {:?}, link kills at {:?}",
            self.h,
            self.machine.port_model(),
            self.flow,
            self.response,
            self.pairs.len(),
            self.timed.is_some(),
            self.node_kills,
            self.link_kills.iter().map(|k| k.0).collect::<Vec<_>>(),
        )
    }

    fn load_engine(&self, sim: &mut ShardedSim) {
        let db = DeBruijn2::new(self.h);
        match self.timed {
            Some(injections) => sim.load_oblivious_timed(&db, self.placement, injections),
            None => sim.load_oblivious(&db, self.placement, self.pairs),
        }
        for &(cycle, node) in self.node_kills {
            sim.schedule_fault(cycle, node).unwrap();
        }
        for (cycle, links) in self.link_kills {
            sim.schedule_link_faults(*cycle, links).unwrap();
        }
    }

    fn load_model(&self, model: &mut CycleModel) {
        let db = DeBruijn2::new(self.h);
        match self.timed {
            Some(injections) => model.load_timed(&db, self.placement, injections),
            None => model.load(&db, self.placement, self.pairs),
        }
        for &(cycle, node) in self.node_kills {
            model.schedule_fault(cycle, node);
        }
        for (cycle, links) in self.link_kills {
            model.schedule_link_faults(*cycle, links);
        }
    }

    /// The model's run to the end: every step's events and the outcome.
    fn model_run(&self) -> (Vec<CycleEvents>, RunOutcome) {
        let mut model = CycleModel::new(self.machine.clone(), self.config());
        self.load_model(&mut model);
        let steps = model.run_until(u32::MAX);
        let report = model.report();
        let outcome = RunOutcome {
            report_text: format!("{report:?}"),
            report,
            counts: model.counts(),
            outcomes: (0..model.counts().0 as usize)
                .map(|id| model.packet_outcome(id))
                .collect(),
        };
        (steps, outcome)
    }

    /// Steps an engine through the model's cycles, comparing each step's
    /// events and checking credit conservation after every one.
    fn engine_steps_match(&self, steps: &[CycleEvents], shards: usize, threads: usize) {
        let mut sim = ShardedSim::new(self.machine.clone(), self.config(), shards, threads);
        self.load_engine(&mut sim);
        let what = format!("shards={shards} threads={threads} ({})", self.describe());
        for want in steps {
            assert_eq!(sim.step(), *want, "cycle events diverged: {what}");
            sim.check_credit_conservation()
                .unwrap_or_else(|msg| panic!("cycle {}: {msg} ({what})", want.cycle));
        }
    }

    /// Drains an engine in short `run_until` chunks (the entry point the
    /// open-loop sweeps use, stop rule included), checking credit
    /// conservation after each, and collects every observable output.
    fn engine_run(&self, shards: usize, threads: usize) -> RunOutcome {
        let mut sim = ShardedSim::new(self.machine.clone(), self.config(), shards, threads);
        self.load_engine(&mut sim);
        loop {
            let before = sim.cycle();
            sim.run_until(before + 8);
            sim.check_credit_conservation().unwrap_or_else(|msg| {
                panic!(
                    "shards={shards} cycle {}: {msg} ({})",
                    sim.cycle(),
                    self.describe()
                )
            });
            if sim.cycle() < before + 8 || sim.deadlocked() {
                break;
            }
        }
        let report = sim.report();
        RunOutcome {
            // Reports have no serialised form, so "byte-identical" is
            // pinned on the deterministic Debug rendering.
            report_text: format!("{report:?}"),
            report,
            counts: sim.counts(),
            outcomes: (0..sim.counts().0 as usize)
                .map(|id| sim.packet_outcome(id))
                .collect(),
        }
    }
}

/// The engine against the model on one workload: every step's events at
/// shards {1, 2, 4}, and the full outcome at shards {1, 2, 3, 4} with one
/// worker and with several. Returns the model's outcome.
fn assert_engine_matches_model(w: &Workload<'_>) -> RunOutcome {
    let (steps, want) = w.model_run();
    for (shards, threads) in [(1usize, 1usize), (2, 1), (4, 2)] {
        w.engine_steps_match(&steps, shards, threads);
    }
    for (shards, threads) in [(1usize, 1usize), (2, 2), (4, 1), (3, 2)] {
        let got = w.engine_run(shards, threads);
        assert_report_fields_equal(&got.report, &want.report);
        assert_eq!(
            got,
            want,
            "shards={shards} threads={threads} ({})",
            w.describe()
        );
    }
    // Unbounded buffers cannot deadlock, mid-run re-routes included.
    if w.flow == FlowControl::Infinite {
        assert!(
            !want.report.deadlocked,
            "deadlock under unbounded buffers ({})",
            w.describe()
        );
    }
    want
}

/// Field-by-field equality over every public `CongestionReport` field,
/// with the field's name in the failure message. The destructuring is
/// exhaustive (no `..`), so adding a report field fails to compile here
/// until it is compared — and `ftdb-analyzer`'s `diff-coverage` audit
/// cross-checks the struct definition against this file, so the field
/// cannot be waved through with a `..` either.
fn assert_report_fields_equal(engine: &CongestionReport, model: &CongestionReport) {
    let CongestionReport {
        cycles,
        injected,
        delivered,
        dropped,
        total_flits,
        completed,
        deadlocked,
        vc_flits,
        vc_hol_blocked_cycles,
        latency,
    } = engine;
    assert_eq!(*cycles, model.cycles, "cycles diverged");
    assert_eq!(*injected, model.injected, "injected diverged");
    assert_eq!(*delivered, model.delivered, "delivered diverged");
    assert_eq!(*dropped, model.dropped, "dropped diverged");
    assert_eq!(*total_flits, model.total_flits, "total_flits diverged");
    assert_eq!(*completed, model.completed, "completed diverged");
    assert_eq!(*deadlocked, model.deadlocked, "deadlocked diverged");
    assert_eq!(*vc_flits, model.vc_flits, "vc_flits diverged");
    assert_eq!(
        *vc_hol_blocked_cycles, model.vc_hol_blocked_cycles,
        "vc_hol_blocked_cycles diverged"
    );
    assert_eq!(*latency, model.latency, "latency summary diverged");
}

/// Static damage to the machine a run loads onto. The engine's oblivious
/// loader decides once per load whether the placement is sound: on the
/// healthy graph it is, and each packet checks only its endpoints; static
/// node faults on placement images and missing shift links make it
/// unsound, and each packet walks its route. The model walks every route,
/// so it is the per-packet reference for all three. Packets whose routes
/// the damage breaks drop at load.
#[derive(Clone, Copy, Debug)]
enum Damage {
    None,
    /// Up to `count` static node faults drawn from `seed`.
    Nodes {
        count: usize,
        seed: u64,
    },
    /// Up to `count` de Bruijn links removed from the graph, drawn from
    /// `seed`.
    Links {
        count: usize,
        seed: u64,
    },
}

/// The `B(2,h)` machine with `damage` applied.
fn machine_of(h: usize, port: PortModel, damage: Damage) -> PhysicalMachine {
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    match damage {
        Damage::None => PhysicalMachine::new(db.graph().clone(), port),
        Damage::Nodes { count, seed } => {
            let mut rng = ftdb_tests::seeded_rng(seed);
            let faults = FaultSet::from_nodes(n, (0..count).map(|_| rng.random_range(0..n)));
            PhysicalMachine::with_faults(db.graph().clone(), faults, port)
        }
        Damage::Links { count, seed } => {
            let mut rng = ftdb_tests::seeded_rng(seed);
            let edges: Vec<(usize, usize)> = db.graph().edges().collect();
            let cut: Vec<(usize, usize)> = (0..count)
                .map(|_| edges[rng.random_range(0..edges.len())])
                .collect();
            let adjacency = (0..n)
                .map(|u| {
                    db.graph()
                        .neighbor_ids(u)
                        .filter(|&v| !cut.contains(&(u.min(v), u.max(v))))
                        .collect()
                })
                .collect();
            let graph = Graph::from_adjacency(adjacency, format!("B(2,{h}) minus links"))
                .expect("a subgraph of a simple graph is simple");
            PhysicalMachine::new(graph, port)
        }
    }
}

/// A placed load: the logical `B(2,h)` routes through a placement that is
/// not the identity, so the engine takes every hop's node from the
/// placement map.
#[derive(Clone, Copy, Debug)]
enum Placed {
    /// The SIM5 set-up: `B^2(2,h)` reconfigured (`reconfigure_verified`)
    /// around up to two static faults on processors the zero-fault
    /// placement uses, drawn from `seed`.
    Reconfigured { seed: u64 },
    /// A non-injective placement: `B(2,h)` folded 2-to-1 onto a `B(2,h-1)`
    /// machine by dropping the top label bit. Every shift edge maps to a
    /// link or to coinciding endpoints, so routes deliver over collapsed
    /// hops, like routing's
    /// `non_injective_placement_delivers_over_coinciding_endpoints`.
    Folded,
}

/// The host machine and placement of a [`Placed`] load.
fn placed_host(h: usize, port: PortModel, kind: Placed) -> (PhysicalMachine, Embedding) {
    let n = 1usize << h;
    match kind {
        Placed::Reconfigured { seed } => {
            let ft = FtDeBruijn2::new(h, 2);
            let initial = ft.reconfigure(&FaultSet::empty(ft.node_count()));
            let mut rng = ftdb_tests::seeded_rng(seed);
            let faults = FaultSet::from_nodes(
                ft.node_count(),
                (0..2).map(|_| initial.apply(rng.random_range(0..n))),
            );
            let placement = ft
                .reconfigure_verified(&faults)
                .expect("two faults are within B^2(2,h)'s budget");
            let machine = PhysicalMachine::with_faults(ft.graph().clone(), faults, port);
            (machine, placement)
        }
        Placed::Folded => {
            let half = DeBruijn2::new(h - 1);
            let machine = PhysicalMachine::new(half.graph().clone(), port);
            (
                machine,
                Embedding::from_map((0..n).map(|x| x % (n / 2)).collect()),
            )
        }
    }
}

/// Flow-control generator: `depth == 0` is infinite buffering; otherwise
/// `vc_sel` picks the legacy single-channel credit mode (0) or
/// `VirtualChannel` with `vcs` ∈ {1, 2, 4} (1..=3), and `worm_sel` picks
/// store-and-forward (0) or wormhole trains of 2 or 4 flits (1, 2).
fn flow_of(depth: u32, vc_sel: u8, worm_sel: u8) -> FlowControl {
    if depth == 0 {
        FlowControl::Infinite
    } else if vc_sel == 0 {
        FlowControl::CreditBased {
            buffer_depth: depth,
        }
    } else {
        FlowControl::VirtualChannel {
            vcs: 1u32 << (vc_sel - 1),
            buffer_depth: depth,
            switching: match worm_sel {
                0 => Switching::StoreAndForward,
                1 => Switching::Wormhole { packet_flits: 2 },
                _ => Switching::Wormhole { packet_flits: 4 },
            },
        }
    }
}

fn port_of(single: bool) -> PortModel {
    if single {
        PortModel::SinglePort
    } else {
        PortModel::MultiPort
    }
}

fn response_of(reroute: bool) -> FaultResponse {
    if reroute {
        FaultResponse::RerouteAdaptive
    } else {
        FaultResponse::Drop
    }
}

/// Machine generator: `sel` picks a healthy graph (0), static node faults
/// (1) or missing links (2), with `count` of them drawn from `seed`.
fn damage_of(sel: u8, count: usize, seed: u64) -> Damage {
    match sel {
        0 => Damage::None,
        1 => Damage::Nodes { count, seed },
        _ => Damage::Links { count, seed },
    }
}

/// `waves` random node kills drawn from `seed`: each one processor of
/// `machine` at a cycle below `horizon`.
fn node_kills_of(
    machine: &PhysicalMachine,
    waves: usize,
    horizon: u32,
    seed: u64,
) -> Vec<(u32, usize)> {
    let mut rng = ftdb_tests::seeded_rng(seed);
    (0..waves)
        .map(|_| {
            (
                rng.random_range(0..horizon),
                rng.random_range(0..machine.node_count()),
            )
        })
        .collect()
}

/// `waves` random link kills drawn from `seed`: each one to four directed
/// links of `machine` at a cycle below `horizon`.
fn link_kills_of(
    machine: &PhysicalMachine,
    waves: usize,
    horizon: u32,
    seed: u64,
) -> Vec<(u32, LinkFaultSet)> {
    let mut rng = ftdb_tests::seeded_rng(seed);
    (0..waves)
        .map(|_| {
            let count = rng.random_range(1..5usize);
            let set = LinkFaultSet::random(machine.graph(), count, &mut rng)
                .expect("a machine with links");
            (rng.random_range(0..horizon), set)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch workloads: random pair sets, random node and link kills, every
    /// flow-control mode, both port models, both fault responses, and
    /// healthy, node-faulted and link-deficient machines.
    #[test]
    fn engines_agree_on_random_batch_workloads(
        h in 3usize..6,
        depth in 0u32..4,
        vc_sel in 0u8..4,
        worm_sel in 0u8..3,
        single_port in 0u8..2,
        reroute in 0u8..2,
        packets in 1usize..200,
        node_waves in 0usize..4,
        link_waves in 0usize..3,
        damage_sel in 0u8..3,
        damage_count in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let n = 1usize << h;
        let machine = machine_of(h, port_of(single_port == 1), damage_of(damage_sel, damage_count, seed ^ 0xDA4A));
        let pairs = workload::uniform_pairs(n, packets, &mut ftdb_tests::seeded_rng(seed));
        let node_kills = node_kills_of(&machine, node_waves, 12, seed ^ 0x40DE);
        let link_kills = link_kills_of(&machine, link_waves, 12, seed ^ 0x11AC);
        assert_engine_matches_model(&Workload {
            h,
            machine: &machine,
            placement: &Embedding::identity(n),
            flow: flow_of(depth, vc_sel, worm_sel),
            response: response_of(reroute == 1),
            pairs: &pairs,
            timed: None,
            node_kills: &node_kills,
            link_kills: &link_kills,
        });
    }

    /// Hot-spot traffic at shallow buffer depths: the deadlock-detection
    /// regime. `deadlocked`, the cycle count at detection and the per-VC
    /// counters all have to match.
    #[test]
    fn engines_agree_on_deadlocking_hotspots(
        h in 3usize..6,
        depth in 1u32..3,
        vc_sel in 0u8..4,
        worm_sel in 0u8..3,
        root_seed in 0usize..64,
        single_port in 0u8..2,
        damage_sel in 0u8..3,
        damage_count in 1usize..4,
    ) {
        let n = 1usize << h;
        let machine = machine_of(h, port_of(single_port == 1), damage_of(damage_sel, damage_count, root_seed as u64));
        assert_engine_matches_model(&Workload {
            h,
            machine: &machine,
            placement: &Embedding::identity(n),
            flow: flow_of(depth, vc_sel, worm_sel),
            response: FaultResponse::Drop,
            pairs: &workload::all_to_one(n, root_seed % n),
            timed: None,
            node_kills: &[],
            link_kills: &[],
        });
    }

    /// Open-loop timed injection across the load range, with mid-run node
    /// and link kills: injection queues, credit accounting and kills all
    /// interleave with blocked packets.
    #[test]
    fn engines_agree_on_open_loop_schedules(
        h in 3usize..6,
        depth in 0u32..4,
        vc_sel in 0u8..4,
        worm_sel in 0u8..3,
        single_port in 0u8..2,
        load_pct in 5u32..95,
        node_waves in 0usize..3,
        link_waves in 0usize..3,
        reroute in 0u8..2,
        damage_sel in 0u8..3,
        damage_count in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let n = 1usize << h;
        let machine = machine_of(h, port_of(single_port == 1), damage_of(damage_sel, damage_count, seed ^ 0xDA4A));
        let spec = OpenLoopSpec {
            offered_load: load_pct as f64 / 100.0,
            process: InjectionProcess::Bernoulli,
            warmup_cycles: 10,
            measure_cycles: 20,
            drain_cycles: 60,
            seed,
        };
        let injections = workload::open_loop_injections(n, &spec);
        let node_kills = node_kills_of(&machine, node_waves, 25, seed ^ 0x5EED);
        let link_kills = link_kills_of(&machine, link_waves, 25, seed ^ 0x11AC);
        assert_engine_matches_model(&Workload {
            h,
            machine: &machine,
            placement: &Embedding::identity(n),
            flow: flow_of(depth, vc_sel, worm_sel),
            response: response_of(reroute == 1),
            pairs: &[],
            timed: Some(&injections),
            node_kills: &node_kills,
            link_kills: &link_kills,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The placement axis: batch or open-loop loads through a reconfigured
    /// host or a non-injective fold, with mid-run node and link kills on the
    /// physical machine, every flow-control mode, both port models and both
    /// fault responses. The engine's implicit shift-register routes must
    /// match the model's materialized paths at every shard count, field by
    /// field, packet by packet and step by step.
    #[test]
    fn placed_loads_agree_across_route_sources_and_shards(
        h in 3usize..6,
        folded in 0u8..2,
        depth in 0u32..4,
        vc_sel in 0u8..4,
        worm_sel in 0u8..3,
        single_port in 0u8..2,
        reroute in 0u8..2,
        packets in 1usize..160,
        node_waves in 0usize..3,
        link_waves in 0usize..3,
        open_loop in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let n = 1usize << h;
        let kind = if folded == 1 { Placed::Folded } else { Placed::Reconfigured { seed } };
        let (machine, placement) = placed_host(h, port_of(single_port == 1), kind);
        let pairs = workload::uniform_pairs(n, packets, &mut ftdb_tests::seeded_rng(seed ^ 0x9ACE));
        let node_kills = node_kills_of(&machine, node_waves, 16, seed ^ 0x40DE);
        let link_kills = link_kills_of(&machine, link_waves, 16, seed ^ 0x11AC);
        let spec = OpenLoopSpec {
            offered_load: 0.05 + (seed % 60) as f64 / 100.0,
            process: InjectionProcess::Bernoulli,
            warmup_cycles: 8,
            measure_cycles: 16,
            drain_cycles: 48,
            seed,
        };
        let injections = workload::open_loop_injections(n, &spec);
        assert_engine_matches_model(&Workload {
            h,
            machine: &machine,
            placement: &placement,
            flow: flow_of(depth, vc_sel, worm_sel),
            response: response_of(reroute == 1),
            pairs: &pairs,
            timed: (open_loop == 1).then_some(injections.as_slice()),
            node_kills: &node_kills,
            link_kills: &link_kills,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The release-build variant of the suite on `B(2,6)` and `B(2,7)`:
    /// every axis of the tier-1 properties, drawn together. Run it with
    /// `cargo test --release -p ftdb-tests --test wakelist_differential --
    /// --ignored`.
    #[test]
    #[ignore = "release-build differential on B(2,6)-B(2,7); run with --ignored"]
    fn engines_agree_on_larger_machines(
        h in 6usize..8,
        placed in 0u8..3,
        depth in 0u32..4,
        vc_sel in 0u8..4,
        worm_sel in 0u8..3,
        single_port in 0u8..2,
        reroute in 0u8..2,
        packets in 1usize..512,
        hot_spot in 0u8..4,
        node_waves in 0usize..3,
        link_waves in 0usize..3,
        open_loop in 0u8..2,
        damage_sel in 0u8..3,
        seed in 0u64..100_000,
    ) {
        let n = 1usize << h;
        let port = port_of(single_port == 1);
        let (machine, placement) = match placed {
            0 => (machine_of(h, port, damage_of(damage_sel, 3, seed ^ 0xDA4A)), Embedding::identity(n)),
            1 => placed_host(h, port, Placed::Reconfigured { seed }),
            _ => placed_host(h, port, Placed::Folded),
        };
        let pairs = if hot_spot == 0 {
            workload::all_to_one(n, (seed as usize) % n)
        } else {
            workload::uniform_pairs(n, packets, &mut ftdb_tests::seeded_rng(seed ^ 0x9ACE))
        };
        let node_kills = node_kills_of(&machine, node_waves, 24, seed ^ 0x40DE);
        let link_kills = link_kills_of(&machine, link_waves, 24, seed ^ 0x11AC);
        let spec = OpenLoopSpec {
            offered_load: 0.05 + (seed % 60) as f64 / 100.0,
            process: InjectionProcess::Bernoulli,
            warmup_cycles: 10,
            measure_cycles: 20,
            drain_cycles: 60,
            seed,
        };
        let injections = workload::open_loop_injections(n, &spec);
        assert_engine_matches_model(&Workload {
            h,
            machine: &machine,
            placement: &placement,
            flow: flow_of(depth, vc_sel, worm_sel),
            response: response_of(reroute == 1),
            pairs: &pairs,
            timed: (open_loop == 1).then_some(injections.as_slice()),
            node_kills: &node_kills,
            link_kills: &link_kills,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Online recovery on `B^k(2,h)`: up to `k` processors die mid-run,
    /// and in each cycle a kill fires, `run_recovery` reconfigures around
    /// the faults so far and re-targets every live packet before the cycle
    /// moves. The engine's `run_recovery` and the model's must agree on the
    /// whole `RecoveryOutcome`.
    #[test]
    fn recoveries_agree_with_the_model(
        h in 3usize..6,
        k in 1usize..3,
        depth in 0u32..4,
        vc_sel in 0u8..4,
        worm_sel in 0u8..3,
        single_port in 0u8..2,
        reroute in 0u8..2,
        packets in 1usize..160,
        kills in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let ft = FtDeBruijn2::new(h, k);
        let mut rng = ftdb_tests::seeded_rng(seed);
        let pairs = workload::uniform_pairs(1 << h, packets, &mut rng);
        let victims: Vec<usize> = (0..k).map(|_| rng.random_range(0..ft.node_count())).collect();
        let schedule: Vec<(u32, usize)> = (0..kills)
            .map(|_| (rng.random_range(0..12), victims[rng.random_range(0..k)]))
            .collect();
        let config = CongestionConfig {
            flow_control: flow_of(depth, vc_sel, worm_sel),
            fault_response: response_of(reroute == 1),
            max_cycles: 5_000,
        };
        let port = port_of(single_port == 1);
        let engine = run_recovery(&ft, &pairs, &schedule, port, config);
        let model = model::run_recovery(&ft, &pairs, &schedule, port, config);
        assert_eq!(
            format!("{engine:?}"),
            format!("{model:?}"),
            "h={h} k={k} {port:?} {config:?} schedule {schedule:?}"
        );
    }
}

/// A workload with no kills on `machine` through `placement`.
fn quiet<'a>(
    h: usize,
    machine: &'a PhysicalMachine,
    placement: &'a Embedding,
    flow: FlowControl,
    pairs: &'a [(usize, usize)],
) -> Workload<'a> {
    Workload {
        h,
        machine,
        placement,
        flow,
        response: FaultResponse::Drop,
        pairs,
        timed: None,
        node_kills: &[],
        link_kills: &[],
    }
}

/// Pins the placement axis: both placed hosts really place (no identity
/// map), the reconfigured host avoids the faults it was built around, the
/// fold collapses hops (a packet between labels that differ only in the
/// top bit is born on its target), and every packet of a permutation
/// delivers on both.
#[test]
fn placed_hosts_route_through_their_placements() {
    let h = 5;
    let n = 1usize << h;
    let mut rng = ftdb_tests::seeded_rng(8);
    let perm = workload::permutation_pairs(n, &mut rng);
    for kind in [Placed::Reconfigured { seed: 4 }, Placed::Folded] {
        let (machine, placement) = placed_host(h, PortModel::MultiPort, kind);
        assert!(
            (0..n).any(|x| placement.apply(x) != x),
            "{kind:?} is the identity"
        );
        assert!(
            (0..n).all(|x| machine.is_healthy(placement.apply(x))),
            "{kind:?} places a label on a faulty processor"
        );
        let credit = FlowControl::CreditBased { buffer_depth: 2 };
        let run = assert_engine_matches_model(&quiet(h, &machine, &placement, credit, &perm));
        assert_eq!(run.report.delivered, n as u64, "{kind:?}");
    }
    // The fold collapses hops. 16 -> 0 is one logical shift between two
    // labels placed on node 0, so that packet is born on its target, and
    // the fold carries fewer flits than identity-placed B(2,5) does.
    let drain = |machine: &PhysicalMachine, placement: &Embedding, pairs: &[(usize, usize)]| {
        let run = assert_engine_matches_model(&quiet(
            h,
            machine,
            placement,
            FlowControl::Infinite,
            pairs,
        ));
        assert_eq!(run.report.delivered, pairs.len() as u64);
        run.report.total_flits
    };
    let (fold_machine, fold) = placed_host(h, PortModel::MultiPort, Placed::Folded);
    let healthy = machine_of(h, PortModel::MultiPort, Damage::None);
    let identity = Embedding::identity(n);
    assert_eq!(drain(&fold_machine, &fold, &[(n / 2, 0)]), 0);
    assert_eq!(drain(&healthy, &identity, &[(n / 2, 0)]), 1);
    assert!(drain(&fold_machine, &fold, &perm) < drain(&healthy, &identity, &perm));
}

/// The ROADMAP's crisp acceptance test for virtual channels: the depth-1
/// hot-spot workload that hard-deadlocks under single-channel credit flow
/// (see `depth_one_hot_spot_deadlocks_and_is_detected`) must drain to
/// completion once `vcs >= 2` dateline-ordered channels multiplex each
/// link, in the engine at every shard count and in the model alike, while
/// `vcs = 1` (a single virtual channel is just credit flow with extra
/// bookkeeping) must still deadlock, so the detector stays honest.
#[test]
fn virtual_channels_break_the_depth_one_hotspot_deadlock() {
    let h = 5;
    let n = 1usize << h;
    let pairs = workload::all_to_one(n, 2);
    let identity = Embedding::identity(n);
    for port in [PortModel::MultiPort, PortModel::SinglePort] {
        let machine = machine_of(h, port, Damage::None);
        for (vcs, wants_deadlock) in [(1u32, true), (2, false), (4, false)] {
            let flow = FlowControl::VirtualChannel {
                vcs,
                buffer_depth: 1,
                switching: Switching::StoreAndForward,
            };
            // Pin the engine to the model first…
            let run = assert_engine_matches_model(&quiet(h, &machine, &identity, flow, &pairs));
            // …then pin what the report says.
            assert_eq!(
                run.report.deadlocked, wants_deadlock,
                "vcs={vcs} port={port:?}"
            );
            if !wants_deadlock {
                assert!(run.report.completed, "vcs={vcs} port={port:?}");
                assert_eq!(
                    run.report.delivered, n as u64,
                    "every packet must drain (vcs={vcs}, port={port:?})"
                );
            } else {
                assert!(
                    run.report.delivered < n as u64,
                    "a deadlocked hotspot cannot deliver everything"
                );
            }
        }
    }
}

/// Pins the machine axis of the property suites: on each damaged machine
/// some routes really break at load (so the walk of an unsound placement
/// is exercised, not vacuous) while others deliver, and the engine drops
/// exactly the packets whose routes the model's hop-by-hop walk rejects.
#[test]
fn damaged_machines_drop_the_same_packets_at_load() {
    let h = 5;
    let n = 1usize << h;
    let mut rng = ftdb_tests::seeded_rng(3);
    let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
    let identity = Embedding::identity(n);
    for damage in [
        Damage::Nodes { count: 3, seed: 1 },
        Damage::Links { count: 3, seed: 2 },
    ] {
        let machine = machine_of(h, PortModel::MultiPort, damage);
        let run = assert_engine_matches_model(&quiet(
            h,
            &machine,
            &identity,
            FlowControl::Infinite,
            &pairs,
        ));
        // No mid-run faults: every drop happened at load.
        assert!(run.report.dropped > 0, "{damage:?} broke no route");
        assert!(run.report.delivered > 0, "{damage:?} broke every route");
        assert!(run.report.completed, "{damage:?}");
    }
}

/// §2's zero-hop rule. A packet loaded for cycle 0 with an empty route
/// (a self-send on the all-zeros label of the identity-placed `B(2,h)`)
/// delivers at load, before a cycle-0 kill of its node; a self-send on any
/// other label rides an `h`-hop route and dies with its node. A packet
/// loaded for a later cycle resolves at its injection cycle, after that
/// cycle's kills.
#[test]
fn zero_hop_packets_resolve_at_load_or_at_their_injection_cycle() {
    let h = 6;
    let n = 1usize << h;
    let machine = machine_of(h, PortModel::MultiPort, Damage::None);
    let identity = Embedding::identity(n);
    let batch = [(0, 0), (62, 62)];
    let run = assert_engine_matches_model(&Workload {
        node_kills: &[(0, 0), (0, 62)],
        ..quiet(h, &machine, &identity, FlowControl::Infinite, &batch)
    });
    assert_eq!(run.outcomes, [(0, Some(0), None), (0, None, Some(0))]);
    let timed = [(2, 0, 0), (3, 0, 0), (4, 0, 0)];
    let run = assert_engine_matches_model(&Workload {
        timed: Some(&timed),
        node_kills: &[(3, 0)],
        ..quiet(h, &machine, &identity, FlowControl::Infinite, &[])
    });
    assert_eq!(
        run.outcomes,
        [(2, Some(2), None), (3, None, Some(3)), (4, None, Some(4))]
    );
}

/// §2's batch-load stamp. On `B(2,5)` with node 3 killed at cycle 0 and
/// one cycle stepped, a batch load stamps cycle 1: its packet from the dead
/// node is dropped at load, at cycle 1, as its timed twin for cycle 5 is
/// dropped at injection; a zero-hop packet delivers at load with latency 0;
/// and a packet from a live node counts its latency from cycle 1. The
/// engine matches the model step by step at shards {1, 2, 4}.
#[test]
fn batch_loads_made_mid_run_stamp_the_current_cycle() {
    let h = 5;
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let machine = machine_of(h, PortModel::MultiPort, Damage::None);
    let identity = Embedding::identity(n);
    let config = quiet(h, &machine, &identity, FlowControl::Infinite, &[]).config();
    let batch = [(3, 20), (0, 0), (5, 20)];
    let timed = [(5, 3, 20)];
    let mut model = CycleModel::new(machine.clone(), config);
    model.schedule_fault(0, 3);
    let first = model.step();
    model.load(&db, &identity, &batch);
    model.load_timed(&db, &identity, &timed);
    let steps = model.run_until(u32::MAX);
    let want: Vec<_> = (0..4).map(|id| model.packet_outcome(id)).collect();
    // On a fresh engine the live packet's route takes `fresh` cycles.
    let mut fresh = CycleModel::new(machine.clone(), config);
    fresh.load(&db, &identity, &[(5, 20)]);
    fresh.run_until(u32::MAX);
    let (_, Some(hops), _) = fresh.packet_outcome(0) else {
        panic!("5 -> 20 delivers on a healthy machine");
    };
    assert_eq!(
        want,
        [
            (1, None, Some(1)),
            (1, Some(1), None),
            (1, Some(1 + hops), None),
            (5, None, Some(5))
        ]
    );
    for shards in [1usize, 2, 4] {
        let mut sim = ShardedSim::new(machine.clone(), config, shards, 1);
        sim.schedule_fault(0, 3).unwrap();
        assert_eq!(sim.step(), first, "shards={shards}");
        sim.load_oblivious(&db, &identity, &batch);
        sim.load_oblivious_timed(&db, &identity, &timed);
        for want_step in &steps {
            assert_eq!(sim.step(), *want_step, "shards={shards}");
        }
        let got: Vec<_> = (0..4).map(|id| sim.packet_outcome(id)).collect();
        assert_eq!(got, want, "shards={shards}");
        assert_report_fields_equal(&sim.report(), &model.report());
        assert_eq!(sim.counts(), model.counts(), "shards={shards}");
    }
}

/// §2's stamp for timed loads. On `B(2,5)` a timed 5 → 20 for cycle 3 on a
/// fresh engine injects at cycle 3 and delivers at cycle 7. Loaded after
/// three steps for cycle 1 or cycle 0, cycles already simulated, it is
/// stamped cycle 3 and enters at load, so it reads the same. The engine
/// matches the model step by step at shards {1, 2, 4}.
#[test]
fn timed_loads_made_mid_run_stamp_past_cycles_up_to_the_current_one() {
    let h = 5;
    let db = DeBruijn2::new(h);
    let machine = machine_of(h, PortModel::MultiPort, Damage::None);
    let identity = Embedding::identity(db.node_count());
    let config = quiet(h, &machine, &identity, FlowControl::Infinite, &[]).config();
    for (cycle, steps_before) in [(3, 0), (1, 3), (0, 3)] {
        let timed = [(cycle, 5, 20)];
        let mut model = CycleModel::new(machine.clone(), config);
        let before: Vec<_> = (0..steps_before).map(|_| model.step()).collect();
        model.load_timed(&db, &identity, &timed);
        let steps = model.run_until(u32::MAX);
        assert_eq!(model.packet_outcome(0), (3, Some(7), None), "cycle {cycle}");
        for shards in [1usize, 2, 4] {
            let what = format!("cycle {cycle} shards={shards}");
            let mut sim = ShardedSim::new(machine.clone(), config, shards, 1);
            for want in before.iter().chain(&steps) {
                if want.cycle == steps_before as u32 {
                    sim.load_oblivious_timed(&db, &identity, &timed);
                }
                assert_eq!(sim.step(), *want, "{what}");
            }
            assert_eq!(sim.packet_outcome(0), (3, Some(7), None), "{what}");
            assert_report_fields_equal(&sim.report(), &model.report());
            assert_eq!(sim.counts(), model.counts(), "{what}");
        }
    }
}

/// Under a depth-2 hot spot on multi-port `B(2,4)`, two packets leave one
/// input buffer in the same cycle, so one gate gets two credit returns due
/// together and wakes two queue heads (a `shard.rs` unit test pins that it
/// happens). The younger head cannot move in that cycle, so the engine
/// still matches the model at every shard count.
#[test]
fn same_cycle_returns_to_one_gate_match_the_model() {
    let h = 4;
    let n = 1usize << h;
    let machine = machine_of(h, PortModel::MultiPort, Damage::None);
    let identity = Embedding::identity(n);
    let credit = FlowControl::CreditBased { buffer_depth: 2 };
    let hot = workload::all_to_one(n, 3);
    assert_engine_matches_model(&quiet(h, &machine, &identity, credit, &hot));
}

/// Three canned scenarios on `B(2,5)` with single-port nodes: the depth-1
/// hot-spot deadlock, node kills re-routed under depth-2 credits, and a
/// bit-reversal permutation losing a node on unbounded buffers.
#[test]
fn engine_matches_the_model_on_canned_scenarios() {
    let h = 5;
    let n = 1usize << h;
    let machine = machine_of(h, PortModel::SinglePort, Damage::None);
    let identity = Embedding::identity(n);
    let hot = workload::all_to_one(n, 2);
    let uniform = workload::uniform_pairs(n, 4 * n, &mut ftdb_tests::seeded_rng(17));
    let reversal = workload::bit_reversal_pairs(h);
    let credit = |buffer_depth| FlowControl::CreditBased { buffer_depth };
    let run = assert_engine_matches_model(&quiet(h, &machine, &identity, credit(1), &hot));
    assert!(run.report.deadlocked, "{:?}", run.report);
    let run = assert_engine_matches_model(&Workload {
        response: FaultResponse::RerouteAdaptive,
        node_kills: &[(3, 1), (5, 9)],
        ..quiet(h, &machine, &identity, credit(2), &uniform)
    });
    assert!(
        run.report.completed && run.report.dropped > 0,
        "{:?}",
        run.report
    );
    let run = assert_engine_matches_model(&Workload {
        node_kills: &[(2, 7)],
        ..quiet(h, &machine, &identity, FlowControl::Infinite, &reversal)
    });
    assert!(
        run.report.completed && run.report.dropped > 0,
        "{:?}",
        run.report
    );
}

/// The measurement layer on top: a full `measure_open_loop` window report
/// must match across shard counts, at a load below and a load beyond the
/// saturation knee, and the packet outcomes it is computed from must match
/// the model run to the same horizon.
#[test]
fn open_loop_window_reports_match_across_engines() {
    let db = DeBruijn2::new(5);
    let n = db.node_count();
    let config = CongestionConfig {
        flow_control: FlowControl::CreditBased { buffer_depth: 2 },
        ..CongestionConfig::default()
    };
    for offered_load in [0.1, 0.6] {
        let spec = OpenLoopSpec {
            offered_load,
            process: InjectionProcess::Bernoulli,
            warmup_cycles: 40,
            measure_cycles: 80,
            drain_cycles: 160,
            seed: 99,
        };
        let injections = workload::open_loop_injections(n, &spec);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut model = CycleModel::new(machine.clone(), config);
        model.load_timed(&db, &Embedding::identity(n), &injections);
        model.run_until(spec.horizon());
        let mut reports = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut sim = ShardedSim::new(machine.clone(), config, shards, 1);
            sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            reports.push(measure_open_loop(&mut sim, &spec));
            assert_report_fields_equal(&sim.report(), &model.report());
            for id in 0..sim.counts().0 as usize {
                assert_eq!(
                    sim.packet_outcome(id),
                    model.packet_outcome(id),
                    "load {offered_load} shards={shards}: packet {id}"
                );
            }
        }
        assert!(
            reports.iter().all(|r| *r == reports[0]),
            "load {offered_load}"
        );
    }
}

/// The sweep driver end to end: a SIM5 curve is a pure function of its
/// scenario and seed, whether its points run on one worker or on two.
#[test]
fn sweep_points_reproduce_at_any_thread_count() {
    let scenario = SweepScenario {
        h: 5,
        k: 1,
        fault_count: 1,
        port: PortModel::MultiPort,
        flow: FlowControl::CreditBased { buffer_depth: 2 },
    };
    let loads = [0.15, 0.55];
    let a = sim5_load_sweep(&scenario, &loads, 21, 1);
    let b = sim5_load_sweep(&scenario, &loads, 21, 2);
    assert_eq!(a, b, "sweep must be deterministic");
    assert!(a[0].accepted >= a[1].accepted - 1e-9);
}
