//! Differential property test: the event-driven wake-list congestion core
//! against the retained naive full-rescan reference.
//!
//! The wake-list engine (`EngineKind::WakeList`, the default) is a
//! reorganisation of the same cycle semantics — a packet that provably
//! cannot move parks on its link slot's blocked queue instead of being
//! rescanned — so for ANY workload, fault schedule, port model and
//! flow-control mode it must produce results that are byte-identical to the
//! naive scan (`EngineKind::NaiveScan`): the same `CongestionReport`
//! (including `deadlocked` and the latency distribution), the same
//! per-link flit counts, and the same per-packet outcome stamps.
//!
//! The same suite pins the route sources (implicit against materialized)
//! and the sharded engine against the single-table one, on identity loads
//! and on placed ones: a reconfigured `B^k(2,h)` host and a non-injective
//! fold.

use ftdb_analysis::sim_experiments::{sim5_load_sweep, SweepScenario};
use ftdb_core::{FaultSet, FtDeBruijn2};
use ftdb_graph::{Embedding, Graph};
use ftdb_sim::congestion::{
    measure_open_loop, CongestionConfig, CongestionReport, CongestionSim, EngineKind,
    FaultResponse, FlowControl, RouteSource, ShardedSim, Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload::{self, InjectionProcess, OpenLoopSpec};
use ftdb_topology::DeBruijn2;
use proptest::prelude::*;
use rand::RngExt;

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct RunOutcome {
    report: CongestionReport,
    report_text: String,
    link_loads: Vec<(usize, usize, u64)>,
    counts: (u64, u64, u64, u64),
    outcomes: Vec<(u32, Option<u32>, Option<u32>)>,
}

/// Builds, loads through `placement`, faults and drains one engine,
/// collecting every observable output. Stepping manually (instead of
/// `run`) exercises the deadlock-detection path of `run_until` through the
/// same entry point the sweep drivers use.
#[allow(clippy::too_many_arguments)]
fn drive(
    engine: EngineKind,
    route_source: RouteSource,
    h: usize,
    machine: &PhysicalMachine,
    placement: &Embedding,
    flow: FlowControl,
    response: FaultResponse,
    pairs: &[(usize, usize)],
    schedule: &[(u32, usize)],
    timed: Option<&[(u32, usize, usize)]>,
) -> RunOutcome {
    let db = DeBruijn2::new(h);
    let config = CongestionConfig {
        flow_control: flow,
        fault_response: response,
        engine,
        route_source,
        // Small cap so pathological schedules still finish fast; identical
        // caps on both engines keep truncated runs comparable too.
        max_cycles: 5_000,
    };
    let mut sim = CongestionSim::new(machine.clone(), config);
    match timed {
        Some(injections) => sim.load_oblivious_timed(&db, placement, injections),
        None => sim.load_oblivious(&db, placement, pairs),
    }
    for &(cycle, node) in schedule {
        sim.schedule_fault(cycle, node);
    }
    sim.run_to_quiescence();
    let report = sim.report();
    // The vendored serde derive is annotation-only, so "byte-identical" is
    // pinned on the deterministic Debug rendering of the full report.
    let report_text = format!("{report:?}");
    sim.check_credit_conservation()
        .expect("credit conservation at quiescence");
    let outcomes = (0..sim.counts().0 as usize)
        .map(|id| sim.packet_outcome(id))
        .collect();
    RunOutcome {
        report,
        report_text,
        link_loads: sim.link_loads(),
        counts: sim.counts(),
        outcomes,
    }
}

/// Static damage to the machine a run loads onto. Each kind sends the
/// oblivious loaders down a different validation tier, decided once per
/// load: the healthy graph earns `Full` (endpoint checks only), static node
/// faults on placement images `Health` (a health check per hop), and
/// missing shift links `Checked` (the full per-hop walk). Packets whose
/// routes the damage breaks drop at load.
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
/// not the identity, so both implicit engines take every hop's node from
/// the placement map.
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

#[allow(clippy::too_many_arguments)]
fn assert_engines_agree(
    h: usize,
    port: PortModel,
    damage: Damage,
    flow: FlowControl,
    response: FaultResponse,
    pairs: &[(usize, usize)],
    schedule: &[(u32, usize)],
    timed: Option<&[(u32, usize, usize)]>,
) {
    let machine = machine_of(h, port, damage);
    let identity = Embedding::identity(1 << h);
    let what = format!("h={h}, {port:?}, {damage:?}, {flow:?}, {response:?}");
    let wake = assert_sources_and_shards_agree(
        h, &machine, &identity, flow, response, pairs, schedule, timed, &what,
    );
    // Unbounded buffers cannot deadlock, mid-run re-routes included.
    if flow == FlowControl::Infinite {
        assert!(
            !wake.report.deadlocked,
            "deadlock under unbounded buffers ({what})"
        );
    }
    let naive = drive(
        EngineKind::NaiveScan,
        RouteSource::Implicit,
        h,
        &machine,
        &identity,
        flow,
        response,
        pairs,
        schedule,
        timed,
    );
    assert_report_fields_equal(&wake.report, &naive.report);
    assert_eq!(wake, naive, "engines diverged ({what})");
    // "Byte-identical" taken literally: the rendered reports match too.
    assert_eq!(wake.report_text, naive.report_text);
}

/// The route-source and shard differentials of one load through
/// `placement`; returns the wake-list implicit run they all match.
///
/// Route sources: the O(1) digit-shift generator (the default) must
/// reproduce the materialized-path engine byte-for-byte on the same
/// workload — including mid-run re-routes, which materialize implicit
/// packets into the segment side table. The materialized loader walks
/// every route, so it is also the per-packet reference for the implicit
/// loader's once-per-load validation tier and its successor-slot table.
///
/// Shards: the partitioned engine must reproduce the single-table run
/// byte-for-byte for every shard count — and a threaded run must match its
/// own serial run (one worker per shard, deterministic (dst, src) barrier
/// merge).
#[allow(clippy::too_many_arguments)]
fn assert_sources_and_shards_agree(
    h: usize,
    machine: &PhysicalMachine,
    placement: &Embedding,
    flow: FlowControl,
    response: FaultResponse,
    pairs: &[(usize, usize)],
    schedule: &[(u32, usize)],
    timed: Option<&[(u32, usize, usize)]>,
    what: &str,
) -> RunOutcome {
    let run = |route_source| {
        drive(
            EngineKind::WakeList,
            route_source,
            h,
            machine,
            placement,
            flow,
            response,
            pairs,
            schedule,
            timed,
        )
    };
    let wake = run(RouteSource::Implicit);
    let materialized = run(RouteSource::Materialized);
    assert_report_fields_equal(&wake.report, &materialized.report);
    assert_eq!(wake, materialized, "route sources diverged ({what})");
    for (shards, threads) in [(1usize, 1usize), (2, 1), (2, 2), (4, 1), (4, 2)] {
        let sharded = drive_sharded(
            shards, threads, h, machine, placement, flow, response, pairs, schedule, timed,
        );
        assert_report_fields_equal(&wake.report, &sharded.report);
        assert_eq!(
            (
                &wake.report,
                &wake.report_text,
                &wake.counts,
                &wake.outcomes
            ),
            (
                &sharded.report,
                &sharded.report_text,
                &sharded.counts,
                &sharded.outcomes
            ),
            "sharded engine diverged ({what}, shards={shards}, threads={threads})"
        );
    }
    wake
}

/// The sharded observables: everything [`drive`] collects except the
/// per-link flit map and the credit-conservation probe, which the sharded
/// engine does not expose (its equivalence is pinned through the report,
/// the counts and every per-packet outcome stamp instead).
struct ShardedOutcome {
    report: CongestionReport,
    report_text: String,
    counts: (u64, u64, u64, u64),
    outcomes: Vec<(u32, Option<u32>, Option<u32>)>,
}

#[allow(clippy::too_many_arguments)]
fn drive_sharded(
    shards: usize,
    threads: usize,
    h: usize,
    machine: &PhysicalMachine,
    placement: &Embedding,
    flow: FlowControl,
    response: FaultResponse,
    pairs: &[(usize, usize)],
    schedule: &[(u32, usize)],
    timed: Option<&[(u32, usize, usize)]>,
) -> ShardedOutcome {
    let db = DeBruijn2::new(h);
    let config = CongestionConfig {
        flow_control: flow,
        fault_response: response,
        engine: EngineKind::WakeList,
        route_source: RouteSource::Implicit,
        max_cycles: 5_000,
    };
    let mut sim = ShardedSim::new(machine.clone(), config, shards, threads);
    match timed {
        Some(injections) => sim.load_oblivious_timed(&db, placement, injections),
        None => sim.load_oblivious(&db, placement, pairs),
    }
    for &(cycle, node) in schedule {
        sim.schedule_fault(cycle, node);
    }
    sim.run_to_quiescence();
    let report = sim.report();
    let report_text = format!("{report:?}");
    let outcomes = (0..sim.counts().0 as usize)
        .map(|id| sim.packet_outcome(id))
        .collect();
    ShardedOutcome {
        report,
        report_text,
        counts: sim.counts(),
        outcomes,
    }
}

/// Field-by-field equality over every public `CongestionReport` field,
/// with the field's name in the failure message. The destructuring is
/// exhaustive (no `..`), so adding a report field fails to compile here
/// until it is compared — and `ftdb-analyzer`'s `diff-coverage` audit
/// cross-checks the struct definition against this file, so the field
/// cannot be waved through with a `..` either.
fn assert_report_fields_equal(wake: &CongestionReport, naive: &CongestionReport) {
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
    } = wake;
    assert_eq!(*cycles, naive.cycles, "cycles diverged");
    assert_eq!(*injected, naive.injected, "injected diverged");
    assert_eq!(*delivered, naive.delivered, "delivered diverged");
    assert_eq!(*dropped, naive.dropped, "dropped diverged");
    assert_eq!(*total_flits, naive.total_flits, "total_flits diverged");
    assert_eq!(*completed, naive.completed, "completed diverged");
    assert_eq!(*deadlocked, naive.deadlocked, "deadlocked diverged");
    assert_eq!(*vc_flits, naive.vc_flits, "vc_flits diverged");
    assert_eq!(
        *vc_hol_blocked_cycles, naive.vc_hol_blocked_cycles,
        "vc_hol_blocked_cycles diverged"
    );
    assert_eq!(*latency, naive.latency, "latency summary diverged");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch workloads: random pair sets, random fault schedules, both
    /// flow-control modes, both port models, both fault responses, and
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
        faults in 0usize..4,
        damage_sel in 0u8..3,
        damage_count in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let n = 1usize << h;
        let mut rng = ftdb_tests::seeded_rng(seed);
        let pairs = workload::uniform_pairs(n, packets, &mut rng);
        let schedule: Vec<(u32, usize)> = (0..faults)
            .map(|_| (rng.random_range(0..12) as u32, rng.random_range(0..n)))
            .collect();
        assert_engines_agree(
            h,
            port_of(single_port == 1),
            damage_of(damage_sel, damage_count, seed ^ 0xDA4A),
            flow_of(depth, vc_sel, worm_sel),
            response_of(reroute == 1),
            &pairs,
            &schedule,
            None,
        );
    }

    /// Hot-spot traffic at shallow buffer depths: the deadlock-detection
    /// regime. `deadlocked`, the cycle count at detection and the per-link
    /// flit counts all have to match.
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
        let pairs = workload::all_to_one(n, root_seed % n);
        assert_engines_agree(
            h,
            port_of(single_port == 1),
            damage_of(damage_sel, damage_count, root_seed as u64),
            flow_of(depth, vc_sel, worm_sel),
            FaultResponse::Drop,
            &pairs,
            &[],
            None,
        );
    }

    /// Open-loop timed injection across the load range, with mid-run
    /// faults: injection queues, credit accounting and fault kills all
    /// interleave with the parked queues.
    #[test]
    fn engines_agree_on_open_loop_schedules(
        h in 3usize..6,
        depth in 0u32..4,
        vc_sel in 0u8..4,
        worm_sel in 0u8..3,
        load_pct in 5u32..95,
        faults in 0usize..3,
        reroute in 0u8..2,
        damage_sel in 0u8..3,
        damage_count in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let n = 1usize << h;
        let spec = OpenLoopSpec {
            offered_load: load_pct as f64 / 100.0,
            process: InjectionProcess::Bernoulli,
            warmup_cycles: 10,
            measure_cycles: 20,
            drain_cycles: 60,
            seed,
        };
        let injections = workload::open_loop_injections(n, &spec);
        let mut rng = ftdb_tests::seeded_rng(seed ^ 0x5EED);
        let schedule: Vec<(u32, usize)> = (0..faults)
            .map(|_| (rng.random_range(0..25) as u32, rng.random_range(0..n)))
            .collect();
        assert_engines_agree(
            h,
            PortModel::MultiPort,
            damage_of(damage_sel, damage_count, seed ^ 0xDA4A),
            flow_of(depth, vc_sel, worm_sel),
            response_of(reroute == 1),
            &[],
            &schedule,
            Some(&injections),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The placement axis: batch or open-loop loads through a reconfigured
    /// host or a non-injective fold, with mid-run faults on physical
    /// nodes, every flow-control mode, both port models and both fault
    /// responses. Implicit routes must match materialized ones, and every
    /// shard configuration the single-table engine, field by field and
    /// packet by packet.
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
        faults in 0usize..3,
        open_loop in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let n = 1usize << h;
        let kind = if folded == 1 { Placed::Folded } else { Placed::Reconfigured { seed } };
        let port = port_of(single_port == 1);
        let (machine, placement) = placed_host(h, port, kind);
        let mut rng = ftdb_tests::seeded_rng(seed ^ 0x9ACE);
        let pairs = workload::uniform_pairs(n, packets, &mut rng);
        let schedule: Vec<(u32, usize)> = (0..faults)
            .map(|_| (rng.random_range(0..16) as u32, rng.random_range(0..machine.node_count())))
            .collect();
        let spec = OpenLoopSpec {
            offered_load: 0.05 + (seed % 60) as f64 / 100.0,
            process: InjectionProcess::Bernoulli,
            warmup_cycles: 8,
            measure_cycles: 16,
            drain_cycles: 48,
            seed,
        };
        let injections = workload::open_loop_injections(n, &spec);
        let flow = flow_of(depth, vc_sel, worm_sel);
        let response = response_of(reroute == 1);
        assert_sources_and_shards_agree(
            h,
            &machine,
            &placement,
            flow,
            response,
            &pairs,
            &schedule,
            (open_loop == 1).then_some(injections.as_slice()),
            &format!("h={h}, {kind:?}, {port:?}, {flow:?}, {response:?}"),
        );
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
        let run = assert_sources_and_shards_agree(
            h,
            &machine,
            &placement,
            FlowControl::CreditBased { buffer_depth: 2 },
            FaultResponse::Drop,
            &perm,
            &[],
            None,
            &format!("{kind:?}"),
        );
        assert_eq!(run.report.delivered, n as u64, "{kind:?}");
    }
    // The fold collapses hops. 16 -> 0 is one logical shift between two
    // labels placed on node 0, so that packet is born on its target, and
    // the fold carries fewer flits than identity-placed B(2,5) does.
    let drain = |machine: &PhysicalMachine, placement: &Embedding, pairs: &[(usize, usize)]| {
        let run = drive(
            EngineKind::WakeList,
            RouteSource::Implicit,
            h,
            machine,
            placement,
            FlowControl::Infinite,
            FaultResponse::Drop,
            pairs,
            &[],
            None,
        );
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
/// link — across both engines, both route sources and every shard/thread
/// configuration, byte-identically — while `vcs = 1` (a single virtual
/// channel is just credit flow with extra bookkeeping) must still deadlock,
/// so the detector stays honest.
#[test]
fn virtual_channels_break_the_depth_one_hotspot_deadlock() {
    let h = 5;
    let n = 1usize << h;
    let pairs = workload::all_to_one(n, 2);
    for port in [PortModel::MultiPort, PortModel::SinglePort] {
        for (vcs, wants_deadlock) in [(1u32, true), (2, false), (4, false)] {
            let flow = FlowControl::VirtualChannel {
                vcs,
                buffer_depth: 1,
                switching: Switching::StoreAndForward,
            };
            // Pin every engine variant to the same report first…
            assert_engines_agree(
                h,
                port,
                Damage::None,
                flow,
                FaultResponse::Drop,
                &pairs,
                &[],
                None,
            );
            // …then pin what that report says.
            let run = drive(
                EngineKind::WakeList,
                RouteSource::Implicit,
                h,
                &machine_of(h, port, Damage::None),
                &Embedding::identity(n),
                flow,
                FaultResponse::Drop,
                &pairs,
                &[],
                None,
            );
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
/// some routes really break at load (so the `Health` and `Checked` tiers
/// are exercised, not vacuous) while others deliver, and every engine
/// variant drops exactly the same packets.
#[test]
fn damaged_machines_drop_the_same_packets_at_load() {
    let h = 5;
    let n = 1usize << h;
    let mut rng = ftdb_tests::seeded_rng(3);
    let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
    let (port, flow, response) = (
        PortModel::MultiPort,
        FlowControl::Infinite,
        FaultResponse::Drop,
    );
    for damage in [
        Damage::Nodes { count: 3, seed: 1 },
        Damage::Links { count: 3, seed: 2 },
    ] {
        assert_engines_agree(h, port, damage, flow, response, &pairs, &[], None);
        let machine = machine_of(h, port, damage);
        let run = drive(
            EngineKind::WakeList,
            RouteSource::Implicit,
            h,
            &machine,
            &Embedding::identity(n),
            flow,
            response,
            &pairs,
            &[],
            None,
        );
        // No mid-run faults: every drop happened at load.
        assert!(run.report.dropped > 0, "{damage:?} broke no route");
        assert!(run.report.delivered > 0, "{damage:?} broke every route");
        assert!(run.report.completed, "{damage:?}");
    }
}

/// The measurement layer on top: a full `measure_open_loop` window report
/// must match between engines, at a load below and a load beyond the
/// saturation knee.
#[test]
fn open_loop_window_reports_match_across_engines() {
    let db = DeBruijn2::new(5);
    let n = db.node_count();
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
        let mut reports = Vec::new();
        for engine in [EngineKind::WakeList, EngineKind::NaiveScan] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = CongestionSim::new(
                machine,
                CongestionConfig {
                    flow_control: FlowControl::CreditBased { buffer_depth: 2 },
                    engine,
                    ..CongestionConfig::default()
                },
            );
            sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            reports.push(measure_open_loop(&mut sim, &spec));
        }
        assert_eq!(reports[0], reports[1], "load {offered_load}");
    }
}

/// The sweep driver end to end: a SIM5 curve is a pure function of its
/// scenario and seed — and the engines agree point by point (the sweep
/// always runs the default wake-list engine; this pins the driver's output
/// against a manually-driven naive run at the same loads).
#[test]
fn sweep_points_reproduce_under_both_engines() {
    let scenario = SweepScenario {
        h: 5,
        k: 1,
        fault_count: 1,
        port: PortModel::MultiPort,
        flow: FlowControl::CreditBased { buffer_depth: 2 },
    };
    let loads = [0.15, 0.55];
    let a = sim5_load_sweep(&scenario, &loads, 21);
    let b = sim5_load_sweep(&scenario, &loads, 21);
    assert_eq!(a, b, "sweep must be deterministic");
    assert!(a[0].accepted >= a[1].accepted - 1e-9);
}
