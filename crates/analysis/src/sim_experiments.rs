//! The simulation experiments SIM1 and SIM2.
//!
//! * **SIM1** instantiates the paper's motivating claim: an Ascend-class
//!   algorithm (all-reduce) on a shuffle-exchange machine runs at full speed
//!   when healthy, *stalls* when a single processor fails and there are no
//!   spares, and runs at full speed again when the machine is the
//!   fault-tolerant `B^k_{2,h}` and the rank-based reconfiguration is
//!   applied. The table reports steps and slowdown versus the native
//!   hypercube.
//! * **SIM2** quantifies Section V's bus trade-off: the bus implementation
//!   costs a factor of ≈ 2 only when processors are multi-ported, and
//!   (almost) nothing when they are single-ported. It additionally reports a
//!   routed-workload comparison on healthy vs. faulty vs. reconfigured
//!   machines.

use crate::report::{fmt_f64, fmt_steps, TextTable};
use ftdb_core::parallel::fan_out;
use ftdb_core::{FaultSet, FtDeBruijn2, FtShuffleExchange};
use ftdb_graph::Embedding;
use ftdb_sim::ascend_descend::{allreduce_hypercube, allreduce_shuffle_exchange};
use ftdb_sim::bus_model::bus_timing_table;
use ftdb_sim::congestion::{
    run_recovery, CongestionConfig, CongestionSim, FaultResponse, FlowControl, OpenLoopReport,
    ShardedSim, Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::metrics::SlowdownRow;
use ftdb_sim::routing::run_logical_workload;
use ftdb_sim::workload;
use ftdb_topology::{DeBruijn2, ShuffleExchange};
use rand::SeedableRng;

/// Runs SIM1 for a given `h` and fault budget `k`, with `fault_node`
/// injected in the faulty scenarios. Returns one [`SlowdownRow`] per
/// scenario.
pub fn sim1_ascend_slowdown(h: usize, k: usize, fault_node: usize) -> Vec<SlowdownRow> {
    let se = ShuffleExchange::new(h);
    let n = se.node_count();
    let values = workload::index_values(n);
    let reference = allreduce_hypercube(h, &values).expect("one value per logical node");
    let expected_total = reference.values[0];
    let mut rows = Vec::new();
    rows.push(SlowdownRow {
        scenario: "hypercube (reference)".into(),
        steps: Some(reference.steps),
        reference_steps: reference.steps.max(1),
    });

    // Healthy shuffle-exchange, no spares.
    let healthy = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
    let identity = Embedding::identity(n);
    let out = allreduce_shuffle_exchange(&se, &identity, &healthy, &values)
        .expect("healthy machine must complete");
    assert!(out.values.iter().all(|&v| v == expected_total));
    rows.push(SlowdownRow {
        scenario: "shuffle-exchange, healthy".into(),
        steps: Some(out.steps),
        reference_steps: reference.steps.max(1),
    });

    // One fault, no spares: the run stalls.
    let mut faulty = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
    faulty.inject_fault(fault_node % n);
    let stalled = allreduce_shuffle_exchange(&se, &identity, &faulty, &values);
    rows.push(SlowdownRow {
        scenario: format!(
            "shuffle-exchange, 1 fault (node {}), no spares",
            fault_node % n
        ),
        steps: stalled.ok().map(|o| o.steps),
        reference_steps: reference.steps.max(1),
    });

    // k faults on the fault-tolerant machine, reconfigured.
    let ft = FtShuffleExchange::new(h, k).expect("SE ⊆ DB embedding available for this h");
    let mut rng = rand::rngs::StdRng::seed_from_u64(fault_node as u64);
    let faults = FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
    let placement = ft
        .reconfigure_verified(&faults)
        .expect("reconfiguration must succeed for <= k faults");
    let machine = PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
    let out = allreduce_shuffle_exchange(&se, &placement, &machine, &values)
        .expect("reconfigured fault-tolerant machine must complete");
    assert!(out.values.iter().all(|&v| v == expected_total));
    rows.push(SlowdownRow {
        scenario: format!("B^{k}(2,{h}) with {k} faults, reconfigured"),
        steps: Some(out.steps),
        reference_steps: reference.steps.max(1),
    });
    rows
}

/// Renders the SIM1 rows as a [`TextTable`].
pub fn render_sim1(h: usize, k: usize, rows: &[SlowdownRow]) -> TextTable {
    let mut table = TextTable::new(
        format!("SIM1: Ascend all-reduce on 2^{h} logical nodes (k = {k})"),
        &["scenario", "steps", "slowdown vs hypercube"],
    );
    for r in rows {
        table.push_row(vec![
            r.scenario.clone(),
            fmt_steps(r.steps),
            r.slowdown().map_or("-".to_string(), fmt_f64),
        ]);
    }
    table
}

/// Runs the SIM2 bus-timing table for the standard fanouts.
pub fn sim2_bus_table() -> TextTable {
    let rows = bus_timing_table(&[1, 2, 4, 8]);
    let mut table = TextTable::new(
        "SIM2: bus implementation timing (slots per superstep)",
        &[
            "distinct values/node",
            "p2p multi-port",
            "p2p single-port",
            "bus",
            "bus vs multi-port",
            "bus vs single-port",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.fanout.to_string(),
            r.p2p_multi_port.to_string(),
            r.p2p_single_port.to_string(),
            r.bus.to_string(),
            fmt_f64(r.slowdown_vs_multi_port),
            fmt_f64(r.slowdown_vs_single_port),
        ]);
    }
    table
}

/// A routed-workload comparison (part of SIM1's narrative): delivery ratio
/// and latency of an oblivious de Bruijn-routed permutation workload on a
/// healthy machine, a faulted machine without spares, and the reconfigured
/// fault-tolerant machine.
pub fn sim1_routing_table(h: usize, k: usize, seed: u64) -> TextTable {
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pairs = workload::permutation_pairs(n, &mut rng);

    let mut table = TextTable::new(
        format!(
            "SIM1b: oblivious de Bruijn routing of a random permutation (2^{h} nodes, k = {k})"
        ),
        &[
            "scenario",
            "delivered",
            "dropped",
            "delivery ratio",
            "mean hops",
            "max hops",
        ],
    );
    let mut push = |label: &str, stats: ftdb_sim::metrics::RoutingStats| {
        table.push_row(vec![
            label.to_string(),
            stats.delivered.to_string(),
            stats.dropped.to_string(),
            fmt_f64(stats.delivery_ratio()),
            fmt_f64(stats.mean_hops()),
            stats.max_hops.to_string(),
        ]);
    };

    // Healthy, no spares.
    let healthy = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    push(
        "plain B(2,h), healthy",
        run_logical_workload(&db, &Embedding::identity(n), &healthy, &pairs, 1),
    );

    // Faulty, no spares.
    let mut faulted = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    faulted.inject_fault(1);
    push(
        "plain B(2,h), 1 fault, no spares",
        run_logical_workload(&db, &Embedding::identity(n), &faulted, &pairs, 1),
    );

    // Fault-tolerant, reconfigured.
    let ft = ftdb_core::FtDeBruijn2::new(h, k);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
    let faults = FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
    let placement = ft
        .reconfigure_verified(&faults)
        .expect("reconfiguration succeeds");
    let machine = PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
    push(
        "B^k(2,h), k faults, reconfigured",
        run_logical_workload(&db, &placement, &machine, &pairs, 1),
    );
    table
}

/// SIM3: cycle-level congestion on `B(2,h)` — the four canonical traffic
/// patterns under both port models. Where SIM1 reports *whether* packets
/// arrive, SIM3 reports *when*: makespan cycles, cycles/packet, mean and
/// p95 latency, network throughput (flits/cycle) and the heaviest link.
pub fn sim3_congestion_table(h: usize, seed: u64) -> TextTable {
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let placement = Embedding::identity(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let workloads: Vec<(&str, Vec<(usize, usize)>)> = vec![
        ("permutation", workload::permutation_pairs(n, &mut rng)),
        ("bit-reversal", workload::bit_reversal_pairs(h)),
        ("hot-spot (root 0)", workload::all_to_one(n, 0)),
        ("uniform 4x", workload::uniform_pairs(n, 4 * n, &mut rng)),
    ];
    let mut table = TextTable::new(
        format!("SIM3: cycle-level congestion on B(2,{h}) ({n} nodes)"),
        &[
            "workload",
            "ports",
            "packets",
            "cycles",
            "cycles/packet",
            "mean latency",
            "p95 latency",
            "flits/cycle",
            "max link flits",
        ],
    );
    for (label, pairs) in &workloads {
        for (port, port_label) in [
            (PortModel::MultiPort, "multi"),
            (PortModel::SinglePort, "single"),
        ] {
            let machine = PhysicalMachine::new(db.graph().clone(), port);
            let mut sim = CongestionSim::new(machine, CongestionConfig::default());
            sim.load_oblivious(&db, &placement, pairs);
            let report = sim.run();
            // Fault-free, unbounded buffers: every packet crosses every hop
            // of its oblivious route, so the heaviest link carries exactly
            // as many flits as routes cross it.
            assert!(
                report.delivered == report.injected && !report.deadlocked,
                "SIM3 runs deliver every packet: {report:?}"
            );
            table.push_row(vec![
                label.to_string(),
                port_label.to_string(),
                report.injected.to_string(),
                report.cycles.to_string(),
                fmt_f64(report.cycles_per_packet()),
                fmt_f64(report.latency.mean),
                report.latency.p95.to_string(),
                fmt_f64(report.flits_per_cycle()),
                max_link_routes(&db, pairs).to_string(),
            ]);
        }
    }
    table
}

/// The largest number of oblivious routes that cross one directed link of
/// `B(2,h)` (identity placement, consecutive duplicate nodes collapsed as
/// the engine's loader does).
fn max_link_routes(db: &DeBruijn2, pairs: &[(usize, usize)]) -> u64 {
    let mut hops = Vec::new();
    let mut path = Vec::new();
    for &(s, t) in pairs {
        db.route_into(s, t, &mut path);
        path.dedup();
        hops.extend(path.windows(2).map(|w| (w[0], w[1])));
    }
    hops.sort_unstable();
    let (mut best, mut run) = (0, 0);
    for (i, hop) in hops.iter().enumerate() {
        run = if i > 0 && hops[i - 1] == *hop {
            run + 1
        } else {
            1
        };
        best = best.max(run);
    }
    best
}

/// SIM4: dynamic fault injection with online recovery on `B^k(2,h)` — a
/// permutation is in flight when `k` processors die mid-run; the runtime
/// reconfigures (`reconfigure_verified`) and re-routes the survivors the
/// same cycle. The table reports the measured recovery latency.
pub fn sim4_recovery_table(h: usize, k: usize, fault_cycle: u32, seed: u64) -> TextTable {
    let ft = FtDeBruijn2::new(h, k);
    let n = ft.target().node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pairs = workload::permutation_pairs(n, &mut rng);
    let mut table = TextTable::new(
        format!("SIM4: mid-run faults + online reconfiguration on B^{k}(2,{h})"),
        &[
            "faults",
            "fault cycle",
            "total cycles",
            "drain cycles",
            "delivered",
            "lost on dead nodes",
            "rerouted",
        ],
    );
    for faults in 1..=k {
        // Kill `faults` distinct processors at the same cycle.
        let schedule: Vec<(u32, usize)> = (0..faults)
            .map(|i| (fault_cycle, (i * 7 + 3) % ft.node_count()))
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
        table.push_row(vec![
            faults.to_string(),
            outcome.fault_cycle.to_string(),
            outcome.report.cycles.to_string(),
            outcome.drain_cycles.to_string(),
            outcome.report.delivered.to_string(),
            outcome.lost_on_dead_nodes.to_string(),
            outcome.rerouted.to_string(),
        ]);
    }
    table
}

/// One scenario of the SIM5 offered-load sweep: a machine (healthy or
/// faulted `B^k(2,h)`), a port model and a flow-control setting, measured at
/// each offered load in turn.
#[derive(Clone, Copy, Debug)]
pub struct SweepScenario {
    /// De Bruijn order of the logical target `B(2,h)`.
    pub h: usize,
    /// Spare budget of the fault-tolerant host `B^k(2,h)`.
    pub k: usize,
    /// Processors to kill (≤ `k`); the placement is reconfigured around
    /// them before traffic starts, so the sweep measures congestion on the
    /// *recovered* machine, not feasibility.
    pub fault_count: usize,
    /// Output-port discipline.
    pub port: PortModel,
    /// Buffer sizing.
    pub flow: FlowControl,
}

/// The canonical open-loop spec for one SIM5 sweep point.
fn sim5_spec(offered_load: f64, seed: u64) -> ftdb_sim::workload::OpenLoopSpec {
    ftdb_sim::workload::OpenLoopSpec {
        offered_load,
        process: ftdb_sim::workload::InjectionProcess::Bernoulli,
        warmup_cycles: 150,
        measure_cycles: 300,
        drain_cycles: 450,
        seed,
    }
}

/// Measures one contiguous chunk of sweep points on a single worker: one
/// warmed [`CongestionSim`] (and one injection-schedule buffer) serves the
/// whole chunk through [`CongestionSim::clear_workload`], so per-point cost
/// is the simulation itself, not engine construction.
fn sweep_chunk(
    ft: &FtDeBruijn2,
    faults: &FaultSet,
    placement: &Embedding,
    config: CongestionConfig,
    port: PortModel,
    loads: &[f64],
    seed: u64,
) -> Vec<OpenLoopReport> {
    let machine = PhysicalMachine::with_faults(ft.graph().clone(), faults.clone(), port);
    let mut sim = CongestionSim::new(machine, config);
    let logical_n = ft.target().node_count();
    loads
        .iter()
        .map(|&offered_load| {
            let spec = sim5_spec(offered_load, seed);
            let injections = ftdb_sim::workload::open_loop_injections(logical_n, &spec);
            sim.clear_workload();
            sim.load_oblivious_timed(ft.target(), placement, &injections);
            ftdb_sim::congestion::measure_open_loop(&mut sim, &spec)
        })
        .collect()
}

/// Runs one latency–throughput curve: an open-loop Bernoulli run per
/// offered load, with the points fanned out over `threads` workers
/// ([`fan_out`]). Every point is an independent `(load, fault-set, seed)`
/// simulation, each worker reuses one warmed engine across its contiguous
/// chunk, and the chunks are merged in load order — so the result is
/// byte-identical for any thread count, and deterministic for a fixed
/// `(scenario, loads, seed)`.
pub fn sim5_load_sweep(
    scenario: &SweepScenario,
    loads: &[f64],
    seed: u64,
    threads: usize,
) -> Vec<OpenLoopReport> {
    let ft = FtDeBruijn2::new(scenario.h, scenario.k.max(1));
    // Kill processors that are actually *in use* by the zero-fault
    // placement (a random pick could land on an idle spare, making the
    // "faulted" sweep identical to the healthy one).
    let initial = ft.reconfigure(&FaultSet::empty(ft.node_count()));
    let logical_n = ft.target().node_count();
    let mut faults = FaultSet::empty(ft.node_count());
    for i in 0..scenario.fault_count {
        faults.add(initial.apply((i * 37 + 1) % logical_n));
    }
    let placement = ft
        .reconfigure_verified(&faults)
        .expect("fault count within the construction's budget");
    let config = CongestionConfig {
        flow_control: scenario.flow,
        ..CongestionConfig::default()
    };
    fan_out(loads, threads, |loads| {
        sweep_chunk(&ft, &faults, &placement, config, scenario.port, loads, seed)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Renders one SIM5 curve as a [`TextTable`].
pub fn render_sim5(title: String, points: &[OpenLoopReport]) -> TextTable {
    let mut table = TextTable::new(
        title,
        &[
            "offered",
            "realized",
            "throughput",
            "accepted",
            "mean latency",
            "p95 latency",
            "deadlock",
        ],
    );
    for p in points {
        table.push_row(vec![
            fmt_f64(p.offered_load),
            fmt_f64(p.offered_realized),
            format!("{:.4}", p.throughput),
            fmt_f64(p.accepted),
            fmt_f64(p.latency.mean),
            p.latency.p95.to_string(),
            if p.deadlocked {
                "yes".to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    table
}

/// The canonical SIM5 scenario grid for the `experiments -- sim-loadsweep`
/// driver: healthy vs. faulted `B^1(2,h)`, MultiPort vs. SinglePort, and
/// buffer depths {∞, 4, 2, 1} on the faulted machine. Each curve's sweep
/// points are fanned out over `threads` workers; the rendered tables are
/// byte-identical for any thread count.
pub fn sim5_tables(h: usize, loads: &[f64], seed: u64, threads: usize) -> Vec<TextTable> {
    let mut tables = Vec::new();
    let scenarios: Vec<(String, SweepScenario)> = vec![
        (
            format!("SIM5a: healthy B^1(2,{h}), multi-port, infinite buffers"),
            SweepScenario {
                h,
                k: 1,
                fault_count: 0,
                port: PortModel::MultiPort,
                flow: FlowControl::Infinite,
            },
        ),
        (
            format!(
                "SIM5b: faulted B^1(2,{h}) (1 fault, reconfigured), multi-port, infinite buffers"
            ),
            SweepScenario {
                h,
                k: 1,
                fault_count: 1,
                port: PortModel::MultiPort,
                flow: FlowControl::Infinite,
            },
        ),
        (
            format!("SIM5c: faulted B^1(2,{h}), multi-port, credit flow control, depth 4"),
            SweepScenario {
                h,
                k: 1,
                fault_count: 1,
                port: PortModel::MultiPort,
                flow: FlowControl::CreditBased { buffer_depth: 4 },
            },
        ),
        (
            format!("SIM5d: faulted B^1(2,{h}), multi-port, credit flow control, depth 2"),
            SweepScenario {
                h,
                k: 1,
                fault_count: 1,
                port: PortModel::MultiPort,
                flow: FlowControl::CreditBased { buffer_depth: 2 },
            },
        ),
        (
            format!("SIM5e: faulted B^1(2,{h}), multi-port, credit flow control, depth 1"),
            SweepScenario {
                h,
                k: 1,
                fault_count: 1,
                port: PortModel::MultiPort,
                flow: FlowControl::CreditBased { buffer_depth: 1 },
            },
        ),
        (
            format!("SIM5f: faulted B^1(2,{h}), single-port, credit flow control, depth 2"),
            SweepScenario {
                h,
                k: 1,
                fault_count: 1,
                port: PortModel::SinglePort,
                flow: FlowControl::CreditBased { buffer_depth: 2 },
            },
        ),
    ];
    for (title, scenario) in scenarios {
        let points = sim5_load_sweep(&scenario, loads, seed, threads);
        tables.push(render_sim5(title, &points));
    }
    tables
}

/// Injection windows for a SIM6 sharded open-loop run. The SIM5 windows
/// (150/300/450 cycles) multiply into hundreds of millions of injections at
/// `B(2,20)`; million-node runs use shorter windows with a generous drain.
#[derive(Clone, Copy, Debug)]
pub struct ShardedSweepSpec {
    /// Cycles injected before the measurement window opens.
    pub warmup_cycles: u32,
    /// Cycles in the measurement window.
    pub measure_cycles: u32,
    /// Cycles the run may keep draining after injection stops.
    pub drain_cycles: u32,
    /// Injection-schedule seed.
    pub seed: u64,
}

/// SIM6: an open-loop latency–throughput sweep on a healthy `B(2,h)`
/// executed by the sharded engine ([`ShardedSim`]) under credit flow
/// control. Deterministic for fixed inputs and — the property the
/// `shard_determinism` test compares — *independent of `shards` and `threads`*:
/// the rendered table is byte-identical for any partition.
pub fn sim6_sharded_sweep(
    h: usize,
    loads: &[f64],
    windows: &ShardedSweepSpec,
    shards: usize,
    threads: usize,
) -> Vec<OpenLoopReport> {
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let placement = Embedding::identity(n);
    let config = CongestionConfig {
        flow_control: FlowControl::CreditBased { buffer_depth: 4 },
        ..CongestionConfig::default()
    };
    loads
        .iter()
        .map(|&offered_load| {
            let spec = ftdb_sim::workload::OpenLoopSpec {
                offered_load,
                process: ftdb_sim::workload::InjectionProcess::Bernoulli,
                warmup_cycles: windows.warmup_cycles,
                measure_cycles: windows.measure_cycles,
                drain_cycles: windows.drain_cycles,
                seed: windows.seed,
            };
            let injections = ftdb_sim::workload::open_loop_injections(n, &spec);
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = ShardedSim::new(machine, config, shards, threads);
            sim.load_oblivious_timed(&db, &placement, &injections);
            ftdb_sim::congestion::measure_open_loop(&mut sim, &spec)
        })
        .collect()
}

/// The canned SIM6 grid for `experiments -- sim-sharded`: small enough for
/// CI, congested enough to exercise credit back-pressure and the boundary
/// channels (the top loads sit past the saturation knee).
pub fn sim6_tables(h: usize, seed: u64, shards: usize, threads: usize) -> Vec<TextTable> {
    let windows = ShardedSweepSpec {
        warmup_cycles: 100,
        measure_cycles: 200,
        drain_cycles: 400,
        seed,
    };
    let loads = [0.05, 0.15, 0.30, 0.50];
    let points = sim6_sharded_sweep(h, &loads, &windows, shards, threads);
    vec![render_sim5(
        format!("SIM6: healthy B(2,{h}), sharded engine, credit flow control, depth 4"),
        &points,
    )]
}

/// The canned SIM7 grid for `experiments -- sim-vc`: virtual-channel and
/// wormhole flow control on the sharded engine. The grid pairs the depth-1
/// hot-spot that hard-deadlocks single-channel credit flow (it drains once
/// `vcs >= 2` — the dateline story of `docs/CONGESTION.md`, visible as
/// table rows) with a draining permutation batch, under both switching
/// modes. The CI VC-determinism step runs this for `--vcs 1/2/4`, diffing
/// each VC count across `--shards 1/2/4`: like every sharded output, the
/// rendered table must be byte-identical for any partition and thread
/// count.
pub fn sim7_vc_tables(
    h: usize,
    seed: u64,
    vcs: u32,
    shards: usize,
    threads: usize,
) -> Vec<TextTable> {
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let placement = Embedding::identity(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let workloads = [
        ("hot-spot (root 2)", 1u32, workload::all_to_one(n, 2)),
        ("permutation", 2, workload::permutation_pairs(n, &mut rng)),
    ];
    let mut table = TextTable::new(
        format!("SIM7: virtual-channel flow control on B(2,{h}), sharded engine, vcs = {vcs}"),
        &[
            "workload",
            "depth",
            "switching",
            "cycles",
            "delivered",
            "deadlocked",
            "flits",
            "flits/VC",
            "HoL-blocked cycles",
        ],
    );
    for (label, depth, pairs) in &workloads {
        for (switching, sw_label) in [
            (Switching::StoreAndForward, "store-and-forward"),
            (Switching::Wormhole { packet_flits: 4 }, "wormhole x4"),
        ] {
            let config = CongestionConfig {
                flow_control: FlowControl::VirtualChannel {
                    vcs,
                    buffer_depth: *depth,
                    switching,
                },
                ..CongestionConfig::default()
            };
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = ShardedSim::new(machine, config, shards, threads);
            sim.load_oblivious(&db, &placement, pairs);
            let report = sim.run();
            let vc_split = report
                .vc_flits
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("/");
            table.push_row(vec![
                label.to_string(),
                depth.to_string(),
                sw_label.to_string(),
                report.cycles.to_string(),
                report.delivered.to_string(),
                if report.deadlocked { "yes" } else { "no" }.to_string(),
                report.total_flits.to_string(),
                vc_split,
                report.vc_hol_blocked_cycles.iter().sum::<u64>().to_string(),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim1_rows_tell_the_paper_story() {
        let rows = sim1_ascend_slowdown(4, 1, 5);
        assert_eq!(rows.len(), 4);
        // Reference: h steps, slowdown 1.
        assert_eq!(rows[0].steps, Some(4));
        // Healthy SE: 2h steps, slowdown 2.
        assert_eq!(rows[1].steps, Some(8));
        assert_eq!(rows[1].slowdown(), Some(2.0));
        // One fault, no spares: stalled.
        assert_eq!(rows[2].steps, None);
        // Fault-tolerant, reconfigured: back to 2h.
        assert_eq!(rows[3].steps, Some(8));
    }

    #[test]
    fn sim1_renders_with_stalled_marker() {
        let rows = sim1_ascend_slowdown(3, 1, 2);
        let table = render_sim1(3, 1, &rows);
        let text = table.render();
        assert!(text.contains("stalled"));
        assert!(text.contains("hypercube"));
    }

    #[test]
    fn sim2_table_shows_factor_two() {
        let table = sim2_bus_table();
        let text = table.render();
        assert!(text.contains("2.00"));
        assert!(text.contains("1.00"));
        assert_eq!(table.row_count(), 4);
    }

    #[test]
    fn sim3_congestion_table_covers_all_workloads_and_ports() {
        let table = sim3_congestion_table(4, 7);
        assert_eq!(table.row_count(), 8); // 4 workloads x 2 port models
        let text = table.render();
        assert!(text.contains("permutation"));
        assert!(text.contains("bit-reversal"));
        assert!(text.contains("hot-spot"));
        assert!(text.contains("uniform"));
        assert!(text.contains("single"));
    }

    #[test]
    fn sim4_recovery_table_reports_drain_latency() {
        let table = sim4_recovery_table(4, 2, 2, 11);
        assert_eq!(table.row_count(), 2);
        let text = table.render();
        assert!(text.contains("drain cycles"));
    }

    #[test]
    fn sim7_vc_table_tells_the_dateline_story_identically_across_shards() {
        // One VC wedges the depth-1 hot-spot; two drain it. The rendered
        // table is the CI determinism artifact, so it must also be
        // byte-identical across shard counts.
        let single_vc = sim7_vc_tables(5, 0xF7DB, 1, 1, 1);
        let text = single_vc[0].render();
        assert!(text.contains("yes"), "vcs = 1 hot-spot rows deadlock");
        let two_vc = sim7_vc_tables(5, 0xF7DB, 2, 1, 1);
        assert_eq!(two_vc[0].row_count(), 4);
        let text = two_vc[0].render();
        assert!(!text.contains("yes"), "vcs = 2 drains the whole grid");
        for shards in [2usize, 4] {
            let other = sim7_vc_tables(5, 0xF7DB, 2, shards, 1);
            assert_eq!(other[0].render(), text, "shards = {shards}");
        }
    }

    #[test]
    fn sim5_sweep_points_are_deterministic_and_conserving() {
        let scenario = SweepScenario {
            h: 5,
            k: 1,
            fault_count: 1,
            port: PortModel::MultiPort,
            flow: FlowControl::CreditBased { buffer_depth: 2 },
        };
        let loads = [0.1, 0.6];
        let a = sim5_load_sweep(&scenario, &loads, 3, 1);
        let b = sim5_load_sweep(&scenario, &loads, 3, 1);
        assert_eq!(a, b, "same scenario + seed must reproduce exactly");
        for point in &a {
            assert!(point.cum_delivered_by_window_end <= point.cum_injected_by_window_end);
            assert!(point.window_delivered <= point.window_injected);
        }
        // Low load on the reconfigured machine flows freely.
        assert!(a[0].accepted > 0.9, "low load should deliver: {:?}", a[0]);
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        // The acceptance bar for the harness: fanning sweep points over
        // workers (with per-worker engine reuse) must not change a single
        // byte of the rendered tables, for thread counts that divide the
        // load grid evenly, unevenly, and exceed it.
        let scenario = SweepScenario {
            h: 5,
            k: 1,
            fault_count: 1,
            port: PortModel::MultiPort,
            flow: FlowControl::CreditBased { buffer_depth: 2 },
        };
        let loads = [0.05, 0.2, 0.4, 0.6, 0.8];
        let sequential = sim5_load_sweep(&scenario, &loads, 11, 1);
        for threads in [2usize, 3, 4, 8] {
            let parallel = sim5_load_sweep(&scenario, &loads, 11, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
            let a = render_sim5("t".into(), &sequential).render();
            let b = render_sim5("t".into(), &parallel).render();
            assert_eq!(a, b, "rendered tables differ at threads={threads}");
        }
    }

    #[test]
    fn sim5_tables_cover_the_scenario_grid() {
        let tables = sim5_tables(5, &[0.1, 0.4], 7, 2);
        assert_eq!(tables.len(), 6);
        let all: Vec<String> = tables.iter().map(|t| t.render()).collect();
        assert!(all[0].contains("healthy"));
        assert!(all.iter().skip(1).all(|t| t.contains("faulted")));
        assert!(all[5].contains("single-port"));
        for text in &all {
            assert!(text.contains("throughput"));
            assert!(text.contains("0.10"), "offered column rendered: {text}");
        }
    }

    #[test]
    fn sim1_routing_table_shows_recovery() {
        let table = sim1_routing_table(4, 2, 99);
        assert_eq!(table.row_count(), 3);
        let text = table.render();
        // Healthy and reconfigured scenarios deliver everything (ratio 1.00);
        // the faulted unprotected scenario drops at least the packets that
        // start or end at the faulty node.
        assert!(text.contains("1.00"));
        let faulted_line = text
            .lines()
            .find(|l| l.contains("no spares"))
            .expect("faulted scenario row present");
        assert!(
            !faulted_line.contains("1.00"),
            "faulted run should drop packets: {faulted_line}"
        );
    }
}
