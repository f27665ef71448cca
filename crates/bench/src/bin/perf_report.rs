//! `perf_report` — the reproducible performance harness.
//!
//! Runs the routing, verification and reconfiguration suites with a plain
//! wall-clock measurement loop (median of repeated timed batches) and writes
//! the results to `BENCH_perf.json` so every PR records a perf datapoint.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ftdb-bench --bin perf_report [-- --quick] [-- --out PATH]
//! ```
//!
//! `--quick` shrinks the measurement windows so the harness finishes in a
//! couple of seconds (used by CI); the default mode takes tens of seconds
//! and produces more stable numbers.
//!
//! `--compare <baseline.json> [--threshold <ratio>]` additionally loads a
//! previously committed report and exits non-zero when any suite present in
//! both regressed by more than the threshold (default 1.3 = +30% on
//! `ns_per_item`), printing GitHub `::warning::` annotations for each
//! regression — the perf-regression CI gate.

// Wall-clock measurement is this binary's entire purpose; the workspace-wide
// `Instant::now` ban (clippy.toml) targets simulation code, not the harness.
#![allow(clippy::disallowed_methods)]

use ftdb_analysis::reliability::{reliability_sweep, FaultModel, ReliabilitySpec};
use ftdb_analysis::sim_experiments::{sim5_load_sweep, SweepScenario};
use ftdb_core::fault::Combinations;
use ftdb_core::parallel::part_count;
use ftdb_core::verify::verify_exhaustive;
use ftdb_core::{FaultSet, FtDeBruijn2};
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{
    measure_open_loop, CongestionConfig, CongestionSim, FlowControl, Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::routing::{route_logical_debruijn_into, run_adaptive_workload, run_logical_workload};
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// One measured suite: how long one operation takes and its throughput.
struct Measurement {
    /// Median wall-clock nanoseconds for one run of the measured closure.
    ns_per_run: f64,
    /// Number of timed repetitions the median was taken over.
    repeats: usize,
}

/// Times `body` (one "run" per call): a warm-up call, then `repeats` timed
/// calls, returning the median. The median is robust against the occasional
/// scheduler hiccup, which matters in CI containers.
fn measure<F: FnMut()>(repeats: usize, mut body: F) -> Measurement {
    body(); // warm-up
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Measurement {
        ns_per_run: samples[samples.len() / 2],
        repeats,
    }
}

/// Scales a per-run measurement down to a per-item rate.
fn per_item(m: &Measurement, items: u64) -> (f64, f64) {
    let ns_per_item = m.ns_per_run / items as f64;
    let items_per_s = if ns_per_item > 0.0 {
        1e9 / ns_per_item
    } else {
        f64::INFINITY
    };
    (ns_per_item, items_per_s)
}

fn suite_entry(name: &str, m: &Measurement, items: u64, item_label: &str) -> (String, Value) {
    let (ns, rate) = per_item(m, items);
    println!(
        "{name:<40} {ns:>12.1} ns/{item_label}  {rate:>14.0} {item_label}/s  ({items} {item_label}s/run, {} repeats)",
        m.repeats
    );
    (
        name.to_string(),
        json!({
            "ns_per_item": ns,
            "items_per_s": rate,
            "item": item_label,
            "items_per_run": items,
            "repeats": m.repeats,
        }),
    )
}

const USAGE: &str = "usage: perf_report [--quick] [--threads N] [--out PATH] [--compare BASELINE [--threshold RATIO]]";

/// Prints the offending argument and the usage line, then exits nonzero.
/// Unknown flags and a dangling `--out` are hard errors: a typo must not
/// silently produce a full-length run writing to the default path.
fn usage_error(message: &str) -> ! {
    eprintln!("perf_report: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = "BENCH_perf.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut threshold = 1.3f64;
    let mut threads_flag: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => match ftdb_bench::parse_positive(arg, it.next()) {
                Ok(t) => threads_flag = Some(t),
                Err(msg) => usage_error(&msg),
            },
            "--out" => match it.next() {
                Some(path) => out_path = path.clone(),
                None => usage_error("--out requires a PATH value"),
            },
            "--compare" => match it.next() {
                Some(path) => baseline_path = Some(path.clone()),
                None => usage_error("--compare requires a BASELINE path"),
            },
            "--threshold" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t.is_finite() && t > 0.0 => threshold = t,
                _ => usage_error("--threshold requires a positive ratio (e.g. 1.3)"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let repeats = if quick { 5 } else { 15 };
    let threads =
        threads_flag.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    println!(
        "perf_report: mode={} threads={threads} repeats={repeats}",
        if quick { "quick" } else { "full" }
    );

    let mut suites: Vec<(String, Value)> = Vec::new();

    // ---- Oblivious routing: healthy permutation workload ---------------
    for &h in if quick {
        &[6usize, 10] as &[usize]
    } else {
        &[6, 8, 10]
    } {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let m = measure(repeats, || {
            let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
            assert_eq!(stats.dropped, 0);
            black_box(stats.total_hops);
        });
        suites.push(suite_entry(
            &format!("routing_oblivious_h{h}"),
            &m,
            pairs.len() as u64,
            "packet",
        ));
        if h == 10 {
            // The driver at `threads` workers (by default the available
            // parallelism) and the path-materialising kernel, for the same
            // permutation.
            let m = measure(repeats, || {
                let stats = run_logical_workload(&db, &placement, &machine, &pairs, threads);
                assert_eq!(stats.dropped, 0);
                black_box(stats.total_hops);
            });
            suites.push(suite_entry(
                &format!("routing_oblivious_batched_h{h}"),
                &m,
                pairs.len() as u64,
                "packet",
            ));
            let mut path = Vec::with_capacity(h + 1);
            let m = measure(repeats, || {
                let mut hops = 0u64;
                for &(s, t) in &pairs {
                    hops += route_logical_debruijn_into(&db, &placement, &machine, s, t, &mut path)
                        .expect("healthy delivery") as u64;
                }
                black_box(hops);
            });
            suites.push(suite_entry(
                &format!("routing_oblivious_kernel_h{h}"),
                &m,
                pairs.len() as u64,
                "packet",
            ));
        }
    }

    // ---- Adaptive (BFS) routing under faults ---------------------------
    for &h in if quick {
        &[8usize] as &[usize]
    } else {
        &[8, 10]
    } {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(1);
        machine.inject_fault(n / 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pairs = workload::uniform_pairs(n, 256, &mut rng);
        let m = measure(repeats, || {
            black_box(run_adaptive_workload(&machine, &pairs).delivered);
        });
        suites.push(suite_entry(
            &format!("routing_adaptive_h{h}"),
            &m,
            pairs.len() as u64,
            "packet",
        ));
    }

    // ---- Cycle-level congestion engine ---------------------------------
    // Measures the engine's wall-clock cost per simulated packet AND records
    // the model-level numbers (cycles/packet, flits/cycle) so every PR gets
    // a contention datapoint, not just a feasibility one.
    for &(h, port, label) in if quick {
        &[(8usize, PortModel::MultiPort, "multi")] as &[(usize, PortModel, &str)]
    } else {
        &[
            (8, PortModel::MultiPort, "multi"),
            (10, PortModel::MultiPort, "multi"),
            (10, PortModel::SinglePort, "single"),
        ]
    } {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), port);
        let placement = Embedding::identity(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let mut sim = CongestionSim::new(machine, CongestionConfig::default());
        sim.load_oblivious(&db, &placement, &pairs);
        let mut last = sim.run(); // warm + model numbers (deterministic)
        let m = measure(repeats, || {
            sim.clear_workload();
            sim.load_oblivious(&db, &placement, &pairs);
            last = sim.run();
            assert_eq!(last.dropped, 0);
            black_box(last.cycles);
        });
        let name = format!("congestion_permutation_{label}port_h{h}");
        let (ns, rate) = per_item(&m, pairs.len() as u64);
        println!(
            "{name:<40} {ns:>12.1} ns/packet  {rate:>14.0} packet/s  (cycles/packet {:.2}, flits/cycle {:.2})",
            last.cycles_per_packet(),
            last.flits_per_cycle(),
        );
        suites.push((
            name,
            json!({
                "ns_per_item": ns,
                "items_per_s": rate,
                "item": "packet",
                "items_per_run": pairs.len() as u64,
                "repeats": m.repeats,
                "cycles": last.cycles,
                "cycles_per_packet": last.cycles_per_packet(),
                "flits_per_cycle": last.flits_per_cycle(),
                "route_state_bytes": sim.route_state_bytes() as u64,
            }),
        ));
    }

    // ---- Bounded buffers: credit flow control --------------------------
    // The same drained-permutation measurement as above, but through the
    // credit-gated movement path (depth 4 drains these workloads; depth 1
    // would deadlock — that behaviour has its own tests, not a bench).
    for &(h, depth) in if quick {
        &[(8usize, 4u32)] as &[(usize, u32)]
    } else {
        &[(8, 4), (10, 4)]
    } {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let mut sim = CongestionSim::new(
            machine,
            CongestionConfig {
                flow_control: FlowControl::CreditBased {
                    buffer_depth: depth,
                },
                ..CongestionConfig::default()
            },
        );
        sim.load_oblivious(&db, &placement, &pairs);
        let mut last = sim.run();
        assert!(
            last.completed && !last.deadlocked,
            "bench workload must drain"
        );
        let m = measure(repeats, || {
            sim.clear_workload();
            sim.load_oblivious(&db, &placement, &pairs);
            last = sim.run();
            black_box(last.cycles);
        });
        suites.push(suite_entry(
            &format!("congestion_credit_d{depth}_h{h}"),
            &m,
            pairs.len() as u64,
            "packet",
        ));
    }

    // ---- Open-loop injection (offered-load machinery) ------------------
    // One full warm-up + measure + drain run at a pre-collapse load; the
    // measured loop covers injection scheduling, credit accounting and the
    // window statistics — the cost of one sweep point.
    for &h in if quick {
        &[7usize] as &[usize]
    } else {
        &[7, 8]
    } {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let spec = ftdb_sim::workload::OpenLoopSpec {
            offered_load: 0.15,
            process: ftdb_sim::workload::InjectionProcess::Bernoulli,
            warmup_cycles: 100,
            measure_cycles: 200,
            drain_cycles: 300,
            seed: 5,
        };
        let injections = ftdb_sim::workload::open_loop_injections(n, &spec);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(
            machine,
            CongestionConfig {
                flow_control: FlowControl::CreditBased { buffer_depth: 4 },
                ..CongestionConfig::default()
            },
        );
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
        let mut last = measure_open_loop(&mut sim, &spec);
        assert!(!last.deadlocked, "pre-collapse load must flow");
        let m = measure(repeats, || {
            sim.clear_workload();
            sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            last = measure_open_loop(&mut sim, &spec);
            black_box(last.window_delivered);
        });
        let name = format!("openloop_credit_d4_h{h}");
        let (ns, rate) = per_item(&m, injections.len() as u64);
        println!(
            "{name:<40} {ns:>12.1} ns/packet  {rate:>14.0} packet/s  (throughput {:.3}, mean latency {:.1})",
            last.throughput, last.latency.mean,
        );
        suites.push((
            name,
            json!({
                "ns_per_item": ns,
                "items_per_s": rate,
                "item": "packet",
                "items_per_run": injections.len() as u64,
                "repeats": m.repeats,
                "throughput": last.throughput,
                "accepted": last.accepted,
                "mean_latency": last.latency.mean,
            }),
        ));
    }

    // ---- Wake-list core at near saturation ------------------------------
    // The wake-list engine's home turf: an open-loop run just past the
    // saturation knee, where most live packets are parked on full buffers.
    {
        let h = 8;
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let spec = ftdb_sim::workload::OpenLoopSpec {
            offered_load: 0.30,
            process: ftdb_sim::workload::InjectionProcess::Bernoulli,
            warmup_cycles: 100,
            measure_cycles: 200,
            drain_cycles: 300,
            seed: 5,
        };
        let injections = ftdb_sim::workload::open_loop_injections(n, &spec);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(
            machine,
            CongestionConfig {
                flow_control: FlowControl::CreditBased { buffer_depth: 4 },
                ..CongestionConfig::default()
            },
        );
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
        let mut last = measure_open_loop(&mut sim, &spec);
        let m = measure(repeats, || {
            sim.clear_workload();
            sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            last = measure_open_loop(&mut sim, &spec);
            black_box(last.window_delivered);
        });
        let name = format!("congestion_wakelist_nearsat_h{h}");
        let (ns, rate) = per_item(&m, injections.len() as u64);
        // This run is deliberately past the saturation knee (full
        // congestion collapse), so window statistics are degenerate —
        // report the collapse-shaped facts instead: cumulative deliveries
        // by window end, and whether the run hard-deadlocked.
        println!(
            "{name:<40} {ns:>12.1} ns/packet  {rate:>14.0} packet/s  (collapse: {} of {} delivered by window end, deadlocked {})",
            last.cum_delivered_by_window_end,
            last.cum_injected_by_window_end,
            last.deadlocked,
        );
        suites.push((
            name,
            json!({
                "ns_per_item": ns,
                "items_per_s": rate,
                "item": "packet",
                "items_per_run": injections.len() as u64,
                "repeats": m.repeats,
                "cum_injected_by_window_end": last.cum_injected_by_window_end,
                "cum_delivered_by_window_end": last.cum_delivered_by_window_end,
                "deadlocked": last.deadlocked,
                "route_state_bytes": sim.route_state_bytes() as u64,
            }),
        ));
    }

    // ---- Virtual channels / wormhole at near saturation ------------------
    // The same past-the-knee workload as the wake-list nearsat suite, under
    // `FlowControl::VirtualChannel`: two dateline-ordered VCs per link
    // (store-and-forward, then 4-flit wormhole trains). This prices the
    // per-(link, vc) gate layout, the timed credit FIFO and — for the
    // wormhole row — the multi-cycle claim windows, on the wake-list
    // engine's home turf; per-VC flit splits ride into the JSON.
    for &(switching, label) in &[
        (Switching::StoreAndForward, "vc"),
        (Switching::Wormhole { packet_flits: 4 }, "wormhole"),
    ] {
        let h = 8;
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let spec = ftdb_sim::workload::OpenLoopSpec {
            offered_load: 0.30,
            process: ftdb_sim::workload::InjectionProcess::Bernoulli,
            warmup_cycles: 100,
            measure_cycles: 200,
            drain_cycles: 300,
            seed: 5,
        };
        let injections = ftdb_sim::workload::open_loop_injections(n, &spec);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(
            machine,
            CongestionConfig {
                flow_control: FlowControl::VirtualChannel {
                    vcs: 2,
                    buffer_depth: 4,
                    switching,
                },
                ..CongestionConfig::default()
            },
        );
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
        let mut last = measure_open_loop(&mut sim, &spec);
        let m = measure(repeats, || {
            sim.clear_workload();
            sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            last = measure_open_loop(&mut sim, &spec);
            black_box(last.window_delivered);
        });
        let name = format!("congestion_{label}_nearsat_h{h}");
        let (ns, rate) = per_item(&m, injections.len() as u64);
        println!(
            "{name:<40} {ns:>12.1} ns/packet  {rate:>14.0} packet/s  (collapse: {} of {} delivered by window end, deadlocked {})",
            last.cum_delivered_by_window_end,
            last.cum_injected_by_window_end,
            last.deadlocked,
        );
        suites.push((
            name,
            json!({
                "ns_per_item": ns,
                "items_per_s": rate,
                "item": "packet",
                "items_per_run": injections.len() as u64,
                "repeats": m.repeats,
                "cum_injected_by_window_end": last.cum_injected_by_window_end,
                "cum_delivered_by_window_end": last.cum_delivered_by_window_end,
                "deadlocked": last.deadlocked,
            }),
        ));
    }

    // ---- Parallel sweep harness ------------------------------------------
    // One SIM5-style latency-throughput curve fanned over `threads`
    // workers with per-worker engine reuse — the cost of a sweep
    // campaign point, not of a single engine cycle. `threads` rides into
    // the BENCH JSON (top level and per suite) so datapoints from different
    // worker counts are never compared blind.
    {
        let loads: &[f64] = if quick {
            &[0.05, 0.15, 0.30]
        } else {
            &[0.05, 0.10, 0.20, 0.30, 0.50]
        };
        let scenario = SweepScenario {
            h: 7,
            k: 1,
            fault_count: 1,
            port: PortModel::MultiPort,
            flow: FlowControl::CreditBased { buffer_depth: 4 },
        };
        // This suite exists to measure the *parallel* harness: on a
        // single-CPU runner `--threads` defaults to 1 and the fan-out path
        // would never run, so the suite floors its worker count at 2 and
        // records the count that actually ran (the same clamp the sweep
        // itself applies — requesting more workers than sweep points spawns
        // only one per point).
        let sweep_workers = part_count(loads.len(), threads.max(2));
        let mut last = sim5_load_sweep(&scenario, loads, 7, sweep_workers);
        let m = measure(repeats, || {
            last = sim5_load_sweep(&scenario, loads, 7, sweep_workers);
            black_box(last.len());
        });
        let name = "sweep_parallel_h7".to_string();
        let (ns, rate) = per_item(&m, loads.len() as u64);
        println!(
            "{name:<40} {ns:>12.1} ns/point  {rate:>14.0} point/s  ({} loads, {sweep_workers} workers)",
            loads.len()
        );
        suites.push((
            name,
            json!({
                "ns_per_item": ns,
                "items_per_s": rate,
                "item": "point",
                "items_per_run": loads.len() as u64,
                "repeats": m.repeats,
                "threads": sweep_workers,
                "threads_requested": threads,
            }),
        ));
    }

    // ---- Monte-Carlo reliability sweep -----------------------------------
    // A small canonical reliability sweep (directed-link Bernoulli faults on
    // B(2,6)): the cost of one seeded trial — healthy baseline plus the
    // faulted grid runs — through the trial fan-out with per-worker
    // engine reuse. Like `sweep_parallel_h7`, the worker count is floored at
    // 2 so the parallel path runs even on a single-CPU runner, and the count
    // that actually ran rides into the JSON.
    {
        let mut spec = ReliabilitySpec::canonical(6);
        spec.trials = if quick { 8 } else { 32 };
        spec.p_grid = vec![0.0, 0.01, 0.05];
        spec.threads = threads.max(2);
        let mc_workers = part_count(spec.trials, spec.threads);
        let mut last = reliability_sweep(&spec, FaultModel::Link);
        let m = measure(repeats, || {
            last = reliability_sweep(&spec, FaultModel::Link);
            black_box(last.points.len());
        });
        let name = "reliability_mc_h6".to_string();
        let (ns, rate) = per_item(&m, spec.trials as u64);
        println!(
            "{name:<40} {ns:>12.1} ns/trial  {rate:>14.0} trial/s  ({} trials x {} grid points, {mc_workers} workers)",
            spec.trials,
            spec.p_grid.len()
        );
        suites.push((
            name,
            json!({
                "ns_per_item": ns,
                "items_per_s": rate,
                "item": "trial",
                "items_per_run": spec.trials as u64,
                "repeats": m.repeats,
                "grid_points": spec.p_grid.len(),
                "threads": mc_workers,
                "threads_requested": threads,
            }),
        ));
    }

    // ---- Reconfiguration -----------------------------------------------
    for &(h, k) in if quick {
        &[(10usize, 4usize)] as &[(usize, usize)]
    } else {
        &[(8, 2), (10, 4)]
    } {
        let ft = FtDeBruijn2::new(h, k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let faults = FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
        let reps = 64u64;
        let m = measure(repeats, || {
            for _ in 0..reps {
                black_box(ft.reconfigure_verified(&faults).expect("tolerant").len());
            }
        });
        suites.push(suite_entry(
            &format!("reconfigure_verified_h{h}_k{k}"),
            &m,
            reps,
            "op",
        ));
    }

    // ---- Exhaustive (k, G)-tolerance verification ----------------------
    let verify_params: &[(usize, usize)] = if quick {
        &[(5, 2), (6, 2)]
    } else {
        &[(5, 2), (6, 2), (7, 2)]
    };
    for &(h, k) in verify_params {
        let ft = FtDeBruijn2::new(h, k);
        let sets = Combinations::total(ft.node_count(), k) as u64;
        let m = measure(repeats, || {
            let report = verify_exhaustive(ft.target().graph(), ft.graph(), k, threads);
            assert!(report.is_tolerant());
            black_box(report.checked);
        });
        suites.push(suite_entry(
            &format!("verify_exhaustive_h{h}_k{k}"),
            &m,
            sets,
            "fault-set",
        ));
    }

    let report = json!({
        "schema": "ftdb-perf/1",
        "mode": if quick { "quick" } else { "full" },
        "threads": threads,
        "suites": Value::Object(suites.into_iter().collect()),
    });
    std::fs::write(&out_path, format!("{report}\n")).expect("write BENCH_perf.json");
    println!("wrote {out_path}");

    // ---- Perf-regression gate ------------------------------------------
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read baseline {path}: {e}")));
        let baseline = serde_json::from_str(&text)
            .unwrap_or_else(|e| usage_error(&format!("baseline {path} is not valid JSON: {e}")));
        let cmp = ftdb_bench::compare::compare_reports(&baseline, &report, threshold)
            .unwrap_or_else(|e| usage_error(&e));
        println!(
            "\ncompare vs {path} (threshold {threshold:.2}x, {} suites in both):",
            cmp.deltas.len()
        );
        for d in &cmp.deltas {
            println!(
                "  {:<40} {:>10.1} -> {:>10.1} ns/item  ({:.2}x)",
                d.suite, d.baseline_ns, d.current_ns, d.ratio
            );
        }
        for name in &cmp.missing_in_baseline {
            println!("  {name:<40} new suite (not in baseline)");
        }
        for name in &cmp.missing_in_current {
            println!("  {name:<40} retired suite (baseline only)");
        }
        if cmp.regressions.is_empty() {
            println!("perf gate: OK, no suite regressed beyond {threshold:.2}x");
        } else {
            for d in &cmp.regressions {
                // GitHub Actions annotation: visible on the workflow run.
                println!(
                    "::warning title=perf regression::{} regressed {:.2}x \
                     ({:.1} -> {:.1} ns/item, threshold {:.2}x)",
                    d.suite, d.ratio, d.baseline_ns, d.current_ns, threshold
                );
            }
            eprintln!(
                "perf gate: {} suite(s) regressed beyond {threshold:.2}x",
                cmp.regressions.len()
            );
            std::process::exit(1);
        }
    }
}
