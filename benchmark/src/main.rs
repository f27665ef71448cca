//! The repository benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark --compare OLD.jsonl NEW.jsonl
//! ```
//!
//! A run does one warm-up repetition of one workload, then repeats it for
//! `--seconds` (at least three repetitions), each bracketed by the
//! host-speed reference (see `host.rs`). It checks every output, prints each
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report the
//! end-to-end metrics. `--trace 1` then runs a separate traced pass that
//! records spans at every layer boundary, writes them as JSON lines, and
//! reports the per-layer metrics instead. `--out PATH` appends the result,
//! tagged with workload and seed, to a JSON-lines file that `--compare`
//! reads. See README.md.

// Wall-clock timing is this binary's purpose; the workspace's
// `Instant::now` ban (clippy.toml) targets simulation code.
#![allow(clippy::disallowed_methods)]

mod compare;
mod host;
mod stats;
mod trace;
mod workloads;

use host::Reference;
use stats::{percentile, tail_percentile, Summary};
use std::io::Write;
use std::time::Instant;
use trace::Tracer;
use workloads::{Checks, Rep, Workload};

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
       benchmark --compare OLD.jsonl NEW.jsonl
workloads: million_openloop saturated_vc reliability_grid paper_tolerance";

/// Untraced repetitions run for `--seconds`, but never fewer than this.
const MIN_REPS: usize = 3;
/// Repetitions of the traced pass.
const TRACED_REPS: usize = 3;

/// End-to-end metrics: name and unit, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Where a per-layer metric comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Seconds in spans of this name, summed per traced repetition.
    Seconds(&'static str),
    /// Percentile `p` of the lengths of spans of this name, times `scale`.
    Percentile(&'static str, f64, f64),
    /// A value the workload computes (a count, a size or a ratio).
    Workload,
    /// Traced minus untraced `run_s`: what the spans cost.
    TraceOverhead,
    /// The host's speed over the untraced repetitions, relative to nominal.
    HostSpeed,
}

/// Per-layer metrics: name, unit and source. A layer the workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str, Source); 33] = [
    ("topology.build_s", "s", Source::Seconds("topology.build")),
    ("workload.gen_s", "s", Source::Seconds("workload.gen")),
    ("machine.new_s", "s", Source::Seconds("machine.new")),
    ("shard.new_s", "s", Source::Seconds("shard.new")),
    ("shard.load_s", "s", Source::Seconds("shard.load")),
    ("engine.new_s", "s", Source::Seconds("engine.new")),
    ("engine.load_s", "s", Source::Seconds("engine.load")),
    ("openloop.stats_s", "s", Source::Seconds("openloop.stats")),
    (
        "engine.step_us.p50",
        "us",
        Source::Percentile("engine.step", 1e6, 50.0),
    ),
    (
        "engine.step_us.p99",
        "us",
        Source::Percentile("engine.step", 1e6, 99.0),
    ),
    ("engine.ns_per_flit", "ns/flit", Source::Workload),
    ("engine.moved_per_cycle", "count/cycle", Source::Workload),
    ("engine.live_per_cycle", "count/cycle", Source::Workload),
    ("engine.credits_per_cycle", "count/cycle", Source::Workload),
    ("engine.moved_per_live", "ratio", Source::Workload),
    (
        "engine.route_state_bytes_per_packet",
        "B/packet",
        Source::Workload,
    ),
    (
        "shard.cycle_ms.p50",
        "ms",
        Source::Percentile("shard.cycle", 1e3, 50.0),
    ),
    (
        "shard.cycle_ms.p90",
        "ms",
        Source::Percentile("shard.cycle", 1e3, 90.0),
    ),
    ("shard.split_overhead", "ratio", Source::Workload),
    ("shard.parallel_efficiency", "ratio", Source::Workload),
    (
        "shard.route_state_bytes_per_packet",
        "B/packet",
        Source::Workload,
    ),
    (
        "reliability.sweep_s.h8",
        "s",
        Source::Seconds("reliability.sweep.h8"),
    ),
    (
        "reliability.sweep_s.h9",
        "s",
        Source::Seconds("reliability.sweep.h9"),
    ),
    (
        "reliability.sweep_s.h10",
        "s",
        Source::Seconds("reliability.sweep.h10"),
    ),
    ("reliability.ms_per_engine_run", "ms", Source::Workload),
    (
        "reliability.shard_rebuild_overhead",
        "ratio",
        Source::Workload,
    ),
    ("reliability.fanout_efficiency", "ratio", Source::Workload),
    ("verify.ns_per_fault_set", "ns", Source::Workload),
    ("verify.parallel_efficiency", "ratio", Source::Workload),
    (
        "reconfig.op_us.p50",
        "us",
        Source::Percentile("reconfig.op", 1e6, 50.0),
    ),
    (
        "reconfig.op_us.p99",
        "us",
        Source::Percentile("reconfig.op", 1e6, 99.0),
    ),
    ("trace.overhead_s", "s", Source::TraceOverhead),
    ("host.speed", "ratio", Source::HostSpeed),
];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

enum Command {
    Run(RunArgs),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                run.workload = name.clone();
            }
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer")?;
            }
            "--seconds" => {
                run.seconds = match value()?.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => return Err("--seconds needs a positive number".into()),
                };
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => run.out = Some(value()?.clone()),
            "--compare" => {
                let old = value()?.clone();
                let new = it.next().ok_or("--compare needs two files")?.clone();
                if it.next().is_some() {
                    return Err("--compare takes exactly two files".into());
                }
                return Ok(Command::Compare(old, new));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if run.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Command::Run(run))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Command::Run(run)) => run_workload(&run),
        Ok(Command::Compare(old, new)) => compare::run(&old, &new),
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// One reported metric: its value and how it was obtained.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    how: String,
}

/// Wall-clock times of repetitions read at nominal host speed: each times
/// the host's speed, relative to nominal, while it ran (see `host.rs`).
fn at_nominal(wall: &[f64], speed: &[f64]) -> Vec<f64> {
    wall.iter().zip(speed).map(|(t, s)| t * s).collect()
}

/// A timing over the untraced repetitions: the median at nominal host speed.
fn timing(name: &'static str, unit: &'static str, wall: &[f64], speed: &[f64]) -> Reported {
    let s = Summary::of(&at_nominal(wall, speed));
    Reported {
        name,
        unit,
        value: s.median,
        how: format!(
            "median at nominal host speed over {} reps (q1 {:.6}, q3 {:.6}; wall-clock median {:.6})",
            s.n,
            s.q1,
            s.q3,
            Summary::of(wall).median
        ),
    }
}

/// `VmHWM` of this process, in MB (KiB / 1024).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn run_workload(args: &RunArgs) -> i32 {
    let mut workload = workloads::build(&args.workload, args.seed).expect("name was validated");
    let mut checks = Checks::default();
    let mut silent = Tracer::new(false);

    // The warm-up repetition pays the page faults and lazy set-up that later
    // ones find done, and is not timed. The peak after it is what running
    // the workload once costs: later repetitions add allocator fragmentation
    // that grows with their number, which depends on the host's speed.
    let digest = workload.rep(&mut silent, &mut checks).digest;
    let rss = peak_rss_mb();

    // Untraced repetitions: the end-to-end numbers.
    let mut reference = Reference::new();
    let start = Instant::now();
    let (reps, speed) = bracketed(
        &mut *workload,
        &mut reference,
        &mut silent,
        &mut checks,
        |n| n < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds,
    );
    checks.check(reps.iter().all(|r| r.digest == digest), || {
        "repetitions produced different outputs".into()
    });
    if args.seed == 0 {
        let expected = workloads::reference_digest(&args.workload);
        checks.check(expected == Some(digest), || {
            format!("digest {digest:016x} differs from the reference {expected:016x?}")
        });
    }
    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();

    let metrics = if args.trace {
        let untraced = Untraced {
            run_s: &run_s,
            speed: &speed,
            digest,
        };
        traced_pass(&mut *workload, &mut reference, args, &untraced, &mut checks)
    } else {
        checks.check(rss.is_some(), || "VmHWM unreadable".into());
        let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        let [run, set, per_s, mb] = END_TO_END;
        let run = timing(run.0, run.1, &run_s, &speed);
        // Every repetition does the same work, so throughput is that work
        // over the reported run time.
        let work = Reported {
            name: per_s.0,
            unit: per_s.1,
            value: reps[0].items / run.value,
            how: format!("{} items over run_s", reps[0].items),
        };
        vec![
            run,
            timing(set.0, set.1, &setup, &speed),
            work,
            Reported {
                name: mb.0,
                unit: mb.1,
                value: rss.unwrap_or(0.0),
                how: "VmHWM after the warm-up rep".into(),
            },
        ]
    };

    println!(
        "workload {} seed {} digest {digest:016x}",
        args.workload, args.seed
    );
    for m in &metrics {
        println!("{:<38} {:>16.6} {:<12} {}", m.name, m.value, m.unit, m.how);
    }
    let result = serde_json::json!({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": serde_json::Value::Object(
            metrics
                .iter()
                .map(|m| (m.name.to_string(), serde_json::json!({"value": m.value, "unit": m.unit})))
                .collect(),
        ),
    });
    if let Some(path) = &args.out {
        let record = serde_json::json!({
            "workload": args.workload.as_str(),
            "seed": args.seed,
            "trace": u8::from(args.trace),
            "result": result.clone(),
        });
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot append to {path}: {e}");
            return 2;
        }
    }
    println!("{result}");
    i32::from(checks.failed > 0)
}

/// Runs repetitions while `more(count)` holds, each bracketed by a pass of
/// the host-speed reference. Returns them with the host's speed relative to
/// nominal while each ran: `NOMINAL_S` over the mean of the two passes.
fn bracketed(
    workload: &mut dyn Workload,
    reference: &mut Reference,
    tr: &mut Tracer,
    checks: &mut Checks,
    mut more: impl FnMut(usize) -> bool,
) -> (Vec<Rep>, Vec<f64>) {
    let (mut reps, mut speed) = (Vec::new(), Vec::new());
    while more(reps.len()) {
        tr.set_rep(reps.len());
        let before = reference.time();
        reps.push(workload.rep(tr, checks));
        let after = reference.time();
        speed.push(2.0 * host::NOMINAL_S / (before + after));
    }
    (reps, speed)
}

/// What the untraced repetitions measured, for the traced pass.
struct Untraced<'a> {
    run_s: &'a [f64],
    speed: &'a [f64],
    digest: u64,
}

/// The traced pass: repetitions with spans, the workload's extra
/// configurations, and the per-layer metrics derived from them.
fn traced_pass(
    workload: &mut dyn Workload,
    reference: &mut Reference,
    args: &RunArgs,
    untraced: &Untraced,
    checks: &mut Checks,
) -> Vec<Reported> {
    let digest = untraced.digest;
    let mut tr = Tracer::new(true);
    let (traced, traced_speed) =
        bracketed(workload, reference, &mut tr, checks, |n| n < TRACED_REPS);
    checks.check(traced.iter().all(|r| r.digest == digest), || {
        "the traced pass changed the output".into()
    });
    tr.set_rep(TRACED_REPS);
    let extras = workload.extras(&mut tr, TRACED_REPS, digest, checks);

    let traced_run_s: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
    let nominal_median = |wall: &[f64], speed: &[f64]| Summary::of(&at_nominal(wall, speed)).median;
    let overhead = nominal_median(&traced_run_s, &traced_speed)
        - nominal_median(untraced.run_s, untraced.speed);
    let per_rep_median = |values: &[f64]| -> Option<(f64, String)> {
        (!values.is_empty()).then(|| {
            let s = Summary::of(values);
            (s.median, format!("median of {} traced reps", s.n))
        })
    };
    let workload_value = |name: &str| -> Option<(f64, String)> {
        let per_rep: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.layer.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v))
            .collect();
        per_rep_median(&per_rep).or_else(|| {
            extras
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| (v, "traced pass, extra configurations".into()))
        })
    };
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, source)| {
            let found = match source {
                Source::Seconds(span) => {
                    let per_rep = tr.per_rep_seconds(span, TRACED_REPS);
                    per_rep
                        .iter()
                        .any(|&s| s > 0.0)
                        .then(|| per_rep_median(&per_rep))
                        .flatten()
                }
                Source::Percentile(span, scale, p) => {
                    let lengths = tr.durations(span);
                    (!lengths.is_empty()).then(|| {
                        let tail = tail_percentile(lengths.len());
                        let how = format!(
                            "p{p} of {} spans (tail rule allows p{})",
                            lengths.len(),
                            tail.map_or("-".into(), |t| t.to_string())
                        );
                        (percentile(&lengths, p) * scale, how)
                    })
                }
                Source::Workload => workload_value(name),
                Source::TraceOverhead => Some((
                    overhead,
                    "traced minus untraced run_s, medians at nominal host speed".into(),
                )),
                Source::HostSpeed => {
                    let s = Summary::of(untraced.speed);
                    let how = format!(
                        "median over {} untraced reps (q1 {:.4}, q3 {:.4})",
                        s.n, s.q1, s.q3
                    );
                    Some((s.median, how))
                }
            };
            let (value, how) = found.unwrap_or((0.0, "layer not exercised".into()));
            Reported {
                name,
                unit,
                value,
                how,
            }
        })
        .collect();

    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = std::path::Path::new(&dir).join(format!(
        "benchmark-spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => checks.check(false, || format!("cannot write {}: {e}", path.display())),
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_workload_or_flag_is_a_usage_error() {
        // `main` exits 2 on every `Err` from `parse_args`.
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "saturated_vc", "--bogus"])).is_err());
        assert!(parse_args(&args(&["--workload", "saturated_vc", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "saturated_vc", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--compare", "a"])).is_err());
        let Ok(Command::Run(run)) = parse_args(&args(&[
            "--workload",
            "paper_tolerance",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])) else {
            panic!("valid arguments rejected");
        };
        assert_eq!((run.seed, run.seconds, run.trace), (7, 10.0, true));
        assert!(matches!(
            parse_args(&args(&["--compare", "a", "b"])),
            Ok(Command::Compare(..))
        ));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let json = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m[k].as_str().expect("string field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            listed("per_layer"),
            own(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
        );
        let names: Vec<&str> = json["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(names, workloads::NAMES);
    }
}
