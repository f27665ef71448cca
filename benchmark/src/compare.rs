//! `--compare OLD NEW`: an A/B verdict for two sets of runs.
//!
//! Each file holds the records `--out` appends, one JSON object per run.
//! Runs are paired by workload and seed, in the order each file lists them:
//! the k-th old run of a seed with the k-th new run of that seed. Made in
//! alternation, the two runs of a pair share the host's state, so their
//! ratio new/old cancels the slow phases a shared host goes through. Per
//! workload and end-to-end metric the verdict reads the median of those
//! ratios against the metric's bound in `BENCHMARK.json`, and is
//! `unresolved` when the ratios' interquartile spread (as a share of their
//! median) exceeds the bound.

use crate::stats::Summary;
use serde_json::Value;
use std::collections::BTreeMap;

/// An end-to-end metric's direction and regression bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the `end_to_end` entries of `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let entries = benchmark["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |key: &str| {
                e[key]
                    .as_str()
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without {key}: {e}"))
            };
            Ok(Bound {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: e["bound"]
                    .as_f64()
                    .ok_or(format!("end_to_end entry without bound: {e}"))?,
            })
        })
        .collect()
}

/// One untraced run: its workload, seed and end-to-end metric values.
#[derive(Debug, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Reads the untraced runs of a records file, in file order.
pub fn records(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("line {}: {what}", i + 1);
        let record: Value = serde_json::from_str(line).map_err(|e| at(&e.to_string()))?;
        if record["trace"].as_f64() != Some(0.0) {
            continue;
        }
        let workload = record["workload"].as_str().ok_or(at("no workload"))?;
        // The vendored `serde_json` keeps every number as an `f64`.
        let seed = record["seed"]
            .as_f64()
            .filter(|s| *s >= 0.0 && s.fract() == 0.0)
            .ok_or(at("no seed"))? as u64;
        let metrics = record["result"]["metrics"]
            .as_object()
            .ok_or(at("no metrics"))?
            .iter()
            .map(|(name, m)| {
                m["value"]
                    .as_f64()
                    .map(|v| (name.clone(), v))
                    .ok_or(at(&format!("{name} has no value")))
            })
            .collect::<Result<_, _>>()?;
        runs.push(Run {
            workload: workload.to_string(),
            seed,
            metrics,
        });
    }
    Ok(runs)
}

/// The `(old, new)` values of `metric` on `workload`, paired by seed: the
/// k-th old run of each seed with the k-th new run of that seed.
pub fn pairs(old: &[Run], new: &[Run], workload: &str, metric: &str) -> Vec<(f64, f64)> {
    let values = |runs: &[Run]| -> BTreeMap<u64, Vec<f64>> {
        let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for r in runs.iter().filter(|r| r.workload == workload) {
            if let Some(&v) = r.metrics.get(metric) {
                by_seed.entry(r.seed).or_default().push(v);
            }
        }
        by_seed
    };
    let (old, new) = (values(old), values(new));
    old.iter()
        .filter_map(|(seed, a)| {
            new.get(seed)
                .map(|b| a.iter().copied().zip(b.iter().copied()))
        })
        .flatten()
        .collect()
}

/// The verdict from the paired ratios new/old under `bound`.
pub fn verdict(ratios: &Summary, bound: &Bound) -> Verdict {
    if ratios.spread() > bound.bound {
        return Verdict::Unresolved;
    }
    let worse = if bound.lower_is_better {
        ratios.median > 1.0 + bound.bound
    } else {
        ratios.median < 1.0 - bound.bound
    };
    if worse {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Four significant digits, in scientific notation outside [0.01, 10^4).
fn num(x: f64) -> String {
    if x != 0.0 && !(0.01..1e4).contains(&x.abs()) {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// Prints the comparison table; returns the exit code (1 when any metric
/// regressed, 2 when an input cannot be read).
pub fn run(old_path: &str, new_path: &str) -> i32 {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = (|| -> Result<_, String> {
        let benchmark = serde_json::from_str(&read("BENCHMARK.json")?)
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok((
            bounds(&benchmark)?,
            records(&read(old_path)?)?,
            records(&read(new_path)?)?,
        ))
    })();
    let (bounds, old, new) = match loaded {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return 2;
        }
    };
    let mut workloads: Vec<&str> = old.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut regressed = false;
    println!(
        "{:<18} {:<12} {:>30} {:>30} {:>30}  verdict",
        "workload",
        "metric",
        "old median [q1, q3]",
        "new median [q1, q3]",
        "new/old by seed [q1, q3] n"
    );
    for workload in workloads {
        for bound in &bounds {
            let paired = pairs(&old, &new, workload, &bound.name);
            if paired.is_empty() {
                println!(
                    "{workload:<18} {:<12} no runs of the same seed on both sides",
                    bound.name
                );
                continue;
            }
            let side = |pick: fn(&(f64, f64)) -> f64| {
                Summary::of(&paired.iter().map(pick).collect::<Vec<_>>())
            };
            let (a, b) = (side(|p| p.0), side(|p| p.1));
            let ratios = side(|&(o, n)| n / o);
            let v = verdict(&ratios, bound);
            regressed |= v == Verdict::Regressed;
            let cell = |s: &Summary| format!("{} [{}, {}]", num(s.median), num(s.q1), num(s.q3));
            println!(
                "{workload:<18} {:<12} {:>30} {:>30} {:>30}  {} (base: the old run of each seed, in {}; bound {})",
                bound.name,
                cell(&a),
                cell(&b),
                format!("{} {}", cell(&ratios), ratios.n),
                v.label(),
                bound.unit,
                bound.bound
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            name: "run_s".into(),
            unit: "s".into(),
            lower_is_better,
            bound: 0.1,
        }
    }

    fn tight(median: f64) -> Summary {
        Summary::of(&[median * 0.99, median, median * 1.01])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = bound(true);
        assert_eq!(verdict(&tight(1.05), &lower), Verdict::Ok);
        assert_eq!(verdict(&tight(1.2), &lower), Verdict::Regressed);
        assert_eq!(verdict(&tight(0.5), &lower), Verdict::Ok);
        let higher = bound(false);
        assert_eq!(verdict(&tight(0.8), &higher), Verdict::Regressed);
        assert_eq!(verdict(&tight(1.5), &higher), Verdict::Ok);
        let wide = Summary::of(&[0.5, 1.0, 1.5]);
        assert_eq!(verdict(&wide, &lower), Verdict::Unresolved);
    }

    fn run(workload: &str, seed: u64, run_s: f64) -> Run {
        Run {
            workload: workload.into(),
            seed,
            metrics: [("run_s".to_string(), run_s)].into(),
        }
    }

    #[test]
    fn a_slow_phase_shared_by_both_sides_cancels_in_the_pairs() {
        // The host runs 1.5x slower for seeds 3 and 4, on both sides.
        let old: Vec<Run> = [1.0, 1.0, 1.5, 1.5]
            .iter()
            .enumerate()
            .map(|(i, &t)| run("w", i as u64, t))
            .collect();
        let new: Vec<Run> = [1.01, 0.99, 1.5, 1.52]
            .iter()
            .enumerate()
            .map(|(i, &t)| run("w", i as u64, t))
            .collect();
        let paired = pairs(&old, &new, "w", "run_s");
        assert_eq!(paired.len(), 4);
        let ratios = Summary::of(&paired.iter().map(|&(o, n)| n / o).collect::<Vec<_>>());
        assert_eq!(verdict(&ratios, &bound(true)), Verdict::Ok);
        // Unpaired, each side's own spread exceeds the bound.
        assert!(Summary::of(&[1.0, 1.0, 1.5, 1.5]).spread() > 0.1);
    }

    #[test]
    fn pairs_match_seed_and_order_and_skip_other_workloads() {
        let old = vec![run("w", 1, 1.0), run("w", 1, 2.0), run("x", 1, 9.0)];
        let new = vec![run("w", 2, 5.0), run("w", 1, 1.1), run("w", 1, 2.2)];
        assert_eq!(
            pairs(&old, &new, "w", "run_s"),
            vec![(1.0, 1.1), (2.0, 2.2)]
        );
        assert!(pairs(&old, &new, "x", "run_s").is_empty());
        assert!(pairs(&old, &new, "w", "setup_s").is_empty());
    }

    #[test]
    fn records_keep_untraced_runs_only() {
        let text = r#"{"workload":"saturated_vc","seed":1,"trace":0,"result":{"metrics":{"run_s":{"value":1.5,"unit":"s"}}}}
{"workload":"saturated_vc","seed":2,"trace":0,"result":{"metrics":{"run_s":{"value":1.25,"unit":"s"}}}}
{"workload":"saturated_vc","seed":2,"trace":1,"result":{"metrics":{"topology.build_s":{"value":0.1,"unit":"s"}}}}
"#;
        let r = records(text).expect("valid records");
        assert_eq!(
            r,
            vec![run("saturated_vc", 1, 1.5), run("saturated_vc", 2, 1.25)]
        );
        assert!(records("{not json").is_err());
    }

    #[test]
    fn bounds_come_from_the_end_to_end_list() {
        let json = serde_json::from_str(
            r#"{"end_to_end":[{"name":"run_s","unit":"s","better":"lower","bound":0.1},
                {"name":"work_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("valid json");
        let b = bounds(&json).expect("valid bounds");
        assert_eq!(b[0], bound(true));
        assert!(!b[1].lower_is_better);
        assert!(bounds(&serde_json::from_str("{}").expect("valid json")).is_err());
    }
}
