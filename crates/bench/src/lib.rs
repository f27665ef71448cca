//! # ftdb-bench
//!
//! The benchmark harness and experiment driver for the fault-tolerant
//! de Bruijn workspace.
//!
//! * The `experiments` binary (`cargo run -p ftdb-bench --bin experiments`)
//!   prints every figure and table of the reproduction on stdout
//!   (FIG1–FIG5, TAB1–TAB3, COR1-4, THM1-2, SIM1, SIM2).
//! * The Criterion benches (`cargo bench --workspace`) measure the costs of
//!   the operations a real machine would perform: constructing the
//!   fault-tolerant graphs, reconfiguring after faults, verifying tolerance,
//!   routing, and running the Ascend emulation.
//!
//! This library crate only holds the shared parameter sets so that the
//! binary and the benches stay in sync.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `(h, k)` pairs used for the base-2 construction/reconfiguration benches
/// and the corollary sweeps.
pub const BASE2_PARAMS: &[(usize, usize)] =
    &[(3, 1), (4, 1), (4, 2), (5, 2), (6, 2), (8, 4), (10, 4)];

/// `(m, h, k)` triples used for the base-m benches and sweeps.
pub const BASE_M_PARAMS: &[(usize, usize, usize)] = &[
    (3, 3, 1),
    (3, 3, 2),
    (4, 3, 1),
    (4, 3, 2),
    (5, 2, 3),
    (8, 2, 1),
];

/// `h` values for the de Bruijn routing benches.
pub const ROUTING_H: &[usize] = &[6, 8, 10];

/// `(h, k)` pairs small enough for exhaustive `(k, G)`-tolerance
/// verification in a bench iteration.
pub const VERIFY_PARAMS: &[(usize, usize)] = &[(3, 1), (3, 2), (4, 1), (4, 2)];

/// Parses the value of a positive-integer flag (`--threads`, `--shards`,
/// `--vcs`, `--trials`): both binaries (`experiments`, `perf_report`)
/// validate these knobs identically. A missing value, a non-number, zero
/// and a number that `T` cannot hold are errors. Returns the value or a
/// message naming `flag` for the caller's usage-error path.
pub fn parse_positive<T>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    match value.and_then(|v| v.parse::<T>().ok()) {
        Some(v) if v >= T::from(1) => Ok(v),
        _ => Err(format!(
            "{flag} requires a positive integer that fits in {}",
            std::any::type_name::<T>()
        )),
    }
}

/// Comparing two `BENCH_perf.json` reports — the logic behind
/// `perf_report --compare <baseline> --threshold <ratio>`, kept in the
/// library so the regression gate is unit-tested rather than only exercised
/// in CI.
pub mod compare {
    use serde_json::Value;

    /// One suite present in both reports.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SuiteDelta {
        /// Suite name (the key in the report's `suites` object).
        pub suite: String,
        /// Baseline nanoseconds per item.
        pub baseline_ns: f64,
        /// Current nanoseconds per item.
        pub current_ns: f64,
        /// `current_ns / baseline_ns` (> 1 means the suite got slower).
        pub ratio: f64,
    }

    /// The outcome of comparing a current report against a baseline.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Comparison {
        /// Suites whose ratio exceeds the threshold, worst first.
        pub regressions: Vec<SuiteDelta>,
        /// All suites present in both reports, worst ratio first.
        pub deltas: Vec<SuiteDelta>,
        /// Suites only in the current report (new benches; never a failure).
        pub missing_in_baseline: Vec<String>,
        /// Suites only in the baseline (removed benches; never a failure).
        pub missing_in_current: Vec<String>,
    }

    /// Extracts `suites.<name>.ns_per_item` pairs from a perf report.
    fn suite_rates(report: &Value) -> Result<Vec<(String, f64)>, String> {
        let suites = report["suites"]
            .as_object()
            .ok_or_else(|| "report has no `suites` object".to_string())?;
        let mut rates = Vec::with_capacity(suites.len());
        for (name, entry) in suites {
            let ns = entry["ns_per_item"]
                .as_f64()
                .ok_or_else(|| format!("suite `{name}` has no numeric ns_per_item"))?;
            if !(ns.is_finite() && ns > 0.0) {
                return Err(format!(
                    "suite `{name}` has a degenerate ns_per_item ({ns})"
                ));
            }
            rates.push((name.clone(), ns));
        }
        Ok(rates)
    }

    /// Compares `current` against `baseline`: a suite regresses when its
    /// `ns_per_item` grew by more than `threshold` (e.g. 1.3 = +30%).
    /// Suites present in only one report are listed, not failed, so adding
    /// or retiring a bench does not break the gate.
    pub fn compare_reports(
        baseline: &Value,
        current: &Value,
        threshold: f64,
    ) -> Result<Comparison, String> {
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(format!(
                "threshold must be a positive ratio, got {threshold}"
            ));
        }
        let base = suite_rates(baseline)?;
        let cur = suite_rates(current)?;
        let mut result = Comparison::default();
        for (name, current_ns) in &cur {
            match base.iter().find(|(b, _)| b == name) {
                Some(&(_, baseline_ns)) => result.deltas.push(SuiteDelta {
                    suite: name.clone(),
                    baseline_ns,
                    current_ns: *current_ns,
                    ratio: current_ns / baseline_ns,
                }),
                None => result.missing_in_baseline.push(name.clone()),
            }
        }
        for (name, _) in &base {
            if !cur.iter().any(|(c, _)| c == name) {
                result.missing_in_current.push(name.clone());
            }
        }
        result
            .deltas
            .sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).expect("finite ratios"));
        result.regressions = result
            .deltas
            .iter()
            .filter(|d| d.ratio > threshold)
            .cloned()
            .collect();
        Ok(result)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use serde_json::json;

        fn report(suites: &[(&str, f64)]) -> Value {
            let mut map = std::collections::BTreeMap::new();
            for &(name, ns) in suites {
                map.insert(name.to_string(), json!({ "ns_per_item": ns }));
            }
            json!({ "schema": "ftdb-perf/1", "suites": Value::Object(map) })
        }

        #[test]
        fn flags_only_regressions_beyond_the_threshold() {
            let baseline = report(&[("a", 100.0), ("b", 100.0), ("c", 100.0)]);
            let current = report(&[("a", 129.0), ("b", 131.0), ("c", 40.0)]);
            let cmp = compare_reports(&baseline, &current, 1.3).expect("well-formed");
            assert_eq!(cmp.deltas.len(), 3);
            assert_eq!(cmp.regressions.len(), 1);
            assert_eq!(cmp.regressions[0].suite, "b");
            assert!((cmp.regressions[0].ratio - 1.31).abs() < 1e-9);
            // Worst first.
            assert_eq!(cmp.deltas[0].suite, "b");
            assert_eq!(cmp.deltas[2].suite, "c");
        }

        #[test]
        fn suite_set_changes_are_reported_not_failed() {
            let baseline = report(&[("old", 10.0), ("kept", 10.0)]);
            let current = report(&[("kept", 10.0), ("new", 10.0)]);
            let cmp = compare_reports(&baseline, &current, 1.3).expect("well-formed");
            assert!(cmp.regressions.is_empty());
            assert_eq!(cmp.missing_in_baseline, vec!["new".to_string()]);
            assert_eq!(cmp.missing_in_current, vec!["old".to_string()]);
        }

        #[test]
        fn malformed_reports_and_thresholds_are_errors() {
            let good = report(&[("a", 10.0)]);
            assert!(compare_reports(&json!({"no": "suites"}), &good, 1.3).is_err());
            assert!(compare_reports(&report(&[("a", 0.0)]), &good, 1.3).is_err());
            assert!(compare_reports(&good, &good, 0.0).is_err());
            assert!(compare_reports(&good, &good, f64::NAN).is_err());
        }

        #[test]
        fn round_trips_through_the_json_parser() {
            // The gate reads the committed baseline from disk: parsing the
            // rendered report must reproduce the same comparison.
            let baseline = report(&[("a", 100.0), ("b", 50.0)]);
            let reparsed = serde_json::from_str(&baseline.to_string()).expect("parses");
            let current = report(&[("a", 150.0), ("b", 50.0)]);
            let cmp = compare_reports(&reparsed, &current, 1.3).expect("well-formed");
            assert_eq!(cmp.regressions.len(), 1);
            assert_eq!(cmp.regressions[0].suite, "a");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_sets_are_nonempty_and_sane() {
        assert!(!BASE2_PARAMS.is_empty());
        assert!(BASE2_PARAMS.iter().all(|&(h, k)| h >= 3 && k >= 1));
        assert!(BASE_M_PARAMS
            .iter()
            .all(|&(m, h, k)| m >= 2 && h >= 2 && k >= 1));
        assert!(VERIFY_PARAMS.iter().all(|&(h, k)| (1usize << h) + k <= 20));
        assert!(!ROUTING_H.is_empty());
    }

    #[test]
    fn positive_flags_reject_zero_non_numbers_and_overflow() {
        let vcs = |v: &str| parse_positive::<u32>("--vcs", Some(&v.to_string()));
        assert_eq!(vcs("4"), Ok(4));
        assert_eq!(vcs("4294967295"), Ok(u32::MAX));
        let rejected = "--vcs requires a positive integer that fits in u32";
        for bad in ["0", "four", "-1", "4294967296", "4294967297"] {
            assert_eq!(vcs(bad), Err(rejected.to_string()), "{bad}");
        }
        assert!(parse_positive::<usize>("--trials", None).is_err());
    }
}
