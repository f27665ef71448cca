//! Summaries, ratios and the output digest.

/// Median, quartiles and sample count of a set of measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (at least one). The quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
    /// spreads read the same as in any script that checks them.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Summary {
            n,
            q1: quartile(1),
            median,
            q3: quartile(3),
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        ratio(self.q3 - self.q1, self.median.abs())
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Percentiles the benchmark may report for a timing distribution, highest
/// first.
const PERCENTILE_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least ten of
/// `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` of `values` (0 for no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Parallel efficiency of `workers` workers: `t_serial / (workers * t_parallel)`.
pub fn parallel_efficiency(t_serial: f64, t_parallel: f64, workers: usize) -> f64 {
    ratio(t_serial, workers as f64 * t_parallel)
}

/// Relative cost of configuration `a` over configuration `b`: `t_a / t_b - 1`.
pub fn overhead(t_a: f64, t_b: f64) -> f64 {
    ratio(t_a, t_b) - 1.0
}

/// 64-bit FNV-1a digest of `text`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 3.0, 8.0, 6.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        // statistics.quantiles([1..=5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).spread(), 3.0 / 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn digest_is_stable() {
        // Published FNV-1a 64 test vectors, plus a fixed table line.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a("   0.03      0.03      0.0083      1.00         20.95           24         -\n"),
            fnv1a("   0.03      0.03      0.0083      1.00         20.95           24         -\n")
        );
        assert_ne!(fnv1a("ab"), fnv1a("ba"));
    }

    #[test]
    fn efficiency_and_overhead_formulas() {
        // Two workers that halve the serial time are perfectly efficient.
        assert_eq!(parallel_efficiency(4.0, 2.0, 2), 1.0);
        assert_eq!(parallel_efficiency(3.0, 2.0, 2), 0.75);
        assert_eq!(overhead(1.5, 1.0), 0.5);
        assert_eq!(overhead(1.0, 1.0), 0.0);
        assert_eq!(parallel_efficiency(1.0, 0.0, 2), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
