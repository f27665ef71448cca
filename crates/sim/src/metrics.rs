//! Summary statistics for simulation runs.

use crate::routing::PacketOutcome;

/// Aggregated routing statistics over a workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutingStats {
    /// Number of packets delivered.
    pub delivered: u64,
    /// Number of packets dropped.
    pub dropped: u64,
    /// Total hop count over all delivered packets.
    pub total_hops: u64,
    /// Maximum hop count over delivered packets.
    pub max_hops: usize,
}

impl RoutingStats {
    /// Records one packet outcome.
    pub fn record(&mut self, outcome: &PacketOutcome) {
        match outcome.hops() {
            Some(h) => self.record_delivered(h),
            None => self.record_dropped(),
        }
    }

    /// Records a delivered packet with the given hop count. Used by the
    /// allocation-free routing kernels, which report hop counts directly
    /// instead of materialising a [`PacketOutcome`].
    pub fn record_delivered(&mut self, hops: usize) {
        self.delivered += 1;
        self.total_hops += hops as u64;
        self.max_hops = self.max_hops.max(hops);
    }

    /// Records a dropped packet.
    pub fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Fraction of packets delivered (1.0 for an empty workload).
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }

    /// Mean hop count over delivered packets (0.0 if none were delivered).
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }

    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &RoutingStats) {
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.total_hops += other.total_hops;
        self.max_hops = self.max_hops.max(other.max_hops);
    }
}

/// A labelled slowdown measurement, used by the experiment driver to print
/// the SIM1/SIM2 tables.
#[derive(Clone, Debug, PartialEq)]
pub struct SlowdownRow {
    /// Scenario label (e.g. "healthy SE", "1 fault, no spares").
    pub scenario: String,
    /// Steps taken by the scenario (`None` means the run stalled).
    pub steps: Option<usize>,
    /// Reference step count (native hypercube).
    pub reference_steps: usize,
}

impl SlowdownRow {
    /// The slowdown factor relative to the reference, if the run completed
    /// *and* the reference is meaningful. A zero reference step count has no
    /// slowdown — returning `None` (rendered as "-") is honest, where the
    /// old `.max(1)` silently reported the raw step count as the factor.
    pub fn slowdown(&self) -> Option<f64> {
        if self.reference_steps == 0 {
            return None;
        }
        self.steps.map(|s| s as f64 / self.reference_steps as f64)
    }
}

/// Distribution summary of per-packet delivery latencies (in cycles) from a
/// cycle-level congestion run. Computed once after the run, so it may sort
/// and allocate freely — the engine's hot loop only stamps delivery cycles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of delivered packets summarised.
    pub count: u64,
    /// Mean latency in cycles (0.0 when nothing was delivered).
    pub mean: f64,
    /// Median latency.
    pub p50: u32,
    /// 95th-percentile latency.
    pub p95: u32,
    /// Maximum latency.
    pub max: u32,
}

impl LatencySummary {
    /// Summarises a set of latencies. The slice is sorted in place.
    pub fn from_latencies(latencies: &mut [u32]) -> Self {
        latencies.sort_unstable();
        Self::from_sorted(latencies)
    }

    /// Summarises an already-sorted set of latencies without re-sorting —
    /// the congestion engine keeps its delivered latencies incrementally
    /// merge-sorted, so repeated (windowed) reports skip the O(n log n)
    /// pass entirely.
    pub fn from_sorted(latencies: &[u32]) -> Self {
        debug_assert!(
            latencies
                .iter()
                .zip(latencies.iter().skip(1))
                .all(|(a, b)| a <= b),
            "from_sorted requires sorted input"
        );
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let count = latencies.len() as u64;
        let total: u64 = latencies.iter().map(|&l| l as u64).sum();
        // Nearest-rank percentiles: index ⌈q·n⌉ - 1 on the sorted data.
        let rank = |q: f64| -> u32 {
            let idx = ((q * count as f64).ceil() as usize).max(1) - 1;
            latencies[idx.min(latencies.len() - 1)]
        };
        LatencySummary {
            count,
            mean: total as f64 / count as f64,
            p50: rank(0.50),
            p95: rank(0.95),
            max: latencies.last().copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SimError;

    #[test]
    fn record_and_summarise() {
        let mut stats = RoutingStats::default();
        stats.record(&PacketOutcome::Delivered {
            path: vec![0, 1, 2],
        });
        stats.record(&PacketOutcome::Delivered { path: vec![4] });
        stats.record(&PacketOutcome::Dropped(SimError::FaultyProcessor {
            node: 9,
        }));
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.max_hops, 2);
        assert!((stats.mean_hops() - 1.0).abs() < 1e-12);
        assert!((stats.delivery_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let stats = RoutingStats::default();
        assert_eq!(stats.delivery_ratio(), 1.0);
        assert_eq!(stats.mean_hops(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = RoutingStats {
            delivered: 2,
            dropped: 1,
            total_hops: 5,
            max_hops: 3,
        };
        let b = RoutingStats {
            delivered: 1,
            dropped: 0,
            total_hops: 7,
            max_hops: 7,
        };
        a.merge(&b);
        assert_eq!(a.delivered, 3);
        assert_eq!(a.total_hops, 12);
        assert_eq!(a.max_hops, 7);
    }

    #[test]
    fn slowdown_rows() {
        let ok = SlowdownRow {
            scenario: "healthy".into(),
            steps: Some(8),
            reference_steps: 4,
        };
        assert_eq!(ok.slowdown(), Some(2.0));
        let stalled = SlowdownRow {
            scenario: "fault, no spares".into(),
            steps: None,
            reference_steps: 4,
        };
        assert_eq!(stalled.slowdown(), None);
    }

    #[test]
    fn latency_summary_percentiles() {
        let mut empty: [u32; 0] = [];
        assert_eq!(
            LatencySummary::from_latencies(&mut empty),
            LatencySummary::default()
        );
        let mut one = [7u32];
        let s = LatencySummary::from_latencies(&mut one);
        assert_eq!((s.count, s.p50, s.p95, s.max), (1, 7, 7, 7));
        assert!((s.mean - 7.0).abs() < 1e-12);
        let mut twenty: Vec<u32> = (1..=20).rev().collect();
        let s = LatencySummary::from_latencies(&mut twenty);
        assert_eq!((s.count, s.p50, s.p95, s.max), (20, 10, 19, 20));
        assert!((s.mean - 10.5).abs() < 1e-12);
    }

    #[test]
    fn zero_reference_has_no_slowdown() {
        // A degenerate reference (0 steps) must not masquerade as a factor:
        // the old `.max(1)` clamp silently reported `steps` itself.
        let degenerate = SlowdownRow {
            scenario: "empty reference".into(),
            steps: Some(8),
            reference_steps: 0,
        };
        assert_eq!(degenerate.slowdown(), None);
        let stalled_and_degenerate = SlowdownRow {
            scenario: "both degenerate".into(),
            steps: None,
            reference_steps: 0,
        };
        assert_eq!(stalled_and_degenerate.slowdown(), None);
    }
}
