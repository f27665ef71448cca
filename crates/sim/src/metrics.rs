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

/// A fixed-bin per-packet latency histogram for open-loop runs. All storage
/// is sized at construction and [`LatencyHistogram::record`] only touches
/// pre-allocated bins, so the measurement loop stays allocation-free; the
/// summary accessors may be called at any time.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    /// Width of each bin in cycles (≥ 1).
    bin_width: u32,
    /// Bin `i` counts latencies in `[i*bin_width, (i+1)*bin_width)`.
    bins: Vec<u64>,
    /// Latencies past the last bin.
    overflow: u64,
    count: u64,
    sum: u64,
    max: u32,
}

impl LatencyHistogram {
    /// A histogram of `bin_count` bins of `bin_width` cycles each.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(bin_width: u32, bin_count: usize) -> Self {
        assert!(bin_width >= 1, "bin width must be at least one cycle");
        assert!(bin_count >= 1, "histogram needs at least one bin");
        LatencyHistogram {
            bin_width,
            bins: vec![0; bin_count],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one delivered packet's latency. Allocation-free.
    pub fn record(&mut self, latency: u32) {
        let bin = (latency / self.bin_width) as usize;
        match self.bins.get_mut(bin) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += latency as u64;
        self.max = self.max.max(latency);
    }

    /// Empties the histogram for reuse without touching the allocator.
    pub fn clear(&mut self) {
        for b in &mut self.bins {
            *b = 0;
        }
        self.overflow = 0;
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Packets recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The exact maximum recorded latency.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Latencies that fell past the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The per-bin counts (`bins()[i]` covers `[i*w, (i+1)*w)` cycles).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Nearest-rank percentile, resolved to the *upper edge* of the bin
    /// holding that rank (a conservative bound, exact to `bin_width`).
    /// Returns [`LatencyHistogram::max`] when the rank lands in the
    /// overflow region, and 0 when the histogram is empty.
    pub fn percentile(&self, q: f64) -> u32 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.bins.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let upper = (i as u32 + 1) * self.bin_width - 1;
                return upper.min(self.max);
            }
        }
        self.max
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
    fn latency_histogram_records_and_summarises() {
        let mut hist = LatencyHistogram::new(4, 4); // covers [0, 16), overflow past
        assert_eq!(hist.percentile(0.5), 0);
        for lat in [0, 1, 3, 4, 7, 15] {
            hist.record(lat);
        }
        assert_eq!(hist.count(), 6);
        assert_eq!(hist.bins(), &[3, 2, 0, 1]);
        assert_eq!(hist.overflow(), 0);
        assert_eq!(hist.max(), 15);
        assert!((hist.mean() - 30.0 / 6.0).abs() < 1e-12);
        // Rank 3 of 6 is the last latency in bin 0: upper edge 3.
        assert_eq!(hist.percentile(0.5), 3);
        assert_eq!(hist.percentile(1.0), 15);
        // Overflow: recorded in count/mean/max, percentile falls back to max.
        hist.record(100);
        assert_eq!(hist.overflow(), 1);
        assert_eq!(hist.max(), 100);
        assert_eq!(hist.percentile(1.0), 100);
        hist.clear();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.bins(), &[0, 0, 0, 0]);
        assert_eq!(hist.max(), 0);
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
