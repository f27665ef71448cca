//! Traffic and value workload generators for the simulator.

use ftdb_graph::NodeId;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Uniform random `(source, target)` pairs over `n` logical nodes
/// (self-pairs allowed: they simply cost zero hops).
pub fn uniform_pairs<R: RngExt>(n: usize, count: usize, rng: &mut R) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
        .collect()
}

/// A random permutation workload: every node sends exactly one packet, and
/// every node receives exactly one packet.
pub fn permutation_pairs<R: RngExt>(n: usize, rng: &mut R) -> Vec<(NodeId, NodeId)> {
    let mut targets: Vec<NodeId> = (0..n).collect();
    targets.shuffle(rng);
    (0..n).zip(targets).collect()
}

/// The bit-reversal permutation workload, a classic adversarial pattern for
/// shuffle-based networks: node `x` sends to the bit-reversal of `x`
/// (over `h` bits).
pub fn bit_reversal_pairs(h: usize) -> Vec<(NodeId, NodeId)> {
    let n = 1usize << h;
    (0..n)
        .map(|x| {
            let mut rev = 0usize;
            for bit in 0..h {
                if x & (1 << bit) != 0 {
                    rev |= 1 << (h - 1 - bit);
                }
            }
            (x, rev)
        })
        .collect()
}

/// All-to-one (hot-spot) workload: every node sends one packet to `root`.
pub fn all_to_one(n: usize, root: NodeId) -> Vec<(NodeId, NodeId)> {
    (0..n).map(|s| (s, root)).collect()
}

/// How an open-loop source decides *when* to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionProcess {
    /// Each node flips an independent coin every cycle: inject with
    /// probability `offered_load`. The classic open-loop arrival process;
    /// bursty at the cycle scale.
    Bernoulli,
}

/// An open-loop offered-load experiment: inject for `warmup_cycles +
/// measure_cycles`, measure only the middle window, then allow
/// `drain_cycles` for in-flight packets to complete.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopSpec {
    /// Injection probability per node per cycle (packets/node/cycle), > 0.
    pub offered_load: f64,
    /// The arrival process.
    pub process: InjectionProcess,
    /// Cycles to reach steady state before measuring.
    pub warmup_cycles: u32,
    /// The measurement window.
    pub measure_cycles: u32,
    /// Cycles after injection stops for the network to drain.
    pub drain_cycles: u32,
    /// RNG seed for arrival coins and destinations.
    pub seed: u64,
}

impl OpenLoopSpec {
    /// Cycles during which sources inject: warm-up plus measurement.
    pub fn injection_cycles(&self) -> u32 {
        self.warmup_cycles + self.measure_cycles
    }

    /// The full simulated horizon including the drain phase.
    pub fn horizon(&self) -> u32 {
        self.warmup_cycles + self.measure_cycles + self.drain_cycles
    }

    /// The measurement window `[start, end)`.
    pub fn window(&self) -> (u32, u32) {
        (self.warmup_cycles, self.warmup_cycles + self.measure_cycles)
    }
}

/// Generates the open-loop injection schedule for `n` logical sources:
/// `(cycle, source, target)` triples sorted by cycle, with uniform random
/// targets. Under [`InjectionProcess::Bernoulli`] the RNG consumes one
/// arrival coin *and* one destination draw per (cycle, node) whether or not
/// the coin fires, so schedules at different offered loads from the same
/// seed are coupled: the higher-load schedule is a superset of the
/// lower-load one with identical destinations — which is what makes
/// latency-vs-load comparisons (and the monotonicity property test)
/// well-posed.
pub fn open_loop_injections(n: usize, spec: &OpenLoopSpec) -> Vec<(u32, NodeId, NodeId)> {
    let mut schedule = Vec::new();
    open_loop_injections_into(n, spec, &mut schedule);
    schedule
}

/// Buffer-reusing form of [`open_loop_injections`]: writes the schedule
/// into `out` (cleared first), so sweep drivers generating one schedule per
/// sweep point amortise the allocation across the whole sweep.
pub fn open_loop_injections_into(
    n: usize,
    spec: &OpenLoopSpec,
    out: &mut Vec<(u32, NodeId, NodeId)>,
) {
    assert!(spec.offered_load > 0.0, "offered load must be positive");
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    let InjectionProcess::Bernoulli = spec.process;
    out.clear();
    for cycle in 0..spec.injection_cycles() {
        for node in 0..n {
            let coin: f64 = rng.random();
            let target = rng.random_range(0..n);
            if coin < spec.offered_load {
                out.push((cycle, node, target));
            }
        }
    }
}

/// Per-node initial values for the Ascend/Descend computations: the node
/// index itself (so the expected all-reduce total is `n(n-1)/2`).
pub fn index_values(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// Per-node random values plus their expected wrapped sum, for checking
/// all-reduce results against an independently computed total.
pub fn random_values<R: RngExt>(n: usize, rng: &mut R) -> (Vec<u64>, u64) {
    let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..1_000_000)).collect();
    let total = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    (values, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_pairs_are_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pairs = uniform_pairs(10, 50, &mut rng);
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|&(s, t)| s < 10 && t < 10));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pairs = permutation_pairs(16, &mut rng);
        assert_eq!(pairs.len(), 16);
        let mut targets: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        assert_eq!(targets, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn bit_reversal_examples() {
        let pairs = bit_reversal_pairs(3);
        assert_eq!(pairs.len(), 8);
        // 001 -> 100, 011 -> 110, palindromes map to themselves.
        assert_eq!(pairs[1], (1, 4));
        assert_eq!(pairs[3], (3, 6));
        assert_eq!(pairs[5], (5, 5));
        assert_eq!(pairs[7], (7, 7));
        // Bit reversal is an involution.
        for &(x, y) in &pairs {
            assert_eq!(pairs[y].1, x);
        }
    }

    #[test]
    fn hotspot_targets_root() {
        let pairs = all_to_one(5, 3);
        assert!(pairs.iter().all(|&(_, t)| t == 3));
        assert_eq!(pairs.len(), 5);
    }

    proptest::proptest! {
        /// Bit reversal over `h` bits is an involution and therefore a
        /// bijection: applying the map twice is the identity, and the
        /// target multiset equals the node set.
        #[test]
        fn bit_reversal_is_an_involution_and_bijection(h in 1usize..12) {
            let pairs = bit_reversal_pairs(h);
            let n = 1usize << h;
            proptest::prop_assert_eq!(pairs.len(), n);
            for &(x, y) in &pairs {
                proptest::prop_assert!(y < n);
                proptest::prop_assert_eq!(pairs[x].0, x);
                // Involution: reversing the reversal restores x.
                proptest::prop_assert_eq!(pairs[y].1, x);
            }
            let mut targets: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
            targets.sort_unstable();
            proptest::prop_assert_eq!(targets, (0..n).collect::<Vec<_>>());
        }

        /// Every permutation workload is a bijection on sources and targets.
        #[test]
        fn permutation_pairs_are_bijections(n in 1usize..200, seed in 0u64..50) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pairs = permutation_pairs(n, &mut rng);
            proptest::prop_assert_eq!(pairs.len(), n);
            let mut sources: Vec<NodeId> = pairs.iter().map(|&(s, _)| s).collect();
            let mut targets: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
            sources.sort_unstable();
            targets.sort_unstable();
            proptest::prop_assert_eq!(sources, (0..n).collect::<Vec<_>>());
            proptest::prop_assert_eq!(targets, (0..n).collect::<Vec<_>>());
        }

        /// The hot-spot workload sends exactly one packet per source, all
        /// to the root.
        #[test]
        fn all_to_one_targets_the_root(n in 1usize..300, root in 0usize..300) {
            let root = root % n;
            let pairs = all_to_one(n, root);
            proptest::prop_assert_eq!(pairs.len(), n);
            for (i, &(s, t)) in pairs.iter().enumerate() {
                proptest::prop_assert_eq!(s, i);
                proptest::prop_assert_eq!(t, root);
            }
        }

        /// Uniform pairs stay in range for any count and seed.
        #[test]
        fn uniform_pairs_stay_in_range(n in 1usize..500, count in 0usize..300, seed in 0u64..50) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pairs = uniform_pairs(n, count, &mut rng);
            proptest::prop_assert_eq!(pairs.len(), count);
            proptest::prop_assert!(pairs.iter().all(|&(s, t)| s < n && t < n));
        }
    }

    #[test]
    fn value_generators() {
        assert_eq!(index_values(4), vec![0, 1, 2, 3]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (values, total) = random_values(100, &mut rng);
        assert_eq!(values.len(), 100);
        assert_eq!(values.iter().fold(0u64, |a, &b| a.wrapping_add(b)), total);
    }
}
