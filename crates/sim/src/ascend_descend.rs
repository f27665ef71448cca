//! Ascend/Descend-class algorithms (Preparata and Vuillemin [11]).
//!
//! An *Ascend* algorithm processes the hypercube dimensions in increasing
//! order: in phase `i`, every pair of logical nodes whose labels differ in
//! bit `i` combine their values. (*Descend* processes the dimensions in the
//! opposite order.) All-reduce, parallel prefix, bitonic merge and FFT all
//! fit this mould, and the entire appeal of the de Bruijn / shuffle-exchange
//! topologies is that they run such algorithms with only constant-factor
//! slowdown although their degree is constant.
//!
//! Each collective here (all-reduce, in an Ascend and a Descend variant,
//! and the prefix sum behind packing, sorting and load balancing) is a
//! combine rule run by one of two drivers: natively on the hypercube (`h`
//! steps), or on the shuffle-exchange emulation (`2h` steps: one exchange
//! and one shuffle or unshuffle per phase) over any *physical* machine
//! through an embedding of `SE_h`, healthy or reconfigured after faults.
//!
//! If the embedding touches a faulty processor or a missing link, the run
//! aborts with the offending element — this is the paper's "a single fault
//! severely degrades performance" scenario made concrete.

use crate::machine::{PhysicalMachine, SimError};
use ftdb_graph::Embedding;
use ftdb_topology::{shuffle_exchange::SeEdgeKind, ShuffleExchange};

/// Outcome of a simulated Ascend/Descend run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AscendOutcome {
    /// Number of synchronous communication steps consumed.
    pub steps: usize,
    /// The final per-logical-node values.
    pub values: Vec<u64>,
}

impl AscendOutcome {
    /// Slowdown relative to the native hypercube execution of the same
    /// logical computation (`h` steps).
    pub fn slowdown_vs_hypercube(&self, h: usize) -> f64 {
        if h == 0 {
            return 1.0;
        }
        self.steps as f64 / h as f64
    }
}

/// Outcome of a scan run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Number of synchronous communication steps consumed.
    pub steps: usize,
    /// `prefix[x]` is the inclusive prefix sum of the values of logical
    /// nodes `0..=x`.
    pub prefix: Vec<u64>,
    /// The total (same in every node after the run).
    pub total: u64,
}

/// The sequential reference: inclusive prefix sums.
pub fn sequential_inclusive_scan(values: &[u64]) -> Vec<u64> {
    let mut acc = 0u64;
    values
        .iter()
        .map(|&v| {
            acc = acc.wrapping_add(v);
            acc
        })
        .collect()
}

/// All-reduce (sum) over `2^h` logical nodes executed natively on the
/// hypercube: phase `i` combines partners across dimension `i`. Takes `h`
/// communication steps and leaves the total in every node. `values` needs
/// one entry per logical node ([`SimError::SizeMismatch`] otherwise), and
/// `2^h` must fit in a `usize` ([`SimError::DimensionTooLarge`] otherwise).
pub fn allreduce_hypercube(h: usize, values: &[u64]) -> Result<AscendOutcome, SimError> {
    let values = run_hypercube(h, values)?;
    Ok(AscendOutcome { steps: h, values })
}

/// All-reduce (sum) executed with the shuffle-exchange emulation on a
/// physical machine.
///
/// * `se` — the logical shuffle-exchange network (`2^h` logical nodes).
/// * `placement` — where each logical SE node lives physically. For the
///   un-protected network this is the identity; for the fault-tolerant
///   network it is the embedding produced by reconfiguration.
/// * `machine` — the physical machine (graph + faults).
///
/// Each phase performs an exchange step (logical edge `x ↔ x⊕1`) and a
/// shuffle step (logical edge `x → shuffle(x)`), so the run takes `2h`
/// steps. Every logical edge used must map to a healthy physical link;
/// otherwise the run aborts with the corresponding [`SimError`]. `values`
/// and `placement` need one entry per logical node
/// ([`SimError::SizeMismatch`] otherwise).
pub fn allreduce_shuffle_exchange(
    se: &ShuffleExchange,
    placement: &Embedding,
    machine: &PhysicalMachine,
    values: &[u64],
) -> Result<AscendOutcome, SimError> {
    let phase = [SeEdgeKind::Exchange, SeEdgeKind::Shuffle];
    let (steps, values) = run_shuffle_exchange(se, placement, machine, phase, values)?;
    Ok(AscendOutcome { steps, values })
}

/// The Descend variant: the mirror image of the Ascend run (unshuffle first,
/// then exchange) at the same `2h` steps. Its phases pair dimensions 1, 2,
/// …, h−1, 0 (the Ascend run's pair 0, h−1, …, 1), which a sum does not
/// notice. Inputs are checked as in [`allreduce_shuffle_exchange`].
pub fn descend_shuffle_exchange(
    se: &ShuffleExchange,
    placement: &Embedding,
    machine: &PhysicalMachine,
    values: &[u64],
) -> Result<AscendOutcome, SimError> {
    let phase = [SeEdgeKind::Unshuffle, SeEdgeKind::Exchange];
    let (steps, values) = run_shuffle_exchange(se, placement, machine, phase, values)?;
    Ok(AscendOutcome { steps, values })
}

/// Inclusive prefix sum on the hypercube in `h` dimension-exchange steps.
///
/// Every node keeps a pair `(prefix, total)`; when exchanging across
/// dimension `d`, the node whose bit `d` is 1 adds the partner's running
/// total to its prefix, and both add each other's totals. Inputs are checked
/// as in [`allreduce_hypercube`].
pub fn scan_hypercube(h: usize, values: &[u64]) -> Result<ScanOutcome, SimError> {
    Ok(scan_outcome(h, run_hypercube(h, values)?))
}

/// Inclusive prefix sum with the shuffle-exchange emulation on a physical
/// machine (same calling convention and input checks as
/// [`allreduce_shuffle_exchange`]).
///
/// Unlike all-reduce, the scan's combining rule is order-sensitive: the
/// hypercube dimensions must be processed from least to most significant.
/// The emulation therefore interleaves the exchange steps with *unshuffle*
/// steps (one exchange + one unshuffle per phase, `2h` steps in total), which
/// rotates the labels so that phase `i`'s exchange pairs logical nodes that
/// differ in bit `i`. Each slot carries the identity of the logical
/// hypercube node whose running `(prefix, total)` pair it currently holds,
/// so the combining rule knows which side of the dimension each partner is
/// on.
pub fn scan_shuffle_exchange(
    se: &ShuffleExchange,
    placement: &Embedding,
    machine: &PhysicalMachine,
    values: &[u64],
) -> Result<ScanOutcome, SimError> {
    let phase = [SeEdgeKind::Exchange, SeEdgeKind::Unshuffle];
    let (steps, slots) = run_shuffle_exchange(se, placement, machine, phase, values)?;
    Ok(scan_outcome(steps, slots))
}

/// A collective's combine rule over its per-slot state, for either driver.
trait Rule: Copy {
    /// The state of logical node `node`, holding `value`, before step 0.
    fn start(node: usize, value: u64) -> Self;
    /// This slot's state after it combines with its partner's.
    fn combine(self, partner: Self) -> Self;
}

/// All-reduce and descend: a slot holds a running (wrapping) sum.
impl Rule for u64 {
    fn start(_: usize, value: u64) -> u64 {
        value
    }
    fn combine(self, partner: u64) -> u64 {
        self.wrapping_add(partner)
    }
}

/// The rule of [`scan_hypercube`] over `(owner, prefix, total)`. Partners'
/// owners differ in exactly the dimension being processed, so the owner
/// with that bit set is the larger.
impl Rule for (usize, u64, u64) {
    fn start(owner: usize, value: u64) -> Self {
        (owner, value, value)
    }
    fn combine(self, (partner, _, partner_total): Self) -> Self {
        let (owner, prefix, total) = self;
        debug_assert!((owner ^ partner).is_power_of_two());
        let carry = if owner > partner { partner_total } else { 0 };
        let total = total.wrapping_add(partner_total);
        (owner, prefix.wrapping_add(carry), total)
    }
}

fn scan_outcome(steps: usize, slots: Vec<(usize, u64, u64)>) -> ScanOutcome {
    // Every state ends at its owner's slot (h unshuffles rotate full circle).
    debug_assert!(slots.iter().enumerate().all(|(x, s)| s.0 == x));
    ScanOutcome {
        steps,
        total: slots[0].2,
        prefix: slots.iter().map(|s| s.1).collect(),
    }
}

/// Every slot's starting state, once `2^h` fits in a `usize` and `values`
/// and the placement (of `placed` entries, if any) have one entry per node.
fn initial<S: Rule>(h: usize, values: &[u64], placed: Option<usize>) -> Result<Vec<S>, SimError> {
    let n = u32::try_from(h).ok().and_then(|h| 1usize.checked_shl(h));
    let n = n.ok_or(SimError::DimensionTooLarge { h })?;
    let sizes = [("values", values.len()), ("placement", placed.unwrap_or(n))];
    if let Some(&(what, got)) = sizes.iter().find(|size| size.1 != n) {
        return Err(SimError::SizeMismatch {
            what,
            expected: n,
            got,
        });
    }
    Ok((0..n).map(|x| S::start(x, values[x])).collect())
}

/// The hypercube driver: in step `dim` of `h`, slot `x` combines with `x ⊕ 2^dim`.
fn run_hypercube<S: Rule>(h: usize, values: &[u64]) -> Result<Vec<S>, SimError> {
    let mut state = initial(h, values, None)?;
    // Two fixed buffers, swapped per step — no per-step allocation.
    let mut next = state.clone();
    for dim in 0..h {
        for (x, slot) in next.iter_mut().enumerate() {
            *slot = S::combine(state[x], state[x ^ (1 << dim)]);
        }
        std::mem::swap(&mut state, &mut next);
    }
    Ok(state)
}

/// The shuffle-exchange driver: `h` phases of the two steps in `phase`, as
/// [`allreduce_shuffle_exchange`] describes. A fixed point's move needs no
/// link; the first unusable link, in step then slot order, aborts the run.
fn run_shuffle_exchange<S: Rule>(
    se: &ShuffleExchange,
    placement: &Embedding,
    machine: &PhysicalMachine,
    phase: [SeEdgeKind; 2],
    values: &[u64],
) -> Result<(usize, Vec<S>), SimError> {
    let mut state: Vec<S> = initial(se.h(), values, Some(placement.len()))?;
    // Each step overwrites every slot, so the buffers ping-pong uncleared.
    let mut next = state.clone();
    let steps = 2 * se.h();
    for &kind in phase.iter().cycle().take(steps) {
        for x in 0..state.len() {
            // An exchange partner is never `x` itself.
            let other = se.step(x, kind);
            if other != x {
                machine.check_link(placement.apply(x), placement.apply(other))?;
            }
            match kind {
                SeEdgeKind::Exchange => next[x] = state[x].combine(state[other]),
                SeEdgeKind::Shuffle | SeEdgeKind::Unshuffle => next[other] = state[x],
            }
        }
        std::mem::swap(&mut state, &mut next);
    }
    Ok((steps, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PortModel;
    use ftdb_core::{FaultSet, FtShuffleExchange};
    use rand::SeedableRng;

    fn seq(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    fn total(n: usize) -> u64 {
        (0..n as u64).sum()
    }

    fn values(n: usize, seed: u64) -> Vec<u64> {
        use rand::RngExt;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..1000u64)).collect()
    }

    #[test]
    fn hypercube_allreduce_sums_everything_in_h_steps() {
        for h in 1..=6 {
            let n = 1 << h;
            let out = allreduce_hypercube(h, &seq(n)).unwrap();
            assert_eq!(out.steps, h);
            assert!(out.values.iter().all(|&v| v == total(n)));
            assert!((out.slowdown_vs_hypercube(h) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shuffle_exchange_allreduce_on_healthy_machine() {
        for h in 1..=6 {
            let se = ShuffleExchange::new(h);
            let n = se.node_count();
            let machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
            let placement = Embedding::identity(n);
            let out = allreduce_shuffle_exchange(&se, &placement, &machine, &seq(n)).unwrap();
            assert_eq!(out.steps, 2 * h, "h={h}");
            assert!(out.values.iter().all(|&v| v == total(n)), "h={h}");
            assert!((out.slowdown_vs_hypercube(h) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn descend_also_sums_everything() {
        for h in 2..=5 {
            let se = ShuffleExchange::new(h);
            let n = se.node_count();
            let machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
            let placement = Embedding::identity(n);
            let out = descend_shuffle_exchange(&se, &placement, &machine, &seq(n)).unwrap();
            assert_eq!(out.steps, 2 * h);
            assert!(out.values.iter().all(|&v| v == total(n)));
        }
    }

    #[test]
    fn hypercube_allreduce_rejects_a_short_value_slice() {
        assert_eq!(
            allreduce_hypercube(3, &seq(3)),
            Err(SimError::SizeMismatch {
                what: "values",
                expected: 8,
                got: 3
            })
        );
    }

    #[test]
    fn hypercube_runs_reject_short_scans_and_uncountable_dimensions() {
        assert_eq!(
            scan_hypercube(3, &seq(3)),
            Err(SimError::SizeMismatch {
                what: "values",
                expected: 8,
                got: 3
            })
        );
        // 2^(BITS-1) nodes are countable, so one value is merely too few.
        let widest = usize::BITS as usize - 1;
        assert_eq!(
            allreduce_hypercube(widest, &[1]),
            Err(SimError::SizeMismatch {
                what: "values",
                expected: 1 << widest,
                got: 1
            })
        );
        for h in [usize::BITS as usize, usize::MAX] {
            assert_eq!(
                allreduce_hypercube(h, &[1]),
                Err(SimError::DimensionTooLarge { h })
            );
            assert_eq!(
                scan_hypercube(h, &[1]),
                Err(SimError::DimensionTooLarge { h })
            );
        }
    }

    #[test]
    fn inputs_of_the_wrong_size_are_errors_not_panics() {
        let se = ShuffleExchange::new(3);
        let machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
        let identity = Embedding::identity(8);
        let short = Embedding::identity(5);
        let short_placement = SimError::SizeMismatch {
            what: "placement",
            expected: 8,
            got: 5,
        };
        for run in [allreduce_shuffle_exchange, descend_shuffle_exchange] {
            assert_eq!(
                run(&se, &identity, &machine, &seq(9)),
                Err(SimError::SizeMismatch {
                    what: "values",
                    expected: 8,
                    got: 9
                })
            );
            assert_eq!(
                run(&se, &short, &machine, &seq(8)),
                Err(short_placement.clone())
            );
        }
        assert_eq!(
            scan_shuffle_exchange(&se, &identity, &machine, &seq(7)),
            Err(SimError::SizeMismatch {
                what: "values",
                expected: 8,
                got: 7
            })
        );
        assert_eq!(
            scan_shuffle_exchange(&se, &short, &machine, &seq(8)),
            Err(short_placement)
        );
    }

    #[test]
    fn single_fault_stalls_the_unprotected_network() {
        // The paper's motivating scenario: SE_4 with processor 5 faulty and
        // no spare — the Ascend run must abort.
        let se = ShuffleExchange::new(4);
        let n = se.node_count();
        let mut machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(5);
        let placement = Embedding::identity(n);
        let err = allreduce_shuffle_exchange(&se, &placement, &machine, &seq(n)).unwrap_err();
        assert_eq!(err, SimError::FaultyProcessor { node: 5 });
    }

    #[test]
    fn fault_tolerant_network_restores_full_speed() {
        // Same logical computation, but the physical machine is B^1_{2,4}
        // with one faulty node; after reconfiguration the run completes in
        // the same 2h steps as the healthy network.
        let h = 4;
        let ft = FtShuffleExchange::new(h, 1).unwrap();
        let se = ShuffleExchange::new(h);
        let n = se.node_count();
        for faulty in 0..ft.node_count() {
            let faults = FaultSet::from_nodes(ft.node_count(), [faulty]);
            let placement = ft.reconfigure_verified(&faults).unwrap();
            let machine =
                PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
            let out = allreduce_shuffle_exchange(&se, &placement, &machine, &seq(n)).unwrap();
            assert_eq!(out.steps, 2 * h);
            assert!(out.values.iter().all(|&v| v == total(n)));
        }
    }

    #[test]
    fn slowdown_helper_handles_zero_dimension() {
        let out = AscendOutcome {
            steps: 0,
            values: vec![0],
        };
        assert_eq!(out.slowdown_vs_hypercube(0), 1.0);
    }

    #[test]
    fn sequential_scan_reference() {
        assert_eq!(sequential_inclusive_scan(&[1, 2, 3, 4]), vec![1, 3, 6, 10]);
        assert_eq!(sequential_inclusive_scan(&[]), Vec::<u64>::new());
    }

    #[test]
    fn hypercube_scan_matches_sequential() {
        for h in 1..=7 {
            let n = 1 << h;
            let vals = values(n, h as u64);
            let out = scan_hypercube(h, &vals).unwrap();
            assert_eq!(out.steps, h);
            assert_eq!(out.prefix, sequential_inclusive_scan(&vals), "h={h}");
            assert_eq!(out.total, *sequential_inclusive_scan(&vals).last().unwrap());
        }
    }

    #[test]
    fn shuffle_exchange_scan_matches_sequential_on_healthy_machine() {
        for h in 1..=6 {
            let se = ShuffleExchange::new(h);
            let n = se.node_count();
            let machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
            let placement = Embedding::identity(n);
            let vals = values(n, 100 + h as u64);
            let out = scan_shuffle_exchange(&se, &placement, &machine, &vals).unwrap();
            assert_eq!(out.steps, 2 * h, "h={h}");
            assert_eq!(out.prefix, sequential_inclusive_scan(&vals), "h={h}");
        }
    }

    #[test]
    fn faulty_unprotected_machine_stalls_the_scan() {
        let h = 4;
        let se = ShuffleExchange::new(h);
        let n = se.node_count();
        let mut machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(7);
        let result = scan_shuffle_exchange(&se, &Embedding::identity(n), &machine, &values(n, 3));
        assert!(matches!(result, Err(SimError::FaultyProcessor { node: 7 })));
    }

    #[test]
    fn reconfigured_ft_machine_scans_correctly() {
        let h = 4;
        let k = 2;
        let ft = FtShuffleExchange::new(h, k).unwrap();
        let se = ShuffleExchange::new(h);
        let n = se.node_count();
        let vals = values(n, 9);
        let expected = sequential_inclusive_scan(&vals);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let faults =
                FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
            let placement = ft.reconfigure_verified(&faults).unwrap();
            let machine =
                PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
            let out = scan_shuffle_exchange(&se, &placement, &machine, &vals).unwrap();
            assert_eq!(out.prefix, expected);
            assert_eq!(out.steps, 2 * h);
        }
    }
}
