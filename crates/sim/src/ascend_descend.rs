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
//! This module implements a representative Ascend computation — all-reduce
//! with an associative combiner — three ways:
//!
//! 1. natively on the hypercube (`h` communication steps),
//! 2. on the shuffle-exchange emulation (`2h` steps: one exchange + one
//!    shuffle per phase), executed over an arbitrary *physical* machine
//!    through an embedding of `SE_h`, which is how both the healthy network
//!    and the fault-tolerant network after reconfiguration are exercised,
//! 3. in a "descend" variant to cover the symmetric class.
//!
//! If the embedding touches a faulty processor or a missing link, the run
//! aborts with the offending element — this is the paper's "a single fault
//! severely degrades performance" scenario made concrete.

use crate::machine::{PhysicalMachine, SimError};
use ftdb_graph::Embedding;
use ftdb_topology::ShuffleExchange;

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

/// All-reduce (sum) over `2^h` logical nodes executed natively on the
/// hypercube: phase `i` combines partners across dimension `i`. Takes `h`
/// communication steps and leaves the total in every node. `values` needs
/// one entry per logical node ([`SimError::SizeMismatch`] otherwise).
#[allow(clippy::needless_range_loop)]
pub fn allreduce_hypercube(h: usize, values: &[u64]) -> Result<AscendOutcome, SimError> {
    let n = 1usize << h;
    check_sizes(n, &[("values", values.len())])?;
    // Two fixed buffers, swapped per phase — no per-phase allocation.
    let mut vals = values.to_vec();
    let mut next = vec![0u64; n];
    for dim in 0..h {
        for x in 0..n {
            next[x] = vals[x].wrapping_add(vals[x ^ (1 << dim)]);
        }
        std::mem::swap(&mut vals, &mut next);
    }
    Ok(AscendOutcome {
        steps: h,
        values: vals,
    })
}

/// [`SimError::SizeMismatch`] for the first `(what, len)` whose length is
/// not one entry per logical node of an `n`-node network.
fn check_sizes(n: usize, sizes: &[(&'static str, usize)]) -> Result<(), SimError> {
    for &(what, got) in sizes {
        if got != n {
            return Err(SimError::SizeMismatch {
                what,
                expected: n,
                got,
            });
        }
    }
    Ok(())
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
#[allow(clippy::needless_range_loop)]
pub fn allreduce_shuffle_exchange(
    se: &ShuffleExchange,
    placement: &Embedding,
    machine: &PhysicalMachine,
    values: &[u64],
) -> Result<AscendOutcome, SimError> {
    let n = se.node_count();
    check_sizes(
        n,
        &[("values", values.len()), ("placement", placement.len())],
    )?;
    let h = se.h();
    // `vals` and `scratch` ping-pong across the exchange and shuffle steps;
    // every slot is overwritten each step, so no clearing (and no per-phase
    // allocation) is needed.
    let mut vals = values.to_vec();
    let mut scratch = vec![0u64; n];
    let mut steps = 0;
    for _phase in 0..h {
        // Exchange step: logical x combines with x ^ 1.
        for x in 0..n {
            let partner = se.exchange(x);
            machine.check_link(placement.apply(x), placement.apply(partner))?;
            scratch[x] = vals[x].wrapping_add(vals[partner]);
        }
        steps += 1;
        // Shuffle step: the value held by logical x moves to shuffle(x).
        for x in 0..n {
            let dest = se.shuffle(x);
            if dest != x {
                machine.check_link(placement.apply(x), placement.apply(dest))?;
            }
            vals[dest] = scratch[x];
        }
        steps += 1;
    }
    Ok(AscendOutcome {
        steps,
        values: vals,
    })
}

/// The Descend variant: dimensions in decreasing order. On the
/// shuffle-exchange the emulation is symmetric (unshuffle instead of
/// shuffle), and costs the same `2h` steps. Inputs are checked as in
/// [`allreduce_shuffle_exchange`].
#[allow(clippy::needless_range_loop)]
pub fn descend_shuffle_exchange(
    se: &ShuffleExchange,
    placement: &Embedding,
    machine: &PhysicalMachine,
    values: &[u64],
) -> Result<AscendOutcome, SimError> {
    let n = se.node_count();
    check_sizes(
        n,
        &[("values", values.len()), ("placement", placement.len())],
    )?;
    let h = se.h();
    let mut vals = values.to_vec();
    let mut scratch = vec![0u64; n];
    let mut steps = 0;
    for _phase in 0..h {
        // Unshuffle first, then exchange: the mirror image of the Ascend run.
        for x in 0..n {
            let dest = se.unshuffle(x);
            if dest != x {
                machine.check_link(placement.apply(x), placement.apply(dest))?;
            }
            scratch[dest] = vals[x];
        }
        steps += 1;
        for x in 0..n {
            let partner = se.exchange(x);
            machine.check_link(placement.apply(x), placement.apply(partner))?;
            vals[x] = scratch[x].wrapping_add(scratch[partner]);
        }
        steps += 1;
    }
    Ok(AscendOutcome {
        steps,
        values: vals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PortModel;
    use ftdb_core::{FaultSet, FtShuffleExchange};
    use ftdb_graph::Embedding;

    fn seq(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    fn total(n: usize) -> u64 {
        (0..n as u64).sum()
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
    fn inputs_of_the_wrong_size_are_errors_not_panics() {
        let se = ShuffleExchange::new(3);
        let machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
        let identity = Embedding::identity(8);
        let short = Embedding::identity(5);
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
                Err(SimError::SizeMismatch {
                    what: "placement",
                    expected: 8,
                    got: 5
                })
            );
        }
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
}
