//! The reconfiguration algorithm (Section III-A of the paper).
//!
//! Given the fault-tolerant graph `G'` with `N + k` nodes and any set of at
//! most `k` faulty nodes, the reconfiguration algorithm maps the `N` nodes of
//! the target graph onto the healthy nodes of `G'` *monotonically*: target
//! node `x` is assigned to the `(x+1)`-st non-faulty node of `G'`. The paper
//! calls this map `φ` and proves (Theorems 1 and 2) that it is always an
//! embedding of the target into the surviving subgraph.
//!
//! The whole point of the construction is that reconfiguration is this
//! simple: no search, no global optimisation — every processor only needs to
//! know how many lower-numbered processors have failed (its displacement
//! `δ = φ(x) - x ∈ [0, k]`).

use crate::fault::FaultSet;
use crate::verify::certify;
use ftdb_graph::embedding::EmbeddingError;
use ftdb_graph::{Embedding, Graph, NodeId};
use std::sync::OnceLock;

/// Computes the reconfiguration map `φ` for a target graph with
/// `target_nodes` nodes, given the fault set of the fault-tolerant host.
///
/// `φ(x)` is the `(x+1)`-st healthy node of the host. The host must have at
/// least `target_nodes` healthy nodes.
///
/// # Panics
/// Panics if fewer than `target_nodes` healthy nodes remain.
pub fn reconfigure(target_nodes: usize, faults: &FaultSet) -> Embedding {
    let healthy = faults.healthy_count();
    assert!(
        healthy >= target_nodes,
        "only {healthy} healthy nodes remain, target needs {target_nodes}"
    );
    // The healthy nodes between two faults take consecutive images, so the
    // exact-capacity map fills one run per fault instead of node by node,
    // and stops at the first run that covers the images still owed.
    let mut map = Vec::with_capacity(target_nodes);
    let mut next = 0;
    for fault in faults.iter() {
        if fault - next >= target_nodes - map.len() {
            break;
        }
        map.extend(next..fault);
        next = fault + 1;
    }
    map.extend(next..next + (target_nodes - map.len()));
    Embedding::from_map(map)
}

/// The online reconfiguration shared by the rank-map constructions
/// ([`FtDeBruijn2`](crate::FtDeBruijn2), [`FtDeBruijnM`](crate::FtDeBruijnM)
/// and [`NaturalFtShuffleExchange`](crate::NaturalFtShuffleExchange)). Each
/// construction owns one, always called with its own target, host and
/// budget `k`; a clone carries the verdict once it is decided.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankReconfig {
    /// Whether [`certify`] proves the host tolerant of `k` faults, decided
    /// on the first [`RankReconfig::reconfigure_verified`].
    certified: OnceLock<bool>,
}

impl RankReconfig {
    /// The rank map `φ` of `target` into `host` around `faults`.
    ///
    /// # Panics
    /// Panics if `faults` holds more than `k` nodes or its universe is not
    /// the host's node set.
    pub(crate) fn reconfigure(
        target: &Graph,
        host: &Graph,
        k: usize,
        faults: &FaultSet,
    ) -> Embedding {
        assert!(
            faults.len() <= k,
            "{} faults exceed the fault budget k = {k}",
            faults.len()
        );
        assert_eq!(
            faults.universe(),
            host.node_count(),
            "fault set universe does not match the fault-tolerant graph"
        );
        reconfigure(target.node_count(), faults)
    }

    /// The rank map `φ` of `target` into `host` around `faults`, verified:
    /// the result is exactly [`RankReconfig::reconfigure`] followed by
    /// [`Embedding::verify`], every `Err` included.
    ///
    /// The first call asks [`certify`] whether the rank map of every fault
    /// set of at most `k` nodes is an embedding, and keeps the verdict. On a
    /// certified host `φ` is returned with no check; any other host gets
    /// `verify`'s verdict on each call.
    ///
    /// # Panics
    /// As [`RankReconfig::reconfigure`].
    pub(crate) fn reconfigure_verified(
        &self,
        target: &Graph,
        host: &Graph,
        k: usize,
        faults: &FaultSet,
    ) -> Result<Embedding, EmbeddingError> {
        let phi = Self::reconfigure(target, host, k, faults);
        let certified = self
            .certified
            .get_or_init(|| certify(target, host, k).is_ok());
        if !certified {
            phi.verify(target, host)?;
        }
        Ok(phi)
    }
}

/// The per-node displacement table `δ(x) = φ(x) - x` of a reconfiguration.
///
/// Theorem 1's proof rests on `0 ≤ δ(x) ≤ k` and on `δ` being monotone
/// non-decreasing (Lemma 1); both facts are checked by tests and property
/// tests against this function.
pub fn displacements(phi: &Embedding) -> Vec<usize> {
    phi.as_slice()
        .iter()
        .enumerate()
        .map(|(x, &image)| {
            debug_assert!(image >= x, "monotone rank map cannot move a node down");
            image - x
        })
        .collect()
}

/// A single row of the relabelling table shown in the paper's Fig. 3: which
/// physical node of the fault-tolerant graph plays the role of which logical
/// node of the target after reconfiguration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelabelRow {
    /// Logical (target graph) node.
    pub logical: NodeId,
    /// Physical node of the fault-tolerant graph assigned to it.
    pub physical: NodeId,
    /// Displacement `physical - logical` (the `δ` of the proof).
    pub displacement: usize,
}

/// Produces the full relabelling table for a reconfiguration, one row per
/// target node.
pub fn relabel_table(phi: &Embedding) -> Vec<RelabelRow> {
    phi.as_slice()
        .iter()
        .enumerate()
        .map(|(logical, &physical)| RelabelRow {
            logical,
            physical,
            displacement: physical - logical,
        })
        .collect()
}

/// The physical nodes of the host that remain unused after reconfiguration
/// (healthy spares). With `f ≤ k` faults, exactly `k - f` healthy spares
/// remain.
pub fn unused_spares(phi: &Embedding, faults: &FaultSet) -> Vec<NodeId> {
    let used: std::collections::BTreeSet<NodeId> = phi.as_slice().iter().copied().collect();
    faults
        .healthy_iter()
        .filter(|v| !used.contains(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn maps_to_first_healthy_nodes() {
        // Host has 10 nodes, target 8, faults {0, 5}.
        let faults = FaultSet::from_nodes(10, [0, 5]);
        let phi = reconfigure(8, &faults);
        assert_eq!(phi.as_slice(), &[1, 2, 3, 4, 6, 7, 8, 9]);
        assert_eq!(displacements(&phi), vec![1, 1, 1, 1, 2, 2, 2, 2]);
        assert!(unused_spares(&phi, &faults).is_empty());
    }

    #[test]
    fn fewer_faults_leave_spares_at_the_end() {
        let faults = FaultSet::from_nodes(10, [4]);
        let phi = reconfigure(8, &faults);
        assert_eq!(phi.as_slice(), &[0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(unused_spares(&phi, &faults), vec![9]);
    }

    #[test]
    fn no_faults_is_identity() {
        let faults = FaultSet::empty(12);
        let phi = reconfigure(12, &faults);
        assert_eq!(phi.as_slice(), (0..12).collect::<Vec<_>>().as_slice());
        assert!(displacements(&phi).iter().all(|&d| d == 0));
    }

    #[test]
    #[should_panic]
    fn too_many_faults_panics() {
        let faults = FaultSet::from_nodes(10, [0, 1, 2]);
        reconfigure(8, &faults);
    }

    #[test]
    fn relabel_table_matches_phi() {
        let faults = FaultSet::from_nodes(6, [2]);
        let phi = reconfigure(5, &faults);
        let table = relabel_table(&phi);
        assert_eq!(table.len(), 5);
        assert_eq!(
            table[2],
            RelabelRow {
                logical: 2,
                physical: 3,
                displacement: 1
            }
        );
    }

    /// The rank map node by node: the first `target_nodes` healthy nodes.
    fn healthy_prefix(target_nodes: usize, faults: &FaultSet) -> Vec<NodeId> {
        faults.healthy_iter().take(target_nodes).collect()
    }

    #[test]
    fn run_fill_matches_the_healthy_prefix_at_the_edges() {
        // (universe, target nodes, faults): faults at node 0 and at the top
        // node, adjacent faults, fewer faults than spares, a universe
        // larger than N + k, and runs across 64-bit word boundaries.
        for (universe, nodes, faults) in [
            (10, 8, vec![0, 1]),
            (10, 8, vec![0]),
            (10, 8, vec![9]),
            (10, 8, vec![8, 9]),
            (10, 8, vec![0, 9]),
            (10, 8, vec![3, 4]),
            (10, 8, vec![7]),
            (10, 8, vec![]),
            (16, 8, vec![2, 3, 4]),
            (16, 8, vec![0, 1, 2, 3, 4, 5, 6, 7]),
            (200, 128, vec![0, 63, 64, 65, 127, 128, 199]),
            (3, 0, vec![1]),
        ] {
            let faults = FaultSet::from_nodes(universe, faults);
            let phi = reconfigure(nodes, &faults);
            assert_eq!(phi.as_slice(), healthy_prefix(nodes, &faults), "{faults:?}");
        }
    }

    proptest! {
        /// The run fill is the healthy prefix for any fault set that leaves
        /// room, in universes up to 79 nodes larger than the target.
        #[test]
        fn run_fill_matches_the_healthy_prefix(nodes in 0usize..150, spares in 0usize..80, count in 0usize..10, seed in 0u64..1_000_000) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let universe = nodes + spares;
            let count = count.min(spares);
            let faults = FaultSet::random(universe, count, &mut rng).expect("count within universe");
            let phi = reconfigure(nodes, &faults);
            prop_assert_eq!(phi.as_slice(), healthy_prefix(nodes, &faults).as_slice());
        }

        /// δ(x) ∈ [0, k] for every x (the key fact in the proof of Theorem 1).
        #[test]
        fn displacement_bounded_by_fault_count(n in 4usize..60, k in 0usize..6, seed in 0u64..1000) {
            let host = n + k;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let faults = FaultSet::random(host, k, &mut rng).expect("k within node count");
            let phi = reconfigure(n, &faults);
            let deltas = displacements(&phi);
            prop_assert!(deltas.iter().all(|&d| d <= k));
            // Monotone non-decreasing (Lemma 1 in action).
            prop_assert!(deltas.windows(2).all(|w| w[0] <= w[1]));
            // φ is injective and avoids every fault.
            prop_assert!(phi.as_slice().iter().all(|&v| !faults.contains(v)));
        }
    }
}
