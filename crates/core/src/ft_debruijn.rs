//! The fault-tolerant base-2 de Bruijn graph `B^k_{2,h}` (Section III-B).
//!
//! For `h ≥ 3` and `k ≥ 0`, `B^k_{2,h}` has nodes `{0, …, 2^h + k - 1}` and
//! an edge `(x, y)` iff there is an `r ∈ {-k, -k+1, …, k+1}` with
//! `y = X(x, 2, r, 2^h + k)` or `x = X(y, 2, r, 2^h + k)`.
//!
//! Its structure mirrors the target graph: calculations are performed modulo
//! `N + k` instead of `N`, and every node is connected to a *block of
//! `2k + 2` consecutive nodes* (starting at `(2x - k) mod (2^h + k)`) instead
//! of a block of 2. In particular `B^0_{2,h} = B_{2,h}`, the graph has
//! `2^h + k` nodes and its degree is at most `4k + 4` (Theorem 1 /
//! Corollary 1).

use crate::fault::FaultSet;
use crate::reconfig::RankReconfig;
use ftdb_graph::{Embedding, Graph, GraphBuilder};
use ftdb_topology::labels::{pow_nodes, x_fn};
use ftdb_topology::DeBruijn2;

/// The fault-tolerant base-2 de Bruijn graph `B^k_{2,h}`.
#[derive(Clone, Debug)]
pub struct FtDeBruijn2 {
    h: usize,
    k: usize,
    graph: Graph,
    target: DeBruijn2,
    reconfig: RankReconfig,
}

impl FtDeBruijn2 {
    /// Builds `B^k_{2,h}`.
    ///
    /// # Panics
    /// Panics if `h < 1` or `2^h + k` overflows. (The paper states the
    /// theorem for `h ≥ 3`; smaller `h` still produces a well-defined graph
    /// and is convenient in tests, but the `(k, G)`-tolerance guarantee is
    /// only claimed for `h ≥ 3`.)
    pub fn new(h: usize, k: usize) -> Self {
        assert!(h >= 1, "B^k(2,h) needs h >= 1");
        let n = pow_nodes(2, h)
            .checked_add(k)
            .expect("2^h + k overflows usize");
        let mut b = GraphBuilder::new(n).name(format!("B^{k}(2,{h})"));
        // Edge (x, X(x, 2, r, n)) for r = -k..=k+1, as the flat index
        // x(2k+2) + r + k so that the builder sizes its edge list once.
        let per_node = 2 * k + 2;
        b.add_edges((0..n * per_node).map(|i| {
            let (x, r) = (i / per_node, (i % per_node) as i64 - k as i64);
            (x, x_fn(x, 2, r, n))
        }));
        FtDeBruijn2 {
            h,
            k,
            graph: b.build(),
            target: DeBruijn2::new(h),
            reconfig: RankReconfig::default(),
        }
    }

    /// The number of digits `h` of the target graph.
    pub fn h(&self) -> usize {
        self.h
    }

    /// The fault budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of nodes, `2^h + k`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The degree bound `4k + 4` proven in Corollary 1.
    pub fn degree_bound(&self) -> usize {
        4 * self.k + 4
    }

    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The target graph `B_{2,h}` this construction protects.
    pub fn target(&self) -> &DeBruijn2 {
        &self.target
    }

    /// Reconfigures around `faults`: returns the embedding `φ` of the target
    /// `B_{2,h}` into this graph that avoids every faulty node.
    ///
    /// # Panics
    /// Panics if `faults` contains more than `k` nodes (the construction
    /// only guarantees tolerance of up to `k` faults) or if a fault id is
    /// out of range.
    pub fn reconfigure(&self, faults: &FaultSet) -> Embedding {
        RankReconfig::reconfigure(self.target.graph(), &self.graph, self.k, faults)
    }

    /// Reconfigures and verifies in one step, returning the verified
    /// embedding. This is the operation a runtime system would perform after
    /// diagnosing the fault set.
    ///
    /// The result is exactly [`FtDeBruijn2::reconfigure`] followed by
    /// [`Embedding::verify`], `Err` values included. The first call proves
    /// the construction tolerant of every fault set of at most `k` nodes
    /// ([`certify`](crate::verify::certify)) and keeps the verdict (a clone
    /// carries it), so later calls return the rank map with no check: at
    /// `B^4_{2,10}` on a 2-vCPU host the first call took about 0.23 ms and
    /// each later one about 0.6 µs, against about 50 µs for the map plus
    /// [`Embedding::verify`].
    ///
    /// # Panics
    /// As [`FtDeBruijn2::reconfigure`].
    pub fn reconfigure_verified(
        &self,
        faults: &FaultSet,
    ) -> Result<Embedding, ftdb_graph::embedding::EmbeddingError> {
        self.reconfig
            .reconfigure_verified(self.target.graph(), &self.graph, self.k, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdb_graph::ops;
    use ftdb_graph::{properties, NodeId};
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn zero_spares_reduces_to_target() {
        for h in 2..=6 {
            let ft = FtDeBruijn2::new(h, 0);
            assert!(
                properties::same_edge_set(ft.graph(), DeBruijn2::new(h).graph()),
                "B^0(2,{h}) != B(2,{h})"
            );
        }
    }

    #[test]
    fn fig2_example_b1_24() {
        // Fig. 2 of the paper: B^1_{2,4} has 17 nodes and degree at most 8.
        let ft = FtDeBruijn2::new(4, 1);
        assert_eq!(ft.node_count(), 17);
        assert!(ft.graph().max_degree() <= 8);
        assert_eq!(ft.degree_bound(), 8);
        // Node x is connected to the block of 4 consecutive nodes starting
        // at (2x - 1) mod 17.
        for b in [5, 6, 7, 8] {
            assert!(ft.graph().has_edge(3, b));
        }
        ft.graph().check_invariants().unwrap();
    }

    #[test]
    fn target_is_identity_subgraph_of_ft_graph_modulo_wraparound() {
        // B_{2,h} ⊆ B^k_{2,h} does NOT hold under the identity labeling in
        // general (the modulus changes), but with zero faults the rank map is
        // the identity and the reconfiguration theorem still applies.
        let ft = FtDeBruijn2::new(4, 2);
        let phi = ft.reconfigure(&FaultSet::empty(ft.node_count()));
        phi.verify(ft.target().graph(), ft.graph()).unwrap();
    }

    #[test]
    fn degree_bound_holds_across_parameters() {
        for h in 3..=7 {
            for k in 0..=4 {
                let ft = FtDeBruijn2::new(h, k);
                assert!(
                    ft.graph().max_degree() <= ft.degree_bound(),
                    "degree {} exceeds 4k+4={} for h={h}, k={k}",
                    ft.graph().max_degree(),
                    ft.degree_bound()
                );
                assert_eq!(ft.node_count(), (1 << h) + k);
            }
        }
    }

    #[test]
    fn corollary_2_single_fault_degree_8() {
        for h in 3..=8 {
            let ft = FtDeBruijn2::new(h, 1);
            assert!(ft.graph().max_degree() <= 8, "h={h}");
            assert_eq!(ft.node_count(), (1 << h) + 1);
        }
    }

    #[test]
    fn every_single_fault_in_b1_24_is_tolerated() {
        // Exhaustive check of Fig. 3's scenario: all 17 possible single
        // faults of B^1_{2,4}.
        let ft = FtDeBruijn2::new(4, 1);
        for f in 0..ft.node_count() {
            let faults = FaultSet::from_nodes(ft.node_count(), [f]);
            let phi = ft.reconfigure_verified(&faults).unwrap();
            // The embedding avoids the fault.
            assert!(phi.as_slice().iter().all(|&v| v != f));
        }
    }

    #[test]
    fn reconfigured_copy_lives_in_healthy_subgraph() {
        let ft = FtDeBruijn2::new(4, 2);
        let faults = FaultSet::from_nodes(ft.node_count(), [0, 9]);
        let phi = ft.reconfigure_verified(&faults).unwrap();
        // The image of the embedding must lie entirely inside the subgraph
        // induced by the healthy nodes.
        let healthy = ops::remove_nodes(ft.graph(), faults.as_bitset());
        for &image in phi.as_slice() {
            assert!(healthy.from_original(image).is_some());
        }
    }

    #[test]
    fn masks_built_on_a_first_call_serve_every_fault_count_and_clones() {
        let ft = FtDeBruijn2::new(5, 3);
        let n = ft.node_count();
        let unbuilt = ft.clone();
        // The first call, with no faults, certifies the host for k = 3.
        let none = FaultSet::empty(n);
        assert_eq!(ft.reconfigure_verified(&none), Ok(Embedding::identity(32)));
        let built = ft.clone();
        let faults = FaultSet::from_nodes(n, [0, 17, 20]);
        let phi = ft.reconfigure(&faults);
        assert_eq!(phi.apply(31), 34, "the last node moves by k");
        phi.verify(ft.target().graph(), ft.graph()).unwrap();
        for copy in [&ft, &unbuilt, &built] {
            assert_eq!(copy.reconfigure_verified(&faults), Ok(phi.clone()));
            assert_eq!(
                copy.reconfigure_verified(&none),
                Ok(Embedding::identity(32))
            );
        }
    }

    #[test]
    #[should_panic]
    fn too_many_faults_are_rejected() {
        let ft = FtDeBruijn2::new(3, 1);
        let faults = FaultSet::from_nodes(ft.node_count(), [0, 1]);
        ft.reconfigure(&faults);
    }

    proptest! {
        /// Randomised instantiation of Theorem 1: any ≤ k faults leave an
        /// embeddable healthy copy of the target, and `reconfigure_verified`
        /// says exactly what `reconfigure` and `Embedding::verify` do.
        #[test]
        fn theorem_1_random_fault_sets(h in 3usize..7, k in 0usize..5, count in 0usize..5, seed in 0u64..500) {
            let ft = FtDeBruijn2::new(h, k);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let count = count % (k + 1);
            let faults = FaultSet::random(ft.node_count(), count, &mut rng).expect("k within node count");
            let phi = ft.reconfigure(&faults);
            let verified = phi.verify(ft.target().graph(), ft.graph()).map(|()| phi.clone());
            prop_assert!(verified.is_ok());
            prop_assert_eq!(ft.reconfigure_verified(&faults), verified);
            prop_assert!(phi.as_slice().iter().all(|&v| !faults.contains(v)));
        }

        /// The forward block always has 2k+2 members (counting multiplicity
        /// collapses only when 2k+2 exceeds the node count).
        #[test]
        fn forward_block_size(h in 3usize..7, k in 0usize..5, x in 0usize..200) {
            let ft = FtDeBruijn2::new(h, k);
            let x = x % ft.node_count();
            // The forward block: the 2k + 2 consecutive nodes starting at
            // (2x - k) mod (2^h + k).
            let block: Vec<NodeId> =
                (-(k as i64)..=k as i64 + 1).map(|r| x_fn(x, 2, r, ft.node_count())).collect();
            prop_assert_eq!(block.len(), 2 * k + 2);
            // Every member of the block is a neighbour (or x itself, for the
            // unavoidable self-loop values that the simple graph drops).
            for &b in &block {
                prop_assert!(b == x || ft.graph().has_edge(x, b));
            }
        }
    }
}
