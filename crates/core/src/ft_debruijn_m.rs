//! The fault-tolerant base-m de Bruijn graph `B^k_{m,h}` (Section IV-A).
//!
//! For `m ≥ 2`, `h ≥ 3` and `k ≥ 0`, `B^k_{m,h}` has nodes
//! `{0, …, m^h + k - 1}` and an edge `(x, y)` iff there is an
//! `r ∈ {(m-1)(-k), …, (m-1)(k+1)}` with `y = X(x, m, r, m^h + k)` or
//! `x = X(y, m, r, m^h + k)`.
//!
//! The graph has `m^h + k` nodes and degree at most `4(m-1)k + 2m`
//! (Theorem 2 / Corollary 3); for `m = 2` it coincides with
//! [`crate::FtDeBruijn2`].

use crate::fault::FaultSet;
use crate::reconfig::RankReconfig;
use ftdb_graph::{Embedding, Graph, GraphBuilder};
use ftdb_topology::labels::{pow_nodes, x_fn};
use ftdb_topology::DeBruijnM;

/// The fault-tolerant base-m de Bruijn graph `B^k_{m,h}`.
#[derive(Clone, Debug)]
pub struct FtDeBruijnM {
    m: usize,
    h: usize,
    k: usize,
    graph: Graph,
    target: DeBruijnM,
    reconfig: RankReconfig,
}

impl FtDeBruijnM {
    /// Builds `B^k_{m,h}`.
    ///
    /// # Panics
    /// Panics if `m < 2`, `h < 1`, or `m^h + k` overflows.
    pub fn new(m: usize, h: usize, k: usize) -> Self {
        assert!(m >= 2, "B^k(m,h) needs m >= 2");
        assert!(h >= 1, "B^k(m,h) needs h >= 1");
        let n = pow_nodes(m, h)
            .checked_add(k)
            .expect("m^h + k overflows usize");
        let span = (m as i64 - 1) * (k as i64);
        let hi = (m as i64 - 1) * (k as i64 + 1);
        let mut b = GraphBuilder::new(n).name(format!("B^{k}({m},{h})"));
        for x in 0..n {
            for r in -span..=hi {
                b.add_edge(x, x_fn(x, m, r, n));
            }
        }
        FtDeBruijnM {
            m,
            h,
            k,
            graph: b.build(),
            target: DeBruijnM::new(m, h),
            reconfig: RankReconfig::default(),
        }
    }

    /// The base `m` of the target graph.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The number of digits `h` of the target graph.
    pub fn h(&self) -> usize {
        self.h
    }

    /// The fault budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of nodes, `m^h + k`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The degree bound `4(m-1)k + 2m` proven in Corollary 3.
    pub fn degree_bound(&self) -> usize {
        4 * (self.m - 1) * self.k + 2 * self.m
    }

    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The target graph `B_{m,h}` this construction protects.
    pub fn target(&self) -> &DeBruijnM {
        &self.target
    }

    /// Reconfigures around `faults`, returning the rank-based embedding `φ`
    /// of `B_{m,h}` into this graph.
    ///
    /// # Panics
    /// Panics if more than `k` faults are given or the universe mismatches.
    pub fn reconfigure(&self, faults: &FaultSet) -> Embedding {
        RankReconfig::reconfigure(self.target.graph(), &self.graph, self.k, faults)
    }

    /// Reconfigures and verifies the resulting embedding (Theorem 2).
    ///
    /// The result is exactly [`FtDeBruijnM::reconfigure`] followed by
    /// [`Embedding::verify`], `Err` values included. The first call proves
    /// the construction tolerant of every fault set of at most `k` nodes
    /// and keeps the verdict, so later calls return the rank map with no
    /// check; [`FtDeBruijn2::reconfigure_verified`](crate::FtDeBruijn2::reconfigure_verified)
    /// gives the costs.
    ///
    /// # Panics
    /// As [`FtDeBruijnM::reconfigure`].
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
    use crate::ft_debruijn::FtDeBruijn2;
    use ftdb_graph::{properties, NodeId};
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn base2_specialisation_matches_ft_debruijn2() {
        for (h, k) in [(3, 0), (3, 1), (4, 2), (5, 1)] {
            let general = FtDeBruijnM::new(2, h, k);
            let special = FtDeBruijn2::new(h, k);
            assert!(
                properties::same_edge_set(general.graph(), special.graph()),
                "B^{k}(2,{h}) mismatch"
            );
            assert_eq!(general.degree_bound(), special.degree_bound());
        }
    }

    #[test]
    fn zero_spares_reduces_to_target() {
        for (m, h) in [(3, 3), (4, 2), (5, 2)] {
            let ft = FtDeBruijnM::new(m, h, 0);
            assert!(
                properties::same_edge_set(ft.graph(), DeBruijnM::new(m, h).graph()),
                "B^0({m},{h}) != B({m},{h})"
            );
        }
    }

    #[test]
    fn node_count_and_degree_bound() {
        for (m, h, k) in [(3, 3, 1), (3, 3, 2), (4, 2, 3), (5, 2, 1), (4, 3, 2)] {
            let ft = FtDeBruijnM::new(m, h, k);
            assert_eq!(ft.node_count(), pow_nodes(m, h) + k);
            assert!(
                ft.graph().max_degree() <= ft.degree_bound(),
                "degree {} exceeds 4(m-1)k+2m = {} for m={m}, h={h}, k={k}",
                ft.graph().max_degree(),
                ft.degree_bound()
            );
        }
    }

    #[test]
    fn corollary_4_single_fault_degree() {
        // Corollary 4: B^1_{m,h} has m^h + 1 nodes and degree at most 6m - 4.
        for (m, h) in [(3, 3), (4, 2), (5, 2), (6, 2)] {
            let ft = FtDeBruijnM::new(m, h, 1);
            assert_eq!(ft.node_count(), pow_nodes(m, h) + 1);
            assert!(
                ft.graph().max_degree() <= 6 * m - 4,
                "degree {} > 6m-4 for m={m}, h={h}",
                ft.graph().max_degree()
            );
        }
    }

    #[test]
    fn all_single_faults_tolerated_base3() {
        let ft = FtDeBruijnM::new(3, 3, 1);
        for f in 0..ft.node_count() {
            let faults = FaultSet::from_nodes(ft.node_count(), [f]);
            ft.reconfigure_verified(&faults)
                .unwrap_or_else(|e| panic!("fault {f}: {e}"));
        }
    }

    proptest! {
        /// Randomised instantiation of Theorem 2, through
        /// `reconfigure_verified` and through `Embedding::verify`.
        #[test]
        fn theorem_2_random_fault_sets(m in 2usize..5, h in 3usize..5, k in 0usize..4, count in 0usize..4, seed in 0u64..200) {
            let ft = FtDeBruijnM::new(m, h, k);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let count = count % (k + 1);
            let faults = FaultSet::random(ft.node_count(), count, &mut rng).expect("k within node count");
            let phi = ft.reconfigure(&faults);
            let verified = phi.verify(ft.target().graph(), ft.graph()).map(|()| phi);
            prop_assert!(verified.is_ok());
            prop_assert_eq!(ft.reconfigure_verified(&faults), verified);
        }

        /// The forward block of `x`, the nodes `(mx + r) mod (m^h + k)` for
        /// `r ∈ {(m-1)(-k), …, (m-1)(k+1)}`, has (m-1)(2k+1)+1 entries, each
        /// a neighbour of `x` (or `x` itself, a dropped self-loop).
        #[test]
        fn forward_block_size(m in 2usize..5, h in 2usize..4, k in 0usize..4, x in 0usize..300) {
            let ft = FtDeBruijnM::new(m, h, k);
            let x = x % ft.node_count();
            let (lo, hi) = (-((m as i64 - 1) * k as i64), (m as i64 - 1) * (k as i64 + 1));
            let block: Vec<NodeId> = (lo..=hi).map(|r| x_fn(x, m, r, ft.node_count())).collect();
            prop_assert_eq!(block.len(), (m - 1) * (2 * k + 1) + 1);
            for &b in &block {
                prop_assert!(b == x || ft.graph().has_edge(x, b));
            }
        }
    }
}
