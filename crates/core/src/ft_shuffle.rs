//! Fault-tolerant shuffle-exchange networks.
//!
//! The paper gives two routes to a fault-tolerant shuffle-exchange:
//!
//! 1. **Via the de Bruijn containment** (the paper's recommended route):
//!    since `SE_h` is a subgraph of `B_{2,h}` of the same size, the
//!    fault-tolerant de Bruijn graph `B^k_{2,h}` is automatically
//!    `(k, SE_h)`-tolerant, with degree `4k + 4`. [`FtShuffleExchange`]
//!    implements this, using the constructive embedding computed in
//!    `ftdb_topology::se_embedding`.
//! 2. **Via the natural labeling**: applying the widened-block technique
//!    directly to the shuffle-exchange edge functions. The paper notes this
//!    yields a larger degree (`6k + 4`); our edge-by-edge derivation gives a
//!    bound of `6k + 6` (shuffle blocks `2·(2k+2)` plus exchange blocks
//!    `2·(k+1)`), and the measured maximum degree of the construction is
//!    reported in the experiments next to the paper's figure.
//!    [`NaturalFtShuffleExchange`] implements this; it needs no external
//!    containment result and therefore works at every `h`.

use crate::fault::FaultSet;
use crate::ft_debruijn::FtDeBruijn2;
use crate::reconfig::RankReconfig;
use ftdb_graph::{Embedding, Graph, GraphBuilder};
use ftdb_topology::labels::{pow_nodes, x_fn};
use ftdb_topology::se_embedding::{embed_se_into_debruijn, SeEmbeddingResult};
use ftdb_topology::ShuffleExchange;

/// Error constructing the de Bruijn-based fault-tolerant shuffle-exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtShuffleError {
    /// The embedding search proved `SE_h ⊄ B_{2,h}` (does not occur for the
    /// parameter ranges used in practice, but the search can in principle
    /// report it for degenerate `h`).
    NoEmbedding,
    /// The embedding search exceeded its budget. Callers should fall back to
    /// [`NaturalFtShuffleExchange`].
    EmbeddingSearchBudgetExhausted,
}

impl std::fmt::Display for FtShuffleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtShuffleError::NoEmbedding => write!(f, "SE_h is not a subgraph of B_2,h for this h"),
            FtShuffleError::EmbeddingSearchBudgetExhausted => {
                write!(
                    f,
                    "embedding search budget exhausted; use the natural-labeling construction"
                )
            }
        }
    }
}

impl std::error::Error for FtShuffleError {}

/// The fault-tolerant shuffle-exchange obtained through the de Bruijn
/// containment: the physical network is `B^k_{2,h}` (degree ≤ `4k + 4`), and
/// the logical shuffle-exchange is found by composing the `SE_h → B_{2,h}`
/// embedding with the rank-based reconfiguration.
#[derive(Clone, Debug)]
pub struct FtShuffleExchange {
    ft: FtDeBruijn2,
    se: ShuffleExchange,
    sigma: Embedding,
}

impl FtShuffleExchange {
    /// Builds the construction for `SE_h` tolerating `k` faults, computing
    /// the `SE_h ⊆ B_{2,h}` embedding with the default search budget.
    pub fn new(h: usize, k: usize) -> Result<Self, FtShuffleError> {
        let sigma = match embed_se_into_debruijn(h) {
            SeEmbeddingResult::Found(e) => e,
            SeEmbeddingResult::Impossible => return Err(FtShuffleError::NoEmbedding),
            SeEmbeddingResult::BudgetExhausted => {
                return Err(FtShuffleError::EmbeddingSearchBudgetExhausted)
            }
        };
        Ok(FtShuffleExchange {
            ft: FtDeBruijn2::new(h, k),
            se: ShuffleExchange::new(h),
            sigma,
        })
    }

    /// The number of digits `h`.
    pub fn h(&self) -> usize {
        self.ft.h()
    }

    /// The fault budget `k`.
    pub fn k(&self) -> usize {
        self.ft.k()
    }

    /// The number of physical nodes, `2^h + k`.
    pub fn node_count(&self) -> usize {
        self.ft.node_count()
    }

    /// The degree bound `4k + 4` (inherited from `B^k_{2,h}`).
    pub fn degree_bound(&self) -> usize {
        self.ft.degree_bound()
    }

    /// The physical interconnection graph (`B^k_{2,h}`).
    pub fn graph(&self) -> &Graph {
        self.ft.graph()
    }

    /// The logical target shuffle-exchange network.
    pub fn target(&self) -> &ShuffleExchange {
        &self.se
    }

    /// Reconfigures around `faults`, returning the embedding of `SE_h` into
    /// the physical graph: the composition of the static containment with
    /// the rank-based de Bruijn reconfiguration.
    pub fn reconfigure(&self, faults: &FaultSet) -> Embedding {
        let phi = self.ft.reconfigure(faults);
        self.sigma.then(&phi)
    }

    /// Reconfigures and verifies the embedding against the target SE graph.
    pub fn reconfigure_verified(
        &self,
        faults: &FaultSet,
    ) -> Result<Embedding, ftdb_graph::embedding::EmbeddingError> {
        let embedding = self.reconfigure(faults);
        embedding.verify(self.se.graph(), self.ft.graph())?;
        Ok(embedding)
    }
}

/// The natural-labeling fault-tolerant shuffle-exchange `SE^k_h`.
///
/// Nodes are `{0, …, 2^h + k − 1}`. Edges widen each shuffle-exchange edge
/// function by the displacement range `[0, k]` of the rank map:
///
/// * shuffle/unshuffle edges become the de Bruijn-style blocks
///   `(x, (2x + r) mod (2^h + k))` for `r ∈ {−k, …, k+1}`;
/// * exchange edges become the consecutive blocks `(x, x + d)` for
///   `d ∈ {1, …, k+1}` (no wrap-around, because exchange partners are
///   consecutive integers and images of the rank map never wrap).
#[derive(Clone, Debug)]
pub struct NaturalFtShuffleExchange {
    h: usize,
    k: usize,
    graph: Graph,
    target: ShuffleExchange,
    reconfig: RankReconfig,
}

impl NaturalFtShuffleExchange {
    /// Builds `SE^k_h` under the natural labeling.
    ///
    /// # Panics
    /// Panics if `h < 1` or `2^h + k` overflows.
    pub fn new(h: usize, k: usize) -> Self {
        assert!(h >= 1, "SE^k_h needs h >= 1");
        let n = pow_nodes(2, h)
            .checked_add(k)
            .expect("2^h + k overflows usize");
        let mut b = GraphBuilder::new(n).name(format!("SE^{k}({h})"));
        for x in 0..n {
            // Widened shuffle blocks (same as the fault-tolerant de Bruijn graph).
            for r in -(k as i64)..=(k as i64 + 1) {
                b.add_edge(x, x_fn(x, 2, r, n));
            }
            // Widened exchange blocks.
            for d in 1..=(k + 1) {
                if x + d < n {
                    b.add_edge(x, x + d);
                }
            }
        }
        NaturalFtShuffleExchange {
            h,
            k,
            graph: b.build(),
            target: ShuffleExchange::new(h),
            reconfig: RankReconfig::default(),
        }
    }

    /// The number of digits `h`.
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

    /// The degree bound of this construction as derived in this module
    /// (`6k + 6`); the paper quotes `6k + 4` for the natural labeling. The
    /// measured maximum degree is reported by the experiments.
    pub fn degree_bound(&self) -> usize {
        6 * self.k + 6
    }

    /// The degree the paper quotes for the natural-labeling construction.
    pub fn paper_degree_bound(&self) -> usize {
        6 * self.k + 4
    }

    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The logical target shuffle-exchange network.
    pub fn target(&self) -> &ShuffleExchange {
        &self.target
    }

    /// Reconfigures around `faults` with the rank-based map.
    ///
    /// # Panics
    /// Panics if more than `k` faults are given or the universe mismatches.
    pub fn reconfigure(&self, faults: &FaultSet) -> Embedding {
        RankReconfig::reconfigure(self.target.graph(), &self.graph, self.k, faults)
    }

    /// Reconfigures and verifies the embedding against the target SE graph.
    ///
    /// The result is exactly [`NaturalFtShuffleExchange::reconfigure`] followed by
    /// [`Embedding::verify`], `Err` values included. The first call proves
    /// the construction tolerant of every fault set of at most `k` nodes
    /// and keeps the verdict, so later calls return the rank map with no
    /// check; [`FtDeBruijn2::reconfigure_verified`](crate::FtDeBruijn2::reconfigure_verified)
    /// gives the costs.
    ///
    /// # Panics
    /// As [`NaturalFtShuffleExchange::reconfigure`].
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
    use crate::verify::verify_exhaustive;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn debruijn_route_has_degree_4k_plus_4() {
        for (h, k) in [(3, 1), (4, 1), (4, 2), (5, 1)] {
            let ft = FtShuffleExchange::new(h, k).unwrap();
            assert_eq!(ft.node_count(), (1 << h) + k);
            assert!(
                ft.graph().max_degree() <= 4 * k + 4,
                "degree {} > 4k+4 for h={h}, k={k}",
                ft.graph().max_degree()
            );
        }
    }

    #[test]
    fn debruijn_route_tolerates_every_single_fault() {
        let ft = FtShuffleExchange::new(4, 1).unwrap();
        for f in 0..ft.node_count() {
            let faults = FaultSet::from_nodes(ft.node_count(), [f]);
            let e = ft.reconfigure_verified(&faults).unwrap();
            assert!(e.as_slice().iter().all(|&v| v != f));
        }
    }

    #[test]
    fn natural_labeling_structure() {
        let se = NaturalFtShuffleExchange::new(4, 1);
        assert_eq!(se.node_count(), 17);
        assert!(se.graph().max_degree() <= se.degree_bound());
        // The exchange edges of node 3 widen to the block {4, 5}.
        assert!(se.graph().has_edge(3, 4) && se.graph().has_edge(3, 5));
        se.graph().check_invariants().unwrap();
    }

    #[test]
    fn natural_labeling_zero_spares_contains_target() {
        let se = NaturalFtShuffleExchange::new(4, 0);
        let phi = se.reconfigure(&FaultSet::empty(se.node_count()));
        phi.verify(se.target().graph(), se.graph()).unwrap();
    }

    #[test]
    fn natural_labeling_is_exhaustively_tolerant_small() {
        for (h, k) in [(3, 1), (3, 2), (4, 1)] {
            let se = NaturalFtShuffleExchange::new(h, k);
            let report = verify_exhaustive(se.target().graph(), se.graph(), k, 4);
            assert!(
                report.is_tolerant(),
                "natural SE^{k}_{h} not tolerant: {:?}",
                report.failures
            );
        }
    }

    #[test]
    fn natural_labeling_degree_close_to_paper_figure() {
        // The paper quotes 6k+4; our derivation gives 6k+6. The measured
        // degree must sit between the target degree and our bound.
        for (h, k) in [(4, 1), (4, 2), (5, 1), (5, 3)] {
            let se = NaturalFtShuffleExchange::new(h, k);
            let measured = se.graph().max_degree();
            assert!(measured <= 6 * k + 6, "h={h}, k={k}: measured {measured}");
            assert!(measured >= 3, "h={h}, k={k}: measured {measured}");
        }
    }

    #[test]
    fn debruijn_route_beats_natural_labeling_degree() {
        // The whole point of using the SE ⊆ DB containment: lower degree.
        for (h, k) in [(4, 1), (4, 2), (5, 1)] {
            let via_db = FtShuffleExchange::new(h, k).unwrap();
            let natural = NaturalFtShuffleExchange::new(h, k);
            assert!(
                via_db.graph().max_degree() <= natural.graph().max_degree(),
                "h={h}, k={k}"
            );
        }
    }

    #[test]
    fn debruijn_route_random_faults_tolerated() {
        // Build the (search-based) construction once and hit it with many
        // random fault sets.
        let via_db = FtShuffleExchange::new(5, 3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let faults =
                FaultSet::random(via_db.node_count(), 3, &mut rng).expect("k within node count");
            via_db.reconfigure_verified(&faults).unwrap();
        }
    }

    proptest! {
        /// Random fault sets are tolerated by the natural-labeling
        /// construction, through `reconfigure_verified` and through
        /// `Embedding::verify`.
        #[test]
        fn natural_random_faults_tolerated(h in 3usize..7, k in 1usize..4, count in 0usize..4, seed in 0u64..200) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let natural = NaturalFtShuffleExchange::new(h, k);
            let count = count % (k + 1);
            let faults = FaultSet::random(natural.node_count(), count, &mut rng).expect("k within node count");
            let phi = natural.reconfigure(&faults);
            let verified = phi.verify(natural.target().graph(), natural.graph()).map(|()| phi);
            prop_assert!(verified.is_ok());
            prop_assert_eq!(natural.reconfigure_verified(&faults), verified);
        }
    }
}
