//! A constructive embedding of the shuffle-exchange network into the base-2
//! de Bruijn graph of the same size.
//!
//! The paper's fault-tolerant shuffle-exchange result (degree `4k + 4`) rests
//! on one external structural fact: *"a shuffle-exchange network is a
//! subgraph of a base-2 de Bruijn graph of the same size"* (reference \[7\]).
//! The paper uses the fact as a black box; this module makes it constructive
//! by computing an explicit embedding `σ : V(SE_h) → V(B_{2,h})` with the
//! backtracking subgraph-embedding search from `ftdb-graph`. The resulting
//! embedding is verified edge-by-edge before being returned, so a successful
//! return is a proof-by-witness of the containment for that `h`.
//!
//! Note that the *identity* labeling is not such an embedding: shuffle edges
//! are de Bruijn edges under the identity map, but exchange edges are not
//! (which is exactly why the paper points out that the "natural labeling"
//! only yields a degree `6k + 4` fault-tolerant graph). The computed
//! embeddings are therefore genuinely non-trivial relabelings.

use crate::debruijn::DeBruijn2;
use crate::shuffle_exchange::ShuffleExchange;
use ftdb_graph::search::{find_embedding, SearchOptions, SearchResult};
use ftdb_graph::Embedding;

/// Outcome of the shuffle-exchange → de Bruijn embedding computation.
#[derive(Clone, Debug)]
pub enum SeEmbeddingResult {
    /// A verified embedding was found.
    Found(Embedding),
    /// The exhaustive search proved that no embedding exists for this `h`
    /// (only possible for very small `h`).
    Impossible,
    /// The search ran out of budget before finding an embedding. The
    /// containment may still hold; callers should fall back to the natural
    /// labeling construction (degree `6k + 4`).
    BudgetExhausted,
}

impl SeEmbeddingResult {
    /// Returns the embedding if one was found.
    pub fn into_embedding(self) -> Option<Embedding> {
        match self {
            SeEmbeddingResult::Found(e) => Some(e),
            _ => None,
        }
    }
}

/// Computes an embedding of `SE_h` into `B_{2,h}` with the default search
/// budget.
pub fn embed_se_into_debruijn(h: usize) -> SeEmbeddingResult {
    embed_se_into_debruijn_with_budget(h, 200_000_000)
}

/// Computes an embedding of `SE_h` into `B_{2,h}` with an explicit search
/// budget (number of search-tree nodes).
fn embed_se_into_debruijn_with_budget(h: usize, node_budget: u64) -> SeEmbeddingResult {
    let se = ShuffleExchange::new(h);
    let db = DeBruijn2::new(h);
    let opts = SearchOptions {
        node_budget,
        fixed: None,
    };
    match find_embedding(se.graph(), db.graph(), &opts) {
        SearchResult::Found(e) => {
            // `find_embedding` already debug-asserts validity; re-verify in
            // release builds too, because downstream fault-tolerance claims
            // depend on it.
            e.verify(se.graph(), db.graph())
                .expect("search returned an invalid embedding");
            SeEmbeddingResult::Found(e)
        }
        SearchResult::NoEmbedding => SeEmbeddingResult::Impossible,
        SearchResult::BudgetExhausted => SeEmbeddingResult::BudgetExhausted,
    }
}

/// Checks whether the *identity* labeling embeds `SE_h` into `B_{2,h}`.
///
/// It does not (for `h ≥ 2`): exchange edges are not de Bruijn edges. The
/// paper relies on this observation when it contrasts the `4k + 4` and
/// `6k + 4` constructions; the function exists so tests and experiments can
/// demonstrate it.
pub fn identity_labeling_works(h: usize) -> bool {
    let se = ShuffleExchange::new(h);
    let db = DeBruijn2::new(h);
    Embedding::identity(se.node_count()).is_valid(se.graph(), db.graph())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_labeling_fails_for_h_at_least_3() {
        // Exchange edges are not de Bruijn edges under the identity map
        // (h = 2 is the one degenerate exception, where they happen to be).
        for h in 3..=6 {
            assert!(
                !identity_labeling_works(h),
                "identity unexpectedly works for h={h}"
            );
        }
    }

    #[test]
    fn embedding_found_for_small_h() {
        for h in 2..=5 {
            let se = ShuffleExchange::new(h);
            let db = DeBruijn2::new(h);
            match embed_se_into_debruijn(h) {
                SeEmbeddingResult::Found(e) => {
                    e.verify(se.graph(), db.graph()).unwrap();
                    assert_eq!(e.len(), 1 << h);
                }
                other => panic!("no SE⊆DB embedding found for h={h}: {other:?}"),
            }
        }
    }

    #[test]
    fn tiny_budget_reports_exhaustion() {
        match embed_se_into_debruijn_with_budget(4, 2) {
            SeEmbeddingResult::BudgetExhausted => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }
}
