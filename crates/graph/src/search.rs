//! Backtracking subgraph-embedding search.
//!
//! The paper's fault-tolerant shuffle-exchange construction relies on the
//! external structural result that the shuffle-exchange network `SE_h` is a
//! subgraph of the base-2 de Bruijn graph `B_{2,h}` of the same size. The
//! paper imports that result (\[7\]) as a black box; we make it constructive by
//! searching for an explicit embedding with a classic backtracking
//! subgraph-isomorphism procedure (candidate filtering by degree and by
//! adjacency to already-placed neighbours, most-constrained-first variable
//! ordering).
//!
//! The search is exact: if it returns an embedding, [`crate::Embedding::verify`]
//! holds by construction; if it returns `NoEmbedding`, none exists. A node
//! budget protects against pathological instances.

use crate::bitset::BitSet;
use crate::embedding::Embedding;
use crate::graph::{Graph, NodeId};

/// Configuration for [`find_embedding`].
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Maximum number of search-tree nodes to expand before giving up.
    pub node_budget: u64,
    /// If set, the search seeds guest node `fixed.0` to host node `fixed.1`.
    /// Useful to exploit symmetry (e.g. pinning node 0).
    pub fixed: Option<(NodeId, NodeId)>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            node_budget: 50_000_000,
            fixed: None,
        }
    }
}

/// Result of a subgraph-embedding search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchResult {
    /// An embedding was found.
    Found(Embedding),
    /// The search space was exhausted: no embedding exists.
    NoEmbedding,
    /// The node budget was exhausted before the search completed.
    BudgetExhausted,
}

struct Searcher<'a> {
    guest: &'a Graph,
    host: &'a Graph,
    /// assignment[g] = host node or usize::MAX
    assignment: Vec<NodeId>,
    used: BitSet,
    order: Vec<NodeId>,
    budget: u64,
    expanded: u64,
}

/// Chooses a guest-node elimination order: start from the highest-degree
/// node, then repeatedly pick the unplaced node with the most already-placed
/// neighbours (ties broken by higher degree). This keeps the partial
/// assignment as constrained as possible, which is what makes the search on
/// the highly regular de Bruijn / shuffle-exchange instances tractable.
fn variable_order(guest: &Graph, seed: Option<NodeId>) -> Vec<NodeId> {
    let n = guest.node_count();
    let mut placed = vec![false; n];
    let mut placed_neighbors = vec![0usize; n];
    let mut order = Vec::with_capacity(n);
    let first = seed.unwrap_or_else(|| (0..n).max_by_key(|&v| guest.degree(v)).unwrap_or(0));
    let mut next = Some(first);
    while let Some(v) = next {
        placed[v] = true;
        order.push(v);
        for &u in guest.neighbors(v) {
            placed_neighbors[u as usize] += 1;
        }
        next = (0..n)
            .filter(|&u| !placed[u])
            .max_by_key(|&u| (placed_neighbors[u], guest.degree(u)));
    }
    order
}

impl<'a> Searcher<'a> {
    fn candidates(&self, g: NodeId) -> Vec<NodeId> {
        // Host candidates must (a) be unused, (b) have enough degree, and
        // (c) be adjacent to the images of every already-placed guest
        // neighbour of `g`.
        let placed_neighbor_images: Vec<NodeId> = self
            .guest
            .neighbors(g)
            .iter()
            .filter_map(|&u| {
                let img = self.assignment[u as usize];
                (img != usize::MAX).then_some(img)
            })
            .collect();
        let needed_degree = self.guest.degree(g);
        if let Some(&anchor) = placed_neighbor_images.first() {
            // Intersect the neighbourhoods starting from one anchor image.
            self.host
                .neighbors(anchor)
                .iter()
                .map(|&h| h as NodeId)
                .filter(|&h| {
                    !self.used.contains(h)
                        && self.host.degree(h) >= needed_degree
                        && placed_neighbor_images[1..]
                            .iter()
                            .all(|&img| self.host.has_edge(h, img))
                })
                .collect()
        } else {
            self.host
                .nodes()
                .filter(|&h| !self.used.contains(h) && self.host.degree(h) >= needed_degree)
                .collect()
        }
    }

    fn solve(&mut self, depth: usize) -> Option<bool> {
        if depth == self.order.len() {
            return Some(true);
        }
        self.expanded += 1;
        if self.expanded > self.budget {
            return None; // budget exhausted
        }
        let g = self.order[depth];
        if self.assignment[g] != usize::MAX {
            // pre-seeded node
            return self.solve(depth + 1);
        }
        for h in self.candidates(g) {
            self.assignment[g] = h;
            self.used.insert(h);
            match self.solve(depth + 1) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            self.used.remove(h);
            self.assignment[g] = usize::MAX;
        }
        Some(false)
    }
}

/// Searches for an embedding of `guest` into `host`.
pub fn find_embedding(guest: &Graph, host: &Graph, opts: &SearchOptions) -> SearchResult {
    if guest.node_count() > host.node_count() || guest.max_degree() > host.max_degree() {
        return SearchResult::NoEmbedding;
    }
    if guest.node_count() == 0 {
        return SearchResult::Found(Embedding::from_map(Vec::new()));
    }
    let mut assignment = vec![usize::MAX; guest.node_count()];
    let mut used = BitSet::new(host.node_count());
    let seed = opts.fixed.map(|(g, h)| {
        assignment[g] = h;
        used.insert(h);
        g
    });
    let order = variable_order(guest, seed);
    let mut searcher = Searcher {
        guest,
        host,
        assignment,
        used,
        order,
        budget: opts.node_budget,
        expanded: 0,
    };
    match searcher.solve(0) {
        Some(true) => {
            let embedding = Embedding::from_map(searcher.assignment);
            debug_assert!(embedding.verify(guest, host).is_ok());
            SearchResult::Found(embedding)
        }
        Some(false) => SearchResult::NoEmbedding,
        None => SearchResult::BudgetExhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_embeds_in_cycle() {
        let guest = generators::path(5);
        let host = generators::cycle(8);
        match find_embedding(&guest, &host, &SearchOptions::default()) {
            SearchResult::Found(e) => e.verify(&guest, &host).unwrap(),
            other => panic!("expected embedding, got {other:?}"),
        }
    }

    #[test]
    fn cycle_does_not_embed_in_path() {
        let guest = generators::cycle(4);
        let host = generators::path(10);
        assert_eq!(
            find_embedding(&guest, &host, &SearchOptions::default()),
            SearchResult::NoEmbedding
        );
    }

    #[test]
    fn triangle_does_not_embed_in_square() {
        let guest = generators::complete(3);
        let host = generators::cycle(4);
        assert_eq!(
            find_embedding(&guest, &host, &SearchOptions::default()),
            SearchResult::NoEmbedding
        );
    }

    #[test]
    fn larger_guest_is_rejected_immediately() {
        let guest = generators::complete(5);
        let host = generators::complete(4);
        assert_eq!(
            find_embedding(&guest, &host, &SearchOptions::default()),
            SearchResult::NoEmbedding
        );
    }

    #[test]
    fn hypercube_contains_cycle_of_full_length() {
        // Q3 is Hamiltonian, so C8 embeds into it.
        let guest = generators::cycle(8);
        let host = generators::hypercube(3);
        match find_embedding(&guest, &host, &SearchOptions::default()) {
            SearchResult::Found(e) => e.verify(&guest, &host).unwrap(),
            other => panic!("expected embedding, got {other:?}"),
        }
    }

    #[test]
    fn fixed_seed_is_respected() {
        let guest = generators::path(3);
        let host = generators::cycle(6);
        let opts = SearchOptions {
            fixed: Some((0, 4)),
            ..Default::default()
        };
        match find_embedding(&guest, &host, &opts) {
            SearchResult::Found(e) => {
                assert_eq!(e.apply(0), 4);
                e.verify(&guest, &host).unwrap();
            }
            other => panic!("expected embedding, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A deliberately hard instance with a tiny budget.
        let guest = generators::cycle(9);
        let host = generators::hypercube(4);
        let opts = SearchOptions {
            node_budget: 1,
            ..Default::default()
        };
        assert_eq!(
            find_embedding(&guest, &host, &opts),
            SearchResult::BudgetExhausted
        );
    }

    #[test]
    fn empty_guest_embeds_trivially() {
        let guest = crate::Graph::empty(0);
        let host = generators::path(3);
        assert!(matches!(
            find_embedding(&guest, &host, &SearchOptions::default()),
            SearchResult::Found(_)
        ));
    }
}
