//! The base-2 de Bruijn graph `B_{2,h}` (Section III of the paper).
//!
//! `B_{2,h}` has `2^h` nodes, each labelled with a unique `h`-bit binary
//! number. Node `x = [x_{h-1}, …, x_0]_2` is connected to
//! `[x_{h-2}, …, x_0, 0]`, `[x_{h-2}, …, x_0, 1]`, `[0, x_{h-1}, …, x_1]` and
//! `[1, x_{h-1}, …, x_1]` (self-loops ignored), i.e. to everything reachable
//! by shifting the label left or right by one position. Equivalently —
//! and this is the form the fault-tolerant construction generalises —
//! `(x, y)` is an edge iff there is an `r ∈ {0, 1}` with
//! `y = X(x, 2, r, 2^h)` or `x = X(y, 2, r, 2^h)`.

use crate::labels::{format_label, pow_nodes, x_fn};
use ftdb_graph::{Graph, GraphBuilder, NodeId};

/// The base-2 `h`-digit de Bruijn graph `B_{2,h}`.
#[derive(Clone, Debug)]
pub struct DeBruijn2 {
    h: usize,
    graph: Graph,
}

impl DeBruijn2 {
    /// Builds `B_{2,h}` using the arithmetic (`X` function) edge definition.
    ///
    /// # Panics
    /// Panics if `h < 1` or if `2^h` overflows `usize`. The paper assumes
    /// `h ≥ 3`; smaller values are permitted here because they are still
    /// well-defined graphs and are convenient in tests.
    pub fn new(h: usize) -> Self {
        assert!(h >= 1, "B(2,h) needs h >= 1");
        let n = pow_nodes(2, h);
        let mut b = GraphBuilder::new(n).name(format!("B(2,{h})"));
        // Edge (x, X(x, 2, r, 2^h)) for r = 0, 1, as the flat index 2x + r
        // so that the builder sizes its edge list once; the reverse
        // direction produces the same undirected edge set.
        b.add_edges((0..2 * n).map(|i| (i / 2, x_fn(i / 2, 2, (i % 2) as i64, n))));
        DeBruijn2 {
            h,
            graph: b.build(),
        }
    }

    /// Builds `B_{2,h}` using the digit-string definition (shift the binary
    /// label left or right and fill the vacated bit with 0 or 1).
    ///
    /// [`DeBruijn2::new`] and this constructor produce identical graphs; the
    /// equivalence that the paper states ("it is easily verified") is checked
    /// by tests and by a property test.
    pub fn by_digit_definition(h: usize) -> Self {
        assert!(h >= 1, "B(2,h) needs h >= 1");
        let n = pow_nodes(2, h);
        let mut b = GraphBuilder::new(n).name(format!("B(2,{h})"));
        for x in 0..n {
            let shifted_left = (x << 1) & (n - 1);
            let shifted_right = x >> 1;
            b.add_edge(x, shifted_left); // [x_{h-2},…,x_0,0]
            b.add_edge(x, shifted_left | 1); // [x_{h-2},…,x_0,1]
            b.add_edge(x, shifted_right); // [0,x_{h-1},…,x_1]
            b.add_edge(x, shifted_right | (1 << (h - 1))); // [1,x_{h-1},…,x_1]
        }
        DeBruijn2 {
            h,
            graph: b.build(),
        }
    }

    /// The number of digits `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// The number of nodes, `2^h`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the wrapper, returning the underlying graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// The binary label of node `x`, as printed in the paper's figures
    /// (e.g. node 6 of `B_{2,4}` is `"0110"`).
    pub fn label(&self, x: NodeId) -> String {
        format_label(x, 2, self.h)
    }

    /// The two *successor* nodes of `x` in the directed de Bruijn sense:
    /// `2x mod 2^h` and `(2x + 1) mod 2^h`. These are the targets that a
    /// single bus replaces in the paper's Section V bus implementation.
    pub fn successors(&self, x: NodeId) -> [NodeId; 2] {
        let n = self.node_count();
        [x_fn(x, 2, 0, n), x_fn(x, 2, 1, n)]
    }

    /// The two *predecessor* nodes of `x`: `⌊x/2⌋` and `⌊x/2⌋ + 2^{h-1}`.
    pub fn predecessors(&self, x: NodeId) -> [NodeId; 2] {
        [x >> 1, (x >> 1) | (1 << (self.h - 1))]
    }

    /// One step of the digit-shifting route: shift `bit` into `current`.
    /// `X(current, 2, bit, 2^h) = ((current << 1) | bit) & (2^h - 1)` —
    /// shift-and-mask instead of the general modular arithmetic, valid
    /// because `B(2,h)` always has a power-of-two node count. This is the
    /// single definition of the step; every routing kernel calls it.
    #[inline]
    pub fn route_step(&self, current: NodeId, bit: usize) -> NodeId {
        ((current << 1) | (bit & 1)) & (self.node_count() - 1)
    }

    /// Routes from `source` to `target` by successively shifting in the bits
    /// of `target`, the standard de Bruijn routing scheme. The returned path
    /// starts at `source`, ends at `target`, and has at most `h + 1` nodes;
    /// consecutive nodes are adjacent (or equal, when a shift is a self-loop,
    /// in which case the duplicate is dropped).
    pub fn route(&self, source: NodeId, target: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.h + 1);
        self.route_into(source, target, &mut path);
        path
    }

    /// Buffer-reusing variant of [`DeBruijn2::route`]: clears `out` and
    /// writes the path into it. Once `out` has capacity `h + 1` no further
    /// allocation happens, which is what the batched routing engine relies
    /// on for its per-packet hot loop.
    pub fn route_into(&self, source: NodeId, target: NodeId, out: &mut Vec<NodeId>) {
        let n = self.node_count();
        assert!(source < n && target < n, "route endpoints out of range");
        out.clear();
        out.push(source);
        let mut current = source;
        for i in (0..self.h).rev() {
            let next = self.route_step(current, target >> i);
            if next != current {
                out.push(next);
            }
            current = next;
        }
        debug_assert_eq!(current, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdb_graph::properties;
    use ftdb_graph::traversal;
    use proptest::prelude::*;

    #[test]
    fn b24_matches_figure_1() {
        // Fig. 1 of the paper: B_{2,4} has 16 nodes and degree 4.
        let g = DeBruijn2::new(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.graph().max_degree(), 4);
        // Edge examples read off the figure / the digit definition:
        // node 0001 is adjacent to 0010, 0011, 0000 and 1000.
        for (u, v) in [(0, 1), (1, 2), (1, 3), (1, 8), (5, 10), (5, 11), (5, 2)] {
            assert!(g.graph().has_edge(u, v), "missing edge ({u},{v})");
        }
        assert!(!g.graph().has_edge(0, 15));
        g.graph().check_invariants().unwrap();
    }

    #[test]
    fn arithmetic_and_digit_definitions_agree() {
        for h in 1..=8 {
            let a = DeBruijn2::new(h);
            let d = DeBruijn2::by_digit_definition(h);
            assert!(
                properties::same_edge_set(a.graph(), d.graph()),
                "definitions disagree for h={h}"
            );
        }
    }

    #[test]
    fn degree_is_at_most_four_and_connected() {
        for h in 2..=9 {
            let g = DeBruijn2::new(h);
            assert!(g.graph().max_degree() <= 4, "degree > 4 for h={h}");
            assert!(traversal::is_connected(g.graph()), "disconnected for h={h}");
        }
    }

    #[test]
    fn labels_match_paper_convention() {
        let g = DeBruijn2::new(4);
        assert_eq!(g.label(0), "0000");
        assert_eq!(g.label(6), "0110");
        assert_eq!(g.label(15), "1111");
    }

    #[test]
    fn successors_and_predecessors() {
        let g = DeBruijn2::new(4);
        assert_eq!(g.successors(5), [10, 11]);
        assert_eq!(g.predecessors(10), [5, 13]);
        assert_eq!(g.successors(15), [14, 15]); // self-loop at the all-ones node
    }

    #[test]
    fn diameter_is_h() {
        // The de Bruijn graph B_{2,h} has diameter exactly h.
        for h in 2..=7 {
            let g = DeBruijn2::new(h);
            assert_eq!(traversal::diameter(g.graph()), Some(h), "h={h}");
        }
    }

    #[test]
    fn route_reaches_target_within_h_hops() {
        let g = DeBruijn2::new(6);
        let path = g.route(0b101010, 0b010101);
        assert_eq!(*path.first().unwrap(), 0b101010);
        assert_eq!(*path.last().unwrap(), 0b010101);
        assert!(path.len() <= 7);
        for w in path.windows(2) {
            assert!(g.graph().has_edge(w[0], w[1]), "non-edge in route {w:?}");
        }
    }

    proptest! {
        #[test]
        fn every_route_is_a_valid_path(h in 2usize..8, s in 0usize..1000, t in 0usize..1000) {
            let g = DeBruijn2::new(h);
            let n = g.node_count();
            let (s, t) = (s % n, t % n);
            let path = g.route(s, t);
            prop_assert_eq!(path[0], s);
            prop_assert_eq!(*path.last().unwrap(), t);
            prop_assert!(path.len() <= h + 1);
            for w in path.windows(2) {
                prop_assert!(g.graph().has_edge(w[0], w[1]));
            }
        }

        #[test]
        fn successor_edges_exist(h in 2usize..8, x in 0usize..1000) {
            let g = DeBruijn2::new(h);
            let x = x % g.node_count();
            for s in g.successors(x) {
                if s != x {
                    prop_assert!(g.graph().has_edge(x, s));
                }
            }
            for p in g.predecessors(x) {
                if p != x {
                    prop_assert!(g.graph().has_edge(x, p));
                }
            }
        }

        #[test]
        fn node_count_is_power_of_two(h in 1usize..10) {
            prop_assert_eq!(DeBruijn2::new(h).node_count(), 1usize << h);
        }
    }
}
