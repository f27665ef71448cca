//! The point-to-point shuffle-exchange network `SE_h` (Stone \[13\]).
//!
//! `SE_h` has `2^h` nodes labelled with `h`-bit binary numbers. Node `x` is
//! connected to
//!
//! * `shuffle(x)` — the left rotation of its label (and, undirected, to
//!   `unshuffle(x)`, the right rotation), and
//! * `exchange(x) = x ⊕ 1` — the label with the lowest bit flipped.
//!
//! Its degree is 3 (the two rotation neighbours plus the exchange
//! neighbour), which is what makes it attractive for massively parallel
//! machines and, at the same time, so fragile under faults: every efficient
//! Ascend/Descend-style algorithm uses every node and every link.

use crate::labels::{format_label, pow_nodes, rotate_left, rotate_right};
use ftdb_graph::{Graph, GraphBuilder, NodeId};

/// The kind of a shuffle-exchange edge incident to a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeEdgeKind {
    /// The cyclic-left-shift (shuffle) edge.
    Shuffle,
    /// The cyclic-right-shift (unshuffle) edge.
    Unshuffle,
    /// The lowest-bit-flip (exchange) edge.
    Exchange,
}

/// The shuffle-exchange network on `2^h` nodes.
#[derive(Clone, Debug)]
pub struct ShuffleExchange {
    h: usize,
    graph: Graph,
}

impl ShuffleExchange {
    /// Builds `SE_h`.
    ///
    /// # Panics
    /// Panics if `h < 1` or `2^h` overflows `usize`.
    pub fn new(h: usize) -> Self {
        assert!(h >= 1, "SE_h needs h >= 1");
        let n = pow_nodes(2, h);
        let mut b = GraphBuilder::new(n).name(format!("SE({h})"));
        for x in 0..n {
            b.add_edge(x, rotate_left(x, 2, h)); // shuffle (self-loop at 0…0 and 1…1 ignored)
            b.add_edge(x, x ^ 1); // exchange
        }
        ShuffleExchange {
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

    /// The binary label of node `x`.
    pub fn label(&self, x: NodeId) -> String {
        format_label(x, 2, self.h)
    }

    /// The shuffle neighbour of `x` (cyclic left shift of the label).
    pub fn shuffle(&self, x: NodeId) -> NodeId {
        rotate_left(x, 2, self.h)
    }

    /// The unshuffle neighbour of `x` (cyclic right shift of the label).
    fn unshuffle(&self, x: NodeId) -> NodeId {
        rotate_right(x, 2, self.h)
    }

    /// The exchange neighbour of `x` (lowest bit flipped).
    pub fn exchange(&self, x: NodeId) -> NodeId {
        x ^ 1
    }

    /// Follows an edge of the given kind from `x`.
    pub fn step(&self, x: NodeId, kind: SeEdgeKind) -> NodeId {
        match kind {
            SeEdgeKind::Shuffle => self.shuffle(x),
            SeEdgeKind::Unshuffle => self.unshuffle(x),
            SeEdgeKind::Exchange => self.exchange(x),
        }
    }

    /// Routes from `source` to `target` with the classic shuffle-exchange
    /// scheme: `h` rounds of "optionally exchange (to fix the bit about to be
    /// rotated out of position), then shuffle". The path length is at most
    /// `2h`; consecutive path nodes are adjacent (duplicates from no-op steps
    /// are dropped).
    pub fn route(&self, source: NodeId, target: NodeId) -> Vec<NodeId> {
        let n = self.node_count();
        assert!(source < n && target < n, "route endpoints out of range");
        let mut path = vec![source];
        let mut current = source;
        // Each round writes one target bit into the low-order position
        // (via an exchange step if needed) and then shuffles. The bit written
        // in round j (1-based) ends up, after the remaining rotations, at
        // position (h - j + 1) mod h of the final label, so the bits must be
        // fed in the order t_0, t_{h-1}, t_{h-2}, …, t_1.
        for j in 1..=self.h {
            let position = (self.h - j + 1) % self.h;
            let want = (target >> position) & 1;
            if current & 1 != want {
                current ^= 1;
                path.push(current);
            }
            let next = self.shuffle(current);
            if next != current {
                path.push(next);
            }
            current = next;
        }
        debug_assert_eq!(current, target);
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdb_graph::traversal;
    use proptest::prelude::*;

    #[test]
    fn se3_structure() {
        let se = ShuffleExchange::new(3);
        assert_eq!(se.node_count(), 8);
        // Degree is at most 3.
        assert!(se.graph().max_degree() <= 3);
        assert!(traversal::is_connected(se.graph()));
        // 000 is adjacent to 001 (exchange); its shuffle is itself (ignored).
        assert!(se.graph().has_edge(0b000, 0b001));
        assert_eq!(se.graph().degree(0b000), 1);
        // 011 shuffles to 110, unshuffles to 101, exchanges to 010.
        assert!(se.graph().has_edge(0b011, 0b110));
        assert!(se.graph().has_edge(0b011, 0b101));
        assert!(se.graph().has_edge(0b011, 0b010));
        assert_eq!(se.graph().degree(0b011), 3);
    }

    #[test]
    fn edge_kind_helpers() {
        let se = ShuffleExchange::new(4);
        assert_eq!(se.shuffle(0b0110), 0b1100);
        assert_eq!(se.unshuffle(0b0110), 0b0011);
        assert_eq!(se.exchange(0b0110), 0b0111);
        assert_eq!(se.step(0b0110, SeEdgeKind::Shuffle), 0b1100);
        assert_eq!(se.step(0b0110, SeEdgeKind::Unshuffle), 0b0011);
        assert_eq!(se.step(0b0110, SeEdgeKind::Exchange), 0b0111);
        assert_eq!(se.label(0b0110), "0110");
    }

    #[test]
    fn edge_count_formula() {
        // SE_h has 2^{h-1} exchange edges plus the shuffle cycles:
        // 2^h shuffle arcs minus the 2 self-loops, but shuffle arcs that
        // coincide with their own reverse (2-cycles like 01<->10) are single
        // undirected edges. We simply check against an independent count.
        for h in 2..=9 {
            let se = ShuffleExchange::new(h);
            let mut expected = std::collections::BTreeSet::new();
            let n = 1usize << h;
            for x in 0..n {
                let s = rotate_left(x, 2, h);
                if s != x {
                    expected.insert((x.min(s), x.max(s)));
                }
                expected.insert((x.min(x ^ 1), x.max(x ^ 1)));
            }
            assert_eq!(se.graph().edge_count(), expected.len(), "h={h}");
        }
    }

    #[test]
    fn degree_never_exceeds_three() {
        for h in 1..=10 {
            assert!(ShuffleExchange::new(h).graph().max_degree() <= 3, "h={h}");
        }
    }

    #[test]
    fn routing_between_known_pair() {
        let se = ShuffleExchange::new(3);
        let path = se.route(0b000, 0b111);
        assert_eq!(*path.first().unwrap(), 0b000);
        assert_eq!(*path.last().unwrap(), 0b111);
        for w in path.windows(2) {
            assert!(se.graph().has_edge(w[0], w[1]), "non-edge {w:?}");
        }
    }

    proptest! {
        #[test]
        fn routes_are_valid_and_short(h in 2usize..9, s in 0usize..1000, t in 0usize..1000) {
            let se = ShuffleExchange::new(h);
            let n = se.node_count();
            let (s, t) = (s % n, t % n);
            let path = se.route(s, t);
            prop_assert_eq!(path[0], s);
            prop_assert_eq!(*path.last().unwrap(), t);
            prop_assert!(path.len() <= 2 * h + 1);
            for w in path.windows(2) {
                prop_assert!(se.graph().has_edge(w[0], w[1]));
            }
        }

        #[test]
        fn shuffle_and_unshuffle_are_inverse(h in 1usize..10, x in 0usize..100000) {
            let se = ShuffleExchange::new(h);
            let x = x % se.node_count();
            prop_assert_eq!(se.unshuffle(se.shuffle(x)), x);
            prop_assert_eq!(se.exchange(se.exchange(x)), x);
        }
    }
}
