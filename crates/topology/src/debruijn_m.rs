//! The base-m de Bruijn graph `B_{m,h}` (Section IV of the paper).
//!
//! `B_{m,h}` has `m^h` nodes labelled with `h`-digit base-m numbers. Node
//! `x = [x_{h-1}, …, x_0]_m` is connected to `[x_{h-2}, …, x_0, r]_m` and
//! `[r, x_{h-1}, …, x_1]_m` for every `r ∈ {0, …, m-1}`. Equivalently,
//! `(x, y)` is an edge iff there is an `r ∈ {0, …, m-1}` with
//! `y = X(x, m, r, m^h)` or `x = X(y, m, r, m^h)`.

use crate::labels::{format_label, from_digits, pow_nodes, to_digits, x_fn};
use ftdb_graph::{Graph, GraphBuilder, NodeId};

/// The base-m `h`-digit de Bruijn graph `B_{m,h}`.
#[derive(Clone, Debug)]
pub struct DeBruijnM {
    m: usize,
    h: usize,
    graph: Graph,
}

impl DeBruijnM {
    /// Builds `B_{m,h}` using the arithmetic (`X` function) edge definition.
    ///
    /// # Panics
    /// Panics if `m < 2`, `h < 1`, or `m^h` overflows `usize`.
    pub fn new(m: usize, h: usize) -> Self {
        assert!(m >= 2, "B(m,h) needs m >= 2");
        assert!(h >= 1, "B(m,h) needs h >= 1");
        let n = pow_nodes(m, h);
        let mut b = GraphBuilder::new(n).name(format!("B({m},{h})"));
        for x in 0..n {
            for r in 0..m {
                b.add_edge(x, x_fn(x, m, r as i64, n));
            }
        }
        DeBruijnM {
            m,
            h,
            graph: b.build(),
        }
    }

    /// Builds `B_{m,h}` using the digit-string definition (drop the most
    /// significant digit and append `r`, or drop the least significant digit
    /// and prepend `r`).
    pub fn by_digit_definition(m: usize, h: usize) -> Self {
        assert!(m >= 2 && h >= 1);
        let n = pow_nodes(m, h);
        let mut b = GraphBuilder::new(n).name(format!("B({m},{h})"));
        for x in 0..n {
            let digits = to_digits(x, m, h);
            for r in 0..m {
                // [x_{h-2}, …, x_0, r]
                let mut left = digits[1..].to_vec();
                left.push(r);
                b.add_edge(x, from_digits(&left, m));
                // [r, x_{h-1}, …, x_1]
                let mut right = vec![r];
                right.extend_from_slice(&digits[..h - 1]);
                b.add_edge(x, from_digits(&right, m));
            }
        }
        DeBruijnM {
            m,
            h,
            graph: b.build(),
        }
    }

    /// The base `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The number of digits `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// The number of nodes, `m^h`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The base-m label of node `x` as an `h`-character string.
    pub fn label(&self, x: NodeId) -> String {
        format_label(x, self.m, self.h)
    }

    /// The `m` successor nodes `X(x, m, r, m^h)` for `r = 0..m`.
    pub fn successors(&self, x: NodeId) -> Vec<NodeId> {
        let n = self.node_count();
        (0..self.m).map(|r| x_fn(x, self.m, r as i64, n)).collect()
    }

    /// Routes from `source` to `target` by shifting in the base-m digits of
    /// `target`, one per hop. At most `h` hops.
    pub fn route(&self, source: NodeId, target: NodeId) -> Vec<NodeId> {
        let n = self.node_count();
        assert!(source < n && target < n, "route endpoints out of range");
        let digits = to_digits(target, self.m, self.h);
        let mut path = vec![source];
        let mut current = source;
        for &d in &digits {
            let next = x_fn(current, self.m, d as i64, n);
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
    use crate::debruijn::DeBruijn2;
    use ftdb_graph::{properties, traversal};
    use proptest::prelude::*;

    #[test]
    fn base2_specialisation_matches_debruijn2() {
        for h in 1..=7 {
            let general = DeBruijnM::new(2, h);
            let special = DeBruijn2::new(h);
            assert!(
                properties::same_edge_set(general.graph(), special.graph()),
                "B(2,{h}) mismatch between the general and base-2 constructions"
            );
        }
    }

    #[test]
    fn arithmetic_and_digit_definitions_agree() {
        for (m, h) in [(2, 5), (3, 3), (4, 3), (5, 2), (8, 2)] {
            let a = DeBruijnM::new(m, h);
            let d = DeBruijnM::by_digit_definition(m, h);
            assert!(
                properties::same_edge_set(a.graph(), d.graph()),
                "definitions disagree for m={m}, h={h}"
            );
        }
    }

    #[test]
    fn node_count_and_degree_bound() {
        for (m, h) in [(3, 3), (4, 2), (5, 3), (6, 2)] {
            let g = DeBruijnM::new(m, h);
            assert_eq!(g.node_count(), pow_nodes(m, h));
            // Degree of the de Bruijn graph is at most 2m.
            assert!(
                g.graph().max_degree() <= 2 * m,
                "degree {} > 2m for m={m}, h={h}",
                g.graph().max_degree()
            );
            assert!(traversal::is_connected(g.graph()));
        }
    }

    #[test]
    fn diameter_is_h() {
        for (m, h) in [(2, 5), (3, 3), (4, 3)] {
            let g = DeBruijnM::new(m, h);
            assert_eq!(traversal::diameter(g.graph()), Some(h), "m={m}, h={h}");
        }
    }

    #[test]
    fn labels_use_base_m_digits() {
        let g = DeBruijnM::new(3, 3);
        assert_eq!(g.label(0), "000");
        assert_eq!(g.label(25), "221");
        assert_eq!(g.label(26), "222");
    }

    #[test]
    fn successors_are_neighbors() {
        let g = DeBruijnM::new(4, 3);
        for x in [0usize, 1, 17, 63] {
            for s in g.successors(x) {
                if s != x {
                    assert!(g.graph().has_edge(x, s));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn routes_are_valid_paths(m in 2usize..5, h in 2usize..5, s in 0usize..10000, t in 0usize..10000) {
            let g = DeBruijnM::new(m, h);
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
        fn edge_count_close_to_directed_count(m in 2usize..5, h in 2usize..4) {
            // The directed de Bruijn graph has exactly m^(h+1) arcs. After
            // dropping the m self-loops and merging 2-cycles the undirected
            // edge count is at most m^(h+1) - m and at least (m^(h+1) - m)/2.
            let g = DeBruijnM::new(m, h);
            let arcs = pow_nodes(m, h + 1);
            prop_assert!(g.graph().edge_count() <= arcs - m);
            prop_assert!(2 * g.graph().edge_count() >= arcs - m);
        }
    }
}
