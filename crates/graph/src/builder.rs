//! Incremental graph construction.

use crate::graph::{Graph, NodeId};

/// Builds a [`Graph`] incrementally.
///
/// The builder silently ignores self-loops (the paper's arithmetic edge
/// definitions produce a handful of them — e.g. node 0 of a de Bruijn graph
/// maps to itself under `x -> 2x mod 2^h` — and the paper states that such
/// self-loops "should be ignored") and de-duplicates parallel edges when the
/// graph is finalised.
///
/// Edges are kept in one flat list of `u32` pairs, 8 bytes per edge and
/// nothing per node, and [`GraphBuilder::build`] counting-sorts them
/// straight into the graph's CSR arrays (4 bytes per node plus 8 per
/// edge), so a build peaks at 16 bytes per edge plus 4 per node.
/// [`GraphBuilder::add_edges`] sizes the list once from its iterator's
/// lower size bound ([`GraphBuilder::add_edge`] grows it by doubling); a
/// graph built from an exact-size iterator costs the same few allocations
/// at any size: the edge list, the graph's shared arrays and its name.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    nodes: usize,
    edges: Vec<(u32, u32)>,
    name: String,
    ignored_self_loops: usize,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            nodes: n,
            edges: Vec::new(),
            name: String::new(),
            ignored_self_loops: 0,
        }
    }

    /// Sets the descriptive name of the graph being built.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of nodes the resulting graph will have.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Self-loops (`u == v`) are counted but ignored; duplicates are removed
    /// when the graph is built.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        let n = self.nodes;
        assert!(u < n && v < n, "edge ({u},{v}) out of range for {n} nodes");
        if u == v {
            self.ignored_self_loops += 1;
            return;
        }
        // Ids past `u32::MAX` cannot occur in a graph that builds: `build`
        // rejects such a node count.
        self.edges.push((u as u32, v as u32));
    }

    /// Adds every edge produced by the iterator, reserving room for its
    /// lower size bound first.
    pub fn add_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, edges: I) {
        let edges = edges.into_iter();
        self.edges.reserve(edges.size_hint().0);
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// The number of self-loops that were requested and ignored so far.
    pub fn ignored_self_loops(&self) -> usize {
        self.ignored_self_loops
    }

    /// Finalises the graph: sorts the edges into the CSR layout, sorting and
    /// de-duplicating each node's row.
    ///
    /// # Panics
    /// Panics if the graph exceeds the `u32`-indexed CSR limits (more than
    /// `u32::MAX` nodes, or directed edges counted before duplicates are
    /// removed). The builder cannot produce the other
    /// [`crate::graph::GraphError`] conditions: self-loops are elided and
    /// edges are always inserted symmetrically.
    pub fn build(self) -> Graph {
        Graph::from_edges(self.nodes, self.edges, self.name)
            .expect("the graph fits the u32-indexed CSR")
    }
}

/// Convenience constructor: builds a graph with `n` nodes from an edge list.
///
/// Self-loops and duplicate edges are ignored, matching [`GraphBuilder`].
pub fn graph_from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    b.add_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_and_self_loops_are_elided() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        assert_eq!(b.ignored_self_loops(), 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn from_edge_list() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree_sequence(), vec![2, 2, 2, 2]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn builder_name_propagates() {
        let g = GraphBuilder::new(1).name("lonely").build();
        assert_eq!(g.name(), "lonely");
    }
}
