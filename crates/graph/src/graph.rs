//! The core undirected simple-graph type, stored in compressed sparse row
//! (CSR) form.
//!
//! The CSR layout keeps the whole adjacency structure in two flat arrays —
//! `offsets` (one `u32` per node, plus a sentinel) and `neighbors` (one `u32`
//! per directed edge) — so that neighbour scans are a single contiguous slice
//! read with no pointer chasing, and the entire graph of the instance sizes
//! this workspace targets fits in a few cache lines per node. All hot kernels
//! (BFS, routing, verification) iterate `neighbors(v)` slices directly.

use std::fmt;
use std::sync::Arc;

/// Identifier of a node inside a [`Graph`].
///
/// Nodes of a graph with `n` nodes are always `0..n`. The paper labels the
/// nodes of `B_{m,h}` and of the fault-tolerant graphs with consecutive
/// integers starting at 0, so a plain index is the natural representation.
/// Internally the CSR arrays store node ids as `u32` for cache density;
/// `NodeId` remains `usize` at API boundaries that index into per-node data.
pub type NodeId = usize;

/// Errors raised when assembling a [`Graph`] from raw adjacency data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A node listed itself as a neighbour. Simple graphs have no self-loops;
    /// [`crate::GraphBuilder`] elides them, but raw adjacency input must not
    /// contain them.
    SelfLoop {
        /// The offending node.
        node: NodeId,
    },
    /// Node `u` lists `v` as a neighbour but `v` does not list `u`. An
    /// undirected graph's adjacency must be symmetric.
    Asymmetric {
        /// The node whose list contains the unreciprocated neighbour.
        u: NodeId,
        /// The neighbour that does not point back.
        v: NodeId,
    },
    /// A neighbour id is not a node of the graph.
    OutOfRange {
        /// The node whose list contains the invalid id.
        node: NodeId,
        /// The invalid neighbour id.
        neighbor: NodeId,
    },
    /// The graph is too large for the `u32`-indexed CSR representation.
    TooLarge {
        /// The requested node count.
        nodes: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node } => write!(f, "self loop on node {node}"),
            GraphError::Asymmetric { u, v } => {
                write!(
                    f,
                    "asymmetric adjacency: {u} lists {v} but {v} does not list {u}"
                )
            }
            GraphError::OutOfRange { node, neighbor } => {
                write!(f, "neighbour {neighbor} of node {node} is out of range")
            }
            GraphError::TooLarge { nodes } => {
                write!(f, "{nodes} nodes exceed the u32-indexed CSR limit")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A compact undirected simple graph (no self-loops, no parallel edges).
///
/// Stored as CSR: `neighbors(v)` is the sorted slice
/// `neighbors[offsets[v]..offsets[v+1]]`, so `has_edge` is `O(log d)` and
/// neighbour iteration is a contiguous scan. Both arrays live in one
/// immutable allocation behind an [`Arc`] (`offsets` first, `neighbors`
/// right after), so a graph is shared, never copied: [`Clone`] is `O(1)`
/// and allocates nothing, and every clone (a [`Graph`] handed to each
/// simulated machine, say) reads the same memory. A read is still one
/// load from the graph to its arrays, as with a `Vec`. Use
/// [`crate::GraphBuilder`] to construct one.
#[derive(Clone)]
pub struct Graph {
    /// `offsets` (`nodes + 1` entries; `offsets[v]..offsets[v+1]` indexes
    /// `neighbors`) followed by `neighbors` (flat, per-node-sorted
    /// adjacency, `arcs` entries). A build that dropped duplicate arcs
    /// leaves one unused slot per dropped arc after `neighbors`: trimming
    /// them would copy the arrays, and a build's peak memory with them.
    csr: Arc<[u32]>,
    /// The number of nodes `n`.
    nodes: usize,
    /// The number of directed edges, `2 · edge_count`.
    arcs: usize,
    /// Optional human-readable name (used by the renderers).
    name: Arc<str>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.csr() == other.csr() && self.name == other.name
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph from per-node adjacency lists, validating that the
    /// input describes a simple undirected graph.
    ///
    /// Lists are sorted and de-duplicated. Unlike the pre-CSR representation
    /// (which only `debug_assert`ed), invalid input — self-loops, asymmetric
    /// adjacency, out-of-range neighbours, or more than `u32::MAX` nodes or
    /// directed edges — is rejected with a [`GraphError`] in release builds
    /// too, instead of silently corrupting the edge count. Rows are checked
    /// in node order: the first row that names an out-of-range neighbour
    /// (reported with its largest one) or itself wins, and range beats a
    /// self-loop within one row; symmetry is checked only after every row
    /// passed, arc by arc in CSR order.
    pub fn from_adjacency(
        mut adjacency: Vec<Vec<NodeId>>,
        name: String,
    ) -> Result<Self, GraphError> {
        let n = adjacency.len();
        if n >= u32::MAX as usize {
            return Err(GraphError::TooLarge { nodes: n });
        }
        let mut total = 0usize;
        for (v, list) in adjacency.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            if let Some(&last) = list.last() {
                if last >= n {
                    return Err(GraphError::OutOfRange {
                        node: v,
                        neighbor: last,
                    });
                }
            }
            if list.binary_search(&v).is_ok() {
                return Err(GraphError::SelfLoop { node: v });
            }
            total += list.len();
        }
        if total >= u32::MAX as usize {
            return Err(GraphError::TooLarge { nodes: n });
        }
        // Symmetry: every (v, u) must be mirrored by (u, v), one binary
        // search per directed edge in the sorted rows. Each mirrored pair
        // is then one edge of the fill.
        let mut edges = Vec::with_capacity(total / 2);
        for (v, list) in adjacency.iter().enumerate() {
            for &u in list {
                if adjacency[u].binary_search(&v).is_err() {
                    return Err(GraphError::Asymmetric { u: v, v: u });
                }
                if v < u {
                    edges.push((v as u32, u as u32));
                }
            }
        }
        drop(adjacency);
        Graph::from_edges(n, edges, name)
    }

    /// The one CSR fill path, shared by [`crate::GraphBuilder::build`] and
    /// [`Graph::from_adjacency`]: counting-sorts both arcs of every edge into
    /// its rows, then sorts and de-duplicates each row in place. Two
    /// allocations (the shared arrays and the name) at any size; `edges`
    /// is freed as soon as it has been scattered.
    ///
    /// Every endpoint must be below `n` and no edge may be a self-loop;
    /// duplicates, in either orientation, are allowed. Fails only with
    /// [`GraphError::TooLarge`]: `n` or the directed-edge count before
    /// de-duplication reaches `u32::MAX`.
    pub(crate) fn from_edges(
        n: usize,
        edges: Vec<(u32, u32)>,
        name: String,
    ) -> Result<Self, GraphError> {
        let arcs = edges.len() * 2;
        if n >= u32::MAX as usize || arcs >= u32::MAX as usize {
            return Err(GraphError::TooLarge { nodes: n });
        }
        let mut csr: Arc<[u32]> = std::iter::repeat(0).take(n + 1 + arcs).collect();
        let (offsets, neighbors) = Arc::get_mut(&mut csr)
            .expect("a freshly collected Arc is unique")
            .split_at_mut(n + 1);
        // Row lengths, then their prefix sums: `offsets[v]` is where row
        // `v` starts, and serves as its write cursor during the scatter.
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        for &(u, v) in &edges {
            neighbors[offsets[u as usize] as usize] = v;
            offsets[u as usize] += 1;
            neighbors[offsets[v as usize] as usize] = u;
            offsets[v as usize] += 1;
        }
        drop(edges);
        // Each cursor now sits where the next row starts: shift them back.
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort each row and drop its duplicates, compacting the rows
        // towards the front; `u32::MAX` is never a node id.
        let mut kept = 0;
        let mut start = 0;
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            neighbors[start..end].sort_unstable();
            let mut prev = u32::MAX;
            for i in start..end {
                let u = neighbors[i];
                if u != prev {
                    neighbors[kept] = u;
                    kept += 1;
                    prev = u;
                }
            }
            offsets[v + 1] = kept as u32;
            start = end;
        }
        Ok(Graph {
            csr,
            nodes: n,
            arcs: kept,
            name: name.into(),
        })
    }

    /// Creates a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            csr: std::iter::repeat(0).take(n + 1).collect(),
            nodes: n,
            arcs: 0,
            name: "".into(),
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.arcs / 2
    }

    /// An optional descriptive name (e.g. `"B(2,4)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns this graph carrying the given name; the arrays stay shared.
    pub(crate) fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into().into();
        self
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count()
    }

    /// The sorted neighbours of `v` as a raw CSR slice.
    ///
    /// The element type is the CSR's native `u32`; cast to [`NodeId`] when
    /// indexing per-node arrays. Kernels iterate this slice directly — it is
    /// contiguous memory, no per-node `Vec` indirection.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        let (offsets, neighbors) = self.csr();
        &neighbors[offsets[v] as usize..offsets[v + 1] as usize]
    }

    /// The neighbours of `v` as [`NodeId`]s (convenience wrapper over the raw
    /// CSR slice).
    pub fn neighbor_ids(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().map(|&u| u as NodeId)
    }

    /// The raw CSR arrays `(offsets, neighbors)`. `offsets` has `n + 1`
    /// entries; the neighbours of `v` occupy
    /// `neighbors[offsets[v] as usize..offsets[v + 1] as usize]`.
    pub fn csr(&self) -> (&[u32], &[u32]) {
        let (offsets, neighbors) = self.csr.split_at(self.nodes + 1);
        (offsets, &neighbors[..self.arcs])
    }

    /// The degree (number of incident edges) of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        let offsets = self.csr().0;
        (offsets[v + 1] - offsets[v]) as usize
    }

    /// The maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The minimum degree over all nodes (0 for the empty graph).
    pub(crate) fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_slot(u, v).is_some()
    }

    /// The CSR slot of the directed arc `u → v` — its index into the
    /// neighbour array of [`Graph::csr`] — or `None` when there is no such
    /// arc (out-of-range endpoints included).
    ///
    /// `O(log d)`; short CSR rows (the constant-degree graphs this library
    /// is about) use a branch-light linear scan instead, which is faster
    /// than binary search at these sizes.
    pub fn edge_slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if u >= self.node_count() || v >= self.node_count() {
            return None;
        }
        let (offsets, neighbors) = self.csr();
        let start = offsets[u] as usize;
        let row = &neighbors[start..offsets[u + 1] as usize];
        let v = v as u32;
        let at = if row.len() <= 32 {
            row.iter().position(|&x| x == v)
        } else {
            row.binary_search(&v).ok()
        };
        at.map(|p| start + p)
    }

    /// Iterator over all undirected edges as `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v as NodeId)
                .map(move |&v| (u, v as NodeId))
        })
    }

    /// Returns the sorted degree sequence of the graph.
    pub(crate) fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = self.nodes().map(|v| self.degree(v)).collect();
        d.sort_unstable();
        d
    }

    /// Checks the internal invariants (offset monotonicity, sortedness,
    /// symmetry, no self-loops).
    ///
    /// Intended for tests and debug assertions; `O(V + E log d)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (offsets, neighbors) = self.csr();
        if offsets[0] != 0 || offsets[self.nodes] as usize != neighbors.len() {
            return Err("offsets do not span the neighbour array".into());
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets not monotone".into());
        }
        for v in self.nodes() {
            let list = self.neighbors(v);
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {v} not strictly sorted"));
            }
            for &u in list {
                let u = u as NodeId;
                if u == v {
                    return Err(format!("self loop on {v}"));
                }
                if u >= self.node_count() {
                    return Err(format!("neighbour {u} of {v} out of range"));
                }
                if !self.has_edge(u, v) {
                    return Err(format!("edge ({v},{u}) not symmetric"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph({:?}, |V|={}, |E|={})",
            self.name,
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::{Graph, GraphError};
    use crate::GraphBuilder;

    #[test]
    fn triangle_basics() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        let g = b.build().with_name("K3");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbor_ids(1).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(g.degree_sequence(), vec![2, 2, 2]);
        assert_eq!(g.name(), "K3");
        g.check_invariants().unwrap();
    }

    #[test]
    fn edges_are_reported_once() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 3);
        let g = b.build();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (2, 3)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn out_of_range_has_edge_is_false() {
        let g = GraphBuilder::new(2).build();
        assert!(!g.has_edge(0, 7));
        assert!(!g.has_edge(7, 0));
    }

    #[test]
    fn empty_graph() {
        let g = crate::Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn csr_layout_is_exposed() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let (offsets, neighbors) = g.csr();
        assert_eq!(offsets, &[0, 1, 3, 4]);
        assert_eq!(neighbors, &[1, 0, 2, 1]);
    }

    #[test]
    fn self_loops_are_rejected_in_release_builds() {
        let err = Graph::from_adjacency(vec![vec![0]], String::new()).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 0 });
    }

    #[test]
    fn asymmetric_adjacency_is_rejected() {
        let err = Graph::from_adjacency(vec![vec![1], vec![]], String::new()).unwrap_err();
        assert_eq!(err, GraphError::Asymmetric { u: 0, v: 1 });
    }

    #[test]
    fn out_of_range_neighbours_are_rejected() {
        let err = Graph::from_adjacency(vec![vec![5], vec![0]], String::new()).unwrap_err();
        assert_eq!(
            err,
            GraphError::OutOfRange {
                node: 0,
                neighbor: 5
            }
        );
    }

    #[test]
    fn valid_adjacency_is_accepted_with_duplicates_removed() {
        let g = Graph::from_adjacency(vec![vec![1, 1], vec![0]], "p2".into()).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.name(), "p2");
        g.check_invariants().unwrap();
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(GraphError::SelfLoop { node: 3 }.to_string().contains('3'));
        assert!(GraphError::Asymmetric { u: 1, v: 2 }
            .to_string()
            .contains("symmetric"));
        assert!(GraphError::OutOfRange {
            node: 0,
            neighbor: 9
        }
        .to_string()
        .contains('9'));
        assert!(GraphError::TooLarge { nodes: 7 }
            .to_string()
            .contains("u32"));
    }
}
