//! Whole-graph operations: induced subgraphs, relabelling, unions.

use crate::bitset::BitSet;
use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};

/// The result of taking an induced subgraph: the subgraph itself plus the
/// correspondence between its (re-numbered) nodes and the original nodes.
///
/// The paper's `(k, G)`-tolerance definition works with the subgraph of `G'`
/// induced by the non-faulty nodes `W`; this type keeps the two labelings
/// linked so that embeddings into the induced subgraph can be translated back
/// to node ids of `G'`.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The induced subgraph, with nodes re-numbered `0..|W|`.
    pub graph: Graph,
    /// `original[i]` is the node of the host graph that node `i` of
    /// `graph` corresponds to. Sorted ascending.
    pub original: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Translates a host-graph node into the induced subgraph, if it is part
    /// of it.
    pub fn from_original(&self, original: NodeId) -> Option<NodeId> {
        self.original.binary_search(&original).ok()
    }
}

/// Returns the subgraph of `g` induced by the node set `keep`.
///
/// Nodes are re-numbered `0..keep.count()` in increasing order of their
/// original id, exactly like the paper's rank-based reconfiguration mapping
/// (`Rank(x, W)`), so `InducedSubgraph::original` doubles as the inverse of
/// that mapping.
pub fn induced_subgraph(g: &Graph, keep: &BitSet) -> InducedSubgraph {
    let original: Vec<NodeId> = keep.iter().filter(|&v| v < g.node_count()).collect();
    let mut index_of = vec![usize::MAX; g.node_count()];
    for (new, &old) in original.iter().enumerate() {
        index_of[old] = new;
    }
    let mut b = GraphBuilder::new(original.len());
    for (new_u, &old_u) in original.iter().enumerate() {
        for &old_v in g.neighbors(old_u) {
            let old_v = old_v as NodeId;
            if old_v > old_u && index_of[old_v] != usize::MAX {
                b.add_edge(new_u, index_of[old_v]);
            }
        }
    }
    InducedSubgraph {
        graph: b
            .build()
            .with_name(format!("{}[induced {} nodes]", g.name(), original.len())),
        original,
    }
}

/// Returns the subgraph induced by all nodes of `g` *except* those in
/// `removed` (e.g. a fault set).
pub fn remove_nodes(g: &Graph, removed: &BitSet) -> InducedSubgraph {
    let mut keep = BitSet::full(g.node_count());
    for v in removed.iter() {
        if v < g.node_count() {
            keep.remove(v);
        }
    }
    induced_subgraph(g, &keep)
}

/// Relabels the nodes of `g` by the permutation `perm`, where node `v` of the
/// input becomes node `perm[v]` of the output.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..g.node_count()`.
pub fn relabel(g: &Graph, perm: &[NodeId]) -> Graph {
    assert_eq!(perm.len(), g.node_count(), "permutation length mismatch");
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        assert!(p < perm.len() && !seen[p], "not a permutation");
        seen[p] = true;
    }
    let mut b = GraphBuilder::new(g.node_count());
    for (u, v) in g.edges() {
        b.add_edge(perm[u], perm[v]);
    }
    b.build().with_name(format!("{}[relabelled]", g.name()))
}

/// Returns `true` if `sub` is a subgraph of `host` under the *identity*
/// labeling: every node id of `sub` must exist in `host` and every edge of
/// `sub` must be an edge of `host`.
pub fn is_identity_subgraph(sub: &Graph, host: &Graph) -> bool {
    sub.node_count() <= host.node_count() && sub.edges().all(|(u, v)| host.has_edge(u, v))
}

/// Returns the union of two graphs on the same node set: an edge is present
/// if it is present in either input.
///
/// # Panics
/// Panics if the node counts differ.
pub fn union(a: &Graph, b: &Graph) -> Graph {
    assert_eq!(a.node_count(), b.node_count(), "union: node count mismatch");
    let mut builder = GraphBuilder::new(a.node_count());
    builder.add_edges(a.edges());
    builder.add_edges(b.edges());
    builder.build()
}

/// Returns the graph with the same nodes as `g` and exactly the edges of `g`
/// that connect two nodes inside `within` (without renumbering).
pub fn restrict_edges(g: &Graph, within: &BitSet) -> Graph {
    let mut b = GraphBuilder::new(g.node_count());
    for (u, v) in g.edges() {
        if within.contains(u) && within.contains(v) {
            b.add_edge(u, v);
        }
    }
    b.build().with_name(format!("{}[restricted]", g.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn induced_cycle_minus_node_is_path() {
        let c5 = generators::cycle(5);
        let faults = BitSet::from_iter(5, [2]);
        let ind = remove_nodes(&c5, &faults);
        assert_eq!(ind.graph.node_count(), 4);
        assert_eq!(ind.graph.edge_count(), 3); // path on 4 nodes
        assert_eq!(ind.original, vec![0, 1, 3, 4]);
        assert_eq!(ind.from_original(3), Some(2));
        assert_eq!(ind.from_original(2), None);
    }

    #[test]
    fn induced_respects_rank_order() {
        let g = generators::complete(6);
        let keep = BitSet::from_iter(6, [1, 3, 5]);
        let ind = induced_subgraph(&g, &keep);
        assert_eq!(ind.original, vec![1, 3, 5]);
        assert_eq!(ind.graph.edge_count(), 3); // K3
    }

    #[test]
    fn relabel_preserves_structure() {
        let p = generators::path(4); // 0-1-2-3
        let relabelled = relabel(&p, &[3, 2, 1, 0]);
        assert!(relabelled.has_edge(3, 2));
        assert!(relabelled.has_edge(1, 0));
        assert_eq!(relabelled.degree_sequence(), p.degree_sequence());
    }

    #[test]
    #[should_panic]
    fn relabel_rejects_non_permutation() {
        let p = generators::path(3);
        relabel(&p, &[0, 0, 1]);
    }

    #[test]
    fn identity_subgraph_check() {
        let c4 = generators::cycle(4);
        let p4 = generators::path(4);
        // The path 0-1-2-3 is a subgraph of the cycle 0-1-2-3-0.
        assert!(is_identity_subgraph(&p4, &c4));
        assert!(!is_identity_subgraph(&c4, &p4));
    }

    #[test]
    fn union_and_restrict() {
        let a = crate::builder::graph_from_edges(4, &[(0, 1)]);
        let b = crate::builder::graph_from_edges(4, &[(2, 3), (0, 1)]);
        let u = union(&a, &b);
        assert_eq!(u.edge_count(), 2);
        let only01 = restrict_edges(&u, &BitSet::from_iter(4, [0, 1, 2]));
        assert_eq!(only01.edge_count(), 1);
        assert_eq!(only01.node_count(), 4);
    }
}
