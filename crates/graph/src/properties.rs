//! Degree statistics and structural property checks.

use crate::graph::{Graph, NodeId};
use std::collections::BTreeMap;

/// Summary of a graph's degree structure, as reported in the experiment
/// tables (the paper's claims are all about node counts and degree bounds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreeStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Histogram: degree → number of nodes with that degree.
    pub histogram: BTreeMap<usize, usize>,
}

/// Computes [`DegreeStats`] for a graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let mut histogram = BTreeMap::new();
    for v in g.nodes() {
        *histogram.entry(g.degree(v)).or_insert(0usize) += 1;
    }
    DegreeStats {
        nodes: g.node_count(),
        edges: g.edge_count(),
        min_degree: g.min_degree(),
        max_degree: g.max_degree(),
        histogram,
    }
}

/// Returns `true` if every node has exactly degree `d`.
pub fn is_regular(g: &Graph, d: usize) -> bool {
    g.nodes().all(|v| g.degree(v) == d)
}

/// The average degree (`2|E| / |V|`), or 0 for the empty graph.
pub fn average_degree(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        0.0
    } else {
        2.0 * g.edge_count() as f64 / g.node_count() as f64
    }
}

/// Nodes attaining the maximum degree.
pub fn max_degree_nodes(g: &Graph) -> Vec<NodeId> {
    let max = g.max_degree();
    g.nodes().filter(|&v| g.degree(v) == max).collect()
}

/// Returns `true` if the two graphs have identical node counts, edge counts
/// and degree sequences. This is a cheap necessary condition for isomorphism
/// used as a sanity check when comparing alternative constructions of the
/// same topology.
pub fn same_degree_profile(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.degree_sequence() == b.degree_sequence()
}

/// Checks whether two graphs on the same node set have exactly the same edge
/// set (i.e. are equal as labelled graphs).
pub fn same_edge_set(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.edges().all(|(u, v)| b.has_edge(u, v))
}

/// Number of triangles in the graph (each triangle counted once).
///
/// Useful as a cheap structural fingerprint when cross-checking the two edge
/// definitions of the de Bruijn graphs.
pub fn triangle_count(g: &Graph) -> usize {
    let mut count = 0;
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            let v = v as NodeId;
            if v <= u {
                continue;
            }
            // Count common neighbours w > v to count each triangle once.
            for &w in g.neighbors(v) {
                if w as NodeId > v && g.has_edge(u, w as NodeId) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_of_cycle() {
        let c = generators::cycle(6);
        let s = degree_stats(&c);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 6);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.histogram.get(&2), Some(&6));
        assert!(is_regular(&c, 2));
        assert!(!is_regular(&generators::path(4), 2));
    }

    #[test]
    fn average_degree_values() {
        assert!((average_degree(&generators::complete(5)) - 4.0).abs() < 1e-12);
        assert_eq!(average_degree(&crate::Graph::empty(0)), 0.0);
    }

    #[test]
    fn max_degree_nodes_of_star() {
        let s = generators::star(5);
        assert_eq!(max_degree_nodes(&s), vec![0]);
    }

    #[test]
    fn degree_profile_comparison() {
        let a = generators::cycle(6);
        let b = crate::ops::relabel(&a, &[5, 4, 3, 2, 1, 0]);
        assert!(same_degree_profile(&a, &b));
        assert!(!same_degree_profile(&a, &generators::path(6)));
    }

    #[test]
    fn edge_set_equality() {
        let a = generators::cycle(5);
        let b = generators::cycle(5);
        assert!(same_edge_set(&a, &b));
        assert!(!same_edge_set(&a, &generators::path(5)));
    }

    #[test]
    fn triangles() {
        assert_eq!(triangle_count(&generators::complete(4)), 4);
        assert_eq!(triangle_count(&generators::cycle(5)), 0);
        assert_eq!(triangle_count(&generators::complete(5)), 10);
    }
}
