//! Structural property checks.

use crate::graph::Graph;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stats_of_cycle() {
        let c = generators::cycle(6);
        assert_eq!((c.min_degree(), c.max_degree()), (2, 2));
        assert_eq!(c.degree_sequence(), vec![2; 6]);
        assert_eq!(generators::path(4).min_degree(), 1);
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
}
