//! Text renderers used to regenerate the paper's figures.
//!
//! The paper contains five figures, all of which are drawings of small graphs
//! (`B_{2,4}`, `B^1_{2,4}`, the relabelled `B^1_{2,4}` after one fault, and
//! the bus implementation of `B^1_{2,3}`). We regenerate them as DOT files
//! (for graphical rendering with Graphviz) and as adjacency tables (for plain
//! terminal inspection and for the `experiments` binary's output).

use crate::graph::{Graph, NodeId};
use std::fmt::Write as _;

/// Options controlling DOT output.
#[derive(Clone, Debug, Default)]
pub struct DotOptions {
    /// Optional label per node (defaults to the node id).
    pub node_labels: Option<Vec<String>>,
    /// Node ids to highlight (drawn filled); used for fault sets.
    pub highlighted: Vec<NodeId>,
    /// Edges to emphasise (drawn bold); used for the "edges used after
    /// reconfiguration" in Fig. 3.
    pub bold_edges: Vec<(NodeId, NodeId)>,
}

/// Renders the graph in Graphviz DOT format.
pub fn to_dot(g: &Graph, opts: &DotOptions) -> String {
    let mut out = String::new();
    let name = if g.name().is_empty() { "G" } else { g.name() };
    let _ = writeln!(out, "graph \"{}\" {{", name.replace('"', "'"));
    let _ = writeln!(out, "  node [shape=circle];");
    for v in g.nodes() {
        let label = opts
            .node_labels
            .as_ref()
            .and_then(|l| l.get(v).cloned())
            .unwrap_or_else(|| v.to_string());
        let style = if opts.highlighted.contains(&v) {
            ", style=filled, fillcolor=gray"
        } else {
            ""
        };
        let _ = writeln!(out, "  n{v} [label=\"{label}\"{style}];");
    }
    for (u, v) in g.edges() {
        let bold = opts.bold_edges.contains(&(u, v)) || opts.bold_edges.contains(&(v, u));
        let attr = if bold { " [style=bold]" } else { "" };
        let _ = writeln!(out, "  n{u} -- n{v}{attr};");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders the graph as a plain adjacency table, one node per line:
/// `node : neighbour neighbour ...`, with a custom node label function (e.g.
/// the binary labels the paper uses for de Bruijn nodes).
pub fn adjacency_table_with_labels<F: Fn(NodeId) -> String>(g: &Graph, label: F) -> String {
    let mut out = String::new();
    if !g.name().is_empty() {
        let _ = writeln!(
            out,
            "# {} : {} nodes, {} edges, max degree {}",
            g.name(),
            g.node_count(),
            g.edge_count(),
            g.max_degree()
        );
    }
    let width = g.nodes().map(|v| label(v).len()).max().unwrap_or(1);
    for v in g.nodes() {
        let neighbours: Vec<String> = g.neighbors(v).iter().map(|&u| label(u as NodeId)).collect();
        let _ = writeln!(
            out,
            "{:>width$} : {}",
            label(v),
            neighbours.join(" "),
            width = width
        );
    }
    out
}

/// Renders a compact single-line summary of a graph, used in experiment logs.
pub fn summary_line(g: &Graph) -> String {
    format!(
        "{}: |V|={} |E|={} degree(min/max)={}/{}",
        if g.name().is_empty() {
            "graph"
        } else {
            g.name()
        },
        g.node_count(),
        g.edge_count(),
        g.min_degree(),
        g.max_degree()
    )
}

/// Renders a two-column correspondence table (e.g. the reconfiguration map
/// `x → φ(x)` of Fig. 3).
pub fn mapping_table(title: &str, pairs: &[(String, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let left = pairs.iter().map(|(a, _)| a.len()).max().unwrap_or(1);
    for (a, b) in pairs {
        let _ = writeln!(out, "{a:>left$} -> {b}", left = left);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let g = generators::cycle(3).with_name("C3");
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.contains("graph \"C3\""));
        assert!(dot.contains("n0 -- n1"));
        assert!(dot.contains("n0 [label=\"0\"]"));
        assert_eq!(dot.matches("--").count(), 3);
    }

    #[test]
    fn dot_highlights_and_bold_edges() {
        let g = generators::path(3);
        let opts = DotOptions {
            node_labels: Some(vec!["a".into(), "b".into(), "c".into()]),
            highlighted: vec![1],
            bold_edges: vec![(2, 1)],
        };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("fillcolor=gray"));
        assert!(dot.contains("label=\"b\""));
        assert!(dot.contains("n1 -- n2 [style=bold]"));
    }

    #[test]
    fn adjacency_table_lists_all_nodes() {
        let g = generators::star(4).with_name("S4");
        let table = adjacency_table_with_labels(&g, |v| v.to_string());
        assert!(table.contains("# S4"));
        assert_eq!(table.lines().count(), 5); // header + 4 nodes
        assert!(table.contains("0 : 1 2 3"));
    }

    #[test]
    fn adjacency_table_custom_labels() {
        let g = generators::path(2);
        let t = adjacency_table_with_labels(&g, |v| format!("{v:02b}"));
        assert!(t.contains("00 : 01"));
    }

    #[test]
    fn summary_and_mapping() {
        let g = generators::complete(3).with_name("K3");
        assert_eq!(summary_line(&g), "K3: |V|=3 |E|=3 degree(min/max)=2/2");
        let m = mapping_table("phi", &[("0".into(), "1".into())]);
        assert!(m.contains("# phi"));
        assert!(m.contains("0 -> 1"));
    }
}
