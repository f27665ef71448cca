//! Regeneration of the paper's figures (FIG1–FIG5) as text and DOT.
//!
//! The five figures of the paper are all small worked examples:
//!
//! 1. `B_{2,4}`, the 16-node base-2 de Bruijn graph;
//! 2. `B^1_{2,4}`, its 17-node fault-tolerant version;
//! 3. the relabelling of `B^1_{2,4}` after one fault (which physical node
//!    plays which logical role, and which edges are used);
//! 4. the bus implementation of `B^1_{2,3}`;
//! 5. the reconfiguration after one fault in the bus implementation.
//!
//! Each `figure*` function returns a plain-text rendering (adjacency table /
//! mapping table) and, where a drawing is meaningful, a Graphviz DOT string
//! so the figure can be rendered graphically with `dot -Tpng`.

use ftdb_core::{BusArchitecture, FaultSet, FtDeBruijn2};
use ftdb_graph::render::{adjacency_table_with_labels, mapping_table, to_dot, DotOptions};
use ftdb_graph::NodeId;
use ftdb_topology::labels::format_label;
use ftdb_topology::DeBruijn2;
use std::fmt::Write as _;

/// A regenerated figure: its identifier, a text rendering, and (optionally)
/// a DOT drawing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Figure {
    /// Figure identifier, e.g. `"FIG1"`.
    pub id: String,
    /// Caption matching the paper's figure caption.
    pub caption: String,
    /// Plain text rendering (adjacency/mapping tables).
    pub text: String,
    /// Graphviz DOT source, when a drawing is meaningful.
    pub dot: Option<String>,
}

/// FIG1: the base-2 four-digit de Bruijn graph `B_{2,4}`.
pub fn figure1() -> Figure {
    let db = DeBruijn2::new(4);
    let labels: Vec<String> = (0..db.node_count()).map(|v| db.label(v)).collect();
    let text = adjacency_table_with_labels(db.graph(), |v| db.label(v));
    let dot = to_dot(
        db.graph(),
        &DotOptions {
            node_labels: Some(labels),
            ..Default::default()
        },
    );
    Figure {
        id: "FIG1".into(),
        caption: "An example of the base-2 four-digit de Bruijn graph B(2,4)".into(),
        text,
        dot: Some(dot),
    }
}

/// FIG2: the fault-tolerant graph `B^1_{2,4}`.
pub fn figure2() -> Figure {
    let ft = FtDeBruijn2::new(4, 1);
    let text = adjacency_table_with_labels(ft.graph(), |v| v.to_string());
    let dot = to_dot(ft.graph(), &DotOptions::default());
    Figure {
        id: "FIG2".into(),
        caption: "An example of the graph B^1(2,4)".into(),
        text,
        dot: Some(dot),
    }
}

/// FIG3: the new labels of `B^1_{2,4}` after one fault. The paper draws the
/// case of a single specific fault; we regenerate the mapping for the given
/// faulty node (the experiments print `faulty = 5`, and the exhaustive sweep
/// in the tests covers all 17 choices).
pub fn figure3(faulty: NodeId) -> Figure {
    let ft = FtDeBruijn2::new(4, 1);
    let faults = FaultSet::from_nodes(ft.node_count(), [faulty]);
    let phi = ft
        .reconfigure_verified(&faults)
        .expect("B^1(2,4) tolerates every single fault");
    let pairs: Vec<(String, String)> = phi
        .as_slice()
        .iter()
        .enumerate()
        .map(|(logical, &physical)| {
            (
                format!("{} ({})", format_label(logical, 2, 4), logical),
                format!("physical {physical}"),
            )
        })
        .collect();
    let mut text = String::new();
    let _ = writeln!(text, "fault at physical node {faulty}");
    text.push_str(&mapping_table(
        "new labels after reconfiguration (logical de Bruijn label -> physical node)",
        &pairs,
    ));
    // The "solid edges used after reconfiguration" of the paper's figure:
    // the images of the target edges.
    let bold_edges: Vec<(NodeId, NodeId)> = ft
        .target()
        .graph()
        .edges()
        .map(|(x, y)| (phi.apply(x), phi.apply(y)))
        .collect();
    let dot = to_dot(
        ft.graph(),
        &DotOptions {
            node_labels: None,
            highlighted: vec![faulty],
            bold_edges,
        },
    );
    Figure {
        id: "FIG3".into(),
        caption: "An example of the new labels of B^1(2,4) after one fault".into(),
        text,
        dot: Some(dot),
    }
}

/// FIG4: the bus implementation of `B^1_{2,3}` — one bus per node, spanning
/// the block of `2k + 2 = 4` consecutive nodes starting at `(2i − 1) mod 9`.
pub fn figure4() -> Figure {
    let arch = BusArchitecture::new(3, 1);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# bus implementation of B^1(2,3): {} nodes, {} buses, bus-degree <= {}",
        arch.node_count(),
        arch.buses().len(),
        arch.degree_bound()
    );
    for bus in arch.buses() {
        let members: Vec<String> = bus.members.iter().map(ToString::to_string).collect();
        let _ = writeln!(text, "bus {:>2} : {}", bus.owner, members.join(" "));
    }
    let _ = writeln!(text, "max bus-degree measured: {}", arch.max_bus_degree());
    Figure {
        id: "FIG4".into(),
        caption: "An example of the graph B^1(2,3) using bus implementation".into(),
        text,
        dot: None,
    }
}

/// FIG5: reconfiguration after one fault in the bus implementation of
/// `B^1_{2,3}`.
pub fn figure5(faulty: NodeId) -> Figure {
    let ft = FtDeBruijn2::new(3, 1);
    let arch = BusArchitecture::from_ft(&ft);
    let faults = FaultSet::from_nodes(ft.node_count(), [faulty]);
    let phi = ft
        .reconfigure_verified(&faults)
        .expect("B^1(2,3) tolerates every single fault");
    let mut text = String::new();
    let _ = writeln!(text, "fault at physical node {faulty}");
    let pairs: Vec<(String, String)> = phi
        .as_slice()
        .iter()
        .enumerate()
        .map(|(logical, &physical)| {
            let bus = arch.bus_of(physical);
            (
                format!("{} ({})", format_label(logical, 2, 3), logical),
                format!("physical {physical}, bus members {:?}", bus.members),
            )
        })
        .collect();
    text.push_str(&mapping_table(
        "reconfiguration in the bus implementation (logical -> physical, with the bus it drives)",
        &pairs,
    ));
    Figure {
        id: "FIG5".into(),
        caption: "An example of the reconfiguration after one fault in the graph B^1(2,3) using bus implementation".into(),
        text,
        dot: None,
    }
}

/// All five figures with the default fault choices the `experiments` binary
/// prints.
pub fn all_figures() -> Vec<Figure> {
    vec![figure1(), figure2(), figure3(5), figure4(), figure5(4)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_matches_paper_dimensions() {
        let f = figure1();
        assert_eq!(f.id, "FIG1");
        assert!(f.text.contains("0110"));
        // 16 node lines plus the header line.
        assert_eq!(f.text.lines().count(), 17);
        assert!(f.dot.as_ref().unwrap().contains("n0 -- n1"));
    }

    #[test]
    fn figure2_has_17_nodes() {
        let f = figure2();
        assert_eq!(f.text.lines().count(), 18);
        assert!(f.text.contains("B^1(2,4)"));
    }

    #[test]
    fn figure3_marks_the_fault_and_uses_16_logical_nodes() {
        let f = figure3(5);
        assert!(f.text.contains("fault at physical node 5"));
        // 16 mapping rows + fault line + table header.
        assert_eq!(f.text.lines().count(), 18);
        // The faulty node never appears as an image.
        assert!(!f.text.contains("physical 5\n"));
        let dot = f.dot.unwrap();
        assert!(dot.contains("fillcolor=gray"));
        assert!(dot.contains("style=bold"));
    }

    #[test]
    fn figure3_works_for_every_possible_fault() {
        for faulty in 0..17 {
            let f = figure3(faulty);
            assert!(f.text.contains(&format!("fault at physical node {faulty}")));
        }
    }

    #[test]
    fn figure4_lists_one_bus_per_node() {
        let f = figure4();
        assert_eq!(f.text.matches("bus ").count(), 9 + 1); // 9 bus lines + header mention
        assert!(f.text.contains("bus-degree <= 5"));
    }

    #[test]
    fn figure5_describes_reconfiguration() {
        let f = figure5(4);
        assert!(f.text.contains("fault at physical node 4"));
        assert!(f.text.contains("bus members"));
    }

    #[test]
    fn all_figures_are_generated() {
        let figs = all_figures();
        assert_eq!(figs.len(), 5);
        assert_eq!(figs[0].id, "FIG1");
        assert_eq!(figs[4].id, "FIG5");
    }
}
