//! The binary hypercube `Q_d`, the reference topology of the paper's
//! introduction.
//!
//! The constant-degree networks (de Bruijn and shuffle-exchange) are
//! interesting precisely because they emulate hypercube algorithms — in
//! particular the Ascend/Descend classes of Preparata and Vuillemin — with
//! only constant-factor slowdown while keeping node degree independent of
//! the machine size. The simulator crate uses this module to define the
//! dimension-sweep communication pattern that those algorithm classes
//! perform.

use crate::labels::format_label;
use ftdb_graph::{Graph, GraphBuilder, NodeId};

/// The `d`-dimensional binary hypercube with `2^d` nodes.
#[derive(Clone, Debug)]
pub struct Hypercube {
    d: usize,
    graph: Graph,
}

impl Hypercube {
    /// Builds `Q_d`.
    ///
    /// # Panics
    /// Panics if `2^d` overflows `usize`.
    pub fn new(d: usize) -> Self {
        assert!(d < usize::BITS as usize, "dimension too large");
        let n = 1usize << d;
        let mut b = GraphBuilder::new(n).name(format!("Q({d})"));
        for x in 0..n {
            for bit in 0..d {
                let y = x ^ (1 << bit);
                if x < y {
                    b.add_edge(x, y);
                }
            }
        }
        Hypercube {
            d,
            graph: b.build(),
        }
    }

    /// The dimension `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The number of nodes, `2^d`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The binary label of node `x`.
    pub fn label(&self, x: NodeId) -> String {
        format_label(x, 2, self.d.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdb_graph::traversal;

    #[test]
    fn q4_counts() {
        let q = Hypercube::new(4);
        assert_eq!(q.node_count(), 16);
        assert_eq!(q.graph().edge_count(), 32);
        assert!(q.graph().nodes().all(|v| q.graph().degree(v) == 4));
        assert_eq!(traversal::diameter(q.graph()), Some(4));
    }

    #[test]
    fn dimension_neighbors() {
        let q = Hypercube::new(3);
        let across: Vec<u32> = q.graph().neighbors(0b010).to_vec();
        assert_eq!(across, vec![0b000, 0b011, 0b110]);
        assert_eq!(q.label(5), "101");
    }

    #[test]
    fn degree_grows_with_dimension() {
        // The introduction's point: hypercube degree grows with machine size…
        for d in 1..=8 {
            assert_eq!(Hypercube::new(d).graph().max_degree(), d);
        }
    }

    #[test]
    fn q0_is_a_single_node() {
        let q = Hypercube::new(0);
        assert_eq!(q.node_count(), 1);
        assert_eq!(q.graph().edge_count(), 0);
    }
}
