//! The physical machine model.
//!
//! A machine is a graph of processors (nodes) connected by point-to-point
//! links (edges), a set of faulty processors, and a *port model* describing
//! how many distinct values a processor may inject per synchronous step —
//! the distinction Section V leans on when it argues that the bus
//! implementation costs "approximately a factor of 2" only if processors
//! could previously send two values at once.

use ftdb_core::FaultSet;
use ftdb_graph::{Graph, NodeId};

/// How many distinct values a processor may transmit in one synchronous step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortModel {
    /// One outgoing value per step (single-ported).
    SinglePort,
    /// One value per incident link per step (all-ported; for the de Bruijn
    /// graph's two forward links this is the "two different values in unit
    /// time" of Section V).
    MultiPort,
}

/// Errors surfaced by the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A step required a processor that is faulty (and the machine has no
    /// reconfiguration to route around it).
    FaultyProcessor {
        /// The faulty processor that the computation needed.
        node: NodeId,
    },
    /// A step required a link that does not exist in the physical graph.
    MissingLink {
        /// The endpoints of the missing link.
        link: (NodeId, NodeId),
    },
    /// A packet could not be delivered (no healthy path).
    Unreachable {
        /// Source of the packet.
        source: NodeId,
        /// Destination of the packet.
        target: NodeId,
    },
    /// A route endpoint does not name a node of the logical topology. The
    /// routing kernels return this instead of panicking, so a malformed
    /// workload degrades into dropped packets like every other failure.
    /// A scheduled fault that names no processor of the machine is
    /// rejected with it too.
    EndpointOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The number of logical nodes (valid endpoints are `0..limit`).
        limit: usize,
    },
    /// A route visits a logical node that the placement gives no physical
    /// image: the placement is shorter than the logical topology.
    UnplacedNode {
        /// The logical node without an image.
        node: NodeId,
        /// The number of logical nodes the placement maps (`0..placed`).
        placed: usize,
    },
    /// A dynamic fault scenario asked for more faults than the
    /// fault-tolerant construction is built to tolerate.
    FaultBudgetExceeded {
        /// Number of faults in the scenario.
        faults: usize,
        /// The construction's budget `k`.
        budget: usize,
    },
    /// Online reconfiguration failed verification for a fault set *within*
    /// the budget. Theorem 1 guarantees this cannot happen for a correct
    /// construction, so this error marks a construction bug — surfaced as a
    /// typed error instead of a panic so a recovery driver degrades
    /// gracefully.
    ReconfigurationFailed {
        /// Number of faults in the set that failed to reconfigure.
        faults: usize,
    },
    /// A network of `2^h` logical nodes, whose node count does not fit in
    /// a `usize`.
    DimensionTooLarge {
        /// The requested dimension.
        h: usize,
    },
    /// An input is sized for a different network than the one it is used
    /// with.
    SizeMismatch {
        /// Which input: `"values"`, `"placement"`, `"fault set"` or
        /// `"link fault set"`.
        what: &'static str,
        /// The size the network needs.
        expected: usize,
        /// The size given.
        got: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::FaultyProcessor { node } => write!(f, "processor {node} is faulty"),
            SimError::MissingLink { link } => {
                write!(f, "no physical link between {} and {}", link.0, link.1)
            }
            SimError::Unreachable { source, target } => {
                write!(f, "no healthy path from {source} to {target}")
            }
            SimError::EndpointOutOfRange { node, limit } => {
                write!(f, "route endpoint {node} is out of range (0..{limit})")
            }
            SimError::UnplacedNode { node, placed } => {
                write!(
                    f,
                    "logical node {node} has no placement image (the placement maps 0..{placed})"
                )
            }
            SimError::FaultBudgetExceeded { faults, budget } => {
                write!(
                    f,
                    "{faults} faults exceed the construction's budget k = {budget}"
                )
            }
            SimError::ReconfigurationFailed { faults } => {
                write!(
                    f,
                    "reconfiguration failed verification for a within-budget set of \
                     {faults} faults (construction bug)"
                )
            }
            SimError::DimensionTooLarge { h } => {
                write!(f, "2^{h} logical nodes do not fit in a usize")
            }
            SimError::SizeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} has size {got}, the network needs {expected}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A physical parallel machine: processors, links, faults and a port model.
#[derive(Clone, Debug)]
pub struct PhysicalMachine {
    graph: Graph,
    faults: FaultSet,
    port_model: PortModel,
}

impl PhysicalMachine {
    /// Creates a healthy machine from an interconnection graph.
    pub fn new(graph: Graph, port_model: PortModel) -> Self {
        let faults = FaultSet::empty(graph.node_count());
        PhysicalMachine {
            graph,
            faults,
            port_model,
        }
    }

    /// Creates a machine with the given fault set.
    ///
    /// # Panics
    /// Panics if the fault universe does not match the graph.
    pub fn with_faults(graph: Graph, faults: FaultSet, port_model: PortModel) -> Self {
        assert_eq!(
            faults.universe(),
            graph.node_count(),
            "fault set universe does not match the machine size"
        );
        PhysicalMachine {
            graph,
            faults,
            port_model,
        }
    }

    /// The interconnection graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The port model.
    pub fn port_model(&self) -> PortModel {
        self.port_model
    }

    /// Number of processors (healthy or not).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of healthy processors.
    pub fn healthy_count(&self) -> usize {
        self.node_count() - self.faults.len()
    }

    /// Marks a processor as faulty.
    pub fn inject_fault(&mut self, node: NodeId) {
        self.faults.add(node);
    }

    /// Returns whether `node` is healthy.
    pub fn is_healthy(&self, node: NodeId) -> bool {
        node < self.node_count() && !self.faults.contains(node)
    }

    /// Checks that a communication over link `(u, v)` is possible: both
    /// endpoints healthy and the link physically present.
    pub(crate) fn check_link(&self, u: NodeId, v: NodeId) -> Result<(), SimError> {
        if !self.is_healthy(u) {
            return Err(SimError::FaultyProcessor { node: u });
        }
        if !self.is_healthy(v) {
            return Err(SimError::FaultyProcessor { node: v });
        }
        if u != v && !self.graph.has_edge(u, v) {
            return Err(SimError::MissingLink { link: (u, v) });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdb_graph::generators;

    #[test]
    fn healthy_machine_basics() {
        let m = PhysicalMachine::new(generators::cycle(6), PortModel::MultiPort);
        assert_eq!(m.node_count(), 6);
        assert_eq!(m.healthy_count(), 6);
        assert!(m.is_healthy(3));
        assert!(m.check_link(0, 1).is_ok());
        assert_eq!(
            m.check_link(0, 3),
            Err(SimError::MissingLink { link: (0, 3) })
        );
    }

    #[test]
    fn faults_disable_processors_and_links() {
        let mut m = PhysicalMachine::new(generators::cycle(6), PortModel::SinglePort);
        m.inject_fault(2);
        assert!(!m.is_healthy(2));
        assert_eq!(m.healthy_count(), 5);
        assert_eq!(
            m.check_link(1, 2),
            Err(SimError::FaultyProcessor { node: 2 })
        );
        assert!(m.check_link(1, 0).is_ok() && m.check_link(3, 4).is_ok());
        assert!(m.check_link(3, 2).is_err());
    }

    #[test]
    fn with_faults_constructor_checks_universe() {
        let faults = FaultSet::from_nodes(6, [5]);
        let m = PhysicalMachine::with_faults(generators::cycle(6), faults, PortModel::MultiPort);
        assert_eq!(m.healthy_count(), 5);
        assert!(!m.is_healthy(5));
    }

    #[test]
    #[should_panic]
    fn mismatched_universe_is_rejected() {
        let faults = FaultSet::from_nodes(4, [1]);
        PhysicalMachine::with_faults(generators::cycle(6), faults, PortModel::MultiPort);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(SimError::FaultyProcessor { node: 3 }
            .to_string()
            .contains('3'));
        assert!(SimError::Unreachable {
            source: 1,
            target: 2
        }
        .to_string()
        .contains("healthy path"));
        assert!(SimError::EndpointOutOfRange { node: 9, limit: 8 }
            .to_string()
            .contains("out of range"));
        assert!(SimError::UnplacedNode {
            node: 15,
            placed: 8
        }
        .to_string()
        .contains("no placement image"));
    }
}
