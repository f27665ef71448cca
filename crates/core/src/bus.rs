//! Bus-based implementation of the fault-tolerant de Bruijn graph
//! (Section V of the paper).
//!
//! In `B^k_{2,h}` every node `i` is connected by point-to-point links to the
//! block of `2k + 2` consecutive nodes starting at `(2i − k) mod (2^h + k)`.
//! Section V replaces that block of links with a *single bus* owned by node
//! `i` and spanning `i` plus the block. The resulting architecture has
//! **bus-degree `2k + 3`**: each node drives its own bus and taps at most
//! `2k + 2` buses owned by other nodes.
//!
//! Because every bus is used in the restricted "owner talks to a block
//! member" pattern, a faulty bus can be tolerated by simply declaring its
//! owner node faulty — the paper's observation that bus faults reduce to
//! node faults. The price of buses is bandwidth: if a processor could
//! previously send two different values per step (one per out-link), the bus
//! serialises them, costing roughly a factor of two in time; the simulator
//! crate quantifies this (experiment SIM2).

use crate::fault::FaultSet;
use crate::ft_debruijn::FtDeBruijn2;
use ftdb_graph::{Graph, GraphBuilder, NodeId};
use ftdb_topology::labels::x_fn;

/// A single bus: its owning node plus the block of nodes it spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bus {
    /// The node that owns (drives) this bus.
    pub owner: NodeId,
    /// The nodes reachable over the bus: the `2k + 2` consecutive nodes
    /// starting at `(2·owner − k) mod (2^h + k)`. The owner itself is not
    /// listed unless it happens to fall inside its own block.
    pub members: Vec<NodeId>,
}

impl Bus {
    /// All nodes electrically attached to the bus (owner plus members,
    /// de-duplicated).
    fn attached(&self) -> Vec<NodeId> {
        let mut all = self.members.clone();
        if !all.contains(&self.owner) {
            all.push(self.owner);
        }
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// The bus implementation of `B^k_{2,h}`: one bus per node.
#[derive(Clone, Debug)]
pub struct BusArchitecture {
    h: usize,
    k: usize,
    node_count: usize,
    buses: Vec<Bus>,
    /// `incident[v]` lists the bus ids (= owner ids) that node `v` taps,
    /// including its own bus.
    incident: Vec<Vec<usize>>,
}

impl BusArchitecture {
    /// Builds the bus implementation of `B^k_{2,h}`.
    pub fn new(h: usize, k: usize) -> Self {
        let ft = FtDeBruijn2::new(h, k);
        Self::from_ft(&ft)
    }

    /// Builds the bus implementation for an existing `B^k_{2,h}`.
    pub fn from_ft(ft: &FtDeBruijn2) -> Self {
        let n = ft.node_count();
        let k = ft.k();
        let buses: Vec<Bus> = (0..n)
            .map(|owner| {
                let mut members: Vec<NodeId> = (-(k as i64)..=(k as i64 + 1))
                    .map(|r| x_fn(owner, 2, r, n))
                    .collect();
                members.sort_unstable();
                members.dedup();
                Bus { owner, members }
            })
            .collect();
        let mut incident = vec![Vec::new(); n];
        for bus in &buses {
            for v in bus.attached() {
                incident[v].push(bus.owner);
            }
        }
        for list in &mut incident {
            list.sort_unstable();
            list.dedup();
        }
        BusArchitecture {
            h: ft.h(),
            k,
            node_count: n,
            buses,
            incident,
        }
    }

    /// The number of digits `h` of the protected target graph.
    pub fn h(&self) -> usize {
        self.h
    }

    /// The fault budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of nodes (and of buses), `2^h + k`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All buses, indexed by owner node.
    pub fn buses(&self) -> &[Bus] {
        &self.buses
    }

    /// The bus owned by node `owner`.
    pub fn bus_of(&self, owner: NodeId) -> &Bus {
        &self.buses[owner]
    }

    /// The bus-degree of node `v`: how many buses it is attached to.
    fn bus_degree(&self, v: NodeId) -> usize {
        self.incident[v].len()
    }

    /// The maximum bus-degree over all nodes. Section V shows it is at most
    /// `2k + 3`.
    pub fn max_bus_degree(&self) -> usize {
        (0..self.node_count)
            .map(|v| self.bus_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The degree bound `2k + 3` stated in Section V.
    pub fn degree_bound(&self) -> usize {
        2 * self.k + 3
    }

    /// The point-to-point connectivity implied by the buses when each bus is
    /// used in the restricted owner-to-member pattern. This equals the edge
    /// set of `B^k_{2,h}` — the bus implementation loses no connectivity.
    pub fn implied_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.node_count)
            .name(format!("bus-implied B^{}(2,{})", self.k, self.h));
        for bus in &self.buses {
            for &m in &bus.members {
                if m != bus.owner {
                    b.add_edge(bus.owner, m);
                }
            }
        }
        b.build()
    }

    /// Converts a set of faulty buses into the node-fault set the paper
    /// prescribes: the owner of each faulty bus is declared faulty.
    pub fn bus_faults_to_node_faults<I: IntoIterator<Item = usize>>(
        &self,
        faulty_buses: I,
    ) -> FaultSet {
        FaultSet::from_nodes(self.node_count, faulty_buses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftdb_graph::properties;

    #[test]
    fn fig4_example_b1_23() {
        // Fig. 4: the bus implementation of B^1_{2,3} (9 nodes).
        let arch = BusArchitecture::new(3, 1);
        assert_eq!(arch.node_count(), 9);
        assert_eq!(arch.buses().len(), 9);
        // Each bus spans the block of 2k+2 = 4 consecutive nodes starting at
        // (2i - 1) mod 9.
        assert_eq!(arch.bus_of(0).members, vec![0, 1, 2, 8]);
        assert_eq!(arch.bus_of(3).members, vec![5, 6, 7, 8]);
        // Bus degree is at most 2k + 3 = 5.
        assert!(arch.max_bus_degree() <= arch.degree_bound());
    }

    #[test]
    fn implied_connectivity_equals_point_to_point_graph() {
        for (h, k) in [(3, 0), (3, 1), (4, 1), (4, 2), (5, 2)] {
            let ft = FtDeBruijn2::new(h, k);
            let arch = BusArchitecture::from_ft(&ft);
            assert!(
                properties::same_edge_set(&arch.implied_graph(), ft.graph()),
                "bus-implied graph differs from B^{k}(2,{h})"
            );
        }
    }

    #[test]
    fn bus_degree_bound_across_parameters() {
        for h in 3..=6 {
            for k in 0..=4 {
                let arch = BusArchitecture::new(h, k);
                assert!(
                    arch.max_bus_degree() <= 2 * k + 3,
                    "bus degree {} > 2k+3 for h={h}, k={k}",
                    arch.max_bus_degree()
                );
            }
        }
    }

    #[test]
    fn every_node_taps_its_own_bus() {
        let arch = BusArchitecture::new(4, 2);
        for v in 0..arch.node_count() {
            assert!(arch.bus_of(v).attached().contains(&v));
            assert!(arch.bus_degree(v) >= 1);
        }
    }

    #[test]
    fn fig5_bus_fault_reconfiguration() {
        // Fig. 5: one fault in the bus implementation of B^1_{2,3}. A faulty
        // bus is charged to its owner; the single spare absorbs it.
        let ft = FtDeBruijn2::new(3, 1);
        let arch = BusArchitecture::from_ft(&ft);
        for faulty_bus in 0..arch.node_count() {
            let faults = arch.bus_faults_to_node_faults([faulty_bus]);
            let phi = ft.reconfigure_verified(&faults).unwrap();
            assert!(phi.as_slice().iter().all(|&v| v != faulty_bus));
        }
    }

    #[test]
    fn attached_includes_owner_exactly_once() {
        let arch = BusArchitecture::new(3, 1);
        for bus in arch.buses() {
            let attached = bus.attached();
            assert!(attached.contains(&bus.owner));
            let mut dedup = attached.clone();
            dedup.dedup();
            assert_eq!(dedup, attached);
        }
    }
}
