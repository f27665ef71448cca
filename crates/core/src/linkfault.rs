//! Directed-link fault models over CSR edge slots.
//!
//! The paper reduces edge faults to node faults ("view a node that is
//! incident to the faulty edge as being faulty"). This module makes the link
//! itself the faultable element: a [`LinkFaultSet`] marks *directed* CSR edge
//! slots — the hop `u → v` stored at index `s` of the graph's adjacency
//! array — so one direction of a cable can die while the reverse stays up.
//! The paper's reduction survives as a provable projection:
//! [`LinkFaultSet::project_to_nodes`] reproduces
//! [`FaultSet::from_edge_faults`] exactly.
//!
//! Generators cover the fault models the Monte-Carlo reliability engine
//! sweeps: single named links ([`LinkFaultSet::from_links`]), uniform random
//! link sets ([`LinkFaultSet::random`], Floyd's sampling), independent
//! per-link coins ([`LinkFaultSet::bernoulli`], with a coupling guarantee),
//! spatially-correlated bursts ([`LinkFaultSet::burst`], every link incident
//! to a label-prefix ball), and node faults as the degenerate "all incident
//! links" case ([`LinkFaultSet::from_node_faults`]).

use crate::fault::{FaultError, FaultSet};
use ftdb_graph::{BitSet, Graph, NodeId};

/// A set of faulty *directed* links, indexed by CSR edge slot.
///
/// Slot `s` is the directed hop `u → v` where `u` is the CSR row containing
/// `s` and `v = neighbors[s]`; an undirected edge `{u, v}` occupies two
/// slots, one per direction, which may fail independently. The universe is
/// the graph's full slot count (`offsets[n]`), so a `LinkFaultSet` is only
/// meaningful against the graph it was built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkFaultSet {
    slots: BitSet,
    node_universe: usize,
}

impl LinkFaultSet {
    /// An empty link-fault set for `graph` (universe = its CSR slot count).
    pub fn empty(graph: &Graph) -> Self {
        let (offsets, _) = graph.csr();
        LinkFaultSet {
            slots: BitSet::new(offsets[graph.node_count()] as usize),
            node_universe: graph.node_count(),
        }
    }

    /// The directed endpoints `(from, to)` of CSR slot `slot` in `graph`.
    ///
    /// # Panics
    /// Panics if `slot` is not a valid slot of `graph`.
    pub fn endpoints(graph: &Graph, slot: usize) -> (NodeId, NodeId) {
        let (offsets, neighbors) = graph.csr();
        let from = offsets.partition_point(|&o| (o as usize) <= slot) - 1;
        (from, neighbors[slot] as NodeId)
    }

    /// A link-fault set from explicit directed links `(from, to)`.
    ///
    /// Fails with [`FaultError::MissingLink`] on the first pair that is not a
    /// directed link of `graph`.
    pub fn from_links<I: IntoIterator<Item = (NodeId, NodeId)>>(
        graph: &Graph,
        links: I,
    ) -> Result<Self, FaultError> {
        let mut set = LinkFaultSet::empty(graph);
        for (from, to) in links {
            match graph.edge_slot(from, to) {
                Some(slot) => {
                    set.slots.insert(slot);
                }
                None => return Err(FaultError::MissingLink { from, to }),
            }
        }
        Ok(set)
    }

    /// Draws a uniformly random set of exactly `count` distinct directed
    /// links via Floyd's sampling (O(count) work, no full materialisation).
    ///
    /// Fails with [`FaultError::CountExceedsUniverse`] when `count` exceeds
    /// the slot count.
    pub fn random<R: rand::RngExt>(
        graph: &Graph,
        count: usize,
        rng: &mut R,
    ) -> Result<Self, FaultError> {
        let mut set = LinkFaultSet::empty(graph);
        let universe = set.universe();
        if count > universe {
            return Err(FaultError::CountExceedsUniverse { count, universe });
        }
        for j in universe - count..universe {
            let t = rng.random_range(0..j + 1);
            if !set.slots.insert(t) {
                set.slots.insert(j);
            }
        }
        Ok(set)
    }

    /// Faults each directed link independently with probability `p`.
    ///
    /// Coupling contract: exactly one uniform variate is consumed per slot,
    /// in slot order, *regardless of `p`*. Two draws from identically-seeded
    /// RNGs at probabilities `p1 <= p2` therefore produce nested sets
    /// (`bernoulli(p1) ⊆ bernoulli(p2)`) — the property the monotonicity
    /// tests and the Monte-Carlo reliability sweep's common-random-numbers
    /// variance reduction rely on. `p` is clamped to `[0, 1]`.
    pub fn bernoulli<R: rand::RngExt>(graph: &Graph, p: f64, rng: &mut R) -> Self {
        let mut set = LinkFaultSet::empty(graph);
        for slot in 0..set.universe() {
            let coin: f64 = rng.random();
            if coin < p {
                set.slots.insert(slot);
            }
        }
        set
    }

    /// A correlated spatial burst: every directed link incident (either
    /// direction) to the label-prefix ball of `center` dies. The ball is the
    /// contiguous id range that shares all but the low `radius_bits` label
    /// bits with `center` — `2^radius_bits` consecutive ids, clamped to the
    /// node count for hosts with spare nodes.
    ///
    /// Fails with [`FaultError::NodeOutOfRange`] when `center` is not a node
    /// of `graph`.
    pub fn burst(graph: &Graph, center: NodeId, radius_bits: u32) -> Result<Self, FaultError> {
        let n = graph.node_count();
        if center >= n {
            return Err(FaultError::NodeOutOfRange {
                node: center,
                universe: n,
            });
        }
        let ball = 1usize << radius_bits.min(usize::BITS - 1);
        let lo = center & !(ball - 1);
        let hi = n.min(lo + ball);
        let mut set = LinkFaultSet::empty(graph);
        let (offsets, neighbors) = graph.csr();
        for u in 0..n {
            let in_ball_u = u >= lo && u < hi;
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            for (s, &nbr) in row.clone().zip(&neighbors[row]) {
                let v = nbr as usize;
                if in_ball_u || (v >= lo && v < hi) {
                    set.slots.insert(s);
                }
            }
        }
        Ok(set)
    }

    /// Node faults as the degenerate link-fault case: every directed link
    /// incident to a faulty node (both directions) is marked faulty.
    ///
    /// # Panics
    /// Panics if `faults` was built for a different node universe.
    pub fn from_node_faults(graph: &Graph, faults: &FaultSet) -> Self {
        assert_eq!(
            faults.universe(),
            graph.node_count(),
            "fault set universe must match the graph"
        );
        let mut set = LinkFaultSet::empty(graph);
        let (offsets, neighbors) = graph.csr();
        for u in 0..graph.node_count() {
            let u_faulty = faults.contains(u);
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            for (s, &nbr) in row.clone().zip(&neighbors[row]) {
                if u_faulty || faults.contains(nbr as NodeId) {
                    set.slots.insert(s);
                }
            }
        }
        set
    }

    /// All directed links incident to a single `node` — the one-node case of
    /// [`LinkFaultSet::from_node_faults`]. Fails with
    /// [`FaultError::NodeOutOfRange`] when `node` is out of range.
    pub fn node_fault(graph: &Graph, node: NodeId) -> Result<Self, FaultError> {
        let n = graph.node_count();
        if node >= n {
            return Err(FaultError::NodeOutOfRange { node, universe: n });
        }
        let mut faults = FaultSet::empty(n);
        faults.add(node);
        Ok(LinkFaultSet::from_node_faults(graph, &faults))
    }

    /// The paper's edge-to-node reduction as a projection: every faulty
    /// directed link `(u, v)` charges its lower-numbered endpoint
    /// `min(u, v)`. For any collection of links this reproduces
    /// [`FaultSet::from_edge_faults`] over the same pairs exactly — the
    /// projection-equivalence test pins that down.
    pub fn project_to_nodes(&self, graph: &Graph) -> FaultSet {
        let mut nodes = FaultSet::empty(self.node_universe);
        for slot in self.slots.iter() {
            let (u, v) = LinkFaultSet::endpoints(graph, slot);
            nodes.add(u.min(v));
        }
        nodes
    }

    /// Marks CSR `slot` faulty. Returns `true` if it was previously healthy.
    ///
    /// # Panics
    /// Panics if `slot` is outside the slot universe.
    pub fn add(&mut self, slot: usize) -> bool {
        self.slots.insert(slot)
    }

    /// Whether CSR `slot` is faulty.
    pub fn contains(&self, slot: usize) -> bool {
        self.slots.contains(slot)
    }

    /// Number of faulty directed links.
    pub fn len(&self) -> usize {
        self.slots.count()
    }

    /// `true` if no link is faulty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot universe (total directed-link count of the host graph).
    pub fn universe(&self) -> usize {
        self.slots.capacity()
    }

    /// Node count of the host graph this set was built against.
    pub fn node_universe(&self) -> usize {
        self.node_universe
    }

    /// Iterates the faulty CSR slots in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter()
    }

    /// Merges another link-fault set into this one (set union).
    ///
    /// # Panics
    /// Panics if the two sets were built over different slot universes.
    pub fn union_with(&mut self, other: &LinkFaultSet) {
        assert_eq!(
            self.universe(),
            other.universe(),
            "link fault sets must share a universe"
        );
        for slot in other.iter() {
            self.slots.insert(slot);
        }
    }

    /// The underlying bit set of faulty slots.
    pub fn as_bitset(&self) -> &BitSet {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn debruijn_host() -> Graph {
        crate::FtDeBruijn2::new(4, 0).target().graph().clone()
    }

    #[test]
    fn endpoints_and_slot_of_roundtrip() {
        let g = debruijn_host();
        let mut seen = 0;
        for slot in 0..LinkFaultSet::empty(&g).universe() {
            let (u, v) = LinkFaultSet::endpoints(&g, slot);
            assert_eq!(g.edge_slot(u, v), Some(slot));
            seen += 1;
        }
        let (offsets, _) = g.csr();
        assert_eq!(seen, offsets[g.node_count()] as usize);
        assert_eq!(g.edge_slot(0, g.node_count() + 5), None);
    }

    #[test]
    fn from_links_rejects_missing_directed_links() {
        let g = ftdb_graph::generators::path(4); // 0-1-2-3
        let ok = LinkFaultSet::from_links(&g, [(0, 1), (2, 1)]).unwrap();
        assert_eq!(ok.len(), 2);
        assert!(ok.contains(g.edge_slot(0, 1).unwrap()));
        assert!(!ok.contains(g.edge_slot(1, 0).unwrap()));
        assert_eq!(
            LinkFaultSet::from_links(&g, [(0, 3)]),
            Err(FaultError::MissingLink { from: 0, to: 3 })
        );
    }

    #[test]
    fn projection_reproduces_from_edge_faults() {
        let g = debruijn_host();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let links = LinkFaultSet::random(&g, 7, &mut rng).unwrap();
            let pairs: Vec<(NodeId, NodeId)> = links
                .iter()
                .map(|s| LinkFaultSet::endpoints(&g, s))
                .collect();
            let reference = FaultSet::from_edge_faults(g.node_count(), pairs);
            assert_eq!(links.project_to_nodes(&g), reference);
        }
    }

    #[test]
    fn random_is_exact_size_and_rejects_oversized_draws() {
        let g = debruijn_host();
        let mut rng = StdRng::seed_from_u64(7);
        let universe = LinkFaultSet::empty(&g).universe();
        for count in [0, 1, 5, universe] {
            let set = LinkFaultSet::random(&g, count, &mut rng).unwrap();
            assert_eq!(set.len(), count);
        }
        assert_eq!(
            LinkFaultSet::random(&g, universe + 1, &mut rng),
            Err(FaultError::CountExceedsUniverse {
                count: universe + 1,
                universe
            })
        );
    }

    #[test]
    fn bernoulli_draws_are_coupled_across_probabilities() {
        let g = debruijn_host();
        let grid = [0.0, 0.01, 0.05, 0.2, 0.5, 1.0];
        for seed in 0..10u64 {
            let sets: Vec<LinkFaultSet> = grid
                .iter()
                .map(|&p| LinkFaultSet::bernoulli(&g, p, &mut StdRng::seed_from_u64(seed)))
                .collect();
            for w in sets.windows(2) {
                // Same seed, larger p: strictly nested fault sets.
                assert!(w[0].iter().all(|s| w[1].contains(s)));
            }
            assert!(sets[0].is_empty());
            assert_eq!(sets[5].len(), sets[5].universe());
        }
    }

    #[test]
    fn burst_marks_exactly_the_links_incident_to_the_ball() {
        let g = debruijn_host(); // B(2,4): 16 nodes
        let set = LinkFaultSet::burst(&g, 5, 2).unwrap(); // ball = {4,5,6,7}
        let in_ball = |v: usize| (4..8).contains(&v);
        for slot in 0..set.universe() {
            let (u, v) = LinkFaultSet::endpoints(&g, slot);
            assert_eq!(set.contains(slot), in_ball(u) || in_ball(v), "slot {slot}");
        }
        // radius 0 is just the single node's incident links.
        let single = LinkFaultSet::burst(&g, 5, 0).unwrap();
        assert_eq!(single, LinkFaultSet::node_fault(&g, 5).unwrap());
        assert_eq!(
            LinkFaultSet::burst(&g, 99, 1),
            Err(FaultError::NodeOutOfRange {
                node: 99,
                universe: 16
            })
        );
    }

    #[test]
    fn node_faults_mark_all_incident_links_both_directions() {
        let g = debruijn_host();
        let mut faults = FaultSet::empty(g.node_count());
        faults.add(3);
        faults.add(9);
        let links = LinkFaultSet::from_node_faults(&g, &faults);
        for slot in 0..links.universe() {
            let (u, v) = LinkFaultSet::endpoints(&g, slot);
            let touches = faults.contains(u) || faults.contains(v);
            assert_eq!(links.contains(slot), touches, "slot {slot} = {u}->{v}");
        }
        // Projection of a node-derived link set recovers a superset rule:
        // each faulty node or one of its neighbours is charged.
        let projected = links.project_to_nodes(&g);
        assert!(
            projected.contains(3)
                || g.neighbors(3)
                    .iter()
                    .any(|&w| projected.contains(w as usize))
        );
    }

    #[test]
    fn union_and_accessors() {
        let g = ftdb_graph::generators::cycle(6);
        let mut a = LinkFaultSet::from_links(&g, [(0, 1)]).unwrap();
        let b = LinkFaultSet::from_links(&g, [(2, 3), (0, 1)]).unwrap();
        a.union_with(&b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.node_universe(), 6);
        assert_eq!(a.iter().count(), 2);
        assert_eq!(a.as_bitset().count(), 2);
    }
}
