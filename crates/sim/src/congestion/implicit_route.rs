//! On-the-fly digit-shift next-hop generators: O(1) route state per packet.
//!
//! The oblivious de Bruijn route from `s` to `t` on `B(2,h)` is a shift
//! register: hop `i` shifts bit `h-1-i` of `t` into the low end of the
//! current label. The whole route is therefore recomputable from two words
//! of state — the current *logical* label and the not-yet-shifted target
//! bits — so the congestion engine never needs to materialize a path for an
//! oblivious packet. The generators here reproduce, hop for hop, exactly
//! the physical paths the materialized loader builds:
//!
//! * logical self-steps (`next == current`) cost no hop and are skipped,
//!   matching [`crate::routing::route_logical_debruijn_into`];
//! * consecutive physical duplicates under a non-injective placement are
//!   collapsed, matching the engine's packet loader.
//!
//! The remaining-bits register uses a sentinel encoding borrowed from
//! binary heaps of bits: `rem = (1 << bits_left) | remaining_target_bits`.
//! The sentinel's position *is* the count of bits left, so one `u32` carries
//! both the queue and its length; `rem == 1` means the route is exhausted.
//! No register holds `rem == 0`, so the engine marks a materialized route
//! with it.
//!
//! The congestion engine routes implicit packets through one
//! `ImplicitRoute`: the captured (mask, placement) context of the load
//! plus a successor-slot table that names the CSR slot of every logical
//! shift edge, so a hop reads its next node from the register and its
//! next link from one table entry, never from the CSR. Its
//! `ImplicitRoute::advance` gives a packet the entry of its next hop, or a
//! terminal entry where the route ends, so a mover reads its arrival from
//! the entry it advances to and no hop looks further ahead. The pass that
//! builds the table also decides whether the placement is sound, so
//! route feasibility is proven once per (machine, placement) pair: a
//! sound placement fails a route only at its endpoints, and an unsound
//! one is checked per packet by the context's walk, which rejects exactly
//! what [`crate::routing::route_logical_debruijn_into`] rejects. The
//! engine's loaders and [`crate::routing::run_logical_workload`] both
//! validate routes this way.
//!
//! The generators are branch-light integer arithmetic on caller-owned
//! state: no allocation, no panics, no global state — they and the
//! context's hop methods run in the engine's cycle loop and must stay
//! that way. Only `ImplicitRoute::capture` allocates, once per context.

use super::engine::{pk, NO_SLOT};
use crate::machine::{PhysicalMachine, SimError};
use ftdb_graph::{Embedding, NodeId};
use ftdb_topology::DeBruijn2;

/// Initial remaining-bits register for a route to `target` on `B(2,h)`:
/// all `h` target bits queued behind the sentinel.
// analyzer: alloc-free
#[inline]
pub fn rem_init(h: u32, target: u32) -> u32 {
    (1 << h) | target
}

/// True when the shift register has consumed every target bit — the packet
/// is at its final logical position.
// analyzer: alloc-free
#[inline]
fn rem_exhausted(rem: u32) -> bool {
    rem == 1
}

/// One shift-register step: consumes the highest queued target bit and
/// shifts it into `pos` (mod `mask + 1`). Caller must ensure
/// `!rem_exhausted(rem)`. Returns `(next_pos, next_rem)`.
// analyzer: alloc-free
#[inline]
pub(crate) fn shift_step(pos: u32, rem: u32, mask: u32) -> (u32, u32) {
    debug_assert!(rem > 1, "shift_step on an exhausted register");
    // The sentinel bit's index is the number of target bits still queued.
    let left = 31 - rem.leading_zeros();
    let bit = (rem >> (left - 1)) & 1;
    let next = ((pos << 1) | bit) & mask;
    let low = (1 << (left - 1)) - 1;
    (next, (rem & low) | (low + 1))
}

/// Checks that both route endpoints name one of `limit` logical labels,
/// source first, so a malformed pair surfaces as a [`SimError`] (and thus a
/// dropped packet) instead of a release-mode panic.
// analyzer: alloc-free
#[inline]
pub(crate) fn check_endpoints(
    limit: usize,
    source: NodeId,
    target: NodeId,
) -> Result<(), SimError> {
    match [source, target].into_iter().find(|&node| node >= limit) {
        Some(node) => Err(SimError::EndpointOutOfRange { node, limit }),
        None => Ok(()),
    }
}

/// Physical image of logical node `x` under `place` (an empty slice is the
/// identity placement — the engine elides the map for healthy machines).
// analyzer: alloc-free
#[inline]
pub fn apply_place(place: &[u32], x: u32) -> u32 {
    if place.is_empty() {
        x
    } else {
        place[x as usize]
    }
}

/// Advances the shift register to the next *distinct physical* node:
/// logical self-steps and placement collapses cost no hop, exactly like the
/// materialized loader. Returns `(next_phys, pos_after, rem_after, key)`,
/// or `None` when the route exhausts without leaving `cur_phys` — the
/// packet is already at its physical target. `key = 2·x + b` names the
/// final shift, from label `x` by bit `b`: the shift that left `cur_phys`
/// (every earlier one collapsed onto it, so `x`'s image is `cur_phys` even
/// under a non-injective placement) and the index of that hop's entry in
/// an `ImplicitRoute` successor-slot table.
// analyzer: alloc-free
#[inline]
pub fn next_hop(
    place: &[u32],
    mask: u32,
    cur_phys: u32,
    mut pos: u32,
    mut rem: u32,
) -> Option<(u32, u32, u32, u32)> {
    while !rem_exhausted(rem) {
        let (np, nr) = shift_step(pos, rem, mask);
        // The shifted-in bit is the new label's low bit.
        let key = (pos << 1) | (np & 1);
        pos = np;
        rem = nr;
        let phys = apply_place(place, pos);
        if phys != cur_phys {
            return Some((phys, pos, rem, key));
        }
    }
    None
}

/// Hops remaining from state `(cur_phys, pos, rem)` — O(h) (it walks the
/// register). Only tests call it, to check hop counts and latencies; the
/// cycle loop never does.
pub fn hops_left(place: &[u32], mask: u32, cur_phys: u32, pos: u32, rem: u32) -> u32 {
    let mut hops = 0;
    let (mut phys, mut pos, mut rem) = (cur_phys, pos, rem);
    while let Some((p, np, nr, _)) = next_hop(place, mask, phys, pos, rem) {
        hops += 1;
        phys = p;
        pos = np;
        rem = nr;
    }
    hops
}

/// The implicit-route context of one congestion engine: the logical mask
/// and placement its oblivious loads route through, a successor-slot
/// table over that pair, and whether the placement is sound on the
/// machine. Both engines own one; the sharded engine's cores borrow it
/// read-only, so threaded workers share it, and
/// [`crate::routing::run_logical_workload`] captures one per workload.
///
/// Table entry `2x + b` holds the CSR slot of the link from the image of
/// logical label `x` to the image of `(2x + b) & mask` — the shift edge
/// that feeds bit `b` into `x` — or [`NO_SLOT`] where the two images
/// coincide, a label is unplaced, or the link is missing. A hop takes its
/// next node from the register ([`apply_place`]) and its next link from
/// the entry [`next_hop`] keys, so it reads no CSR. The table costs 8 B
/// per logical label and depends on the (machine, placement) pair, not on
/// any packet: it is built by the load that captures the context and left
/// out of the engines' `route_state_bytes`.
///
/// The pass that builds the table also decides soundness: a placement is
/// sound when every logical label sits on an in-range, healthy processor
/// and every shift edge between distinct images has a slot. Then no route
/// can fail past its endpoints (by Theorem 1, so is a `B^k(2,h)` rank map
/// reconfigured around the host's faults), and [`ImplicitRoute::check`] is
/// O(1); an unsound placement is checked per packet by
/// [`ImplicitRoute::walk`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ImplicitRoute {
    /// Logical-node mask (`2^h - 1`).
    mask: u32,
    /// Labels the placement maps: `0..placed`.
    placed: u32,
    /// Logical→physical map as dense `u32`s; empty = the identity on every
    /// label (the common healthy case stores nothing).
    place: Vec<u32>,
    /// The successor-slot table, `2 · (mask + 1)` entries; empty while no
    /// context is captured.
    next_slot: Vec<u32>,
    /// Whether the placement is sound on the machine.
    sound: bool,
}

impl ImplicitRoute {
    /// Captures the context of an oblivious load through `placement` and
    /// builds its successor-slot table for `machine`, or, when a context
    /// is already captured, checks that `placement` and `db` match it.
    /// Returns false, leaving the captured context as it was, when a
    /// second load comes through a different placement or radix.
    pub(crate) fn capture(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        machine: &PhysicalMachine,
    ) -> bool {
        let n = db.node_count();
        let mask = (n - 1) as u32;
        // Routes only visit labels below n. An image too wide for a `u32`
        // saturates, which keeps it past the machine.
        let labels = &placement.as_slice()[..placement.len().min(n)];
        let dense = |v: usize| u32::try_from(v).unwrap_or(u32::MAX);
        if !self.next_slot.is_empty() {
            return self.mask == mask
                && (0..=mask)
                    .all(|x| self.placed_image(x) == labels.get(x as usize).map(|&v| dense(v)));
        }
        self.mask = mask;
        self.placed = labels.len() as u32;
        self.place.clear();
        // Only a map of every label may be elided as the identity.
        if labels.len() < n || labels.iter().enumerate().any(|(i, &v)| i != v) {
            self.place.extend(labels.iter().map(|&v| dense(v)));
        }
        self.build_table(machine);
        true
    }

    /// Image of label `x`, or `None` when the placement does not reach it.
    // analyzer: alloc-free
    #[inline]
    fn placed_image(&self, x: u32) -> Option<u32> {
        (x < self.placed).then(|| apply_place(&self.place, x))
    }

    /// Fills the successor-slot table in one pass over the `2^(h+1)` shift
    /// edges of the logical graph, each resolved by a CSR row search —
    /// O(V + E) — and decides on the way whether the placement is sound.
    fn build_table(&mut self, machine: &PhysicalMachine) {
        let graph = machine.graph();
        let mask = self.mask;
        let mut sound = true;
        self.next_slot.clear();
        self.next_slot.reserve(2 * (mask as usize + 1));
        for x in 0..=mask {
            let from = self.placed_image(x);
            // An unplaced label, or an image past the machine, is not a
            // healthy processor.
            sound &= from.is_some_and(|u| machine.is_healthy(u as usize));
            for y in [(x << 1) & mask, ((x << 1) | 1) & mask] {
                let slot = match (from, self.placed_image(y)) {
                    (Some(u), Some(v)) if u != v => {
                        let slot = graph.edge_slot(u as usize, v as usize);
                        sound &= slot.is_some();
                        slot.map_or(NO_SLOT, |s| s as u32)
                    }
                    _ => NO_SLOT,
                };
                self.next_slot.push(slot);
            }
        }
        self.sound = sound;
    }

    /// Whether the oblivious route from logical `source` to logical
    /// `target` is deliverable: the endpoint check alone on a sound
    /// placement, the [`ImplicitRoute::walk`] otherwise.
    // analyzer: alloc-free
    #[inline]
    pub(crate) fn check(
        &self,
        machine: &PhysicalMachine,
        source: NodeId,
        target: NodeId,
    ) -> Result<(), SimError> {
        if self.sound {
            check_endpoints(self.mask as usize + 1, source, target)
        } else {
            self.walk(machine, source, target).map(drop)
        }
    }

    /// Walks the oblivious route from logical `source` to logical `target`
    /// through the captured context. Returns what
    /// [`crate::routing::route_logical_debruijn_into`] returns: the hop
    /// count on delivery — logical non-self steps, so a step whose
    /// endpoints share an image under a non-injective placement still
    /// counts — and otherwise the same error. On a sound placement only
    /// the endpoints can fail, so the walk just counts; otherwise each hop
    /// checks its image and reads its link from the table.
    // analyzer: alloc-free
    pub(crate) fn walk(
        &self,
        machine: &PhysicalMachine,
        source: NodeId,
        target: NodeId,
    ) -> Result<usize, SimError> {
        check_endpoints(self.mask as usize + 1, source, target)?;
        let (mut pos, target) = (source as u32, target as u32);
        let mut here = self.healthy_image(machine, pos)?;
        let mut hops = 0;
        // Each step shifts in the next target bit, highest first, read
        // straight from `target`: unlike the `rem` register of the cycle
        // loop, no step waits on the one before it to find its bit.
        for i in (0..self.mask.trailing_ones()).rev() {
            let next = ((pos << 1) | ((target >> i) & 1)) & self.mask;
            if next != pos {
                hops += 1;
                if !self.sound {
                    let there = self.healthy_image(machine, next)?;
                    let key = (pos << 1) | (next & 1);
                    if there != here && self.next_slot[key as usize] == NO_SLOT {
                        return Err(SimError::MissingLink {
                            link: (here as usize, there as usize),
                        });
                    }
                    here = there;
                }
            }
            pos = next;
        }
        Ok(hops)
    }

    /// Image of label `x` when it is placed on a healthy processor.
    // analyzer: alloc-free
    #[inline]
    fn healthy_image(&self, machine: &PhysicalMachine, x: u32) -> Result<u32, SimError> {
        let image = self.placed_image(x).ok_or(SimError::UnplacedNode {
            node: x as usize,
            placed: self.placed as usize,
        })?;
        if !machine.is_healthy(image as usize) {
            return Err(SimError::FaultyProcessor {
                node: image as usize,
            });
        }
        Ok(image)
    }

    /// Forgets the captured context; the next load captures afresh. The
    /// table keeps its capacity but no content.
    pub(crate) fn clear(&mut self) {
        self.place.clear();
        self.next_slot.clear();
    }

    /// Physical image of logical label `x`.
    // analyzer: alloc-free
    #[inline]
    pub(crate) fn image(&self, x: u32) -> u32 {
        apply_place(&self.place, x)
    }

    /// Heap bytes of the captured placement map, which the engines count
    /// as route state. The successor-slot table is not counted: it belongs
    /// to the (machine, placement) pair, not to any packet.
    pub(crate) fn placement_bytes(&self) -> usize {
        self.place.capacity() * std::mem::size_of::<u32>()
    }

    /// The cached entry and register of a packet on the image of `pos`
    /// with `rem` target bits left: the entry of the next hop out of that
    /// node and the register after it, or a terminal entry when the route
    /// ends there. The engine calls it from the source at load, with the
    /// register [`rem_init`] builds, and after every move. The hop's slot
    /// is one table read; debug builds check it against the CSR row search
    /// (`machine` is only read there).
    // analyzer: alloc-free
    #[inline]
    pub(crate) fn advance(&self, machine: &PhysicalMachine, pos: u32, rem: u32) -> (u64, u32, u32) {
        let here = self.image(pos);
        match next_hop(&self.place, self.mask, here, pos, rem) {
            Some((next, pos2, rem2, key)) => {
                let slot = self.next_slot[key as usize];
                debug_assert_eq!(
                    Some(slot as usize),
                    machine.graph().edge_slot(here as usize, next as usize),
                    "successor-slot table disagrees with the CSR row of node {here} (key {key})"
                );
                (pk(here, slot), pos2, rem2)
            }
            None => (pk(here, NO_SLOT), pos, rem),
        }
    }
}

/// Dateline test for the virtual-channel ordering: hop `cur -> next`
/// crosses a dateline iff it *descends* the physical label. Rank every
/// (link, vc) channel by the pair `(vc, source label)` ordered
/// lexicographically; an ascending hop keeps its VC and strictly grows the
/// label, and a descending hop moves to VC `vc + 1` (capped), so along any
/// loop-free route the channel rank strictly increases while VCs remain —
/// no cyclic channel dependency can close, which is the classic dateline
/// freedom-from-deadlock argument. On the identity-placed `B(2,h)` this is
/// O(1) from the shift state alone: the next label is
/// `(2·cur + b) mod 2^h`, which is smaller than `cur` iff `cur`'s top bit
/// is set (the wrap of a de Bruijn shift cycle; equality happens only at
/// the two shift-invariant self-loops, which the generators skip). The cap
/// at `vcs - 1` means freedom needs more VCs than any route has non-final
/// descents (`vcs ≥ h` here); with fewer the channel dependencies can form
/// a cycle and a run can deadlock, which the engine's quiescence detector
/// reports (see `docs/CONGESTION.md` §4.4).
// analyzer: alloc-free
#[inline]
pub(crate) fn dateline_crossing(cur: u32, next: u32) -> bool {
    next < cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PortModel;
    use crate::metrics::RoutingStats;
    use crate::routing::{route_logical_debruijn_into, run_logical_workload};
    use ftdb_core::{FaultSet, FtDeBruijn2};
    use ftdb_graph::Graph;
    use rand::{RngExt, SeedableRng};

    impl ImplicitRoute {
        /// The soundness verdict of the captured placement.
        pub(crate) fn sound(&self) -> bool {
            self.sound
        }
    }

    /// Captures `placement` on a fresh context over `machine` and checks
    /// every table entry, key by key, against the placement's images: the
    /// CSR row search's slot where the images differ and are linked, the
    /// sentinel where they coincide, a label is unplaced, or the link is
    /// missing. Slots are also checked against the graph's own adjacency,
    /// and the soundness verdict against the images and links. Returns how
    /// many entries name a link.
    fn assert_table_is_the_row_search(
        db: &DeBruijn2,
        placement: &Embedding,
        machine: &PhysicalMachine,
    ) -> usize {
        let mut ctx = ImplicitRoute::default();
        assert!(ctx.capture(db, placement, machine));
        let mask = (db.node_count() - 1) as u32;
        assert_eq!(ctx.next_slot.len(), 2 * db.node_count());
        // Labels past a short placement are unplaced, even when it starts
        // like the identity.
        let image = |x: u32| placement.as_slice().get(x as usize).copied();
        let mut sound = (0..=mask).all(|x| image(x).is_some_and(|u| machine.is_healthy(u)));
        let (offsets, targets) = machine.graph().csr();
        let mut links = 0;
        for key in 0..2 * (mask + 1) {
            let (x, y) = (key >> 1, key & mask);
            let got = ctx.next_slot[key as usize];
            match (image(x), image(y)) {
                (Some(u), Some(v)) if u != v => {
                    let want = machine
                        .graph()
                        .edge_slot(u, v)
                        .map_or(NO_SLOT, |s| s as u32);
                    assert_eq!(got, want, "key {key}: {x} -> {y} placed {u} -> {v}");
                    assert_eq!(got != NO_SLOT, machine.graph().has_edge(u, v), "key {key}");
                    sound &= got != NO_SLOT;
                    if got != NO_SLOT {
                        let row = offsets[u] as usize..offsets[u + 1] as usize;
                        assert!(row.contains(&(got as usize)), "key {key} outside row {u}");
                        assert_eq!(targets[got as usize] as usize, v, "key {key}");
                        links += 1;
                    }
                }
                _ => assert_eq!(got, NO_SLOT, "key {key}: {x} -> {y} is no hop"),
            }
        }
        assert_eq!(ctx.sound, sound, "soundness verdict of {placement:?}");
        links
    }

    /// `B(2,h)` minus the links in `cut` (each named `(min, max)`).
    fn minus_links(db: &DeBruijn2, cut: &[(usize, usize)]) -> PhysicalMachine {
        let adjacency = (0..db.node_count())
            .map(|u| {
                db.graph()
                    .neighbor_ids(u)
                    .filter(|&v| !cut.contains(&(u.min(v), u.max(v))))
                    .collect()
            })
            .collect();
        let graph = Graph::from_adjacency(adjacency, "B(2,h) minus links".into())
            .expect("a subgraph of a simple graph is simple");
        PhysicalMachine::new(graph, PortModel::MultiPort)
    }

    /// One (machine, placement) pair for `B(2,h)`, `h >= 2`, from the
    /// family `family` picks, its random parts drawn from `seed`: the
    /// identity on a healthy and on a faulted machine; the rank map of
    /// `B^2(2,h)` around static faults on processors in use and on spares;
    /// a short placement (an identity prefix, possibly empty) and one longer
    /// than `N`; a placement with an image past the machine; a non-injective
    /// fold onto `B(2,h-1)`; and the identity on a host missing shift links.
    fn drawn_pair(db: &DeBruijn2, family: u8, seed: u64) -> (PhysicalMachine, Embedding) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (h, n) = (db.h(), db.node_count());
        let healthy = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        match family {
            0 => (healthy, Embedding::identity(n)),
            1 => {
                let faults = FaultSet::from_nodes(n, (0..3).map(|_| rng.random_range(0..n)));
                let machine =
                    PhysicalMachine::with_faults(db.graph().clone(), faults, PortModel::MultiPort);
                (machine, Embedding::identity(n))
            }
            2 | 3 => {
                let ft = FtDeBruijn2::new(h, 2);
                let used = ft.reconfigure(&FaultSet::empty(ft.node_count()));
                let spares: Vec<usize> = (0..ft.node_count())
                    .filter(|v| !used.as_slice().contains(v))
                    .collect();
                let pool = if family == 2 {
                    used.as_slice()
                } else {
                    &spares
                };
                let faults = FaultSet::from_nodes(
                    ft.node_count(),
                    (0..2).map(|_| pool[rng.random_range(0..pool.len())]),
                );
                let placement = ft
                    .reconfigure_verified(&faults)
                    .expect("two faults are within B^2(2,h)'s budget");
                let host =
                    PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
                (host, placement)
            }
            4 => (healthy, Embedding::identity(rng.random_range(0..n))),
            5 => {
                let extra = (0..rng.random_range(1..4)).map(|_| rng.random_range(0..4 * n));
                (healthy, Embedding::from_map((0..n).chain(extra).collect()))
            }
            6 => {
                let mut map: Vec<usize> = (0..n).collect();
                map[rng.random_range(0..n)] = n + rng.random_range(0..3usize);
                (healthy, Embedding::from_map(map))
            }
            7 => {
                let half = DeBruijn2::new(h - 1);
                let folded = PhysicalMachine::new(half.graph().clone(), PortModel::MultiPort);
                (
                    folded,
                    Embedding::from_map((0..n).map(|x| x % (n / 2)).collect()),
                )
            }
            _ => {
                let edges: Vec<(usize, usize)> = db.graph().edges().collect();
                let cut: Vec<(usize, usize)> = (0..3)
                    .map(|_| edges[rng.random_range(0..edges.len())])
                    .collect();
                (minus_links(db, &cut), Embedding::identity(n))
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The one placement check against the reference walker: the
        /// placement reads sound exactly when every pair passes
        /// `route_logical_debruijn_into`; the walk returns what that kernel
        /// returns on every pair and on the drawn `(s, t)`, whose endpoints
        /// may lie past `N`; the check is the walk's verdict; and
        /// `run_logical_workload` at threads {1, 3} equals the per-packet
        /// statistics.
        #[test]
        fn one_check_agrees_with_the_reference_walker(
            h in 2usize..7,
            family in 0u8..9,
            seed in 0u64..1_000,
            s in 0usize..72,
            t in 0usize..72,
        ) {
            let db = DeBruijn2::new(h);
            let n = db.node_count();
            let (machine, placement) = drawn_pair(&db, family, seed);
            let mut ctx = ImplicitRoute::default();
            proptest::prop_assert!(ctx.capture(&db, &placement, &machine));
            let (s, t) = (s % (n + 2), t % (n + 2));
            let mut pairs: Vec<(usize, usize)> =
                (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect();
            pairs.extend([(s, t), (t, s)]);
            let mut path = Vec::new();
            let mut reference = RoutingStats::default();
            let mut every_pair_passes = true;
            for &(a, b) in &pairs {
                let want = route_logical_debruijn_into(&db, &placement, &machine, a, b, &mut path);
                every_pair_passes &= want.is_ok() || a >= n || b >= n;
                proptest::prop_assert_eq!(ctx.walk(&machine, a, b), want.clone(), "({}, {})", a, b);
                proptest::prop_assert_eq!(ctx.check(&machine, a, b), want.clone().map(drop));
                match want {
                    Ok(hops) => reference.record_delivered(hops),
                    Err(_) => reference.record_dropped(),
                }
            }
            proptest::prop_assert_eq!(ctx.sound, every_pair_passes, "{:?}", placement);
            for threads in [1, 3] {
                proptest::prop_assert_eq!(
                    run_logical_workload(&db, &placement, &machine, &pairs, threads),
                    reference.clone()
                );
            }
        }
    }

    #[test]
    fn successor_table_equals_the_row_search_exhaustively() {
        for h in 1..=10usize {
            let db = DeBruijn2::new(h);
            let n = db.node_count();
            let identity = Embedding::identity(n);
            // Healthy B(2,h): every shift edge but the two self-loops is a
            // link.
            let healthy = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            assert_eq!(
                assert_table_is_the_row_search(&db, &identity, &healthy),
                2 * n - 2,
                "h={h}"
            );
            // B(2,h) minus a spread of links: their entries are sentinels.
            let cut: Vec<(usize, usize)> = db.graph().edges().step_by(7).collect();
            let damaged = minus_links(&db, &cut);
            assert!(assert_table_is_the_row_search(&db, &identity, &damaged) < 2 * n - 2);
            // The short identity placement: only half the labels placed.
            assert_table_is_the_row_search(&db, &Embedding::identity(n / 2), &healthy);
            // Collapsing placements: everything onto node 0 (no entry is a
            // hop), and the 2-to-1 fold of B(2,h) onto B(2,h-1), a
            // homomorphism whose shift edges are links or self-steps.
            let zero = Embedding::from_map(vec![0; n]);
            assert_eq!(assert_table_is_the_row_search(&db, &zero, &healthy), 0);
            if h >= 2 {
                let half = DeBruijn2::new(h - 1);
                let folded = PhysicalMachine::new(half.graph().clone(), PortModel::MultiPort);
                let fold = Embedding::from_map((0..n).map(|x| x % (n / 2)).collect());
                assert!(assert_table_is_the_row_search(&db, &fold, &folded) > 0);
            }
            // A reconfigured B^2(2,h) host around two faults on processors
            // the zero-fault placement uses.
            if h >= 3 {
                let ft = FtDeBruijn2::new(h, 2);
                let initial = ft.reconfigure(&FaultSet::empty(ft.node_count()));
                let faults =
                    FaultSet::from_nodes(ft.node_count(), [initial.apply(1), initial.apply(n - 3)]);
                let placement = ft
                    .reconfigure_verified(&faults)
                    .expect("two faults are within B^2(2,h)'s budget");
                let host =
                    PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
                assert_eq!(
                    assert_table_is_the_row_search(ft.target(), &placement, &host),
                    2 * n - 2,
                    "h={h}: the reconfigured host embeds every shift link"
                );
            }
        }
    }

    #[test]
    fn a_mismatched_capture_keeps_the_first_context() {
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut ctx = ImplicitRoute::default();
        assert!(ctx.capture(&db, &Embedding::identity(n), &machine));
        let table = ctx.next_slot.clone();
        let complement = Embedding::from_map((0..n).map(|v| n - 1 - v).collect());
        assert!(!ctx.capture(&db, &complement, &machine));
        assert!(!ctx.capture(&DeBruijn2::new(3), &Embedding::identity(8), &machine));
        assert_eq!((ctx.image(5), &ctx.next_slot), (5, &table));
        ctx.clear();
        assert!(ctx.capture(&db, &complement, &machine));
        assert_eq!(ctx.image(5), (n - 1 - 5) as u32);
    }

    fn collect_db(place: &[u32], h: u32, s: u32, t: u32) -> Vec<u32> {
        let mask = (1u32 << h) - 1;
        let mut out = vec![apply_place(place, s)];
        let (mut phys, mut pos, mut rem) = (apply_place(place, s), s, rem_init(h, t));
        while let Some((p, np, nr, _)) = next_hop(place, mask, phys, pos, rem) {
            out.push(p);
            phys = p;
            pos = np;
            rem = nr;
        }
        out
    }

    #[test]
    fn generator_matches_materialized_routes_on_healthy_b2h() {
        for h in 1..=6u32 {
            let db = DeBruijn2::new(h as usize);
            let n = db.node_count();
            for s in 0..n {
                for t in 0..n {
                    let mut want = Vec::new();
                    db.route_into(s, t, &mut want);
                    // route_into returns the logical node sequence with
                    // self-steps dropped; under the identity placement that
                    // is exactly the physical path.
                    let want: Vec<u32> = want.iter().map(|&x| x as u32).collect();
                    let got = collect_db(&[], h, s as u32, t as u32);
                    assert_eq!(got, want, "h={h} s={s} t={t}");
                }
            }
        }
    }

    #[test]
    fn hops_left_counts_the_remaining_route() {
        let h = 5u32;
        for s in 0..32u32 {
            for t in 0..32u32 {
                let path = collect_db(&[], h, s, t);
                assert_eq!(
                    hops_left(&[], 31, s, s, rem_init(h, t)),
                    (path.len() - 1) as u32
                );
            }
        }
    }

    #[test]
    fn dateline_crossing_is_the_top_bit_on_identity_shift_steps() {
        // On B(2,h) the only label descents a shift step can produce are the
        // wraps of the shift cycles: next = (2·cur + b) mod 2^h < cur iff
        // cur's top bit is set (self-loops excluded — the generators skip
        // them). Check every (cur, b) exhaustively at several radices.
        for h in 1..=8u32 {
            let mask = (1u32 << h) - 1;
            for cur in 0..=mask {
                for b in 0..2u32 {
                    let next = ((cur << 1) | b) & mask;
                    if next == cur {
                        continue; // shift-invariant self-loop, never a hop
                    }
                    let top_bit_set = cur >> (h - 1) == 1;
                    assert_eq!(
                        dateline_crossing(cur, next),
                        top_bit_set,
                        "h={h} cur={cur:#b} next={next:#b}"
                    );
                }
            }
        }
    }
}
