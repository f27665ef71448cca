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
//!
//! The congestion engine routes implicit packets through one
//! `ImplicitRoute`: the captured (mask, placement) context of the load
//! plus a successor-slot table that names the CSR slot of every logical
//! shift edge, so a hop reads its next node from the register and its
//! next link from one table entry, never from the CSR.
//!
//! The generators are branch-light integer arithmetic on caller-owned
//! state: no allocation, no panics, no global state — they and the
//! context's hop methods run in the engine's cycle loop and must stay
//! that way. Only `ImplicitRoute::capture` allocates, once per load.

use super::engine::{pk, DELIVERS, NO_SLOT};
use crate::machine::PhysicalMachine;
use ftdb_graph::Embedding;
use ftdb_topology::DeBruijn2;

/// Initial remaining-bits register for a route to `target` on `B(2,h)`:
/// all `h` target bits queued behind the sentinel.
#[inline]
pub fn rem_init(h: u32, target: u32) -> u32 {
    (1 << h) | target
}

/// True when the shift register has consumed every target bit — the packet
/// is at its final logical position.
// analyzer: alloc-free
#[inline]
pub fn rem_exhausted(rem: u32) -> bool {
    rem == 1
}

/// One shift-register step: consumes the highest queued target bit and
/// shifts it into `pos` (mod `mask + 1`). Caller must ensure
/// `!rem_exhausted(rem)`. Returns `(next_pos, next_rem)`.
// analyzer: alloc-free
#[inline]
pub fn shift_step(pos: u32, rem: u32, mask: u32) -> (u32, u32) {
    debug_assert!(rem > 1, "shift_step on an exhausted register");
    // The sentinel bit's index is the number of target bits still queued.
    let left = 31 - rem.leading_zeros();
    let bit = (rem >> (left - 1)) & 1;
    let next = ((pos << 1) | bit) & mask;
    let low = (1 << (left - 1)) - 1;
    (next, (rem & low) | (low + 1))
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

/// O(1) "does the route end here?" test for the **identity placement**
/// (empty `place`, where `phys == pos`): the register exhausts without
/// leaving `cur` iff no queued bit can shift the label anywhere else. A
/// shift keeps the label fixed only for the two shift-invariant labels —
/// all-zeros fed a 0 and all-ones fed a 1 — so the walk stays in place iff
/// the register is empty (`rem == 1`), or `cur` is all-zeros with only
/// zero bits queued (`rem` is a bare sentinel: a power of two), or
/// all-ones with only one bits queued (`rem + 1` is a power of two).
/// Equivalent to `next_hop(&[], mask, cur, cur, rem).is_none()`
/// (unit-tested below against the walk, exhaustively).
// analyzer: alloc-free
#[inline]
pub fn exhausts_in_place(cur: u32, mask: u32, rem: u32) -> bool {
    rem == 1 || (cur == 0 && rem & (rem - 1) == 0) || (cur == mask && rem & (rem + 1) == 0)
}

/// DELIVERS peek shared by the engines: true when the route from state
/// `(phys, pos, rem)` has no further hop. O(1) on the identity placement
/// via [`exhausts_in_place`]; placements break the `phys == pos` identity
/// that relies on, so a placed walk peeks with [`next_hop`].
// analyzer: alloc-free
#[inline]
pub fn route_ends_at(place: &[u32], mask: u32, phys: u32, pos: u32, rem: u32) -> bool {
    if place.is_empty() {
        exhausts_in_place(phys, mask, rem)
    } else {
        next_hop(place, mask, phys, pos, rem).is_none()
    }
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
/// and placement its oblivious loads route through, and a successor-slot
/// table over that pair. Both engines own one; the sharded engine's cores
/// borrow it read-only, so threaded workers share it.
///
/// Table entry `2x + b` holds the CSR slot of the link from the image of
/// logical label `x` to the image of `(2x + b) & mask` — the shift edge
/// that feeds bit `b` into `x` — or [`NO_SLOT`] where the two images
/// coincide, a label is unplaced, or the link is missing. A hop takes its
/// next node from the register ([`apply_place`]) and its next link from
/// the entry [`next_hop`] keys, so it reads no CSR. The table costs 8 B
/// per logical label and depends on the (machine, placement) pair, not on
/// any packet: it is rebuilt by every load and left out of the engines'
/// `route_state_bytes`.
#[derive(Clone, Debug, Default)]
pub(crate) struct ImplicitRoute {
    /// Logical-node mask (`2^h - 1`).
    mask: u32,
    /// Logical→physical map as dense `u32`s; empty = identity placement
    /// (the common healthy case stores nothing).
    place: Vec<u32>,
    /// The successor-slot table, `2 · (mask + 1)` entries; empty while no
    /// context is captured.
    next_slot: Vec<u32>,
}

impl ImplicitRoute {
    /// Captures the context of an oblivious load through `placement` — or,
    /// when one is already captured, checks that `placement` and `db` match
    /// it — and rebuilds the successor-slot table for `machine`, once per
    /// load. Returns false, leaving the captured context and its table as
    /// they were, when a second load comes through a different placement
    /// or radix.
    pub(crate) fn capture(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        machine: &PhysicalMachine,
    ) -> bool {
        let mask = (db.node_count() - 1) as u32;
        let identity = placement
            .as_slice()
            .iter()
            .enumerate()
            .all(|(i, &v)| i == v);
        if !self.next_slot.is_empty() {
            let same_place = if identity {
                self.place.is_empty()
            } else {
                self.place.len() == placement.len()
                    && placement
                        .as_slice()
                        .iter()
                        .zip(&self.place)
                        .all(|(&a, &b)| a as u32 == b)
            };
            if self.mask != mask || !same_place {
                return false;
            }
        } else {
            self.mask = mask;
            self.place.clear();
            if !identity {
                self.place
                    .extend(placement.as_slice().iter().map(|&v| v as u32));
            }
        }
        self.build_table(machine);
        true
    }

    /// Fills the successor-slot table: one pass over the `2^(h+1)` shift
    /// edges of the logical graph, each resolved by a CSR row search —
    /// O(V + E).
    fn build_table(&mut self, machine: &PhysicalMachine) {
        let graph = machine.graph();
        // An identity context maps every label to itself; a placed one
        // leaves the labels past a short map unplaced. An image past the
        // machine has no CSR row, so `edge_slot` finds no link there.
        let image = |x: u32| {
            if self.place.is_empty() {
                Some(x as usize)
            } else {
                self.place.get(x as usize).map(|&v| v as usize)
            }
        };
        let mask = self.mask;
        self.next_slot.clear();
        self.next_slot.extend((0..2 * (mask + 1)).map(|key| {
            match (image(key >> 1), image(key & mask)) {
                (Some(u), Some(v)) if u != v => graph.edge_slot(u, v).map_or(NO_SLOT, |s| s as u32),
                _ => NO_SLOT,
            }
        }));
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

    /// Initial cached entry and shift-register state of a packet from
    /// logical `s` to logical `t` — O(h), used once per packet at load.
    /// Returns `(entry, pos, rem)`; a terminal entry (no outgoing slot)
    /// means the packet is born on its target.
    pub(crate) fn first_entry(&self, machine: &PhysicalMachine, s: u32, t: u32) -> (u64, u32, u32) {
        let src = self.image(s);
        let rem = rem_init(self.mask.trailing_ones(), t);
        self.entry_at(machine, src, s, rem)
            .unwrap_or((pk(src, NO_SLOT), s, 1))
    }

    /// The cached entry and register of a packet that has just crossed a
    /// non-delivering hop to the image of `pos`, with `rem` target bits
    /// left — the implicit half of the engine's `advance_route`.
    // analyzer: alloc-free
    #[inline]
    pub(crate) fn advance(&self, machine: &PhysicalMachine, pos: u32, rem: u32) -> (u64, u32, u32) {
        self.entry_at(machine, self.image(pos), pos, rem)
            // analyzer: allow(expect) -- the crossed entry lacked DELIVERS, so the register provably holds another hop
            .expect("a non-delivering hop always has a successor")
    }

    /// The packed entry for the next hop out of `here` (the image of
    /// `pos`) and the register after it, or `None` when the route ends at
    /// `here`. The hop's slot is one table read; debug builds check it
    /// against the CSR row search (`machine` is only read there).
    // analyzer: alloc-free
    #[inline]
    fn entry_at(
        &self,
        machine: &PhysicalMachine,
        here: u32,
        pos: u32,
        rem: u32,
    ) -> Option<(u64, u32, u32)> {
        let (next, pos2, rem2, key) = next_hop(&self.place, self.mask, here, pos, rem)?;
        let slot = self.next_slot[key as usize];
        debug_assert_eq!(
            Some(slot as usize),
            machine.graph().edge_slot(here as usize, next as usize),
            "successor-slot table disagrees with the CSR row of node {here} (key {key})"
        );
        let delivers = route_ends_at(&self.place, self.mask, next, pos2, rem2);
        Some((
            pk(here, slot) | if delivers { DELIVERS } else { 0 },
            pos2,
            rem2,
        ))
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
pub fn dateline_crossing(cur: u32, next: u32) -> bool {
    next < cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::PortModel;
    use ftdb_core::{FaultSet, FtDeBruijn2};
    use ftdb_graph::Graph;

    /// Captures `placement` on a fresh context over `machine` and checks
    /// every table entry, key by key, against the placement's images: the
    /// CSR row search's slot where the images differ and are linked, the
    /// sentinel where they coincide, a label is unplaced, or the link is
    /// missing. Slots are also checked against the graph's own adjacency.
    /// Returns how many entries name a link.
    fn assert_table_is_the_row_search(
        db: &DeBruijn2,
        placement: &Embedding,
        machine: &PhysicalMachine,
    ) -> usize {
        let mut ctx = ImplicitRoute::default();
        assert!(ctx.capture(db, placement, machine));
        let mask = (db.node_count() - 1) as u32;
        assert_eq!(ctx.next_slot.len(), 2 * db.node_count());
        let placed = placement.as_slice();
        // A placement that starts like the identity is captured as the
        // identity map, which also covers the labels past a short one.
        let identity = placed.iter().enumerate().all(|(i, &v)| i == v);
        let image = |x: u32| {
            let v = match placed.get(x as usize) {
                Some(&v) => Some(v),
                None if identity => Some(x as usize),
                None => None,
            };
            v.filter(|&v| v < machine.node_count())
        };
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
        links
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
            let edges: Vec<(usize, usize)> = db.graph().edges().collect();
            let cut: Vec<(usize, usize)> = edges.iter().copied().step_by(7).collect();
            let adjacency = (0..n)
                .map(|u| {
                    db.graph()
                        .neighbor_ids(u)
                        .filter(|&v| !cut.contains(&(u.min(v), u.max(v))))
                        .collect()
                })
                .collect();
            let graph = Graph::from_adjacency(adjacency, "B(2,h) minus links".into())
                .expect("a subgraph of a simple graph is simple");
            let damaged = PhysicalMachine::new(graph, PortModel::MultiPort);
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
    fn exhausts_in_place_matches_the_register_walk_exhaustively() {
        // Every (cur, rem) pair — including states no route reaches — must
        // agree with the walk the closed form replaces.
        for h in 1..=6u32 {
            let mask = (1u32 << h) - 1;
            for cur in 0..=mask {
                for left in 0..=h {
                    for bits in 0..(1u32 << left) {
                        let rem = (1 << left) | bits;
                        assert_eq!(
                            exhausts_in_place(cur, mask, rem),
                            next_hop(&[], mask, cur, cur, rem).is_none(),
                            "h={h} cur={cur} rem={rem:#b}"
                        );
                    }
                }
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
