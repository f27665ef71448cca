//! The sharded congestion engine: [`ShardedSim`] partitions the machine's
//! nodes into contiguous label ranges (the de Bruijn prefix cut, see
//! [`super::boundary`]), runs one wake-list core per shard, and exchanges
//! boundary flits and credit returns at cycle barriers. Its
//! [`CongestionReport`] is byte-identical to [`super::CongestionSim`]'s for
//! any shard count and thread count — enforced by the differential suite
//! and the CI shard-determinism job.
//!
//! Why equivalence holds: every resource a packet contends for in a cycle —
//! its node's output port, its outgoing link's claim stamp, that link's
//! per-VC downstream credits — is a function of the packet's *current*
//! node, so it is owned by exactly one shard and arbitration never races.
//! Per-shard examination in ascending packet id equals the global id order
//! restricted to each shard, and winners are decided per-resource, so
//! splitting the scan changes nothing. Credit returns already take effect
//! at least one cycle late in the single-table engine (`packet_flits`
//! cycles under wormhole — the timed credit FIFO), which makes barrier
//! shipping invisible: a credit generated at cycle `c` is due at
//! `c + packet_flits`, and the barrier delivers it to its owner before the
//! phase of cycle `c + 1 <= c + packet_flits`. A migrating packet is
//! examined again only on the following cycle, exactly like a mover in the
//! single engine; its VC index rides along in the [`Flit`].
//!
//! One engine can serve many workloads: [`ShardedSim::clear_workload`]
//! drops the loaded workload and both fault schedules but keeps the
//! machine, every buffer's capacity, the per-destination boundary buffers
//! and each core's warmed re-route [`Searcher`].
//!
//! The sharded engine only carries implicit (O(1)) route state per packet —
//! materialized segments appear only as re-route spills — and does not
//! support `reset`, recovery re-targeting, or adaptive loads; use
//! [`super::CongestionSim`] for those.

use super::boundary::{shard_floor, shard_of, BoundaryBatch, Flit};
use super::engine::{
    edge_slot_in, implicit_entry_in, pk, pk_node, pk_slot, pk_terminal, CongestionConfig,
    CongestionEngine, CongestionReport, EngineKind, FaultResponse, FlowControl, LinkGate,
    RouteSource, Switching, DELIVERS, IMPLICIT_ACTIVE, NEVER, NONE_ID, NO_LOGICAL, NO_SLOT,
};
use super::implicit_route;
use crate::machine::{PhysicalMachine, PortModel};
use crate::metrics::LatencySummary;
use crate::routing;
use ftdb_core::LinkFaultSet;
use ftdb_graph::traversal::Searcher;
use ftdb_graph::{Embedding, NodeId};
use ftdb_topology::DeBruijn2;

/// Resolution code: packet dropped while in the network.
const RES_DROPPED: u8 = 0;
/// Resolution code: packet delivered while in the network.
const RES_DELIVERED: u8 = 1;
/// Resolution code: dropped at injection (source died first) — never
/// entered the network, so the driver must not decrement `live`.
const RES_DROPPED_AT_INJECT: u8 = 2;
/// Resolution code: delivered at injection (born on its target).
const RES_DELIVERED_AT_INJECT: u8 = 3;

/// Read-only cycle context shared by every shard core (and, in threaded
/// runs, by every worker thread).
struct ShardCtx<'a> {
    machine: &'a PhysicalMachine,
    /// First global CSR slot of each shard; length `shards + 1`.
    slot_start: &'a [u32],
    inject_at: &'a [u32],
    logical_target: &'a [u32],
    imp_place: &'a [u32],
    imp_mask: u32,
    n: usize,
    shards: usize,
    single_port: bool,
    park: bool,
    fault_response: FaultResponse,
}

/// One shard's share of the engine state. Link-gate state (`links`, the
/// credit FIFO marks, blocked queues) is indexed by *local* gate id
/// (`global_gidx - slot_lo * vcs`, one gate per (link slot, VC) exactly
/// like the single engine); packet arrays span the full id space so global
/// packet ids index directly (a packet is *hosted* by the shard owning its
/// current node — `cursor != NEVER` exactly there).
struct ShardCore {
    node_lo: usize,
    node_hi: usize,
    slot_lo: usize,
    slot_hi: usize,
    flow_depth: u32,
    /// Virtual channels per link; 1 for the legacy flow-control modes.
    vcs: usize,
    /// Flits per packet (link/credit hold time); 1 outside wormhole.
    packet_flits: u32,
    /// Whether per-VC metrics (`vc`, `blocked_since`) are live.
    track_vc: bool,
    // --- local link state (local gate ids: (slot - slot_lo) * vcs + vc) --
    links: Vec<LinkGate>,
    /// Timed credit returns `(due_cycle, local_gidx, count)`, due-sorted;
    /// mirrors the single engine's FIFO (barrier-shipped returns land with
    /// the same due cycle they would have had locally).
    credit_fifo: Vec<(u32, u32, u32)>,
    credit_fifo_pos: usize,
    /// Per-gate coalescing cursor into `credit_fifo` (entry index + 1).
    credit_mark: Vec<u32>,
    blocked_head: Vec<u32>,
    blocked_tail: Vec<u32>,
    /// Timed claim expiries `(due_cycle, local_slot)`; on expiry every VC
    /// queue head of the slot that can admit a flit is woken.
    served_fifo: Vec<(u32, u32)>,
    served_fifo_pos: usize,
    // --- local node state ------------------------------------------------
    node_claim: Vec<u32>,
    // --- dynamic faults (full copies: hazard checks need remote deads) ---
    dead: Vec<bool>,
    dead_list: Vec<u32>,
    schedule: Vec<(u32, u32)>,
    schedule_pos: usize,
    /// `(cycle, global CSR slot)` directed-link kills; every core carries
    /// the full schedule (the hazard check needs remote dead links), but a
    /// kill only wakes the gates of *locally owned* slots.
    link_schedule: Vec<(u32, u32)>,
    link_schedule_pos: usize,
    /// Dead directed CSR slots, over the full global slot universe.
    dead_link: Vec<bool>,
    dead_link_list: Vec<u32>,
    // --- packet state (full id space; valid while hosted here) -----------
    entry: Vec<u64>,
    imp_pos: Vec<u32>,
    imp_rem: Vec<u32>,
    /// `NEVER` = resolved or hosted elsewhere, [`IMPLICIT_ACTIVE`] = riding
    /// the digit-shift generator, else an index into the local `arena`.
    cursor: Vec<u32>,
    /// Local-arena end of a materialized (re-routed/migrated) segment.
    seg_end: Vec<u32>,
    /// *Global* gate id (`slot * vcs + vc`) of the buffer the packet
    /// occupies (may belong to another shard after a migration; credits
    /// route home at the barrier).
    occupied_slot: Vec<u32>,
    /// Current virtual channel per hosted packet (0 outside VC mode).
    vc: Vec<u8>,
    /// First-failure cycle per hosted blocked packet (`NEVER` = clear);
    /// only maintained when `track_vc`.
    blocked_since: Vec<u32>,
    blocked_next: Vec<u32>,
    in_network: Vec<bool>,
    queued_now: Vec<u64>,
    queued_next: Vec<u64>,
    /// Local path arena for re-route spills and migrated-in segments.
    arena: Vec<u64>,
    // --- injection (home-shard packets only) ------------------------------
    pending_inject: Vec<u32>,
    inject_pos: usize,
    // --- per-cycle outputs ------------------------------------------------
    /// `(id, cycle, RES_*)` resolutions this cycle, drained by the driver.
    resolved: Vec<(u32, u32, u8)>,
    /// Outbound flits, path words and credit returns, one buffer per
    /// destination shard (indexed by it), kept for the core's life: the
    /// drivers empty them in place at every barrier.
    out: Vec<BoundaryBatch>,
    moved: u64,
    injected: u64,
    killed: usize,
    /// Packets re-routed this cycle (activity under the stop rule).
    rerouted: u64,
    /// Per-VC flit totals for this core's links (summed by the driver).
    vc_flits: Vec<u64>,
    /// Per-VC closed head-of-line blocked spans (summed by the driver; the
    /// report adds the still-open spans of hosted packets).
    vc_hol_blocked_cycles: Vec<u64>,
    // --- re-route scratch -------------------------------------------------
    searcher: Searcher,
    reroute_path: Vec<NodeId>,
}

impl ShardCore {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shard: usize,
        node_lo: usize,
        node_hi: usize,
        slot_lo: usize,
        slot_hi: usize,
        n: usize,
        total_slots: usize,
        shards: usize,
        flow_depth: u32,
        vcs: usize,
        packet_flits: u32,
        track_vc: bool,
    ) -> Self {
        let slots = slot_hi - slot_lo;
        let gates = slots * vcs;
        let credit_len = if flow_depth > 0 { gates } else { 0 };
        ShardCore {
            node_lo,
            node_hi,
            slot_lo,
            slot_hi,
            flow_depth,
            vcs,
            packet_flits,
            track_vc,
            links: vec![
                LinkGate {
                    claim: NEVER,
                    credits: flow_depth,
                };
                gates
            ],
            credit_fifo: Vec::with_capacity(credit_len * packet_flits as usize),
            credit_fifo_pos: 0,
            credit_mark: vec![0; credit_len],
            blocked_head: vec![NONE_ID; gates],
            blocked_tail: vec![NONE_ID; gates],
            served_fifo: Vec::with_capacity((slots * packet_flits as usize).min(1 << 16)),
            served_fifo_pos: 0,
            node_claim: vec![NEVER; node_hi - node_lo],
            dead: vec![false; n],
            dead_list: Vec::new(),
            schedule: Vec::new(),
            schedule_pos: 0,
            link_schedule: Vec::new(),
            link_schedule_pos: 0,
            dead_link: vec![false; total_slots],
            dead_link_list: Vec::new(),
            entry: Vec::new(),
            imp_pos: Vec::new(),
            imp_rem: Vec::new(),
            cursor: Vec::new(),
            seg_end: Vec::new(),
            occupied_slot: Vec::new(),
            vc: Vec::new(),
            blocked_since: Vec::new(),
            blocked_next: Vec::new(),
            in_network: Vec::new(),
            queued_now: Vec::new(),
            queued_next: Vec::new(),
            arena: Vec::new(),
            pending_inject: Vec::new(),
            inject_pos: 0,
            resolved: Vec::new(),
            out: (0..shards)
                .map(|dst| BoundaryBatch::new(shard as u32, dst as u32))
                .collect(),
            moved: 0,
            injected: 0,
            killed: 0,
            rerouted: 0,
            vc_flits: vec![0; if track_vc { vcs } else { 0 }],
            vc_hol_blocked_cycles: vec![0; if track_vc { vcs } else { 0 }],
            searcher: Searcher::default(),
            reroute_path: Vec::new(),
        }
    }

    /// Resizes every per-packet array to `packets` ids, giving new ids the
    /// default (not-hosted) state: one bulk resize per load (or per clear,
    /// to 0), not a push per packet per array. Capacity is kept.
    fn resize_packets(&mut self, packets: usize) {
        self.entry.resize(packets, pk(0, NO_SLOT));
        self.imp_pos.resize(packets, 0);
        self.imp_rem.resize(packets, 1);
        self.cursor.resize(packets, NEVER);
        self.seg_end.resize(packets, 0);
        self.occupied_slot.resize(packets, NO_SLOT);
        self.vc.resize(packets, 0);
        self.blocked_since.resize(packets, NEVER);
        self.blocked_next.resize(packets, NONE_ID);
        self.in_network.resize(packets, false);
        let words = packets.div_ceil(64);
        self.queued_now.resize(words, 0);
        self.queued_next.resize(words, 0);
    }

    fn is_alive(&self, ctx: &ShardCtx<'_>, node: NodeId) -> bool {
        ctx.machine.is_healthy(node) && !self.dead[node]
    }

    #[inline]
    fn queue_now(&mut self, id: usize) {
        self.queued_now[id >> 6] |= 1u64 << (id & 63);
    }

    /// Parks `id` on local slot `ls`'s blocked queue, sorted by id (= age);
    /// mirrors the single-table engine exactly.
    fn park_on_slot(&mut self, id: usize, ls: usize) {
        let id32 = id as u32;
        let head = self.blocked_head[ls];
        if head == NONE_ID {
            self.blocked_head[ls] = id32;
            self.blocked_tail[ls] = id32;
            self.blocked_next[id] = NONE_ID;
        } else if id32 > self.blocked_tail[ls] {
            let tail = self.blocked_tail[ls] as usize;
            self.blocked_next[tail] = id32;
            self.blocked_tail[ls] = id32;
            self.blocked_next[id] = NONE_ID;
        } else if id32 < head {
            self.blocked_next[id] = head;
            self.blocked_head[ls] = id32;
        } else {
            let mut prev = head as usize;
            while self.blocked_next[prev] != NONE_ID && self.blocked_next[prev] < id32 {
                prev = self.blocked_next[prev] as usize;
            }
            self.blocked_next[id] = self.blocked_next[prev];
            self.blocked_next[prev] = id32;
        }
    }

    fn wake_head(&mut self, ls: usize) {
        let head = self.blocked_head[ls];
        if head != NONE_ID {
            self.queue_now(head as usize);
            self.blocked_head[ls] = self.blocked_next[head as usize];
            if self.blocked_head[ls] == NONE_ID {
                self.blocked_tail[ls] = NONE_ID;
            }
        }
    }

    fn wake_slot(&mut self, ls: usize) {
        let mut cur = self.blocked_head[ls];
        while cur != NONE_ID {
            self.queue_now(cur as usize);
            cur = self.blocked_next[cur as usize];
        }
        self.blocked_head[ls] = NONE_ID;
        self.blocked_tail[ls] = NONE_ID;
    }

    fn wake_all_parked(&mut self) {
        for ls in 0..self.blocked_head.len() {
            if self.blocked_head[ls] != NONE_ID {
                self.wake_slot(ls);
            }
        }
    }

    /// Records that blocked packet `id` became unblocked at `cycle`; the
    /// mirror of the single engine's `note_unblocked`.
    #[inline]
    fn note_unblocked(&mut self, id: usize, cycle: u32) {
        if self.track_vc {
            let since = self.blocked_since[id];
            if since != NEVER {
                self.vc_hol_blocked_cycles[self.vc[id] as usize] += (cycle - since) as u64;
                self.blocked_since[id] = NEVER;
            }
        }
    }

    /// Records that packet `id` failed examination at `cycle`; only the
    /// *first* failure since the last move sticks.
    #[inline]
    fn note_blocked(&mut self, id: usize, cycle: u32) {
        if self.track_vc && self.blocked_since[id] == NEVER {
            self.blocked_since[id] = cycle;
        }
    }

    /// Enqueues a credit return for *local* gate `lg`, due at `due`,
    /// coalescing per (due, gate) through `credit_mark` exactly like the
    /// single engine's `return_credit` — one FIFO entry (and so one wake)
    /// per gate per generating cycle, whatever mix of local and
    /// barrier-shipped returns produced it.
    fn push_credit(&mut self, lg: u32, due: u32) {
        let m = self.credit_mark[lg as usize] as usize;
        if m > 0 && m <= self.credit_fifo.len() {
            let entry = &mut self.credit_fifo[m - 1];
            // A stale mark only coalesces when both the due cycle and the
            // gate match — applied entries are always due in the past.
            if entry.0 == due && entry.1 == lg {
                entry.2 += 1;
                return;
            }
        }
        self.credit_mark[lg as usize] = self.credit_fifo.len() as u32 + 1;
        self.credit_fifo.push((due, lg, 1));
    }

    /// Schedules a credit return for *local* gate `lg` generated at
    /// `cycle`: due `packet_flits` cycles later, when the tail flit clears
    /// the slot.
    fn return_credit_local(&mut self, lg: usize, cycle: u32) {
        self.push_credit(lg as u32, cycle + self.packet_flits);
    }

    /// Returns a credit for *global* gate `g` generated at `cycle`: locally
    /// when this shard owns the gate's link slot, else shipped to the owner
    /// at the cycle barrier (the owner restores the due cycle from the
    /// barrier timing). Slot ownership follows the contiguous CSR cut, so
    /// the owner is the last shard whose slot range starts at or before the
    /// gate's slot (skipping any empty shards in between).
    fn return_credit_global(&mut self, ctx: &ShardCtx<'_>, g: u32, cycle: u32) {
        let gu = g as usize;
        let slot = gu / self.vcs;
        if slot >= self.slot_lo && slot < self.slot_hi {
            self.return_credit_local(gu - self.slot_lo * self.vcs, cycle);
        } else {
            let owner = ctx.slot_start.partition_point(|&x| (x as usize) <= slot) - 1;
            self.out[owner].credits.push(g);
        }
    }

    /// Resolves hosted packet `id` with resolution `code`, releasing its
    /// buffer slot (possibly to another shard) under credit flow control.
    fn resolve(&mut self, ctx: &ShardCtx<'_>, id: usize, cycle: u32, code: u8) {
        self.note_unblocked(id, cycle);
        self.resolved.push((id as u32, cycle, code));
        self.in_network[id] = false;
        self.cursor[id] = NEVER;
        if self.flow_depth > 0 {
            let g = self.occupied_slot[id];
            if g != NO_SLOT {
                self.return_credit_global(ctx, g, cycle);
                self.occupied_slot[id] = NO_SLOT;
            }
        }
    }

    /// Applies the credit returns due by `cycle` (local and barrier-shipped
    /// share the FIFO, with identical due cycles) and wakes each
    /// replenished gate's queue head; the applied prefix is reclaimed
    /// exactly like the single engine's. Per-gate independence makes the
    /// application order irrelevant, so the interleaving of local and
    /// remote returns cannot perturb the outcome.
    fn apply_pending_credits(&mut self, cycle: u32) {
        while self.credit_fifo_pos < self.credit_fifo.len() {
            let (due, lg, count) = self.credit_fifo[self.credit_fifo_pos];
            if due > cycle {
                break;
            }
            self.credit_fifo_pos += 1;
            let lgu = lg as usize;
            self.links[lgu].credits += count;
            debug_assert!(
                self.links[lgu].credits <= self.flow_depth,
                "credit overflow"
            );
            self.wake_head(lgu);
        }
        if self.credit_fifo_pos >= self.credit_fifo.len() {
            self.credit_fifo.clear();
            self.credit_fifo_pos = 0;
        } else if self.credit_fifo_pos >= 64 && self.credit_fifo_pos * 2 >= self.credit_fifo.len() {
            self.credit_fifo.drain(..self.credit_fifo_pos);
            self.credit_fifo_pos = 0;
        }
    }

    /// Wakes the served-slot VC queue heads whose link claims expire by
    /// `cycle`; the mirror of the single engine's `apply_due_serves`.
    fn apply_due_serves(&mut self, cycle: u32) {
        while self.served_fifo_pos < self.served_fifo.len() {
            let (due, ls) = self.served_fifo[self.served_fifo_pos];
            if due > cycle {
                break;
            }
            self.served_fifo_pos += 1;
            let base = ls as usize * self.vcs;
            for lg in base..base + self.vcs {
                if self.blocked_head[lg] != NONE_ID
                    && (self.flow_depth == 0 || self.links[lg].credits > 0)
                {
                    self.wake_head(lg);
                }
            }
        }
        if self.served_fifo_pos >= self.served_fifo.len() {
            self.served_fifo.clear();
            self.served_fifo_pos = 0;
        } else if self.served_fifo_pos >= 64 && self.served_fifo_pos * 2 >= self.served_fifo.len() {
            self.served_fifo.drain(..self.served_fifo_pos);
            self.served_fifo_pos = 0;
        }
    }

    /// Whether timed credit returns or claim expiries are still in flight
    /// on this core — the per-core share of the single engine's
    /// `credits_pending() || serves_pending()` quiescence veto.
    fn fifos_drained(&self) -> bool {
        self.credit_fifo_pos >= self.credit_fifo.len()
            && self.served_fifo_pos >= self.served_fifo.len()
    }

    /// Injects due home packets; mirrors the single engine's
    /// `inject_due_packets` with resolutions routed through the driver.
    fn inject_due(&mut self, ctx: &ShardCtx<'_>, cycle: u32) {
        while self.inject_pos < self.pending_inject.len() {
            let id = self.pending_inject[self.inject_pos] as usize;
            if ctx.inject_at[id] > cycle {
                break;
            }
            self.inject_pos += 1;
            let source = pk_node(self.entry[id]);
            if !self.is_alive(ctx, source) {
                self.cursor[id] = NEVER;
                self.resolved
                    .push((id as u32, cycle, RES_DROPPED_AT_INJECT));
            } else if pk_terminal(self.entry[id]) {
                self.cursor[id] = NEVER;
                self.resolved
                    .push((id as u32, cycle, RES_DELIVERED_AT_INJECT));
            } else {
                self.queue_now(id);
                self.in_network[id] = true;
                self.injected += 1;
            }
        }
    }

    /// Applies due schedule entries (every core holds the full node and
    /// link schedules, so `killed` agrees across shards), drops packets
    /// hosted on dead nodes, and wakes every parked packet — mirroring
    /// `fire_due_faults`. Directed-link kills are marked globally but wake
    /// only the gates of locally-owned dead slots: parked packets live on
    /// the shard owning their next-hop slot, so the per-link wake stays a
    /// local event with no barrier traffic.
    fn fire_due_faults(&mut self, ctx: &ShardCtx<'_>, cycle: u32) {
        while self.schedule_pos < self.schedule.len() && self.schedule[self.schedule_pos].0 <= cycle
        {
            let (_, node) = self.schedule[self.schedule_pos];
            self.schedule_pos += 1;
            if !self.dead[node as usize] {
                self.dead[node as usize] = true;
                self.dead_list.push(node);
                self.killed += 1;
            }
        }
        if self.killed > 0 {
            for id in 0..self.in_network.len() {
                if self.in_network[id] && self.dead[pk_node(self.entry[id])] {
                    self.resolve(ctx, id, cycle, RES_DROPPED);
                }
            }
            self.wake_all_parked();
        }
        let first_new_link = self.dead_link_list.len();
        while self.link_schedule_pos < self.link_schedule.len()
            && self.link_schedule[self.link_schedule_pos].0 <= cycle
        {
            let (_, slot) = self.link_schedule[self.link_schedule_pos];
            self.link_schedule_pos += 1;
            if !self.dead_link[slot as usize] {
                self.dead_link[slot as usize] = true;
                self.dead_link_list.push(slot);
                self.killed += 1;
            }
        }
        for i in first_new_link..self.dead_link_list.len() {
            let slot = self.dead_link_list[i] as usize;
            if slot >= self.slot_lo && slot < self.slot_hi {
                let base = (slot - self.slot_lo) * self.vcs;
                for lg in base..base + self.vcs {
                    if self.blocked_head[lg] != NONE_ID {
                        self.wake_slot(lg);
                    }
                }
            }
        }
    }

    /// The physical node hosted packet `id`'s route ends on.
    fn route_target(&self, ctx: &ShardCtx<'_>, id: usize) -> NodeId {
        if self.cursor[id] == IMPLICIT_ACTIVE {
            implicit_route::apply_place(ctx.imp_place, ctx.logical_target[id]) as usize
        } else {
            pk_node(self.arena[self.seg_end[id] as usize - 1])
        }
    }

    /// Fills packed hop slots of `arena[from..to]`, like the single
    /// engine's `pack_hop_slots` over its path arena.
    fn pack_hop_slots(&mut self, ctx: &ShardCtx<'_>, from: usize, to: usize) {
        for i in from..to.saturating_sub(1) {
            let u = pk_node(self.arena[i]);
            let v = pk_node(self.arena[i + 1]) as u32;
            let slot = edge_slot_in(ctx.machine, u, v)
                // analyzer: allow(expect) -- the BFS route was computed against this CSR, so a missing slot is a search bug; aborting beats simulating a phantom link
                .expect("re-routes only traverse physical links");
            let delivers = if i + 2 == to { DELIVERS } else { 0 };
            self.arena[i] = pk(u as u32, slot as u32) | delivers;
        }
        if to > from {
            let last = pk_node(self.arena[to - 1]) as u32;
            self.arena[to - 1] = pk(last, NO_SLOT);
        }
    }

    /// Replaces hosted packet `id`'s remaining route with a BFS path from
    /// its current node to `target`, spilled into the local arena. Returns
    /// false (packet untouched) when no healthy path exists.
    fn reroute_packet(&mut self, ctx: &ShardCtx<'_>, id: usize, target: NodeId) -> bool {
        let here = pk_node(self.entry[id]);
        let machine = ctx.machine;
        let dead = &self.dead;
        let dead_link = &self.dead_link;
        let found = self.searcher.shortest_path_avoiding_into(
            machine.graph(),
            here,
            target,
            |v| machine.is_healthy(v) && !dead[v],
            |slot| !dead_link[slot],
            &mut self.reroute_path,
        );
        if !found {
            return false;
        }
        let start = self.arena.len() as u32;
        self.arena
            .extend(self.reroute_path.iter().map(|&v| v as u64));
        let end = self.arena.len();
        self.pack_hop_slots(ctx, start as usize, end);
        self.cursor[id] = start;
        self.seg_end[id] = end as u32;
        self.entry[id] = self.arena[start as usize];
        true
    }

    /// Advances hosted packet `id` past the hop it just won — an O(1)
    /// shift-register step for implicit packets, an arena-cursor bump for
    /// materialized ones. Never called on a delivering hop.
    fn advance_route(&mut self, ctx: &ShardCtx<'_>, id: usize, crossed_slot: usize) {
        let next_node = ctx.machine.graph().csr().1[crossed_slot];
        let at = self.cursor[id];
        if at == IMPLICIT_ACTIVE {
            let (pos, rem) = (self.imp_pos[id], self.imp_rem[id]);
            let (p2, pos2, rem2) =
                implicit_route::next_hop(ctx.imp_place, ctx.imp_mask, next_node, pos, rem)
                    // analyzer: allow(expect) -- the crossed entry lacked DELIVERS, so the register provably holds another hop
                    .expect("a non-delivering hop always has a successor");
            let slot = edge_slot_in(ctx.machine, next_node as usize, p2)
                // analyzer: allow(expect) -- the loader validated every shift edge of this route against this CSR
                .expect("implicit routes only traverse physical links");
            let delivers =
                implicit_route::route_ends_at(ctx.imp_place, ctx.imp_mask, p2, pos2, rem2);
            self.entry[id] = pk(next_node, slot as u32) | if delivers { DELIVERS } else { 0 };
            self.imp_pos[id] = pos2;
            self.imp_rem[id] = rem2;
        } else {
            let next = at + 1;
            self.cursor[id] = next;
            self.entry[id] = self.arena[next as usize];
        }
    }

    /// Ships hosted packet `id` — whose current node `now` belongs to
    /// another shard — to its new host at the cycle barrier. Its route
    /// state travels in the flit; its occupied buffer slot stays recorded
    /// (globally) and drains back to this shard when the packet next moves.
    fn emigrate(&mut self, ctx: &ShardCtx<'_>, id: usize, now: usize) {
        let out = &mut self.out[shard_of(now, ctx.n, ctx.shards)];
        let path_len = if self.cursor[id] == IMPLICIT_ACTIVE {
            0
        } else {
            let path = &self.arena[self.cursor[id] as usize..self.seg_end[id] as usize];
            out.path_words.extend_from_slice(path);
            path.len() as u32
        };
        // A mover's blocked span was closed by `note_unblocked` on the move
        // that triggered this migration, so no HoL state needs to travel.
        debug_assert!(
            self.blocked_since[id] == NEVER,
            "blocked span crossed a barrier"
        );
        out.flits.push(Flit {
            id: id as u32,
            entry: self.entry[id],
            pos: self.imp_pos[id],
            rem: self.imp_rem[id],
            occupied_slot: self.occupied_slot[id],
            vc: self.vc[id],
            path_len,
        });
        self.in_network[id] = false;
        self.cursor[id] = NEVER;
        self.occupied_slot[id] = NO_SLOT;
    }

    /// Adopts barrier-shipped state at the start of cycle `now`: credit
    /// returns into the timed FIFO (due `now + packet_flits - 1`, i.e. the
    /// same `generating_cycle + packet_flits` a local return would carry)
    /// and in-migrating flits into the hosted table, queued for this
    /// cycle's examination — the same timing a mover has in the
    /// single-table engine. `path_words` holds the materialized flits'
    /// remaining paths in flit order.
    fn apply_inbound(&mut self, flits: &[Flit], path_words: &[u64], credits: &[u32], now: u32) {
        let due = now + self.packet_flits - 1;
        for &g in credits {
            let gu = g as usize;
            let slot = gu / self.vcs;
            debug_assert!(
                slot >= self.slot_lo && slot < self.slot_hi,
                "foreign credit"
            );
            self.push_credit((gu - self.slot_lo * self.vcs) as u32, due);
        }
        let mut words = path_words;
        for flit in flits {
            let id = flit.id as usize;
            self.entry[id] = flit.entry;
            self.imp_pos[id] = flit.pos;
            self.imp_rem[id] = flit.rem;
            self.occupied_slot[id] = flit.occupied_slot;
            self.vc[id] = flit.vc;
            if flit.path_len == 0 {
                self.cursor[id] = IMPLICIT_ACTIVE;
            } else {
                let (path, rest) = words.split_at(flit.path_len as usize);
                words = rest;
                let start = self.arena.len() as u32;
                self.arena.extend_from_slice(path);
                self.cursor[id] = start;
                self.seg_end[id] = start + flit.path_len;
            }
            self.in_network[id] = true;
            self.queue_now(id);
        }
    }

    /// Copies this cycle's non-empty outbound buffers into batches for the
    /// threaded driver's channel and empties the buffers in place.
    fn take_batches(&mut self) -> Vec<BoundaryBatch> {
        let mut shipped = Vec::new();
        for out in &mut self.out {
            if !out.is_empty() {
                shipped.push(out.clone());
                out.clear();
            }
        }
        shipped
    }

    /// Drops the loaded workload and both fault schedules, rewinding every
    /// gate, queue and metric to its state after [`ShardCore::new`] while
    /// keeping every buffer's capacity and the warmed [`Searcher`]. Only
    /// the nodes and links on the dead lists are un-marked. The per-cycle
    /// outputs (`resolved`, `out`, the counters) need nothing: the drivers
    /// drain or reset them every cycle.
    fn clear_workload(&mut self) {
        for gate in &mut self.links {
            gate.claim = NEVER;
            gate.credits = self.flow_depth;
        }
        self.credit_fifo.clear();
        self.credit_fifo_pos = 0;
        self.credit_mark.fill(0);
        self.blocked_head.fill(NONE_ID);
        self.blocked_tail.fill(NONE_ID);
        self.served_fifo.clear();
        self.served_fifo_pos = 0;
        self.node_claim.fill(NEVER);
        for &node in &self.dead_list {
            self.dead[node as usize] = false;
        }
        self.dead_list.clear();
        self.schedule.clear();
        self.schedule_pos = 0;
        for &slot in &self.dead_link_list {
            self.dead_link[slot as usize] = false;
        }
        self.dead_link_list.clear();
        self.link_schedule.clear();
        self.link_schedule_pos = 0;
        self.resize_packets(0);
        self.arena.clear();
        self.pending_inject.clear();
        self.inject_pos = 0;
        self.vc_flits.fill(0);
        self.vc_hol_blocked_cycles.fill(0);
    }

    /// One shard's share of a cycle, phase-for-phase identical to the
    /// single-table engine's `step`: apply due credits, wake due served
    /// slots, inject due packets, fire due faults, then examine queued
    /// packets in ascending id order.
    fn phase(&mut self, ctx: &ShardCtx<'_>, cycle: u32) {
        self.moved = 0;
        self.injected = 0;
        self.killed = 0;
        self.rerouted = 0;
        self.apply_pending_credits(cycle);
        self.apply_due_serves(cycle);
        self.inject_due(ctx, cycle);
        self.fire_due_faults(ctx, cycle);
        self.exam(ctx, cycle);
    }

    /// The examination pass (the single engine's `step` body) over this
    /// shard's queued packets.
    fn exam(&mut self, ctx: &ShardCtx<'_>, stamp: u32) {
        let credit_based = self.flow_depth > 0;
        let vcs = self.vcs;
        let pf = self.packet_flits;
        let track_vc = self.track_vc;
        let hazard = !self.dead_list.is_empty() || !self.dead_link_list.is_empty();
        for wi in 0..self.queued_now.len() {
            let mut word = self.queued_now[wi];
            if word == 0 {
                continue;
            }
            self.queued_now[wi] = 0;
            let base = wi << 6;
            while word != 0 {
                let id = base + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.cursor[id] == NEVER {
                    continue;
                }
                let entry = self.entry[id];
                let slot = pk_slot(entry) as usize;
                debug_assert!(slot >= self.slot_lo && slot < self.slot_hi, "foreign slot");
                if hazard {
                    let next = ctx.machine.graph().csr().1[slot] as usize;
                    if self.dead[next] || self.dead_link[slot] {
                        match ctx.fault_response {
                            FaultResponse::Drop => {
                                self.resolve(ctx, id, stamp, RES_DROPPED);
                                continue;
                            }
                            FaultResponse::RerouteAdaptive => {
                                let target = self.route_target(ctx, id);
                                if !self.is_alive(ctx, target)
                                    || !self.reroute_packet(ctx, id, target)
                                {
                                    self.resolve(ctx, id, stamp, RES_DROPPED);
                                    continue;
                                }
                                self.rerouted += 1;
                                if self.cursor[id] + 1 == self.seg_end[id] {
                                    self.resolve(ctx, id, stamp, RES_DELIVERED);
                                    continue;
                                }
                                self.queued_next[wi] |= 1u64 << (id & 63);
                                continue;
                            }
                        }
                    }
                }
                let here = pk_node(entry);
                let ls = slot - self.slot_lo;
                let vc = self.vc[id] as usize;
                let lg = ls * vcs + vc;
                // The physical link claim lives at the slot's VC-0 gate and
                // holds for `packet_flits` cycles, exactly like the single
                // engine (`claim != stamp` for single-flit packets).
                let link_claim = self.links[ls * vcs].claim;
                let link_free = link_claim == NEVER || stamp - link_claim >= pf;
                let port_claim = self.node_claim[here - self.node_lo];
                let port_free = !ctx.single_port || port_claim == NEVER || stamp - port_claim >= pf;
                let credit_free = !credit_based || self.links[lg].credits > 0;
                if port_free && credit_free && link_free {
                    self.links[ls * vcs].claim = stamp;
                    if ctx.single_port {
                        self.node_claim[here - self.node_lo] = stamp;
                    }
                    if credit_based {
                        self.links[lg].credits -= 1;
                        let prev = self.occupied_slot[id];
                        if prev != NO_SLOT {
                            self.return_credit_global(ctx, prev, stamp);
                        }
                        self.occupied_slot[id] = (slot * vcs + vc) as u32;
                    }
                    if ctx.park || pf > 1 {
                        self.served_fifo.push((stamp + pf, ls as u32));
                    }
                    self.moved += 1;
                    if track_vc {
                        self.vc_flits[vc] += pf as u64;
                        self.note_unblocked(id, stamp);
                    }
                    if entry & DELIVERS != 0 {
                        self.resolve(ctx, id, stamp, RES_DELIVERED);
                    } else {
                        if track_vc {
                            // Dateline rule, identical to the single engine:
                            // a label-descending hop bumps the VC (capped).
                            let next = ctx.machine.graph().csr().1[slot] as usize;
                            if vc + 1 < vcs
                                && implicit_route::dateline_crossing(here as u32, next as u32)
                            {
                                self.vc[id] = (vc + 1) as u8;
                            }
                        }
                        self.advance_route(ctx, id, slot);
                        let now = pk_node(self.entry[id]);
                        if now >= self.node_lo && now < self.node_hi {
                            self.queued_next[wi] |= 1u64 << (id & 63);
                        } else {
                            self.emigrate(ctx, id, now);
                        }
                    }
                } else if ctx.park
                    && (!credit_free || (link_claim == stamp && self.blocked_head[lg] != NONE_ID))
                {
                    self.note_blocked(id, stamp);
                    self.park_on_slot(id, lg);
                } else {
                    self.note_blocked(id, stamp);
                    self.queued_next[wi] |= 1u64 << (id & 63);
                }
            }
        }
        std::mem::swap(&mut self.queued_now, &mut self.queued_next);
    }

    fn injects_done(&self) -> bool {
        self.inject_pos >= self.pending_inject.len()
    }
}

/// A command from the driver to a persistent worker thread.
enum WorkerCmd {
    /// Apply last cycle's inbound traffic, run one cycle phase, report.
    Cycle {
        cycle: u32,
        flits: Vec<Flit>,
        path_words: Vec<u64>,
        credits: Vec<u32>,
    },
    /// Apply inbound traffic without running a cycle (the exit flush, so
    /// the cores hold a consistent post-barrier state when the run stops).
    Apply {
        now: u32,
        flits: Vec<Flit>,
        path_words: Vec<u64>,
        credits: Vec<u32>,
    },
    /// Join.
    Stop,
}

/// One worker's cycle result. `None` on the result channel means the worker
/// panicked (the payload re-raises through the scope join).
struct WorkerOut {
    shard: u32,
    moved: u64,
    injected: u64,
    killed: usize,
    rerouted: u64,
    resolved: Vec<(u32, u32, u8)>,
    batches: Vec<BoundaryBatch>,
    pending_empty: bool,
    injects_done: bool,
    schedule_done: bool,
}

/// The sharded wake-list congestion engine. See the module docs for the
/// partition and the equivalence argument; see [`super::CongestionSim`] for
/// the cycle model. `shards = 1, threads = 1` degenerates to the single
/// engine (modulo layout); reports are byte-identical in every
/// configuration.
pub struct ShardedSim {
    machine: PhysicalMachine,
    config: CongestionConfig,
    /// Flits per packet (1 outside wormhole switching); the driver's
    /// flit accounting multiplies packet-moves by this.
    packet_flits: u32,
    shards: usize,
    threads: usize,
    /// First global CSR slot per shard (length `shards + 1`).
    slot_start: Vec<u32>,
    cores: Vec<ShardCore>,
    // --- global packet table (driver-owned) -------------------------------
    inject_at: Vec<u32>,
    logical_target: Vec<u32>,
    delivered_at: Vec<u32>,
    dropped_at: Vec<u32>,
    latencies: Vec<u32>,
    // --- implicit context -------------------------------------------------
    imp_mask: u32,
    imp_place: Vec<u32>,
    imp_ctx: bool,
    // --- run state --------------------------------------------------------
    delivered: u64,
    dropped: u64,
    live: u64,
    total_flits: u64,
    cycle: u32,
    deadlocked: bool,
    open_loop_sources: u32,
    /// Latest injection cycle queued by a timed load, for the cross-load
    /// append assert (mirrors the single engine's check).
    last_queued_inject: Option<u32>,
}

impl ShardedSim {
    /// Creates a sharded engine over `machine` with `shards` contiguous
    /// node partitions, run by one worker thread per shard when
    /// `threads > 1` (and serially, still shard-by-shard, otherwise).
    ///
    /// # Panics
    /// Panics when `shards == 0` or when `config` asks for materialized
    /// routes — the sharded engine carries O(1) implicit route state only;
    /// use [`super::CongestionSim`] for materialized loads.
    pub fn new(
        machine: PhysicalMachine,
        config: CongestionConfig,
        shards: usize,
        threads: usize,
    ) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(
            config.route_source == RouteSource::Implicit,
            "the sharded engine carries O(1) implicit route state only; \
             use CongestionSim for materialized loads"
        );
        let (flow_depth, vcs, packet_flits) = match config.flow_control {
            FlowControl::Infinite => (0, 1, 1),
            FlowControl::CreditBased { buffer_depth } => {
                assert!(
                    buffer_depth >= 1,
                    "credit flow control needs at least one slot"
                );
                (buffer_depth, 1, 1)
            }
            FlowControl::VirtualChannel {
                vcs,
                buffer_depth,
                switching,
            } => {
                assert!(
                    vcs >= 1,
                    "virtual-channel flow control needs at least one VC"
                );
                assert!(
                    buffer_depth >= 1,
                    "credit flow control needs at least one slot"
                );
                let packet_flits = match switching {
                    Switching::StoreAndForward => 1,
                    Switching::Wormhole { packet_flits } => {
                        assert!(packet_flits >= 1, "wormhole packets need at least one flit");
                        packet_flits
                    }
                };
                (buffer_depth, vcs, packet_flits)
            }
        };
        let track_vc = matches!(config.flow_control, FlowControl::VirtualChannel { .. });
        let n = machine.node_count();
        let (offsets, _) = machine.graph().csr();
        let mut slot_start = Vec::with_capacity(shards + 1);
        for s in 0..=shards {
            slot_start.push(offsets[shard_floor(s, n, shards)]);
        }
        let cores = (0..shards)
            .map(|s| {
                ShardCore::new(
                    s,
                    shard_floor(s, n, shards),
                    shard_floor(s + 1, n, shards),
                    slot_start[s] as usize,
                    slot_start[s + 1] as usize,
                    n,
                    slot_start[shards] as usize,
                    shards,
                    flow_depth,
                    vcs as usize,
                    packet_flits,
                    track_vc,
                )
            })
            .collect();
        ShardedSim {
            config,
            packet_flits,
            shards,
            threads: threads.max(1),
            slot_start,
            cores,
            inject_at: Vec::new(),
            logical_target: Vec::new(),
            delivered_at: Vec::new(),
            dropped_at: Vec::new(),
            latencies: Vec::new(),
            imp_mask: 0,
            imp_place: Vec::new(),
            imp_ctx: false,
            delivered: 0,
            dropped: 0,
            live: 0,
            total_flits: 0,
            cycle: 0,
            deadlocked: false,
            open_loop_sources: 0,
            last_queued_inject: None,
            machine,
        }
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &PhysicalMachine {
        &self.machine
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Worker threads a threaded run uses (one per shard when `> 1`).
    pub fn threads(&self) -> usize {
        if self.threads > 1 && self.shards > 1 {
            self.shards
        } else {
            1
        }
    }

    /// `(injected, delivered, dropped, in_flight)` so far.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.inject_at.len() as u64,
            self.delivered,
            self.dropped,
            self.live,
        )
    }

    /// Discards the loaded workload, both fault schedules and the implicit
    /// context, keeping the machine, every buffer's capacity and each
    /// core's warmed re-route search, so one engine can `load_*` and run
    /// many workloads — the counterpart of
    /// [`super::CongestionSim::clear_workload`]. The next load may come
    /// through a different placement.
    pub fn clear_workload(&mut self) {
        for core in &mut self.cores {
            core.clear_workload();
        }
        for table in [
            &mut self.inject_at,
            &mut self.logical_target,
            &mut self.delivered_at,
            &mut self.dropped_at,
            &mut self.latencies,
        ] {
            table.clear();
        }
        self.imp_mask = 0;
        self.imp_place.clear();
        self.imp_ctx = false;
        self.delivered = 0;
        self.dropped = 0;
        self.live = 0;
        self.total_flits = 0;
        self.cycle = 0;
        self.deadlocked = false;
        self.open_loop_sources = 0;
        self.last_queued_inject = None;
    }

    /// Captures (or checks) the implicit-routing context. Unlike the single
    /// engine there is no materialized fallback, so a second load through a
    /// different placement or radix is a hard error.
    fn capture_implicit_ctx(&mut self, db: &DeBruijn2, placement: &Embedding) {
        let mask = (db.node_count() - 1) as u32;
        let identity = placement
            .as_slice()
            .iter()
            .enumerate()
            .all(|(i, &v)| i == v);
        if self.imp_ctx {
            let same_place = if identity {
                self.imp_place.is_empty()
            } else {
                self.imp_place.len() == placement.len()
                    && placement
                        .as_slice()
                        .iter()
                        .zip(self.imp_place.iter())
                        .all(|(&a, &b)| a as u32 == b)
            };
            assert!(
                self.imp_mask == mask && same_place,
                "the sharded engine cannot mix implicit contexts; route every \
                 load through one placement (CongestionSim materializes instead)"
            );
            return;
        }
        self.imp_ctx = true;
        self.imp_mask = mask;
        self.imp_place.clear();
        if !identity {
            self.imp_place
                .extend(placement.as_slice().iter().map(|&v| v as u32));
        }
    }

    /// Appends one implicit packet, mirroring the single engine's
    /// `push_packet_implicit` + `push_outcome` semantics with the hosted
    /// state placed in the home shard only. The loader has already grown
    /// every core's packet arrays past this id.
    fn push_implicit(&mut self, s: u32, t: u32, inject_cycle: u32) {
        let id = self.inject_at.len();
        let (entry, pos, rem) =
            implicit_entry_in(&self.machine, &self.imp_place, self.imp_mask, s, t);
        let zero_hop = pk_terminal(entry);
        self.inject_at.push(inject_cycle);
        self.logical_target.push(t);
        let home = shard_of(pk_node(entry), self.machine.node_count(), self.shards);
        let core = &mut self.cores[home];
        core.entry[id] = entry;
        core.imp_pos[id] = pos;
        core.imp_rem[id] = rem;
        if zero_hop && inject_cycle == 0 {
            self.delivered_at.push(0);
            self.dropped_at.push(NEVER);
            self.delivered += 1;
            self.latencies.push(0);
        } else {
            self.delivered_at.push(NEVER);
            self.dropped_at.push(NEVER);
            core.cursor[id] = IMPLICIT_ACTIVE;
            if inject_cycle == 0 {
                core.queue_now(id);
                core.in_network[id] = true;
                self.live += 1;
            } else {
                core.pending_inject.push(id as u32);
                self.last_queued_inject = Some(inject_cycle);
            }
        }
    }

    /// Records a packet that could not be routed at load time: injected and
    /// immediately dropped, like the single engine's `push_dead_packet`.
    fn push_dead(&mut self, inject_cycle: u32) {
        self.inject_at.push(inject_cycle);
        self.logical_target.push(NO_LOGICAL);
        self.delivered_at.push(NEVER);
        self.dropped_at.push(inject_cycle);
        self.dropped += 1;
    }

    /// Loads a workload of logical pairs routed with the oblivious de
    /// Bruijn scheme through `placement`; see
    /// [`super::CongestionSim::load_oblivious`]. Every packet is implicit.
    pub fn load_oblivious(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        pairs: &[(NodeId, NodeId)],
    ) {
        self.load_oblivious_packets(db, placement, pairs.iter().map(|&(s, t)| (0, s, t)));
    }

    /// The loop behind both oblivious loaders, sized once per load: every
    /// route is checked at the tier [`routing::workload_trust`] proves for
    /// the (machine, placement) pair, as in the single engine's loader.
    fn load_oblivious_packets(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        packets: impl ExactSizeIterator<Item = (u32, NodeId, NodeId)>,
    ) {
        self.capture_implicit_ctx(db, placement);
        let trust = routing::workload_trust(db, placement, &self.machine);
        let added = packets.len();
        let total = self.inject_at.len() + added;
        for core in &mut self.cores {
            core.resize_packets(total);
        }
        for table in [
            &mut self.inject_at,
            &mut self.logical_target,
            &mut self.delivered_at,
            &mut self.dropped_at,
            &mut self.latencies,
        ] {
            table.reserve(added);
        }
        let mut path = Vec::new();
        for (cycle, s, t) in packets {
            match trust.check_route(db, placement, &self.machine, s, t, &mut path) {
                Ok(()) => self.push_implicit(s as u32, t as u32, cycle),
                Err(_) => self.push_dead(cycle),
            }
        }
    }

    /// Loads an open-loop schedule of `(inject_cycle, source, target)`
    /// logical triples; see
    /// [`super::CongestionSim::load_oblivious_timed`].
    pub fn load_oblivious_timed(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        injections: &[(u32, NodeId, NodeId)],
    ) {
        assert!(
            injections
                .iter()
                .zip(injections.iter().skip(1))
                .all(|(a, b)| a.0 <= b.0),
            "injection schedule must be sorted by cycle"
        );
        if let (Some(last), Some(&(first, _, _))) = (self.last_queued_inject, injections.first()) {
            assert!(
                first >= last,
                "appended injection schedule starts at cycle {first}, before the \
                 already-queued cycle {last}"
            );
        }
        self.open_loop_sources = db.node_count() as u32;
        self.load_oblivious_packets(db, placement, injections.iter().copied());
    }

    /// Schedules processor `node` to die at the start of `cycle`. Every
    /// core carries the full schedule (hazard checks need remote deads).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn schedule_fault(&mut self, cycle: u32, node: NodeId) {
        assert!(node < self.machine.node_count(), "fault node out of range");
        for core in &mut self.cores {
            core.schedule.push((cycle, node as u32));
            core.schedule.sort_unstable();
        }
    }

    /// Schedules the directed link `from -> to` to die at the start of
    /// `cycle` — the sharded counterpart of
    /// [`super::CongestionSim::schedule_link_fault`]. Every core carries the
    /// full link schedule (the hazard check needs remote dead links); the
    /// kill's wake event stays local to the slot's owning shard.
    ///
    /// # Panics
    /// Panics when the directed link does not exist in the machine's graph.
    pub fn schedule_link_fault(&mut self, cycle: u32, from: NodeId, to: NodeId) {
        let slot = edge_slot_in(&self.machine, from, to as u32)
            // analyzer: allow(expect) -- schedule-time validation of caller input, mirroring schedule_fault's range assert; never on the cycle loop
            .expect("scheduled link fault names a missing directed link");
        self.schedule_link_fault_slot(cycle, slot);
    }

    /// Schedules the directed CSR slot `slot` to die at the start of
    /// `cycle`; see [`ShardedSim::schedule_link_fault`].
    ///
    /// # Panics
    /// Panics when `slot` is not a valid CSR slot of the machine's graph.
    pub fn schedule_link_fault_slot(&mut self, cycle: u32, slot: usize) {
        let total = self.slot_start[self.shards] as usize;
        assert!(slot < total, "fault slot out of range");
        for core in &mut self.cores {
            core.link_schedule.push((cycle, slot as u32));
            core.link_schedule.sort_unstable();
        }
    }

    /// Schedules every directed slot in `faults` to die at the start of
    /// `cycle`; the bulk form of [`ShardedSim::schedule_link_fault_slot`].
    ///
    /// # Panics
    /// Panics when `faults` was built over a different graph (slot universe
    /// mismatch).
    pub fn schedule_link_faults(&mut self, cycle: u32, faults: &LinkFaultSet) {
        let total = self.slot_start[self.shards] as usize;
        assert_eq!(
            faults.universe(),
            total,
            "link fault set universe must match the machine's slot count"
        );
        for core in &mut self.cores {
            for slot in faults.iter() {
                core.link_schedule.push((cycle, slot as u32));
            }
            core.link_schedule.sort_unstable();
        }
    }

    /// Applies one drained resolution to the global packet table. Takes the
    /// table's fields individually (not `&mut self`) so the run loops can
    /// call it while `self.cores` is mutably borrowed.
    #[allow(clippy::too_many_arguments)]
    fn apply_resolution(
        inject_at: &[u32],
        delivered_at: &mut [u32],
        dropped_at: &mut [u32],
        latencies: &mut Vec<u32>,
        delivered: &mut u64,
        dropped: &mut u64,
        live: &mut u64,
        (id, cyc, code): (u32, u32, u8),
    ) {
        let id = id as usize;
        if code & 1 == 1 {
            delivered_at[id] = cyc;
            *delivered += 1;
            latencies.push(cyc - inject_at[id]);
        } else {
            dropped_at[id] = cyc;
            *dropped += 1;
        }
        if code < RES_DROPPED_AT_INJECT {
            *live -= 1;
        }
    }

    /// Steps until cycle `horizon` (capped by `max_cycles`), the workload
    /// drains, or a hard deadlock is proven — the sharded counterpart of
    /// [`super::CongestionSim::run_until`].
    pub fn run_until(&mut self, horizon: u32) {
        let horizon = horizon.min(self.config.max_cycles);
        if self.threads > 1 && self.shards > 1 {
            self.run_threaded(horizon);
        } else {
            self.run_serial(horizon);
        }
    }

    fn run_serial(&mut self, horizon: u32) {
        while (self.live > 0 || self.cores.iter().any(|c| !c.injects_done()))
            && self.cycle < horizon
        {
            let ctx = ShardCtx {
                machine: &self.machine,
                slot_start: &self.slot_start,
                inject_at: &self.inject_at,
                logical_target: &self.logical_target,
                imp_place: &self.imp_place,
                imp_mask: self.imp_mask,
                n: self.machine.node_count(),
                shards: self.shards,
                single_port: self.machine.port_model() == PortModel::SinglePort,
                park: self.config.engine == EngineKind::WakeList,
                fault_response: self.config.fault_response,
            };
            let cycle = self.cycle;
            let mut moved = 0u64;
            let mut injected = 0u64;
            let mut rerouted = 0u64;
            for core in &mut self.cores {
                core.phase(&ctx, cycle);
                moved += core.moved;
                injected += core.injected;
                rerouted += core.rerouted;
            }
            let killed = self.cores.first().map_or(0, |c| c.killed);
            // Injections enter the network before any resolution of the
            // same cycle (the engine's in_flight += 1 at injection).
            self.live += injected;
            // The barrier: each destination core adopts its inbound traffic
            // in ascending source order (the loop nest is the `(dst, src)`
            // merge order), straight from the senders' buffers, which are
            // then emptied in place. Inbound traffic lands at the start of
            // the *next* cycle.
            for dst in 0..self.cores.len() {
                let (lower, rest) = self.cores.split_at_mut(dst);
                let Some((core, upper)) = rest.split_first_mut() else {
                    continue;
                };
                for sender in lower.iter_mut().chain(upper.iter_mut()) {
                    let out = &mut sender.out[dst];
                    core.apply_inbound(&out.flits, &out.path_words, &out.credits, cycle + 1);
                    out.clear();
                }
            }
            {
                let ShardedSim {
                    cores,
                    inject_at,
                    delivered_at,
                    dropped_at,
                    latencies,
                    delivered,
                    dropped,
                    live,
                    ..
                } = self;
                for core in cores {
                    for res in core.resolved.drain(..) {
                        Self::apply_resolution(
                            inject_at,
                            delivered_at,
                            dropped_at,
                            latencies,
                            delivered,
                            dropped,
                            live,
                            res,
                        );
                    }
                }
            }
            self.total_flits += moved * self.packet_flits as u64;
            self.cycle += 1;
            if moved == 0
                && injected == 0
                && killed == 0
                && rerouted == 0
                && self.live > 0
                && self.cores.iter().all(|c| c.fifos_drained())
                && self.cores.iter().all(|c| c.injects_done())
                && self.cores.iter().all(|c| {
                    c.schedule_pos >= c.schedule.len()
                        && c.link_schedule_pos >= c.link_schedule.len()
                })
            {
                self.deadlocked = true;
                break;
            }
        }
    }

    fn run_threaded(&mut self, horizon: u32) {
        let shards = self.shards;
        let pf = self.packet_flits as u64;
        let mut any_pending = self.cores.iter().any(|c| !c.injects_done());
        let ShardedSim {
            machine,
            config,
            slot_start,
            cores,
            inject_at,
            logical_target,
            delivered_at,
            dropped_at,
            latencies,
            imp_mask,
            imp_place,
            delivered,
            dropped,
            live,
            total_flits,
            cycle,
            deadlocked,
            ..
        } = self;
        let ctx = ShardCtx {
            machine,
            slot_start,
            inject_at,
            logical_target,
            imp_place,
            imp_mask: *imp_mask,
            n: machine.node_count(),
            shards,
            single_port: machine.port_model() == PortModel::SinglePort,
            park: config.engine == EngineKind::WakeList,
            fault_response: config.fault_response,
        };
        let scope_result = crossbeam::scope(|s| {
            let (res_tx, res_rx) = crossbeam::channel::unbounded::<Option<WorkerOut>>();
            let mut cmd_txs = Vec::with_capacity(shards);
            for (shard, core) in cores.iter_mut().enumerate() {
                let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded::<WorkerCmd>();
                cmd_txs.push(cmd_tx);
                let res_tx = res_tx.clone();
                let ctx = &ctx;
                s.spawn(move |_| worker_loop(shard as u32, core, ctx, &cmd_rx, &res_tx));
            }
            drop(res_tx);
            let mut inbound_flits: Vec<Vec<Flit>> = (0..shards).map(|_| Vec::new()).collect();
            let mut inbound_words: Vec<Vec<u64>> = (0..shards).map(|_| Vec::new()).collect();
            let mut inbound_credits: Vec<Vec<u32>> = (0..shards).map(|_| Vec::new()).collect();
            'run: while (*live > 0 || any_pending) && *cycle < horizon {
                for (shard, tx) in cmd_txs.iter().enumerate() {
                    let cmd = WorkerCmd::Cycle {
                        cycle: *cycle,
                        flits: std::mem::take(&mut inbound_flits[shard]),
                        path_words: std::mem::take(&mut inbound_words[shard]),
                        credits: std::mem::take(&mut inbound_credits[shard]),
                    };
                    if tx.send(cmd).is_err() {
                        break 'run;
                    }
                }
                let mut outs: Vec<WorkerOut> = Vec::with_capacity(shards);
                for _ in 0..shards {
                    match res_rx.recv() {
                        Ok(Some(o)) => outs.push(o),
                        Ok(None) | Err(_) => break 'run,
                    }
                }
                outs.sort_by_key(|o| o.shard);
                let moved: u64 = outs.iter().map(|o| o.moved).sum();
                let injected: u64 = outs.iter().map(|o| o.injected).sum();
                let rerouted: u64 = outs.iter().map(|o| o.rerouted).sum();
                let killed = outs.first().map_or(0, |o| o.killed);
                any_pending = outs.iter().any(|o| !o.injects_done);
                let all_pending_empty = outs.iter().all(|o| o.pending_empty);
                let all_schedule_done = outs.iter().all(|o| o.schedule_done);
                *live += injected;
                for o in &mut outs {
                    for res in o.resolved.drain(..) {
                        Self::apply_resolution(
                            inject_at,
                            delivered_at,
                            dropped_at,
                            latencies,
                            delivered,
                            dropped,
                            live,
                            res,
                        );
                    }
                }
                let mut batches: Vec<BoundaryBatch> =
                    outs.iter_mut().flat_map(|o| o.batches.drain(..)).collect();
                batches.sort_by_key(|b| (b.dst, b.src));
                let mut credits_shipped = false;
                for b in batches {
                    if !b.credits.is_empty() {
                        credits_shipped = true;
                    }
                    inbound_flits[b.dst as usize].extend(b.flits);
                    inbound_words[b.dst as usize].extend(b.path_words);
                    inbound_credits[b.dst as usize].extend(b.credits);
                }
                *total_flits += moved * pf;
                *cycle += 1;
                // The workers report their timed-FIFO state *before* the
                // barrier; pre-barrier-drained plus nothing shipped is
                // exactly the single engine's post-return emptiness check
                // (and shipped flits imply `moved > 0` anyway).
                if moved == 0
                    && injected == 0
                    && killed == 0
                    && rerouted == 0
                    && *live > 0
                    && all_pending_empty
                    && !credits_shipped
                    && !any_pending
                    && all_schedule_done
                {
                    *deadlocked = true;
                    break 'run;
                }
            }
            // Flush the last barrier's traffic so the cores are left in a
            // consistent post-barrier state, then join the workers.
            for (shard, tx) in cmd_txs.iter().enumerate() {
                let flits = std::mem::take(&mut inbound_flits[shard]);
                let path_words = std::mem::take(&mut inbound_words[shard]);
                let credits = std::mem::take(&mut inbound_credits[shard]);
                if !flits.is_empty() || !credits.is_empty() {
                    let _ = tx.send(WorkerCmd::Apply {
                        now: *cycle,
                        flits,
                        path_words,
                        credits,
                    });
                }
                let _ = tx.send(WorkerCmd::Stop);
            }
        });
        if let Err(payload) = scope_result {
            std::panic::resume_unwind(payload);
        }
    }

    /// Steps until the workload drains, `max_cycles` is hit, or the network
    /// hard-deadlocks.
    pub fn run_to_quiescence(&mut self) {
        self.run_until(self.config.max_cycles);
    }

    /// Runs to quiescence and returns the final report.
    pub fn run(&mut self) -> CongestionReport {
        self.run_to_quiescence();
        self.report()
    }

    /// The report for the run so far — byte-identical to the single-table
    /// engine's for the same workload, any shard/thread count.
    pub fn report(&mut self) -> CongestionReport {
        // Resolution order varies with the shard cut; the multiset of
        // latencies does not. A full sort (idempotent) restores the
        // canonical form the summary is computed from.
        self.latencies.sort_unstable();
        // Per-VC counters are element-wise sums over the cores (u64 adds
        // commute, so the shard cut is invisible); still-open blocked spans
        // are folded in from each packet's unique hosting core, exactly
        // like the single engine's report-time scan.
        let first = self.cores.first();
        let track_vc = first.is_some_and(|c| c.track_vc);
        let vcs = first.map_or(0, |c| if c.track_vc { c.vcs } else { 0 });
        let mut vc_flits = vec![0u64; vcs];
        let mut vc_hol = vec![0u64; vcs];
        if track_vc {
            for core in &self.cores {
                for (acc, v) in vc_flits.iter_mut().zip(&core.vc_flits) {
                    *acc += v;
                }
                for (acc, v) in vc_hol.iter_mut().zip(&core.vc_hol_blocked_cycles) {
                    *acc += v;
                }
                for id in 0..core.in_network.len() {
                    if core.in_network[id] && core.blocked_since[id] != NEVER {
                        vc_hol[core.vc[id] as usize] +=
                            (self.cycle - core.blocked_since[id]) as u64;
                    }
                }
            }
        }
        CongestionReport {
            cycles: self.cycle,
            injected: self.inject_at.len() as u64,
            delivered: self.delivered,
            dropped: self.dropped,
            total_flits: self.total_flits,
            completed: self.live == 0 && self.cores.iter().all(|c| c.injects_done()),
            deadlocked: self.deadlocked,
            vc_flits,
            vc_hol_blocked_cycles: vc_hol,
            latency: LatencySummary::from_sorted(&self.latencies),
        }
    }

    /// Per-packet outcome; see [`super::CongestionSim::packet_outcome`].
    pub fn packet_outcome(&self, id: usize) -> (u32, Option<u32>, Option<u32>) {
        let lift = |c: u32| if c == NEVER { None } else { Some(c) };
        (
            self.inject_at[id],
            lift(self.delivered_at[id]),
            lift(self.dropped_at[id]),
        )
    }

    /// Bytes of heap capacity devoted to per-packet route state across all
    /// cores — the sharded counterpart of
    /// [`super::CongestionSim::route_state_bytes`]. O(packets) for the
    /// implicit workloads this engine carries (re-route spills add the
    /// materialized exception).
    pub fn route_state_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_core: usize = self
            .cores
            .iter()
            .map(|c| {
                (c.arena.capacity() + c.entry.capacity()) * size_of::<u64>()
                    + (c.imp_pos.capacity()
                        + c.imp_rem.capacity()
                        + c.cursor.capacity()
                        + c.seg_end.capacity())
                        * size_of::<u32>()
            })
            .sum();
        per_core + (self.logical_target.capacity() + self.imp_place.capacity()) * size_of::<u32>()
    }
}

/// The persistent per-shard worker: applies the previous barrier's inbound
/// traffic, runs the cycle phase, and reports. A panic anywhere in the
/// cycle work sends `None` first so the driver never blocks on a dead
/// worker, then re-raises (the scope join carries it to the caller).
fn worker_loop(
    shard: u32,
    core: &mut ShardCore,
    ctx: &ShardCtx<'_>,
    cmd_rx: &crossbeam::channel::Receiver<WorkerCmd>,
    res_tx: &crossbeam::channel::Sender<Option<WorkerOut>>,
) {
    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            WorkerCmd::Cycle {
                cycle,
                flits,
                path_words,
                credits,
            } => {
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    core.apply_inbound(&flits, &path_words, &credits, cycle);
                    core.phase(ctx, cycle);
                    WorkerOut {
                        shard,
                        moved: core.moved,
                        injected: core.injected,
                        killed: core.killed,
                        rerouted: core.rerouted,
                        resolved: std::mem::take(&mut core.resolved),
                        batches: core.take_batches(),
                        pending_empty: core.fifos_drained(),
                        injects_done: core.injects_done(),
                        schedule_done: core.schedule_pos >= core.schedule.len()
                            && core.link_schedule_pos >= core.link_schedule.len(),
                    }
                }));
                match out {
                    Ok(o) => {
                        if res_tx.send(Some(o)).is_err() {
                            return;
                        }
                    }
                    Err(payload) => {
                        let _ = res_tx.send(None);
                        std::panic::resume_unwind(payload);
                    }
                }
            }
            WorkerCmd::Apply {
                now,
                flits,
                path_words,
                credits,
            } => core.apply_inbound(&flits, &path_words, &credits, now),
            WorkerCmd::Stop => return,
        }
    }
}

impl CongestionEngine for ShardedSim {
    fn run_until(&mut self, horizon: u32) {
        ShardedSim::run_until(self, horizon);
    }
    fn counts(&self) -> (u64, u64, u64, u64) {
        ShardedSim::counts(self)
    }
    fn packet_outcome(&self, id: usize) -> (u32, Option<u32>, Option<u32>) {
        ShardedSim::packet_outcome(self, id)
    }
    fn cycle(&self) -> u32 {
        ShardedSim::cycle(self)
    }
    fn deadlocked(&self) -> bool {
        self.deadlocked
    }
    fn open_loop_sources(&self) -> u32 {
        self.open_loop_sources
    }
    fn node_count(&self) -> usize {
        self.machine.node_count()
    }
    fn report(&mut self) -> CongestionReport {
        ShardedSim::report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::measure_open_loop;
    use super::*;
    use crate::workload;
    use rand::SeedableRng;

    fn machine_for(h: usize, port: PortModel) -> (DeBruijn2, PhysicalMachine) {
        let db = DeBruijn2::new(h);
        let machine = PhysicalMachine::new(db.graph().clone(), port);
        (db, machine)
    }

    fn single_report(
        db: &DeBruijn2,
        port: PortModel,
        config: CongestionConfig,
        pairs: &[(NodeId, NodeId)],
    ) -> CongestionReport {
        let machine = PhysicalMachine::new(db.graph().clone(), port);
        let mut sim = super::super::CongestionSim::new(machine, config);
        sim.load_oblivious(db, &Embedding::identity(db.node_count()), pairs);
        sim.run()
    }

    fn sharded_report(
        db: &DeBruijn2,
        port: PortModel,
        config: CongestionConfig,
        pairs: &[(NodeId, NodeId)],
        shards: usize,
        threads: usize,
    ) -> CongestionReport {
        let machine = PhysicalMachine::new(db.graph().clone(), port);
        let mut sim = ShardedSim::new(machine, config, shards, threads);
        sim.load_oblivious(db, &Embedding::identity(db.node_count()), pairs);
        sim.run()
    }

    /// Field-by-field equality over every public `CongestionReport` field,
    /// naming the diverging field. The destructuring is exhaustive (no
    /// `..`), so a new report field fails to compile here until it is
    /// compared — and `ftdb-analyzer`'s `diff-coverage` audit holds this
    /// file, as the sharded determinism suite, to the same bar as the
    /// engine-vs-rescan suite.
    fn assert_report_fields_equal(sharded: &CongestionReport, single: &CongestionReport) {
        let CongestionReport {
            cycles,
            injected,
            delivered,
            dropped,
            total_flits,
            completed,
            deadlocked,
            vc_flits,
            vc_hol_blocked_cycles,
            latency,
        } = sharded;
        assert_eq!(*cycles, single.cycles, "cycles diverged");
        assert_eq!(*injected, single.injected, "injected diverged");
        assert_eq!(*delivered, single.delivered, "delivered diverged");
        assert_eq!(*dropped, single.dropped, "dropped diverged");
        assert_eq!(*total_flits, single.total_flits, "total_flits diverged");
        assert_eq!(*completed, single.completed, "completed diverged");
        assert_eq!(*deadlocked, single.deadlocked, "deadlocked diverged");
        assert_eq!(*vc_flits, single.vc_flits, "vc_flits diverged");
        assert_eq!(
            *vc_hol_blocked_cycles, single.vc_hol_blocked_cycles,
            "vc_hol_blocked_cycles diverged"
        );
        assert_eq!(*latency, single.latency, "latency summary diverged");
    }

    #[test]
    fn matches_single_engine_on_healthy_permutation() {
        let (db, _) = machine_for(5, PortModel::MultiPort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let pairs = workload::permutation_pairs(n, &mut rng);
        for port in [PortModel::MultiPort, PortModel::SinglePort] {
            let config = CongestionConfig::default();
            let want = single_report(&db, port, config, &pairs);
            assert_eq!(want.delivered, n as u64);
            for shards in 1..=4 {
                let got = sharded_report(&db, port, config, &pairs, shards, 1);
                assert_report_fields_equal(&got, &want);
                assert_eq!(got, want, "shards={shards} port={port:?}");
            }
        }
    }

    #[test]
    fn matches_single_engine_under_credit_flow_hotspot() {
        let (db, _) = machine_for(4, PortModel::SinglePort);
        let n = db.node_count();
        let pairs = workload::all_to_one(n, 3);
        for depth in [1u32, 2] {
            let config = CongestionConfig {
                flow_control: FlowControl::CreditBased {
                    buffer_depth: depth,
                },
                ..CongestionConfig::default()
            };
            let want = single_report(&db, PortModel::SinglePort, config, &pairs);
            for shards in [1usize, 2, 3, 4] {
                let got = sharded_report(&db, PortModel::SinglePort, config, &pairs, shards, 1);
                assert_report_fields_equal(&got, &want);
                assert_eq!(got, want, "depth={depth} shards={shards}");
            }
        }
    }

    #[test]
    fn matches_single_engine_under_vc_wormhole_hotspot() {
        // Virtual channels and wormhole trains exercise every new barrier
        // path at once: per-(link, vc) credit returns shipped across shards,
        // timed credit dues surviving the barrier, VC labels riding Flit
        // migrations, and multi-cycle link holds spanning a cycle boundary.
        // The vcs = 2 / depth = 1 rows drain a workload that deadlocks the
        // vcs = 1 rows, so both the draining and the wedged fixed points are
        // checked for byte-identical reports.
        let (db, _) = machine_for(4, PortModel::SinglePort);
        let n = db.node_count();
        let pairs = workload::all_to_one(n, 3);
        for vcs in [1u32, 2, 4] {
            for switching in [
                Switching::StoreAndForward,
                Switching::Wormhole { packet_flits: 3 },
            ] {
                let config = CongestionConfig {
                    flow_control: FlowControl::VirtualChannel {
                        vcs,
                        buffer_depth: 1,
                        switching,
                    },
                    ..CongestionConfig::default()
                };
                let want = single_report(&db, PortModel::SinglePort, config, &pairs);
                for shards in [1usize, 2, 3, 4] {
                    let got = sharded_report(&db, PortModel::SinglePort, config, &pairs, shards, 1);
                    assert_report_fields_equal(&got, &want);
                    assert_eq!(got, want, "vcs={vcs} {switching:?} shards={shards}");
                }
                let got = sharded_report(&db, PortModel::SinglePort, config, &pairs, 4, 2);
                assert_report_fields_equal(&got, &want);
                assert_eq!(got, want, "vcs={vcs} {switching:?} threaded");
            }
        }
    }

    #[test]
    fn a_reroute_only_cycle_is_not_a_deadlock_in_any_configuration() {
        // 0 -> 4 on B(2,5) routes 0 -> 1 -> 2 -> 4, and node 2 dies at
        // cycle 0: at cycle 1 the packet only re-routes, which every
        // configuration must count as activity.
        let (db, _) = machine_for(5, PortModel::MultiPort);
        let config = CongestionConfig {
            fault_response: FaultResponse::RerouteAdaptive,
            ..CongestionConfig::default()
        };
        let placement = Embedding::identity(db.node_count());
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut single = super::super::CongestionSim::new(machine, config);
        single.load_oblivious(&db, &placement, &[(0, 4)]);
        single.schedule_fault(0, 2);
        let want = single.run();
        assert!(!want.deadlocked && want.delivered == 1, "{want:?}");
        for (shards, threads) in [(1usize, 1usize), (2, 1), (2, 2)] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = ShardedSim::new(machine, config, shards, threads);
            sim.load_oblivious(&db, &placement, &[(0, 4)]);
            sim.schedule_fault(0, 2);
            let got = sim.run();
            assert_report_fields_equal(&got, &want);
            assert_eq!(got, want, "shards={shards} threads={threads}");
        }
    }

    #[test]
    fn matches_single_engine_with_mid_run_faults_both_responses() {
        let (db, _) = machine_for(5, PortModel::SinglePort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let pairs = workload::uniform_pairs(n, 2 * n, &mut rng);
        for response in [FaultResponse::Drop, FaultResponse::RerouteAdaptive] {
            let config = CongestionConfig {
                fault_response: response,
                ..CongestionConfig::default()
            };
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
            let mut want = super::super::CongestionSim::new(machine, config);
            want.load_oblivious(&db, &Embedding::identity(n), &pairs);
            want.schedule_fault(2, 3);
            want.schedule_fault(4, 17);
            let want = want.run();
            for shards in [2usize, 3] {
                let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
                let mut got = ShardedSim::new(machine, config, shards, 1);
                got.load_oblivious(&db, &Embedding::identity(n), &pairs);
                got.schedule_fault(2, 3);
                got.schedule_fault(4, 17);
                let got = got.run();
                assert_report_fields_equal(&got, &want);
                assert_eq!(got, want, "response={response:?} shards={shards}");
            }
        }
    }

    #[test]
    fn open_loop_report_matches_across_shards_and_threads() {
        let (db, _) = machine_for(5, PortModel::SinglePort);
        let n = db.node_count();
        let spec = crate::workload::OpenLoopSpec {
            offered_load: 0.30,
            process: crate::workload::InjectionProcess::Bernoulli,
            warmup_cycles: 16,
            measure_cycles: 32,
            drain_cycles: 256,
            seed: 9,
        };
        let injections = crate::workload::open_loop_injections(n, &spec);
        let config = CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 2 },
            ..CongestionConfig::default()
        };
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
        let mut sim = super::super::CongestionSim::new(machine, config);
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
        sim.schedule_fault(20, 5);
        let want = measure_open_loop(&mut sim, &spec);
        for (shards, threads) in [(2usize, 1usize), (3, 1), (2, 2), (3, 3)] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
            let mut sharded = ShardedSim::new(machine, config, shards, threads);
            sharded.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            sharded.schedule_fault(20, 5);
            let got = measure_open_loop(&mut sharded, &spec);
            assert_eq!(got, want, "shards={shards} threads={threads}");
        }
    }

    #[test]
    fn threaded_run_matches_serial_run() {
        let (db, _) = machine_for(6, PortModel::MultiPort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
        let config = CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 1 },
            ..CongestionConfig::default()
        };
        let serial = sharded_report(&db, PortModel::MultiPort, config, &pairs, 4, 1);
        let threaded = sharded_report(&db, PortModel::MultiPort, config, &pairs, 4, 4);
        assert_report_fields_equal(&threaded, &serial);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn deadlock_is_detected_identically() {
        // A 2-cycle of mutual traffic under depth-1 buffers wedges; both
        // engines must agree on the deadlocked flag and the cycle count.
        let (db, _) = machine_for(3, PortModel::MultiPort);
        let n = db.node_count();
        let mut pairs = Vec::new();
        for s in 0..n {
            pairs.push((s, (s + n / 2) % n));
            pairs.push((s, (s + n / 2 + 1) % n));
            pairs.push(((s + 1) % n, (s + n / 2) % n));
        }
        let config = CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 1 },
            ..CongestionConfig::default()
        };
        let want = single_report(&db, PortModel::MultiPort, config, &pairs);
        for shards in [2usize, 4] {
            for threads in [1usize, 2] {
                let got =
                    sharded_report(&db, PortModel::MultiPort, config, &pairs, shards, threads);
                assert_report_fields_equal(&got, &want);
                assert_eq!(got, want, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn short_placement_drops_unplaced_routes_at_load() {
        // identity(8) maps half of B(2,4): routes that leave it drop at load
        // instead of panicking, exactly as in the single engine. The timed
        // load appends to the batch load, so the per-load table growth is
        // exercised across two loads.
        let (db, machine) = machine_for(4, PortModel::MultiPort);
        let short = Embedding::identity(8);
        let pairs = [(3, 12), (0, 5)];
        let injections = [(2, 9, 1), (3, 0, 3)];
        let mut want =
            super::super::CongestionSim::new(machine.clone(), CongestionConfig::default());
        want.load_oblivious(&db, &short, &pairs);
        want.load_oblivious_timed(&db, &short, &injections);
        let want = want.run();
        assert_eq!((want.injected, want.delivered, want.dropped), (4, 2, 2));
        for shards in [1usize, 2, 3] {
            let mut got = ShardedSim::new(machine.clone(), CongestionConfig::default(), shards, 1);
            got.load_oblivious(&db, &short, &pairs);
            got.load_oblivious_timed(&db, &short, &injections);
            let got = got.run();
            assert_report_fields_equal(&got, &want);
            assert_eq!(got, want, "shards={shards}");
        }
    }

    /// One load of the reuse sequence: pairs routed through a placement
    /// (or, when `timed` is set, that open-loop schedule instead), with
    /// node and link kills fired at cycle 2.
    struct Load<'a> {
        placement: &'a Embedding,
        pairs: &'a [(NodeId, NodeId)],
        timed: Option<&'a [(u32, NodeId, NodeId)]>,
        kills: &'a [NodeId],
        links: Option<&'a LinkFaultSet>,
    }

    /// Every packet's `(injected, delivered, dropped)` stamps, by id.
    type Outcomes = Vec<(u32, Option<u32>, Option<u32>)>;

    /// Runs `sim` to the end and returns its report, the report's `Debug`
    /// text and every packet's outcome.
    fn observe(sim: &mut impl CongestionEngine) -> (CongestionReport, String, Outcomes) {
        sim.run_until(u32::MAX);
        let report = sim.report();
        let text = format!("{report:?}");
        let outcomes = (0..sim.counts().0 as usize)
            .map(|id| sim.packet_outcome(id))
            .collect();
        (report, text, outcomes)
    }

    fn load_sharded(sim: &mut ShardedSim, db: &DeBruijn2, load: &Load<'_>) {
        match load.timed {
            Some(injections) => sim.load_oblivious_timed(db, load.placement, injections),
            None => sim.load_oblivious(db, load.placement, load.pairs),
        }
        for &node in load.kills {
            sim.schedule_fault(2, node);
        }
        if let Some(links) = load.links {
            sim.schedule_link_faults(2, links);
        }
    }

    fn load_single(sim: &mut super::super::CongestionSim, db: &DeBruijn2, load: &Load<'_>) {
        match load.timed {
            Some(injections) => sim.load_oblivious_timed(db, load.placement, injections),
            None => sim.load_oblivious(db, load.placement, load.pairs),
        }
        for &node in load.kills {
            sim.schedule_fault(2, node);
        }
        if let Some(links) = load.links {
            sim.schedule_link_faults(2, links);
        }
    }

    #[test]
    fn a_reused_engine_matches_fresh_engines_across_workloads() {
        // One engine per (flow control, port model, shards, threads) runs
        // the sequence twice with `clear_workload` between loads, and every
        // run must equal a fresh ShardedSim and the single-table engine on
        // the same load. The complement map is a de Bruijn automorphism, so
        // its load routes through a non-identity placement: without the
        // clear, `capture_implicit_ctx` rejects it after the identity loads
        // (and the identity loads after it). The open-loop load leaves its
        // injection queue behind, and on the second pass its schedule
        // starts before the one already queued.
        let db = DeBruijn2::new(6);
        let n = db.node_count();
        let identity = Embedding::identity(n);
        let complement = Embedding::from_map((0..n).map(|v| n - 1 - v).collect());
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let perm = workload::permutation_pairs(n, &mut rng);
        let hot = workload::all_to_one(n, 5);
        let burst = LinkFaultSet::burst(db.graph(), 20, 2).expect("burst center in range");
        let open_loop = workload::open_loop_injections(
            n,
            &workload::OpenLoopSpec {
                offered_load: 0.2,
                process: workload::InjectionProcess::Bernoulli,
                warmup_cycles: 4,
                measure_cycles: 8,
                drain_cycles: 64,
                seed: 3,
            },
        );
        let loads = [
            Load {
                placement: &identity,
                pairs: &perm,
                timed: None,
                kills: &[],
                links: None,
            },
            Load {
                placement: &identity,
                pairs: &perm,
                timed: None,
                kills: &[],
                links: Some(&burst),
            },
            Load {
                placement: &identity,
                pairs: &perm,
                timed: None,
                kills: &[9, 30, 41],
                links: None,
            },
            Load {
                placement: &identity,
                pairs: &hot,
                timed: None,
                kills: &[],
                links: None,
            },
            Load {
                placement: &complement,
                pairs: &perm,
                timed: None,
                kills: &[12],
                links: None,
            },
            Load {
                placement: &identity,
                pairs: &[],
                timed: Some(&open_loop),
                kills: &[33],
                links: None,
            },
        ];
        let flows = [
            FlowControl::Infinite,
            FlowControl::CreditBased { buffer_depth: 1 },
            FlowControl::VirtualChannel {
                vcs: 2,
                buffer_depth: 1,
                switching: Switching::Wormhole { packet_flits: 3 },
            },
        ];
        for (flow_control, port) in flows
            .into_iter()
            .flat_map(|f| [(f, PortModel::MultiPort), (f, PortModel::SinglePort)])
        {
            let config = CongestionConfig {
                flow_control,
                fault_response: FaultResponse::RerouteAdaptive,
                ..CongestionConfig::default()
            };
            let machine = PhysicalMachine::new(db.graph().clone(), port);
            for (shards, threads) in [(2usize, 1usize), (2, 2), (4, 1), (4, 2)] {
                let mut reused = ShardedSim::new(machine.clone(), config, shards, threads);
                for (i, load) in loads.iter().chain(&loads).enumerate() {
                    let what = format!(
                        "{flow_control:?} {port:?} shards={shards} threads={threads} load={i}"
                    );
                    reused.clear_workload();
                    load_sharded(&mut reused, &db, load);
                    let got = observe(&mut reused);
                    let mut fresh = ShardedSim::new(machine.clone(), config, shards, threads);
                    load_sharded(&mut fresh, &db, load);
                    let fresh = observe(&mut fresh);
                    let mut single = super::super::CongestionSim::new(machine.clone(), config);
                    load_single(&mut single, &db, load);
                    let single = observe(&mut single);
                    if i == 3 && flow_control == (FlowControl::CreditBased { buffer_depth: 1 }) {
                        // The depth-1 hot spot wedges within a few cycles,
                        // before the claim expiries the node-kill load left
                        // behind fall due, and keeps packets parked, which
                        // the next load must not inherit.
                        assert!(got.0.deadlocked, "{what}: hot spot drained");
                    }
                    for want in [&fresh, &single] {
                        assert_report_fields_equal(&got.0, &want.0);
                        assert_eq!(got.1, want.1, "{what}: report text");
                        assert_eq!(got.2, want.2, "{what}: packet outcomes");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "implicit route state only")]
    fn materialized_loads_are_rejected() {
        let (_, machine) = machine_for(3, PortModel::MultiPort);
        let config = CongestionConfig {
            route_source: RouteSource::Materialized,
            ..CongestionConfig::default()
        };
        let _ = ShardedSim::new(machine, config, 2, 1);
    }

    #[test]
    fn route_state_is_o_packets_not_o_packets_times_h() {
        let (db, machine) = machine_for(10, PortModel::MultiPort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let mut sim = ShardedSim::new(machine, CongestionConfig::default(), 4, 1);
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        let bytes = sim.route_state_bytes();
        // 4 cores x (8B entry + 16B registers/cursor/seg_end) per packet
        // plus the driver's 4B logical target: comfortably under 192B per
        // packet, independent of h = 10 (a materialized load would add
        // ~8 x 11B of path entries per packet on top).
        assert!(
            bytes < pairs.len() * 192,
            "route state {bytes}B for {} packets",
            pairs.len()
        );
        let report = sim.run();
        assert_eq!(report.delivered, n as u64);
    }
}
