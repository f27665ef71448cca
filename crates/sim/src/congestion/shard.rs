//! The congestion engine's one cycle kernel: [`ShardedSim`] partitions the
//! machine's nodes into contiguous label ranges (the de Bruijn prefix cut,
//! see the private `boundary` module), runs one wake-list core
//! (`ShardCore`) per shard, and exchanges boundary flits and credit returns
//! at cycle barriers. With one shard there is no barrier traffic at all,
//! and that configuration is [`super::CongestionSim`]. Its
//! [`CongestionReport`] is byte-identical for any shard count and thread
//! count, and equal to what the reference model of the cycle rules
//! (`tests/model.rs`) computes — enforced by the differential suite, the
//! golden outputs of `tests/tests/engine_golden.rs` and the CI
//! shard-determinism job.
//!
//! [`ShardedSim::step`] is the only cycle body at every thread count.
//! Threads change only where per-core work runs: on `min(threads, shards)`
//! scoped workers, each owning a contiguous group of cores. The barrier's
//! buffer swap, the resolution drain and the stop rule run on the calling
//! thread.
//!
//! Why equivalence holds: every resource a packet contends for in a cycle —
//! its node's output port, its outgoing link's claim stamp, that link's
//! per-VC downstream credits — is a function of the packet's *current*
//! node, so it is owned by exactly one shard and arbitration never races.
//! Per-shard examination in ascending packet id equals the global id order
//! restricted to each shard, and winners are decided per-resource, so
//! splitting the scan changes nothing. Credit returns take effect at least
//! one cycle late (`packet_flits` cycles under wormhole — the timed credit
//! FIFO), which makes barrier shipping invisible: a credit generated at
//! cycle `c` is due at `c + packet_flits`, and the barrier delivers it to
//! its owner before the phase of cycle `c + 1 <= c + packet_flits`: one
//! FIFO entry and one head wake per credit, wherever it was generated. A
//! migrating packet is examined again only on the following cycle, exactly
//! like a mover that stays on its shard; its VC index rides in the `Flit`.
//!
//! Route state: an oblivious packet rides the shared implicit context
//! (`ImplicitRoute`, O(1) state per packet). Materialized paths — a
//! second load through a different placement, and mid-run re-routes —
//! live in the arena of the core that hosts the packet and travel in the
//! barrier's path words when it migrates.
//!
//! One engine can serve many workloads: [`ShardedSim::clear_workload`]
//! drops the loaded workload and both fault schedules but keeps the
//! machine, every buffer's capacity, the per-destination boundary buffers
//! and each core's warmed re-route [`Searcher`].

use super::boundary::{shard_floor, shard_of, BoundaryBatch, Flit};
use super::engine::{
    pk, pk_node, pk_slot, pk_terminal, CongestionConfig, CongestionReport, CycleEvents,
    FaultResponse, FlowControl, LinkGate, Switching, DELIVERS, IMPLICIT_ACTIVE, NEVER, NONE_ID,
    NO_LOGICAL, NO_SLOT,
};
use super::implicit_route::{self, ImplicitRoute};
use crate::machine::{PhysicalMachine, PortModel, SimError};
use crate::metrics::LatencySummary;
use crate::routing;
use ftdb_core::parallel::fan_out;
use ftdb_core::{FaultSet, LinkFaultSet};
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

/// The stop rule: whether the cycle `events` summarizes proves a hard
/// deadlock. It is proven, not guessed — only possible under bounded-buffer
/// flow control: a cycle in which nothing moved, was injected, was killed
/// or was re-routed, with live packets left, no injection still queued,
/// and (`timers_idle`) no timed credit return or claim expiry in flight and
/// no fault still scheduled, can never be followed by a different one. A
/// re-routed packet moves in a later cycle, so a re-route is activity; its
/// new path avoids every dead node and link, so a packet re-routes at most
/// once per fault epoch and every run still terminates.
// analyzer: alloc-free
fn proves_deadlock(events: &CycleEvents, timers_idle: bool) -> bool {
    events.moved == 0
        && events.injected == 0
        && events.faults_fired == 0
        && events.rerouted == 0
        && events.live > 0
        && events.pending_injections == 0
        && timers_idle
}

/// Appends `nodes` to `arena` as a packed path — consecutive duplicates
/// (artifacts of non-injective placements) collapsed, since they cost no
/// cycle and no link — and returns its `[start, end)` bounds.
fn spill(arena: &mut Vec<u64>, machine: &PhysicalMachine, nodes: &[NodeId]) -> (u32, u32) {
    let start = arena.len();
    for &node in nodes {
        if arena.len() == start || arena.last().map_or(true, |&t| pk_node(t) != node) {
            arena.push(node as u64);
        }
    }
    pack_hop_slots(&mut arena[start..], machine);
    (start as u32, arena.len() as u32)
}

/// Fills the packed hop slots of a path (the final entry keeps `NO_SLOT`;
/// the hop onto it carries `DELIVERS`). The links were validated when the
/// route was computed, so a missing slot here is a loader or search bug.
fn pack_hop_slots(path: &mut [u64], machine: &PhysicalMachine) {
    let len = path.len();
    for i in 0..len.saturating_sub(1) {
        let u = pk_node(path[i]);
        let v = pk_node(path[i + 1]);
        let slot = machine
            .graph()
            .edge_slot(u, v)
            // analyzer: allow(expect) -- every loaded or re-routed path was computed against this CSR, so a missing slot is a loader bug; aborting beats simulating a phantom link
            .expect("routes only traverse physical links");
        let delivers = if i + 2 == len { DELIVERS } else { 0 };
        path[i] = pk(u as u32, slot as u32) | delivers;
    }
    if let Some(last) = path.last_mut() {
        *last = pk(pk_node(*last) as u32, NO_SLOT);
    }
}

/// Read-only cycle context shared by every shard core and every worker
/// thread.
struct ShardCtx<'a> {
    machine: &'a PhysicalMachine,
    /// First global CSR slot of each shard; length `shards + 1`.
    slot_start: &'a [u32],
    inject_at: &'a [u32],
    logical_target: &'a [u32],
    /// The engine's implicit context, shared read-only by every core.
    implicit: &'a ImplicitRoute,
    /// The engine's kills; only [`ShardedSim::fire_due_faults`] fires them.
    node_kills: &'a Kills,
    link_kills: &'a Kills,
    n: usize,
    shards: usize,
    single_port: bool,
    fault_response: FaultResponse,
}

impl ShardCtx<'_> {
    /// Whether `node` is usable (healthy in the static fault set and not
    /// killed by the dynamic schedule).
    // analyzer: alloc-free
    fn is_alive(&self, node: NodeId) -> bool {
        self.machine.is_healthy(node) && !self.node_kills.dead[node]
    }
}

/// One of the engine's two kill schedules — processors or directed CSR
/// slots — with the mask and list of the ids it has killed. The engine
/// holds each once; every core reads them through [`ShardCtx`].
#[derive(Default)]
struct Kills {
    /// `(cycle, id)` kills: the first `fired` have fired, and the rest are
    /// sorted by cycle.
    schedule: Vec<(u32, u32)>,
    fired: usize,
    /// Dead mask over the id universe, and the ids it marks in firing order.
    dead: Vec<bool>,
    list: Vec<u32>,
}

impl Kills {
    fn new(universe: usize) -> Self {
        Kills {
            dead: vec![false; universe],
            ..Kills::default()
        }
    }

    /// Adds kills to the unfired tail, keeping it sorted: a kill for a
    /// cycle already simulated fires at the next step.
    fn schedule(&mut self, kills: impl IntoIterator<Item = (u32, u32)>) {
        self.schedule.extend(kills);
        self.schedule[self.fired..].sort_unstable();
    }

    /// Fires the kills due by `cycle` and returns how many ids died (an id
    /// killed twice dies once).
    fn fire(&mut self, cycle: u32) -> usize {
        let before = self.list.len();
        while let Some(&(_, id)) = self.schedule.get(self.fired).filter(|k| k.0 <= cycle) {
            self.fired += 1;
            if !self.dead[id as usize] {
                self.dead[id as usize] = true;
                self.list.push(id);
            }
        }
        self.list.len() - before
    }

    /// Whether every scheduled kill has fired.
    // analyzer: alloc-free
    fn idle(&self) -> bool {
        self.fired >= self.schedule.len()
    }

    /// Drops the schedule and revives every id on the list.
    fn clear(&mut self) {
        for id in self.list.drain(..) {
            self.dead[id as usize] = false;
        }
        self.schedule.clear();
        self.fired = 0;
    }
}

/// One shard's share of the engine state. Link-gate state (`links`, the
/// credit FIFO, blocked queues) is indexed by *local* gate id
/// (`global_gidx - slot_lo * vcs`, one gate per (link slot, VC)); packet
/// arrays span the full id space so global packet ids index directly (a
/// packet is *hosted* by the shard owning its current node — `cursor !=
/// NEVER` exactly there).
struct ShardCore {
    node_lo: usize,
    node_hi: usize,
    slot_lo: usize,
    slot_hi: usize,
    /// Buffer depth per (directed link, VC) buffer (0 =
    /// [`FlowControl::Infinite`]).
    flow_depth: u32,
    /// Virtual channels per link; 1 for the legacy flow-control modes.
    vcs: usize,
    /// Flits per packet: every hop holds its link for this many cycles and
    /// returns the freed upstream credit this many cycles later (1 =
    /// store-and-forward; [`Switching::Wormhole`] sets it higher).
    packet_flits: u32,
    /// Whether per-VC metrics (`vc`, `blocked_since`) are live — true only
    /// under [`FlowControl::VirtualChannel`].
    track_vc: bool,
    // --- local link state (local gate ids: (slot - slot_lo) * vcs + vc) --
    /// Per-(slot, VC) gate. The physical link's claim stamp lives only in
    /// the slot's *first* gate (the VCs share one flit per cycle of link
    /// bandwidth); `credits` is meaningful in every gate (each VC owns its
    /// own downstream buffer).
    links: Vec<LinkGate>,
    /// Timed credit returns `(due_cycle, local_gidx)`, one entry per
    /// credit, due cycles nondecreasing (a credit returned during cycle `c`
    /// is due at `c + packet_flits`; barrier-shipped returns land with the
    /// same due cycle). A pending return is a buffer slot neither free nor
    /// occupied, so at most `gates × flow_depth` are pending; compaction
    /// keeps the applied prefix (`credit_fifo_pos`) under 64 entries or
    /// under the pending tail, so twice that bound plus 64 always fits.
    credit_fifo: Vec<(u32, u32)>,
    credit_fifo_pos: usize,
    /// Packets parked on this core's blocked queues. While it is 0 the
    /// credit and serve phases read no queue head.
    parked: usize,
    /// Head of each gate's blocked queue (`NONE_ID` = empty). Every packet
    /// parked on a gate sits in the same upstream node and competes for
    /// the same port, link claim and credits, so only the oldest can ever
    /// move: the queue is kept sorted by id (= age) and a wake event pops
    /// exactly one head.
    blocked_head: Vec<u32>,
    /// Tail of each gate's blocked queue: packets park mostly in age order,
    /// so the common insert is an O(1) tail append.
    blocked_tail: Vec<u32>,
    /// Timed claim expiries `(due_cycle, local_slot)`, due when the link's
    /// claim expires (`move cycle + packet_flits`). Each due slot's VC
    /// queue heads are woken at the *start* of the due cycle, after every
    /// park of the claiming cycle has settled. Under wormhole the pending
    /// tail doubles as the quiescence witness for a streaming body.
    served_fifo: Vec<(u32, u32)>,
    served_fifo_pos: usize,
    // --- local node state ------------------------------------------------
    /// Per-node output-port claim stamp (consulted under `SinglePort`).
    node_claim: Vec<u32>,
    // --- packet state (full id space; valid while hosted here) -----------
    /// Cached packed entry of each hosted packet's current position: node,
    /// the CSR slot of its next hop, and the `DELIVERS` flag. The cycle
    /// loop reads only this.
    entry: Vec<u64>,
    /// Logical shift-register position *after* the pending hop (implicit
    /// packets only).
    imp_pos: Vec<u32>,
    /// Remaining target bits after the pending hop, sentinel-encoded (see
    /// [`implicit_route::rem_init`]).
    imp_rem: Vec<u32>,
    /// `NEVER` = resolved or hosted elsewhere, [`IMPLICIT_ACTIVE`] = riding
    /// the digit-shift generator, else an index into the local `arena`.
    cursor: Vec<u32>,
    /// Local-arena end of a materialized segment.
    seg_end: Vec<u32>,
    /// *Global* gate id (`slot * vcs + vc`) of the buffer the packet
    /// occupies (may belong to another shard after a migration; credits
    /// route home at the barrier). `NO_SLOT` while the packet waits in its
    /// source's injection queue.
    occupied_slot: Vec<u32>,
    /// Current virtual channel per hosted packet (dateline rule: injected
    /// on VC 0, bumped — capped at `vcs - 1` — after every hop that
    /// descends the physical label; see
    /// [`implicit_route::dateline_crossing`]).
    vc: Vec<u8>,
    /// Cycle each hosted packet first failed examination since it last
    /// moved (`NEVER` = not blocked); feeds `vc_hol_blocked_cycles` and is
    /// only maintained when `track_vc`. A parked packet is not examined
    /// again until it is woken, so the span runs from its first failure,
    /// however many cycles it then waits.
    blocked_since: Vec<u32>,
    /// Intrusive next-pointers threading the blocked queues through the
    /// packet table.
    blocked_next: Vec<u32>,
    in_network: Vec<bool>,
    /// Bitmap work-queue of packets to examine this cycle (bit per packet
    /// id). Scanning set bits low-to-high *is* oldest-first arbitration,
    /// and re-waking an already-queued packet is naturally idempotent.
    queued_now: Vec<u64>,
    /// The bitmap being built for the next cycle; swapped with
    /// `queued_now` after each examination pass.
    queued_next: Vec<u64>,
    /// Local path arena: materialized loads of home packets, re-route
    /// spills and migrated-in segments, as packed entries (see [`pk`]).
    arena: Vec<u64>,
    // --- injection (home-shard packets only) ------------------------------
    /// Packet ids not yet injected, sorted by injection cycle.
    pending_inject: Vec<u32>,
    inject_pos: usize,
    // --- per-cycle outputs ------------------------------------------------
    /// `(id, cycle, RES_*)` resolutions, drained by the driver.
    resolved: Vec<(u32, u32, u8)>,
    /// Outbound flits, path words and credit returns, one buffer per
    /// destination shard (indexed by it). The barrier swaps entry `dst`
    /// with entry `src` of the receiver, which adopts and empties it, so
    /// buffers keep their capacity but move between cores.
    out: Vec<BoundaryBatch>,
    moved: u64,
    injected: u64,
    credits_applied: u64,
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
        node_lo: usize,
        node_hi: usize,
        slot_lo: usize,
        slot_hi: usize,
        shards: usize,
        flow_depth: u32,
        vcs: usize,
        packet_flits: u32,
        track_vc: bool,
    ) -> Self {
        let slots = slot_hi - slot_lo;
        let gates = slots * vcs;
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
            // The bound in `credit_fifo`'s docs (64 entries when unbounded).
            credit_fifo: Vec::with_capacity(2 * gates * flow_depth as usize + 64),
            credit_fifo_pos: 0,
            parked: 0,
            blocked_head: vec![NONE_ID; gates],
            blocked_tail: vec![NONE_ID; gates],
            served_fifo: Vec::with_capacity((slots * packet_flits as usize).min(1 << 16)),
            served_fifo_pos: 0,
            node_claim: vec![NEVER; node_hi - node_lo],
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
            out: (0..shards).map(|_| BoundaryBatch::default()).collect(),
            moved: 0,
            injected: 0,
            credits_applied: 0,
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

    /// Queues packet `id` for examination *this* cycle (wake events fire
    /// before the examination pass).
    #[inline]
    // analyzer: alloc-free
    fn queue_now(&mut self, id: usize) {
        self.queued_now[id >> 6] |= 1u64 << (id & 63);
    }

    /// Parks packet `id` on local gate `lg`'s blocked queue, keeping the
    /// queue sorted by id (= age): it will not be examined again until the
    /// gate sees a credit with `id` at the queue head (or a whole-network
    /// wake). Packets park in injection order on their first hop and in
    /// examination order everywhere else, so the insert is almost always an
    /// O(1) tail append (or head prepend for a re-parking ex-head).
    // analyzer: alloc-free
    fn park_on_slot(&mut self, id: usize, lg: usize) {
        self.parked += 1;
        let id32 = id as u32;
        let head = self.blocked_head[lg];
        if head == NONE_ID {
            self.blocked_head[lg] = id32;
            self.blocked_tail[lg] = id32;
            self.blocked_next[id] = NONE_ID;
        } else if id32 > self.blocked_tail[lg] {
            let tail = self.blocked_tail[lg] as usize;
            self.blocked_next[tail] = id32;
            self.blocked_tail[lg] = id32;
            self.blocked_next[id] = NONE_ID;
        } else if id32 < head {
            self.blocked_next[id] = head;
            self.blocked_head[lg] = id32;
        } else {
            // Mid-queue insert: rare (a buffered packet joining a long
            // injection queue), and bounded by the queue length.
            let mut prev = head as usize;
            while self.blocked_next[prev] != NONE_ID && self.blocked_next[prev] < id32 {
                prev = self.blocked_next[prev] as usize;
            }
            self.blocked_next[id] = self.blocked_next[prev];
            self.blocked_next[prev] = id32;
        }
    }

    /// Pops gate `lg`'s oldest parked packet back into this cycle's work
    /// queue. Only the head can ever move (everything behind it shares the
    /// same node port, link claim and credit counter and is strictly
    /// younger), so one head per wake event is exact — no thundering herd.
    // analyzer: alloc-free
    fn wake_head(&mut self, lg: usize) {
        let head = self.blocked_head[lg];
        if head != NONE_ID {
            self.parked -= 1;
            self.queue_now(head as usize);
            self.blocked_head[lg] = self.blocked_next[head as usize];
            if self.blocked_head[lg] == NONE_ID {
                self.blocked_tail[lg] = NONE_ID;
            }
        }
    }

    /// Drains gate `lg`'s blocked queue into this cycle's work queue.
    // analyzer: alloc-free
    fn wake_slot(&mut self, lg: usize) {
        let mut cur = self.blocked_head[lg];
        while cur != NONE_ID {
            self.parked -= 1;
            self.queue_now(cur as usize);
            cur = self.blocked_next[cur as usize];
        }
        self.blocked_head[lg] = NONE_ID;
        self.blocked_tail[lg] = NONE_ID;
    }

    /// Wakes every parked packet — the response to whole-network events (a
    /// node kill, a recovery driver re-routing in flight) that can change
    /// any packet's next hop or its movability; it stops once none is parked.
    // analyzer: alloc-free
    fn wake_all_parked(&mut self) {
        let mut lg = 0;
        while self.parked > 0 {
            self.wake_slot(lg);
            lg += 1;
        }
    }

    /// Records that blocked packet `id` became unblocked (moved or
    /// resolved) at `cycle`, folding the blocked span into the per-VC
    /// head-of-line counter.
    #[inline]
    // analyzer: alloc-free
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
    // analyzer: alloc-free
    fn note_blocked(&mut self, id: usize, cycle: u32) {
        if self.track_vc && self.blocked_since[id] == NEVER {
            self.blocked_since[id] = cycle;
        }
    }

    /// Enqueues one credit return for global gate `g` (owned here), due at
    /// `due`. Every credit, local or barrier-shipped, is its own entry and
    /// wakes its own queue head: one wake per credit at any shard count.
    // analyzer: alloc-free
    fn push_credit(&mut self, g: u32, due: u32) {
        let lg = g - (self.slot_lo * self.vcs) as u32;
        // analyzer: allow(alloc) -- capacity reserved at construction from the bound on pending returns (twice every buffer slot, plus 64); the counting-allocator tests prove the cycle loop never reallocates
        self.credit_fifo.push((due, lg));
    }

    /// Returns a credit for *global* gate `g` generated at `cycle`: due
    /// `packet_flits` cycles later (the slot drains when the tail flit
    /// clears it), locally when this shard owns the gate's link slot, else
    /// shipped to the owner at the cycle barrier (the owner restores the
    /// due cycle from the barrier timing). Slot ownership follows the
    /// contiguous CSR cut, so the owner is the last shard whose slot range
    /// starts at or before the gate's slot.
    // analyzer: alloc-free
    fn return_credit(&mut self, ctx: &ShardCtx<'_>, g: u32, cycle: u32) {
        let gu = g as usize;
        let slot = gu / self.vcs;
        if slot >= self.slot_lo && slot < self.slot_hi {
            self.push_credit(g, cycle + self.packet_flits);
        } else {
            let owner = ctx.slot_start.partition_point(|&x| (x as usize) <= slot) - 1;
            // analyzer: allow(alloc) -- the per-destination barrier buffer keeps its capacity for the core's life; the counting-allocator tests prove reruns never reallocate
            self.out[owner].credits.push(g);
        }
    }

    /// Resolves hosted packet `id` with resolution `code`, releasing its
    /// buffer slot (possibly to another shard) under credit flow control.
    /// Every path that removes a live packet from the network goes through
    /// here — fault kills included, which would otherwise leak the dead
    /// processor's input slots and starve the upstream links forever.
    // analyzer: alloc-free
    fn resolve(&mut self, ctx: &ShardCtx<'_>, id: usize, cycle: u32, code: u8) {
        self.note_unblocked(id, cycle);
        // analyzer: allow(alloc) -- drained by the driver every cycle, so it keeps the capacity of the busiest cycle; the counting-allocator tests prove reruns never reallocate
        self.resolved.push((id as u32, cycle, code));
        self.in_network[id] = false;
        self.cursor[id] = NEVER;
        if self.flow_depth > 0 {
            let g = self.occupied_slot[id];
            if g != NO_SLOT {
                self.return_credit(ctx, g, cycle);
                self.occupied_slot[id] = NO_SLOT;
            }
        }
    }

    /// Applies the credit returns due by `cycle` (local and barrier-shipped
    /// share the FIFO, with identical due cycles), one credit per entry, and
    /// returns how many it applied. While anything is parked, each credit
    /// wakes its gate's queue head: a second credit on one gate in one cycle
    /// wakes a younger head, which is examined after the older one on the
    /// same port and link, so it cannot move before the claim expiry would
    /// have woken it. The applied prefix is reclaimed in place (full clear
    /// when drained, front compaction when the tail lags). Per-gate
    /// independence makes the application order irrelevant.
    // analyzer: alloc-free
    fn apply_pending_credits(&mut self, cycle: u32) -> u64 {
        let start = self.credit_fifo_pos;
        while let Some(&(due, lg)) = self.credit_fifo.get(self.credit_fifo_pos) {
            if due > cycle {
                break;
            }
            self.credit_fifo_pos += 1;
            let lg = lg as usize;
            self.links[lg].credits += 1;
            debug_assert!(self.links[lg].credits <= self.flow_depth, "credit overflow");
            if self.parked > 0 {
                self.wake_head(lg);
            }
        }
        let applied = (self.credit_fifo_pos - start) as u64;
        if self.credit_fifo_pos >= self.credit_fifo.len() {
            self.credit_fifo.clear();
            self.credit_fifo_pos = 0;
        } else if self.credit_fifo_pos >= 64 && self.credit_fifo_pos * 2 >= self.credit_fifo.len() {
            self.credit_fifo.drain(..self.credit_fifo_pos);
            self.credit_fifo_pos = 0;
        }
        applied
    }

    /// Wakes the served-slot queues that have come due: when a link's claim
    /// expires, the head of *every* VC queue on that slot that could now
    /// admit a flit gets one examination (under credit flow only where the
    /// gate has a credit — otherwise the credit return will wake it).
    /// Extra wakes are harmless: examination is a pure function of engine
    /// state, and an immovable woken packet re-parks identically. With
    /// nothing parked, the sorted due prefix is skipped in one step.
    // analyzer: alloc-free
    fn apply_due_serves(&mut self, cycle: u32) {
        while self.parked > 0 && self.served_fifo_pos < self.served_fifo.len() {
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
        let pending = &self.served_fifo[self.served_fifo_pos..];
        self.served_fifo_pos += pending.partition_point(|&(due, _)| due <= cycle);
        if self.served_fifo_pos >= self.served_fifo.len() {
            self.served_fifo.clear();
            self.served_fifo_pos = 0;
        } else if self.served_fifo_pos >= 64 && self.served_fifo_pos * 2 >= self.served_fifo.len() {
            self.served_fifo.drain(..self.served_fifo_pos);
            self.served_fifo_pos = 0;
        }
    }

    /// This core's share of the stop rule's `timers_idle`: no timed credit
    /// return or claim expiry in flight.
    // analyzer: alloc-free
    fn timers_idle(&self) -> bool {
        self.credit_fifo_pos >= self.credit_fifo.len()
            && self.served_fifo_pos >= self.served_fifo.len()
    }

    /// Home packets loaded with a future injection cycle that have not
    /// entered the network yet.
    // analyzer: alloc-free
    fn pending_injections(&self) -> u64 {
        (self.pending_inject.len() - self.inject_pos) as u64
    }

    /// Moves home packets whose injection cycle has arrived into the
    /// examination list (in age order). A packet whose source died before
    /// its injection cycle is dropped at injection, and a zero-hop packet
    /// injected on a living source is delivered on the spot (latency 0).
    // analyzer: alloc-free
    fn inject_due(&mut self, ctx: &ShardCtx<'_>, cycle: u32) {
        while self.inject_pos < self.pending_inject.len() {
            let id = self.pending_inject[self.inject_pos] as usize;
            if ctx.inject_at[id] > cycle {
                break;
            }
            self.inject_pos += 1;
            let code = if !ctx.is_alive(pk_node(self.entry[id])) {
                RES_DROPPED_AT_INJECT
            } else if pk_terminal(self.entry[id]) {
                RES_DELIVERED_AT_INJECT
            } else {
                self.queue_now(id);
                self.in_network[id] = true;
                self.injected += 1;
                continue;
            };
            self.cursor[id] = NEVER;
            // analyzer: allow(alloc) -- drained by the driver every cycle, so it keeps the capacity of the busiest cycle; the counting-allocator tests prove reruns never reallocate
            self.resolved.push((id as u32, cycle, code));
        }
    }

    /// Reacts to the kills [`ShardedSim::fire_due_faults`] just fired at
    /// `cycle`: `node_died` when a node died, and `slots` the directed CSR
    /// slots that died. Packets hosted on a dead node die with it and give
    /// their buffer slots back, and every parked packet is woken, because
    /// its next hop may now lead into a dead node. A link kill is a local
    /// wake event: only the gates of a dead slot this core owns are flushed
    /// (every packet parked on them lives here), and packets buffered
    /// downstream keep flying — the link died, not the receiving buffer —
    /// so credit conservation holds per gate with no eviction.
    fn react_to_kills(&mut self, ctx: &ShardCtx<'_>, cycle: u32, node_died: bool, slots: &[u32]) {
        if node_died {
            for id in 0..self.in_network.len() {
                if self.in_network[id] && ctx.node_kills.dead[pk_node(self.entry[id])] {
                    self.resolve(ctx, id, cycle, RES_DROPPED);
                }
            }
            self.wake_all_parked();
        }
        for &slot in slots {
            let slot = slot as usize;
            if slot >= self.slot_lo && slot < self.slot_hi {
                let base = (slot - self.slot_lo) * self.vcs;
                for lg in base..base + self.vcs {
                    self.wake_slot(lg);
                }
            }
        }
    }

    /// The physical node hosted packet `id`'s route ends on — where a
    /// re-route must aim: the placement image of an implicit packet's
    /// logical target, or the final entry of a materialized segment.
    // analyzer: alloc-free
    fn route_target(&self, ctx: &ShardCtx<'_>, id: usize) -> NodeId {
        if self.cursor[id] == IMPLICIT_ACTIVE {
            ctx.implicit.image(ctx.logical_target[id]) as usize
        } else {
            pk_node(self.arena[self.seg_end[id] as usize - 1])
        }
    }

    /// Replaces hosted packet `id`'s remaining route with a BFS path from
    /// its current node to `target` through the surviving machine, spilled
    /// into the local arena (an implicit packet materializes here: the
    /// re-route is not a shift-register walk). Returns false (packet
    /// untouched) when `target` is dead or no healthy path reaches it.
    fn reroute_packet(&mut self, ctx: &ShardCtx<'_>, id: usize, target: NodeId) -> bool {
        if !ctx.is_alive(target) {
            return false;
        }
        let here = pk_node(self.entry[id]);
        let found = self.searcher.shortest_path_avoiding_into(
            ctx.machine.graph(),
            here,
            target,
            |v| ctx.is_alive(v),
            |slot| !ctx.link_kills.dead[slot],
            &mut self.reroute_path,
        );
        if !found {
            return false;
        }
        let (start, end) = spill(&mut self.arena, ctx.machine, &self.reroute_path);
        self.cursor[id] = start;
        self.seg_end[id] = end;
        self.entry[id] = self.arena[start as usize];
        true
    }

    /// Re-targets every hosted packet at `placement`'s image of its logical
    /// target and re-routes it — the drain step of online reconfiguration.
    /// Packets already on the new image deliver, packets with no healthy
    /// path drop, and every parked packet is woken, since its route just
    /// changed under it. Returns `(rerouted, delivered_in_place, dropped)`.
    fn retarget(
        &mut self,
        ctx: &ShardCtx<'_>,
        placement: &Embedding,
        cycle: u32,
    ) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for id in 0..self.in_network.len() {
            let logical = ctx.logical_target[id];
            if !self.in_network[id] || logical == NO_LOGICAL {
                continue;
            }
            let target = placement.apply(logical as usize);
            if pk_node(self.entry[id]) == target {
                self.resolve(ctx, id, cycle, RES_DELIVERED);
                counts.1 += 1;
            } else if self.reroute_packet(ctx, id, target) {
                // The packet stays in the same physical buffer: a re-route
                // replaces its remaining path, not its position.
                counts.0 += 1;
            } else {
                self.resolve(ctx, id, cycle, RES_DROPPED);
                counts.2 += 1;
            }
        }
        self.wake_all_parked();
        counts
    }

    /// Advances hosted packet `id` past the hop it just won — for implicit
    /// packets the shared context's O(1) step ([`ImplicitRoute::advance`]),
    /// for materialized ones an arena-cursor bump. Never called on a
    /// delivering hop.
    #[inline]
    // analyzer: alloc-free
    fn advance_route(&mut self, ctx: &ShardCtx<'_>, id: usize) {
        let at = self.cursor[id];
        if at == IMPLICIT_ACTIVE {
            let (entry, pos, rem) =
                ctx.implicit
                    .advance(ctx.machine, self.imp_pos[id], self.imp_rem[id]);
            self.entry[id] = entry;
            self.imp_pos[id] = pos;
            self.imp_rem[id] = rem;
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
    // analyzer: alloc-free
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
        // analyzer: allow(alloc) -- the per-destination barrier buffer keeps its capacity for the core's life; the counting-allocator tests prove reruns never reallocate
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
    /// cycle's examination — the same timing a mover has when it stays on
    /// its shard. `path_words` holds the materialized flits' remaining
    /// paths in flit order.
    // analyzer: alloc-free
    fn apply_inbound(&mut self, flits: &[Flit], path_words: &[u64], credits: &[u32], now: u32) {
        let due = now + self.packet_flits - 1;
        for &g in credits {
            let slot = g as usize / self.vcs;
            debug_assert!(
                slot >= self.slot_lo && slot < self.slot_hi,
                "foreign credit"
            );
            self.push_credit(g, due);
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

    /// Adopts the batches the barrier swapped into `out` (entry `src` holds
    /// what shard `src` sent here) in ascending source order at the start
    /// of cycle `now`, emptying each in place.
    // analyzer: alloc-free
    fn adopt_inbound(&mut self, now: u32) {
        for src in 0..self.out.len() {
            let mut batch = std::mem::take(&mut self.out[src]);
            self.apply_inbound(&batch.flits, &batch.path_words, &batch.credits, now);
            batch.clear();
            self.out[src] = batch;
        }
    }

    /// Drops the loaded workload, rewinding every gate, queue and metric to
    /// its state after [`ShardCore::new`] while keeping every buffer's
    /// capacity and the warmed [`Searcher`]. The per-cycle outputs
    /// (`resolved`, `out`, the counters) need nothing: every step drains or
    /// resets them.
    fn clear_workload(&mut self) {
        for gate in &mut self.links {
            gate.claim = NEVER;
            gate.credits = self.flow_depth;
        }
        self.credit_fifo.clear();
        self.credit_fifo_pos = 0;
        self.parked = 0;
        self.blocked_head.fill(NONE_ID);
        self.blocked_tail.fill(NONE_ID);
        self.served_fifo.clear();
        self.served_fifo_pos = 0;
        self.node_claim.fill(NEVER);
        self.resize_packets(0);
        self.arena.clear();
        self.pending_inject.clear();
        self.inject_pos = 0;
        self.vc_flits.fill(0);
        self.vc_hol_blocked_cycles.fill(0);
    }

    /// One shard's share of a cycle, after the cycle's kills have fired:
    /// apply due credits, wake due served slots, inject due packets, then
    /// examine queued packets in ascending id order.
    // analyzer: alloc-free
    fn phase(&mut self, ctx: &ShardCtx<'_>, cycle: u32) {
        self.moved = 0;
        self.injected = 0;
        self.rerouted = 0;
        self.credits_applied = self.apply_pending_credits(cycle);
        self.apply_due_serves(cycle);
        self.inject_due(ctx, cycle);
        self.exam(ctx, cycle);
    }

    /// The examination pass over this shard's queued packets: every packet
    /// whose gating resources could have changed is examined in age order,
    /// and moves when it wins its output port, its link and (under credit
    /// flow control) a free downstream buffer slot on its VC. A packet that
    /// fails on a full buffer parks on that gate's blocked queue; a packet
    /// that fails on a per-cycle claim is re-examined next cycle.
    // analyzer: alloc-free
    fn exam(&mut self, ctx: &ShardCtx<'_>, stamp: u32) {
        let credit_based = self.flow_depth > 0;
        let vcs = self.vcs;
        let pf = self.packet_flits;
        let track_vc = self.track_vc;
        // Loaded paths never cross statically-faulty processors, so the
        // dead-next-hop check only matters once a dynamic fault has fired.
        let hazard = !ctx.node_kills.list.is_empty() || !ctx.link_kills.list.is_empty();
        // Examine the queued packets in ascending id order (= age order),
        // clearing each bitmap word as it is consumed; survivors set their
        // bit in the next-cycle bitmap, which is all-zero on entry.
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
                    // Resolved while queued (fault kill, re-target): skip.
                    continue;
                }
                let entry = self.entry[id];
                let slot = pk_slot(entry) as usize;
                debug_assert!(slot >= self.slot_lo && slot < self.slot_hi, "foreign slot");
                if hazard {
                    // The next node on the route is the CSR target of the
                    // cached hop slot.
                    let next = ctx.machine.graph().csr().1[slot] as usize;
                    if ctx.node_kills.dead[next] || ctx.link_kills.dead[slot] {
                        // The precomputed route runs into a node (or
                        // crosses a directed link) that died after the
                        // route was computed.
                        match ctx.fault_response {
                            FaultResponse::Drop => {
                                self.resolve(ctx, id, stamp, RES_DROPPED);
                                continue;
                            }
                            FaultResponse::RerouteAdaptive => {
                                let target = self.route_target(ctx, id);
                                // analyzer: trusted-call -- BFS re-route runs only after a dynamic fault; cold by design
                                if !self.reroute_packet(ctx, id, target) {
                                    self.resolve(ctx, id, stamp, RES_DROPPED);
                                    continue;
                                }
                                self.rerouted += 1;
                                if self.cursor[id] + 1 == self.seg_end[id] {
                                    // The oblivious route revisited the
                                    // target and the packet was sitting on
                                    // it: the re-route is the empty path.
                                    self.resolve(ctx, id, stamp, RES_DELIVERED);
                                    continue;
                                }
                                // Rerouted this cycle; it may move next cycle.
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
                // The physical link (and, under `SinglePort`, the output
                // port) is free when its last claim has fully streamed —
                // `packet_flits` cycles. Claims never exceed the current
                // stamp, so for single-flit packets this is `claim != stamp`.
                let link_claim = self.links[ls * vcs].claim;
                let link_free = link_claim == NEVER || stamp - link_claim >= pf;
                let port_claim = self.node_claim[here - self.node_lo];
                let port_free = !ctx.single_port || port_claim == NEVER || stamp - port_claim >= pf;
                let credit_free = !credit_based || self.links[lg].credits > 0;
                if port_free && credit_free && link_free {
                    // Claim and move (the head flit; under wormhole the body
                    // streams behind it, keeping the link busy for
                    // `packet_flits` cycles).
                    self.links[ls * vcs].claim = stamp;
                    if ctx.single_port {
                        self.node_claim[here - self.node_lo] = stamp;
                    }
                    if credit_based {
                        // Take a slot downstream on this packet's VC; the
                        // slot vacated upstream returns to its gate once the
                        // tail flit clears it.
                        self.links[lg].credits -= 1;
                        let prev = self.occupied_slot[id];
                        if prev != NO_SLOT {
                            self.return_credit(ctx, prev, stamp);
                        }
                        self.occupied_slot[id] = (slot * vcs + vc) as u32;
                    }
                    // Whoever queues behind this move wakes when the claim
                    // expires. Under wormhole the pending entry is also the
                    // quiescence witness for the streaming body.
                    // analyzer: allow(alloc) -- capacity reserved at construction and kept across cycles; the counting-allocator tests prove the cycle loop never reallocates
                    self.served_fifo.push((stamp + pf, ls as u32));
                    self.moved += 1;
                    if track_vc {
                        self.vc_flits[vc] += pf as u64;
                        self.note_unblocked(id, stamp);
                    }
                    if entry & DELIVERS != 0 {
                        // Consumed at the target: the just-taken slot drains
                        // too (its credit also returns after the tail).
                        self.resolve(ctx, id, stamp, RES_DELIVERED);
                    } else {
                        self.advance_route(ctx, id);
                        let now = pk_node(self.entry[id]);
                        // Dateline rule: a hop that descends the physical
                        // label closes a de Bruijn shift cycle, so the
                        // packet moves up one VC (capped at the top).
                        if track_vc
                            && vc + 1 < vcs
                            && implicit_route::dateline_crossing(here as u32, now as u32)
                        {
                            self.vc[id] = (vc + 1) as u8;
                        }
                        if now >= self.node_lo && now < self.node_hi {
                            self.queued_next[wi] |= 1u64 << (id & 63);
                        } else {
                            self.emigrate(ctx, id, now);
                        }
                    }
                } else if !credit_free || (link_claim == stamp && self.blocked_head[lg] != NONE_ID)
                {
                    // Blocked on the gate itself: zero credits on this VC's
                    // buffer (which only return at a cycle boundary), or a
                    // link claim lost while the gate already has a queue.
                    // Parking is exact: the sorted queue's head is woken by
                    // the credit return or the served-slot claim expiry, and
                    // nothing behind the head could have moved anyway. A
                    // claim loser finding an empty queue just retries — a
                    // one-cycle wait is cheaper as a rescan than as a
                    // park/wake round trip.
                    self.note_blocked(id, stamp);
                    self.park_on_slot(id, lg);
                } else {
                    // Blocked on the node's output port alone (`SinglePort`)
                    // or on a still-streaming wormhole body: re-examine next
                    // cycle, when per-cycle claims expire.
                    self.note_blocked(id, stamp);
                    self.queued_next[wi] |= 1u64 << (id & 63);
                }
            }
        }
        std::mem::swap(&mut self.queued_now, &mut self.queued_next);
    }
}

/// Per-packet run outcomes and the counters derived from them, written
/// only by the driver as it drains the cores' resolutions.
#[derive(Default)]
struct Outcomes {
    delivered_at: Vec<u32>,
    dropped_at: Vec<u32>,
    /// Latencies of delivered packets, in resolution order (the report
    /// sorts them).
    latencies: Vec<u32>,
    delivered: u64,
    dropped: u64,
    /// Packets in the network (injected, not yet delivered or dropped).
    live: u64,
}

impl Outcomes {
    /// Applies one drained resolution.
    // analyzer: alloc-free
    fn apply(&mut self, inject_at: &[u32], (id, cycle, code): (u32, u32, u8)) {
        let id = id as usize;
        if code & 1 == 1 {
            self.delivered_at[id] = cycle;
            self.delivered += 1;
            // analyzer: allow(alloc) -- capacity reserved at load; the counting-allocator tests prove the cycle loop never reallocates
            self.latencies.push(cycle - inject_at[id]);
        } else {
            self.dropped_at[id] = cycle;
            self.dropped += 1;
        }
        if code < RES_DROPPED_AT_INJECT {
            self.live -= 1;
        }
    }

    /// Applies every resolution the cores hold, in core order.
    // analyzer: alloc-free
    fn take_resolutions(&mut self, inject_at: &[u32], cores: &mut [ShardCore]) {
        for core in cores {
            for res in core.resolved.drain(..) {
                self.apply(inject_at, res);
            }
        }
    }
}

/// The congestion engine. See the module docs for the partition and the
/// equivalence argument, and [`super`] for the cycle model. With
/// `shards = 1` it is the single-table engine ([`super::CongestionSim`]);
/// reports are byte-identical in every configuration.
///
/// Lifecycle: [`ShardedSim::new`] → `load_*` workload →
/// ([`ShardedSim::schedule_fault`] | [`ShardedSim::schedule_link_faults`])*
/// → [`ShardedSim::run`] (or
/// [`ShardedSim::step`] in a driver loop) → [`ShardedSim::report`].
/// [`ShardedSim::clear_workload`] discards the workload (keeping the
/// machine and the engine's capacity) so one engine can serve many loads.
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
    /// Injection cycle per packet (the load's cycle for `load_oblivious`).
    inject_at: Vec<u32>,
    /// Logical target per packet (`NO_LOGICAL` for packets dropped at
    /// load); lets the recovery driver re-target packets after a
    /// reconfiguration.
    logical_target: Vec<u32>,
    outcomes: Outcomes,
    /// The implicit context (mask, placement and successor-slot table) of
    /// the oblivious loads; a later load through a *different* context
    /// falls back to materialized paths rather than mixing generators.
    implicit: ImplicitRoute,
    // --- run state --------------------------------------------------------
    total_flits: u64,
    cycle: u32,
    /// Set when the stop rule proves that no flit can ever move again.
    deadlocked: bool,
    /// Logical sources behind the last timed load (0 = none): open-loop
    /// rates are per *logical* source, which on `B^k(2,h)` hosts is fewer
    /// than the physical node count.
    open_loop_sources: u32,
    /// Latest injection cycle queued by a timed load, for the cross-load
    /// ordering assert.
    last_queued_inject: Option<u32>,
    // --- dynamic faults, once per engine ----------------------------------
    /// Processor kills over the node universe.
    node_kills: Kills,
    /// Directed-link kills over the global CSR slot universe.
    link_kills: Kills,
}

impl ShardedSim {
    /// Creates an engine over `machine` with `shards` contiguous node
    /// partitions. Each cycle's per-shard work runs on `min(threads, shards)`
    /// worker threads, each owning a contiguous group of shards (0 counts
    /// as 1); the stop rule runs on the calling thread. The
    /// machine's static fault set (if any) is honoured at load time;
    /// dynamic faults are layered on top via [`ShardedSim::schedule_fault`].
    ///
    /// # Panics
    /// Panics when `shards == 0` or when `config` asks for an empty buffer,
    /// no virtual channel or an empty wormhole train.
    pub fn new(
        machine: PhysicalMachine,
        config: CongestionConfig,
        shards: usize,
        threads: usize,
    ) -> Self {
        assert!(shards >= 1, "at least one shard");
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
                    shard_floor(s, n, shards),
                    shard_floor(s + 1, n, shards),
                    slot_start[s] as usize,
                    slot_start[s + 1] as usize,
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
            threads: threads.clamp(1, shards),
            node_kills: Kills::new(n),
            link_kills: Kills::new(slot_start[shards] as usize),
            slot_start,
            cores,
            inject_at: Vec::new(),
            logical_target: Vec::new(),
            outcomes: Outcomes::default(),
            implicit: ImplicitRoute::default(),
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

    /// Worker threads each cycle's per-shard work runs on:
    /// `min(threads, shards)` of the `threads` passed to [`ShardedSim::new`].
    // analyzer: alloc-free
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `(injected, delivered, dropped, in_flight)` — the conservation
    /// invariant `delivered + dropped + in_flight + pending_injections ==
    /// injected` holds after every load and step (for the batch `load_*`
    /// APIs `pending_injections` is always 0).
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.inject_at.len() as u64,
            self.outcomes.delivered,
            self.outcomes.dropped,
            self.outcomes.live,
        )
    }

    /// Packets loaded with a future injection cycle that have not entered
    /// the network yet.
    // analyzer: alloc-free
    pub fn pending_injections(&self) -> u64 {
        self.cores.iter().map(ShardCore::pending_injections).sum()
    }

    /// Whether the run so far ended in a proven hard buffer deadlock.
    pub fn deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// Logical sources behind the last timed load (0 = none loaded).
    pub(crate) fn open_loop_sources(&self) -> u32 {
        self.open_loop_sources
    }

    /// Discards the loaded workload, both fault schedules and the implicit
    /// context, keeping the machine, every buffer's capacity and each
    /// core's warmed re-route search, so one engine can `load_*` and run
    /// many workloads (the parallel sweep harness keeps one engine per
    /// worker). The next load may come through a different placement.
    pub fn clear_workload(&mut self) {
        for core in &mut self.cores {
            core.clear_workload();
        }
        self.node_kills.clear();
        self.link_kills.clear();
        for table in [
            &mut self.inject_at,
            &mut self.logical_target,
            &mut self.outcomes.delivered_at,
            &mut self.outcomes.dropped_at,
            &mut self.outcomes.latencies,
        ] {
            table.clear();
        }
        self.implicit.clear();
        self.outcomes.delivered = 0;
        self.outcomes.dropped = 0;
        self.outcomes.live = 0;
        self.total_flits = 0;
        self.cycle = 0;
        self.deadlocked = false;
        self.open_loop_sources = 0;
        self.last_queued_inject = None;
    }

    /// Appends the outcome bookkeeping of packet `id == inject_at.len()`,
    /// whose route state is already in `home`'s core. A packet that enters
    /// the network at load is live from now on, or delivered on the spot
    /// (latency 0) when it is born on its target; a timed one waits in its
    /// home core's injection queue.
    fn admit(&mut self, home: usize, t: u32, inject_cycle: u32, at_load: bool) {
        let id = self.inject_at.len();
        self.inject_at.push(inject_cycle);
        self.logical_target.push(t);
        self.outcomes.dropped_at.push(NEVER);
        let core = &mut self.cores[home];
        if at_load && pk_terminal(core.entry[id]) {
            core.cursor[id] = NEVER;
            self.outcomes.delivered_at.push(inject_cycle);
            self.outcomes.delivered += 1;
            self.outcomes.latencies.push(0);
        } else {
            // Timed zero-hop packets resolve at their injection cycle, in
            // `inject_due` — by then their source may have died.
            self.outcomes.delivered_at.push(NEVER);
            if at_load {
                core.queue_now(id);
                core.in_network[id] = true;
                self.outcomes.live += 1;
            } else {
                core.pending_inject.push(id as u32);
                self.last_queued_inject = Some(inject_cycle);
            }
        }
    }

    /// Records a packet that could not be routed at load time: injected and
    /// immediately dropped (mirroring the static kernels' accounting,
    /// where infeasible packets count as dropped).
    fn push_dead(&mut self, inject_cycle: u32) {
        self.inject_at.push(inject_cycle);
        self.logical_target.push(NO_LOGICAL);
        self.outcomes.delivered_at.push(NEVER);
        self.outcomes.dropped_at.push(inject_cycle);
        self.outcomes.dropped += 1;
    }

    /// Loads a workload of logical pairs routed with the oblivious de
    /// Bruijn scheme through `placement`. The packets enter the network at
    /// the current cycle, which is their injection cycle (0 on a fresh
    /// engine). Pairs whose fixed route is infeasible on the machine as
    /// loaded (faulty node, missing link, out-of-range endpoint, a node a
    /// short placement does not map), and pairs whose source processor has
    /// already died, are injected as immediately-dropped packets.
    pub fn load_oblivious(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        pairs: &[(NodeId, NodeId)],
    ) {
        let now = self.cycle;
        self.load_oblivious_packets(db, placement, pairs.iter().map(|&(s, t)| (now, s, t)));
    }

    /// The loop behind both oblivious loaders: `(inject_cycle, source,
    /// target)` packets, validated and appended in order, each hosted by
    /// the core owning its source. A packet stamped with the current cycle
    /// enters the network at load; a later one waits in its home core's
    /// injection queue.
    fn load_oblivious_packets(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        packets: impl ExactSizeIterator<Item = (u32, NodeId, NodeId)>,
    ) {
        // Route feasibility belongs to the (machine, placement) pair, so the
        // capture that builds the successor-slot table proves it once and
        // each packet is checked at the cost that proof leaves. A context
        // mismatch (a second load through a different placement or radix)
        // loads walked, materialized paths, so the generator state of the
        // packets already loaded stays well-defined.
        let implicit = self.implicit.capture(db, placement, &self.machine);
        let added = packets.len();
        let total = self.inject_at.len() + added;
        for core in &mut self.cores {
            core.resize_packets(total);
            if !implicit {
                // Sources spread evenly over the shards; a route holds at
                // most h + 1 nodes.
                core.arena
                    .reserve(added.div_ceil(self.shards) * (db.h() + 1));
            }
        }
        for table in [
            &mut self.inject_at,
            &mut self.logical_target,
            &mut self.outcomes.delivered_at,
            &mut self.outcomes.dropped_at,
            &mut self.outcomes.latencies,
        ] {
            table.reserve(added);
        }
        let n = self.machine.node_count();
        let mut path = Vec::with_capacity(db.h() + 1);
        for (cycle, s, t) in packets {
            let at_load = cycle == self.cycle;
            let source = if implicit {
                self.implicit
                    .check(&self.machine, s, t)
                    .map(|()| self.implicit.image(s as u32) as usize)
            } else {
                routing::route_logical_debruijn_into(db, placement, &self.machine, s, t, &mut path)
                    .map(|_| path.first().copied().unwrap_or(0))
            };
            // No packet enters the network on a processor that has died.
            let source = match source {
                Ok(source) if !(at_load && self.node_kills.dead[source]) => source,
                _ => {
                    self.push_dead(cycle);
                    continue;
                }
            };
            let id = self.inject_at.len();
            let home = shard_of(source, n, self.shards);
            let core = &mut self.cores[home];
            if implicit {
                let (entry, pos, rem) =
                    self.implicit.first_entry(&self.machine, s as u32, t as u32);
                core.entry[id] = entry;
                core.imp_pos[id] = pos;
                core.imp_rem[id] = rem;
                core.cursor[id] = IMPLICIT_ACTIVE;
            } else {
                let (start, end) = spill(&mut core.arena, &self.machine, &path);
                core.entry[id] = core.arena[start as usize];
                core.cursor[id] = start;
                core.seg_end[id] = end;
            }
            self.admit(home, t as u32, cycle, at_load);
        }
    }

    /// Loads an open-loop workload: `(inject_cycle, source, target)` logical
    /// triples (non-decreasing in cycle, as produced by
    /// [`crate::workload::open_loop_injections`]), each routed with the
    /// oblivious de Bruijn scheme through `placement` at load time. A packet
    /// enters its source's (unbounded) injection queue at `inject_cycle`
    /// and competes for the first link's output port — and, under credit
    /// flow control, the first link's buffer credit — from that cycle on.
    /// A cycle the engine has already simulated is stamped up to the
    /// current cycle: such a packet enters the network at load, like a
    /// batch packet, and its latency counts from the current cycle.
    ///
    /// # Panics
    /// Panics when the schedule is unsorted or starts before a schedule
    /// already queued by an earlier load (it would inject late instead of
    /// on time).
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
        let now = self.cycle;
        if let (Some(last), Some(&(first, _, _))) = (self.last_queued_inject, injections.first()) {
            let first = first.max(now);
            assert!(
                first >= last,
                "appended injection schedule starts at cycle {first}, before the \
                 already-queued cycle {last}"
            );
        }
        self.open_loop_sources = db.node_count() as u32;
        let stamped = injections.iter().map(|&(c, s, t)| (c.max(now), s, t));
        self.load_oblivious_packets(db, placement, stamped);
    }

    /// Schedules processor `node` to die at the *start* of `cycle`, before
    /// any flit moves that cycle; a `cycle` already simulated means the
    /// next one.
    ///
    /// Fails with [`SimError::EndpointOutOfRange`] when the machine has no
    /// processor `node`.
    pub fn schedule_fault(&mut self, cycle: u32, node: NodeId) -> Result<(), SimError> {
        let limit = self.machine.node_count();
        if node >= limit {
            return Err(SimError::EndpointOutOfRange { node, limit });
        }
        self.node_kills.schedule([(cycle, node as u32)]);
        Ok(())
    }

    /// Schedules every directed CSR slot in `faults` to die at the start of
    /// `cycle`, like [`ShardedSim::schedule_fault`]. The reverse direction
    /// of a dead link keeps carrying flits unless it is in `faults` too.
    /// [`LinkFaultSet::from_links`] names single links; the correlated
    /// generators ([`LinkFaultSet::bernoulli`], [`LinkFaultSet::burst`],
    /// [`LinkFaultSet::from_node_faults`]) build the sets the reliability
    /// sweep draws.
    ///
    /// Fails with [`SimError::SizeMismatch`] when `faults` was built over a
    /// graph with a different slot count.
    pub fn schedule_link_faults(
        &mut self,
        cycle: u32,
        faults: &LinkFaultSet,
    ) -> Result<(), SimError> {
        let expected = self.link_kills.dead.len();
        if faults.universe() != expected {
            return Err(SimError::SizeMismatch {
                what: "link fault set",
                expected,
                got: faults.universe(),
            });
        }
        self.link_kills
            .schedule(faults.iter().map(|slot| (cycle, slot as u32)));
        Ok(())
    }

    /// The dynamic faults applied so far, merged with the machine's static
    /// fault set — the set a diagnosing runtime would hand to
    /// `reconfigure_verified`.
    pub fn current_fault_set(&self) -> FaultSet {
        let mut faults = self.machine.faults().clone();
        for &d in &self.node_kills.list {
            faults.add(d as usize);
        }
        faults
    }

    /// Splits the engine into the read-only cycle context, the cores and
    /// the driver's outcome table.
    // analyzer: alloc-free
    fn parts(&mut self) -> (ShardCtx<'_>, &mut [ShardCore], &mut Outcomes) {
        let ctx = ShardCtx {
            machine: &self.machine,
            slot_start: &self.slot_start,
            inject_at: &self.inject_at,
            logical_target: &self.logical_target,
            implicit: &self.implicit,
            node_kills: &self.node_kills,
            link_kills: &self.link_kills,
            n: self.machine.node_count(),
            shards: self.shards,
            single_port: self.machine.port_model() == PortModel::SinglePort,
            fault_response: self.config.fault_response,
        };
        (ctx, &mut self.cores, &mut self.outcomes)
    }

    /// Fires the node and link kills due by the current cycle and returns
    /// how many nodes and links died. [`ShardedSim::step`] calls it first,
    /// so a cycle's kills land before any of its credits, injections or
    /// moves. A recovery driver calls it ahead of `step` to reconfigure and
    /// re-target between the kills and the movement; the step then finds
    /// nothing left to fire. The packets lost with a dying node are in
    /// [`ShardedSim::counts`] when this returns.
    pub fn fire_due_faults(&mut self) -> usize {
        let cycle = self.cycle;
        let first_new_slot = self.link_kills.list.len();
        let nodes = self.node_kills.fire(cycle);
        let links = self.link_kills.fire(cycle);
        if nodes + links == 0 {
            return 0;
        }
        let (ctx, cores, outcomes) = self.parts();
        let slots = &ctx.link_kills.list[first_new_slot..];
        for core in cores.iter_mut() {
            core.react_to_kills(&ctx, cycle, nodes > 0, slots);
        }
        outcomes.take_resolutions(ctx.inject_at, cores);
        nodes + links
    }

    /// Re-targets every in-flight packet at `placement`'s image of its
    /// logical target and re-routes it adaptively — the drain step of
    /// online reconfiguration. Packets without a healthy path (and packets
    /// already at the new image) resolve immediately; every parked packet
    /// is woken, since its route just changed under it. Returns
    /// `(rerouted, delivered_in_place, dropped)`.
    pub(crate) fn retarget_and_reroute(&mut self, placement: &Embedding) -> (u64, u64, u64) {
        let cycle = self.cycle;
        let (ctx, cores, outcomes) = self.parts();
        let mut totals = (0, 0, 0);
        for core in cores.iter_mut() {
            let (rerouted, delivered, dropped) = core.retarget(&ctx, placement, cycle);
            totals.0 += rerouted;
            totals.1 += delivered;
            totals.2 += dropped;
        }
        outcomes.take_resolutions(ctx.inject_at, cores);
        totals
    }

    /// Simulates one cycle. The cycle's due kills fire first
    /// ([`ShardedSim::fire_due_faults`]); then every core applies its due
    /// credits and claim expiries, injects due packets and runs its
    /// examination pass. The barrier then hands every outbound buffer to
    /// its receiver, each core adopts its inbound flits and credits
    /// (landing at the start of the next cycle), and the driver applies the
    /// cycle's resolutions. The per-core work of both halves runs on
    /// [`ShardedSim::threads`] workers, joined after each. Returns a
    /// summary of what happened; [`CycleEvents::is_idle`] is true only when
    /// the run has drained. With one worker a warm step allocates nothing.
    // analyzer: alloc-free
    pub fn step(&mut self) -> CycleEvents {
        // analyzer: trusted-call -- grows the dead lists only when a scheduled kill fires; cold by design
        let faults_fired = self.fire_due_faults();
        let cycle = self.cycle;
        let workers = self.threads();
        let (ctx, cores, outcomes) = self.parts();
        // analyzer: trusted-call -- spawning scoped workers allocates; only the one-worker path is allocation-free, which the counting-allocator tests pin
        fan_out(&mut *cores, workers, |group| {
            for core in group {
                core.phase(&ctx, cycle);
            }
        });
        let mut events = CycleEvents {
            cycle,
            moved: 0,
            injected: 0,
            credits_applied: 0,
            faults_fired,
            rerouted: 0,
            live: 0,
            pending_injections: 0,
        };
        for core in cores.iter() {
            events.moved += core.moved;
            events.injected += core.injected;
            events.credits_applied += core.credits_applied;
            events.rerouted += core.rerouted;
        }
        // Injections enter the network before any resolution of the same
        // cycle.
        outcomes.live += events.injected;
        // The barrier: each source's `out[dst]` trades places with its
        // destination's `out[src]`, handing every batch to its receiver
        // without a copy. Each core then adopts its batches in ascending
        // source order (the `(dst, src)` merge order at any thread count),
        // touching only itself.
        for dst in 1..cores.len() {
            let (lower, rest) = cores.split_at_mut(dst);
            let Some((core, _)) = rest.split_first_mut() else {
                continue;
            };
            for (src, sender) in lower.iter_mut().enumerate() {
                std::mem::swap(&mut sender.out[dst], &mut core.out[src]);
            }
        }
        // analyzer: trusted-call -- spawning scoped workers allocates; only the one-worker path is allocation-free, which the counting-allocator tests pin
        fan_out(&mut *cores, workers, |group| {
            for core in group {
                core.adopt_inbound(cycle + 1);
            }
        });
        outcomes.take_resolutions(ctx.inject_at, cores);
        self.total_flits += events.moved * self.packet_flits as u64;
        self.cycle += 1;
        events.live = self.outcomes.live;
        events.pending_injections = self.pending_injections();
        events
    }

    /// Applies the stop rule to the cycle `events` summarizes (with any
    /// faults or re-routes a driver ran ahead of [`ShardedSim::step`]
    /// folded in), recording a proven deadlock. Returns whether the run
    /// must stop.
    // analyzer: alloc-free
    pub(crate) fn detect_deadlock(&mut self, events: &CycleEvents) -> bool {
        let idle = self.node_kills.idle()
            && self.link_kills.idle()
            && self.cores.iter().all(ShardCore::timers_idle);
        if proves_deadlock(events, idle) {
            self.deadlocked = true;
        }
        self.deadlocked
    }

    /// Steps until cycle `horizon` (capped by `max_cycles`), the workload
    /// drains, or the stop rule proves a hard deadlock. The loop is the
    /// same at every thread count, so runs are byte-identical; with one
    /// worker it allocates nothing per cycle.
    // analyzer: alloc-free
    pub fn run_until(&mut self, horizon: u32) {
        let horizon = horizon.min(self.config.max_cycles);
        while (self.outcomes.live > 0 || self.pending_injections() > 0) && self.cycle < horizon {
            let events = self.step();
            if self.detect_deadlock(&events) {
                break;
            }
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

    /// The report for the run so far — byte-identical for any shard and
    /// thread count. Latencies are measured from each packet's injection
    /// cycle (the load's cycle for [`ShardedSim::load_oblivious`]).
    pub fn report(&mut self) -> CongestionReport {
        // Resolution order varies with the shard cut; the multiset of
        // latencies does not. A full sort (idempotent, and cheap on the
        // already-sorted prefix) restores the canonical form.
        self.outcomes.latencies.sort_unstable();
        // Per-VC counters are element-wise sums over the cores (u64 adds
        // commute, so the shard cut is invisible); still-open blocked spans
        // (up to the report cycle) are folded in from each packet's unique
        // hosting core without disturbing the live accumulators, so a
        // deadlocked report shows where the wait sits and a later report
        // stays consistent with continued stepping.
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
            delivered: self.outcomes.delivered,
            dropped: self.outcomes.dropped,
            total_flits: self.total_flits,
            completed: self.outcomes.live == 0 && self.pending_injections() == 0,
            deadlocked: self.deadlocked,
            vc_flits,
            vc_hol_blocked_cycles: vc_hol,
            latency: LatencySummary::from_sorted(&self.outcomes.latencies),
        }
    }

    /// Per-packet outcome: `(inject_cycle, delivered_cycle, dropped_cycle)`
    /// with `None` for "not (yet)". Drives the open-loop measurement-window
    /// accounting; `id` indexes packets in load order.
    pub fn packet_outcome(&self, id: usize) -> (u32, Option<u32>, Option<u32>) {
        let lift = |c: u32| if c == NEVER { None } else { Some(c) };
        (
            self.inject_at[id],
            lift(self.outcomes.delivered_at[id]),
            lift(self.outcomes.dropped_at[id]),
        )
    }

    /// Checks credit conservation: for every (directed link, virtual
    /// channel) gate, `free credits + in-flight timed returns + live
    /// occupants == buffer_depth`. A gate's credits and timed returns sit
    /// on the core that owns its link slot (or, for a return generated
    /// this cycle on another core, in that core's barrier buffer), while
    /// its occupants may be hosted by any core once they migrate on. Holds
    /// through node and link kills: a killed packet's slot drains back as
    /// a timed return, and a dead gate accumulates its full depth. Also
    /// checks that each core's parked count is the length of its blocked
    /// queues. Returns the first violation. Allocates its tallies, so call
    /// it between steps.
    pub fn check_credit_conservation(&self) -> Result<(), String> {
        for (s, core) in self.cores.iter().enumerate() {
            let entry = |&id: &u32| (id != NONE_ID).then_some(id);
            let next = |&id: &u32| entry(&core.blocked_next[id as usize]);
            let queued: usize = (core.blocked_head.iter())
                .map(|head| std::iter::successors(entry(head), next).count())
                .sum();
            if queued != core.parked {
                return Err(format!("shard {s}: parked {} != {queued}", core.parked));
            }
        }
        let depth = self.cores.first().map_or(0, |c| c.flow_depth);
        if depth == 0 {
            return Ok(());
        }
        let vcs = self.cores.first().map_or(1, |c| c.vcs);
        let gates = self.slot_start[self.shards] as usize * vcs;
        let mut occupants = vec![0u32; gates];
        let mut pending = vec![0u32; gates];
        for core in &self.cores {
            for (id, &g) in core.occupied_slot.iter().enumerate() {
                if core.in_network[id] && g != NO_SLOT {
                    occupants[g as usize] += 1;
                }
            }
            let base = core.slot_lo * vcs;
            for &(_, lg) in &core.credit_fifo[core.credit_fifo_pos..] {
                pending[base + lg as usize] += 1;
            }
            for &g in core.out.iter().flat_map(|out| &out.credits) {
                pending[g as usize] += 1;
            }
        }
        for core in &self.cores {
            for (lg, gate) in core.links.iter().enumerate() {
                let g = core.slot_lo * vcs + lg;
                if gate.credits + pending[g] + occupants[g] != depth {
                    return Err(format!(
                        "gate {g}: credits {} + pending {} + occupants {} != depth {depth}",
                        gate.credits, pending[g], occupants[g]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Bytes of heap capacity devoted to per-packet route state across all
    /// cores: the path arenas, cached entries, shift registers, cursors
    /// and segment ends, the logical targets, plus the implicit placement
    /// map. Implicit workloads keep this O(packets) regardless of `h`;
    /// materialized ones pay O(packets × h) for the arena. The implicit
    /// successor-slot table (8 B per logical label) is left out: it belongs
    /// to the (machine, placement) pair, not to any packet, and shows in
    /// peak RSS instead.
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
        per_core
            + self.logical_target.capacity() * size_of::<u32>()
            + self.implicit.placement_bytes()
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
    /// engine-vs-model suite.
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
            let want = sharded_report(&db, port, config, &pairs, 1, 1);
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
            let want = sharded_report(&db, PortModel::SinglePort, config, &pairs, 1, 1);
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
                let want = sharded_report(&db, PortModel::SinglePort, config, &pairs, 1, 1);
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
        let (db, machine) = machine_for(5, PortModel::MultiPort);
        let config = CongestionConfig {
            fault_response: FaultResponse::RerouteAdaptive,
            ..CongestionConfig::default()
        };
        let run = |shards, threads| {
            let mut sim = ShardedSim::new(machine.clone(), config, shards, threads);
            sim.load_oblivious(&db, &Embedding::identity(db.node_count()), &[(0, 4)]);
            sim.schedule_fault(0, 2).unwrap();
            sim.run()
        };
        let want = run(1, 1);
        assert!(!want.deadlocked && want.delivered == 1, "{want:?}");
        for (shards, threads) in [(2usize, 1usize), (2, 2)] {
            let got = run(shards, threads);
            assert_report_fields_equal(&got, &want);
            assert_eq!(got, want, "shards={shards} threads={threads}");
        }
    }

    #[test]
    fn matches_single_engine_with_mid_run_faults_both_responses() {
        let (db, machine) = machine_for(5, PortModel::SinglePort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let pairs = workload::uniform_pairs(n, 2 * n, &mut rng);
        for response in [FaultResponse::Drop, FaultResponse::RerouteAdaptive] {
            let config = CongestionConfig {
                fault_response: response,
                ..CongestionConfig::default()
            };
            let run = |shards| {
                let mut sim = ShardedSim::new(machine.clone(), config, shards, 1);
                sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
                sim.schedule_fault(2, 3).unwrap();
                sim.schedule_fault(4, 17).unwrap();
                sim.run()
            };
            let want = run(1);
            for shards in [2usize, 3] {
                let got = run(shards);
                assert_report_fields_equal(&got, &want);
                assert_eq!(got, want, "response={response:?} shards={shards}");
            }
        }
    }

    #[test]
    fn open_loop_report_matches_across_shards_and_threads() {
        let (db, machine) = machine_for(5, PortModel::SinglePort);
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
        let run = |shards, threads| {
            let mut sim = ShardedSim::new(machine.clone(), config, shards, threads);
            sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            sim.schedule_fault(20, 5).unwrap();
            measure_open_loop(&mut sim, &spec)
        };
        let want = run(1, 1);
        for (shards, threads) in [
            (2usize, 1usize),
            (3, 1),
            (2, 2),
            (3, 3),
            (3, 2),
            (4, 3),
            (2, 4),
        ] {
            let got = run(shards, threads);
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
        for (shards, threads) in [(4usize, 4usize), (4, 3), (3, 2), (2, 4), (1, 4)] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = ShardedSim::new(machine, config, shards, threads);
            assert_eq!(
                sim.threads(),
                threads.min(shards),
                "shards={shards} threads={threads}"
            );
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let threaded = sim.run();
            assert_report_fields_equal(&threaded, &serial);
            assert_eq!(serial, threaded, "shards={shards} threads={threads}");
        }
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
        let want = sharded_report(&db, PortModel::MultiPort, config, &pairs, 1, 1);
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
        // instead of panicking, at every shard count. The timed load appends
        // to the batch load, so the per-load table growth is exercised
        // across two loads.
        let (db, machine) = machine_for(4, PortModel::MultiPort);
        let short = Embedding::identity(8);
        let run = |shards| {
            let mut sim = ShardedSim::new(machine.clone(), CongestionConfig::default(), shards, 1);
            sim.load_oblivious(&db, &short, &[(3, 12), (0, 5)]);
            sim.load_oblivious_timed(&db, &short, &[(2, 9, 1), (3, 0, 3)]);
            sim.run()
        };
        let want = run(1);
        assert_eq!((want.injected, want.delivered, want.dropped), (4, 2, 2));
        for shards in [2usize, 3] {
            let got = run(shards);
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
    fn observe(sim: &mut ShardedSim) -> (CongestionReport, String, Outcomes) {
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
            sim.schedule_fault(2, node).unwrap();
        }
        if let Some(links) = load.links {
            sim.schedule_link_faults(2, links).unwrap();
        }
    }

    #[test]
    fn a_reused_engine_matches_fresh_engines_across_workloads() {
        // One engine per (flow control, port model, shards, threads) runs
        // the sequence twice with `clear_workload` between loads, and every
        // run must equal a fresh ShardedSim and the single-table engine on
        // the same load. The complement map is a de Bruijn automorphism, so
        // its load routes through a non-identity placement: without the
        // clear, the implicit context rejects it after the identity loads
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
                    load_sharded(&mut single, &db, load);
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
    fn materialized_loads_match_across_shards() {
        // Materialized segments come from two places: a second load through
        // a placement other than the captured one (the complement map, a de
        // Bruijn automorphism), and every mid-run re-route around the node
        // kills. They live in the arena of the core hosting their packet and
        // travel in the barrier's path words. Every shard and thread count
        // must agree with the single-table run, packet by packet.
        let db = DeBruijn2::new(6);
        let n = db.node_count();
        let identity = Embedding::identity(n);
        let complement = Embedding::from_map((0..n).map(|v| n - 1 - v).collect());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let first = workload::uniform_pairs(n, 2 * n, &mut rng);
        let second = workload::uniform_pairs(n, 2 * n, &mut rng);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
        let load = |config, shards, threads| {
            let mut sim = ShardedSim::new(machine.clone(), config, shards, threads);
            sim.load_oblivious(&db, &identity, &first);
            sim.load_oblivious(&db, &complement, &second);
            for node in [9, 40] {
                sim.schedule_fault(2, node).unwrap();
            }
            sim
        };
        for flow_control in [
            FlowControl::Infinite,
            FlowControl::VirtualChannel {
                vcs: 2,
                buffer_depth: 2,
                switching: Switching::Wormhole { packet_flits: 2 },
            },
        ] {
            let config = CongestionConfig {
                flow_control,
                fault_response: FaultResponse::RerouteAdaptive,
                ..CongestionConfig::default()
            };
            let want = observe(&mut load(config, 1, 1));
            for (shards, threads) in [(2usize, 1usize), (4, 1), (4, 2), (3, 2)] {
                let got = observe(&mut load(config, shards, threads));
                assert_eq!(got.1, want.1, "{flow_control:?} shards={shards}: report");
                assert_eq!(got.2, want.2, "{flow_control:?} shards={shards}: outcomes");
            }
        }
        // The kills do force re-routes: on unbounded buffers the run drains,
        // so stepping it to the end counts them.
        let mut sim = load(
            CongestionConfig {
                fault_response: FaultResponse::RerouteAdaptive,
                ..CongestionConfig::default()
            },
            2,
            1,
        );
        let mut rerouted = 0;
        while sim.counts().3 > 0 {
            rerouted += sim.step().rerouted;
        }
        assert!(rerouted > 0, "no packet re-routed");
    }

    #[test]
    fn recovery_matches_across_shards() {
        // The online recovery loop on a congested B^2(2,5): the fault
        // firing ahead of the step, the drops it counts, the re-targeting
        // and the drain must not depend on the shard count.
        let ft = ftdb_core::FtDeBruijn2::new(5, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let pairs = workload::uniform_pairs(32, 96, &mut rng);
        let config = CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 2 },
            fault_response: FaultResponse::RerouteAdaptive,
            ..CongestionConfig::default()
        };
        let schedule = [(3, 6), (5, 21)];
        let want =
            super::super::run_recovery(&ft, &pairs, &schedule, PortModel::SinglePort, config)
                .expect("two faults are within the budget");
        assert!(want.rerouted > 0 && want.lost_on_dead_nodes > 0, "{want:?}");
        let initial = ft.reconfigure(&ftdb_core::FaultSet::empty(ft.node_count()));
        for shards in [2usize, 4] {
            let machine = PhysicalMachine::new(ft.graph().clone(), PortModel::SinglePort);
            let mut sim = ShardedSim::new(machine, config, shards, 1);
            sim.load_oblivious(ft.target(), &initial, &pairs);
            for &(cycle, node) in &schedule {
                sim.schedule_fault(cycle, node).unwrap();
            }
            let got = super::super::engine::recover(&mut sim, &ft, config.max_cycles)
                .expect("two faults are within the budget");
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "shards={shards}");
        }
    }

    #[test]
    fn retargeting_wakes_parked_packets_on_every_shard() {
        // A hot spot parks packets on full buffers all over the machine;
        // re-targeting them through the complement placement, with no fault
        // that cycle to wake them first, changes every route under them, so
        // each core must wake its own parked packets for the run to match
        // the one-shard engine.
        let (db, machine) = machine_for(5, PortModel::SinglePort);
        let n = db.node_count();
        let complement = Embedding::from_map((0..n).map(|v| n - 1 - v).collect());
        let config = CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 2 },
            ..CongestionConfig::default()
        };
        let run = |shards| {
            let mut sim = ShardedSim::new(machine.clone(), config, shards, 1);
            sim.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 3));
            sim.run_until(6);
            let counts = sim.retarget_and_reroute(&complement);
            (counts, observe(&mut sim))
        };
        let want = run(1);
        assert!(want.0 .0 > 0, "nothing re-routed: {:?}", want.0);
        for shards in [2usize, 4] {
            let got = run(shards);
            assert_eq!(got.0, want.0, "shards={shards}: re-target counts");
            assert_eq!(got.1 .1, want.1 .1, "shards={shards}: report");
            assert_eq!(got.1 .2, want.1 .2, "shards={shards}: outcomes");
        }
    }

    /// The pending `(due, gate)` credit returns of every core, sorted.
    fn pending_credits(sim: &ShardedSim) -> Vec<(u32, u32)> {
        let mut pending: Vec<_> = sim
            .cores
            .iter()
            .flat_map(|c| {
                let base = (c.slot_lo * c.vcs) as u32;
                c.credit_fifo[c.credit_fifo_pos..]
                    .iter()
                    .map(move |&(due, lg)| (due, base + lg))
            })
            .collect();
        pending.sort_unstable();
        pending
    }

    #[test]
    fn same_cycle_returns_to_one_gate_are_separate_entries() {
        // Under a depth-2 hot spot on B(2,4) two packets leave one input
        // buffer in the same cycle, so one gate gets two returns due the
        // same cycle: two equal FIFO entries, which wake two heads.
        // `wakelist_differential.rs` runs the scenario against the model.
        let (db, machine) = machine_for(4, PortModel::MultiPort);
        let config = CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 2 },
            ..CongestionConfig::default()
        };
        let mut sim = ShardedSim::new(machine, config, 1, 1);
        sim.load_oblivious(&db, &Embedding::identity(16), &workload::all_to_one(16, 3));
        let mut twins = 0;
        for _ in 0..64 {
            sim.step();
            let pending = pending_credits(&sim);
            twins += pending.windows(2).filter(|w| w[0] == w[1]).count();
        }
        assert!(twins > 0, "no gate got two returns in one cycle");
    }

    #[test]
    fn credit_fifo_keeps_its_capacity_when_kills_drop_full_buffers() {
        // Uniform traffic wedges a depth-3 B(2,4) with most buffers full;
        // then every node dies at once, and each buffered packet returns
        // its credit in that cycle: more returns than the machine has
        // gates, all due together. No core's FIFO outgrows the reserve it
        // got at construction, at any shard count.
        let (db, machine) = machine_for(4, PortModel::MultiPort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let pairs = workload::uniform_pairs(n, 32 * n, &mut rng);
        let config = CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth: 3 },
            ..CongestionConfig::default()
        };
        for shards in [1usize, 2, 4] {
            let mut sim = ShardedSim::new(machine.clone(), config, shards, 1);
            let capacity: Vec<_> = sim.cores.iter().map(|c| c.credit_fifo.capacity()).collect();
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let wedged = sim.run();
            assert!(wedged.deadlocked, "shards={shards}: {wedged:?}");
            let kill = sim.cycle();
            for node in 0..n {
                sim.schedule_fault(kill, node).unwrap();
            }
            sim.fire_due_faults();
            if shards == 1 {
                let returns = pending_credits(&sim).iter().filter(|c| c.0 > kill).count();
                assert!(returns > sim.cores[0].links.len(), "{returns} returns");
            }
            for _ in 0..2 {
                sim.step();
                sim.check_credit_conservation().unwrap();
            }
            assert!(sim.cores.iter().all(|c| c.timers_idle()), "shards={shards}");
            for (core, &cap) in sim.cores.iter().zip(&capacity) {
                assert_eq!(core.credit_fifo.capacity(), cap, "shards={shards}");
            }
        }
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
