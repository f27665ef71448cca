//! The congestion engine's one cycle kernel: [`ShardedSim`] partitions the
//! machine's nodes into contiguous label ranges (the de Bruijn prefix cut,
//! see the private `boundary` module), runs one wake-list core
//! (`ShardCore`) per shard, and exchanges migrating packets and credit
//! returns at cycle barriers. With one shard there is no barrier traffic at all,
//! and that configuration is [`super::CongestionSim`]. Its
//! [`CongestionReport`] is byte-identical for any shard count and thread
//! count, and equal to what the reference model of the cycle rules
//! (`tests/model.rs`) computes — enforced by the differential suite, the
//! golden outputs of `tests/tests/engine_golden.rs` and the shard and
//! thread comparisons of `experiments` in `crates/bench/tests/`.
//!
//! [`ShardedSim::step`] is the only cycle body at every thread count.
//! Threads change only where per-core work runs: on `min(threads, shards)`
//! scoped workers. Each worker owns a contiguous group of cores and one
//! packet table, indexed by global packet id, that holds the state of every
//! packet those cores host. A packet that moves to another core of the same
//! worker keeps its row and is handed over as its id; only a packet that
//! leaves its worker carries its state, in a `Flit`. With one worker,
//! packet state exists once at any shard count. The barrier's buffer swap,
//! the resolution drain and the stop rule run on the calling thread.
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
//! like a mover that stays on its shard; its VC index stays in its
//! worker's table or rides in the `Flit`.
//!
//! Route state: every packet holds, in its worker's table, one packed entry
//! (its node and the CSR slot of its next hop) and one `(pos, rem)` pair.
//! An oblivious packet's pair is its shift register in the shared implicit
//! context (`ImplicitRoute`, O(1) state per packet). A materialized path —
//! a second load through a different placement, a mid-run re-route, a
//! recovery re-target — lives in the engine's one path arena, which only
//! serial code writes; its packet holds `rem = 0` and the index of its
//! entry there, so a migration ships no path. Every route ends at a
//! terminal entry, and a mover whose next entry is terminal has arrived.
//!
//! A packet whose next hop died under [`FaultResponse::RerouteAdaptive`] is
//! only noted by its core's examination pass. One serial pass in
//! [`ShardedSim::step`], after every core's phase and before the barrier,
//! re-routes the noted packets in core order, then id order, with the
//! engine's one [`Searcher`]. The kills a search reads are fixed for the
//! whole cycle, and a re-routed packet moves only in a later cycle, so the
//! pass decides what the examination pass would have decided.
//!
//! One engine can serve many workloads: [`ShardedSim::clear_workload`]
//! drops the loaded workload and both fault schedules but keeps the
//! machine, every buffer's capacity, the per-destination boundary buffers
//! and the warmed re-route [`Searcher`].

use super::boundary::{shard_floor, shard_of, BoundaryBatch, Flit};
use super::engine::{
    pk, pk_node, pk_slot, pk_terminal, CongestionConfig, CongestionReport, CycleEvents,
    FaultResponse, FlowControl, LinkGate, Switching, NEVER, NONE_ID, NO_LOGICAL, NO_SLOT,
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
use std::ops::Range;

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
/// cycle and no link — ending at a terminal entry, and returns the index
/// of its first entry. The links were validated when the route was
/// computed, so a missing slot here is a loader or search bug.
fn spill(arena: &mut Vec<u64>, machine: &PhysicalMachine, nodes: &[NodeId]) -> u32 {
    let start = arena.len();
    for &node in nodes {
        match arena[start..].last_mut() {
            Some(last) if pk_node(*last) == node => continue,
            Some(last) => {
                let slot = machine
                    .graph()
                    .edge_slot(pk_node(*last), node)
                    // analyzer: allow(expect) -- every loaded or re-routed path was computed against this CSR, so a missing slot is a loader bug; aborting beats simulating a phantom link
                    .expect("routes only traverse physical links");
                *last = pk(pk_node(*last) as u32, slot as u32);
            }
            None => {}
        }
        arena.push(pk(node as u32, NO_SLOT));
    }
    start as u32
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

/// The engine's flow control, validated once by [`ShardedSim::new`] and
/// shared by every core.
#[derive(Clone, Copy, Debug)]
struct FlowSpec {
    /// Buffer depth per (directed link, VC) buffer (0 =
    /// [`FlowControl::Infinite`]).
    depth: u32,
    /// Virtual channels per link; 1 for the legacy flow-control modes.
    vcs: usize,
    /// Flits per packet: every hop holds its link for this many cycles and
    /// returns the freed upstream credit this many cycles later (1 =
    /// store-and-forward; [`Switching::Wormhole`] sets it higher).
    packet_flits: u32,
    /// Whether per-VC metrics (`vc`, `blocked_since`) are live — true only
    /// under [`FlowControl::VirtualChannel`].
    track_vc: bool,
}

impl FlowSpec {
    /// Validates `flow`: panics when it asks for an empty buffer, no
    /// virtual channel or an empty wormhole train.
    fn new(flow: FlowControl) -> Self {
        let (depth, vcs, packet_flits) = match flow {
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
        FlowSpec {
            depth,
            vcs: vcs as usize,
            packet_flits,
            track_vc: matches!(flow, FlowControl::VirtualChannel { .. }),
        }
    }
}

/// The state of every packet a worker's cores host, indexed by global
/// packet id (the table spans the whole id space). A packet is *hosted* by
/// the core owning its current node, and its row is valid while
/// `in_network` is set: exactly in the table of that core's worker. Only
/// that worker writes the row. A packet that moves to another core of the
/// same worker keeps it; one that leaves the worker carries it in a
/// [`Flit`], and the receiving worker writes it into its own table.
#[derive(Default)]
struct PacketTable {
    /// Cached packed entry of each hosted packet's current position: node
    /// and the CSR slot of its next hop. The examination pass reads only
    /// this.
    entry: Vec<u64>,
    /// Logical shift-register position *after* the pending hop; for a
    /// materialized route (`rem == 0`), the index of `entry` in the
    /// engine's path arena.
    pos: Vec<u32>,
    /// Remaining target bits after the pending hop, sentinel-encoded (see
    /// [`implicit_route::rem_init`]), or 0 for a materialized route.
    rem: Vec<u32>,
    /// *Global* gate id (`slot * vcs + vc`) of the buffer the packet
    /// occupies (may belong to another core after a migration; credits
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
    /// Intrusive next-pointers threading the cores' blocked queues through
    /// the table.
    blocked_next: Vec<u32>,
    /// Whether the packet is live and hosted by one of the worker's cores.
    in_network: Vec<bool>,
}

impl PacketTable {
    /// Resizes every column to `packets` ids, giving new ids the default
    /// (not-hosted) state: one bulk resize per load (or per clear, to 0),
    /// not a push per packet per column. Capacity is kept.
    fn resize(&mut self, packets: usize) {
        self.entry.resize(packets, pk(0, NO_SLOT));
        self.pos.resize(packets, 0);
        self.rem.resize(packets, 0);
        self.occupied_slot.resize(packets, NO_SLOT);
        self.vc.resize(packets, 0);
        self.blocked_since.resize(packets, NEVER);
        self.blocked_next.resize(packets, NONE_ID);
        self.in_network.resize(packets, false);
    }

    /// Advances hosted packet `id` past the hop it just won: for an
    /// implicit packet the shared context's step
    /// ([`ImplicitRoute::advance`]), for a materialized one the next entry
    /// of its path in `arena`. A terminal entry means it has arrived.
    #[inline]
    // analyzer: alloc-free
    fn advance_route(&mut self, ctx: &ShardCtx<'_>, arena: &[u64], id: usize) {
        let (pos, rem) = (self.pos[id], self.rem[id]);
        let (entry, pos, rem) = if rem == 0 {
            (arena[pos as usize + 1], pos + 1, 0)
        } else {
            ctx.implicit.advance(ctx.machine, pos, rem)
        };
        self.entry[id] = entry;
        self.pos[id] = pos;
        self.rem[id] = rem;
    }
}

/// One shard's share of the engine state. Link-gate state (`links`, the
/// credit FIFO, blocked queues) is indexed by *local* gate id
/// (`global_gidx - slot_lo * vcs`, one gate per (link slot, VC)); packet
/// state lives in the worker's [`PacketTable`], which every method that
/// reads it takes as `packets`.
struct ShardCore {
    node_lo: usize,
    node_hi: usize,
    slot_lo: usize,
    slot_hi: usize,
    /// Shard indices of the cores of this core's worker (its own included):
    /// a packet moving to one of them keeps its table row.
    crew: Range<usize>,
    flow: FlowSpec,
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
    /// occupied, so at most `gates × depth` are pending; compaction
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
    // --- work queues (bit per packet id, full id space) ------------------
    /// Bitmap work-queue of packets to examine this cycle (bit per packet
    /// id). Scanning set bits low-to-high *is* oldest-first arbitration,
    /// and re-waking an already-queued packet is naturally idempotent.
    queued_now: Vec<u64>,
    /// The bitmap being built for the next cycle; swapped with
    /// `queued_now` after each examination pass.
    queued_next: Vec<u64>,
    /// Packets whose next hop died this cycle under
    /// [`FaultResponse::RerouteAdaptive`], in id order. The engine's serial
    /// re-route pass drains it after every core's phase.
    reroute: Vec<u32>,
    // --- injection (home-shard packets only) ------------------------------
    /// Packet ids not yet injected, sorted by injection cycle.
    pending_inject: Vec<u32>,
    inject_pos: usize,
    // --- per-cycle outputs ------------------------------------------------
    /// `(id, cycle, RES_*)` resolutions, drained by the driver.
    resolved: Vec<(u32, u32, u8)>,
    /// Outbound packets and credit returns, one buffer per destination
    /// shard (indexed by it). The barrier swaps entry `dst` with entry
    /// `src` of the receiver, which adopts and empties it, so buffers keep
    /// their capacity but move between cores.
    out: Vec<BoundaryBatch>,
    moved: u64,
    injected: u64,
    credits_applied: u64,
    /// Per-VC flit totals for this core's links (summed by the driver).
    vc_flits: Vec<u64>,
    /// Per-VC closed head-of-line blocked spans (summed by the driver; the
    /// report adds the still-open spans of hosted packets).
    vc_hol_blocked_cycles: Vec<u64>,
}

impl ShardCore {
    /// The core of shard `s` of `n` nodes cut into `slot_start.len() - 1`
    /// shards, in the worker whose cores are `crew`.
    fn new(s: usize, n: usize, slot_start: &[u32], crew: Range<usize>, flow: FlowSpec) -> Self {
        let shards = slot_start.len() - 1;
        let (node_lo, node_hi) = (shard_floor(s, n, shards), shard_floor(s + 1, n, shards));
        let (slot_lo, slot_hi) = (slot_start[s] as usize, slot_start[s + 1] as usize);
        let slots = slot_hi - slot_lo;
        let gates = slots * flow.vcs;
        let vc_metrics = if flow.track_vc { flow.vcs } else { 0 };
        ShardCore {
            node_lo,
            node_hi,
            slot_lo,
            slot_hi,
            crew,
            flow,
            links: vec![
                LinkGate {
                    claim: NEVER,
                    credits: flow.depth,
                };
                gates
            ],
            // The bound in `credit_fifo`'s docs (64 entries when unbounded).
            credit_fifo: Vec::with_capacity(2 * gates * flow.depth as usize + 64),
            credit_fifo_pos: 0,
            parked: 0,
            blocked_head: vec![NONE_ID; gates],
            blocked_tail: vec![NONE_ID; gates],
            served_fifo: Vec::with_capacity((slots * flow.packet_flits as usize).min(1 << 16)),
            served_fifo_pos: 0,
            node_claim: vec![NEVER; node_hi - node_lo],
            queued_now: Vec::new(),
            queued_next: Vec::new(),
            reroute: Vec::new(),
            pending_inject: Vec::new(),
            inject_pos: 0,
            resolved: Vec::new(),
            out: (0..shards).map(|_| BoundaryBatch::default()).collect(),
            moved: 0,
            injected: 0,
            credits_applied: 0,
            vc_flits: vec![0; vc_metrics],
            vc_hol_blocked_cycles: vec![0; vc_metrics],
        }
    }

    /// Resizes both work queues to `packets` ids, new ids unqueued.
    /// Capacity is kept.
    fn resize_queues(&mut self, packets: usize) {
        let words = packets.div_ceil(64);
        self.queued_now.resize(words, 0);
        self.queued_next.resize(words, 0);
    }

    /// Queues packet `id` for the coming examination pass: this cycle's
    /// for a wake event, which fires before the pass, and the next cycle's
    /// for an adopted flit or a re-routed packet, which arrive after it.
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
    fn park_on_slot(&mut self, packets: &mut PacketTable, id: usize, lg: usize) {
        self.parked += 1;
        let next = &mut packets.blocked_next;
        let id32 = id as u32;
        let head = self.blocked_head[lg];
        if head == NONE_ID {
            self.blocked_head[lg] = id32;
            self.blocked_tail[lg] = id32;
            next[id] = NONE_ID;
        } else if id32 > self.blocked_tail[lg] {
            let tail = self.blocked_tail[lg] as usize;
            next[tail] = id32;
            self.blocked_tail[lg] = id32;
            next[id] = NONE_ID;
        } else if id32 < head {
            next[id] = head;
            self.blocked_head[lg] = id32;
        } else {
            // Mid-queue insert: rare (a buffered packet joining a long
            // injection queue), and bounded by the queue length.
            let mut prev = head as usize;
            while next[prev] != NONE_ID && next[prev] < id32 {
                prev = next[prev] as usize;
            }
            next[id] = next[prev];
            next[prev] = id32;
        }
    }

    /// Pops gate `lg`'s oldest parked packet back into this cycle's work
    /// queue. Only the head can ever move (everything behind it shares the
    /// same node port, link claim and credit counter and is strictly
    /// younger), so one head per wake event is exact — no thundering herd.
    // analyzer: alloc-free
    fn wake_head(&mut self, packets: &PacketTable, lg: usize) {
        let head = self.blocked_head[lg];
        if head != NONE_ID {
            self.parked -= 1;
            self.queue_now(head as usize);
            self.blocked_head[lg] = packets.blocked_next[head as usize];
            if self.blocked_head[lg] == NONE_ID {
                self.blocked_tail[lg] = NONE_ID;
            }
        }
    }

    /// Drains gate `lg`'s blocked queue into this cycle's work queue.
    // analyzer: alloc-free
    fn wake_slot(&mut self, packets: &PacketTable, lg: usize) {
        let mut cur = self.blocked_head[lg];
        while cur != NONE_ID {
            self.parked -= 1;
            self.queue_now(cur as usize);
            cur = packets.blocked_next[cur as usize];
        }
        self.blocked_head[lg] = NONE_ID;
        self.blocked_tail[lg] = NONE_ID;
    }

    /// Wakes every parked packet — the response to whole-network events (a
    /// node kill, a recovery driver re-routing in flight) that can change
    /// any packet's next hop or its movability; it stops once none is parked.
    // analyzer: alloc-free
    fn wake_all_parked(&mut self, packets: &PacketTable) {
        let mut lg = 0;
        while self.parked > 0 {
            self.wake_slot(packets, lg);
            lg += 1;
        }
    }

    /// Records that blocked packet `id` became unblocked (moved or
    /// resolved) at `cycle`, folding the blocked span into the per-VC
    /// head-of-line counter.
    #[inline]
    // analyzer: alloc-free
    fn note_unblocked(&mut self, packets: &mut PacketTable, id: usize, cycle: u32) {
        if self.flow.track_vc {
            let since = packets.blocked_since[id];
            if since != NEVER {
                self.vc_hol_blocked_cycles[packets.vc[id] as usize] += (cycle - since) as u64;
                packets.blocked_since[id] = NEVER;
            }
        }
    }

    /// Records that packet `id` failed examination at `cycle`; only the
    /// *first* failure since the last move sticks.
    #[inline]
    // analyzer: alloc-free
    fn note_blocked(&self, packets: &mut PacketTable, id: usize, cycle: u32) {
        if self.flow.track_vc && packets.blocked_since[id] == NEVER {
            packets.blocked_since[id] = cycle;
        }
    }

    /// Enqueues one credit return for global gate `g` (owned here), due at
    /// `due`. Every credit, local or barrier-shipped, is its own entry and
    /// wakes its own queue head: one wake per credit at any shard count.
    // analyzer: alloc-free
    fn push_credit(&mut self, g: u32, due: u32) {
        let lg = g - (self.slot_lo * self.flow.vcs) as u32;
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
        let slot = gu / self.flow.vcs;
        if slot >= self.slot_lo && slot < self.slot_hi {
            self.push_credit(g, cycle + self.flow.packet_flits);
        } else {
            let owner = ctx.slot_start.partition_point(|&x| (x as usize) <= slot) - 1;
            // analyzer: allow(alloc) -- the per-destination barrier buffer keeps its capacity for the core's life; the counting-allocator tests prove reruns never reallocate
            self.out[owner].credits.push(g);
        }
    }

    /// Resolves packet `id` with resolution `code`, releasing its buffer
    /// slot (possibly to another shard) under credit flow control. Every
    /// path that removes a packet from the network or from its injection
    /// queue goes through here — fault kills included, which would
    /// otherwise leak the dead processor's input slots and starve the
    /// upstream links forever. A packet still in its injection queue holds
    /// no slot and no blocked span, so for it this only records the code.
    // analyzer: alloc-free
    fn resolve(
        &mut self,
        ctx: &ShardCtx<'_>,
        packets: &mut PacketTable,
        id: usize,
        cycle: u32,
        code: u8,
    ) {
        self.note_unblocked(packets, id, cycle);
        // analyzer: allow(alloc) -- drained by the driver every cycle, so it keeps the capacity of the busiest cycle; the counting-allocator tests prove reruns never reallocate
        self.resolved.push((id as u32, cycle, code));
        packets.in_network[id] = false;
        if self.flow.depth > 0 {
            let g = packets.occupied_slot[id];
            if g != NO_SLOT {
                self.return_credit(ctx, g, cycle);
                packets.occupied_slot[id] = NO_SLOT;
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
    fn apply_pending_credits(&mut self, packets: &PacketTable, cycle: u32) -> u64 {
        let start = self.credit_fifo_pos;
        while let Some(&(due, lg)) = self.credit_fifo.get(self.credit_fifo_pos) {
            if due > cycle {
                break;
            }
            self.credit_fifo_pos += 1;
            let lg = lg as usize;
            self.links[lg].credits += 1;
            debug_assert!(self.links[lg].credits <= self.flow.depth, "credit overflow");
            if self.parked > 0 {
                self.wake_head(packets, lg);
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
    fn apply_due_serves(&mut self, packets: &PacketTable, cycle: u32) {
        while self.parked > 0 && self.served_fifo_pos < self.served_fifo.len() {
            let (due, ls) = self.served_fifo[self.served_fifo_pos];
            if due > cycle {
                break;
            }
            self.served_fifo_pos += 1;
            let base = ls as usize * self.flow.vcs;
            for lg in base..base + self.flow.vcs {
                if self.blocked_head[lg] != NONE_ID
                    && (self.flow.depth == 0 || self.links[lg].credits > 0)
                {
                    self.wake_head(packets, lg);
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
    fn inject_due(&mut self, ctx: &ShardCtx<'_>, packets: &mut PacketTable, cycle: u32) {
        while self.inject_pos < self.pending_inject.len() {
            let id = self.pending_inject[self.inject_pos] as usize;
            if ctx.inject_at[id] > cycle {
                break;
            }
            self.inject_pos += 1;
            let code = if !ctx.is_alive(pk_node(packets.entry[id])) {
                RES_DROPPED_AT_INJECT
            } else if pk_terminal(packets.entry[id]) {
                RES_DELIVERED_AT_INJECT
            } else {
                self.queue_now(id);
                packets.in_network[id] = true;
                self.injected += 1;
                continue;
            };
            self.resolve(ctx, packets, id, cycle, code);
        }
    }

    /// Wakes what the kills [`ShardedSim::fire_due_faults`] just fired may
    /// have unblocked: every parked packet when a node died (`node_died`),
    /// because its next hop may now lead into a dead node, and the gates of
    /// each dead directed CSR slot in `slots` that this core owns. A link
    /// kill is a local wake event (every packet parked on a dead slot's
    /// gates lives here), and packets buffered downstream keep flying — the
    /// link died, not the receiving buffer — so credit conservation holds
    /// per gate with no eviction.
    fn wake_after_kills(&mut self, packets: &PacketTable, node_died: bool, slots: &[u32]) {
        if node_died {
            self.wake_all_parked(packets);
        }
        for &slot in slots {
            let slot = slot as usize;
            if slot >= self.slot_lo && slot < self.slot_hi {
                let base = (slot - self.slot_lo) * self.flow.vcs;
                for lg in base..base + self.flow.vcs {
                    self.wake_slot(packets, lg);
                }
            }
        }
    }

    /// Hands hosted packet `id` — whose current node `now` belongs to
    /// another shard — to its new host at the cycle barrier. Within the
    /// worker only its id travels: its row stays in the worker's table.
    /// Leaving the worker, its state travels in a flit and its row here
    /// goes dead. Either way its occupied buffer slot stays recorded
    /// (globally) and drains back to this shard when the packet next moves.
    // analyzer: alloc-free
    fn emigrate(&mut self, ctx: &ShardCtx<'_>, packets: &mut PacketTable, id: usize, now: usize) {
        let dst = shard_of(now, ctx.n, ctx.shards);
        // A mover's blocked span was closed by `note_unblocked` on the move
        // that triggered this migration, so no HoL state needs to travel.
        debug_assert!(
            packets.blocked_since[id] == NEVER,
            "blocked span crossed a barrier"
        );
        let out = &mut self.out[dst];
        if self.crew.contains(&dst) {
            // analyzer: allow(alloc) -- the per-destination barrier buffer keeps its capacity for the core's life; the counting-allocator tests prove reruns never reallocate
            out.ids.push(id as u32);
            return;
        }
        // analyzer: allow(alloc) -- the per-destination barrier buffer keeps its capacity for the core's life; the counting-allocator tests prove reruns never reallocate
        out.flits.push(Flit {
            id: id as u32,
            entry: packets.entry[id],
            pos: packets.pos[id],
            rem: packets.rem[id],
            occupied_slot: packets.occupied_slot[id],
            vc: packets.vc[id],
        });
        packets.in_network[id] = false;
    }

    /// Adopts one barrier-shipped batch at the start of cycle `now`: credit
    /// returns into the timed FIFO (due `now + packet_flits - 1`, i.e. the
    /// same `generating_cycle + packet_flits` a local return would carry),
    /// flits from another worker into `packets`, and every arriving packet
    /// into this cycle's examination — the same timing a mover has when it
    /// stays on its shard. A packet handed over within the worker already
    /// has its row, so only its queue bit is set.
    // analyzer: alloc-free
    fn apply_inbound(&mut self, packets: &mut PacketTable, batch: &BoundaryBatch, now: u32) {
        let due = now + self.flow.packet_flits - 1;
        for &g in &batch.credits {
            let slot = g as usize / self.flow.vcs;
            debug_assert!(
                slot >= self.slot_lo && slot < self.slot_hi,
                "foreign credit"
            );
            self.push_credit(g, due);
        }
        for flit in &batch.flits {
            let id = flit.id as usize;
            packets.entry[id] = flit.entry;
            packets.pos[id] = flit.pos;
            packets.rem[id] = flit.rem;
            packets.occupied_slot[id] = flit.occupied_slot;
            packets.vc[id] = flit.vc;
            packets.in_network[id] = true;
            self.queue_now(id);
        }
        for &id in &batch.ids {
            debug_assert!(packets.in_network[id as usize], "handed-over packet left");
            self.queue_now(id as usize);
        }
    }

    /// Adopts the batches the barrier swapped into `out` (entry `src` holds
    /// what shard `src` sent here) in ascending source order at the start
    /// of cycle `now`, emptying each in place.
    // analyzer: alloc-free
    fn adopt_inbound(&mut self, packets: &mut PacketTable, now: u32) {
        for src in 0..self.out.len() {
            let mut batch = std::mem::take(&mut self.out[src]);
            self.apply_inbound(packets, &batch, now);
            batch.clear();
            self.out[src] = batch;
        }
    }

    /// Drops the loaded workload, rewinding every gate, queue and metric to
    /// its state after [`ShardCore::new`] while keeping every buffer's
    /// capacity. The per-cycle outputs (`resolved`, `reroute`, `out`, the
    /// counters) need nothing: every step drains or resets them.
    fn clear_workload(&mut self) {
        for gate in &mut self.links {
            gate.claim = NEVER;
            gate.credits = self.flow.depth;
        }
        self.credit_fifo.clear();
        self.credit_fifo_pos = 0;
        self.parked = 0;
        self.blocked_head.fill(NONE_ID);
        self.blocked_tail.fill(NONE_ID);
        self.served_fifo.clear();
        self.served_fifo_pos = 0;
        self.node_claim.fill(NEVER);
        self.resize_queues(0);
        self.pending_inject.clear();
        self.inject_pos = 0;
        self.vc_flits.fill(0);
        self.vc_hol_blocked_cycles.fill(0);
    }

    /// One shard's share of a cycle, after the cycle's kills have fired:
    /// apply due credits, wake due served slots, inject due packets, then
    /// examine queued packets in ascending id order. `arena` is the
    /// engine's path arena, read-only here.
    // analyzer: alloc-free
    fn phase(&mut self, ctx: &ShardCtx<'_>, arena: &[u64], packets: &mut PacketTable, cycle: u32) {
        self.moved = 0;
        self.injected = 0;
        self.credits_applied = self.apply_pending_credits(packets, cycle);
        self.apply_due_serves(packets, cycle);
        self.inject_due(ctx, packets, cycle);
        self.exam(ctx, arena, packets, cycle);
    }

    /// The examination pass over this shard's queued packets: every packet
    /// whose gating resources could have changed is examined in age order,
    /// and moves when it wins its output port, its link and (under credit
    /// flow control) a free downstream buffer slot on its VC. A packet that
    /// fails on a full buffer parks on that gate's blocked queue; a packet
    /// that fails on a per-cycle claim is re-examined next cycle. A packet
    /// whose next hop died is dropped, or under
    /// [`FaultResponse::RerouteAdaptive`] left to the engine's serial
    /// re-route pass.
    // analyzer: alloc-free
    fn exam(&mut self, ctx: &ShardCtx<'_>, arena: &[u64], packets: &mut PacketTable, stamp: u32) {
        let FlowSpec {
            depth,
            vcs,
            packet_flits: pf,
            track_vc,
        } = self.flow;
        let credit_based = depth > 0;
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
                if !packets.in_network[id] {
                    // Resolved while queued (fault kill, re-target): skip.
                    continue;
                }
                let entry = packets.entry[id];
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
                                self.resolve(ctx, packets, id, stamp, RES_DROPPED);
                                continue;
                            }
                            FaultResponse::RerouteAdaptive => {
                                // analyzer: allow(alloc) -- filled only after a dynamic fault and drained every cycle, so it keeps the capacity of the busiest cycle; the counting-allocator tests prove reruns never reallocate
                                self.reroute.push(id as u32);
                                continue;
                            }
                        }
                    }
                }
                let here = pk_node(entry);
                let ls = slot - self.slot_lo;
                let vc = packets.vc[id] as usize;
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
                        let prev = packets.occupied_slot[id];
                        if prev != NO_SLOT {
                            self.return_credit(ctx, prev, stamp);
                        }
                        packets.occupied_slot[id] = (slot * vcs + vc) as u32;
                    }
                    // Whoever queues behind this move wakes when the claim
                    // expires. Under wormhole the pending entry is also the
                    // quiescence witness for the streaming body.
                    // analyzer: allow(alloc) -- capacity reserved at construction and kept across cycles; the counting-allocator tests prove the cycle loop never reallocates
                    self.served_fifo.push((stamp + pf, ls as u32));
                    self.moved += 1;
                    if track_vc {
                        self.vc_flits[vc] += pf as u64;
                        self.note_unblocked(packets, id, stamp);
                    }
                    packets.advance_route(ctx, arena, id);
                    if pk_terminal(packets.entry[id]) {
                        // Consumed at the target: the just-taken slot drains
                        // too (its credit also returns after the tail).
                        self.resolve(ctx, packets, id, stamp, RES_DELIVERED);
                    } else {
                        let now = pk_node(packets.entry[id]);
                        // Dateline rule: a hop that descends the physical
                        // label closes a de Bruijn shift cycle, so the
                        // packet moves up one VC (capped at the top).
                        if track_vc
                            && vc + 1 < vcs
                            && implicit_route::dateline_crossing(here as u32, now as u32)
                        {
                            packets.vc[id] = (vc + 1) as u8;
                        }
                        if now >= self.node_lo && now < self.node_hi {
                            self.queued_next[wi] |= 1u64 << (id & 63);
                        } else {
                            self.emigrate(ctx, packets, id, now);
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
                    self.note_blocked(packets, id, stamp);
                    self.park_on_slot(packets, id, lg);
                } else {
                    // Blocked on the node's output port alone (`SinglePort`)
                    // or on a still-streaming wormhole body: re-examine next
                    // cycle, when per-cycle claims expire.
                    self.note_blocked(packets, id, stamp);
                    self.queued_next[wi] |= 1u64 << (id & 63);
                }
            }
        }
        std::mem::swap(&mut self.queued_now, &mut self.queued_next);
    }
}

/// One worker's share of the engine: a contiguous group of cores and the
/// table of every packet they host. [`ShardedSim::step`] hands each worker
/// to its own scoped thread, which owns both outright until the join; the
/// serial passes read each table once.
struct Worker {
    /// Shard index of the first core.
    first: usize,
    cores: Vec<ShardCore>,
    packets: PacketTable,
}

impl Worker {
    /// Index in `cores` of the core hosting live packet `id`: the one that
    /// owns its current node.
    fn host(&self, ctx: &ShardCtx<'_>, id: usize) -> usize {
        shard_of(pk_node(self.packets.entry[id]), ctx.n, ctx.shards) - self.first
    }

    /// The worker's share of a cycle's phases, core by core.
    // analyzer: alloc-free
    fn phases(&mut self, ctx: &ShardCtx<'_>, arena: &[u64], cycle: u32) {
        for core in &mut self.cores {
            core.phase(ctx, arena, &mut self.packets, cycle);
        }
    }

    /// Every core's adoption of its inbound batches at the start of cycle
    /// `now`.
    // analyzer: alloc-free
    fn adopt(&mut self, now: u32) {
        for core in &mut self.cores {
            core.adopt_inbound(&mut self.packets, now);
        }
    }

    /// Reacts to the kills [`ShardedSim::fire_due_faults`] just fired at
    /// `cycle` (see [`ShardCore::wake_after_kills`]): when a node died
    /// (`node_died`), the packets hosted on it die with it and give their
    /// buffer slots back; then every core wakes what the kills may have
    /// unblocked.
    fn react_to_kills(&mut self, ctx: &ShardCtx<'_>, cycle: u32, node_died: bool, slots: &[u32]) {
        if node_died {
            for id in 0..self.packets.in_network.len() {
                let hosted = self.packets.in_network[id];
                if hosted && ctx.node_kills.dead[pk_node(self.packets.entry[id])] {
                    let host = self.host(ctx, id);
                    self.cores[host].resolve(ctx, &mut self.packets, id, cycle, RES_DROPPED);
                }
            }
        }
        for core in &mut self.cores {
            core.wake_after_kills(&self.packets, node_died, slots);
        }
    }

    /// Drops the loaded workload from every core and the table.
    fn clear_workload(&mut self) {
        for core in &mut self.cores {
            core.clear_workload();
        }
        self.packets.resize(0);
    }
}

/// The barrier: each core's `out[dst]` trades places with its destination's
/// `out[src]`, handing every batch to its receiver without a copy. Each
/// core then adopts its batches in ascending source order (the `(dst, src)`
/// merge order at any thread count), touching only itself and its worker's
/// table.
// analyzer: alloc-free
fn exchange(workers: &mut [Worker]) {
    let mut dst = 0;
    for w in 0..workers.len() {
        let (lower, rest) = workers.split_at_mut(w);
        let Some((worker, _)) = rest.split_first_mut() else {
            continue;
        };
        for i in 0..worker.cores.len() {
            let (before, rest) = worker.cores.split_at_mut(i);
            let Some((receiver, _)) = rest.split_first_mut() else {
                continue;
            };
            let senders = lower.iter_mut().flat_map(|w| &mut w.cores).chain(before);
            for (src, sender) in senders.enumerate() {
                std::mem::swap(&mut sender.out[dst], &mut receiver.out[src]);
            }
            dst += 1;
        }
    }
}

/// The engine's materialized routes and the one search that writes them.
/// Only serial code writes it — the loaders, the re-route pass of
/// [`ShardedSim::step`] and [`ShardedSim::retarget_and_reroute`] — and the
/// cores read the arena during their phases.
#[derive(Default)]
struct Router {
    /// Packed entries of every materialized route loaded or searched since
    /// the last [`ShardedSim::clear_workload`]; each ends at a terminal
    /// entry.
    arena: Vec<u64>,
    searcher: Searcher,
    /// Node path of the last search.
    path: Vec<NodeId>,
}

impl Router {
    /// The physical node packet `id` is routed to — where a re-route must
    /// aim: the placement image of an implicit packet's logical target, or
    /// the node of a materialized path's terminal entry.
    fn target(&self, ctx: &ShardCtx<'_>, packets: &PacketTable, id: usize) -> NodeId {
        if packets.rem[id] != 0 {
            return ctx.implicit.image(ctx.logical_target[id]) as usize;
        }
        let mut at = packets.pos[id] as usize;
        while !pk_terminal(self.arena[at]) {
            at += 1;
        }
        pk_node(self.arena[at])
    }

    /// Replaces packet `id`'s remaining route with a BFS path from its
    /// current node to `target` through the surviving machine, appended to
    /// the arena (an implicit packet materializes here: a re-route is not a
    /// shift-register walk). Returns false (packet untouched) when `target`
    /// is dead or no healthy path reaches it.
    fn reroute(
        &mut self,
        ctx: &ShardCtx<'_>,
        packets: &mut PacketTable,
        id: usize,
        target: NodeId,
    ) -> bool {
        if !ctx.is_alive(target) {
            return false;
        }
        let found = self.searcher.shortest_path_avoiding_into(
            ctx.machine.graph(),
            pk_node(packets.entry[id]),
            target,
            |v| ctx.is_alive(v),
            |slot| !ctx.link_kills.dead[slot],
            &mut self.path,
        );
        if !found {
            return false;
        }
        let start = spill(&mut self.arena, ctx.machine, &self.path);
        packets.entry[id] = self.arena[start as usize];
        packets.pos[id] = start;
        packets.rem[id] = 0;
        true
    }

    /// The cycle's serial re-route pass, after every core's phase: each
    /// packet a core's examination pass found facing a dead hop is
    /// re-routed in place, in core order and then id order. It drops when
    /// no path is left, delivers when it already sits on its target (the
    /// oblivious route revisited it), and otherwise is queued to move next
    /// cycle. Returns how many packets found a path.
    fn reroute_noted(&mut self, ctx: &ShardCtx<'_>, workers: &mut [Worker], cycle: u32) -> u64 {
        let mut rerouted = 0;
        for Worker { cores, packets, .. } in workers {
            for core in cores {
                for i in 0..core.reroute.len() {
                    let id = core.reroute[i] as usize;
                    let target = self.target(ctx, packets, id);
                    if !self.reroute(ctx, packets, id, target) {
                        core.resolve(ctx, packets, id, cycle, RES_DROPPED);
                        continue;
                    }
                    rerouted += 1;
                    if pk_terminal(packets.entry[id]) {
                        core.resolve(ctx, packets, id, cycle, RES_DELIVERED);
                    } else {
                        core.queue_now(id);
                    }
                }
                core.reroute.clear();
            }
        }
        rerouted
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
    fn take_resolutions(&mut self, inject_at: &[u32], workers: &mut [Worker]) {
        for core in workers.iter_mut().flat_map(|w| &mut w.cores) {
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
    /// The validated flow control; the driver's flit accounting multiplies
    /// packet-moves by its `packet_flits`.
    flow: FlowSpec,
    shards: usize,
    /// First global CSR slot per shard (length `shards + 1`).
    slot_start: Vec<u32>,
    /// `min(threads, shards)` workers, each owning a contiguous group of
    /// cores (the first `shards % workers` one core longer) and their
    /// packets.
    workers: Vec<Worker>,
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
    /// The materialized paths and the re-route search.
    router: Router,
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
    /// worker threads, each owning a contiguous group of shards and the
    /// state of the packets they host (0 counts as 1); the stop rule runs
    /// on the calling thread. The
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
        let flow = FlowSpec::new(config.flow_control);
        let n = machine.node_count();
        let (offsets, _) = machine.graph().csr();
        let mut slot_start = Vec::with_capacity(shards + 1);
        for s in 0..=shards {
            slot_start.push(offsets[shard_floor(s, n, shards)]);
        }
        let workers = threads.clamp(1, shards);
        let mut first = 0;
        let workers = (0..workers)
            .map(|w| {
                let crew = first..first + shards / workers + usize::from(w < shards % workers);
                first = crew.end;
                Worker {
                    first: crew.start,
                    cores: (crew.clone())
                        .map(|s| ShardCore::new(s, n, &slot_start, crew.clone(), flow))
                        .collect(),
                    packets: PacketTable::default(),
                }
            })
            .collect();
        ShardedSim {
            config,
            flow,
            shards,
            node_kills: Kills::new(n),
            link_kills: Kills::new(slot_start[shards] as usize),
            slot_start,
            workers,
            inject_at: Vec::new(),
            logical_target: Vec::new(),
            outcomes: Outcomes::default(),
            implicit: ImplicitRoute::default(),
            router: Router::default(),
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
        self.workers.len()
    }

    /// Every core, in shard order.
    // analyzer: alloc-free
    fn cores(&self) -> impl Iterator<Item = &ShardCore> {
        self.workers.iter().flat_map(|w| &w.cores)
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
        self.cores().map(ShardCore::pending_injections).sum()
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
    /// context, keeping the machine, every buffer's capacity and the
    /// warmed re-route search, so one engine can `load_*` and run
    /// many workloads (the parallel sweep harness keeps one engine per
    /// worker). The next load may come through a different placement.
    pub fn clear_workload(&mut self) {
        for worker in &mut self.workers {
            worker.clear_workload();
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
        self.router.arena.clear();
        self.outcomes.delivered = 0;
        self.outcomes.dropped = 0;
        self.outcomes.live = 0;
        self.total_flits = 0;
        self.cycle = 0;
        self.deadlocked = false;
        self.open_loop_sources = 0;
        self.last_queued_inject = None;
    }

    /// Appends packet `id == inject_at.len()`, hosted by shard `home` with
    /// route state `(entry, pos, rem)`. A packet that enters the network at
    /// load is live from now on, or delivered on the spot (latency 0) when
    /// it is born on its target; a timed one waits in its home core's
    /// injection queue.
    fn admit(
        &mut self,
        home: usize,
        (entry, pos, rem): (u64, u32, u32),
        t: u32,
        inject_cycle: u32,
        at_load: bool,
    ) {
        let id = self.inject_at.len();
        self.inject_at.push(inject_cycle);
        self.logical_target.push(t);
        self.outcomes.dropped_at.push(NEVER);
        let worker = self.workers.partition_point(|w| w.first <= home) - 1;
        let Worker {
            first,
            cores,
            packets,
        } = &mut self.workers[worker];
        let core = &mut cores[home - *first];
        packets.entry[id] = entry;
        packets.pos[id] = pos;
        packets.rem[id] = rem;
        if at_load && pk_terminal(entry) {
            self.outcomes.delivered_at.push(inject_cycle);
            self.outcomes.delivered += 1;
            self.outcomes.latencies.push(0);
        } else {
            // Timed zero-hop packets resolve at their injection cycle, in
            // `inject_due` — by then their source may have died.
            self.outcomes.delivered_at.push(NEVER);
            if at_load {
                core.queue_now(id);
                packets.in_network[id] = true;
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
        for worker in &mut self.workers {
            worker.packets.resize(total);
            for core in &mut worker.cores {
                core.resize_queues(total);
            }
        }
        if !implicit {
            // A route holds at most h + 1 nodes.
            self.router.arena.reserve(added * (db.h() + 1));
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
            let home = shard_of(source, n, self.shards);
            let route = if implicit {
                let rem = implicit_route::rem_init(db.h() as u32, t as u32);
                self.implicit.advance(&self.machine, s as u32, rem)
            } else {
                let start = spill(&mut self.router.arena, &self.machine, &path);
                (self.router.arena[start as usize], start, 0)
            };
            self.admit(home, route, t as u32, cycle, at_load);
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

    /// Splits the engine into the read-only cycle context, the workers, the
    /// driver's outcome table and the router.
    // analyzer: alloc-free
    fn parts(&mut self) -> (ShardCtx<'_>, &mut [Worker], &mut Outcomes, &mut Router) {
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
        (ctx, &mut self.workers, &mut self.outcomes, &mut self.router)
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
        let (ctx, workers, outcomes, _) = self.parts();
        let slots = &ctx.link_kills.list[first_new_slot..];
        for worker in workers.iter_mut() {
            worker.react_to_kills(&ctx, cycle, nodes > 0, slots);
        }
        outcomes.take_resolutions(ctx.inject_at, workers);
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
        let (ctx, workers, outcomes, router) = self.parts();
        let mut counts = (0, 0, 0);
        for worker in workers.iter_mut() {
            for id in 0..worker.packets.in_network.len() {
                let logical = ctx.logical_target[id];
                if !worker.packets.in_network[id] || logical == NO_LOGICAL {
                    continue;
                }
                let target = placement.apply(logical as usize);
                let host = worker.host(&ctx, id);
                let Worker { cores, packets, .. } = &mut *worker;
                if pk_node(packets.entry[id]) == target {
                    cores[host].resolve(&ctx, packets, id, cycle, RES_DELIVERED);
                    counts.1 += 1;
                } else if router.reroute(&ctx, packets, id, target) {
                    // The packet stays in the same physical buffer: a
                    // re-route replaces its remaining path, not its position.
                    counts.0 += 1;
                } else {
                    cores[host].resolve(&ctx, packets, id, cycle, RES_DROPPED);
                    counts.2 += 1;
                }
            }
            for core in &mut worker.cores {
                core.wake_all_parked(&worker.packets);
            }
        }
        outcomes.take_resolutions(ctx.inject_at, workers);
        counts
    }

    /// Simulates one cycle. The cycle's due kills fire first
    /// ([`ShardedSim::fire_due_faults`]); then every core applies its due
    /// credits and claim expiries, injects due packets and runs its
    /// examination pass, and the serial re-route pass handles the packets
    /// it found facing a dead hop. The barrier then hands every outbound buffer to
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
        let threads = self.threads();
        let (ctx, workers, outcomes, router) = self.parts();
        let arena = &router.arena;
        // analyzer: trusted-call -- spawning scoped workers allocates; only the one-worker path is allocation-free, which the counting-allocator tests pin
        fan_out(&mut *workers, threads, |group| {
            for worker in group {
                worker.phases(&ctx, arena, cycle);
            }
        });
        // analyzer: trusted-call -- searches and grows the path arena only after a dynamic fault; cold by design
        let rerouted = router.reroute_noted(&ctx, workers, cycle);
        let mut events = CycleEvents {
            cycle,
            moved: 0,
            injected: 0,
            credits_applied: 0,
            faults_fired,
            rerouted,
            live: 0,
            pending_injections: 0,
        };
        for core in workers.iter().flat_map(|w| &w.cores) {
            events.moved += core.moved;
            events.injected += core.injected;
            events.credits_applied += core.credits_applied;
        }
        // Injections enter the network before any resolution of the same
        // cycle.
        outcomes.live += events.injected;
        exchange(workers);
        // analyzer: trusted-call -- spawning scoped workers allocates; only the one-worker path is allocation-free, which the counting-allocator tests pin
        fan_out(&mut *workers, threads, |group| {
            for worker in group {
                worker.adopt(cycle + 1);
            }
        });
        outcomes.take_resolutions(ctx.inject_at, workers);
        self.total_flits += events.moved * self.flow.packet_flits as u64;
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
            && self.cores().all(ShardCore::timers_idle);
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
        // hosting worker without disturbing the live accumulators, so a
        // deadlocked report shows where the wait sits and a later report
        // stays consistent with continued stepping.
        let vcs = if self.flow.track_vc { self.flow.vcs } else { 0 };
        let mut vc_flits = vec![0u64; vcs];
        let mut vc_hol = vec![0u64; vcs];
        if self.flow.track_vc {
            for core in self.cores() {
                for (acc, v) in vc_flits.iter_mut().zip(&core.vc_flits) {
                    *acc += v;
                }
                for (acc, v) in vc_hol.iter_mut().zip(&core.vc_hol_blocked_cycles) {
                    *acc += v;
                }
            }
            for packets in self.workers.iter().map(|w| &w.packets) {
                for id in 0..packets.in_network.len() {
                    let since = packets.blocked_since[id];
                    if packets.in_network[id] && since != NEVER {
                        vc_hol[packets.vc[id] as usize] += (self.cycle - since) as u64;
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
        let hosts =
            (self.workers.iter()).flat_map(|w| w.cores.iter().map(move |c| (c, &w.packets)));
        for (s, (core, packets)) in hosts.enumerate() {
            let entry = |&id: &u32| (id != NONE_ID).then_some(id);
            let next = |&id: &u32| entry(&packets.blocked_next[id as usize]);
            let queued: usize = (core.blocked_head.iter())
                .map(|head| std::iter::successors(entry(head), next).count())
                .sum();
            if queued != core.parked {
                return Err(format!("shard {s}: parked {} != {queued}", core.parked));
            }
        }
        let FlowSpec { depth, vcs, .. } = self.flow;
        if depth == 0 {
            return Ok(());
        }
        let gates = self.slot_start[self.shards] as usize * vcs;
        let mut occupants = vec![0u32; gates];
        let mut pending = vec![0u32; gates];
        for packets in self.workers.iter().map(|w| &w.packets) {
            for (id, &g) in packets.occupied_slot.iter().enumerate() {
                if packets.in_network[id] && g != NO_SLOT {
                    occupants[g as usize] += 1;
                }
            }
        }
        for core in self.cores() {
            let base = core.slot_lo * vcs;
            for &(_, lg) in &core.credit_fifo[core.credit_fifo_pos..] {
                pending[base + lg as usize] += 1;
            }
            for &g in core.out.iter().flat_map(|out| &out.credits) {
                pending[g as usize] += 1;
            }
        }
        for core in self.cores() {
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

    /// Bytes of heap capacity devoted to per-packet route state: every
    /// worker's cached entries and `(pos, rem)` pairs, the engine's path
    /// arena, the logical targets, plus the implicit placement map.
    /// Implicit workloads keep this O(packets) regardless of `h`;
    /// materialized ones pay O(packets × h) for the arena. The implicit
    /// successor-slot table (8 B per logical label) is left out: it belongs
    /// to the (machine, placement) pair, not to any packet, and shows in
    /// peak RSS instead.
    pub fn route_state_bytes(&self) -> usize {
        use std::mem::size_of;
        let tables: usize = (self.workers.iter())
            .map(|w| {
                let p = &w.packets;
                p.entry.capacity() * size_of::<u64>()
                    + (p.pos.capacity() + p.rem.capacity()) * size_of::<u32>()
            })
            .sum();
        tables
            + self.router.arena.capacity() * size_of::<u64>()
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
        // Materialized paths come from two places: a second load through a
        // placement other than the captured one (the complement map, a de
        // Bruijn automorphism), and every mid-run re-route around the node
        // kills. They live in the engine's one path arena, and a migrating
        // packet carries only its index there. Every shard and thread count
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
            .cores()
            .flat_map(|c| {
                let base = (c.slot_lo * c.flow.vcs) as u32;
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
            let capacity: Vec<_> = sim.cores().map(|c| c.credit_fifo.capacity()).collect();
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
                assert!(
                    returns > sim.workers[0].cores[0].links.len(),
                    "{returns} returns"
                );
            }
            for _ in 0..2 {
                sim.step();
                sim.check_credit_conservation().unwrap();
            }
            assert!(sim.cores().all(|c| c.timers_idle()), "shards={shards}");
            for (core, &cap) in sim.cores().zip(&capacity) {
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
        let bytes = |shards, threads| {
            let config = CongestionConfig::default();
            let mut sim = ShardedSim::new(machine.clone(), config, shards, threads);
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let bytes = sim.route_state_bytes();
            assert_eq!(sim.run().delivered, n as u64);
            bytes
        };
        // Per packet, a worker's table holds an 8 B entry and an 8 B
        // `(pos, rem)` pair, and the driver a 4 B logical target; the
        // identity placement needs no map. That is independent of h = 10 (a
        // materialized load would add ~8 x 11 B of path entries per packet
        // on top).
        let one = bytes(1, 1);
        assert_eq!(one, 20 * pairs.len());
        // One worker keeps one table however many shards it runs...
        for shards in [2, 4] {
            assert_eq!(bytes(shards, 1), one, "shards={shards}");
        }
        // ...and two workers keep two.
        let table = |bytes: usize| bytes - 4 * pairs.len();
        assert_eq!(table(bytes(4, 2)), 2 * table(one));
    }
}
