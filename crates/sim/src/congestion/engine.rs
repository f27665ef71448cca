//! The single-table congestion engine: [`CongestionSim`], its loaders,
//! the wake-list cycle loop, recovery and open-loop measurement drivers.
//!
//! See the [module docs](super) for the full model; this file is the
//! reference implementation that [`super::shard::ShardedSim`] must match
//! byte-for-byte.

use super::implicit_route::{self, ImplicitRoute};
use crate::machine::{PhysicalMachine, PortModel, SimError};
use crate::metrics::LatencySummary;
use crate::routing::{self, Trust};
use ftdb_core::{FaultSet, FtDeBruijn2, LinkFaultSet};
use ftdb_graph::traversal::Searcher;
use ftdb_graph::{Embedding, NodeId};
use ftdb_topology::DeBruijn2;

/// Sentinel for "not yet": a cycle stamp that no real cycle reaches.
pub(crate) const NEVER: u32 = u32::MAX;
/// Sentinel for "no logical target recorded" (adaptive loads).
pub(crate) const NO_LOGICAL: u32 = u32::MAX;
/// Sentinel for "occupies no link buffer" (the packet sits in its source's
/// unbounded injection queue). Doubles as the packed hop-slot of a path's
/// final entry, which has no outgoing hop.
pub(crate) const NO_SLOT: u32 = u32::MAX;
/// Sentinel terminating the intrusive blocked-queue lists.
pub(crate) const NONE_ID: u32 = u32::MAX;
/// `cursor` value of a live packet riding the implicit digit-shift
/// generator: its route position lives in `imp_pos`/`imp_rem`, not in the
/// path arena. Distinct from [`NEVER`] (resolved).
pub(crate) const IMPLICIT_ACTIVE: u32 = u32::MAX - 1;
/// `seg_of` value of a packet with no materialized path segment.
pub(crate) const SEG_NONE: u32 = u32::MAX;
/// Flag bit on a packed path entry: the hop leaving this entry lands the
/// packet on its target, so the mover resolves without re-reading the
/// segment bounds on the hot path.
pub(crate) const DELIVERS: u64 = 1 << 63;

/// Packs a route entry: physical node in the low 32 bits, the CSR slot of
/// the hop *leaving* this entry in the high 32 (`NO_SLOT` on a terminal
/// entry). One cache access yields both the node and its outgoing link.
// analyzer: alloc-free
#[inline]
pub(crate) fn pk(node: u32, slot: u32) -> u64 {
    (node as u64) | ((slot as u64) << 32)
}

/// The physical node of a packed route entry.
// analyzer: alloc-free
#[inline]
pub(crate) fn pk_node(entry: u64) -> usize {
    entry as u32 as usize
}

/// The CSR slot of the hop leaving a packed route entry.
// analyzer: alloc-free
#[inline]
pub(crate) fn pk_slot(entry: u64) -> u32 {
    ((entry >> 32) as u32) & !(1 << 31)
}

/// True for a terminal entry: the packet has no outgoing hop (it was loaded
/// already sitting on its target).
// analyzer: alloc-free
#[inline]
pub(crate) fn pk_terminal(entry: u64) -> bool {
    pk_slot(entry) == NO_SLOT & !(1 << 31)
}

/// CSR slot of directed edge `(u, v)` in `machine`'s graph, mirroring
/// `Graph::has_edge`'s scan strategy (rows are sorted; short rows scan
/// linearly). Shared by the single-table and sharded engines, which call it
/// off the hop path only: to build the implicit successor-slot table
/// ([`ImplicitRoute`]), to pack the hop slots of materialized loads and
/// re-routes, and to resolve a scheduled link fault. Debug builds also
/// check every implicit hop's table slot against it.
// analyzer: alloc-free
pub(crate) fn edge_slot_in(machine: &PhysicalMachine, u: NodeId, v: u32) -> Option<usize> {
    let (offsets, neighbors) = machine.graph().csr();
    let start = offsets[u] as usize;
    let row = &neighbors[start..offsets[u + 1] as usize];
    if row.len() <= 32 {
        row.iter().position(|&x| x == v).map(|p| start + p)
    } else {
        row.binary_search(&v).ok().map(|p| start + p)
    }
}

/// Per-directed-link claim stamp and credit counter, interleaved so the
/// examination fast path touches one cache location per link.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkGate {
    /// The link is taken for cycle `c` while `claim == c`.
    pub(crate) claim: u32,
    /// Free downstream buffer slots (unused under
    /// [`FlowControl::Infinite`]).
    pub(crate) credits: u32,
}

/// How a packet's flits occupy a link once the head flit wins its claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Switching {
    /// One flit per packet (the classic store-and-forward unit used by all
    /// earlier engine revisions): a hop occupies the link for exactly one
    /// cycle and the freed upstream slot's credit returns one cycle later.
    #[default]
    StoreAndForward,
    /// Wormhole / cut-through: a packet is a train of `packet_flits` flits.
    /// The head flit arbitrates exactly like a store-and-forward flit; once
    /// it wins, the body streams behind it, so the link stays busy for
    /// `packet_flits` cycles and the upstream slot's credit returns only
    /// after the tail clears (`packet_flits` cycles after the head moved).
    /// The head may keep advancing while the body streams (cut-through), so
    /// packet latency is counted at *head* arrival.
    Wormhole {
        /// Flits per packet (≥ 1; `1` is exactly store-and-forward).
        packet_flits: u32,
    },
}

/// How link buffers are sized and guarded.
///
/// # Examples
///
/// The depth-1 hot-spot workload that hard-deadlocks under plain
/// credit-based buffers drains once a second, dateline-ordered virtual
/// channel is available on every link:
///
/// ```
/// use ftdb_graph::Embedding;
/// use ftdb_sim::congestion::{CongestionConfig, CongestionSim, FlowControl, Switching};
/// use ftdb_sim::machine::{PhysicalMachine, PortModel};
/// use ftdb_sim::workload;
/// use ftdb_topology::DeBruijn2;
///
/// let db = DeBruijn2::new(5);
/// let n = db.node_count();
/// let config = CongestionConfig {
///     flow_control: FlowControl::VirtualChannel {
///         vcs: 2,
///         buffer_depth: 1,
///         switching: Switching::StoreAndForward,
///     },
///     ..CongestionConfig::default()
/// };
/// let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
/// let mut sim = CongestionSim::new(machine, config);
/// sim.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 2));
/// let report = sim.run();
/// assert!(!report.deadlocked);
/// assert_eq!(report.delivered, n as u64);
/// assert_eq!(report.vc_flits.len(), 2); // per-VC flit counters
/// ```
///
/// Under wormhole switching every hop carries `packet_flits` flits, so the
/// flit totals scale with the packet length while delivery stays intact:
///
/// ```
/// use ftdb_graph::Embedding;
/// use ftdb_sim::congestion::{CongestionConfig, CongestionSim, FlowControl, Switching};
/// use ftdb_sim::machine::{PhysicalMachine, PortModel};
/// use ftdb_sim::workload;
/// use ftdb_topology::DeBruijn2;
///
/// let db = DeBruijn2::new(4);
/// let n = db.node_count();
/// let pairs = workload::bit_reversal_pairs(4);
/// let flow = |switching| FlowControl::VirtualChannel { vcs: 2, buffer_depth: 2, switching };
/// let mut totals = Vec::new();
/// for switching in [Switching::StoreAndForward, Switching::Wormhole { packet_flits: 4 }] {
///     let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
///     let mut sim = CongestionSim::new(
///         machine,
///         CongestionConfig { flow_control: flow(switching), ..CongestionConfig::default() },
///     );
///     sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
///     let report = sim.run();
///     assert!(report.completed && !report.deadlocked);
///     totals.push(report.total_flits);
/// }
/// assert_eq!(totals[1], 4 * totals[0]); // 4 flits per packet -> 4x the flits per hop
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowControl {
    /// Unbounded FIFO queues: a flit advances whenever it wins its output
    /// port and link — the PR 3 behaviour, and still the default.
    Infinite,
    /// Bounded per-link input buffers with credit-based flow control: each
    /// directed link starts with `buffer_depth` credits, a flit advancing
    /// over the link consumes one, and the credit returns one cycle after
    /// the occupied downstream slot drains (the packet moves on, is
    /// consumed at its target, or is dropped).
    CreditBased {
        /// Slots in each directed link's downstream input buffer (≥ 1).
        buffer_depth: u32,
    },
    /// `vcs` independent virtual channels per directed link, each with its
    /// own `buffer_depth`-slot input buffer and credit counter, sharing the
    /// physical link bandwidth of one flit per cycle. Packets are assigned
    /// VCs by the dateline rule (start on VC 0, bump on every descent of
    /// the physical label — see `docs/CONGESTION.md` for the
    /// deadlock-freedom proof sketch), which breaks the de Bruijn
    /// shift-cycle credit loops that deadlock [`FlowControl::CreditBased`].
    /// `VirtualChannel { vcs: 1, buffer_depth, switching: StoreAndForward }`
    /// behaves byte-identically to `CreditBased { buffer_depth }` apart
    /// from the extra per-VC report fields.
    VirtualChannel {
        /// Virtual channels per directed link (≥ 1).
        vcs: u32,
        /// Slots in each (link, vc) input buffer (≥ 1).
        buffer_depth: u32,
        /// Store-and-forward single-flit packets or wormhole flit trains.
        switching: Switching,
    },
}

/// Which per-cycle scan discipline the engine runs. Both produce
/// byte-identical reports; they differ only in how much work a cycle costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The event-driven wake-list core (default): a packet blocked on a
    /// full downstream buffer leaves the examination list and parks on
    /// that link slot's blocked queue until a credit returns, so a cycle
    /// costs O(packets that could actually move).
    #[default]
    WakeList,
    /// The naive full rescan retained as the differential-testing
    /// reference: every in-flight packet is examined every cycle.
    NaiveScan,
}

/// What a packet does when its precomputed route runs into a processor that
/// died after the route was computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultResponse {
    /// The packet is dropped at the hop that would enter the dead node.
    Drop,
    /// The packet re-routes in place: a BFS through the surviving machine
    /// from its current position to its (unchanged) physical target. The
    /// re-route happens when the dead node is *encountered*, the way a real
    /// router learns about a downed neighbour.
    RerouteAdaptive,
}

/// How oblivious routes are represented per packet. Reports are
/// byte-identical either way (enforced by the differential suite); the
/// choice only moves memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RouteSource {
    /// O(1) route state per packet (default): a packed current entry plus
    /// the digit-shift register of [`super::implicit_route`]. Adaptive
    /// loads and mid-run re-routes still materialize (their paths are BFS
    /// results, not shift-register walks) into the shared side arena.
    #[default]
    Implicit,
    /// The pre-PR-7 behaviour: every packet's full physical path is
    /// materialized at load, O(h) entries per packet. Retained as the
    /// differential-testing reference and for exotic loads the generator
    /// cannot express (a second oblivious load through a different
    /// placement also falls back here).
    Materialized,
}

/// Knobs for a congestion run.
#[derive(Clone, Copy, Debug)]
pub struct CongestionConfig {
    /// Safety cap on simulated cycles; a run that has not drained by then
    /// reports `completed = false` (it never silently spins).
    pub max_cycles: u32,
    /// Reaction to mid-run faults invalidating precomputed routes.
    pub fault_response: FaultResponse,
    /// Link-buffer sizing: unbounded queues (default) or bounded buffers
    /// with credit-based flow control.
    pub flow_control: FlowControl,
    /// Scan discipline: event-driven wake lists (default) or the retained
    /// naive rescan. Reports are byte-identical either way.
    pub engine: EngineKind,
    /// Route representation for oblivious loads: implicit O(1) shift
    /// registers (default) or materialized O(h) paths. Reports are
    /// byte-identical either way.
    pub route_source: RouteSource,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            max_cycles: 1 << 20,
            fault_response: FaultResponse::Drop,
            flow_control: FlowControl::Infinite,
            engine: EngineKind::WakeList,
            route_source: RouteSource::Implicit,
        }
    }
}

/// Aggregate result of a congestion run.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct CongestionReport {
    /// Cycles simulated until the run drained (or hit the cap).
    pub cycles: u32,
    /// Packets loaded into the engine.
    pub injected: u64,
    /// Packets delivered to their target.
    pub delivered: u64,
    /// Packets dropped (load-time infeasibility or mid-run faults).
    pub dropped: u64,
    /// Total flits moved over links (= delivered physical hops).
    pub total_flits: u64,
    /// Whether every packet resolved before `max_cycles`.
    pub completed: bool,
    /// Whether the run ended in a hard buffer deadlock: live packets remain
    /// but no flit can ever move again. Only possible with bounded buffers;
    /// single-channel credit loops ([`FlowControl::CreditBased`], or
    /// [`FlowControl::VirtualChannel`] with `vcs = 1`) deadlock on the
    /// de Bruijn shift cycles, and the dateline VC ordering with `vcs ≥ 2`
    /// is what breaks them (see `docs/CONGESTION.md`).
    pub deadlocked: bool,
    /// Flits carried per virtual channel over the whole run (a wormhole hop
    /// counts `packet_flits`). Empty unless the run used
    /// [`FlowControl::VirtualChannel`]; length `vcs` otherwise.
    pub vc_flits: Vec<u64>,
    /// Head-of-line blocking: total cycles packets spent blocked (failing
    /// examination, parked or rescanning), summed per the virtual channel
    /// they were travelling on. Still-blocked packets contribute up to the
    /// report cycle, so a deadlocked report shows where the cyclic wait
    /// sits. Empty unless the run used [`FlowControl::VirtualChannel`].
    pub vc_hol_blocked_cycles: Vec<u64>,
    /// Latency distribution over delivered packets, in cycles since
    /// injection (cycle 0).
    pub latency: LatencySummary,
}

impl CongestionReport {
    /// Makespan cycles per delivered packet (the congestion analogue of
    /// ns/packet; 0.0 when nothing was delivered). Mean *latency* is in
    /// [`CongestionReport::latency`].
    pub fn cycles_per_packet(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.cycles as f64 / self.delivered as f64
        }
    }

    /// Mean flits moved per cycle — aggregate network throughput.
    pub fn flits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_flits as f64 / self.cycles as f64
        }
    }

    /// Fraction of injected packets delivered (1.0 for an empty run).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }
}

/// The synchronous cycle-level simulator.
///
/// Lifecycle: [`CongestionSim::new`] → `load_*` workload →
/// ([`CongestionSim::schedule_fault`])* → [`CongestionSim::run`] (or
/// [`CongestionSim::step`] in a driver loop) → [`CongestionSim::report`].
/// [`CongestionSim::reset`] rewinds to the post-load state for another run;
/// [`CongestionSim::clear_workload`] discards the workload (keeping the
/// machine and the engine's capacity) so one engine can serve many loads.
#[derive(Clone, Debug)]
pub struct CongestionSim {
    machine: PhysicalMachine,
    config: CongestionConfig,
    // --- materialized route storage (side arena + segment table) --------
    /// Packed path entries: node | hop-slot << 32 (see [`pk`]). Only
    /// materialized route segments live here — adaptive loads, mid-run
    /// re-route spills, and every packet under
    /// [`RouteSource::Materialized`]. Implicit packets never touch it.
    path: Vec<u64>,
    /// Segment table (the "small side table"): `[start, end)` bounds into
    /// `path` per materialized segment, plus the load-time bounds `reset`
    /// restores (re-routes overwrite `start`/`end` with spill positions).
    seg_start: Vec<u32>,
    seg_end: Vec<u32>,
    seg_home_start: Vec<u32>,
    seg_home_end: Vec<u32>,
    /// Per-packet segment index (`SEG_NONE` for implicit packets), so the
    /// per-packet cost of materialized bookkeeping is one `u32`.
    seg_of: Vec<u32>,
    /// Absolute index into `path` of each packet's current node —
    /// [`IMPLICIT_ACTIVE`] while the packet rides the digit-shift
    /// generator, [`NEVER`] once resolved.
    cursor: Vec<u32>,
    // --- implicit route state (O(1) per packet) -------------------------
    /// Cached packed entry of each packet's *current* position: node, the
    /// CSR slot of its next hop, and the `DELIVERS` flag. Valid for every
    /// unresolved packet regardless of route source; the cycle loop reads
    /// only this.
    entry: Vec<u64>,
    /// Logical shift-register position *after* the pending hop (implicit
    /// packets only).
    imp_pos: Vec<u32>,
    /// Remaining target bits after the pending hop, sentinel-encoded (see
    /// [`implicit_route::rem_init`]).
    imp_rem: Vec<u32>,
    /// Logical source per implicit-loaded packet (`NO_LOGICAL` otherwise):
    /// `reset` re-derives the initial entry/register from it in O(h).
    origin: Vec<u32>,
    /// The implicit context (mask, placement and successor-slot table) of
    /// the oblivious loads; a later oblivious load through a *different*
    /// context falls back to materialized paths rather than mixing
    /// generators.
    implicit: ImplicitRoute,
    /// Logical target per packet (NO_LOGICAL for adaptive loads); lets the
    /// recovery driver re-target packets after a reconfiguration.
    logical_target: Vec<u32>,
    delivered_at: Vec<u32>,
    dropped_at: Vec<u32>,
    /// Injection cycle per packet (0 for the batch `load_*` APIs).
    inject_at: Vec<u32>,
    /// Snapshot of load-time outcomes so `reset` can rewind: packets dead
    /// (or delivered) on arrival keep those stamps across resets.
    resolved_at_load: Vec<u32>,
    /// Packet ids not yet injected, sorted by `inject_at`; `inject_pos`
    /// advances through it as cycles pass.
    pending_inject: Vec<u32>,
    inject_pos: usize,
    /// Logical sources behind the last timed load (0 = none): open-loop
    /// rates are per *logical* source, which on `B^k(2,h)` hosts is fewer
    /// than the physical node count.
    open_loop_sources: u32,
    /// Length of `path` right after loading finished; `reset` truncates
    /// re-route spill segments back to this watermark.
    loaded_path_len: u32,
    /// Segment count right after loading; `reset` truncates re-route spill
    /// segments of implicit packets back to this watermark.
    loaded_seg_len: u32,
    // --- dynamic faults -------------------------------------------------
    /// `(cycle, node)` pairs sorted by cycle; applied before movement.
    schedule: Vec<(u32, u32)>,
    schedule_pos: usize,
    /// Nodes killed by the schedule so far (dense flags + undo list).
    dead: Vec<bool>,
    dead_list: Vec<u32>,
    /// `(cycle, CSR slot)` directed-link kills sorted by cycle; fired with
    /// the node schedule, before any flit moves that cycle.
    link_schedule: Vec<(u32, u32)>,
    link_schedule_pos: usize,
    /// Directed CSR slots killed by the link schedule so far (dense flags +
    /// undo list). A dead slot never admits another flit; packets whose next
    /// hop crosses one are handled per [`FaultResponse`] at examination.
    dead_link: Vec<bool>,
    dead_link_list: Vec<u32>,
    // --- cycle state -----------------------------------------------------
    cycle: u32,
    /// In-flight packets (injected, not yet delivered or dropped).
    in_flight: u64,
    /// Dense in-flight flag per packet: lets the rare whole-network scans
    /// (fault kills, re-targeting) and the lazy queue cleanup skip resolved
    /// ids without compacting every queue they sit in.
    in_network: Vec<bool>,
    /// Bitmap work-queue of packets to examine this cycle (bit per packet
    /// id). Scanning set bits low-to-high *is* oldest-first arbitration
    /// order (ids are assigned in injection order), wakes are O(1) bit
    /// sets, and re-waking an already-queued packet is naturally
    /// idempotent — no sorting, merging or deduplication anywhere.
    queued_now: Vec<u64>,
    /// The bitmap being built for the next cycle (movers and
    /// per-cycle-resource losers); swapped with `queued_now` each step.
    queued_next: Vec<u64>,
    /// Per-(CSR slot, virtual channel) gate, `vcs` entries per slot at
    /// `gidx = slot * vcs + vc`. The physical link's claim stamp lives only
    /// in the slot's *first* gate (`links[slot * vcs].claim` — the VCs share
    /// one flit per cycle of link bandwidth); `credits` is meaningful in
    /// every gate (each VC owns its own downstream buffer). With `vcs = 1`
    /// this degenerates to exactly the historical one-gate-per-slot layout.
    links: Vec<LinkGate>,
    /// Per-node output-port claim stamp (consulted under `SinglePort`).
    node_claim: Vec<u32>,
    // --- credit flow control ----------------------------------------------
    /// Buffer depth per (directed link, VC) buffer (0 = `FlowControl::Infinite`).
    flow_depth: u32,
    /// Virtual channels per directed link (1 unless
    /// [`FlowControl::VirtualChannel`] says otherwise).
    vcs: u32,
    /// Flits per packet: every hop holds its link for this many cycles and
    /// returns the freed upstream credit this many cycles later (1 =
    /// store-and-forward; [`Switching::Wormhole`] sets it higher).
    packet_flits: u32,
    /// Whether per-VC metrics (and the per-packet VC/blocked bookkeeping
    /// feeding them) are live — true only under
    /// [`FlowControl::VirtualChannel`].
    track_vc: bool,
    /// Timed credit-return FIFO: `(due_cycle, gidx, count)` entries, due
    /// cycles nondecreasing (a credit returned during cycle `c` is due at
    /// `c + packet_flits` — "one cycle after the slot drains", where the
    /// slot drains when the tail flit clears it). `credit_fifo_pos` is the
    /// applied prefix; the tail is compacted in place, so the cycle loop
    /// never reallocates once the reserve is warm.
    credit_fifo: Vec<(u32, u32, u32)>,
    credit_fifo_pos: usize,
    /// Per-gidx coalescing cursor into `credit_fifo` (entry index + 1):
    /// several credits for the same gate due the same cycle merge into one
    /// entry, so the FIFO's live length is bounded by the gate count per
    /// due cycle exactly like the historical per-slot pending counters.
    credit_mark: Vec<u32>,
    /// Gate index (`slot * vcs + vc`) of the input buffer each packet
    /// currently occupies (`NO_SLOT` while the packet waits in its source's
    /// injection queue).
    occupied_slot: Vec<u32>,
    /// Head of each gate's blocked queue (packets parked on zero credits or
    /// on a lost link claim; `NONE_ID` = empty), one queue per
    /// (slot, vc) gate. Every packet parked on a gate sits in the *same*
    /// upstream node's buffers and competes for the *same* port, link claim
    /// and credits, so only the oldest can ever move — the queue is kept
    /// sorted by id (= by age) and wake events pop exactly one head instead
    /// of stampeding the whole queue through the examination list. "No free
    /// VC" is therefore just one more parked queue per link slot.
    blocked_head: Vec<u32>,
    /// Tail of each gate's blocked queue: packets park mostly in age order
    /// (injection order), so the common insert is an O(1) tail append.
    blocked_tail: Vec<u32>,
    /// Intrusive next-pointers threading the blocked queues through the
    /// packet table.
    blocked_next: Vec<u32>,
    /// Timed serve FIFO: `(due_cycle, slot)` per flit-crossed link, due when
    /// the link's claim expires (`move cycle + packet_flits`). Each due
    /// slot's VC queue heads are woken at the *start* of the due cycle —
    /// after every park of the claiming cycle has settled into the sorted
    /// queues — so an older packet that re-parks at the head after the
    /// serving move still gets its turn first. Under wormhole the pending
    /// tail doubles as the quiescence witness: an unexpired entry means a
    /// body is still streaming, so the run is not deadlocked yet.
    served_fifo: Vec<(u32, u32)>,
    served_fifo_pos: usize,
    /// Scratch for the credit-conservation checker (per-gate occupancy and
    /// pending credit).
    occupancy_scratch: Vec<u32>,
    pending_scratch: Vec<u32>,
    /// Set when `run_to_quiescence` proves no flit can ever move again.
    deadlocked: bool,
    // --- per-packet VC state ----------------------------------------------
    /// Current virtual channel per packet (dateline rule: injected on VC 0,
    /// bumped — capped at `vcs - 1` — after every hop that descends the
    /// physical label; see [`implicit_route::dateline_crossing`]).
    vc: Vec<u8>,
    /// Cycle each packet first failed examination since it last moved
    /// ([`NEVER`] = not blocked); feeds `vc_hol_blocked_cycles`. Set on the
    /// first failing examination in *both* engines (a packet always gets
    /// examined the cycle after injection or a move), so the totals are
    /// engine-identical even though NaiveScan re-fails every cycle.
    blocked_since: Vec<u32>,
    // --- metrics ----------------------------------------------------------
    /// Flits carried per directed CSR slot over the whole run.
    link_flits: Vec<u64>,
    /// Flits carried per virtual channel (empty unless `track_vc`).
    vc_flits: Vec<u64>,
    /// Blocked cycles accumulated per virtual channel (empty unless
    /// `track_vc`); see [`CongestionReport::vc_hol_blocked_cycles`].
    vc_hol_blocked_cycles: Vec<u64>,
    total_flits: u64,
    delivered: u64,
    dropped: u64,
    /// Latencies of delivered packets, recorded incrementally at delivery;
    /// `lat_sorted` is the length of the already-sorted prefix, so
    /// [`CongestionSim::report`] only sorts what arrived since the last
    /// call and merges (windowed measurement stops paying a full
    /// O(n log n) per window).
    latencies: Vec<u32>,
    lat_sorted: usize,
    lat_scratch: Vec<u32>,
    // --- re-route scratch -------------------------------------------------
    searcher: Searcher,
    reroute_path: Vec<NodeId>,
}

impl CongestionSim {
    /// Creates an engine for the given machine. The machine's static fault
    /// set (if any) is honoured at load time; dynamic faults are layered on
    /// top via [`CongestionSim::schedule_fault`].
    pub fn new(machine: PhysicalMachine, config: CongestionConfig) -> Self {
        let n = machine.node_count();
        let slots = machine.graph().csr().1.len();
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
        // One gate per (slot, vc); `vcs = 1` is exactly the historical
        // one-gate-per-slot layout, so the legacy modes pay nothing.
        let gates = slots * vcs as usize;
        // Credit state is only materialised when bounded; `Infinite` pays
        // nothing for the feature beyond the unused half of each LinkGate.
        let credit_len = if flow_depth > 0 { gates } else { 0 };
        CongestionSim {
            config,
            flow_depth,
            vcs,
            packet_flits,
            track_vc,
            // Live (unapplied) credit entries are coalesced per (due, gate)
            // and due cycles span at most `packet_flits` values, but the
            // applied prefix is reclaimed by in-place compaction, so one
            // gate's worth of slack per flit of packet length keeps the
            // steady state allocation-free.
            credit_fifo: Vec::with_capacity(credit_len * packet_flits as usize),
            credit_fifo_pos: 0,
            credit_mark: vec![0; credit_len],
            occupied_slot: Vec::new(),
            blocked_head: vec![NONE_ID; gates],
            blocked_tail: vec![NONE_ID; gates],
            blocked_next: Vec::new(),
            served_fifo: Vec::with_capacity(slots * packet_flits as usize),
            served_fifo_pos: 0,
            occupancy_scratch: vec![0; credit_len],
            pending_scratch: vec![0; credit_len],
            vc: Vec::new(),
            blocked_since: Vec::new(),
            vc_flits: vec![0; if track_vc { vcs as usize } else { 0 }],
            vc_hol_blocked_cycles: vec![0; if track_vc { vcs as usize } else { 0 }],
            deadlocked: false,
            inject_at: Vec::new(),
            pending_inject: Vec::new(),
            inject_pos: 0,
            open_loop_sources: 0,
            path: Vec::new(),
            seg_start: Vec::new(),
            seg_end: Vec::new(),
            seg_home_start: Vec::new(),
            seg_home_end: Vec::new(),
            seg_of: Vec::new(),
            cursor: Vec::new(),
            entry: Vec::new(),
            imp_pos: Vec::new(),
            imp_rem: Vec::new(),
            origin: Vec::new(),
            implicit: ImplicitRoute::default(),
            logical_target: Vec::new(),
            delivered_at: Vec::new(),
            dropped_at: Vec::new(),
            resolved_at_load: Vec::new(),
            loaded_path_len: 0,
            loaded_seg_len: 0,
            schedule: Vec::new(),
            schedule_pos: 0,
            dead: vec![false; n],
            dead_list: Vec::new(),
            link_schedule: Vec::new(),
            link_schedule_pos: 0,
            dead_link: vec![false; slots],
            dead_link_list: Vec::new(),
            cycle: 0,
            in_flight: 0,
            in_network: Vec::new(),
            queued_now: Vec::new(),
            queued_next: Vec::new(),
            links: vec![
                LinkGate {
                    claim: NEVER,
                    credits: flow_depth,
                };
                gates
            ],
            node_claim: vec![NEVER; n],
            link_flits: vec![0; slots],
            total_flits: 0,
            delivered: 0,
            dropped: 0,
            latencies: Vec::new(),
            lat_sorted: 0,
            lat_scratch: Vec::new(),
            searcher: Searcher::default(),
            reroute_path: Vec::new(),
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

    /// `(injected, delivered, dropped, in_flight)` — the conservation
    /// invariant `delivered + dropped + in_flight + pending_injections ==
    /// injected` holds after every load, step and reset (for the batch
    /// `load_*` APIs `pending_injections` is always 0, so the PR 3 form
    /// `delivered + dropped + in_flight == injected` still holds).
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.inject_at.len() as u64,
            self.delivered,
            self.dropped,
            self.in_flight,
        )
    }

    /// Packets loaded with a future injection cycle that have not entered
    /// the network yet.
    pub fn pending_injections(&self) -> u64 {
        (self.pending_inject.len() - self.inject_pos) as u64
    }

    /// Whether `node` is currently usable (healthy in the static fault set
    /// and not killed by the dynamic schedule).
    // analyzer: alloc-free
    fn is_alive(&self, node: NodeId) -> bool {
        self.machine.is_healthy(node) && !self.dead[node]
    }

    /// Fills the packed hop slots of `path[from..to]` (`to` exclusive; the
    /// final entry keeps `NO_SLOT`). The links were validated when the
    /// route was computed, so a missing slot here is a loader bug.
    fn pack_hop_slots(&mut self, from: usize, to: usize) {
        for i in from..to.saturating_sub(1) {
            let u = pk_node(self.path[i]);
            let v = pk_node(self.path[i + 1]) as u32;
            let slot = edge_slot_in(&self.machine, u, v)
                // analyzer: allow(expect) -- every loaded path was computed against this CSR, so a missing slot is a loader bug; aborting beats simulating a phantom link
                .expect("loaded paths only traverse physical links");
            let delivers = if i + 2 == to { DELIVERS } else { 0 };
            self.path[i] = pk(u as u32, slot as u32) | delivers;
        }
        if to > from {
            let last = pk_node(self.path[to - 1]) as u32;
            self.path[to - 1] = pk(last, NO_SLOT);
        }
    }

    /// Pushes the per-packet bookkeeping shared by every loader. The caller
    /// has already set up route state (`cursor`/`entry`/segment or shift
    /// register) for packet `id == inject_at.len()` and tells us whether
    /// the packet has any hop to make (`zero_hop`).
    fn push_outcome(&mut self, id: usize, zero_hop: bool, inject_cycle: u32) {
        self.inject_at.push(inject_cycle);
        self.occupied_slot.push(NO_SLOT);
        self.blocked_next.push(NONE_ID);
        self.in_network.push(false);
        self.vc.push(0);
        self.blocked_since.push(NEVER);
        self.grow_queue_for(id);
        if zero_hop && inject_cycle == 0 {
            // Already at the target when injected at load: delivered at
            // injection, latency 0 (the batch semantics — loading precedes
            // any dynamic fault).
            self.delivered_at.push(inject_cycle);
            self.dropped_at.push(NEVER);
            self.resolved_at_load.push(inject_cycle);
            self.delivered += 1;
            self.latencies.push(0);
        } else {
            // Timed zero-hop packets resolve at their injection cycle, in
            // `inject_due_packets` — by then their source may have died.
            self.delivered_at.push(NEVER);
            self.dropped_at.push(NEVER);
            self.resolved_at_load.push(NEVER);
            if inject_cycle == 0 {
                self.queue_now(id);
                self.in_network[id] = true;
                self.in_flight += 1;
            } else {
                self.pending_inject.push(id as u32);
            }
        }
    }

    /// Appends one materialized packet whose physical path is in `path`
    /// (consecutive duplicates — artifacts of non-injective placements —
    /// are collapsed; they cost no cycle and no link). `logical` records
    /// the logical target for later re-targeting, or `NO_LOGICAL`;
    /// `inject_cycle` is when the packet enters its source's injection
    /// queue (0 = live at load, the batch behaviour).
    fn push_packet(&mut self, path: &[NodeId], logical: u32, inject_cycle: u32) {
        let id = self.inject_at.len();
        let start = self.path.len() as u32;
        for &node in path {
            let tail = self.path.last().copied();
            if self.path.len() as u32 == start || tail.map_or(true, |t| pk_node(t) != node) {
                self.path.push(node as u64);
            }
        }
        let end = self.path.len() as u32;
        debug_assert!(end > start, "a packet path holds at least its source");
        self.pack_hop_slots(start as usize, end as usize);
        let seg = self.seg_start.len() as u32;
        self.seg_start.push(start);
        self.seg_end.push(end);
        self.seg_home_start.push(start);
        self.seg_home_end.push(end);
        self.seg_of.push(seg);
        self.cursor.push(start);
        self.entry.push(self.path[start as usize]);
        self.imp_pos.push(0);
        self.imp_rem.push(0);
        self.origin.push(NO_LOGICAL);
        self.logical_target.push(logical);
        self.push_outcome(id, end - start == 1, inject_cycle);
    }

    /// Appends one implicit packet: O(1) route state derived from the
    /// digit-shift generator over the captured implicit context. The route
    /// was already validated by the loader (`s`/`t` are logical endpoints).
    fn push_packet_implicit(&mut self, s: u32, t: u32, inject_cycle: u32) {
        let id = self.inject_at.len();
        let (entry, pos, rem) = self.implicit.first_entry(&self.machine, s, t);
        let zero_hop = pk_terminal(entry);
        self.entry.push(entry);
        self.imp_pos.push(pos);
        self.imp_rem.push(rem);
        self.cursor.push(IMPLICIT_ACTIVE);
        self.seg_of.push(SEG_NONE);
        self.origin.push(s);
        self.logical_target.push(t);
        self.push_outcome(id, zero_hop, inject_cycle);
    }

    /// Records a packet that could not be routed at load time: it is
    /// injected and immediately dropped (mirroring the static kernels'
    /// accounting, where infeasible packets count as dropped).
    fn push_dead_packet(&mut self, source_hint: NodeId, inject_cycle: u32) {
        let id = self.inject_at.len();
        self.grow_queue_for(id);
        self.seg_of.push(SEG_NONE);
        self.cursor.push(NEVER);
        self.entry.push(pk(source_hint as u32, NO_SLOT));
        self.imp_pos.push(0);
        self.imp_rem.push(1);
        self.origin.push(NO_LOGICAL);
        self.logical_target.push(NO_LOGICAL);
        self.inject_at.push(inject_cycle);
        self.occupied_slot.push(NO_SLOT);
        self.blocked_next.push(NONE_ID);
        self.in_network.push(false);
        self.vc.push(0);
        self.blocked_since.push(NEVER);
        self.delivered_at.push(NEVER);
        self.dropped_at.push(inject_cycle);
        self.resolved_at_load.push(inject_cycle);
        self.dropped += 1;
    }

    /// Loads a workload of logical pairs routed with the oblivious de
    /// Bruijn scheme through `placement`. Pairs whose fixed route is
    /// infeasible on the machine as loaded (faulty node, missing link,
    /// out-of-range endpoint, a node a short placement does not map) are
    /// injected as immediately-dropped packets.
    pub fn load_oblivious(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        pairs: &[(NodeId, NodeId)],
    ) {
        self.load_oblivious_packets(db, placement, pairs.iter().map(|&(s, t)| (0, s, t)));
    }

    /// The loop behind both oblivious loaders: `(inject_cycle, source,
    /// target)` packets, validated and appended in order.
    fn load_oblivious_packets(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        packets: impl ExactSizeIterator<Item = (u32, NodeId, NodeId)>,
    ) {
        // A context mismatch (a second load through a different placement
        // or radix) loads materialized paths, so the generator state of
        // the packets already loaded stays well-defined.
        let implicit = self.config.route_source == RouteSource::Implicit
            && self.implicit.capture(db, placement, &self.machine);
        // Route feasibility belongs to the (machine, placement) pair, so an
        // implicit load proves it once, in O(V + E), and then checks each
        // packet at the tier that proof earned. Materialized packets store
        // the walked path, so they always walk.
        let trust = if implicit {
            routing::workload_trust(db, placement, &self.machine)
        } else {
            Trust::Checked
        };
        let mut path = Vec::with_capacity(db.h() + 1);
        self.reserve_for(packets.len(), if implicit { 0 } else { db.h() + 1 });
        for (cycle, s, t) in packets {
            match trust.check_route(db, placement, &self.machine, s, t, &mut path) {
                Ok(()) if implicit => self.push_packet_implicit(s as u32, t as u32, cycle),
                Ok(()) => self.push_packet(&path, t as u32, cycle),
                Err(_) => {
                    let hint = placement.as_slice().get(s).copied().unwrap_or(0);
                    self.push_dead_packet(hint, cycle);
                }
            }
        }
        self.loaded_path_len = self.path.len() as u32;
        self.loaded_seg_len = self.seg_start.len() as u32;
    }

    /// Loads an open-loop workload: `(inject_cycle, source, target)` logical
    /// triples (non-decreasing in cycle, as produced by
    /// [`crate::workload::open_loop_injections`]), each routed with the
    /// oblivious de Bruijn scheme through `placement` at load time. A packet
    /// enters its source's (unbounded) injection queue at `inject_cycle`
    /// and competes for the first link's output port — and, under credit
    /// flow control, the first link's buffer credit — from that cycle on.
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
        // The pending queue is drained front-to-back on the cycle clock, so
        // ordering must hold *across* load calls too: an appended schedule
        // may not start before the latest cycle already queued (it would
        // silently inject late instead of on time).
        if let (Some(&last), Some(&(first, _, _))) =
            (self.pending_inject.last(), injections.first())
        {
            assert!(
                first >= self.inject_at[last as usize],
                "appended injection schedule starts at cycle {first}, before the \
                 already-queued cycle {}",
                self.inject_at[last as usize]
            );
        }
        self.pending_inject.reserve(injections.len());
        self.open_loop_sources = db.node_count() as u32;
        self.load_oblivious_packets(db, placement, injections.iter().copied());
    }

    /// Loads a workload of *physical* pairs routed adaptively (BFS through
    /// the currently-healthy machine).
    pub fn load_adaptive(&mut self, pairs: &[(NodeId, NodeId)]) {
        let mut scratch = crate::routing::RouteScratch::new();
        self.reserve_for(pairs.len(), 4);
        for &(s, t) in pairs {
            match crate::routing::route_adaptive_into(&self.machine, s, t, &mut scratch) {
                Ok(_) => self.push_packet(&scratch.path, NO_LOGICAL, 0),
                Err(_) => {
                    self.push_dead_packet(if s < self.machine.node_count() { s } else { 0 }, 0)
                }
            }
        }
        self.loaded_path_len = self.path.len() as u32;
        self.loaded_seg_len = self.seg_start.len() as u32;
    }

    fn reserve_for(&mut self, packets: usize, hops_guess: usize) {
        self.path.reserve(packets * hops_guess);
        for v in [
            &mut self.cursor,
            &mut self.logical_target,
            &mut self.imp_pos,
            &mut self.imp_rem,
            &mut self.origin,
            &mut self.seg_of,
            &mut self.inject_at,
            &mut self.occupied_slot,
            &mut self.blocked_next,
            &mut self.blocked_since,
            &mut self.delivered_at,
            &mut self.dropped_at,
            &mut self.resolved_at_load,
            &mut self.latencies,
            &mut self.lat_scratch,
        ] {
            v.reserve(packets);
        }
        self.entry.reserve(packets);
        self.in_network.reserve(packets);
        self.vc.reserve(packets);
        // The work-queue bitmaps cover every loaded packet (one bit each),
        // so sizing them here keeps the cycle loop allocation-free.
        let words = (self.inject_at.len() + packets).div_ceil(64);
        self.queued_now
            .reserve(words.saturating_sub(self.queued_now.len()));
        self.queued_next
            .reserve(words.saturating_sub(self.queued_next.len()));
    }

    /// Schedules processor `node` to die at the *start* of `cycle` (before
    /// any flit moves that cycle).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn schedule_fault(&mut self, cycle: u32, node: NodeId) {
        assert!(node < self.machine.node_count(), "fault node out of range");
        self.schedule.push((cycle, node as u32));
        self.schedule.sort_unstable();
    }

    /// The dynamic faults applied so far, merged with the machine's static
    /// fault set — the set a diagnosing runtime would hand to
    /// `reconfigure_verified`.
    pub fn current_fault_set(&self) -> FaultSet {
        let mut faults = FaultSet::empty(self.machine.node_count());
        for f in self.machine.faults().iter() {
            faults.add(f);
        }
        for &d in &self.dead_list {
            faults.add(d as usize);
        }
        faults
    }

    /// Schedules the directed link `from → to` to die at the *start* of
    /// `cycle` (before any flit moves that cycle). The reverse direction
    /// keeps carrying flits unless scheduled separately.
    ///
    /// # Panics
    /// Panics if the graph has no directed link `from → to`.
    pub fn schedule_link_fault(&mut self, cycle: u32, from: NodeId, to: NodeId) {
        let slot = edge_slot_in(&self.machine, from, to as u32)
            // analyzer: allow(expect) -- schedule-time validation of caller input, mirroring schedule_fault's range assert; never on the cycle loop
            .expect("scheduled link fault names a missing directed link");
        self.schedule_link_fault_slot(cycle, slot);
    }

    /// Schedules the directed link occupying CSR `slot` to die at the
    /// *start* of `cycle`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn schedule_link_fault_slot(&mut self, cycle: u32, slot: usize) {
        assert!(slot < self.dead_link.len(), "fault slot out of range");
        self.link_schedule.push((cycle, slot as u32));
        self.link_schedule.sort_unstable();
    }

    /// Schedules every directed link in `faults` to die at the *start* of
    /// `cycle` — the bulk entry point for the correlated generators
    /// ([`LinkFaultSet::bernoulli`], [`LinkFaultSet::burst`],
    /// [`LinkFaultSet::from_node_faults`]).
    ///
    /// # Panics
    /// Panics if `faults` was built against a different graph (slot
    /// universes differ).
    pub fn schedule_link_faults(&mut self, cycle: u32, faults: &LinkFaultSet) {
        assert_eq!(
            faults.universe(),
            self.dead_link.len(),
            "link fault set universe must match the machine's slot count"
        );
        for slot in faults.iter() {
            self.link_schedule.push((cycle, slot as u32));
        }
        self.link_schedule.sort_unstable();
    }

    /// The directed links killed by the dynamic schedule so far, as a
    /// [`LinkFaultSet`] over this machine's graph (the link analogue of
    /// [`CongestionSim::current_fault_set`]).
    pub fn current_link_fault_set(&self) -> LinkFaultSet {
        let mut faults = LinkFaultSet::empty(self.machine.graph());
        for &slot in &self.dead_link_list {
            faults.add(slot as usize);
        }
        faults
    }

    /// Schedules a credit return for gate `gidx`: the freed buffer slot
    /// becomes usable `packet_flits` cycles later — the slot drains when the
    /// tail flit clears it (immediately for store-and-forward), and the
    /// credit travels upstream one cycle after that. Entries for the same
    /// gate due the same cycle coalesce through `credit_mark`, so the FIFO's
    /// live length is bounded exactly like the historical per-slot counters.
    // analyzer: alloc-free
    fn return_credit(&mut self, gidx: u32) {
        let due = self.cycle + self.packet_flits;
        let m = self.credit_mark[gidx as usize] as usize;
        if m > 0 && m <= self.credit_fifo.len() {
            let entry = &mut self.credit_fifo[m - 1];
            // A stale mark can only coalesce if both the due cycle and the
            // gate match — applied entries are always due in the past, so
            // they can never capture a fresh return.
            if entry.0 == due && entry.1 == gidx {
                entry.2 += 1;
                return;
            }
        }
        self.credit_mark[gidx as usize] = self.credit_fifo.len() as u32 + 1;
        self.credit_fifo.push((due, gidx, 1)); // analyzer: allow(alloc) -- capacity reserved at load; the counting-allocator test proves the cycle loop never reallocates
    }

    /// Releases the buffer slot a resolving (delivered or dropped) packet
    /// occupies, if any. Every path that removes a live packet from the
    /// network must go through here under credit flow control — including
    /// fault kills, which would otherwise leak the dead processor's input
    /// slots and starve the upstream links forever.
    // analyzer: alloc-free
    fn release_slot(&mut self, id: usize) {
        if self.flow_depth == 0 {
            return;
        }
        let slot = self.occupied_slot[id];
        if slot != NO_SLOT {
            self.return_credit(slot);
            self.occupied_slot[id] = NO_SLOT;
        }
    }

    /// Records that blocked packet `id` became unblocked (moved or
    /// resolved) at `cycle`, folding the blocked span into the per-VC
    /// head-of-line counter. No-op unless VC metrics are live and the
    /// packet was actually marked blocked; both engines mark and clear at
    /// identical cycles, so the totals are engine-identical.
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

    /// Records that packet `id` failed examination at `cycle` (any gating
    /// resource); only the *first* failure since the last move sticks.
    #[inline]
    // analyzer: alloc-free
    fn note_blocked(&mut self, id: usize, cycle: u32) {
        if self.track_vc && self.blocked_since[id] == NEVER {
            self.blocked_since[id] = cycle;
        }
    }

    /// Marks packet `id` delivered at `cycle`: stamps the outcome, records
    /// the latency, and frees its buffer slot. Under wormhole switching the
    /// stamp is *head* arrival (cut-through consumption); the tail streams
    /// in behind it while the freed credits make their timed way back.
    // analyzer: alloc-free
    fn resolve_delivered(&mut self, id: usize, cycle: u32) {
        self.note_unblocked(id, cycle);
        self.delivered_at[id] = cycle;
        self.delivered += 1;
        self.latencies.push(cycle - self.inject_at[id]); // analyzer: allow(alloc) -- capacity reserved at load; the counting-allocator test proves the cycle loop never reallocates
        self.in_network[id] = false;
        self.cursor[id] = NEVER;
        self.in_flight -= 1;
        self.release_slot(id);
    }

    /// Marks in-flight packet `id` dropped at `cycle` and frees its slot.
    // analyzer: alloc-free
    fn resolve_dropped(&mut self, id: usize, cycle: u32) {
        self.note_unblocked(id, cycle);
        self.dropped_at[id] = cycle;
        self.dropped += 1;
        self.in_network[id] = false;
        self.cursor[id] = NEVER;
        self.in_flight -= 1;
        self.release_slot(id);
    }

    /// Queues packet `id` for examination *this* cycle (wake events fire
    /// before the examination pass).
    #[inline]
    // analyzer: alloc-free
    fn queue_now(&mut self, id: usize) {
        self.queued_now[id >> 6] |= 1u64 << (id & 63);
    }

    /// Grows the work-queue bitmaps to cover packet `id`.
    fn grow_queue_for(&mut self, id: usize) {
        let words = (id >> 6) + 1;
        if self.queued_now.len() < words {
            self.queued_now.resize(words, 0);
            self.queued_next.resize(words, 0);
        }
    }

    /// Parks packet `id` on `slot`'s blocked queue, keeping the queue
    /// sorted by id (= age): it will not be examined again until the slot
    /// sees a credit with `id` at the queue head (or a whole-network wake).
    /// Packets park in injection order on their first hop and in
    /// examination order everywhere else, so the insert is almost always an
    /// O(1) tail append (or head prepend for a re-parking ex-head).
    // analyzer: alloc-free
    fn park_on_slot(&mut self, id: usize, slot: usize) {
        let id32 = id as u32;
        let head = self.blocked_head[slot];
        if head == NONE_ID {
            self.blocked_head[slot] = id32;
            self.blocked_tail[slot] = id32;
            self.blocked_next[id] = NONE_ID;
        } else if id32 > self.blocked_tail[slot] {
            let tail = self.blocked_tail[slot] as usize;
            self.blocked_next[tail] = id32;
            self.blocked_tail[slot] = id32;
            self.blocked_next[id] = NONE_ID;
        } else if id32 < head {
            self.blocked_next[id] = head;
            self.blocked_head[slot] = id32;
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

    /// Pops `slot`'s oldest parked packet back into this cycle's work
    /// queue. Only the head can ever move (everything behind it shares the
    /// same node port, link claim and credit counter and is strictly
    /// younger), so one head per wake event is exact — no thundering herd.
    // analyzer: alloc-free
    fn wake_head(&mut self, slot: usize) {
        let head = self.blocked_head[slot];
        if head != NONE_ID {
            self.queue_now(head as usize);
            self.blocked_head[slot] = self.blocked_next[head as usize];
            if self.blocked_head[slot] == NONE_ID {
                self.blocked_tail[slot] = NONE_ID;
            }
        }
    }

    /// Drains `slot`'s blocked queue into this cycle's work queue.
    // analyzer: alloc-free
    fn wake_slot(&mut self, slot: usize) {
        let mut cur = self.blocked_head[slot];
        while cur != NONE_ID {
            self.queue_now(cur as usize);
            cur = self.blocked_next[cur as usize];
        }
        self.blocked_head[slot] = NONE_ID;
        self.blocked_tail[slot] = NONE_ID;
    }

    /// Wakes every parked packet — the response to whole-network events
    /// (a fault firing, a recovery driver re-routing in flight) that can
    /// change any packet's next hop or its movability.
    // analyzer: alloc-free
    fn wake_all_parked(&mut self) {
        for slot in 0..self.blocked_head.len() {
            if self.blocked_head[slot] != NONE_ID {
                self.wake_slot(slot);
            }
        }
    }

    /// Applies the credit returns that have come due by the current cycle
    /// and wakes the packets parked on the replenished gates; returns how
    /// many credits were applied. The applied prefix is reclaimed in place
    /// (full clear when drained, front compaction when the tail lags), so
    /// the FIFO never grows past its load-time reserve in steady state.
    // analyzer: alloc-free
    fn apply_pending_credits(&mut self) -> u64 {
        let mut applied = 0;
        while self.credit_fifo_pos < self.credit_fifo.len() {
            let (due, gidx, count) = self.credit_fifo[self.credit_fifo_pos];
            if due > self.cycle {
                break;
            }
            self.credit_fifo_pos += 1;
            applied += count as u64;
            self.links[gidx as usize].credits += count;
            debug_assert!(
                self.links[gidx as usize].credits <= self.flow_depth,
                "credit overflow"
            );
            self.wake_head(gidx as usize);
        }
        if self.credit_fifo_pos >= self.credit_fifo.len() {
            self.credit_fifo.clear();
            self.credit_fifo_pos = 0;
        } else if self.credit_fifo_pos >= 64 && self.credit_fifo_pos * 2 >= self.credit_fifo.len() {
            // Stale coalescing marks survive compaction harmlessly: a mark
            // only fires when both the due cycle and the gate match, and
            // matching entries are correct coalescing targets wherever the
            // compaction moved them.
            self.credit_fifo.drain(..self.credit_fifo_pos);
            self.credit_fifo_pos = 0;
        }
        applied
    }

    /// Whether timed credit returns are still in flight (parked packets may
    /// yet be woken by them); quiescence must wait for the FIFO to drain.
    #[inline]
    // analyzer: alloc-free
    fn credits_pending(&self) -> bool {
        self.credit_fifo_pos < self.credit_fifo.len()
    }

    /// Wakes the served-slot queues that have come due: when a link's claim
    /// expires (`packet_flits` cycles after the winning move), the head of
    /// *every* VC queue on that slot that could now admit a flit gets one
    /// examination. Extra wakes are harmless — examination is a pure
    /// function of engine state, and an immovable woken packet re-parks
    /// identically in both engines.
    // analyzer: alloc-free
    fn apply_due_serves(&mut self) {
        let vcs = self.vcs as usize;
        while self.served_fifo_pos < self.served_fifo.len() {
            let (due, slot) = self.served_fifo[self.served_fifo_pos];
            if due > self.cycle {
                break;
            }
            self.served_fifo_pos += 1;
            let base = slot as usize * vcs;
            for gidx in base..base + vcs {
                if self.blocked_head[gidx] != NONE_ID
                    && (self.flow_depth == 0 || self.links[gidx].credits > 0)
                {
                    self.wake_head(gidx);
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

    /// Whether any link claim is still unexpired (a wormhole body is
    /// streaming); quiescence must wait these out too.
    #[inline]
    // analyzer: alloc-free
    fn serves_pending(&self) -> bool {
        self.served_fifo_pos < self.served_fifo.len()
    }

    /// Moves packets whose injection cycle has arrived from the pending
    /// queue into the examination list (in age order); a packet whose
    /// source died before its injection cycle is dropped at injection, and
    /// a zero-hop packet injected on a living source is delivered on the
    /// spot (latency 0). Returns how many packets went live.
    // analyzer: alloc-free
    fn inject_due_packets(&mut self) -> u64 {
        let mut injected = 0;
        while self.inject_pos < self.pending_inject.len() {
            let id = self.pending_inject[self.inject_pos] as usize;
            if self.inject_at[id] > self.cycle {
                break;
            }
            self.inject_pos += 1;
            let source = pk_node(self.entry[id]);
            if !self.is_alive(source) {
                self.dropped_at[id] = self.cycle;
                self.dropped += 1;
            } else if pk_terminal(self.entry[id]) {
                // Already at the target: consumed at injection.
                self.delivered_at[id] = self.cycle;
                self.delivered += 1;
                self.latencies.push(0); // analyzer: allow(alloc) -- capacity reserved at load; the counting-allocator test proves the cycle loop never reallocates
            } else {
                self.queue_now(id);
                self.in_network[id] = true;
                self.in_flight += 1;
                injected += 1;
            }
        }
        injected
    }

    /// Checks the credit-conservation invariant: for every (directed link,
    /// virtual channel) gate, `free credits + in-flight timed returns +
    /// live occupants == buffer_depth`. Returns the first violation as a
    /// human-readable message. Always `Ok` under [`FlowControl::Infinite`].
    /// The invariant holds through node *and* directed-link kills: a killed
    /// packet's slot drains back as a timed return, and a dead gate simply
    /// accumulates its full depth and never hands a credit out again.
    /// Allocation-free (the per-gate occupancy and pending counts reuse
    /// scratch arrays sized at construction, hence `&mut self`), so tests
    /// may call it every cycle.
    pub fn check_credit_conservation(&mut self) -> Result<(), String> {
        if self.flow_depth == 0 {
            return Ok(());
        }
        for c in &mut self.occupancy_scratch {
            *c = 0;
        }
        for c in &mut self.pending_scratch {
            *c = 0;
        }
        for id in 0..self.in_network.len() {
            if !self.in_network[id] {
                continue;
            }
            let gidx = self.occupied_slot[id];
            if gidx != NO_SLOT {
                self.occupancy_scratch[gidx as usize] += 1;
            }
        }
        for i in self.credit_fifo_pos..self.credit_fifo.len() {
            let (_, gidx, count) = self.credit_fifo[i];
            self.pending_scratch[gidx as usize] += count;
        }
        for gidx in 0..self.occupancy_scratch.len() {
            let total = self.links[gidx].credits
                + self.pending_scratch[gidx]
                + self.occupancy_scratch[gidx];
            if total != self.flow_depth {
                return Err(format!(
                    "slot {gidx}: credits {} + pending {} + occupants {} != depth {}",
                    self.links[gidx].credits,
                    self.pending_scratch[gidx],
                    self.occupancy_scratch[gidx],
                    self.flow_depth
                ));
            }
        }
        Ok(())
    }

    /// Applies schedule entries due at (or before) the current cycle, before
    /// any flit moves. Packets sitting on a dying node die with it — and,
    /// under credit flow control, give their buffer slots back (a dead
    /// processor must not hold credits hostage). Every parked packet is
    /// woken, because its next hop may now lead into a dead node. Directed
    /// links killed by the link schedule fire here too: a dead slot never
    /// admits another flit, and only the packets parked on its gates are
    /// woken (a per-link wake event — every other packet's movability is
    /// untouched, so the whole-network wake stays reserved for node kills).
    /// Returns how many nodes and links were killed; idempotent within a
    /// cycle, so a recovery driver may call it ahead of
    /// [`CongestionSim::step`] to reconfigure and re-target *before* the
    /// fault-cycle movement.
    pub fn fire_due_faults(&mut self) -> usize {
        let mut killed = 0;
        while self.schedule_pos < self.schedule.len()
            && self.schedule[self.schedule_pos].0 <= self.cycle
        {
            let (_, node) = self.schedule[self.schedule_pos];
            self.schedule_pos += 1;
            if !self.dead[node as usize] {
                self.dead[node as usize] = true;
                self.dead_list.push(node);
                killed += 1;
            }
        }
        if killed > 0 {
            // Packets currently hosted on a dead processor are lost; their
            // buffer slots are reclaimed (returned to the upstream credit
            // counters) so the kill does not leak credits. This is a rare
            // whole-table scan — resolved ids stay in whatever queue they
            // occupy and are skipped lazily at examination time.
            let cycle = self.cycle;
            for id in 0..self.in_network.len() {
                if self.in_network[id] && self.dead[pk_node(self.entry[id])] {
                    self.resolve_dropped(id, cycle);
                }
            }
            self.wake_all_parked();
            #[cfg(debug_assertions)]
            if let Err(msg) = self.check_credit_conservation() {
                // analyzer: allow(panic) -- debug_assertions-only invariant escalation; release builds never compile this arm
                panic!("fault kill broke credit conservation: {msg}");
            }
        }
        let mut links_killed = 0;
        let first_new_link = self.dead_link_list.len();
        while self.link_schedule_pos < self.link_schedule.len()
            && self.link_schedule[self.link_schedule_pos].0 <= self.cycle
        {
            let (_, slot) = self.link_schedule[self.link_schedule_pos];
            self.link_schedule_pos += 1;
            if !self.dead_link[slot as usize] {
                self.dead_link[slot as usize] = true;
                self.dead_link_list.push(slot);
                links_killed += 1;
            }
        }
        if links_killed > 0 {
            // Per-link wake: a packet can only be affected by this kill if
            // its next hop crosses the dying slot, and such a packet is
            // either in the examination queue already (it requeues every
            // cycle while blocked on a port or claim) or parked on one of
            // exactly this slot's gates. Flushing those queues hands every
            // affected packet to this cycle's examination pass, where the
            // extended hazard check applies the configured [`FaultResponse`].
            // Packets buffered *downstream* of the dead link keep flying —
            // their buffer is hardware at the receiving node; the link, not
            // the memory, died — so credits drain back through the ordinary
            // timed returns and conservation holds per gate, dead or alive.
            let vcs = self.vcs as usize;
            for i in first_new_link..self.dead_link_list.len() {
                let slot = self.dead_link_list[i] as usize;
                for gidx in slot * vcs..(slot + 1) * vcs {
                    if self.blocked_head[gidx] != NONE_ID {
                        self.wake_slot(gidx);
                    }
                }
            }
            #[cfg(debug_assertions)]
            if let Err(msg) = self.check_credit_conservation() {
                // analyzer: allow(panic) -- debug_assertions-only invariant escalation; release builds never compile this arm
                panic!("link kill broke credit conservation: {msg}");
            }
        }
        killed + links_killed
    }

    /// The physical node live packet `id`'s route ends on — where a
    /// re-route must aim. For an implicit packet that is the placement
    /// image of its logical target (exactly the materialized path's last
    /// node, by construction); for a materialized packet, the segment's
    /// final entry.
    // analyzer: alloc-free
    fn route_target(&self, id: usize) -> NodeId {
        if self.cursor[id] == IMPLICIT_ACTIVE {
            self.implicit.image(self.logical_target[id]) as usize
        } else {
            let seg = self.seg_of[id] as usize;
            pk_node(self.path[self.seg_end[seg] as usize - 1])
        }
    }

    /// Advances packet `id` past the hop it just won: the hop's target
    /// becomes its current node and the cached entry is recomputed — for
    /// implicit packets an O(1) shift-register step whose next link is one
    /// successor-slot table read ([`ImplicitRoute::advance`]), for
    /// materialized ones a cursor bump. Never called on a delivering hop.
    #[inline]
    // analyzer: alloc-free
    fn advance_route(&mut self, id: usize) {
        let at = self.cursor[id];
        if at == IMPLICIT_ACTIVE {
            let (entry, pos, rem) =
                self.implicit
                    .advance(&self.machine, self.imp_pos[id], self.imp_rem[id]);
            self.entry[id] = entry;
            self.imp_pos[id] = pos;
            self.imp_rem[id] = rem;
        } else {
            let next = at + 1;
            self.cursor[id] = next;
            self.entry[id] = self.path[next as usize];
        }
    }

    /// Replaces the remaining path of live packet `id` with a BFS route
    /// from its current node to `target`, re-deriving the packed hop slots
    /// for the new suffix. Returns false (and leaves the packet untouched)
    /// when no healthy path exists.
    fn reroute_packet(&mut self, id: usize, target: NodeId) -> bool {
        let here = pk_node(self.entry[id]);
        // Split the borrows: BFS needs &self.machine + &mut scratch.
        let machine = &self.machine;
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
        // Spill the new path segment into the side table; pre-fault spans
        // stay in place (only `reset` reclaims the spill, by truncating to
        // the load watermarks). An implicit packet materializes here — the
        // adaptive route is not digit-shift-recomputable — by taking a
        // fresh segment whose home spans are NEVER (reset re-derives its
        // original route from `origin` instead).
        let start = self.path.len() as u32;
        self.path
            .extend(self.reroute_path.iter().map(|&v| v as u64));
        let end = self.path.len();
        self.pack_hop_slots(start as usize, end);
        let seg = self.seg_of[id];
        if seg == SEG_NONE {
            self.seg_of[id] = self.seg_start.len() as u32;
            self.seg_start.push(start);
            self.seg_end.push(end as u32);
            self.seg_home_start.push(NEVER);
            self.seg_home_end.push(NEVER);
        } else {
            self.seg_start[seg as usize] = start;
            self.seg_end[seg as usize] = end as u32;
        }
        self.cursor[id] = start;
        self.entry[id] = self.path[start as usize];
        true
    }

    /// Re-targets every in-flight packet that carries a logical target at
    /// `placement`'s image of that target and re-routes it adaptively —
    /// the drain step of online reconfiguration. Packets without a healthy
    /// path (and packets already at the new image) resolve immediately;
    /// every parked packet is woken, since its route just changed under it.
    /// Returns `(rerouted, delivered_in_place, dropped)`.
    pub fn retarget_and_reroute(&mut self, placement: &Embedding) -> (u64, u64, u64) {
        let (mut rerouted, mut delivered_in_place, mut dropped) = (0, 0, 0);
        let cycle = self.cycle;
        for id in 0..self.in_network.len() {
            if !self.in_network[id] {
                continue;
            }
            let logical = self.logical_target[id];
            if logical == NO_LOGICAL {
                continue;
            }
            let target = placement.apply(logical as usize);
            let here = pk_node(self.entry[id]);
            if here == target {
                self.resolve_delivered(id, cycle);
                delivered_in_place += 1;
            } else if self.reroute_packet(id, target) {
                // The packet stays in the same physical buffer: a re-route
                // replaces its remaining path, not its position.
                rerouted += 1;
            } else {
                self.resolve_dropped(id, cycle);
                dropped += 1;
            }
        }
        self.wake_all_parked();
        (rerouted, delivered_in_place, dropped)
    }

    /// Simulates one cycle: applies the credits returned last cycle (waking
    /// packets parked on the replenished slots), injects due open-loop
    /// packets, applies due faults, then examines — in age order — every
    /// packet whose gating resources could have changed, moving those that
    /// win their output port, link and (under credit flow control) a free
    /// downstream buffer slot. A packet that fails on a full buffer parks
    /// on that slot's blocked queue; a packet that fails on a per-cycle
    /// claim is re-examined next cycle. Returns a summary of what happened;
    /// `CycleEvents::is_idle()` is true only when the run has drained.
    // analyzer: alloc-free
    pub fn step(&mut self) -> CycleEvents {
        let credits_applied = self.apply_pending_credits();
        // Link claims taken `packet_flits` cycles ago expire now: wake each
        // due served slot's VC queue heads (under credit flow only where the
        // gate can actually admit a flit — otherwise the credit return will
        // wake it).
        self.apply_due_serves();
        let injected = self.inject_due_packets();
        let faults_fired = self.fire_due_faults(); // analyzer: trusted-call -- grows dead_list only when a scheduled fault fires; cold by design
        let stamp = self.cycle;
        let single_port = self.machine.port_model() == PortModel::SinglePort;
        let credit_based = self.flow_depth > 0;
        let park = self.config.engine == EngineKind::WakeList;
        let vcs = self.vcs as usize;
        let pf = self.packet_flits;
        let track_vc = self.track_vc;
        // Loaded paths never cross statically-faulty processors, so the
        // dead-next-hop check only matters once a dynamic fault has fired.
        let hazard = !self.dead_list.is_empty() || !self.dead_link_list.is_empty();
        let mut moved = 0;
        let mut rerouted = 0;
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
                if hazard {
                    // The next node on the route is the CSR target of the
                    // cached hop slot (for materialized packets this equals
                    // the next path entry's node by construction).
                    let next = self.machine.graph().csr().1[slot] as usize;
                    if self.dead[next] || self.dead_link[slot] {
                        // The precomputed route runs into a node (or crosses
                        // a directed link) that died after the route was
                        // computed.
                        match self.config.fault_response {
                            FaultResponse::Drop => {
                                self.resolve_dropped(id, stamp);
                                continue;
                            }
                            FaultResponse::RerouteAdaptive => {
                                let target = self.route_target(id);
                                // analyzer: trusted-call -- BFS re-route runs only after a dynamic fault; cold by design
                                if !self.is_alive(target) || !self.reroute_packet(id, target) {
                                    self.resolve_dropped(id, stamp);
                                    continue;
                                }
                                rerouted += 1;
                                if self.cursor[id] + 1 == self.seg_end[self.seg_of[id] as usize] {
                                    // The oblivious route revisited the target
                                    // and the packet was sitting on it: the
                                    // re-route is the empty path, so it is
                                    // already delivered.
                                    self.resolve_delivered(id, stamp);
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
                let vc = self.vc[id] as usize;
                let gidx = slot * vcs + vc;
                // The physical link (and, under `SinglePort`, the output
                // port) is free when its last claim has fully streamed —
                // `packet_flits` cycles. Claims never exceed the current
                // stamp, so for single-flit packets this is exactly the
                // historical `claim != stamp`.
                let link_claim = self.links[slot * vcs].claim;
                let link_free = link_claim == NEVER || stamp - link_claim >= pf;
                let port_claim = self.node_claim[here];
                let port_free = !single_port || port_claim == NEVER || stamp - port_claim >= pf;
                let credit_free = !credit_based || self.links[gidx].credits > 0;
                if port_free && credit_free && link_free {
                    // Claim and move (the head flit; under wormhole the body
                    // streams behind it, keeping the link busy for
                    // `packet_flits` cycles).
                    self.links[slot * vcs].claim = stamp;
                    if single_port {
                        self.node_claim[here] = stamp;
                    }
                    if credit_based {
                        // Take a slot downstream on this packet's VC; the
                        // slot vacated upstream returns to its gate once the
                        // tail flit clears it.
                        self.links[gidx].credits -= 1;
                        let prev = self.occupied_slot[id];
                        if prev != NO_SLOT {
                            self.return_credit(prev);
                        }
                        self.occupied_slot[id] = gidx as u32;
                    }
                    if park || pf > 1 {
                        // Whoever queues behind this move wakes when the
                        // claim expires. Under wormhole the pending entry is
                        // also the quiescence witness for the streaming body,
                        // which the naive rescan's deadlock proof needs too.
                        self.served_fifo.push((stamp + pf, slot as u32)); // analyzer: allow(alloc) -- capacity reserved at load; the counting-allocator test proves the cycle loop never reallocates
                    }
                    self.link_flits[slot] += pf as u64;
                    self.total_flits += pf as u64;
                    moved += 1;
                    if track_vc {
                        self.vc_flits[vc] += pf as u64;
                        self.note_unblocked(id, stamp);
                    }
                    if entry & DELIVERS != 0 {
                        // Consumed at the target: the just-taken slot drains
                        // too (its credit also returns after the tail).
                        self.resolve_delivered(id, stamp);
                    } else {
                        self.advance_route(id);
                        if track_vc {
                            // Dateline rule: a hop that descends the physical
                            // label closes a de Bruijn shift cycle, so the
                            // packet moves up one VC (capped at the top). The
                            // advanced entry holds the node the hop reached.
                            let next = pk_node(self.entry[id]);
                            if vc + 1 < vcs
                                && implicit_route::dateline_crossing(here as u32, next as u32)
                            {
                                self.vc[id] = (vc + 1) as u8;
                            }
                        }
                        self.queued_next[wi] |= 1u64 << (id & 63);
                    }
                } else if park
                    && (!credit_free || (link_claim == stamp && self.blocked_head[gidx] != NONE_ID))
                {
                    // Blocked on the gate itself: zero credits on this VC's
                    // buffer (which only return at a cycle boundary), or a
                    // link claim lost while the gate already has a queue.
                    // Everyone queued on a gate sits in the same upstream
                    // node and shares the same port, link claim and credit
                    // counter, so parking is exact: the sorted queue's head
                    // is woken by the credit return or the served-slot claim
                    // expiry, and nothing behind the head could have moved
                    // anyway. A claim loser finding an empty queue just
                    // retries — a one-cycle wait is cheaper as a rescan than
                    // as a park/wake round trip, and long waits seed queues
                    // through the credit counter first.
                    self.note_blocked(id, stamp);
                    self.park_on_slot(id, gidx);
                } else {
                    // Blocked on the node's output port alone (`SinglePort`,
                    // port taken by a packet leaving over a different link),
                    // on a still-streaming wormhole body, or running the
                    // naive rescan: re-examine next cycle, when per-cycle
                    // claims expire (a streaming link re-fails cheaply until
                    // its serve event lands).
                    self.note_blocked(id, stamp);
                    self.queued_next[wi] |= 1u64 << (id & 63);
                }
            }
        }
        std::mem::swap(&mut self.queued_now, &mut self.queued_next);
        self.cycle += 1;
        CycleEvents {
            cycle: stamp,
            moved,
            injected,
            credits_applied,
            faults_fired,
            rerouted,
            live: self.in_flight,
            pending_injections: (self.pending_inject.len() - self.inject_pos) as u64,
        }
    }

    /// Steps until cycle `horizon` (capped by `max_cycles`), the workload
    /// drains, or the stop rule proves a hard deadlock. The per-cycle loop
    /// performs no allocation.
    // analyzer: alloc-free
    pub fn run_until(&mut self, horizon: u32) {
        let horizon = horizon.min(self.config.max_cycles);
        while (self.in_flight > 0 || self.inject_pos < self.pending_inject.len())
            && self.cycle < horizon
        {
            let events = self.step();
            if self.proves_deadlock(&events) {
                self.deadlocked = true;
                break;
            }
        }
    }

    /// The stop rule: whether the cycle that produced `events` proves a
    /// hard deadlock. It is proven, not guessed — only possible under
    /// bounded-buffer flow control: a cycle in which nothing moved, was
    /// injected, was killed or was re-routed, with live packets left, no
    /// timed credit return or claim expiry in flight and no injection or
    /// fault still scheduled, can never be followed by a different one. A
    /// re-routed packet moves in a later cycle, so a re-route is activity;
    /// its new path avoids every dead node and link, so a packet re-routes
    /// at most once per fault epoch and every run still terminates.
    // analyzer: alloc-free
    fn proves_deadlock(&self, events: &CycleEvents) -> bool {
        events.moved == 0
            && events.injected == 0
            && events.faults_fired == 0
            && events.rerouted == 0
            && self.in_flight > 0
            && !self.credits_pending()
            && !self.serves_pending()
            && self.inject_pos >= self.pending_inject.len()
            && self.schedule_pos >= self.schedule.len()
            && self.link_schedule_pos >= self.link_schedule.len()
    }

    /// Steps until the workload drains, `max_cycles` is hit, or the network
    /// hard-deadlocks. The per-cycle loop performs no allocation (the final
    /// report does on first use; see [`CongestionSim::run`]).
    pub fn run_to_quiescence(&mut self) {
        self.run_until(self.config.max_cycles);
    }

    /// Runs until the workload drains, `max_cycles` is hit, or the network
    /// hard-deadlocks. Returns the final report.
    pub fn run(&mut self) -> CongestionReport {
        self.run_to_quiescence();
        self.report()
    }

    /// Sorts the latencies recorded since the last call and merges them
    /// into the sorted prefix through a reused scratch buffer: repeated
    /// (windowed) report calls pay O(new log new + n) instead of
    /// re-collecting and sorting everything.
    fn ensure_latencies_sorted(&mut self) {
        let n = self.latencies.len();
        if self.lat_sorted == n {
            return;
        }
        self.latencies[self.lat_sorted..].sort_unstable();
        if self.lat_sorted > 0 {
            self.lat_scratch.clear();
            self.lat_scratch.reserve(n);
            {
                let (head, tail) = self.latencies.split_at(self.lat_sorted);
                let (mut i, mut j) = (0, 0);
                while i < head.len() && j < tail.len() {
                    if head[i] <= tail[j] {
                        self.lat_scratch.push(head[i]);
                        i += 1;
                    } else {
                        self.lat_scratch.push(tail[j]);
                        j += 1;
                    }
                }
                self.lat_scratch.extend_from_slice(&head[i..]);
                self.lat_scratch.extend_from_slice(&tail[j..]);
            }
            std::mem::swap(&mut self.latencies, &mut self.lat_scratch);
        }
        self.lat_sorted = self.latencies.len();
    }

    /// The report for the run so far. Latencies are measured from each
    /// packet's injection cycle (which is 0 for the batch `load_*` APIs)
    /// and maintained incrementally at delivery time; `&mut self` lets the
    /// summary reuse the engine's sorted-merge scratch instead of
    /// rebuilding and re-sorting the full vector per call.
    pub fn report(&mut self) -> CongestionReport {
        self.ensure_latencies_sorted();
        // Fold still-blocked spans (up to the report cycle) into a copy of
        // the per-VC head-of-line counters without disturbing the live
        // accumulators — a deadlocked report shows where the wait sits, and
        // a later report stays consistent with continued stepping.
        let mut vc_hol = self.vc_hol_blocked_cycles.clone();
        if self.track_vc {
            for id in 0..self.in_network.len() {
                if self.in_network[id] && self.blocked_since[id] != NEVER {
                    vc_hol[self.vc[id] as usize] += (self.cycle - self.blocked_since[id]) as u64;
                }
            }
        }
        CongestionReport {
            cycles: self.cycle,
            injected: self.inject_at.len() as u64,
            delivered: self.delivered,
            dropped: self.dropped,
            total_flits: self.total_flits,
            completed: self.in_flight == 0 && self.inject_pos >= self.pending_inject.len(),
            deadlocked: self.deadlocked,
            vc_flits: self.vc_flits.clone(),
            vc_hol_blocked_cycles: vc_hol,
            latency: LatencySummary::from_sorted(&self.latencies),
        }
    }

    /// Per-packet outcome: `(inject_cycle, delivered_cycle, dropped_cycle)`
    /// with `None` for "not (yet)". Drives the open-loop measurement-window
    /// accounting; `id` indexes packets in load order.
    pub fn packet_outcome(&self, id: usize) -> (u32, Option<u32>, Option<u32>) {
        let lift = |c: u32| if c == NEVER { None } else { Some(c) };
        (
            self.inject_at[id],
            lift(self.delivered_at[id]),
            lift(self.dropped_at[id]),
        )
    }

    /// Flit counts per directed link, heaviest first: the link-utilisation
    /// map (allocates; call after the run).
    pub fn link_loads(&self) -> Vec<(NodeId, NodeId, u64)> {
        let (offsets, neighbors) = self.machine.graph().csr();
        let mut loads = Vec::new();
        for u in 0..self.machine.node_count() {
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            for (slot, &v) in neighbors[row.clone()]
                .iter()
                .enumerate()
                .map(|(i, v)| (row.start + i, v))
            {
                if self.link_flits[slot] > 0 {
                    loads.push((u, v as NodeId, self.link_flits[slot]));
                }
            }
        }
        loads.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        loads
    }

    /// The heaviest per-link flit count (0 before any movement).
    pub fn max_link_load(&self) -> u64 {
        self.link_flits.iter().copied().max().unwrap_or(0)
    }

    /// Rewinds all cycle-clock state (claims, credits, queues, metrics,
    /// dynamic deaths) to the pre-run zero without touching the packet
    /// table. Shared by [`CongestionSim::reset`] and
    /// [`CongestionSim::clear_workload`].
    fn rewind_cycle_state(&mut self) {
        for w in &mut self.queued_now {
            *w = 0;
        }
        for w in &mut self.queued_next {
            *w = 0;
        }
        self.latencies.clear();
        self.lat_sorted = 0;
        self.delivered = 0;
        self.dropped = 0;
        self.in_flight = 0;
        self.inject_pos = 0;
        self.deadlocked = false;
        let depth = self.flow_depth;
        for gate in &mut self.links {
            gate.claim = NEVER;
            gate.credits = depth;
        }
        self.credit_fifo.clear();
        self.credit_fifo_pos = 0;
        for m in &mut self.credit_mark {
            *m = 0;
        }
        for h in &mut self.blocked_head {
            *h = NONE_ID;
        }
        for t in &mut self.blocked_tail {
            *t = NONE_ID;
        }
        self.served_fifo.clear();
        self.served_fifo_pos = 0;
        for v in &mut self.vc {
            *v = 0;
        }
        for b in &mut self.blocked_since {
            *b = NEVER;
        }
        for f in &mut self.vc_flits {
            *f = 0;
        }
        for c in &mut self.vc_hol_blocked_cycles {
            *c = 0;
        }
        for &d in &self.dead_list {
            self.dead[d as usize] = false;
        }
        self.dead_list.clear();
        self.schedule_pos = 0;
        for &s in &self.dead_link_list {
            self.dead_link[s as usize] = false;
        }
        self.dead_link_list.clear();
        self.link_schedule_pos = 0;
        self.cycle = 0;
        self.total_flits = 0;
        for f in &mut self.link_flits {
            *f = 0;
        }
        for c in &mut self.node_claim {
            *c = NEVER;
        }
    }

    /// Rewinds the engine to the post-load state — same packets, same fault
    /// schedule, cycle 0 — without touching the allocator, so a warmed
    /// engine can be re-run for benchmarking (`perf_report`) and for the
    /// counting-allocator harness.
    pub fn reset(&mut self) {
        self.path.truncate(self.loaded_path_len as usize);
        let segs = self.loaded_seg_len as usize;
        self.seg_start.truncate(segs);
        self.seg_end.truncate(segs);
        self.seg_home_start.truncate(segs);
        self.seg_home_end.truncate(segs);
        self.rewind_cycle_state();
        // Restore the load-time bounds of every surviving segment: a
        // mid-run re-route repointed it at a spill region that the
        // truncations above just reclaimed.
        for s in 0..segs {
            self.seg_start[s] = self.seg_home_start[s];
            self.seg_end[s] = self.seg_home_end[s];
        }
        for id in 0..self.inject_at.len() {
            // An implicit packet that materialized mid-run took a spill
            // segment past the load watermark; it goes back to riding the
            // generator.
            if self.seg_of[id] != SEG_NONE && self.seg_of[id] >= self.loaded_seg_len {
                self.seg_of[id] = SEG_NONE;
            }
            if self.resolved_at_load[id] == NEVER {
                if self.origin[id] != NO_LOGICAL {
                    let (entry, pos, rem) = self.implicit.first_entry(
                        &self.machine,
                        self.origin[id],
                        self.logical_target[id],
                    );
                    self.entry[id] = entry;
                    self.imp_pos[id] = pos;
                    self.imp_rem[id] = rem;
                    self.cursor[id] = IMPLICIT_ACTIVE;
                } else {
                    let start = self.seg_start[self.seg_of[id] as usize];
                    self.cursor[id] = start;
                    self.entry[id] = self.path[start as usize];
                }
            }
            self.occupied_slot[id] = NO_SLOT;
            self.in_network[id] = false;
            if self.resolved_at_load[id] == NEVER {
                self.delivered_at[id] = NEVER;
                self.dropped_at[id] = NEVER;
                if self.inject_at[id] == 0 {
                    self.queue_now(id);
                    self.in_network[id] = true;
                    self.in_flight += 1;
                }
                // Timed packets re-enter through `pending_inject`.
            } else if self.delivered_at[id] != NEVER {
                // Load-time outcomes (zero-hop delivery, infeasible-route
                // drop) were never overwritten by the run; re-count them.
                self.delivered_at[id] = self.resolved_at_load[id];
                self.delivered += 1;
                self.latencies.push(0);
            } else {
                self.dropped_at[id] = self.resolved_at_load[id];
                self.dropped += 1;
            }
        }
    }

    /// Discards the loaded workload and fault schedule entirely — keeping
    /// the machine, the flow-control state and every buffer's capacity —
    /// so one warmed engine can `load_*` and run many different workloads
    /// (the parallel sweep harness keeps one engine per worker).
    pub fn clear_workload(&mut self) {
        self.rewind_cycle_state();
        self.path.clear();
        self.entry.clear();
        for v in [
            &mut self.seg_start,
            &mut self.seg_end,
            &mut self.seg_home_start,
            &mut self.seg_home_end,
            &mut self.seg_of,
            &mut self.cursor,
            &mut self.imp_pos,
            &mut self.imp_rem,
            &mut self.origin,
            &mut self.logical_target,
            &mut self.inject_at,
            &mut self.occupied_slot,
            &mut self.blocked_next,
            &mut self.blocked_since,
            &mut self.delivered_at,
            &mut self.dropped_at,
            &mut self.resolved_at_load,
            &mut self.pending_inject,
        ] {
            v.clear();
        }
        self.in_network.clear();
        self.vc.clear();
        self.queued_now.clear();
        self.queued_next.clear();
        self.schedule.clear();
        self.link_schedule.clear();
        self.open_loop_sources = 0;
        self.loaded_path_len = 0;
        self.loaded_seg_len = 0;
        // The implicit context dies with the workload: the next load may
        // come through a different placement or radix.
        self.implicit.clear();
    }

    /// Bytes of heap capacity currently devoted to per-packet route state —
    /// the path arena, segment table, cached entries, shift registers and
    /// cursors, plus the implicit placement map. Implicit workloads keep
    /// this O(packets) regardless of `h`; materialized ones pay
    /// O(packets × h) for the arena. Reported into `BENCH_perf.json` by the
    /// perf harness so the implicit-routing win is a tracked number. The
    /// implicit successor-slot table (8 B per logical label) is left out:
    /// it belongs to the (machine, placement) pair, not to any packet, and
    /// shows in peak RSS instead.
    pub fn route_state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.path.capacity() * size_of::<u64>()
            + self.entry.capacity() * size_of::<u64>()
            + (self.seg_start.capacity()
                + self.seg_end.capacity()
                + self.seg_home_start.capacity()
                + self.seg_home_end.capacity()
                + self.seg_of.capacity()
                + self.cursor.capacity()
                + self.imp_pos.capacity()
                + self.imp_rem.capacity()
                + self.origin.capacity())
                * size_of::<u32>()
            + self.implicit.placement_bytes()
    }
}

/// What one [`CongestionSim::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleEvents {
    /// The cycle that was simulated.
    pub cycle: u32,
    /// Flits that moved.
    pub moved: u64,
    /// Open-loop packets that entered the network this cycle.
    pub injected: u64,
    /// Credits returned last cycle that became usable this cycle.
    pub credits_applied: u64,
    /// Processors plus directed links killed by the fault schedules this
    /// cycle.
    pub faults_fired: usize,
    /// Packets re-routed around a dead hop this cycle
    /// ([`FaultResponse::RerouteAdaptive`]); each moves in a later cycle.
    pub rerouted: u64,
    /// Packets still in flight afterwards.
    pub live: u64,
    /// Loaded packets whose injection cycle has not arrived yet.
    pub pending_injections: u64,
}

impl CycleEvents {
    /// True when the network is drained (nothing in flight and nothing
    /// still waiting to inject).
    pub fn is_idle(&self) -> bool {
        self.live == 0 && self.pending_injections == 0
    }
}

/// Outcome of a [`run_recovery`] scenario.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct RecoveryOutcome {
    /// The full congestion report of the run (pre- and post-fault cycles).
    pub report: CongestionReport,
    /// The cycle the (first) fault fired.
    pub fault_cycle: u32,
    /// Cycles from the fault until the network drained — the recovery
    /// latency the static analysis could never measure.
    pub drain_cycles: u32,
    /// Packets lost *with* the dying processors (they cannot be saved).
    pub lost_on_dead_nodes: u64,
    /// In-flight packets re-routed by the online reconfiguration.
    pub rerouted: u64,
}

/// Runs the paper's full online-recovery story on the fault-tolerant
/// machine `B^k(2,h)`, cycle-accurately:
///
/// 1. Route `pairs` (logical, on the target `B(2,h)`) obliviously through
///    the initial zero-fault placement and start the clock.
/// 2. At each scheduled fault, processors die mid-run; packets hosted on
///    them are lost.
/// 3. The same cycle, the runtime diagnoses the accumulated fault set,
///    performs `reconfigure_verified`, re-targets every surviving in-flight
///    packet at its logical target's *new* physical image and re-routes it
///    through the surviving machine.
/// 4. The run drains; `drain_cycles` is the measured recovery latency.
///    A run that hard-deadlocks stops where [`CongestionSim::run`] would
///    and reports `deadlocked`.
///
/// Returns an error if the fault schedule exceeds the construction's
/// budget `k` (reconfiguration is only guaranteed below it).
pub fn run_recovery(
    ft: &FtDeBruijn2,
    pairs: &[(NodeId, NodeId)],
    fault_schedule: &[(u32, NodeId)],
    port_model: PortModel,
    config: CongestionConfig,
) -> Result<RecoveryOutcome, SimError> {
    // Budget-check the *distinct* processors the schedule kills (a node
    // named at several cycles dies once), surfacing over-budget schedules
    // as a simulation error instead of panicking inside reconfigure().
    let mut nodes: Vec<NodeId> = fault_schedule.iter().map(|&(_, node)| node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    if nodes.len() > ft.k() {
        return Err(SimError::FaultBudgetExceeded {
            faults: nodes.len(),
            budget: ft.k(),
        });
    }
    let machine = PhysicalMachine::new(ft.graph().clone(), port_model);
    let initial = ft.reconfigure(&FaultSet::empty(ft.node_count()));
    let mut sim = CongestionSim::new(machine, config);
    sim.load_oblivious(ft.target(), &initial, pairs);
    for &(cycle, node) in fault_schedule {
        sim.schedule_fault(cycle, node);
    }
    let mut fault_cycle = NEVER;
    let mut lost_on_dead_nodes = 0;
    let mut rerouted = 0;
    while sim.counts().3 > 0 && sim.cycle() < config.max_cycles {
        // Fire due faults *before* this cycle's movement so the online
        // reconfiguration can re-target in-flight packets the same cycle the
        // processors die — packets lost are exactly those hosted on them.
        let before_drop = sim.counts().2;
        let fired = sim.fire_due_faults();
        let mut retargeted = 0;
        if fired > 0 {
            if fault_cycle == NEVER {
                fault_cycle = sim.cycle();
            }
            lost_on_dead_nodes += sim.counts().2 - before_drop;
            // Online reconfiguration: diagnose, re-embed, drain.
            let faults = sim.current_fault_set();
            let placement =
                ft.reconfigure_verified(&faults)
                    .map_err(|_| SimError::ReconfigurationFailed {
                        faults: faults.len(),
                    })?;
            let (r, _, _) = sim.retarget_and_reroute(&placement);
            retargeted = r;
            rerouted += r;
        }
        // The faults and re-routes that ran ahead of `step` belong to this
        // cycle's activity under the stop rule.
        let mut events = sim.step();
        events.faults_fired += fired;
        events.rerouted += retargeted;
        if sim.proves_deadlock(&events) {
            sim.deadlocked = true;
            break;
        }
    }
    let report = sim.report();
    let drain_cycles = if fault_cycle == NEVER {
        0
    } else {
        report.cycles - fault_cycle
    };
    Ok(RecoveryOutcome {
        report,
        fault_cycle: if fault_cycle == NEVER { 0 } else { fault_cycle },
        drain_cycles,
        lost_on_dead_nodes,
        rerouted,
    })
}

/// One point on a latency–throughput curve: the measured outcome of an
/// open-loop run at a fixed offered load.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct OpenLoopReport {
    /// The requested injection probability (packets/node/cycle).
    pub offered_load: f64,
    /// The realized injection rate over the measurement window.
    pub offered_realized: f64,
    /// Delivered throughput: packets *delivered during* the measurement
    /// window, per node per cycle. This is the curve that plateaus at
    /// saturation under [`FlowControl::Infinite`] and rolls over (tree
    /// saturation, deadlock) under [`FlowControl::CreditBased`].
    pub throughput: f64,
    /// Fraction of window-injected packets delivered by the end of the run
    /// (drain included).
    pub accepted: f64,
    /// Latency distribution over window-injected, delivered packets,
    /// measured from injection to delivery.
    pub latency: LatencySummary,
    /// Fixed-bin histogram over the same latencies.
    pub histogram: crate::metrics::LatencyHistogram,
    /// Packets injected during the measurement window.
    pub window_injected: u64,
    /// Of those, packets delivered by the end of the run.
    pub window_delivered: u64,
    /// All injections with `inject_cycle <` window end (warm-up included).
    pub cum_injected_by_window_end: u64,
    /// All deliveries with `delivered_cycle <` window end. Causality bounds
    /// this by `cum_injected_by_window_end` — the conservation side of
    /// "delivered throughput never exceeds offered load".
    pub cum_delivered_by_window_end: u64,
    /// Whether the run ended in a hard buffer deadlock.
    pub deadlocked: bool,
    /// Cycles actually simulated.
    pub cycles: u32,
}

/// The driver-facing surface of a congestion engine: everything the
/// open-loop measurement and sweep drivers need, implemented by both the
/// single-table [`CongestionSim`] and the sharded
/// [`super::shard::ShardedSim`] (which must produce byte-identical results
/// for any shard count).
pub trait CongestionEngine {
    /// Steps until cycle `horizon`, the workload drains, or a hard deadlock
    /// is proven.
    fn run_until(&mut self, horizon: u32);
    /// `(injected, delivered, dropped, in_flight)` so far.
    fn counts(&self) -> (u64, u64, u64, u64);
    /// Per-packet `(inject_cycle, delivered_cycle, dropped_cycle)` with
    /// `None` for "not (yet)"; `id` indexes packets in load order.
    fn packet_outcome(&self, id: usize) -> (u32, Option<u32>, Option<u32>);
    /// The current cycle.
    fn cycle(&self) -> u32;
    /// Whether the run ended in a proven hard buffer deadlock.
    fn deadlocked(&self) -> bool;
    /// Logical sources behind the last timed load (0 = none loaded).
    fn open_loop_sources(&self) -> u32;
    /// Physical node count of the machine.
    fn node_count(&self) -> usize;
    /// The final report (sorts latencies on first call).
    fn report(&mut self) -> CongestionReport;
}

impl CongestionEngine for CongestionSim {
    fn run_until(&mut self, horizon: u32) {
        CongestionSim::run_until(self, horizon);
    }
    fn counts(&self) -> (u64, u64, u64, u64) {
        CongestionSim::counts(self)
    }
    fn packet_outcome(&self, id: usize) -> (u32, Option<u32>, Option<u32>) {
        CongestionSim::packet_outcome(self, id)
    }
    fn cycle(&self) -> u32 {
        CongestionSim::cycle(self)
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
        CongestionSim::report(self)
    }
}

/// Drives an engine already loaded with an open-loop schedule (see
/// [`CongestionSim::load_oblivious_timed`]) to the spec's horizon and
/// computes the measurement-window statistics. The cycle loop is
/// allocation-free; the statistics pass at the end allocates (latency sort,
/// histogram). Reusable after [`CongestionSim::reset`].
pub fn measure_open_loop(
    sim: &mut impl CongestionEngine,
    spec: &crate::workload::OpenLoopSpec,
) -> OpenLoopReport {
    // Rates are per logical source: on a B^k(2,h) host the machine has
    // 2^h + k processors but only the 2^h logical nodes inject.
    let n = if sim.open_loop_sources() > 0 {
        sim.open_loop_sources() as u64
    } else {
        sim.node_count() as u64
    };
    let (w0, w1) = spec.window();
    sim.run_until(spec.horizon());

    let packets = sim.counts().0 as usize;
    let mut window_injected = 0u64;
    let mut window_delivered = 0u64;
    let mut window_deliveries_in_window = 0u64;
    let mut cum_injected_by_window_end = 0u64;
    let mut cum_delivered_by_window_end = 0u64;
    let mut latencies: Vec<u32> = Vec::new();
    // Bins of 2 cycles spanning 4x the window — past that, overflow.
    let mut histogram =
        crate::metrics::LatencyHistogram::new(2, (2 * spec.measure_cycles).max(8) as usize);
    for id in 0..packets {
        let (inject, delivered, _) = sim.packet_outcome(id);
        if inject < w1 {
            cum_injected_by_window_end += 1;
        }
        if let Some(d) = delivered {
            if d < w1 {
                cum_delivered_by_window_end += 1;
            }
            if d >= w0 && d < w1 {
                window_deliveries_in_window += 1;
            }
        }
        if inject >= w0 && inject < w1 {
            window_injected += 1;
            if let Some(d) = delivered {
                window_delivered += 1;
                let lat = d - inject;
                latencies.push(lat);
                histogram.record(lat);
            }
        }
    }
    let window_capacity = (n * spec.measure_cycles as u64) as f64;
    OpenLoopReport {
        offered_load: spec.offered_load,
        offered_realized: window_injected as f64 / window_capacity,
        throughput: window_deliveries_in_window as f64 / window_capacity,
        accepted: if window_injected == 0 {
            1.0
        } else {
            window_delivered as f64 / window_injected as f64
        },
        latency: LatencySummary::from_latencies(&mut latencies),
        histogram,
        window_injected,
        window_delivered,
        cum_injected_by_window_end,
        cum_delivered_by_window_end,
        deadlocked: sim.deadlocked(),
        cycles: sim.cycle(),
    }
}

/// Builds a [`CongestionSim`] for `machine`, loads the open-loop schedule
/// the spec describes (oblivious de Bruijn routes through `placement`), and
/// measures one latency–throughput point. The offered-load sweep drivers in
/// `ftdb-analysis` call this once per load.
pub fn run_open_loop(
    db: &DeBruijn2,
    placement: &Embedding,
    machine: PhysicalMachine,
    config: CongestionConfig,
    spec: &crate::workload::OpenLoopSpec,
) -> OpenLoopReport {
    let injections = crate::workload::open_loop_injections(db.node_count(), spec);
    let mut sim = CongestionSim::new(machine, config);
    sim.load_oblivious_timed(db, placement, &injections);
    measure_open_loop(&mut sim, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::run_logical_workload;
    use crate::workload;
    use rand::SeedableRng;

    fn healthy_sim(h: usize, port: PortModel) -> (DeBruijn2, CongestionSim) {
        let db = DeBruijn2::new(h);
        let machine = PhysicalMachine::new(db.graph().clone(), port);
        let sim = CongestionSim::new(machine, CongestionConfig::default());
        (db, sim)
    }

    #[test]
    fn healthy_permutation_delivers_everything_with_static_hop_counts() {
        let (db, mut sim) = healthy_sim(5, PortModel::MultiPort);
        let n = db.node_count();
        let placement = Embedding::identity(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let pairs = workload::permutation_pairs(n, &mut rng);
        sim.load_oblivious(&db, &placement, &pairs);
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.delivered, n as u64);
        assert_eq!(report.dropped, 0);
        // Congestion changes *when* flits move, never *how many*: total
        // flits equals the static kernels' total hop count.
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let stats = run_logical_workload(&db, &placement, &machine, &pairs);
        assert_eq!(report.total_flits, stats.total_hops);
        // Latency is at least the hop count and at most the full run.
        assert!(report.latency.max as usize >= stats.max_hops.saturating_sub(1));
        assert!(report.cycles as u64 >= stats.max_hops as u64);
    }

    #[test]
    fn conservation_holds_every_cycle() {
        let (db, mut sim) = healthy_sim(4, PortModel::SinglePort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pairs = workload::uniform_pairs(n, 3 * n, &mut rng);
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        sim.schedule_fault(2, 3);
        sim.schedule_fault(4, 9);
        loop {
            let (injected, delivered, dropped, in_flight) = sim.counts();
            assert_eq!(delivered + dropped + in_flight, injected);
            if in_flight == 0 {
                break;
            }
            sim.step();
        }
    }

    #[test]
    fn at_least_one_flit_moves_per_cycle_until_drained() {
        let (db, mut sim) = healthy_sim(4, PortModel::SinglePort);
        let n = db.node_count();
        sim.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 0));
        loop {
            let events = sim.step();
            if events.is_idle() {
                break;
            }
            assert!(events.moved >= 1, "live cycle with no movement (deadlock)");
        }
    }

    #[test]
    fn zero_hop_packets_are_delivered_at_injection() {
        let (db, mut sim) = healthy_sim(3, PortModel::MultiPort);
        // 0 and 7 are the all-zeros/all-ones labels: the only self-routes
        // whose digit-shifting path is empty (every shift is a self-loop).
        sim.load_oblivious(
            &db,
            &Embedding::identity(db.node_count()),
            &[(7, 7), (0, 0)],
        );
        let report = sim.run();
        assert_eq!(report.delivered, 2);
        assert_eq!(report.cycles, 0);
        assert_eq!(report.latency.max, 0);
    }

    #[test]
    fn load_time_infeasible_packets_count_as_dropped() {
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(1);
        let mut sim = CongestionSim::new(machine, CongestionConfig::default());
        // (5, 1) ends at the fault; (n, 0) is out of range; (10, 5) routes
        // clear of node 1 (10 → 4 → 9 → 2 → 5).
        sim.load_oblivious(&db, &Embedding::identity(n), &[(5, 1), (n, 0), (10, 5)]);
        let report = sim.run();
        assert_eq!(report.injected, 3);
        assert_eq!(report.dropped, 2);
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn short_placement_drops_unplaced_routes_at_load() {
        // identity(8) maps half of B(2,4): (3, 12) leaves the placement at
        // node 15 and (9, 1) starts outside it, so both drop at load instead
        // of panicking; (0, 5) and (0, 3) stay inside it and deliver.
        let db = DeBruijn2::new(4);
        let short = Embedding::identity(8);
        for route_source in [RouteSource::Implicit, RouteSource::Materialized] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let config = CongestionConfig {
                route_source,
                ..CongestionConfig::default()
            };
            let mut sim = CongestionSim::new(machine, config);
            sim.load_oblivious(&db, &short, &[(3, 12), (0, 5)]);
            sim.load_oblivious_timed(&db, &short, &[(2, 9, 1), (3, 0, 3)]);
            let report = sim.run();
            assert_eq!(
                (report.injected, report.delivered, report.dropped),
                (4, 2, 2),
                "{route_source:?}"
            );
        }
    }

    #[test]
    fn single_port_is_slower_than_multi_port_on_contended_workloads() {
        let h = 5;
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
        let mut cycles = Vec::new();
        for port in [PortModel::MultiPort, PortModel::SinglePort] {
            let machine = PhysicalMachine::new(db.graph().clone(), port);
            let mut sim = CongestionSim::new(machine, CongestionConfig::default());
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let report = sim.run();
            assert!(report.completed);
            assert_eq!(report.delivered, pairs.len() as u64);
            cycles.push(report.cycles);
        }
        assert!(
            cycles[1] > cycles[0],
            "SinglePort ({}) must be slower than MultiPort ({})",
            cycles[1],
            cycles[0]
        );
    }

    #[test]
    fn hot_spot_saturates_at_the_roots_port_limit() {
        let h = 5;
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let root = 5;
        let in_degree = db.graph().degree(root) as u64;
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, CongestionConfig::default());
        sim.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, root));
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.delivered, n as u64);
        // All but the root's own packet must cross one of the root's
        // incident links on the final hop: the drain rate is capped by the
        // root's degree, which lower-bounds the makespan.
        let others = (n - 1) as u64;
        assert!(
            report.cycles as u64 >= others.div_ceil(in_degree),
            "cycles {} below the port-limit bound {}",
            report.cycles,
            others.div_ceil(in_degree)
        );
        // And the heaviest link (into the root) carries a commensurate
        // share of the traffic.
        assert!(sim.max_link_load() >= others / in_degree);
    }

    #[test]
    fn mid_run_fault_drops_or_reroutes_by_policy() {
        let h = 4;
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let mut dropped_by_policy = Vec::new();
        for response in [FaultResponse::Drop, FaultResponse::RerouteAdaptive] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = CongestionSim::new(
                machine,
                CongestionConfig {
                    fault_response: response,
                    ..CongestionConfig::default()
                },
            );
            // Everyone routes to node 2; node 1 (a predecessor of 2, so on
            // many routes) dies at cycle 1 while packets are in flight.
            sim.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 2));
            sim.schedule_fault(1, 1);
            let report = sim.run();
            assert!(report.completed);
            assert_eq!(report.delivered + report.dropped, n as u64);
            // Packets hosted on node 1 when it dies are lost either way.
            assert!(report.dropped >= 1, "the fault must cost something");
            dropped_by_policy.push(report.dropped);
        }
        // Reroute saves the through-traffic that the drop policy loses: only
        // packets *on* the dead node at the fault cycle stay lost.
        assert!(
            dropped_by_policy[1] < dropped_by_policy[0],
            "reroute ({}) must lose fewer packets than drop ({})",
            dropped_by_policy[1],
            dropped_by_policy[0]
        );
    }

    #[test]
    fn reroute_while_sitting_on_a_revisited_target_delivers() {
        // Oblivious routes may pass *through* the target: 6 -> 5 on B(2,3)
        // walks [6, 5, 2, 5]. Kill node 2 while the packet rests on 5: the
        // adaptive re-route to target 5 is the empty path, so the packet is
        // delivered on the spot — not left live with an exhausted route.
        let db = DeBruijn2::new(3);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(
            machine,
            CongestionConfig {
                fault_response: FaultResponse::RerouteAdaptive,
                ..CongestionConfig::default()
            },
        );
        sim.load_oblivious(&db, &Embedding::identity(db.node_count()), &[(6, 5)]);
        sim.schedule_fault(1, 2);
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn reset_restores_routes_overwritten_by_mid_run_reroutes() {
        // A re-route points a packet at a spill segment past the load
        // watermark; reset() must restore the original route so a second
        // run is identical (and does not index into truncated storage).
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(
            machine,
            CongestionConfig {
                fault_response: FaultResponse::RerouteAdaptive,
                ..CongestionConfig::default()
            },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        sim.load_oblivious(
            &db,
            &Embedding::identity(n),
            &workload::permutation_pairs(n, &mut rng),
        );
        sim.schedule_fault(1, 9);
        let first = sim.run();
        assert!(first.delivered > 0);
        sim.reset();
        let second = sim.run();
        assert_eq!(first, second);
    }

    #[test]
    fn recovery_budget_counts_distinct_processors() {
        // The same node scheduled at two cycles dies once: a k = 1
        // construction must accept it.
        let ft = FtDeBruijn2::new(4, 1);
        let n = ft.target().node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let outcome = run_recovery(
            &ft,
            &pairs,
            &[(1, 2), (3, 2)],
            PortModel::MultiPort,
            CongestionConfig {
                fault_response: FaultResponse::RerouteAdaptive,
                ..CongestionConfig::default()
            },
        )
        .expect("one distinct fault is within a k = 1 budget");
        assert!(outcome.report.completed);
        assert_eq!(
            outcome.report.delivered + outcome.lost_on_dead_nodes,
            n as u64
        );
    }

    #[test]
    fn reset_reproduces_identical_runs() {
        let (db, mut sim) = healthy_sim(5, PortModel::SinglePort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let pairs = workload::uniform_pairs(n, 2 * n, &mut rng);
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        sim.schedule_fault(3, 7);
        let first = sim.run();
        sim.reset();
        let counts = sim.counts();
        assert_eq!(counts.0, pairs.len() as u64);
        let second = sim.run();
        assert_eq!(first, second);
    }

    #[test]
    fn recovery_delivers_all_surviving_packets() {
        let (h, k) = (4, 2);
        let ft = FtDeBruijn2::new(h, k);
        let n = ft.target().node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pairs = workload::permutation_pairs(n, &mut rng);
        let outcome = run_recovery(
            &ft,
            &pairs,
            &[(2, 3), (2, 11)],
            PortModel::MultiPort,
            CongestionConfig {
                fault_response: FaultResponse::RerouteAdaptive,
                ..Default::default()
            },
        )
        .expect("within fault budget");
        assert!(outcome.report.completed);
        assert_eq!(outcome.fault_cycle, 2);
        assert!(outcome.drain_cycles > 0);
        // Everything not sitting on a dying processor must be delivered.
        assert_eq!(
            outcome.report.delivered + outcome.lost_on_dead_nodes,
            n as u64
        );
        assert_eq!(outcome.report.dropped, outcome.lost_on_dead_nodes);
    }

    #[test]
    fn recovery_rejects_over_budget_schedules() {
        let ft = FtDeBruijn2::new(3, 1);
        let err = run_recovery(
            &ft,
            &[(0, 5)],
            &[(1, 2), (2, 3)],
            PortModel::MultiPort,
            CongestionConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn recovery_applies_the_stop_rule() {
        // The depth-1 hot spot deadlocks with no fault at all: the recovery
        // driver must prove it exactly as `run` does instead of stepping to
        // `max_cycles`.
        let ft = FtDeBruijn2::new(5, 1);
        let pairs = workload::all_to_one(ft.target().node_count(), 2);
        let config = CongestionConfig {
            max_cycles: 100_000,
            ..credit_config(1)
        };
        let outcome = run_recovery(&ft, &pairs, &[], PortModel::MultiPort, config)
            .expect("an empty schedule is within budget");
        let machine = PhysicalMachine::new(ft.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, config);
        let initial = ft.reconfigure(&FaultSet::empty(ft.node_count()));
        sim.load_oblivious(ft.target(), &initial, &pairs);
        let want = sim.run();
        assert!(want.deadlocked && want.cycles < 100, "{want:?}");
        assert_eq!(outcome.report, want);
    }

    fn reroute_config() -> CongestionConfig {
        CongestionConfig {
            fault_response: FaultResponse::RerouteAdaptive,
            ..CongestionConfig::default()
        }
    }

    #[test]
    fn a_reroute_only_cycle_is_activity_not_deadlock() {
        // 0 -> 4 on B(2,5) routes 0 -> 1 -> 2 -> 4, and node 2 dies at
        // cycle 0. At cycle 1 the packet's only event is its re-route at
        // node 1: nothing moves, yet the run is not stuck.
        let db = DeBruijn2::new(5);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, reroute_config());
        sim.load_oblivious(&db, &Embedding::identity(db.node_count()), &[(0, 4)]);
        sim.schedule_fault(0, 2);
        let report = sim.run();
        assert!(!report.deadlocked && report.completed, "{report:?}");
        assert_eq!((report.delivered, report.dropped), (1, 0));
        sim.reset();
        let first = sim.step();
        assert_eq!((first.faults_fired, first.moved, first.rerouted), (1, 1, 0));
        let second = sim.step();
        assert_eq!(
            (second.faults_fired, second.moved, second.rerouted),
            (0, 0, 1)
        );
    }

    #[test]
    fn single_packet_reroutes_never_deadlock_on_unbounded_buffers() {
        // Every (source, target, victim) on B(2,4) with the kill at cycle 0,
        // 1 or 2. Unbounded buffers cannot deadlock, so each run must end
        // with its packet delivered or dropped.
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let placement = Embedding::identity(n);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, reroute_config());
        for s in 0..n {
            for t in 0..n {
                for victim in 0..n {
                    for kill in 0..3 {
                        sim.clear_workload();
                        sim.load_oblivious(&db, &placement, &[(s, t)]);
                        sim.schedule_fault(kill, victim);
                        let report = sim.run();
                        assert!(
                            !report.deadlocked && report.completed,
                            "{s}->{t}, node {victim} killed at cycle {kill}: {report:?}"
                        );
                    }
                }
            }
        }
    }

    fn credit_config(buffer_depth: u32) -> CongestionConfig {
        CongestionConfig {
            flow_control: FlowControl::CreditBased { buffer_depth },
            ..CongestionConfig::default()
        }
    }

    fn open_spec(offered_load: f64, seed: u64) -> workload::OpenLoopSpec {
        workload::OpenLoopSpec {
            offered_load,
            process: workload::InjectionProcess::Bernoulli,
            warmup_cycles: 40,
            measure_cycles: 80,
            drain_cycles: 200,
            seed,
        }
    }

    #[test]
    fn credit_flow_preserves_delivery_and_flit_totals() {
        // Bounded buffers change *when* flits move, never *how many*: a
        // drained credit-based run delivers the same packets over the same
        // links as the unbounded engine, just later.
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let pairs = workload::uniform_pairs(n, 3 * n, &mut rng);
        let mut reports = Vec::new();
        for config in [CongestionConfig::default(), credit_config(2)] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = CongestionSim::new(machine, config);
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let report = sim.run();
            assert!(report.completed, "run must drain (got {report:?})");
            reports.push(report);
        }
        assert_eq!(reports[0].delivered, reports[1].delivered);
        assert_eq!(reports[0].total_flits, reports[1].total_flits);
        assert!(
            reports[1].cycles >= reports[0].cycles,
            "bounded buffers cannot be faster than infinite ones"
        );
    }

    #[test]
    fn shallower_buffers_are_slower_on_contended_traffic() {
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let pairs = workload::uniform_pairs(n, 4 * n, &mut rng);
        let mut cycles = Vec::new();
        for depth in [2u32, 8] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = CongestionSim::new(machine, credit_config(depth));
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let report = sim.run();
            assert!(report.completed);
            assert_eq!(report.delivered, pairs.len() as u64);
            cycles.push(report.cycles);
        }
        assert!(
            cycles[0] > cycles[1],
            "depth 2 ({}) must be slower than depth 8 ({})",
            cycles[0],
            cycles[1]
        );
    }

    #[test]
    fn depth_one_hot_spot_deadlocks_and_is_detected() {
        // Oblivious routes are fixed-length: a route may revisit its target
        // and continue, so all-to-one traffic wraps around de Bruijn shift
        // cycles (1 -> 2 -> 4 -> ... -> 1). With one buffer slot per link
        // those cycles fill and form a genuine cyclic wait — the engine
        // must *prove* the deadlock (report it, not spin to max_cycles),
        // and credit conservation must hold in the dead state. One more
        // slot per buffer breaks this particular cycle.
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        let pairs = workload::all_to_one(n, 2);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, credit_config(1));
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        let report = sim.run();
        assert!(report.deadlocked);
        assert!(!report.completed);
        assert!(
            report.cycles < 100,
            "deadlock must be detected promptly, not at max_cycles"
        );
        sim.check_credit_conservation()
            .expect("conservation in the dead state");

        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, credit_config(2));
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        let report = sim.run();
        assert!(report.completed, "depth 2 drains the same workload");
        assert!(!report.deadlocked);
        assert_eq!(report.delivered, n as u64);
    }

    fn vc_config(vcs: u32, buffer_depth: u32, switching: Switching) -> CongestionConfig {
        CongestionConfig {
            flow_control: FlowControl::VirtualChannel {
                vcs,
                buffer_depth,
                switching,
            },
            ..CongestionConfig::default()
        }
    }

    #[test]
    fn dateline_virtual_channels_drain_the_depth_one_hotspot() {
        // The ROADMAP acceptance test: the workload above wedges depth-1
        // single-channel buffers; two dateline-ordered VCs per link break
        // every shift-cycle credit loop it wraps, so the same buffers (one
        // slot per (link, vc)) drain it completely. One VC is just credit
        // flow with extra bookkeeping and must still deadlock — keeping the
        // detector honest.
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        let pairs = workload::all_to_one(n, 2);
        for (vcs, wants_deadlock) in [(1u32, true), (2, false), (4, false)] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim =
                CongestionSim::new(machine, vc_config(vcs, 1, Switching::StoreAndForward));
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let report = sim.run();
            assert_eq!(report.deadlocked, wants_deadlock, "vcs={vcs}");
            sim.check_credit_conservation()
                .expect("conservation with VC gates");
            assert_eq!(report.vc_flits.len(), vcs as usize);
            assert_eq!(report.vc_hol_blocked_cycles.len(), vcs as usize);
            assert_eq!(
                report.vc_flits.iter().sum::<u64>(),
                report.total_flits,
                "every flit crossed on exactly one VC"
            );
            if wants_deadlock {
                assert!(!report.completed);
                assert!(report.cycles < 100, "deadlock detected promptly");
            } else {
                assert!(report.completed, "vcs={vcs} must drain");
                assert_eq!(report.delivered, n as u64);
                assert!(
                    report.vc_flits.iter().all(|&f| f > 0),
                    "hot-spot traffic wraps the dateline, so every VC carries \
                     flits (got {:?})",
                    report.vc_flits
                );
            }
        }
    }

    #[test]
    fn single_vc_store_and_forward_is_credit_flow() {
        // `VirtualChannel {{ vcs: 1, .. }}` must reproduce `CreditBased`
        // cycle-for-cycle — the VC machinery degenerates to the historical
        // one-gate-per-slot layout (only the per-VC report vectors differ:
        // length 1 instead of empty).
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let pairs = workload::uniform_pairs(n, 3 * n, &mut rng);
        for depth in [1u32, 2, 4] {
            let mut reports = Vec::new();
            for config in [
                credit_config(depth),
                vc_config(1, depth, Switching::StoreAndForward),
            ] {
                let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
                let mut sim = CongestionSim::new(machine, config);
                sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
                reports.push(sim.run());
            }
            let (legacy, vc) = (&reports[0], &reports[1]);
            assert_eq!(legacy.cycles, vc.cycles, "depth={depth}");
            assert_eq!(legacy.delivered, vc.delivered);
            assert_eq!(legacy.total_flits, vc.total_flits);
            assert_eq!(legacy.deadlocked, vc.deadlocked);
            assert_eq!(legacy.latency, vc.latency);
            assert_eq!(legacy.vc_flits.len(), 0);
            assert_eq!(vc.vc_flits.len(), 1);
            assert_eq!(vc.vc_flits[0], vc.total_flits);
        }
    }

    #[test]
    fn wormhole_trains_multiply_flits_and_stretch_time() {
        // A `packet_flits`-flit train holds each link for `packet_flits`
        // cycles and moves `packet_flits` flits per hop: deliveries are
        // unchanged, the flit total scales exactly, and the run cannot be
        // faster than single-flit switching on the same buffers.
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let pairs = workload::bit_reversal_pairs(db.h());
        let pf = 4u32;
        let mut reports = Vec::new();
        for switching in [
            Switching::StoreAndForward,
            Switching::Wormhole { packet_flits: pf },
        ] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = CongestionSim::new(machine, vc_config(2, 2, switching));
            sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
            let report = sim.run();
            assert!(report.completed, "{switching:?} must drain");
            sim.check_credit_conservation()
                .expect("conservation under wormhole timing");
            reports.push(report);
        }
        let (saf, worm) = (&reports[0], &reports[1]);
        assert_eq!(saf.delivered, worm.delivered);
        assert_eq!(worm.total_flits, saf.total_flits * pf as u64);
        assert_eq!(
            worm.vc_flits.iter().sum::<u64>(),
            worm.total_flits,
            "per-VC flit split covers the trains"
        );
        assert!(
            worm.cycles > saf.cycles,
            "streaming bodies must hold links longer ({} vs {})",
            worm.cycles,
            saf.cycles
        );
    }

    #[test]
    fn credit_conservation_holds_every_cycle_with_faults_and_reroutes() {
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        for response in [FaultResponse::Drop, FaultResponse::RerouteAdaptive] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = CongestionSim::new(
                machine,
                CongestionConfig {
                    fault_response: response,
                    flow_control: FlowControl::CreditBased { buffer_depth: 1 },
                    ..CongestionConfig::default()
                },
            );
            let mut rng = rand::rngs::StdRng::seed_from_u64(17);
            sim.load_oblivious(
                &db,
                &Embedding::identity(n),
                &workload::uniform_pairs(n, 4 * n, &mut rng),
            );
            // Kill two heavily-used processors while traffic is in flight:
            // without the kill-path slot release this leaks their input
            // buffers' credits and the invariant breaks.
            sim.schedule_fault(3, 1);
            sim.schedule_fault(5, 9);
            // Depth-1 buffers under this load may hard-deadlock (that is
            // the point of bounded buffers); conservation must hold right
            // through the deadlock, so step manually and stop once the
            // engine provably cannot change state again.
            let mut stuck = 0;
            loop {
                sim.check_credit_conservation()
                    .unwrap_or_else(|msg| panic!("{response:?}: {msg}"));
                let (injected, delivered, dropped, live) = sim.counts();
                assert_eq!(delivered + dropped + live, injected);
                if live == 0 {
                    break;
                }
                let events = sim.step();
                stuck = if events.moved == 0 && events.faults_fired == 0 {
                    stuck + 1
                } else {
                    0
                };
                if stuck > 2 {
                    break; // hard deadlock: state is now a fixed point
                }
            }
        }
    }

    #[test]
    fn open_loop_low_load_latency_matches_hop_count() {
        // At a trickle load on a healthy machine, contention is negligible:
        // every measured packet's latency is (close to) its hop count, and
        // throughput tracks the offered rate.
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let spec = open_spec(0.02, 42);
        let report = run_open_loop(
            &db,
            &Embedding::identity(n),
            machine,
            CongestionConfig::default(),
            &spec,
        );
        assert!(!report.deadlocked);
        assert!(report.window_injected > 0, "trickle load still injects");
        assert_eq!(
            report.accepted, 1.0,
            "an uncontended network delivers everything"
        );
        // Oblivious de Bruijn routes take at most h hops; with next to no
        // queueing the mean latency stays within a couple of cycles of it.
        assert!(
            report.latency.mean <= db.h() as f64 + 2.0,
            "trickle-load mean latency {} too high",
            report.latency.mean
        );
        assert_eq!(report.histogram.count(), report.window_delivered);
        assert!((report.throughput - report.offered_realized).abs() < 0.01);
    }

    #[test]
    fn open_loop_throughput_never_exceeds_cumulative_injections() {
        for depth in [0u32, 1, 2] {
            let config = if depth == 0 {
                CongestionConfig::default()
            } else {
                credit_config(depth)
            };
            let db = DeBruijn2::new(5);
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
            let report = run_open_loop(
                &db,
                &Embedding::identity(db.node_count()),
                machine,
                config,
                &open_spec(0.8, 7),
            );
            assert!(
                report.cum_delivered_by_window_end <= report.cum_injected_by_window_end,
                "depth {depth}: delivered more than was injected"
            );
            assert!(report.window_delivered <= report.window_injected);
        }
    }

    #[test]
    fn open_loop_reset_reproduces_identical_runs() {
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let spec = open_spec(0.4, 3);
        let injections = workload::open_loop_injections(n, &spec);
        let mut sim = CongestionSim::new(machine, credit_config(1));
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
        let first = measure_open_loop(&mut sim, &spec);
        sim.reset();
        let second = measure_open_loop(&mut sim, &spec);
        assert_eq!(first, second);
    }

    #[test]
    fn staggered_and_bernoulli_processes_both_drive_the_engine() {
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        for process in [
            workload::InjectionProcess::Bernoulli,
            workload::InjectionProcess::Staggered,
        ] {
            let spec = workload::OpenLoopSpec {
                process,
                ..open_spec(0.25, 11)
            };
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let report = run_open_loop(
                &db,
                &Embedding::identity(n),
                machine,
                credit_config(2),
                &spec,
            );
            assert!(report.window_injected > 0, "{process:?} injected nothing");
            assert!(report.window_delivered > 0);
            // Staggered injects on an exact period: realized load is within
            // one rounding step of the request; Bernoulli within noise.
            assert!(
                (report.offered_realized - spec.offered_load).abs() < 0.1,
                "{process:?}: realized {} vs offered {}",
                report.offered_realized,
                spec.offered_load
            );
        }
    }

    #[test]
    #[should_panic(expected = "before the already-queued cycle")]
    fn appending_an_earlier_injection_schedule_is_rejected() {
        // Two per-call-sorted loads that interleave badly would silently
        // inject the second batch late; the API must reject the append.
        let db = DeBruijn2::new(3);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, CongestionConfig::default());
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &[(10, 1, 2)]);
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &[(2, 3, 4)]);
    }

    #[test]
    fn timed_zero_hop_packets_respect_faults_at_their_injection_cycle() {
        // A self-send whose digit-shift route collapses to a single node
        // (the all-zeros label) resolves at its *injection* cycle, not at
        // load: if the source dies first, the packet is dropped, exactly
        // like its non-zero-hop siblings from the same source.
        let db = DeBruijn2::new(3);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, CongestionConfig::default());
        // Node 0 self-send at cycle 2 (before the kill) and cycle 10
        // (after); node 0 dies at cycle 5.
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &[(2, 0, 0), (10, 0, 0)]);
        sim.schedule_fault(5, 0);
        let report = sim.run();
        assert_eq!(report.delivered, 1, "pre-fault self-send is consumed");
        assert_eq!(
            report.dropped, 1,
            "post-fault self-send dies with its source"
        );
        assert_eq!(report.latency.max, 0, "zero-hop delivery has latency 0");
        // And identically after a reset.
        sim.reset();
        assert_eq!(sim.run(), report);
    }

    #[test]
    fn mid_run_fault_with_credits_drops_and_returns_buffer_slots() {
        // The hot-spot pattern parks packets in node 2's input buffers; the
        // upstream node 1 dies while its own buffers hold through-traffic.
        // The run must still drain (no leaked credits) and conservation
        // must hold at every later cycle.
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, credit_config(2));
        sim.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 2));
        sim.schedule_fault(2, 1);
        let report = sim.run();
        assert!(
            report.completed,
            "leaked credits would starve the drain: {report:?}"
        );
        assert!(report.dropped >= 1, "packets on the dead node are lost");
        assert_eq!(report.delivered + report.dropped, n as u64);
        sim.check_credit_conservation()
            .expect("post-run conservation");
    }

    #[test]
    fn naive_scan_and_wake_list_agree_on_canned_scenarios() {
        // The heavyweight randomized differential suite lives in
        // tests/tests/wakelist_differential.rs; this smoke pins the three
        // behaviours most likely to diverge: deadlock detection, mid-run
        // fault reroutes under credits, and open-loop timed injection.
        let db = DeBruijn2::new(5);
        let n = db.node_count();
        type Scenario = (CongestionConfig, Vec<(usize, usize)>, Vec<(u32, usize)>);
        let scenarios: Vec<Scenario> = vec![
            (credit_config(1), workload::all_to_one(n, 2), vec![]),
            (
                CongestionConfig {
                    fault_response: FaultResponse::RerouteAdaptive,
                    flow_control: FlowControl::CreditBased { buffer_depth: 2 },
                    ..CongestionConfig::default()
                },
                workload::uniform_pairs(n, 4 * n, &mut rand::rngs::StdRng::seed_from_u64(17)),
                vec![(3, 1), (5, 9)],
            ),
            (
                CongestionConfig::default(),
                workload::bit_reversal_pairs(5),
                vec![(2, 7)],
            ),
        ];
        for (config, pairs, faults) in scenarios {
            let mut outcomes = Vec::new();
            for engine in [EngineKind::WakeList, EngineKind::NaiveScan] {
                let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
                let mut sim = CongestionSim::new(machine, CongestionConfig { engine, ..config });
                sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
                for &(cycle, node) in &faults {
                    sim.schedule_fault(cycle, node);
                }
                let report = sim.run();
                outcomes.push((report, sim.link_loads(), sim.counts()));
            }
            assert_eq!(outcomes[0], outcomes[1], "config {config:?}");
        }
    }

    #[test]
    fn clear_workload_reuses_the_engine_for_fresh_loads() {
        // One warmed engine cycling through different workloads (the
        // parallel sweep harness' per-worker reuse) must reproduce what a
        // freshly constructed engine reports for each of them.
        let db = DeBruijn2::new(4);
        let n = db.node_count();
        let spec_a = open_spec(0.3, 5);
        let spec_b = open_spec(0.6, 9);
        let fresh = |spec: &workload::OpenLoopSpec| {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            run_open_loop(
                &db,
                &Embedding::identity(n),
                machine,
                credit_config(2),
                spec,
            )
        };
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut sim = CongestionSim::new(machine, credit_config(2));
        for spec in [&spec_a, &spec_b, &spec_a] {
            sim.clear_workload();
            let injections = workload::open_loop_injections(n, spec);
            sim.load_oblivious_timed(&db, &Embedding::identity(n), &injections);
            assert_eq!(measure_open_loop(&mut sim, spec), fresh(spec));
        }
        // A batch load with a fault schedule after an open-loop load: the
        // schedule and dynamic deaths must have been fully cleared too.
        sim.clear_workload();
        sim.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 2));
        sim.schedule_fault(2, 1);
        let reused = sim.run();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut reference = CongestionSim::new(machine, credit_config(2));
        reference.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 2));
        reference.schedule_fault(2, 1);
        assert_eq!(reused, reference.run());
    }

    #[test]
    fn repeated_reports_stay_consistent_while_stepping() {
        // report() merges incrementally-recorded latencies; interleaving it
        // with stepping must never disturb the final summary.
        let (db, mut sim) = healthy_sim(4, PortModel::MultiPort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let pairs = workload::uniform_pairs(n, 3 * n, &mut rng);
        sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
        let mut windowed = Vec::new();
        loop {
            let events = sim.step();
            windowed.push(sim.report());
            if events.is_idle() {
                break;
            }
        }
        let final_windowed = windowed.last().expect("at least one cycle").clone();
        assert_eq!(final_windowed, sim.report());
        // And the windowed reports agree with a single-report reference run.
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut reference = CongestionSim::new(machine, CongestionConfig::default());
        reference.load_oblivious(&db, &Embedding::identity(n), &pairs);
        assert_eq!(reference.run(), final_windowed);
        // Delivered counts in the windows are non-decreasing.
        assert!(windowed
            .windows(2)
            .all(|w| w[0].delivered <= w[1].delivered));
    }

    #[test]
    fn link_loads_are_sorted_and_conserve_flits() {
        let (db, mut sim) = healthy_sim(4, PortModel::MultiPort);
        let n = db.node_count();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        sim.load_oblivious(
            &db,
            &Embedding::identity(n),
            &workload::permutation_pairs(n, &mut rng),
        );
        let report = sim.run();
        let loads = sim.link_loads();
        let total: u64 = loads.iter().map(|&(_, _, f)| f).sum();
        assert_eq!(total, report.total_flits);
        assert!(loads.windows(2).all(|w| w[0].2 >= w[1].2));
        assert_eq!(loads.first().map(|&(_, _, f)| f), Some(sim.max_link_load()));
    }
}
