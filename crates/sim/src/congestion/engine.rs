//! The congestion engine's public types, the packed route-entry helpers,
//! [`CongestionSim`] (the one-shard [`ShardedSim`]) and the drivers built
//! on the one cycle kernel: online recovery ([`run_recovery`]) and
//! open-loop measurement ([`measure_open_loop`]).
//!
//! See the [module docs](super) for the full model and
//! [`super::shard`] for the kernel.

use super::shard::ShardedSim;
use crate::machine::{PhysicalMachine, PortModel, SimError};
use crate::metrics::LatencySummary;
use ftdb_core::{FaultSet, FtDeBruijn2};
use ftdb_graph::NodeId;

/// Sentinel for "not yet": a cycle stamp that no real cycle reaches.
pub(crate) const NEVER: u32 = u32::MAX;
/// Sentinel for "no logical target recorded" (packets dropped at load).
pub(crate) const NO_LOGICAL: u32 = u32::MAX;
/// Sentinel for "occupies no link buffer" (the packet sits in its source's
/// unbounded injection queue). Doubles as the packed hop-slot of a route's
/// terminal entry, which has no outgoing hop.
pub(crate) const NO_SLOT: u32 = u32::MAX;
/// Sentinel terminating the intrusive blocked-queue lists.
pub(crate) const NONE_ID: u32 = u32::MAX;

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
    (entry >> 32) as u32
}

/// True for a terminal entry: the route ends on its node, so a packet that
/// reaches it has arrived.
// analyzer: alloc-free
#[inline]
pub(crate) fn pk_terminal(entry: u64) -> bool {
    pk_slot(entry) == NO_SLOT
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
    /// the physical label, capped at `vcs − 1`). The channel-dependency
    /// graph is acyclic, so no run can deadlock, when `vcs` exceeds the
    /// most non-final descents of any route: `vcs ≥ h` on the
    /// identity-placed `B(2,h)` (`docs/CONGESTION.md` §4.4 has the proof
    /// sketch). With fewer VCs it can be cyclic and a run can deadlock;
    /// the detector reports it ([`CongestionReport::deadlocked`]).
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
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            max_cycles: 1 << 20,
            fault_response: FaultResponse::Drop,
            flow_control: FlowControl::Infinite,
        }
    }
}

/// Aggregate result of a congestion run.
#[derive(Clone, Debug, PartialEq)]
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
    /// but no flit can ever move again. Only possible with bounded buffers:
    /// single-channel credit loops ([`FlowControl::CreditBased`], or
    /// [`FlowControl::VirtualChannel`] with `vcs = 1`) deadlock on the
    /// de Bruijn shift cycles, and dateline VCs rule it out only with
    /// enough of them (`vcs ≥ h` on the identity-placed `B(2,h)`; see
    /// `docs/CONGESTION.md` §4.4).
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
    /// injection.
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

/// The single-table congestion engine: the one-shard, one-thread
/// [`ShardedSim`], so the cycle kernel exists once. Every method is
/// [`ShardedSim`]'s, reached through `Deref`/`DerefMut`; a one-shard
/// engine has no barrier traffic.
///
/// Lifecycle: [`CongestionSim::new`] → `load_*` workload →
/// ([`ShardedSim::schedule_fault`])* → [`ShardedSim::run`] (or
/// [`ShardedSim::step`] in a driver loop) → [`ShardedSim::report`];
/// [`ShardedSim::clear_workload`] readies the engine for another load.
pub struct CongestionSim(ShardedSim);

impl CongestionSim {
    /// Creates an engine for the given machine; see [`ShardedSim::new`].
    pub fn new(machine: PhysicalMachine, config: CongestionConfig) -> Self {
        CongestionSim(ShardedSim::new(machine, config, 1, 1))
    }
}

impl std::ops::Deref for CongestionSim {
    type Target = ShardedSim;

    fn deref(&self) -> &ShardedSim {
        &self.0
    }
}

impl std::ops::DerefMut for CongestionSim {
    fn deref_mut(&mut self) -> &mut ShardedSim {
        &mut self.0
    }
}

/// What one [`ShardedSim::step`] did.
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
#[derive(Clone, Debug, PartialEq)]
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
///    A run that hard-deadlocks stops where [`ShardedSim::run`] would
///    and reports `deadlocked`.
///
/// Returns an error if the fault schedule exceeds the construction's
/// budget `k` (reconfiguration is only guaranteed below it) or names a
/// processor the machine does not have.
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
        sim.schedule_fault(cycle, node)?;
    }
    recover(&mut sim, ft, config.max_cycles)
}

/// The cycle loop of [`run_recovery`] on an engine already loaded through
/// `ft`'s zero-fault placement, with its fault schedule in place: fire
/// each cycle's faults ahead of the movement, reconfigure and re-target,
/// step, and apply the stop rule, until the run drains or reaches
/// `max_cycles`.
pub(super) fn recover(
    sim: &mut ShardedSim,
    ft: &FtDeBruijn2,
    max_cycles: u32,
) -> Result<RecoveryOutcome, SimError> {
    let mut fault_cycle = None;
    let mut lost_on_dead_nodes = 0;
    let mut rerouted = 0;
    while sim.counts().3 > 0 && sim.cycle() < max_cycles {
        // Fire due faults here, ahead of `step`, so the online
        // reconfiguration can re-target in-flight packets the same cycle the
        // processors die — packets lost are exactly those hosted on them.
        let before_drop = sim.counts().2;
        let fired = sim.fire_due_faults();
        let mut retargeted = 0;
        if fired > 0 {
            fault_cycle.get_or_insert(sim.cycle());
            lost_on_dead_nodes += sim.counts().2 - before_drop;
            // Online reconfiguration: diagnose, re-embed, drain.
            let faults = sim.current_fault_set();
            let placement =
                ft.reconfigure_verified(&faults)
                    .map_err(|_| SimError::ReconfigurationFailed {
                        faults: faults.len(),
                    })?;
            retargeted = sim.retarget_and_reroute(&placement).0;
            rerouted += retargeted;
        }
        // The faults and re-routes that ran ahead of `step` belong to this
        // cycle's activity under the stop rule.
        let mut events = sim.step();
        events.faults_fired += fired;
        events.rerouted += retargeted;
        if sim.detect_deadlock(&events) {
            break;
        }
    }
    let report = sim.report();
    Ok(RecoveryOutcome {
        fault_cycle: fault_cycle.unwrap_or(0),
        drain_cycles: fault_cycle.map_or(0, |c| report.cycles - c),
        report,
        lost_on_dead_nodes,
        rerouted,
    })
}

/// One point on a latency–throughput curve: the measured outcome of an
/// open-loop run at a fixed offered load.
#[derive(Clone, Debug, PartialEq)]
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

/// Drives an engine already loaded with an open-loop schedule (see
/// [`ShardedSim::load_oblivious_timed`]) to the spec's horizon and
/// computes the measurement-window statistics. The cycle loop is
/// allocation-free; the statistics pass at the end allocates (the latency
/// sort). A [`CongestionSim`] coerces to the `&mut ShardedSim` taken
/// here.
pub fn measure_open_loop(
    sim: &mut ShardedSim,
    spec: &crate::workload::OpenLoopSpec,
) -> OpenLoopReport {
    // Rates are per logical source: on a B^k(2,h) host the machine has
    // 2^h + k processors but only the 2^h logical nodes inject.
    let n = if sim.open_loop_sources() > 0 {
        sim.open_loop_sources() as u64
    } else {
        sim.machine().node_count() as u64
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
                latencies.push(d - inject);
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
        window_injected,
        window_delivered,
        cum_injected_by_window_end,
        cum_delivered_by_window_end,
        deadlocked: sim.deadlocked(),
        cycles: sim.cycle(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::run_logical_workload;
    use crate::workload;
    use ftdb_graph::Embedding;
    use ftdb_topology::DeBruijn2;
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
        let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
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
        sim.schedule_fault(2, 3).unwrap();
        sim.schedule_fault(4, 9).unwrap();
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
        // of panicking; (0, 5) and (0, 3) stay inside it and deliver. The
        // second load comes through a different placement, so its packets
        // take materialized paths, which drop the same way.
        let db = DeBruijn2::new(4);
        let short = Embedding::identity(8);
        let shifted = Embedding::from_map((0..8).map(|v| (v + 1) % 8).collect());
        for second in [&short, &shifted] {
            let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
            let mut sim = CongestionSim::new(machine, CongestionConfig::default());
            sim.load_oblivious(&db, &short, &[(3, 12), (0, 5)]);
            sim.load_oblivious_timed(&db, second, &[(2, 9, 1), (3, 0, 3)]);
            let report = sim.run();
            assert_eq!(
                (report.injected, report.delivered, report.dropped),
                (4, 2, 2),
                "{second:?}"
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
            sim.schedule_fault(1, 1).unwrap();
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
        sim.schedule_fault(1, 2).unwrap();
        let report = sim.run();
        assert!(report.completed);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.dropped, 0);
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
        sim.schedule_fault(0, 2).unwrap();
        let report = sim.run();
        assert!(!report.deadlocked && report.completed, "{report:?}");
        assert_eq!((report.delivered, report.dropped), (1, 0));
        sim.clear_workload();
        sim.load_oblivious(&db, &Embedding::identity(db.node_count()), &[(0, 4)]);
        sim.schedule_fault(0, 2).unwrap();
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
                        sim.schedule_fault(kill, victim).unwrap();
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

    /// Measures one open-loop point: a fresh engine over `machine` loaded
    /// with the schedule `spec` draws on the identity-placed `db`.
    fn open_loop(
        db: &DeBruijn2,
        machine: PhysicalMachine,
        config: CongestionConfig,
        spec: &workload::OpenLoopSpec,
    ) -> OpenLoopReport {
        let n = db.node_count();
        let mut sim = CongestionSim::new(machine, config);
        sim.load_oblivious_timed(
            db,
            &Embedding::identity(n),
            &workload::open_loop_injections(n, spec),
        );
        measure_open_loop(&mut sim, spec)
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
            sim.schedule_fault(3, 1).unwrap();
            sim.schedule_fault(5, 9).unwrap();
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
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let spec = open_spec(0.02, 42);
        let report = open_loop(&db, machine, CongestionConfig::default(), &spec);
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
        assert_eq!(report.latency.count, report.window_delivered);
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
            let report = open_loop(&db, machine, config, &open_spec(0.8, 7));
            assert!(
                report.cum_delivered_by_window_end <= report.cum_injected_by_window_end,
                "depth {depth}: delivered more than was injected"
            );
            assert!(report.window_delivered <= report.window_injected);
        }
    }

    #[test]
    fn bernoulli_process_drives_the_engine() {
        let db = DeBruijn2::new(4);
        let spec = open_spec(0.25, 11);
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let report = open_loop(&db, machine, credit_config(2), &spec);
        assert!(report.window_injected > 0, "Bernoulli injected nothing");
        assert!(report.window_delivered > 0);
        // The realized load is within noise of the request.
        assert!(
            (report.offered_realized - spec.offered_load).abs() < 0.1,
            "realized {} vs offered {}",
            report.offered_realized,
            spec.offered_load
        );
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
        sim.schedule_fault(5, 0).unwrap();
        let report = sim.run();
        assert_eq!(report.delivered, 1, "pre-fault self-send is consumed");
        assert_eq!(
            report.dropped, 1,
            "post-fault self-send dies with its source"
        );
        assert_eq!(report.latency.max, 0, "zero-hop delivery has latency 0");
        // And identically on a reused engine.
        sim.clear_workload();
        sim.load_oblivious_timed(&db, &Embedding::identity(n), &[(2, 0, 0), (10, 0, 0)]);
        sim.schedule_fault(5, 0).unwrap();
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
        sim.schedule_fault(2, 1).unwrap();
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
            open_loop(&db, machine, credit_config(2), spec)
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
        sim.schedule_fault(2, 1).unwrap();
        let reused = sim.run();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let mut reference = CongestionSim::new(machine, credit_config(2));
        reference.load_oblivious(&db, &Embedding::identity(n), &workload::all_to_one(n, 2));
        reference.schedule_fault(2, 1).unwrap();
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
}
