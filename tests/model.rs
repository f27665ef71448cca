//! A reference model of the congestion engine's cycle rules, written from
//! `docs/CONGESTION.md` alone.
//!
//! [`CycleModel`] is the oracle the engine suites compare against. It is
//! meant to be read, not to be fast: every cycle it fires the due kills,
//! applies the due credit returns, injects the due packets, then examines
//! every live packet in id order, O(packets) per cycle. A route is the
//! packet's remaining physical path as a `Vec<NodeId>`, built at load from
//! [`DeBruijn2::route`] through the placement and checked hop by hop; a
//! re-route replaces it with the parent path of a forward breadth-first
//! search that visits neighbours in ascending id order. Links, ports and
//! buffers are plain per-slot and per-node counters. The model shares no
//! code with the engine's kernel: no wake lists, implicit route state,
//! timed FIFOs or shards, and nothing from `ftdb_sim::routing`,
//! `congestion::implicit_route` or `ftdb_graph::traversal`.
//!
//! The rules, in the order a cycle `c` applies them:
//!
//! 1. **Kills.** Every node and link kill scheduled for a cycle `<= c`
//!    fires; an id killed twice dies once. When a node died, every live
//!    packet sitting on a dead node is dropped at `c`.
//! 2. **Credits.** Every credit return due by `c` frees its buffer slot.
//! 3. **Injection.** Every pending packet whose injection cycle is `<= c`
//!    leaves its source's queue, in id order: dropped if the source is dead,
//!    delivered on the spot if its route is empty, else live.
//! 4. **Examination**, live packets in id order. A packet whose next node
//!    or next link is dead is dropped, or (under re-routing) takes the
//!    shortest surviving path to its route's last node: delivered at once
//!    if it already sits there, dropped if there is no path, else it moves
//!    from the next cycle on. Any other packet moves when its link is free
//!    (the last claim is at least `packet_flits` cycles old), its node's
//!    port is free (`SinglePort` only, same window) and, under bounded
//!    buffers, the next buffer on its virtual channel has a credit. A move
//!    claims the link and port, takes the credit, returns the credit of the
//!    buffer it leaves at `c + packet_flits`, counts `packet_flits` flits,
//!    and delivers on the route's last node. After a non-delivering hop that
//!    descends the physical label, the packet moves up one virtual channel
//!    while a higher one exists. A packet that fails starts a head-of-line
//!    span at its first failure; a move or resolution closes it.
//!
//! A batch load stamps the current cycle as its packets' injection cycle,
//! and a timed load stamps a cycle already simulated up to the current one.
//! A packet stamped with the current cycle enters the network at load:
//! dropped there if the source has died, delivered there (before any later
//! kill) if the route is empty (§2's zero-hop rule).
//! `run_until` stops at the horizon, when the network drains, or when a
//! cycle proves a deadlock: nothing moved, injected, fired or re-routed,
//! packets are live, none wait to inject, no credit return or claim window
//! is pending, and no kill is left to fire. [`run_recovery`] drives the
//! same rules through the paper's online recovery.

use ftdb_core::{FaultSet, FtDeBruijn2, LinkFaultSet};
use ftdb_graph::{Embedding, NodeId};
use ftdb_sim::congestion::{
    CongestionConfig, CongestionReport, CycleEvents, FaultResponse, FlowControl, RecoveryOutcome,
    Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel, SimError};
use ftdb_sim::metrics::LatencySummary;
use ftdb_topology::DeBruijn2;
use std::collections::VecDeque;

/// Where a packet is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Loaded for a later cycle; not yet in the network.
    Pending,
    Live,
    Delivered(u32),
    Dropped(u32),
}

#[derive(Clone, Debug)]
struct Packet {
    inject_at: u32,
    /// The logical target, which a recovery re-targets through the new
    /// placement.
    target: NodeId,
    state: State,
    /// The remaining physical path; `route[0]` is the current node and the
    /// last entry the target.
    route: Vec<NodeId>,
    vc: usize,
    /// The buffer `(slot, vc)` the packet occupies, if any.
    held: Option<(usize, usize)>,
    /// First failed examination since the last move.
    blocked_since: Option<u32>,
}

/// The cycle rules of `docs/CONGESTION.md` as a plain loop; see the
/// module docs. Mirrors the engine's public surface: loads, kill
/// schedules, [`CycleModel::step`], [`CycleModel::run_until`],
/// [`CycleModel::report`] and [`CycleModel::packet_outcome`].
pub struct CycleModel {
    machine: PhysicalMachine,
    config: CongestionConfig,
    /// Buffer depth per (link, VC); 0 for unbounded buffers.
    depth: u32,
    vcs: usize,
    flits: u32,
    /// Whether the report carries per-VC counters.
    per_vc: bool,
    packets: Vec<Packet>,
    cycle: u32,
    /// Per CSR slot: the cycle of the last claim.
    link_claim: Vec<Option<u32>>,
    /// Per node: the cycle of the last port claim.
    port_claim: Vec<Option<u32>>,
    /// Free slots per `slot * vcs + vc` buffer.
    credits: Vec<u32>,
    /// Credit returns `(due cycle, buffer)` not yet applied.
    returns: Vec<(u32, usize)>,
    last_move: Option<u32>,
    /// Unfired `(cycle, id)` kills, and the dead marks.
    node_kills: Vec<(u32, NodeId)>,
    link_kills: Vec<(u32, usize)>,
    dead_node: Vec<bool>,
    dead_link: Vec<bool>,
    total_flits: u64,
    vc_flits: Vec<u64>,
    vc_hol: Vec<u64>,
    deadlocked: bool,
}

impl CycleModel {
    /// An empty model of `machine` under `config`.
    pub fn new(machine: PhysicalMachine, config: CongestionConfig) -> Self {
        let (depth, vcs, flits, per_vc) = match config.flow_control {
            FlowControl::Infinite => (0, 1, 1, false),
            FlowControl::CreditBased { buffer_depth } => (buffer_depth, 1, 1, false),
            FlowControl::VirtualChannel {
                vcs,
                buffer_depth,
                switching,
            } => {
                let flits = match switching {
                    Switching::StoreAndForward => 1,
                    Switching::Wormhole { packet_flits } => packet_flits,
                };
                (buffer_depth, vcs as usize, flits, true)
            }
        };
        let slots = machine.graph().csr().1.len();
        let nodes = machine.node_count();
        CycleModel {
            depth,
            vcs,
            flits,
            per_vc,
            packets: Vec::new(),
            cycle: 0,
            link_claim: vec![None; slots],
            port_claim: vec![None; nodes],
            credits: vec![depth; slots * vcs],
            returns: Vec::new(),
            last_move: None,
            node_kills: Vec::new(),
            link_kills: Vec::new(),
            dead_node: vec![false; nodes],
            dead_link: vec![false; slots],
            total_flits: 0,
            vc_flits: vec![0; if per_vc { vcs } else { 0 }],
            vc_hol: vec![0; if per_vc { vcs } else { 0 }],
            deadlocked: false,
            machine,
            config,
        }
    }

    /// Loads logical pairs for the current cycle through `placement`.
    pub fn load(&mut self, db: &DeBruijn2, placement: &Embedding, pairs: &[(NodeId, NodeId)]) {
        for &(s, t) in pairs {
            self.admit(db, placement, self.cycle, true, s, t);
        }
    }

    /// Loads `(cycle, source, target)` logical packets through `placement`.
    /// A cycle already simulated is stamped up to the current one, and a
    /// packet stamped with the current cycle enters the network at load.
    pub fn load_timed(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        injections: &[(u32, NodeId, NodeId)],
    ) {
        for &(c, s, t) in injections {
            let c = c.max(self.cycle);
            self.admit(db, placement, c, c == self.cycle, s, t);
        }
    }

    /// The physical route from logical `s` to logical `t`, or `None` when
    /// an endpoint is out of range, a node is unplaced or faulty, or a hop
    /// has no link. Hops whose endpoints share an image collapse.
    fn route(
        &self,
        db: &DeBruijn2,
        placement: &Embedding,
        s: NodeId,
        t: NodeId,
    ) -> Option<Vec<NodeId>> {
        if s >= db.node_count() || t >= db.node_count() {
            return None;
        }
        let mut path: Vec<NodeId> = Vec::new();
        for x in db.route(s, t) {
            let p = *placement.as_slice().get(x)?;
            if !self.machine.is_healthy(p) {
                return None;
            }
            match path.last() {
                Some(&q) if q == p => {}
                Some(&q) if !self.machine.graph().has_edge(q, p) => return None,
                _ => path.push(p),
            }
        }
        Some(path)
    }

    /// Appends packet `s → t` for cycle `c`; one loaded `now` enters the
    /// network at load.
    fn admit(
        &mut self,
        db: &DeBruijn2,
        placement: &Embedding,
        c: u32,
        now: bool,
        s: NodeId,
        t: NodeId,
    ) {
        let (state, route) = match self.route(db, placement, s, t) {
            Some(route) if !now => (State::Pending, route),
            Some(route) if !self.alive(route[0]) => (State::Dropped(c), Vec::new()),
            Some(route) if route.len() == 1 => (State::Delivered(c), route),
            Some(route) => (State::Live, route),
            None => (State::Dropped(c), Vec::new()),
        };
        self.packets.push(Packet {
            inject_at: c,
            target: t,
            state,
            route,
            vc: 0,
            held: None,
            blocked_since: None,
        });
    }

    /// Kills processor `node` at the start of `cycle`.
    pub fn schedule_fault(&mut self, cycle: u32, node: NodeId) {
        assert!(node < self.machine.node_count(), "no processor {node}");
        self.node_kills.push((cycle, node));
    }

    /// Kills every directed link in `faults` at the start of `cycle`.
    pub fn schedule_link_faults(&mut self, cycle: u32, faults: &LinkFaultSet) {
        self.link_kills
            .extend(faults.iter().map(|slot| (cycle, slot)));
    }

    fn alive(&self, node: NodeId) -> bool {
        self.machine.is_healthy(node) && !self.dead_node[node]
    }

    fn slot(&self, u: NodeId, v: NodeId) -> usize {
        self.machine
            .graph()
            .edge_slot(u, v)
            .expect("every route hop is a link")
    }

    /// Resolves packet `id` at `c`, returning its buffer slot.
    fn resolve(&mut self, id: usize, c: u32, state: State) {
        let p = &mut self.packets[id];
        if let Some(since) = p.blocked_since.take() {
            self.vc_hol[p.vc] += (c - since) as u64;
        }
        if let Some((slot, vc)) = p.held.take() {
            self.returns.push((c + self.flits, slot * self.vcs + vc));
        }
        p.state = state;
    }

    /// The shortest path from `from` to `to` through live nodes and links,
    /// lowest ids first: the parent path of a forward breadth-first search
    /// that visits each node's neighbours in ascending order. `None` when
    /// `to` is dead or out of reach.
    fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if !self.alive(to) {
            return None;
        }
        let graph = self.machine.graph();
        let mut parent = vec![None; graph.node_count()];
        parent[from] = Some(from);
        let mut queue = VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            if u == to {
                let mut path = vec![to];
                let mut v = to;
                while v != from {
                    v = parent[v].expect("a reached node has a parent");
                    path.push(v);
                }
                path.reverse();
                return Some(path);
            }
            for v in graph.neighbor_ids(u) {
                if parent[v].is_none() && self.alive(v) && !self.dead_link[self.slot(u, v)] {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// Fires the kills due by the current cycle, drops the live packets on
    /// a node that died, and returns how many nodes and links died. `step`
    /// calls it first; [`run_recovery`] calls it ahead of `step`.
    pub fn fire_kills(&mut self) -> usize {
        let c = self.cycle;
        let mut fired = 0;
        let mut node_died = false;
        for (at, node) in std::mem::take(&mut self.node_kills) {
            if at > c {
                self.node_kills.push((at, node));
            } else if !self.dead_node[node] {
                self.dead_node[node] = true;
                node_died = true;
                fired += 1;
            }
        }
        for (at, slot) in std::mem::take(&mut self.link_kills) {
            if at > c {
                self.link_kills.push((at, slot));
            } else if !self.dead_link[slot] {
                self.dead_link[slot] = true;
                fired += 1;
            }
        }
        if node_died {
            for id in 0..self.packets.len() {
                let p = &self.packets[id];
                if p.state == State::Live && self.dead_node[p.route[0]] {
                    self.resolve(id, c, State::Dropped(c));
                }
            }
        }
        fired
    }

    /// The machine's static faults and every node killed so far.
    pub fn fault_set(&self) -> FaultSet {
        let mut faults = self.machine.faults().clone();
        for (node, &dead) in self.dead_node.iter().enumerate() {
            if dead {
                faults.add(node);
            }
        }
        faults
    }

    /// Points every live packet at `placement`'s image of its logical
    /// target: delivered if it sits there, re-routed along the shortest
    /// surviving path if one exists, dropped if not. Returns how many were
    /// re-routed.
    pub fn retarget(&mut self, placement: &Embedding) -> u64 {
        let c = self.cycle;
        let mut rerouted = 0;
        for id in 0..self.packets.len() {
            if self.packets[id].state != State::Live {
                continue;
            }
            let (here, target) = (
                self.packets[id].route[0],
                placement.apply(self.packets[id].target),
            );
            if here == target {
                self.resolve(id, c, State::Delivered(c));
            } else if let Some(path) = self.shortest_path(here, target) {
                self.packets[id].route = path;
                rerouted += 1;
            } else {
                self.resolve(id, c, State::Dropped(c));
            }
        }
        rerouted
    }

    /// Simulates one cycle and reports what happened.
    pub fn step(&mut self) -> CycleEvents {
        let c = self.cycle;
        let mut events = CycleEvents {
            cycle: c,
            moved: 0,
            injected: 0,
            credits_applied: 0,
            faults_fired: 0,
            rerouted: 0,
            live: 0,
            pending_injections: 0,
        };
        // 1. Kills.
        events.faults_fired = self.fire_kills();
        // 2. Credits.
        for (due, buffer) in std::mem::take(&mut self.returns) {
            if due > c {
                self.returns.push((due, buffer));
            } else {
                self.credits[buffer] += 1;
                events.credits_applied += 1;
            }
        }
        // 3. Injection.
        for id in 0..self.packets.len() {
            let p = &self.packets[id];
            if p.state != State::Pending || p.inject_at > c {
                continue;
            }
            self.packets[id].state = if !self.alive(p.route[0]) {
                State::Dropped(c)
            } else if p.route.len() == 1 {
                State::Delivered(c)
            } else {
                events.injected += 1;
                State::Live
            };
        }
        // 4. Examination.
        for id in 0..self.packets.len() {
            if self.packets[id].state == State::Live {
                self.examine(id, c, &mut events);
            }
        }
        self.cycle += 1;
        events.live = self.count(|s| s == State::Live);
        events.pending_injections = self.count(|s| s == State::Pending);
        events
    }

    fn examine(&mut self, id: usize, c: u32, events: &mut CycleEvents) {
        let (u, v) = (self.packets[id].route[0], self.packets[id].route[1]);
        let slot = self.slot(u, v);
        if self.dead_node[v] || self.dead_link[slot] {
            let target = *self.packets[id].route.last().expect("a live route");
            let path = match self.config.fault_response {
                FaultResponse::Drop => None,
                FaultResponse::RerouteAdaptive => self.shortest_path(u, target),
            };
            match path {
                None => self.resolve(id, c, State::Dropped(c)),
                Some(path) => {
                    events.rerouted += 1;
                    let here = path.len() == 1;
                    self.packets[id].route = path;
                    if here {
                        self.resolve(id, c, State::Delivered(c));
                    }
                }
            }
            return;
        }
        let vc = self.packets[id].vc;
        let buffer = slot * self.vcs + vc;
        let free = |claim: Option<u32>| claim.map_or(true, |m| c - m >= self.flits);
        let port_free =
            self.machine.port_model() == PortModel::MultiPort || free(self.port_claim[u]);
        let credit_free = self.depth == 0 || self.credits[buffer] > 0;
        if !(free(self.link_claim[slot]) && port_free && credit_free) {
            let p = &mut self.packets[id];
            if self.per_vc && p.blocked_since.is_none() {
                p.blocked_since = Some(c);
            }
            return;
        }
        self.link_claim[slot] = Some(c);
        self.port_claim[u] = Some(c);
        self.last_move = Some(c);
        events.moved += 1;
        self.total_flits += self.flits as u64;
        let p = &mut self.packets[id];
        if self.depth > 0 {
            self.credits[buffer] -= 1;
            if let Some((s, w)) = p.held.replace((slot, vc)) {
                self.returns.push((c + self.flits, s * self.vcs + w));
            }
        }
        if self.per_vc {
            self.vc_flits[vc] += self.flits as u64;
            if let Some(since) = p.blocked_since.take() {
                self.vc_hol[vc] += (c - since) as u64;
            }
        }
        p.route.remove(0);
        if p.route.len() == 1 {
            self.resolve(id, c, State::Delivered(c));
        } else if v < u && vc + 1 < self.vcs {
            p.vc = vc + 1;
        }
    }

    fn count(&self, pick: impl Fn(State) -> bool) -> u64 {
        self.packets.iter().filter(|p| pick(p.state)).count() as u64
    }

    /// Whether the cycle `events` summarizes proves a deadlock.
    pub fn proves_deadlock(&self, events: &CycleEvents) -> bool {
        let window_open = self
            .last_move
            .is_some_and(|m| m + self.flits > events.cycle);
        events.moved == 0
            && events.injected == 0
            && events.faults_fired == 0
            && events.rerouted == 0
            && events.live > 0
            && events.pending_injections == 0
            && self.returns.is_empty()
            && !window_open
            && self.node_kills.is_empty()
            && self.link_kills.is_empty()
    }

    /// Steps until cycle `horizon` (capped by `max_cycles`), the network
    /// drains, or a cycle proves a deadlock. Returns every step's events.
    pub fn run_until(&mut self, horizon: u32) -> Vec<CycleEvents> {
        let horizon = horizon.min(self.config.max_cycles);
        let mut steps = Vec::new();
        while self.count(|s| matches!(s, State::Live | State::Pending)) > 0 && self.cycle < horizon
        {
            let events = self.step();
            steps.push(events);
            if self.proves_deadlock(&events) {
                self.deadlocked = true;
            }
            if self.deadlocked {
                break;
            }
        }
        steps
    }

    /// Whether a cycle so far proved a deadlock.
    pub fn deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// `(injected, delivered, dropped, in_flight)`, as the engine counts
    /// them.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.packets.len() as u64,
            self.count(|s| matches!(s, State::Delivered(_))),
            self.count(|s| matches!(s, State::Dropped(_))),
            self.count(|s| s == State::Live),
        )
    }

    /// The report for the run so far; open head-of-line spans count up to
    /// the current cycle.
    pub fn report(&self) -> CongestionReport {
        let mut vc_hol = self.vc_hol.clone();
        for p in &self.packets {
            if let (State::Live, Some(since)) = (p.state, p.blocked_since) {
                vc_hol[p.vc] += (self.cycle - since) as u64;
            }
        }
        let mut latencies: Vec<u32> = self
            .packets
            .iter()
            .filter_map(|p| match p.state {
                State::Delivered(d) => Some(d - p.inject_at),
                _ => None,
            })
            .collect();
        let (injected, delivered, dropped, live) = self.counts();
        CongestionReport {
            cycles: self.cycle,
            injected,
            delivered,
            dropped,
            total_flits: self.total_flits,
            completed: live == 0 && self.count(|s| s == State::Pending) == 0,
            deadlocked: self.deadlocked,
            vc_flits: self.vc_flits.clone(),
            vc_hol_blocked_cycles: vc_hol,
            latency: LatencySummary::from_latencies(&mut latencies),
        }
    }

    /// Packet `id`'s `(inject cycle, delivered cycle, dropped cycle)`.
    pub fn packet_outcome(&self, id: usize) -> (u32, Option<u32>, Option<u32>) {
        let p = &self.packets[id];
        match p.state {
            State::Delivered(d) => (p.inject_at, Some(d), None),
            State::Dropped(d) => (p.inject_at, None, Some(d)),
            State::Pending | State::Live => (p.inject_at, None, None),
        }
    }
}

/// The online recovery of `docs/CONGESTION.md` on the model: route `pairs`
/// through `ft`'s zero-fault placement and, each cycle, fire the kills
/// ahead of the step; when any fired, reconfigure around the faults so
/// far and re-target every live packet before the cycle moves. A cycle's
/// kills and re-targets count as its activity under the stop rule. Fails
/// like the engine's `run_recovery` when the schedule kills more distinct
/// processors than `ft` tolerates, names a processor `ft` does not have,
/// or a reconfiguration fails.
pub fn run_recovery(
    ft: &FtDeBruijn2,
    pairs: &[(NodeId, NodeId)],
    fault_schedule: &[(u32, NodeId)],
    port_model: PortModel,
    config: CongestionConfig,
) -> Result<RecoveryOutcome, SimError> {
    let mut nodes: Vec<NodeId> = fault_schedule.iter().map(|k| k.1).collect();
    nodes.sort_unstable();
    nodes.dedup();
    if nodes.len() > ft.k() {
        return Err(SimError::FaultBudgetExceeded {
            faults: nodes.len(),
            budget: ft.k(),
        });
    }
    if let Some(&(_, node)) = fault_schedule.iter().find(|k| k.1 >= ft.node_count()) {
        return Err(SimError::EndpointOutOfRange {
            node,
            limit: ft.node_count(),
        });
    }
    let machine = PhysicalMachine::new(ft.graph().clone(), port_model);
    let mut model = CycleModel::new(machine, config);
    model.load(
        ft.target(),
        &ft.reconfigure(&FaultSet::empty(ft.node_count())),
        pairs,
    );
    for &(cycle, node) in fault_schedule {
        model.schedule_fault(cycle, node);
    }
    let mut fault_cycle = None;
    let (mut lost, mut rerouted) = (0, 0);
    while model.counts().3 > 0 && model.cycle() < config.max_cycles {
        let dropped = model.counts().2;
        let fired = model.fire_kills();
        let mut retargeted = 0;
        if fired > 0 {
            fault_cycle.get_or_insert(model.cycle());
            lost += model.counts().2 - dropped;
            let faults = model.fault_set();
            let placement =
                ft.reconfigure_verified(&faults)
                    .map_err(|_| SimError::ReconfigurationFailed {
                        faults: faults.len(),
                    })?;
            retargeted = model.retarget(&placement);
            rerouted += retargeted;
        }
        let mut events = model.step();
        events.faults_fired += fired;
        events.rerouted += retargeted;
        if model.proves_deadlock(&events) {
            model.deadlocked = true;
            break;
        }
    }
    let report = model.report();
    Ok(RecoveryOutcome {
        fault_cycle: fault_cycle.unwrap_or(0),
        drain_cycles: fault_cycle.map_or(0, |c| report.cycles - c),
        report,
        lost_on_dead_nodes: lost,
        rerouted,
    })
}
