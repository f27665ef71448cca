//! The congestion engine's fault schedule: kills are held once per engine
//! and fire once, at the start of a cycle.
//!
//! * a kill scheduled for a cycle the engine has already simulated fires at
//!   the next step, for nodes and for links, at every shard count, even
//!   after an earlier kill has fired;
//! * `step` fires a cycle's kills at the same point as a driver that calls
//!   `fire_due_faults` first, so both loops see the same `CycleEvents`;
//! * the two scheduling entry points, and `run_recovery`, reject input
//!   built for another machine with a typed error instead of panicking.

use ftdb_core::{FtDeBruijn2, LinkFaultSet};
use ftdb_graph::{Embedding, NodeId};
use ftdb_sim::congestion::{run_recovery, CongestionConfig, CycleEvents, FlowControl, ShardedSim};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::{workload, SimError};
use ftdb_topology::DeBruijn2;

/// A loaded engine over `B(2,h)` with `shards` shards, under credit flow
/// control so that kills also return buffer credits.
fn loaded(h: usize, shards: usize) -> ShardedSim {
    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::SinglePort);
    let config = CongestionConfig {
        flow_control: FlowControl::CreditBased { buffer_depth: 2 },
        ..CongestionConfig::default()
    };
    let mut sim = ShardedSim::new(machine, config, shards, 1);
    let mut rng = ftdb_tests::seeded_rng(31);
    let pairs = workload::uniform_pairs(n, 3 * n, &mut rng);
    sim.load_oblivious(&db, &Embedding::identity(n), &pairs);
    sim
}

/// Steps `sim` `cycles` times and returns how many kills fired.
fn fired_over(sim: &mut ShardedSim, cycles: usize) -> usize {
    (0..cycles).map(|_| sim.step().faults_fired).sum()
}

#[test]
fn a_node_kill_for_a_past_cycle_fires_at_the_next_step() {
    let mut reports = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut sim = loaded(5, shards);
        sim.schedule_fault(1, 9).expect("node 9 is on B(2,5)");
        assert_eq!(fired_over(&mut sim, 3), 1, "shards={shards}");
        // Cycle 0 is long past, and a kill has already fired.
        sim.schedule_fault(0, 17).expect("node 17 is on B(2,5)");
        assert_eq!(
            fired_over(&mut sim, 1),
            1,
            "shards={shards}: late kill lost"
        );
        let dead: Vec<NodeId> = sim.current_fault_set().iter().collect();
        assert_eq!(dead, [9, 17], "shards={shards}");
        reports.push(sim.run());
    }
    assert!(reports.iter().all(|r| *r == reports[0]), "{reports:?}");
}

#[test]
fn a_link_kill_for_a_past_cycle_fires_at_the_next_step() {
    let mut reports = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut sim = loaded(5, shards);
        let graph = sim.machine().graph();
        let first = LinkFaultSet::from_links(graph, [(1, 2)]).expect("1 -> 2 is a shift");
        let late = LinkFaultSet::from_links(graph, [(2, 4), (4, 8)]).expect("shifts");
        sim.schedule_link_faults(1, &first).expect("same graph");
        assert_eq!(fired_over(&mut sim, 3), 1, "shards={shards}");
        sim.schedule_link_faults(0, &late).expect("same graph");
        assert_eq!(
            fired_over(&mut sim, 1),
            2,
            "shards={shards}: late kills lost"
        );
        reports.push(sim.run());
    }
    assert!(reports.iter().all(|r| *r == reports[0]), "{reports:?}");
}

/// Runs the probe workload — on B(2,4), packets 5 -> 9 and 6 -> 9 injected
/// at cycle 3, and node 5 killed at cycle 3 — to the end, calling
/// `fire_due_faults` ahead of every step when `fire_first` is set (folding
/// its count into the step's events, as the recovery driver does).
fn probe(shards: usize, fire_first: bool) -> Vec<CycleEvents> {
    let db = DeBruijn2::new(4);
    let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    let mut sim = ShardedSim::new(machine, CongestionConfig::default(), shards, 1);
    sim.load_oblivious_timed(&db, &Embedding::identity(16), &[(3, 5, 9), (3, 6, 9)]);
    sim.schedule_fault(3, 5).expect("node 5 is on B(2,4)");
    let mut events = Vec::new();
    while events.len() < 64 {
        let fired = if fire_first { sim.fire_due_faults() } else { 0 };
        let mut cycle = sim.step();
        cycle.faults_fired += fired;
        events.push(cycle);
        if cycle.is_idle() {
            break;
        }
    }
    events
}

#[test]
fn step_fires_kills_where_a_recovery_driver_does() {
    for shards in [1usize, 2, 4] {
        let stepped = probe(shards, false);
        assert_eq!(stepped, probe(shards, true), "shards={shards}");
        // The packet whose source died on its injection cycle never
        // entered the network.
        assert_eq!(stepped[3].injected, 1, "shards={shards}: {:?}", stepped[3]);
        assert_eq!(stepped[3].faults_fired, 1, "shards={shards}");
        assert!(stepped.last().is_some_and(CycleEvents::is_idle));
    }
}

#[test]
fn fault_input_for_another_machine_is_a_typed_error() {
    let mut sim = loaded(4, 2);
    assert_eq!(
        sim.schedule_fault(0, 16),
        Err(SimError::EndpointOutOfRange {
            node: 16,
            limit: 16
        })
    );
    let slots = LinkFaultSet::empty(sim.machine().graph()).universe();
    let other = DeBruijn2::new(5);
    let foreign = LinkFaultSet::from_links(other.graph(), [(1, 2)]).expect("1 -> 2 is a shift");
    assert_eq!(
        sim.schedule_link_faults(0, &foreign),
        Err(SimError::SizeMismatch {
            what: "link fault set",
            expected: slots,
            got: foreign.universe(),
        })
    );
    // Neither call scheduled anything.
    let report = sim.run();
    assert_eq!(report.dropped, 0, "{report:?}");

    let ft = FtDeBruijn2::new(4, 1);
    let n = ft.node_count();
    assert_eq!(
        run_recovery(
            &ft,
            &[(0, 9)],
            &[(1, n)],
            PortModel::MultiPort,
            CongestionConfig::default(),
        ),
        Err(SimError::EndpointOutOfRange { node: n, limit: n })
    );
}
