//! Cycle-level congestion and online fault recovery: run the four canonical
//! traffic patterns through the congestion engine on `B(2,h)`, then kill
//! processors mid-run on the fault-tolerant `B^k(2,h)` and watch the
//! machine reconfigure and drain — the time-domain companion to
//! `routing_under_faults`.
//!
//! Run with (defaults shown):
//! ```text
//! cargo run -p ftdb-examples --bin congestion_recovery -- 6 2 3
//! ```
//! where the arguments are `h` (network size `2^h`), `k` (faults to inject
//! mid-run) and the cycle at which they strike.

use ftdb_core::FtDeBruijn2;
use ftdb_examples::{arg_in, arg_or, MAX_H};
use ftdb_graph::Embedding;
use ftdb_sim::congestion::{run_recovery, CongestionConfig, CongestionSim, FaultResponse};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;
use rand::SeedableRng;

fn main() {
    const USAGE: &str = "congestion_recovery [h] [k] [fault_cycle]";
    let h: usize = arg_in(0, 6, 1..=MAX_H, USAGE);
    let k: usize = arg_in(1, 2, 0..=1 << h, USAGE);
    let fault_cycle: u32 = arg_or(2, 3, USAGE);
    println!(
        "{}\n",
        ftdb_examples::section("Cycle-level congestion and online fault recovery")
    );

    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let placement = Embedding::identity(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);

    println!("congestion on a healthy B(2,{h}) ({n} nodes), one flit per link per cycle:\n");
    let workloads: Vec<(&str, Vec<(usize, usize)>)> = vec![
        ("permutation", workload::permutation_pairs(n, &mut rng)),
        ("bit-reversal", workload::bit_reversal_pairs(h)),
        ("hot-spot", workload::all_to_one(n, 0)),
        ("uniform 4x", workload::uniform_pairs(n, 4 * n, &mut rng)),
    ];
    println!(
        "{:<14} {:>7} {:>14} {:>14} {:>13} {:>13}",
        "workload", "ports", "cycles(multi)", "cycles(single)", "mean latency", "flits/cycle"
    );
    for (label, pairs) in &workloads {
        let mut cycles = Vec::new();
        let mut multi_report = None;
        for port in [PortModel::MultiPort, PortModel::SinglePort] {
            let machine = PhysicalMachine::new(db.graph().clone(), port);
            let mut sim = CongestionSim::new(machine, CongestionConfig::default());
            sim.load_oblivious(&db, &placement, pairs);
            let report = sim.run();
            cycles.push(report.cycles);
            if port == PortModel::MultiPort {
                multi_report = Some(report);
            }
        }
        let report = multi_report.expect("multi-port run recorded");
        println!(
            "{:<14} {:>7} {:>14} {:>14} {:>13.2} {:>13.2}",
            label,
            "both",
            cycles[0],
            cycles[1],
            report.latency.mean,
            report.flits_per_cycle()
        );
    }

    println!("\nmid-run faults on B^{k}(2,{h}): {k} processors die at cycle {fault_cycle},");
    println!("the runtime reconfigures (reconfigure_verified) and re-routes in flight:\n");
    let ft = FtDeBruijn2::new(h, k);
    let pairs = workload::permutation_pairs(n, &mut rng);
    let schedule: Vec<(u32, usize)> = (0..k)
        .map(|i| (fault_cycle, (i * 11 + 5) % ft.node_count()))
        .collect();
    let outcome = run_recovery(
        &ft,
        &pairs,
        &schedule,
        PortModel::MultiPort,
        CongestionConfig {
            fault_response: FaultResponse::RerouteAdaptive,
            ..CongestionConfig::default()
        },
    )
    .expect("schedule within the fault budget");
    println!(
        "fault cycle {}  total cycles {}  drain (recovery) cycles {}",
        outcome.fault_cycle, outcome.report.cycles, outcome.drain_cycles
    );
    println!(
        "delivered {}  lost with dead processors {}  re-routed in flight {}",
        outcome.report.delivered, outcome.lost_on_dead_nodes, outcome.rerouted
    );
    assert_eq!(
        outcome.report.delivered + outcome.lost_on_dead_nodes,
        n as u64,
        "every packet not hosted on a dying processor must be delivered"
    );
    println!("\nEvery surviving packet was delivered: the fault-tolerant machine turns a");
    println!("mid-run fault into a bounded latency blip instead of lost traffic.");
}
