//! Routing under faults: push a random permutation workload through a
//! de Bruijn machine and compare three operating modes — healthy, faulted
//! without spares, and faulted with the fault-tolerant construction after
//! reconfiguration.
//!
//! Run with (defaults shown):
//! ```text
//! cargo run -p ftdb-examples --bin routing_under_faults -- 7 3
//! ```
//! where the arguments are `h` (network size `2^h`) and `k` (faults).

use ftdb_core::{FaultSet, FtDeBruijn2};
use ftdb_examples::{arg_in, MAX_H};
use ftdb_graph::Embedding;
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::metrics::RoutingStats;
use ftdb_sim::routing::{run_adaptive_workload, run_logical_workload};
use ftdb_sim::workload;
use ftdb_topology::DeBruijn2;
use rand::SeedableRng;

fn print_stats(label: &str, stats: &RoutingStats) {
    println!(
        "{label:<46} delivered {:>4}  dropped {:>4}  ratio {:>5.2}  mean hops {:>5.2}  max hops {}",
        stats.delivered,
        stats.dropped,
        stats.delivery_ratio(),
        stats.mean_hops(),
        stats.max_hops
    );
}

fn main() {
    const USAGE: &str = "routing_under_faults [h] [k]";
    let h: usize = arg_in(0, 7, 1..=MAX_H, USAGE);
    // The faulty machine draws k faults among its 2^h processors.
    let k: usize = arg_in(1, 3, 0..=1 << h, USAGE);
    println!(
        "{}\n",
        ftdb_examples::section("Packet routing on healthy, faulty and reconfigured machines")
    );

    let db = DeBruijn2::new(h);
    let n = db.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF7DB);
    let pairs = workload::permutation_pairs(n, &mut rng);
    println!(
        "oblivious de Bruijn routing of a random permutation on 2^{h} = {n} nodes, {k} faults\n"
    );

    // Healthy machine.
    let healthy = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
    print_stats(
        "plain B(2,h), healthy",
        &run_logical_workload(&db, &Embedding::identity(n), &healthy, &pairs, 1),
    );

    // k faults, no spares: oblivious routing loses packets, adaptive routing
    // saves some of them but cannot serve faulty endpoints.
    let faults = FaultSet::random(n, k, &mut rng).expect("k within node count");
    let faulted =
        PhysicalMachine::with_faults(db.graph().clone(), faults.clone(), PortModel::MultiPort);
    print_stats(
        "plain B(2,h), k faults, oblivious routing",
        &run_logical_workload(&db, &Embedding::identity(n), &faulted, &pairs, 1),
    );
    print_stats(
        "plain B(2,h), k faults, adaptive rerouting",
        &run_adaptive_workload(&faulted, &pairs),
    );

    // The fault-tolerant machine, reconfigured around k faults.
    let ft = FtDeBruijn2::new(h, k);
    let ft_faults = FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
    let placement = ft
        .reconfigure_verified(&ft_faults)
        .expect("Theorem 1: any k faults are tolerated");
    let machine = PhysicalMachine::with_faults(ft.graph().clone(), ft_faults, PortModel::MultiPort);
    print_stats(
        "B^k(2,h), k faults, reconfigured + oblivious",
        &run_logical_workload(&db, &placement, &machine, &pairs, 1),
    );

    println!("\nThe fault-tolerant machine delivers the full permutation at the original");
    println!("hop count; the unprotected machine drops packets (oblivious) or pays extra");
    println!("latency and still cannot serve the faulty endpoints (adaptive).");
}
