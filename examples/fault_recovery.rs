//! Fault recovery under load: run an Ascend-class all-reduce on a
//! shuffle-exchange machine, watch it stall when a processor dies without
//! spares, then watch the fault-tolerant machine absorb the same failure.
//!
//! Run with:
//! ```text
//! cargo run -p ftdb-examples --bin fault_recovery
//! ```

use ftdb_core::{FaultSet, FtShuffleExchange};
use ftdb_graph::Embedding;
use ftdb_sim::ascend_descend::{allreduce_hypercube, allreduce_shuffle_exchange};
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::workload;
use ftdb_topology::ShuffleExchange;

fn main() {
    println!(
        "{}\n",
        ftdb_examples::section(
            "Fault recovery: Ascend all-reduce before and after reconfiguration"
        )
    );
    let h = 5; // 32 logical processors
    let k = 2; // survive up to two failures
    let se = ShuffleExchange::new(h);
    let n = se.node_count();
    let values = workload::index_values(n);

    // Reference: the hypercube runs the Ascend all-reduce in h steps.
    let reference = allreduce_hypercube(h, &values).expect("one value per logical node");
    println!(
        "hypercube reference     : {} steps, total = {}",
        reference.steps, reference.values[0]
    );

    // Healthy shuffle-exchange machine: 2h steps (the classic 2x emulation).
    let healthy = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
    let identity = Embedding::identity(n);
    let out = allreduce_shuffle_exchange(&se, &identity, &healthy, &values)
        .expect("healthy run completes");
    println!(
        "SE, healthy, no spares  : {} steps (slowdown {:.1}x)",
        out.steps,
        out.slowdown_vs_hypercube(h)
    );

    // Processor 9 dies. Without spares the algorithm cannot even start its
    // first exchange phase involving that node.
    let mut broken = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
    broken.inject_fault(9);
    match allreduce_shuffle_exchange(&se, &identity, &broken, &values) {
        Ok(_) => unreachable!("a faulty node must stall the Ascend run"),
        Err(e) => println!("SE, node 9 dead         : STALLED ({e})"),
    }

    // The fault-tolerant machine: physical topology B^k(2,h), logical SE
    // found through the de Bruijn containment + rank reconfiguration.
    let ft = FtShuffleExchange::new(h, k).expect("SE ⊆ DB embedding exists for this h");
    let faults = FaultSet::from_nodes(ft.node_count(), [9, 21]);
    let placement = ft
        .reconfigure_verified(&faults)
        .expect("up to k faults are always absorbed");
    let machine = PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
    let out = allreduce_shuffle_exchange(&se, &placement, &machine, &values)
        .expect("reconfigured machine completes");
    println!(
        "B^{k}(2,{h}), nodes 9 & 21 dead: {} steps (slowdown {:.1}x) — full speed restored",
        out.steps,
        out.slowdown_vs_hypercube(h)
    );
    assert_eq!(out.values[0], reference.values[0]);
}
