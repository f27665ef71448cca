//! Bench: routing and the Ascend emulation (SIM1 machinery).
//!
//! Measures oblivious de Bruijn routing of a permutation workload on
//! healthy and reconfigured machines, adaptive (BFS) routing under faults,
//! and the shuffle-exchange all-reduce emulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftdb_core::{FaultSet, FtDeBruijn2};
use ftdb_graph::Embedding;
use ftdb_sim::ascend_descend::allreduce_shuffle_exchange;
use ftdb_sim::machine::{PhysicalMachine, PortModel};
use ftdb_sim::routing::{run_adaptive_workload, run_logical_workload};
use ftdb_sim::workload;
use ftdb_topology::{DeBruijn2, ShuffleExchange};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_oblivious_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_oblivious");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &h in ftdb_bench::ROUTING_H {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pairs = workload::permutation_pairs(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("healthy_permutation", h), &h, |b, _| {
            b.iter(|| {
                let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
                assert_eq!(stats.dropped, 0);
                black_box(stats.total_hops)
            })
        });
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        group.bench_with_input(
            BenchmarkId::new("healthy_permutation_batched", h),
            &h,
            |b, _| {
                b.iter(|| {
                    let stats = run_logical_workload(&db, &placement, &machine, &pairs, threads);
                    assert_eq!(stats.dropped, 0);
                    black_box(stats.total_hops)
                })
            },
        );
    }
    group.finish();
}

fn bench_reconfigured_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_reconfigured");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &(h, k) in &[(8usize, 2usize), (10, 4)] {
        let ft = FtDeBruijn2::new(h, k);
        let db = ft.target().clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let faults = FaultSet::random(ft.node_count(), k, &mut rng).expect("k within node count");
        let placement = ft.reconfigure_verified(&faults).expect("tolerant");
        let machine =
            PhysicalMachine::with_faults(ft.graph().clone(), faults, PortModel::MultiPort);
        let pairs = workload::bit_reversal_pairs(h);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("h{h}_k{k}_bit_reversal")),
            &h,
            |b, _| {
                b.iter(|| {
                    let stats = run_logical_workload(&db, &placement, &machine, &pairs, 1);
                    assert_eq!(stats.dropped, 0);
                    black_box(stats.total_hops)
                })
            },
        );
    }
    group.finish();
}

fn bench_adaptive_routing_under_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_adaptive_faulty");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &h in &[8usize, 10] {
        let db = DeBruijn2::new(h);
        let n = db.node_count();
        let mut machine = PhysicalMachine::new(db.graph().clone(), PortModel::MultiPort);
        machine.inject_fault(1);
        machine.inject_fault(n / 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pairs = workload::uniform_pairs(n, 256, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, _| {
            b.iter(|| black_box(run_adaptive_workload(&machine, &pairs).delivered))
        });
    }
    group.finish();
}

fn bench_ascend_emulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ascend_allreduce_se");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &h in &[6usize, 8, 10] {
        let se = ShuffleExchange::new(h);
        let n = se.node_count();
        let machine = PhysicalMachine::new(se.graph().clone(), PortModel::MultiPort);
        let placement = Embedding::identity(n);
        let values = workload::index_values(n);
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, _| {
            b.iter(|| {
                let out = allreduce_shuffle_exchange(&se, &placement, &machine, &values)
                    .expect("healthy machine completes");
                black_box(out.values[0])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_oblivious_routing,
    bench_reconfigured_routing,
    bench_adaptive_routing_under_faults,
    bench_ascend_emulation
);
criterion_main!(benches);
