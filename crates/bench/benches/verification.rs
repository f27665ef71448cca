//! Bench: exhaustive `(k, G)`-tolerance verification (THM1-2 machinery),
//! including the parallel speed-up of the sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftdb_core::verify::verify_exhaustive;
use ftdb_core::FtDeBruijn2;
use std::hint::black_box;

fn bench_exhaustive(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_exhaustive");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(10);
    for &(h, k) in ftdb_bench::VERIFY_PARAMS {
        let ft = FtDeBruijn2::new(h, k);
        for &threads in &[1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("threads{threads}"), format!("h{h}_k{k}")),
                &(&ft, threads),
                |b, (ft, threads)| {
                    b.iter(|| {
                        let report =
                            verify_exhaustive(ft.target().graph(), ft.graph(), ft.k(), *threads);
                        assert!(report.is_tolerant());
                        black_box(report.checked)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_exhaustive);
criterion_main!(benches);
