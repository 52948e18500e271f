//! Criterion bench: full PME operator applications (Algorithm 2's inner
//! kernel), sequential and overlapped.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hibd_bench::compose::{apply_overlapped, RecipScratch};
use hibd_bench::suspension;
use hibd_linalg::LinearOperator;
use hibd_pme::{tune, PmeOperator};

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("pme_apply");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [1000usize, 5000] {
        let params = tune(n, 0.2, 1.0, 1.0, 1e-3).params;
        let sys = suspension(n, 0.2, 5);
        let mut op = PmeOperator::new(sys.positions(), params).unwrap();
        let f: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut u = vec![0.0; 3 * n];
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| op.apply(&f, &mut u));
        });
        group.bench_with_input(BenchmarkId::new("overlapped", n), &n, |b, _| {
            let mut scratch = RecipScratch::new(&op);
            b.iter(|| apply_overlapped(&op, &mut scratch, &f, &mut u));
        });
        let s = 4;
        let fs: Vec<f64> = (0..3 * n * s).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut us = vec![0.0; 3 * n * s];
        group.bench_with_input(BenchmarkId::new("block_x4", n), &n, |b, _| {
            b.iter(|| op.apply_multi(&fs, &mut us, s));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
