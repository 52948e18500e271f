//! Criterion bench: treecode operator applications vs the dense free-space
//! RPY matvec (open-boundary backend, DESIGN.md §10).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hibd_bench::cluster;
use hibd_linalg::LinearOperator;
use hibd_rpy::dense_rpy_free;
use hibd_treecode::{TreeOperator, TreeParams};

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("treecode_apply");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [1000usize, 5000] {
        let sys = cluster(n, 0.1, 5);
        let mut op = TreeOperator::new(sys.positions(), TreeParams::default());
        let f: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut u = vec![0.0; 3 * n];
        group.bench_with_input(BenchmarkId::new("tree", n), &n, |b, _| {
            b.iter(|| op.apply(&f, &mut u));
        });
        // Block applies: one partial column tile, then the Brownian window's
        // width (two full tiles). Divide by `s` for the per-column cost the
        // `tree` line above is the `s = 1` case of.
        for s in [4usize, 16] {
            let fs: Vec<f64> = (0..3 * n * s).map(|i| (i as f64 * 0.31).sin()).collect();
            let mut us = vec![0.0; 3 * n * s];
            group.bench_with_input(BenchmarkId::new(format!("tree_block_x{s}"), n), &n, |b, _| {
                b.iter(|| op.apply_multi(&fs, &mut us, s));
            });
        }
        if n <= 1000 {
            let m = dense_rpy_free(sys.positions(), 1.0, 1.0);
            let mut v = vec![0.0; 3 * n];
            group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
                b.iter(|| m.mul_vec(&f, &mut v));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
