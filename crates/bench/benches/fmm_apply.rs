//! Criterion bench: FMM operator applications vs the treecode far field
//! (open-boundary backend, DESIGN.md §13). Same clouds as `treecode_apply`
//! so the two groups are directly comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hibd_bench::cluster;
use hibd_linalg::LinearOperator;
use hibd_treecode::{TreeEval, TreeOperator, TreeParams};

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("fmm_apply");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [1000usize, 5000] {
        let sys = cluster(n, 0.1, 5);
        let params = TreeParams { eval: TreeEval::Fmm, ..TreeParams::default() };
        let mut op = TreeOperator::new(sys.positions(), params);
        let f: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut u = vec![0.0; 3 * n];
        group.bench_with_input(BenchmarkId::new("fmm", n), &n, |b, _| {
            b.iter(|| op.apply(&f, &mut u));
        });
        // Block applies: one partial column tile, then the Brownian window's
        // width (two full tiles). Divide by `s` for the per-column cost the
        // `fmm` line above is the `s = 1` case of.
        for s in [4usize, 16] {
            let fs: Vec<f64> = (0..3 * n * s).map(|i| (i as f64 * 0.31).sin()).collect();
            let mut us = vec![0.0; 3 * n * s];
            group.bench_with_input(BenchmarkId::new(format!("fmm_block_x{s}"), n), &n, |b, _| {
                b.iter(|| op.apply_multi(&fs, &mut us, s));
            });
        }
        let mut tree = TreeOperator::new(sys.positions(), TreeParams::default());
        group.bench_with_input(BenchmarkId::new("tree", n), &n, |b, _| {
            b.iter(|| tree.apply(&f, &mut u));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
