//! Criterion bench: batched multi-RHS PME block application vs the
//! per-column baseline vs `s` single-RHS applies (the Sec. III-B "no
//! batched 3D FFT" gap, now filled). Table III-style configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hibd_bench::compose::apply_multi_columnwise;
use hibd_bench::suspension;
use hibd_linalg::LinearOperator;
use hibd_pme::{tune, PmeOperator};

fn bench_apply_multi(c: &mut Criterion) {
    let n = 1000;
    let params = tune(n, 0.2, 1.0, 1.0, 1e-3).params;
    let sys = suspension(n, 0.2, 13);

    let mut group = c.benchmark_group("pme_apply_multi");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    for s in [1usize, 4, 8, 16] {
        let mut op = PmeOperator::new(sys.positions(), params).unwrap();
        let x: Vec<f64> = (0..3 * n * s).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; 3 * n * s];
        group.bench_with_input(BenchmarkId::new("batched", s), &s, |b, &s| {
            b.iter(|| op.apply_multi(&x, &mut y, s));
        });
        group.bench_with_input(BenchmarkId::new("per_column", s), &s, |b, &s| {
            b.iter(|| apply_multi_columnwise(&mut op, &x, &mut y, s));
        });
        // `s` independent single-RHS applies on contiguous vectors: the
        // no-block-structure-at-all lower bound the paper's Algorithm 1
        // loop would pay.
        let xc: Vec<Vec<f64>> =
            (0..s).map(|j| (0..3 * n).map(|i| x[i * s + j]).collect()).collect();
        let mut uc = vec![0.0; 3 * n];
        group.bench_with_input(BenchmarkId::new("single_rhs_loop", s), &s, |b, &s| {
            b.iter(|| {
                for xj in xc.iter().take(s) {
                    op.apply(xj, &mut uc);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apply_multi);
criterion_main!(benches);
