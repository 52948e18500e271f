//! Criterion bench: one lockstep ensemble step over `R` same-shape
//! replicas vs `R` sequential standalone steps. The archival counterpart
//! is the ladder's `engine.ensemble_r4.*` rung (`bench_ladder set`).

use criterion::{criterion_group, criterion_main, Criterion};
use hibd_bench::suspension;
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_engine::EnsembleRunner;

fn bench_ensemble_step(c: &mut Criterion) {
    let n = 200;
    let mut group = c.benchmark_group("ensemble_step");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let cfg = MatrixFreeConfig { lambda_rpy: 8, ..Default::default() };
    let sys = suspension(n, 0.15, 13);
    for replicas in [1usize, 4] {
        let mut solo: Vec<MatrixFreeBd> = (0..replicas as u64)
            .map(|r| MatrixFreeBd::new(sys.clone(), cfg, 17 + r).unwrap())
            .collect();
        for bd in &mut solo {
            bd.step().unwrap(); // pay the first window outside the loop
        }
        group.bench_function(format!("sequential_r{replicas}_n{n}"), |b| {
            b.iter(|| {
                for bd in &mut solo {
                    bd.step().unwrap();
                }
            });
        });

        let jobs: Vec<_> = (0..replicas as u64).map(|r| (sys.clone(), 17 + r)).collect();
        let mut runner = EnsembleRunner::new(cfg, jobs).unwrap();
        runner.step().unwrap();
        group.bench_function(format!("ensemble_r{replicas}_n{n}"), |b| {
            b.iter(|| runner.step().unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ensemble_step);
criterion_main!(benches);
