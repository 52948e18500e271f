//! Criterion bench: Brownian displacement computation — Cholesky (dense,
//! Algorithm 1) vs block Lanczos over PME (matrix-free, Algorithm 2), the
//! latter through both the batched multi-RHS reciprocal pipeline and the
//! per-column baseline it replaced.

use criterion::{criterion_group, criterion_main, Criterion};
use hibd_bench::compose::apply_multi_columnwise;
use hibd_bench::suspension;
use hibd_krylov::{block_lanczos_sqrt, KrylovConfig};
use hibd_linalg::{CholeskyFactor, LinearOperator};
use hibd_mathx::fill_standard_normal;
use hibd_pme::{tune, PmeOperator};
use hibd_rpy::{dense_ewald_mobility, RpyEwald};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forwards block applications to the per-column PME baseline, so block
/// Lanczos can be timed against the pre-batching behavior.
struct ColumnwiseOp(PmeOperator);

impl LinearOperator for ColumnwiseOp {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply(&mut self, f: &[f64], u: &mut [f64]) {
        self.0.apply(f, u);
    }

    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        apply_multi_columnwise(&mut self.0, x, y, s);
    }
}

fn bench_displacements(c: &mut Criterion) {
    let n = 200;
    let lambda = 8;
    let sys = suspension(n, 0.2, 7);
    let mut rng = StdRng::seed_from_u64(11);
    let mut z = vec![0.0; 3 * n * lambda];
    fill_standard_normal(&mut rng, &mut z);

    let mut group = c.benchmark_group("brownian_displacements");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Conventional: Cholesky factor + triangular multi-product.
    let xi_bal = std::f64::consts::PI.sqrt() * (n as f64).powf(1.0 / 6.0) / sys.box_l;
    let ewald = RpyEwald::new(1.0, 1.0, sys.box_l, xi_bal, 1e-4);
    let m = dense_ewald_mobility(sys.positions(), &ewald);
    group.bench_function("cholesky_factor", |b| b.iter(|| CholeskyFactor::new(&m).unwrap()));
    let chol = CholeskyFactor::new(&m).unwrap();
    let mut d = vec![0.0; 3 * n * lambda];
    group
        .bench_function("cholesky_sample_block", |b| b.iter(|| chol.mul_multi(&z, &mut d, lambda)));

    // Matrix-free: block Lanczos over the PME operator, batched multi-RHS
    // reciprocal pipeline (the production path).
    let params = tune(n, 0.2, 1.0, 1.0, 1e-3).params;
    let mut op = PmeOperator::new(sys.positions(), params).unwrap();
    let cfg = KrylovConfig { tol: 1e-2, max_iter: 60, check_interval: 2 };
    group.bench_function("block_lanczos_pme", |b| {
        b.iter(|| block_lanczos_sqrt(&mut op, &z, lambda, &cfg).unwrap());
    });

    // Same solve through the per-column baseline the batched path replaced.
    let mut colwise = ColumnwiseOp(PmeOperator::new(sys.positions(), params).unwrap());
    group.bench_function("block_lanczos_pme_columnwise", |b| {
        b.iter(|| block_lanczos_sqrt(&mut colwise, &z, lambda, &cfg).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_displacements);
criterion_main!(benches);
