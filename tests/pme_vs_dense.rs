//! Integration: the PME operator against the dense Ewald mobility matrix,
//! across realistic suspension configurations and tuner settings.

use hibd::linalg::{DenseOp, LinearOperator};
use hibd::pme::{measure_ep, tune, PmeOperator};
use hibd::prelude::*;
use hibd::rpy::{dense_ewald_mobility, RpyEwald};

fn build(n: usize, phi: f64, seed: u64) -> ParticleSystem {
    let mut rng = make_rng(seed);
    ParticleSystem::random_suspension(n, phi, &mut rng)
}

#[test]
fn tuned_pme_meets_its_error_target_across_volume_fractions() {
    for (phi, seed) in [(0.1, 1u64), (0.3, 2), (0.45, 3)] {
        let n = 60;
        let sys = build(n, phi, seed);
        let cfg = tune(n, phi, 1.0, 1.0, 1e-3);
        let mut op = PmeOperator::new(sys.positions(), cfg.params).unwrap();
        let dense = dense_ewald_mobility(
            sys.positions(),
            &RpyEwald::new(1.0, 1.0, cfg.params.box_l, 0.45, 1e-9),
        );
        let ep = measure_ep(&mut op, &mut DenseOp::new(dense), 2, seed);
        assert!(ep < 1e-3, "phi={phi}: e_p = {ep:e}");
    }
}

#[test]
fn ladder_reference_shape_meets_its_target_at_the_box_bound_split() {
    // n = 200, phi = 0.2 is the benchmark's periodic shape: the tuner's split
    // there is box-bound (r_max at L/2, the smallest mesh any cutoff allows),
    // the corner of the search that trades the most reciprocal work away.
    let (n, phi) = (200, 0.2);
    let sys = build(n, phi, 2014);
    let cfg = tune(n, phi, 1.0, 1.0, 1e-3);
    assert!(cfg.params.r_max > 0.9 * cfg.params.box_l / 2.0, "{:?}", cfg.params);
    let mut op = PmeOperator::new(sys.positions(), cfg.params).unwrap();
    // Cost-balanced reference split (the total is xi-independent).
    let xi = std::f64::consts::PI.sqrt() * (n as f64).sqrt().cbrt() / cfg.params.box_l;
    let dense =
        dense_ewald_mobility(sys.positions(), &RpyEwald::new(1.0, 1.0, cfg.params.box_l, xi, 1e-9));
    let ep = measure_ep(&mut op, &mut DenseOp::new(dense), 2, 2014);
    assert!(ep < 1e-3, "e_p = {ep:e}");
    assert_rayleigh_quotients_positive(&mut op, n);
}

#[test]
fn pme_accuracy_improves_with_tighter_target() {
    let n = 50;
    let phi = 0.2;
    let sys = build(n, phi, 9);
    let mut eps = Vec::new();
    for target in [3e-2, 1e-3, 1e-5] {
        let cfg = tune(n, phi, 1.0, 1.0, target);
        let mut op = PmeOperator::new(sys.positions(), cfg.params).unwrap();
        let dense = dense_ewald_mobility(
            sys.positions(),
            &RpyEwald::new(1.0, 1.0, cfg.params.box_l, 0.45, 1e-10),
        );
        let ep = measure_ep(&mut op, &mut DenseOp::new(dense), 2, 5);
        assert!(ep < target, "target {target:e}: measured {ep:e}");
        eps.push(ep);
    }
    assert!(eps[2] < eps[0], "tightest target must beat loosest: {eps:?}");
}

#[test]
fn pme_agrees_with_dense_for_overlapping_particles() {
    // Overlap correction must survive the full operator path.
    let phi = 0.2;
    let n = 40;
    let mut sys = build(n, phi, 4);
    // Force an overlapping pair.
    let mut pos = sys.positions().to_vec();
    pos[1] = pos[0] + hibd::mathx::Vec3::new(1.1, 0.0, 0.0);
    sys = ParticleSystem::new(pos, sys.box_l, 1.0, 1.0);

    let cfg = tune(n, phi, 1.0, 1.0, 1e-3);
    let mut op = PmeOperator::new(sys.positions(), cfg.params).unwrap();
    let dense = dense_ewald_mobility(
        sys.positions(),
        &RpyEwald::new(1.0, 1.0, cfg.params.box_l, 0.45, 1e-9),
    );
    let ep = measure_ep(&mut op, &mut DenseOp::new(dense), 2, 6);
    assert!(ep < 1e-3, "with overlaps: e_p = {ep:e}");
}

#[test]
fn pme_is_positive_definite_in_practice() {
    let n = 80;
    let sys = build(n, 0.25, 8);
    let cfg = tune(n, 0.25, 1.0, 1.0, 1e-3);
    let mut op = PmeOperator::new(sys.positions(), cfg.params).unwrap();
    assert_rayleigh_quotients_positive(&mut op, n);
}

/// Rayleigh quotients of random vectors must be positive (the property
/// Lanczos depends on).
fn assert_rayleigh_quotients_positive(op: &mut PmeOperator, n: usize) {
    let mut u = vec![0.0; 3 * n];
    let mut state = 12345u64;
    for _ in 0..5 {
        let f: Vec<f64> = (0..3 * n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        op.apply(&f, &mut u);
        let q: f64 = f.iter().zip(&u).map(|(a, b)| a * b).sum();
        assert!(q > 0.0, "Rayleigh quotient {q}");
    }
}
