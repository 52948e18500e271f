//! Accuracy acceptance: the treecode must match the dense free-space RPY
//! matvec to a relative error of `1e-3` at the default parameters, across
//! cloud sizes and densities — including the property-based sweep. The FMM
//! far field is held to the same schedule tolerances as the treecode.

use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_rpy::dense_rpy_free;
use hibd_treecode::tuner::LEAF_CAPACITIES;
use hibd_treecode::{measured_rel_error, TreeEval, TreeOperator, TreeParams, SCHEDULE};
use proptest::prelude::*;

fn cloud(n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * spread
    };
    (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
}

#[test]
fn default_params_meet_1e3_across_sizes_and_densities() {
    // The ISSUE acceptance criterion: rel error <= 1e-3 at default theta on
    // randomized clouds. Spread ~ n^{1/3} * pitch keeps density comparable.
    for (n, spread, seed) in
        [(100, 12.0, 1u64), (250, 18.0, 2), (500, 22.0, 3), (500, 10.0, 4), (800, 26.0, 5)]
    {
        let pos = cloud(n, spread, seed);
        let err = measured_rel_error(&pos, TreeParams::default(), 3);
        assert!(err <= 1e-3, "n={n} spread={spread}: rel err {err}");
    }
}

#[test]
fn schedule_entries_meet_their_advertised_tolerance() {
    let pos = cloud(300, 20.0, 42);
    for &(tol, theta, q) in &SCHEDULE {
        let params = TreeParams { theta, cheb_order: q, ..TreeParams::default() };
        let err = measured_rel_error(&pos, params, 3);
        assert!(err <= tol, "schedule ({theta}, {q}): measured {err} > {tol}");
    }
}

#[test]
fn fmm_meets_every_schedule_tier_against_dense() {
    // The ISSUE acceptance criterion: each `tuner::SCHEDULE` tier keeps its
    // advertised tolerance when the far field runs as an FMM.
    let pos = cloud(300, 20.0, 42);
    for &(tol, theta, q) in &SCHEDULE {
        let params =
            TreeParams { theta, cheb_order: q, eval: TreeEval::Fmm, ..TreeParams::default() };
        let err = measured_rel_error(&pos, params, 3);
        assert!(err <= tol, "FMM schedule ({theta}, {q}): measured {err} > {tol}");
    }
}

#[test]
fn every_tier_holds_at_every_leaf_capacity_the_tuner_may_return() {
    // The tuner picks the leaf capacity and tree-vs-FMM by cost, so every
    // combination must keep each tier's advertised tolerance. Per capacity
    // the cloud is sized to a clean depth-2 tree (level-1 cells hold 1.6
    // capacities, level-2 cells a fifth of one) — the shallowest with a far
    // field at either theta — at the ladder's open density. The reference is
    // the direct sum (`direct_sum_is_the_dense_matrix_to_rounding` pins it
    // to the dense matrix at 1e-13): a dense matrix at n = 3200 is 0.7 GB.
    for leaf_capacity in LEAF_CAPACITIES {
        let n = 25 * leaf_capacity / 2;
        let spread = (4.0 * std::f64::consts::PI * n as f64 / (3.0 * 0.1)).cbrt();
        let pos = cloud(n, spread, 7 + leaf_capacity as u64);
        let x: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let apply = |params: TreeParams| {
            let mut op = TreeOperator::new(&pos, params);
            let mut y = vec![0.0; 3 * n];
            op.apply(&x, &mut y);
            (y, op.max_depth())
        };
        let (exact, _) = apply(TreeParams { eval: TreeEval::Direct, ..TreeParams::default() });
        let ref2: f64 = exact.iter().map(|e| e * e).sum();
        for &(tol, theta, q) in &SCHEDULE {
            for eval in [TreeEval::Tree, TreeEval::Fmm] {
                let params = TreeParams {
                    theta,
                    cheb_order: q,
                    leaf_capacity,
                    eval,
                    ..TreeParams::default()
                };
                let (y, depth) = apply(params);
                assert_eq!(depth, 2, "leaf {leaf_capacity}: the cloud must reach a far field");
                let err2: f64 = y.iter().zip(&exact).map(|(t, e)| (t - e) * (t - e)).sum();
                let err = (err2 / ref2).sqrt();
                assert!(err <= tol, "{eval:?} ({theta}, {q}) leaf {leaf_capacity}: {err} > {tol}");
            }
        }
    }
}

#[test]
fn fmm_default_params_meet_1e3_across_sizes_and_densities() {
    for (n, spread, seed) in [(100, 12.0, 1u64), (250, 18.0, 2), (500, 22.0, 3), (500, 10.0, 4)] {
        let pos = cloud(n, spread, seed);
        let params = TreeParams { eval: TreeEval::Fmm, ..TreeParams::default() };
        let err = measured_rel_error(&pos, params, 3);
        assert!(err <= 1e-3, "FMM n={n} spread={spread}: rel err {err}");
    }
}

#[test]
fn error_decreases_with_stricter_parameters() {
    let pos = cloud(400, 20.0, 77);
    let loose = measured_rel_error(
        &pos,
        TreeParams { theta: 0.75, cheb_order: 3, ..TreeParams::default() },
        2,
    );
    let tight = measured_rel_error(
        &pos,
        TreeParams { theta: 0.5, cheb_order: 5, ..TreeParams::default() },
        2,
    );
    assert!(tight < loose, "tight {tight} !< loose {loose}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property sweep of the acceptance criterion: arbitrary clouds (any
    /// aspect ratio, any density, overlaps allowed), arbitrary force
    /// vectors — the treecode stays within the default-parameter tolerance
    /// of the dense two-branch RPY matrix.
    #[test]
    fn tree_apply_matches_dense_within_default_tolerance(
        n in 4usize..90,
        sx in 2.0f64..30.0,
        sy in 2.0f64..30.0,
        sz in 2.0f64..30.0,
        seed in 0u64..1u64 << 48,
        leaf in 1usize..24,
    ) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(13);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(next() * sx, next() * sy, next() * sz)).collect();
        let x: Vec<f64> = (0..3 * n).map(|_| 2.0 * next() - 1.0).collect();

        let dense = dense_rpy_free(&pos, 1.0, 1.0);
        let params = TreeParams { leaf_capacity: leaf, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let mut yt = vec![0.0; 3 * n];
        let mut yd = vec![0.0; 3 * n];
        op.apply(&x, &mut yt);
        dense.mul_vec(&x, &mut yd);

        let err2: f64 = yt.iter().zip(&yd).map(|(t, d)| (t - d) * (t - d)).sum();
        let ref2: f64 = yd.iter().map(|d| d * d).sum();
        let err = (err2 / ref2.max(f64::MIN_POSITIVE)).sqrt();
        prop_assert!(err <= 1e-3, "n={} leaf={} rel err {}", n, leaf, err);
    }

    /// The same sweep for the FMM far field: arbitrary clouds and leaf
    /// capacities, the M2L/L2L/L2P pipeline stays within the default
    /// tolerance of the dense two-branch RPY matrix.
    #[test]
    fn fmm_apply_matches_dense_within_default_tolerance(
        n in 4usize..90,
        sx in 2.0f64..30.0,
        sy in 2.0f64..30.0,
        sz in 2.0f64..30.0,
        seed in 0u64..1u64 << 48,
        leaf in 1usize..24,
    ) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(29);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(next() * sx, next() * sy, next() * sz)).collect();
        let x: Vec<f64> = (0..3 * n).map(|_| 2.0 * next() - 1.0).collect();

        let dense = dense_rpy_free(&pos, 1.0, 1.0);
        let params =
            TreeParams { leaf_capacity: leaf, eval: TreeEval::Fmm, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let mut yt = vec![0.0; 3 * n];
        let mut yd = vec![0.0; 3 * n];
        op.apply(&x, &mut yt);
        dense.mul_vec(&x, &mut yd);

        let err2: f64 = yt.iter().zip(&yd).map(|(t, d)| (t - d) * (t - d)).sum();
        let ref2: f64 = yd.iter().map(|d| d * d).sum();
        let err = (err2 / ref2.max(f64::MIN_POSITIVE)).sqrt();
        prop_assert!(err <= 1e-3, "FMM n={} leaf={} rel err {}", n, leaf, err);
    }
}
