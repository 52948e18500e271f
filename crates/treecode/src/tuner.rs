//! Accuracy tuner: pick `(theta, cheb_order)` for a target matvec error.
//!
//! The Chebyshev far field converges geometrically in the order `q` with a
//! rate set by the MAC parameter `theta` (smaller `theta` pushes source
//! cubes further away relative to their size). Rather than trusting an
//! asymptotic error model, the tolerances are *measured*: [`SCHEDULE`] is an
//! escalating list of `(theta, q)` pairs, each pinned by `tests/accuracy.rs`
//! to a worst-case relative error against the dense free-space RPY matrix
//! for both far-field strategies. [`tune`] is a table lookup in it — a pure
//! function of the tolerance, like the periodic `hibd_pme::tune`, so a
//! resumed or re-resolved job lands on the parameters it started with
//! whatever its particles have done since. [`measured_rel_error`] is the
//! measurement itself, for tests and accuracy gates.

use crate::operator::{TreeEval, TreeOperator, TreeParams};
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_rpy::dense_rpy_free;

/// The escalation schedule: `(guaranteed_tol, theta, cheb_order)`, loosest
/// first. Tolerances are conservative relative to measured errors on random
/// clouds for *both* evaluation strategies — the FMM's extra target-side
/// interpolation converges at the same geometric rate under the two-sided
/// MAC, and `tests/accuracy.rs` pins each tier against `dense_rpy_free`
/// for treecode and FMM alike.
pub const SCHEDULE: [(f64, f64, usize); 4] =
    [(1e-2, 0.7, 3), (1e-3, 0.4, 3), (1e-4, 0.4, 4), (1e-5, 0.4, 5)];

/// Measure the worst relative error `max_t ||(M_tree - M_dense) x_t|| /
/// ||M_dense x_t||` over `trials` deterministic pseudo-random unit vectors.
pub fn measured_rel_error(positions: &[Vec3], params: TreeParams, trials: usize) -> f64 {
    assert!(!positions.is_empty() && trials > 0);
    let n = positions.len();
    let dense = dense_rpy_free(positions, params.a, params.eta);
    let mut tree = TreeOperator::new(positions, params);
    let mut x = vec![0.0; 3 * n];
    let mut yt = vec![0.0; 3 * n];
    let mut yd = vec![0.0; 3 * n];
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut worst = 0.0f64;
    for _ in 0..trials {
        for v in &mut x {
            // SplitMix64 into [-1, 1).
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            *v = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
        tree.apply(&x, &mut yt);
        dense.mul_vec(&x, &mut yd);
        let (mut err2, mut ref2) = (0.0, 0.0);
        for (t, d) in yt.iter().zip(&yd) {
            err2 += (t - d) * (t - d);
            ref2 += d * d;
        }
        worst = worst.max((err2 / ref2.max(f64::MIN_POSITIVE)).sqrt());
    }
    worst
}

/// Parameters for `rel_tol`: the first (loosest) [`SCHEDULE`] tier that
/// guarantees it, the strictest when none does. Never looks at a
/// configuration: the error is a local property of the MAC geometry, not of
/// the cloud.
pub fn tune(rel_tol: f64, a: f64, eta: f64, eval: TreeEval) -> TreeParams {
    assert!(rel_tol > 0.0);
    let &(_, theta, cheb_order) =
        SCHEDULE.iter().find(|&&(tol, ..)| tol <= rel_tol).unwrap_or(&SCHEDULE[SCHEDULE.len() - 1]);
    TreeParams { theta, cheb_order, a, eta, eval, ..TreeParams::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * spread
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn tune_is_a_lookup_in_the_schedule() {
        let pick = |tol| {
            let p = tune(tol, 1.5, 2.0, TreeEval::Fmm);
            assert_eq!((p.a, p.eta, p.eval), (1.5, 2.0, TreeEval::Fmm));
            assert_eq!(p.leaf_capacity, TreeParams::default().leaf_capacity);
            (p.theta, p.cheb_order)
        };
        assert_eq!(pick(0.5), (0.7, 3));
        assert_eq!(pick(1e-2), (0.7, 3));
        assert_eq!(pick(5e-3), (0.4, 3));
        // `e_p = 1e-3`, the default: the parameters every run used before
        // the tuner stopped measuring.
        assert_eq!(pick(1e-3), (TreeParams::default().theta, TreeParams::default().cheb_order));
        assert_eq!(pick(1e-4), (0.4, 4));
        assert_eq!(pick(1e-5), (0.4, 5));
        // Tighter than the table: the strictest tier.
        assert_eq!(pick(1e-9), (0.4, 5));
    }

    #[test]
    fn tuned_params_meet_their_target() {
        let pos = cloud(100, 15.0, 8);
        for eval in [TreeEval::Tree, TreeEval::Fmm] {
            for tol in [1e-2, 1e-3] {
                let params = tune(tol, 1.0, 1.0, eval);
                assert_eq!(params.eval, eval);
                let err = measured_rel_error(&pos, params, 2);
                assert!(err <= tol, "{eval:?} tol {tol}: measured {err}");
            }
        }
    }
}
