//! PME parameter selection (the procedure behind the paper's Table III).
//!
//! Given a particle count, volume fraction and target PME accuracy `e_p`,
//! choose `(K, p, r_max, alpha)` such that the real-space truncation error,
//! the reciprocal-space (Gaussian) truncation error and the B-spline
//! interpolation error are all at or below the target, while keeping the
//! real-space matrix `O(n)` ("practically alpha is limited if sparsity and
//! scalable storage is to be maintained", Section IV-E).
//!
//! Also provides [`measure_ep`], the empirical error measurement
//! `e_p = |u_pme - u_ref|_2 / |u_ref|_2` used to validate the choices.

use crate::operator::{PmeOperator, PmeParams};
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;

/// A tuned configuration plus the target it was tuned for.
#[derive(Clone, Copy, Debug)]
pub struct TunedConfig {
    pub params: PmeParams,
    /// The accuracy target the tuner aimed at.
    pub target_ep: f64,
}

/// Box side for `n` spheres of radius `a` at volume fraction `phi`:
/// `L = (4 pi a^3 n / (3 phi))^{1/3}`.
pub fn box_from_volume_fraction(n: usize, phi: f64, a: f64) -> f64 {
    assert!(phi > 0.0 && phi < 1.0, "volume fraction must be in (0,1)");
    (4.0 * std::f64::consts::PI * a.powi(3) * n as f64 / (3.0 * phi)).cbrt()
}

/// Smallest even *smooth* (mixed-radix) FFT dimension `>= k`. The FFT crate
/// can transform any size via Bluestein, but smooth sizes are several times
/// faster, so the tuner only ever picks these.
pub use hibd_fft::next_smooth_even;

/// Magnitude of the real-space Ewald kernel at radius `r` (units of `mu0`):
/// the truncation error of dropping a neighbor just outside the cutoff.
pub fn real_kernel_magnitude(a: f64, box_l: f64, alpha: f64, r: f64) -> f64 {
    let kernel = hibd_rpy::RpyEwald::kernel_only(a, 1.0, box_l, alpha);
    let (fi, frr) = kernel.real_scalars(r);
    fi.abs().max(frr.abs()).max((fi + frr).abs())
}

/// Reciprocal-sum tail beyond `k_cut` (units of `mu0`): the continuum
/// estimate `(1/(2 pi^2)) ∫_{k_cut}^∞ m_alpha(k) k^2 dk` of the dropped
/// modes' contribution to a mobility entry.
pub fn recip_tail_magnitude(a: f64, box_l: f64, alpha: f64, k_cut: f64) -> f64 {
    let kernel = hibd_rpy::RpyEwald::kernel_only(a, 1.0, box_l, alpha);
    // Simpson integration out to where the Gaussian has fully decayed.
    let k_hi = (k_cut + 10.0 * alpha).max(2.0 * k_cut);
    let steps = 512;
    let h = (k_hi - k_cut) / steps as f64;
    let f = |k: f64| kernel.recip_scalar(k * k).abs() * k * k;
    let mut s = f(k_cut) + f(k_hi);
    for i in 1..steps {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        s += w * f(k_cut + i as f64 * h);
    }
    s * h / 3.0 / (2.0 * std::f64::consts::PI * std::f64::consts::PI)
}

/// Find `alpha` such that the real-space kernel magnitude at `r_max` equals
/// `target` (bisection; the magnitude is decreasing in `alpha` over the
/// bracket).
fn solve_alpha(a: f64, box_l: f64, r_max: f64, target: f64) -> f64 {
    let mut lo = 0.05 / r_max;
    let mut hi = 30.0 / r_max;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if real_kernel_magnitude(a, box_l, mid, r_max) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Find the reciprocal cutoff `k_max` with tail below `target`.
fn solve_kmax(a: f64, box_l: f64, alpha: f64, target: f64) -> f64 {
    let mut k = 2.0 * alpha;
    while recip_tail_magnitude(a, box_l, alpha, k) > target && k < 200.0 * alpha {
        k *= 1.05;
    }
    k
}

/// Choose PME parameters for `n` particles at volume fraction `phi` with
/// target relative accuracy `target_ep` (e.g. `1e-3` as in Table III).
///
/// Strategy (mirrors the shape of Table III):
/// * `r_max` starts at `4a` for 1000 particles and grows slowly
///   (`~n^{1/6}`), keeping the real-space matrix sparse while letting
///   `alpha` — and with it the mesh — shrink for very large systems;
/// * `alpha` is bisected so the real-space kernel magnitude at `r_max` is a
///   fifth of the target (the Beenakker kernel's polynomial prefactors make
///   closed-form choices like `sqrt(ln 1/e_p)/r_max` far too optimistic, and
///   several neighbors sit just outside the cutoff);
/// * the reciprocal cutoff `k_max` is grown until the continuum tail
///   estimate is a fifth of the target, and `K >= k_max L / pi` (with the
///   B-spline margin below) is rounded to an FFT-smooth even size;
/// * `p = 4` for loose targets, `p = 6` at `1e-3` and below, `p = 8` for
///   very tight targets.
pub fn tune(n: usize, phi: f64, a: f64, eta: f64, target_ep: f64) -> TunedConfig {
    assert!(n > 0);
    let box_l = box_from_volume_fraction(n, phi, a);
    let mut r_max = 4.0 * a * (n as f64 / 1000.0).powf(1.0 / 6.0).max(1.0);
    r_max = r_max.clamp((2.5 * a).min(box_l / 2.0), box_l / 2.0);
    tune_with_rmax(n, phi, a, eta, target_ep, r_max)
}

/// [`tune`] with an externally imposed real-space cutoff — the knob the
/// hybrid load balancer turns (Section IV-E: `alpha` is tuned so the CPU's
/// real-space work matches the accelerator's reciprocal-space work).
pub fn tune_with_rmax(
    n: usize,
    phi: f64,
    a: f64,
    eta: f64,
    target_ep: f64,
    r_max: f64,
) -> TunedConfig {
    assert!(n > 0);
    assert!(target_ep > 0.0 && target_ep < 0.5);
    let box_l = box_from_volume_fraction(n, phi, a);
    let r_max = r_max.clamp(1e-6, box_l / 2.0);

    let share = target_ep / 5.0;
    let alpha = solve_alpha(a, box_l, r_max, share);
    let k_max = solve_kmax(a, box_l, alpha, share);

    let spline_order = if target_ep >= 1e-2 {
        4
    } else if target_ep >= 1e-4 {
        6
    } else {
        8
    };
    // B-spline interpolation error model: err ~ C_p * margin^{-p}, with
    // C_p calibrated against dense-Ewald measurements (see tests). The mesh
    // margin is chosen so that term also lands at a third of the target.
    let c_p: f64 = match spline_order {
        4 => 1.2e-2,
        6 => 4e-3,
        _ => 2e-3,
    };
    let margin = (c_p / share).powf(1.0 / spline_order as f64).max(1.1);
    let k_mesh = next_smooth_even((margin * k_max * box_l / std::f64::consts::PI).ceil() as usize)
        .max(next_smooth_even(2 * spline_order));

    TunedConfig {
        params: PmeParams { a, eta, box_l, alpha, mesh_dim: k_mesh, spline_order, r_max },
        target_ep,
    }
}

/// Measure `e_p = |u_pme - u_ref| / |u_ref|` over `trials` random force
/// vectors, where `reference` is any trusted operator of the same dimension
/// (tight-tolerance dense Ewald, or a deliberately over-resolved PME).
pub fn measure_ep(
    op: &mut PmeOperator,
    reference: &mut dyn LinearOperator,
    trials: usize,
    seed: u64,
) -> f64 {
    let dim = op.dim();
    assert_eq!(dim, reference.dim());
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut worst = 0.0f64;
    let mut u_pme = vec![0.0; dim];
    let mut u_ref = vec![0.0; dim];
    for _ in 0..trials.max(1) {
        let f: Vec<f64> = (0..dim).map(|_| next()).collect();
        op.apply(&f, &mut u_pme);
        reference.apply(&f, &mut u_ref);
        let num: f64 = u_pme.iter().zip(&u_ref).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let den: f64 = u_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
        worst = worst.max(num / den.max(1e-300));
    }
    worst
}

/// Build a deliberately over-resolved reference PME operator for large
/// systems where the dense Ewald matrix is unaffordable: double-density
/// mesh, order-8 splines, and a real-space cutoff enlarged within `L/2`.
pub fn reference_operator(positions: &[Vec3], base: &PmeParams) -> PmeOperator {
    let tighter = PmeParams {
        mesh_dim: next_smooth_even(base.mesh_dim * 3 / 2),
        spline_order: 8,
        r_max: (base.r_max * 1.5).min(base.box_l / 2.0),
        alpha: base.alpha, // same split; errors shrink on both sides
        ..*base
    };
    PmeOperator::new(positions, tighter).expect("reference operator construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_fft::FftPlan;
    use hibd_linalg::DenseOp;
    use hibd_rpy::{dense_ewald_mobility, RpyEwald};

    fn lcg_positions(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * box_l
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn box_matches_volume_fraction() {
        let l = box_from_volume_fraction(1000, 0.2, 1.0);
        let phi = 1000.0 * 4.0 / 3.0 * std::f64::consts::PI / l.powi(3);
        assert!((phi - 0.2).abs() < 1e-12);
        // Paper's N1000 configuration: L ≈ 27.6.
        assert!((l - 27.6).abs() < 0.2, "L = {l}");
    }

    #[test]
    fn next_smooth_even_properties() {
        assert_eq!(next_smooth_even(2), 2);
        assert_eq!(next_smooth_even(31), 32);
        assert_eq!(next_smooth_even(33), 36); // 34 = 2*17, 17 > MAX_RADIX
        for k in [3usize, 17, 63, 100, 255, 399] {
            let s = next_smooth_even(k);
            assert!(s >= k && s.is_multiple_of(2));
            assert!(FftPlan::new(s).is_ok(), "k={k} -> {s}");
        }
    }

    #[test]
    fn tuned_parameters_are_consistent() {
        for n in [100usize, 1000, 10000, 100000] {
            let cfg = tune(n, 0.2, 1.0, 1.0, 1e-3);
            let p = cfg.params;
            assert!(p.r_max <= p.box_l / 2.0 + 1e-9, "n={n}");
            assert!(p.alpha > 0.0);
            assert!(p.mesh_dim.is_multiple_of(2));
            assert!(FftPlan::new(p.mesh_dim).is_ok());
            // The real-space kernel magnitude at the cutoff meets the
            // tuner's per-term share of the target.
            let mag = real_kernel_magnitude(p.a, p.box_l, p.alpha, p.r_max);
            assert!(mag <= 1e-3 / 5.0 * 1.01, "n={n} kernel magnitude {mag:e}");
        }
    }

    #[test]
    fn mesh_grows_with_system_size() {
        let k1 = tune(1000, 0.2, 1.0, 1.0, 1e-3).params.mesh_dim;
        let k2 = tune(64000, 0.2, 1.0, 1.0, 1e-3).params.mesh_dim;
        assert!(k2 as f64 >= 1.4 * k1 as f64, "K(64k)={k2} vs K(1k)={k1}");
    }

    #[test]
    #[ignore]
    fn probe_margin_sweep() {
        let n = 40;
        for margin in [1.15f64, 1.3, 1.5, 2.0] {
            let mut cfg = tune(n, 0.2, 1.0, 1.0, 1e-3);
            let base_k = (cfg.params.mesh_dim as f64 / 1.35 * margin).ceil() as usize;
            cfg.params.mesh_dim = next_smooth_even(base_k);
            let p = cfg.params;
            let pos = lcg_positions(n, p.box_l, 5);
            let mut op = PmeOperator::new(&pos, p).unwrap();
            let dense = dense_ewald_mobility(&pos, &RpyEwald::new(p.a, p.eta, p.box_l, 0.5, 1e-10));
            let mut reference = DenseOp::new(dense);
            let ep = measure_ep(&mut op, &mut reference, 2, 77);
            println!(
                "margin {margin}: K={} p={} alpha={:.3} rmax={} ep={ep:e}",
                p.mesh_dim, p.spline_order, p.alpha, p.r_max
            );
        }
    }

    #[test]
    fn tuned_config_achieves_its_target_on_a_small_system() {
        // End-to-end tuner validation against dense Ewald.
        let n = 40;
        let cfg = tune(n, 0.2, 1.0, 1.0, 1e-3);
        let p = cfg.params;
        let pos = lcg_positions(n, p.box_l, 5);
        let mut op = PmeOperator::new(&pos, p).unwrap();
        let dense = dense_ewald_mobility(&pos, &RpyEwald::new(p.a, p.eta, p.box_l, 0.5, 1e-10));
        let mut reference = DenseOp::new(dense);
        let ep = measure_ep(&mut op, &mut reference, 3, 77);
        assert!(ep < 1e-3, "measured e_p {ep:e} exceeds target 1e-3");
    }

    #[test]
    fn reference_operator_is_tighter() {
        let n = 30;
        let cfg = tune(n, 0.2, 1.0, 1.0, 1e-2);
        let p = cfg.params;
        let pos = lcg_positions(n, p.box_l, 9);
        let mut op = PmeOperator::new(&pos, p).unwrap();
        let mut refop = reference_operator(&pos, &p);
        let dense = dense_ewald_mobility(&pos, &RpyEwald::new(p.a, p.eta, p.box_l, 0.5, 1e-10));
        let mut exact = DenseOp::new(dense);
        let ep_base = measure_ep(&mut op, &mut exact, 2, 3);
        let ep_ref = measure_ep(&mut refop, &mut exact, 2, 3);
        assert!(ep_ref < ep_base, "reference ({ep_ref:e}) must beat base ({ep_base:e})");
    }
}
