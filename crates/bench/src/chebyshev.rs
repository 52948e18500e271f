//! Fixman's Chebyshev polynomial method for `M^{1/2} z`.
//!
//! The paper (Section III-B) notes that matrix-free alternatives to the
//! Krylov approach exist "but they require eigenvalue estimates of M, e.g.,
//! \[25\]" — Fixman (Macromolecules 19, 1986). This module implements that
//! method for the ablation comparison only (`ablation_krylov`); no
//! production crate links it:
//!
//! 1. estimate the extreme eigenvalues of the SPD operator with a short
//!    Lanczos run ([`estimate_spectrum_bounds`]);
//! 2. build the Chebyshev interpolation of `sqrt` on the (padded) spectral
//!    interval, truncated where the coefficient tail meets the tolerance;
//! 3. evaluate `p(M) z` with the three-term Chebyshev recurrence — one
//!    operator application per polynomial degree.
//!
//! Versus Lanczos, Chebyshev needs no basis storage (three vectors total)
//! but its degree is set by the condition number rather than by the
//! spectral distribution seen by `z`, so it typically needs more operator
//! applications at equal accuracy — which the comparison test demonstrates.

use hibd_krylov::KrylovError;
use hibd_linalg::{tridiag_eig, LinearOperator};

/// Options for the Chebyshev square-root evaluation.
#[derive(Clone, Copy, Debug)]
pub struct ChebyshevConfig {
    /// Relative truncation tolerance of the polynomial (plays the role of
    /// the Krylov `e_k`).
    pub tol: f64,
    /// Maximum polynomial degree.
    pub max_degree: usize,
    /// Spectral bounds `(lambda_min, lambda_max)`; `None` estimates them
    /// with [`estimate_spectrum_bounds`].
    pub bounds: Option<(f64, f64)>,
    /// Lanczos iterations used for the bound estimate.
    pub bound_iters: usize,
}

impl Default for ChebyshevConfig {
    fn default() -> Self {
        ChebyshevConfig { tol: 1e-2, max_degree: 400, bounds: None, bound_iters: 20 }
    }
}

/// Estimate `(lambda_min, lambda_max)` of an SPD operator by a short
/// Lanczos run started from a fixed pseudo-random vector, padded by the
/// safety factors Fixman's method needs (Ritz values underestimate the
/// spectral range).
pub fn estimate_spectrum_bounds(
    op: &mut dyn LinearOperator,
    iters: usize,
) -> Result<(f64, f64), KrylovError> {
    let n = op.dim();
    if n == 0 {
        return Err(KrylovError::BadShape("empty operator".into()));
    }
    // Deterministic start vector.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    let nrm = norm(&v);
    for x in &mut v {
        *x /= nrm;
    }

    let m = iters.clamp(2, n);
    let mut basis: Vec<Vec<f64>> = vec![v];
    let mut alpha = Vec::new();
    let mut beta: Vec<f64> = Vec::new();
    let mut w = vec![0.0; n];
    for j in 0..m {
        op.apply(&basis[j], &mut w);
        let a = dot(&basis[j], &w);
        alpha.push(a);
        for (wi, vi) in w.iter_mut().zip(&basis[j]) {
            *wi -= a * vi;
        }
        if j > 0 {
            let b = beta[j - 1];
            for (wi, vi) in w.iter_mut().zip(&basis[j - 1]) {
                *wi -= b * vi;
            }
        }
        for vk in &basis {
            let p = dot(vk, &w);
            for (wi, vi) in w.iter_mut().zip(vk) {
                *wi -= p * vi;
            }
        }
        let b = norm(&w);
        if b < 1e-14 {
            break;
        }
        beta.push(b);
        basis.push(w.iter().map(|x| x / b).collect());
    }
    let k = alpha.len();
    let (ritz, _) = tridiag_eig(&alpha, &beta[..k.saturating_sub(1)])
        .map_err(|_| KrylovError::EigensolveStalled { dimension: k })?;
    let lo = ritz.first().copied().unwrap_or(1.0);
    let hi = ritz.last().copied().unwrap_or(1.0);
    if lo <= 0.0 {
        return Err(KrylovError::NotPositiveSemidefinite { eigenvalue: lo });
    }
    // Fixman's safety padding.
    Ok((lo * 0.70, hi * 1.30))
}

/// Outcome of a Chebyshev evaluation.
#[derive(Clone, Copy, Debug)]
pub struct ChebyshevStats {
    /// Polynomial degree used (= operator applications, excluding bound
    /// estimation).
    pub degree: usize,
    /// Operator applications spent estimating the spectral bounds.
    pub bound_applications: usize,
    /// Estimated relative truncation error of the polynomial.
    pub poly_error: f64,
    /// Spectral interval used.
    pub bounds: (f64, f64),
}

/// Approximate `g = M^{1/2} z` with Fixman's Chebyshev method.
pub fn chebyshev_sqrt(
    op: &mut dyn LinearOperator,
    z: &[f64],
    cfg: &ChebyshevConfig,
) -> Result<(Vec<f64>, ChebyshevStats), KrylovError> {
    let n = op.dim();
    if z.len() != n {
        return Err(KrylovError::BadShape(format!("z has {} entries, dim {n}", z.len())));
    }
    let (bounds, bound_apps) = match cfg.bounds {
        Some(b) => (b, 0),
        None => (estimate_spectrum_bounds(op, cfg.bound_iters)?, cfg.bound_iters),
    };
    let (lo, hi) = bounds;
    if !(lo > 0.0 && hi > lo) {
        return Err(KrylovError::BadShape(format!("invalid spectral bounds ({lo}, {hi})")));
    }

    // Chebyshev interpolation coefficients of sqrt on [lo, hi], computed at
    // high resolution, then truncated where the tail drops below the
    // tolerance (relative to sqrt(lo), the smallest function value).
    let nq = (cfg.max_degree + 1).max(64);
    let coeffs = chebyshev_coefficients(nq, f64::sqrt, lo, hi);
    let floor = lo.sqrt();
    let mut degree = cfg.max_degree.min(nq - 1);
    let mut tail: f64 = coeffs[degree..].iter().map(|c| c.abs()).sum();
    for m in 1..=cfg.max_degree.min(nq - 1) {
        let t: f64 = coeffs[m + 1..].iter().map(|c| c.abs()).sum();
        if t <= cfg.tol * floor {
            degree = m;
            tail = t;
            break;
        }
    }

    // Clenshaw-style three-term recurrence in the operator:
    // y = 2/(hi-lo) (M x) - (hi+lo)/(hi-lo) x maps the spectrum to [-1, 1].
    let scale = 2.0 / (hi - lo);
    let shift = (hi + lo) / (hi - lo);

    let mut t_prev = z.to_vec(); // T_0 z
    let mut t_cur = vec![0.0; n]; // T_1 z
    apply_shifted(op, scale, shift, &t_prev, &mut t_cur);
    let mut g: Vec<f64> = t_prev.iter().map(|v| 0.5 * coeffs[0] * v).collect();
    if degree >= 1 {
        for (gi, ti) in g.iter_mut().zip(&t_cur) {
            *gi += coeffs[1] * ti;
        }
    }
    let mut t_next = vec![0.0; n];
    for &ck in coeffs.iter().take(degree + 1).skip(2) {
        recurrence_step(op, scale, shift, ck, &t_prev, &t_cur, &mut t_next, &mut g);
        std::mem::swap(&mut t_prev, &mut t_cur);
        std::mem::swap(&mut t_cur, &mut t_next);
    }

    Ok((
        g,
        ChebyshevStats { degree, bound_applications: bound_apps, poly_error: tail / floor, bounds },
    ))
}

/// Chebyshev interpolation coefficients of `f` on `[lo, hi]`:
/// `f(x) ≈ c0/2 + Σ_{k>=1} c_k T_k(t(x))`.
pub fn chebyshev_coefficients(nq: usize, f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> Vec<f64> {
    let mut c = vec![0.0; nq];
    let half = 0.5 * (hi - lo);
    let mid = 0.5 * (hi + lo);
    // Function values at the Chebyshev nodes.
    let vals: Vec<f64> = (0..nq)
        .map(|j| {
            let theta = std::f64::consts::PI * (j as f64 + 0.5) / nq as f64;
            f(mid + half * theta.cos())
        })
        .collect();
    for (k, ck) in c.iter_mut().enumerate() {
        let mut s = 0.0;
        for (j, v) in vals.iter().enumerate() {
            let theta = std::f64::consts::PI * (j as f64 + 0.5) / nq as f64;
            s += v * (k as f64 * theta).cos();
        }
        *ck = 2.0 * s / nq as f64;
    }
    c
}

/// Shifted operator application `out = scale (M x) - shift x`, mapping the
/// spectrum of `M` onto `[-1, 1]` for the Chebyshev recurrence.
fn apply_shifted(op: &mut dyn LinearOperator, scale: f64, shift: f64, x: &[f64], out: &mut [f64]) {
    op.apply(x, out);
    for (o, xv) in out.iter_mut().zip(x) {
        *o = scale * *o - shift * xv;
    }
}

/// One degree of the three-term recurrence `T_k z = 2 y(T_{k-1} z) - T_{k-2} z`
/// plus the accumulation `g += c_k T_k z`. All work happens in caller-owned
/// buffers: one polynomial degree costs exactly one operator application.
#[allow(clippy::too_many_arguments)]
fn recurrence_step(
    op: &mut dyn LinearOperator,
    scale: f64,
    shift: f64,
    ck: f64,
    t_prev: &[f64],
    t_cur: &[f64],
    t_next: &mut [f64],
    g: &mut [f64],
) {
    apply_shifted(op, scale, shift, t_cur, t_next);
    for (nx, pv) in t_next.iter_mut().zip(t_prev) {
        *nx = 2.0 * *nx - pv;
    }
    for (gi, ti) in g.iter_mut().zip(t_next.iter()) {
        *gi += ck * ti;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_krylov::{lanczos_sqrt, KrylovConfig};
    use hibd_linalg::{sym_eig, DMat, DenseOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spd(n: usize, lo: f64, hi: f64, seed: u64) -> DMat {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = DMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let sym = DMat::from_fn(n, n, |i, j| raw[(i, j)] + raw[(j, i)]);
        let (_, v) = sym_eig(&sym).unwrap();
        let w: Vec<f64> =
            (0..n).map(|i| lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64).collect();
        let mut vw = v.clone();
        for i in 0..n {
            for j in 0..n {
                vw[(i, j)] *= w[j];
            }
        }
        vw.matmul(&v.transpose())
    }

    fn exact_sqrt_times(m: &DMat, x: &[f64]) -> Vec<f64> {
        let (w, v) = sym_eig(m).unwrap();
        let n = m.nrows();
        let mut tmp = vec![0.0; n];
        for j in 0..n {
            let mut s = 0.0;
            for i in 0..n {
                s += v[(i, j)] * x[i];
            }
            tmp[j] = s * w[j].max(0.0).sqrt();
        }
        let mut out = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                out[i] += v[(i, j)] * tmp[j];
            }
        }
        out
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        num / b.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    #[test]
    fn coefficients_reproduce_sqrt_on_interval() {
        let (lo, hi) = (0.3, 4.0);
        let c = chebyshev_coefficients(128, f64::sqrt, lo, hi);
        for i in 0..20 {
            let x = lo + (hi - lo) * i as f64 / 19.0;
            let t = (2.0 * x - hi - lo) / (hi - lo);
            // Clenshaw evaluation.
            let mut b1 = 0.0;
            let mut b2 = 0.0;
            for k in (1..c.len()).rev() {
                let b0 = 2.0 * t * b1 - b2 + c[k];
                b2 = b1;
                b1 = b0;
            }
            let val = t * b1 - b2 + 0.5 * c[0];
            assert!((val - x.sqrt()).abs() < 1e-10, "x={x}: {val} vs {}", x.sqrt());
        }
    }

    #[test]
    fn chebyshev_matches_exact_sqrt_with_given_bounds() {
        let n = 40;
        let m = spd(n, 0.5, 3.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = exact_sqrt_times(&m, &z);
        let cfg = ChebyshevConfig { tol: 1e-8, bounds: Some((0.4, 3.2)), ..Default::default() };
        let (g, stats) = chebyshev_sqrt(&mut DenseOp::new(m), &z, &cfg).unwrap();
        let err = rel_err(&g, &want);
        assert!(err < 1e-6, "rel err {err}, degree {}", stats.degree);
    }

    #[test]
    fn automatic_bounds_work() {
        let n = 30;
        let m = spd(n, 0.2, 2.0, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = exact_sqrt_times(&m, &z);
        let cfg = ChebyshevConfig { tol: 1e-6, ..Default::default() };
        let (g, stats) = chebyshev_sqrt(&mut DenseOp::new(m), &z, &cfg).unwrap();
        assert!(stats.bounds.0 <= 0.21 && stats.bounds.1 >= 1.99, "bounds {:?}", stats.bounds);
        let err = rel_err(&g, &want);
        assert!(err < 1e-4, "rel err {err}");
    }

    #[test]
    fn degree_grows_with_condition_number() {
        let z: Vec<f64> = (0..30).map(|i| ((i * 7 + 1) as f64 * 0.13).sin()).collect();
        let cfg = ChebyshevConfig { tol: 1e-6, ..Default::default() };
        let m_easy = spd(30, 1.0, 2.0, 7);
        let (_, s_easy) = chebyshev_sqrt(&mut DenseOp::new(m_easy), &z, &cfg).unwrap();
        let m_hard = spd(30, 0.01, 2.0, 8);
        let (_, s_hard) = chebyshev_sqrt(&mut DenseOp::new(m_hard), &z, &cfg).unwrap();
        assert!(
            s_hard.degree > 2 * s_easy.degree,
            "easy {} vs hard {}",
            s_easy.degree,
            s_hard.degree
        );
    }

    #[test]
    fn lanczos_needs_fewer_applications_than_chebyshev() {
        // The reason the paper prefers Krylov: it adapts to the spectrum
        // actually excited by z instead of covering the whole interval.
        let n = 60;
        let m = spd(n, 0.05, 4.0, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = exact_sqrt_times(&m, &z);

        let kcfg = KrylovConfig { tol: 1e-5, max_iter: 200, check_interval: 1 };
        let (gl, sl) = lanczos_sqrt(&mut DenseOp::new(m.clone()), &z, &kcfg).unwrap();
        let ccfg = ChebyshevConfig { tol: 1e-5, ..Default::default() };
        let (gc, sc) = chebyshev_sqrt(&mut DenseOp::new(m), &z, &ccfg).unwrap();

        assert!(rel_err(&gl, &want) < 1e-3);
        assert!(rel_err(&gc, &want) < 1e-3);
        assert!(
            sl.iterations < sc.degree + sc.bound_applications,
            "lanczos {} vs chebyshev {}",
            sl.iterations,
            sc.degree + sc.bound_applications
        );
    }

    #[test]
    fn rejects_indefinite_bounds() {
        let m = DMat::identity(4);
        let z = [1.0; 4];
        let cfg = ChebyshevConfig { bounds: Some((-1.0, 2.0)), ..Default::default() };
        assert!(chebyshev_sqrt(&mut DenseOp::new(m), &z, &cfg).is_err());
    }

    #[test]
    fn bound_estimation_brackets_true_spectrum() {
        let m = spd(25, 0.3, 2.5, 11);
        let (lo, hi) = estimate_spectrum_bounds(&mut DenseOp::new(m), 15).unwrap();
        assert!(lo <= 0.3 && lo > 0.0, "lo {lo}");
        assert!(hi >= 2.5, "hi {hi}");
    }

    #[test]
    fn chebyshev_displacements_have_mobility_covariance() {
        // Fluctuation-dissipation (the paper's Eq. 1) on the workload of
        // root `tests/fluctuation_dissipation.rs`: 12 particles at
        // phi = 0.2, the tuned PME operator, covariance of ~500 samples
        // against the dense Ewald mobility.
        let sys = crate::suspension(12, 0.2, 31);
        let params = hibd_pme::tune(12, 0.2, 1.0, 1.0, 1e-3).params;
        let dense = hibd_rpy::dense_ewald_mobility(
            sys.positions(),
            &hibd_rpy::RpyEwald::new(1.0, 1.0, params.box_l, 0.45, 1e-9),
        );
        let mut op = hibd_pme::PmeOperator::new(sys.positions(), params).unwrap();
        let dim = dense.nrows();
        let bounds = estimate_spectrum_bounds(&mut op, 15).unwrap();
        let ccfg = ChebyshevConfig { tol: 1e-4, bounds: Some(bounds), ..Default::default() };
        let mut rng = StdRng::seed_from_u64(133);
        let mut zc = vec![0.0; dim];
        let mut cov = DMat::zeros(dim, dim);
        let samples = 480;
        for _ in 0..samples {
            hibd_mathx::fill_standard_normal(&mut rng, &mut zc);
            let (d, _) = chebyshev_sqrt(&mut op, &zc, &ccfg).unwrap();
            for i in 0..dim {
                for j in 0..dim {
                    cov[(i, j)] += d[i] * d[j] / samples as f64;
                }
            }
        }
        let mut diff2 = 0.0;
        let mut norm2 = 0.0;
        for i in 0..dim {
            for j in 0..dim {
                diff2 += (cov[(i, j)] - dense[(i, j)]).powi(2);
                norm2 += dense[(i, j)].powi(2);
            }
        }
        let rel = (diff2 / norm2).sqrt();
        assert!(rel < 0.25, "Chebyshev covariance error {rel}");
    }
}
