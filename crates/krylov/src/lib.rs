//! `hibd-krylov`: Krylov subspace computation of Brownian displacements.
//!
//! The Brownian displacement is `g = sqrt(2 kB T dt) M^{1/2} z` with
//! `z ~ N(0, I)`; the conventional algorithm computes `M^{1/2}` via a
//! Cholesky factor, which requires `M` as an explicit dense matrix. This
//! crate implements the matrix-free alternative of the paper (Section III-B,
//! ref. \[8\] — Ando, Chow, Saad & Skolnick, J. Chem. Phys. 137, 2012):
//!
//! * [`lanczos_sqrt`] — single-vector Lanczos: build the Krylov basis
//!   `K_m(M, z)`, project to a small tridiagonal `T_m`, and approximate
//!   `M^{1/2} z ≈ ||z|| V_m T_m^{1/2} e_1`;
//! * [`block_lanczos_sqrt`] — the block variant used by Algorithm 2: since
//!   the mobility matrix is reused for `lambda_RPY` time steps, all
//!   `lambda_RPY` displacement vectors are computed together, which both
//!   converges in fewer iterations and turns the real-space SpMV into a
//!   multi-RHS SpMM (paper refs. \[8\], \[24\]).
//!
//! Both run against any [`LinearOperator`], so they accept the dense Ewald
//! matrix and the PME operator interchangeably. Convergence is declared when
//! the relative change between successive iterates drops below the paper's
//! `e_k` tolerance.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels

use hibd_hot as hibd;
use hibd_linalg::{sym_sqrt_times_block, thin_qr, DMat, LinearOperator};

/// Options for the Lanczos square-root solvers.
#[derive(Clone, Copy, Debug)]
pub struct KrylovConfig {
    /// Relative-change convergence tolerance (the paper's `e_k`).
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iter: usize,
    /// Check convergence every this many iterations (checks cost `O(m^3)`
    /// eigen-solves of the projected matrix).
    pub check_interval: usize,
}

impl Default for KrylovConfig {
    fn default() -> Self {
        KrylovConfig { tol: 1e-2, max_iter: 200, check_interval: 1 }
    }
}

/// Outcome statistics.
#[derive(Clone, Copy, Debug)]
pub struct KrylovStats {
    /// Lanczos iterations performed (matrix applications for the single
    /// solver; block applications for the block solver).
    pub iterations: usize,
    /// Whether the relative-change criterion was met (a Lanczos breakdown —
    /// exact invariant subspace — also counts as converged).
    pub converged: bool,
    /// Last measured relative change.
    pub rel_change: f64,
}

/// Errors from the solvers.
#[derive(Clone, Debug, PartialEq)]
pub enum KrylovError {
    /// The projected matrix had a significantly negative eigenvalue: the
    /// operator is not positive semidefinite.
    NotPositiveSemidefinite { eigenvalue: f64 },
    /// Dimension/shape mismatch.
    BadShape(String),
}

impl std::fmt::Display for KrylovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KrylovError::NotPositiveSemidefinite { eigenvalue } => {
                write!(f, "operator is not PSD (projected eigenvalue {eigenvalue:e})")
            }
            KrylovError::BadShape(s) => write!(f, "bad shape: {s}"),
        }
    }
}

impl std::error::Error for KrylovError {}

/// Approximate `g = M^{1/2} z` for an SPD operator using single-vector
/// Terminal bookkeeping for a square-root solve: publish the iteration and
/// restart counts to the global telemetry recorder (each call to a Lanczos
/// solver builds a fresh Krylov space, i.e. one restart), then hand back the
/// result unchanged.
fn done(g: Vec<f64>, stats: KrylovStats) -> Result<(Vec<f64>, KrylovStats), KrylovError> {
    hibd_telemetry::incr(hibd_telemetry::Counter::LanczosRestarts, 1);
    hibd_telemetry::incr(hibd_telemetry::Counter::LanczosIterations, stats.iterations as u64);
    Ok((g, stats))
}

/// Lanczos with full reorthogonalization.
///
/// Returns the approximation and convergence statistics.
pub fn lanczos_sqrt(
    op: &mut dyn LinearOperator,
    z: &[f64],
    cfg: &KrylovConfig,
) -> Result<(Vec<f64>, KrylovStats), KrylovError> {
    let n = op.dim();
    if z.len() != n {
        return Err(KrylovError::BadShape(format!("z has {} entries, operator dim {n}", z.len())));
    }
    let beta0 = norm(z);
    if beta0 == 0.0 {
        return done(vec![0.0; n], KrylovStats { iterations: 0, converged: true, rel_change: 0.0 });
    }

    // Krylov basis vectors, alphas (diagonal of T), betas (subdiagonal).
    let mut v: Vec<Vec<f64>> = vec![z.iter().map(|x| x / beta0).collect()];
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new();

    let mut w = vec![0.0; n];
    let mut g_prev: Option<Vec<f64>> = None;
    let mut rel_change = f64::INFINITY;
    let mut breakdown = false;

    for j in 0..cfg.max_iter {
        op.apply(&v[j], &mut w);
        let a = dot(&v[j], &w);
        alpha.push(a);
        for (wi, vi) in w.iter_mut().zip(&v[j]) {
            *wi -= a * vi;
        }
        if j > 0 {
            let b = beta[j - 1];
            for (wi, vi) in w.iter_mut().zip(&v[j - 1]) {
                *wi -= b * vi;
            }
        }
        // Full reorthogonalization (cheap at these subspace sizes, avoids
        // the ghost-eigenvalue pathology).
        for vk in &v {
            let p = dot(vk, &w);
            for (wi, vi) in w.iter_mut().zip(vk) {
                *wi -= p * vi;
            }
        }
        let b = norm(&w);

        let check_now = (j + 1) % cfg.check_interval == 0 || j + 1 == cfg.max_iter;
        if b <= 1e-13 * beta0 {
            breakdown = true;
        } else {
            v.push(w.iter().map(|x| x / b).collect());
            beta.push(b);
        }

        if check_now || breakdown {
            let g = evaluate_sqrt_single(&v, &alpha, &beta, beta0)?;
            if let Some(prev) = &g_prev {
                rel_change = rel_diff(&g, prev);
                if rel_change < cfg.tol || breakdown {
                    return done(g, KrylovStats { iterations: j + 1, converged: true, rel_change });
                }
            } else if breakdown {
                return done(
                    g,
                    KrylovStats { iterations: j + 1, converged: true, rel_change: 0.0 },
                );
            }
            g_prev = Some(g);
        }
    }
    let g = g_prev.expect("at least one evaluation");
    done(g, KrylovStats { iterations: cfg.max_iter, converged: false, rel_change })
}

/// `g_m = beta0 * V_m * sqrt(T_m) * e_1` for the current tridiagonal.
fn evaluate_sqrt_single(
    v: &[Vec<f64>],
    alpha: &[f64],
    beta: &[f64],
    beta0: f64,
) -> Result<Vec<f64>, KrylovError> {
    let m = alpha.len();
    let mut t = DMat::zeros(m, m);
    for i in 0..m {
        t[(i, i)] = alpha[i];
        if i + 1 < m {
            t[(i, i + 1)] = beta[i];
            t[(i + 1, i)] = beta[i];
        }
    }
    let mut e1 = DMat::zeros(m, 1);
    e1[(0, 0)] = beta0;
    let coeffs = sym_sqrt_times_block(&t, &e1)
        .map_err(|w| KrylovError::NotPositiveSemidefinite { eigenvalue: w })?;
    let n = v[0].len();
    let mut g = vec![0.0; n];
    for (k, vk) in v.iter().take(m).enumerate() {
        let c = coeffs[(k, 0)];
        for (gi, vi) in g.iter_mut().zip(vk) {
            *gi += c * vi;
        }
    }
    Ok(g)
}

/// Approximate `G = M^{1/2} Z` for a block of `s` vectors (`z` row-major
/// `[n][s]`) with block Lanczos — Algorithm 2's displacement kernel.
///
/// ```
/// use hibd_krylov::{block_lanczos_sqrt, KrylovConfig};
/// use hibd_linalg::{DenseOp, DMat};
///
/// // M = diag(1, 4): sqrt(M) = diag(1, 2).
/// let m = DMat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 4.0]);
/// let z = vec![1.0, 1.0,   // row of particle-dof 0: two samples
///              1.0, 2.0];  // row of particle-dof 1
/// let (g, stats) =
///     block_lanczos_sqrt(&mut DenseOp::new(m), &z, 2, &KrylovConfig::default()).unwrap();
/// assert!(stats.converged);
/// assert!((g[0] - 1.0).abs() < 1e-10); // sqrt(1) * 1
/// assert!((g[3] - 4.0).abs() < 1e-10); // sqrt(4) * 2
/// ```
pub fn block_lanczos_sqrt(
    op: &mut dyn LinearOperator,
    z: &[f64],
    s: usize,
    cfg: &KrylovConfig,
) -> Result<(Vec<f64>, KrylovStats), KrylovError> {
    let n = op.dim();
    if s == 0 || z.len() != n * s {
        return Err(KrylovError::BadShape(format!(
            "z has {} entries, expected n*s = {}",
            z.len(),
            n * s
        )));
    }
    if n < s {
        return Err(KrylovError::BadShape(format!("block width {s} exceeds dimension {n}")));
    }

    // V_1 R = Z (thin QR); the copy of `z` the factorization reads dies here.
    let qr0 = thin_qr(&DMat::from_vec(n, s, z.to_vec()));
    let r0 = qr0.r;
    let mut panels: Vec<DMat> = vec![qr0.q];
    let mut a_blocks: Vec<DMat> = Vec::new(); // diagonal blocks A_j (s x s)
    let mut b_blocks: Vec<DMat> = Vec::new(); // subdiagonal blocks B_j (s x s)

    // W is reused across iterations; apply_multi writes the operator's
    // batched block product straight into it (it fully overwrites), and the
    // projections subtract `V P` row by row (`add_scaled_matmul`), so the
    // hot loop holds no `n x s` temporary besides W and the new panel.
    let mut wmat = DMat::zeros(n, s);
    let mut g_prev: Option<DMat> = None;
    let mut rel_change = f64::INFINITY;
    let mut breakdown = false;

    for j in 0..cfg.max_iter {
        op.apply_multi(panels[j].as_slice(), wmat.as_mut_slice(), s);
        if j > 0 {
            // W -= V_{j-1} B_{j-1}^T
            wmat.add_scaled_matmul(-1.0, &panels[j - 1], &b_blocks[j - 1].transpose());
        }
        // A_j = V_j^T W; W -= V_j A_j
        let aj = panels[j].tr_matmul(&wmat);
        wmat.add_scaled_matmul(-1.0, &panels[j], &aj);
        a_blocks.push(symmetrize(aj));
        // Full block reorthogonalization.
        for vk in &panels {
            let p = vk.tr_matmul(&wmat);
            wmat.add_scaled_matmul(-1.0, vk, &p);
        }
        let qr = thin_qr(&wmat);
        if qr.deficient.len() == s {
            breakdown = true;
        } else {
            b_blocks.push(qr.r.clone());
            panels.push(qr.q);
        }

        let check_now = (j + 1) % cfg.check_interval == 0 || j + 1 == cfg.max_iter;
        if check_now || breakdown {
            let g = evaluate_sqrt_block(&panels, &a_blocks, &b_blocks, &r0, s)?;
            if let Some(prev) = &g_prev {
                rel_change = rel_diff(g.as_slice(), prev.as_slice());
                if rel_change < cfg.tol || breakdown {
                    return done(
                        g.into_vec(),
                        KrylovStats { iterations: j + 1, converged: true, rel_change },
                    );
                }
            } else if breakdown {
                return done(
                    g.into_vec(),
                    KrylovStats { iterations: j + 1, converged: true, rel_change: 0.0 },
                );
            }
            g_prev = Some(g);
        }
    }
    let g = g_prev.expect("at least one evaluation");
    done(g.into_vec(), KrylovStats { iterations: cfg.max_iter, converged: false, rel_change })
}

/// `G_m = [V_1 .. V_m] * sqrt(T_m) * E_1 * R` for the current block
/// tridiagonal `T_m` (`m*s x m*s`).
fn evaluate_sqrt_block(
    panels: &[DMat],
    a_blocks: &[DMat],
    b_blocks: &[DMat],
    r0: &DMat,
    s: usize,
) -> Result<DMat, KrylovError> {
    let m = a_blocks.len();
    let ms = m * s;
    let mut t = DMat::zeros(ms, ms);
    for (jb, ab) in a_blocks.iter().enumerate() {
        for i in 0..s {
            for k in 0..s {
                t[(jb * s + i, jb * s + k)] = ab[(i, k)];
            }
        }
    }
    for (jb, bb) in b_blocks.iter().enumerate().take(m.saturating_sub(1)) {
        // T[(j+1)s + i, j s + k] = B_j[i, k]; symmetric counterpart mirrored.
        for i in 0..s {
            for k in 0..s {
                t[((jb + 1) * s + i, jb * s + k)] = bb[(i, k)];
                t[(jb * s + k, (jb + 1) * s + i)] = bb[(i, k)];
            }
        }
    }
    // E_1 R: ms x s block with R in the top block.
    let mut e1r = DMat::zeros(ms, s);
    for i in 0..s {
        for k in 0..s {
            e1r[(i, k)] = r0[(i, k)];
        }
    }
    let coeffs = sym_sqrt_times_block(&t, &e1r)
        .map_err(|w| KrylovError::NotPositiveSemidefinite { eigenvalue: w })?;
    // G = sum_j V_j * coeffs[j s .. (j+1) s, :]
    let n = panels[0].nrows();
    let mut g = DMat::zeros(n, s);
    for (jb, vj) in panels.iter().take(m).enumerate() {
        let cj = DMat::from_fn(s, s, |i, k| coeffs[(jb * s + i, k)]);
        g.add_scaled_matmul(1.0, vj, &cj);
    }
    Ok(g)
}

#[hibd::hot]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[hibd::hot]
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[hibd::hot]
fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
    let den = norm(a).max(1e-300);
    num / den
}

fn symmetrize(a: DMat) -> DMat {
    let n = a.nrows();
    DMat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_linalg::{sym_eig, DenseOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// SPD matrix with eigenvalues log-uniform in [lo, hi].
    fn spd_with_spectrum(n: usize, lo: f64, hi: f64, seed: u64) -> DMat {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = DMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let sym = DMat::from_fn(n, n, |i, j| raw[(i, j)] + raw[(j, i)]);
        let (_, v) = sym_eig(&sym);
        let w: Vec<f64> = (0..n).map(|_| (rng.gen_range(lo.ln()..hi.ln())).exp()).collect();
        // A = V diag(w) V^T
        let mut vw = v.clone();
        for i in 0..n {
            for j in 0..n {
                vw[(i, j)] *= w[j];
            }
        }
        vw.matmul(&v.transpose())
    }

    /// Exact M^{1/2} x via eigendecomposition.
    fn exact_sqrt_times(m: &DMat, x: &[f64]) -> Vec<f64> {
        let (w, v) = sym_eig(m);
        let n = m.nrows();
        let mut vtx = vec![0.0; n];
        for j in 0..n {
            let mut s = 0.0;
            for i in 0..n {
                s += v[(i, j)] * x[i];
            }
            vtx[j] = s * w[j].max(0.0).sqrt();
        }
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut s = 0.0;
            for j in 0..n {
                s += v[(i, j)] * vtx[j];
            }
            out[i] = s;
        }
        out
    }

    #[test]
    fn lanczos_converges_to_exact_sqrt() {
        let n = 40;
        let m = spd_with_spectrum(n, 0.2, 2.5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = exact_sqrt_times(&m, &z);
        let mut op = DenseOp::new(m);
        let cfg = KrylovConfig { tol: 1e-10, max_iter: 100, check_interval: 1 };
        let (g, stats) = lanczos_sqrt(&mut op, &z, &cfg).unwrap();
        assert!(stats.converged);
        let err = rel_diff(&g, &want);
        assert!(err < 1e-8, "rel err {err}, iters {}", stats.iterations);
    }

    #[test]
    fn looser_tolerance_costs_fewer_iterations() {
        let n = 60;
        let m = spd_with_spectrum(n, 0.05, 5.0, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tight = KrylovConfig { tol: 1e-8, max_iter: 100, check_interval: 1 };
        let loose = KrylovConfig { tol: 1e-2, max_iter: 100, check_interval: 1 };
        let (_, st) = lanczos_sqrt(&mut DenseOp::new(m.clone()), &z, &tight).unwrap();
        let (_, sl) = lanczos_sqrt(&mut DenseOp::new(m), &z, &loose).unwrap();
        assert!(sl.iterations < st.iterations, "{} !< {}", sl.iterations, st.iterations);
        assert!(sl.converged && st.converged);
    }

    #[test]
    fn identity_operator_is_exact_in_one_iteration() {
        let n = 10;
        let mut op = DenseOp::new(DMat::identity(n));
        let z: Vec<f64> = (0..n).map(|i| i as f64 - 4.5).collect();
        let cfg = KrylovConfig::default();
        let (g, stats) = lanczos_sqrt(&mut op, &z, &cfg).unwrap();
        // sqrt(I) z = z; breakdown after first iteration.
        assert!(stats.converged);
        assert!(rel_diff(&g, &z) < 1e-12);
    }

    #[test]
    fn zero_vector_yields_zero() {
        let mut op = DenseOp::new(DMat::identity(5));
        let (g, stats) = lanczos_sqrt(&mut op, &[0.0; 5], &KrylovConfig::default()).unwrap();
        assert_eq!(g, vec![0.0; 5]);
        assert!(stats.converged);
    }

    #[test]
    fn rejects_indefinite_operator() {
        let mut m = DMat::identity(4);
        m[(2, 2)] = -1.0;
        let mut op = DenseOp::new(m);
        let z = [1.0, 1.0, 1.0, 1.0];
        let cfg = KrylovConfig { tol: 1e-10, max_iter: 20, check_interval: 1 };
        let err = lanczos_sqrt(&mut op, &z, &cfg).unwrap_err();
        assert!(matches!(err, KrylovError::NotPositiveSemidefinite { .. }));
    }

    #[test]
    fn block_matches_exact_sqrt_per_column() {
        let n = 30;
        let s = 4;
        let m = spd_with_spectrum(n, 0.3, 3.0, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let z: Vec<f64> = (0..n * s).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cfg = KrylovConfig { tol: 1e-10, max_iter: 60, check_interval: 1 };
        let (g, stats) = block_lanczos_sqrt(&mut DenseOp::new(m.clone()), &z, s, &cfg).unwrap();
        assert!(stats.converged);
        for col in 0..s {
            let zc: Vec<f64> = (0..n).map(|i| z[i * s + col]).collect();
            let want = exact_sqrt_times(&m, &zc);
            let gc: Vec<f64> = (0..n).map(|i| g[i * s + col]).collect();
            let err = rel_diff(&gc, &want);
            assert!(err < 1e-7, "col {col}: rel err {err}");
        }
    }

    #[test]
    fn block_with_one_column_matches_single_vector() {
        let n = 25;
        let m = spd_with_spectrum(n, 0.5, 2.0, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cfg = KrylovConfig { tol: 1e-9, max_iter: 60, check_interval: 1 };
        let (g1, _) = lanczos_sqrt(&mut DenseOp::new(m.clone()), &z, &cfg).unwrap();
        let (gb, _) = block_lanczos_sqrt(&mut DenseOp::new(m), &z, 1, &cfg).unwrap();
        assert!(rel_diff(&g1, &gb) < 1e-6);
    }

    #[test]
    fn block_uses_fewer_iterations_per_vector() {
        // The paper's motivation (a): block Krylov needs fewer total
        // iterations than running the single-vector method s times.
        let n = 80;
        let s = 8;
        let m = spd_with_spectrum(n, 0.05, 5.0, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let z: Vec<f64> = (0..n * s).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let cfg = KrylovConfig { tol: 1e-4, max_iter: 100, check_interval: 1 };
        let (_, bs) = block_lanczos_sqrt(&mut DenseOp::new(m.clone()), &z, s, &cfg).unwrap();
        let zc: Vec<f64> = (0..n).map(|i| z[i * s]).collect();
        let (_, ss) = lanczos_sqrt(&mut DenseOp::new(m), &zc, &cfg).unwrap();
        assert!(
            bs.iterations <= ss.iterations,
            "block iters {} vs single iters {}",
            bs.iterations,
            ss.iterations
        );
    }

    #[test]
    fn covariance_of_samples_matches_m() {
        // E[g g^T] = M when z ~ N(0, I): the fluctuation-dissipation check.
        let n = 6;
        let m = spd_with_spectrum(n, 0.5, 2.0, 41);
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = KrylovConfig { tol: 1e-8, max_iter: 30, check_interval: 1 };
        let samples = 20_000;
        let mut cov = DMat::zeros(n, n);
        let mut z = vec![0.0; n];
        let mut op = DenseOp::new(m.clone());
        for _ in 0..samples {
            hibd_mathx_fill(&mut rng, &mut z);
            let (g, _) = lanczos_sqrt(&mut op, &z, &cfg).unwrap();
            for i in 0..n {
                for j in 0..n {
                    cov[(i, j)] += g[i] * g[j];
                }
            }
        }
        for v in cov.as_mut_slice() {
            *v /= samples as f64;
        }
        let scale = m.fro_norm();
        assert!(cov.max_abs_diff(&m) < 0.05 * scale, "covariance error {}", cov.max_abs_diff(&m));
    }

    /// Local standard-normal fill (Box–Muller) to avoid a dev-dependency on
    /// hibd-mathx just for tests.
    fn hibd_mathx_fill(rng: &mut StdRng, out: &mut [f64]) {
        for x in out.iter_mut() {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            *x = (-2.0 * u1.ln()).sqrt() * u2.cos();
        }
    }
}
