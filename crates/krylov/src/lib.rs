//! `hibd-krylov`: Krylov subspace computation of Brownian displacements.
//!
//! The Brownian displacement is `g = sqrt(2 kB T dt) M^{1/2} z` with
//! `z ~ N(0, I)`; the conventional algorithm computes `M^{1/2}` via a
//! Cholesky factor, which requires `M` as an explicit dense matrix. This
//! crate implements the matrix-free alternative of the paper (Section III-B,
//! ref. \[8\] — Ando, Chow, Saad & Skolnick, J. Chem. Phys. 137, 2012):
//!
//! * [`block_lanczos_sqrt`] — the block Lanczos used by Algorithm 2: since
//!   the mobility matrix is reused for `lambda_RPY` time steps, all
//!   `lambda_RPY` displacement vectors are computed together, which both
//!   converges in fewer iterations and turns the real-space SpMV into a
//!   multi-RHS SpMM (paper refs. \[8\], \[24\]). It builds an orthonormal
//!   basis `V_m` of the block Krylov space `K_m(M, Z)`, projects `M` to a
//!   small block tridiagonal `T_m`, and approximates
//!   `M^{1/2} Z ≈ V_m T_m^{1/2} E_1 R` (`Z = V_1 R`);
//! * [`lanczos_sqrt`] — the single-vector method, i.e. the same solver at
//!   block width one (`T_m` tridiagonal, `R = ||z||`).
//!
//! They run against any [`LinearOperator`], so they accept the dense Ewald
//! matrix and the PME operator interchangeably. Convergence is declared when
//! the relative change between successive iterates drops below the paper's
//! `e_k` tolerance. With orthonormal panels that change is the change of the
//! small coefficient block `c_m = T_m^{1/2} E_1 R`
//! (`||V_m c_m - V_{m-1} c_{m-1}||_F = ||c_m - [c_{m-1}; 0]||_F`), so it is
//! tested there and the `n x s` product `V_m c_m` is formed once, at the end.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels

use hibd_linalg::{sym_sqrt_times_block, DMat, EigError, LinearOperator, ThinQr};

/// Options for the Lanczos square-root solvers.
#[derive(Clone, Copy, Debug)]
pub struct KrylovConfig {
    /// Relative-change convergence tolerance (the paper's `e_k`).
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iter: usize,
    /// Check convergence every this many iterations. A check is one dense
    /// eigensolve of the `m*s x m*s` projected matrix plus an `m*s x s`
    /// norm — about a millisecond at `m*s = 100`, independent of the
    /// operator's dimension, against tens of milliseconds for one block
    /// apply at the shapes run here — so 1 is the right value unless `s` is
    /// very large.
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
    /// The operator's output at iteration `iteration` (1-based) holds a NaN
    /// or an infinity (`iteration` 0: the input block `z` does).
    NonFinite { iteration: usize },
    /// The eigensolve of the (finite) `dimension x dimension` projected
    /// matrix hit its QL sweep cap.
    EigensolveStalled { dimension: usize },
    /// Dimension/shape mismatch.
    BadShape(String),
}

impl std::fmt::Display for KrylovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KrylovError::NotPositiveSemidefinite { eigenvalue } => {
                write!(f, "operator is not PSD (projected eigenvalue {eigenvalue:e})")
            }
            KrylovError::NonFinite { iteration: 0 } => write!(f, "non-finite input block"),
            KrylovError::NonFinite { iteration } => {
                write!(f, "operator output is not finite (Lanczos iteration {iteration})")
            }
            KrylovError::EigensolveStalled { dimension } => {
                write!(f, "eigensolve of the {dimension} x {dimension} projected matrix stalled")
            }
            KrylovError::BadShape(s) => write!(f, "bad shape: {s}"),
        }
    }
}

impl std::error::Error for KrylovError {}

/// Approximate `g = M^{1/2} z` for an SPD operator with single-vector
/// Lanczos (full reorthogonalization): [`block_lanczos_sqrt`] at block width
/// one.
///
/// Returns the approximation and convergence statistics.
pub fn lanczos_sqrt(
    op: &mut dyn LinearOperator,
    z: &[f64],
    cfg: &KrylovConfig,
) -> Result<(Vec<f64>, KrylovStats), KrylovError> {
    block_lanczos_sqrt(op, z, 1, cfg)
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

    if !all_finite(z) {
        return Err(KrylovError::NonFinite { iteration: 0 });
    }
    // V_1 R = Z (thin QR, in place on the one copy of `z` made here).
    let ThinQr { q, r: r0, .. } = ThinQr::factor(DMat::from_vec(n, s, z.to_vec()));
    let mut panels: Vec<DMat> = vec![q];
    let mut a_blocks: Vec<DMat> = Vec::new(); // diagonal blocks A_j (s x s)
    let mut b_blocks: Vec<DMat> = Vec::new(); // subdiagonal blocks B_j (s x s)

    // Coefficients `c_m` (`m*s x s`) at the last convergence check.
    let mut coeffs: Option<DMat> = None;
    let mut rel_change = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;

    while iterations < cfg.max_iter && !converged {
        let j = iterations;
        iterations += 1;
        // W is born as the operator's batched block product (apply_multi
        // fully overwrites it), is projected in place row by row
        // (`add_scaled_matmul`), factored in place, and ends as the next
        // panel: the loop holds no other `n x s` buffer.
        let mut wmat = DMat::zeros(n, s);
        op.apply_multi(panels[j].as_slice(), wmat.as_mut_slice(), s);
        // Past this check T_m is finite: the eigensolve cannot be handed a
        // NaN, and an infinite column cannot pass for a breakdown.
        if !all_finite(wmat.as_slice()) {
            return Err(KrylovError::NonFinite { iteration: iterations });
        }
        if j > 0 {
            // W -= V_{j-1} B_{j-1}^T
            wmat.add_scaled_matmul(-1.0, &panels[j - 1], &b_blocks[j - 1].transpose());
        }
        // A_j = V_j^T W; W -= V_j A_j
        let aj = panels[j].tr_matmul(&wmat);
        wmat.add_scaled_matmul(-1.0, &panels[j], &aj);
        // Full block reorthogonalization.
        for vk in &panels {
            let p = vk.tr_matmul(&wmat);
            wmat.add_scaled_matmul(-1.0, vk, &p);
        }
        let qr = ThinQr::factor(wmat);
        a_blocks.push(symmetrize(aj));
        // Every column collapsed: the basis spans an invariant subspace.
        let breakdown = qr.deficient.len() == s;
        if !breakdown {
            b_blocks.push(qr.r);
            panels.push(qr.q);
        }

        if breakdown || iterations % cfg.check_interval == 0 || iterations == cfg.max_iter {
            let c = sqrt_coefficients(&a_blocks, &b_blocks, &r0, s)?;
            match &coeffs {
                Some(prev) => {
                    rel_change = padded_rel_diff(&c, prev);
                    converged = breakdown || rel_change < cfg.tol;
                }
                None if breakdown => {
                    rel_change = 0.0;
                    converged = true;
                }
                None => {}
            }
            coeffs = Some(c);
        }
    }

    // G = sum_j V_j c[j s .. (j+1) s, :], once. (`max_iter = 0` never
    // evaluates: the zero block.)
    let mut g = DMat::zeros(n, s);
    if let Some(c) = &coeffs {
        for (vj, cj) in panels.iter().zip(c.as_slice().chunks_exact(s * s)) {
            g.add_scaled_matmul(1.0, vj, &DMat::from_vec(s, s, cj.to_vec()));
        }
    }
    // Each call builds a fresh Krylov space, i.e. one restart.
    hibd_telemetry::incr(hibd_telemetry::Counter::LanczosRestarts, 1);
    hibd_telemetry::incr(hibd_telemetry::Counter::LanczosIterations, iterations as u64);
    Ok((g.into_vec(), KrylovStats { iterations, converged, rel_change }))
}

/// `c_m = sqrt(T_m) E_1 R` (`m*s x s`) for the current block tridiagonal
/// `T_m` (`m*s x m*s`): the coefficients of `G_m` in the basis
/// `[V_1 .. V_m]`.
fn sqrt_coefficients(
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
    e1r.as_mut_slice()[..s * s].copy_from_slice(r0.as_slice());
    sym_sqrt_times_block(&t, &e1r).map_err(|e| match e {
        EigError::Negative { eigenvalue } => KrylovError::NotPositiveSemidefinite { eigenvalue },
        EigError::NoConvergence { .. } => KrylovError::EigensolveStalled { dimension: ms },
    })
}

/// `||c - [prev; 0]||_F / ||c||_F` for coefficient blocks of the same width
/// (`prev` has fewer rows): the relative change `||G - G_prev|| / ||G||` of
/// the iterates they are the coefficients of.
fn padded_rel_diff(c: &DMat, prev: &DMat) -> f64 {
    let (head, tail) = c.as_slice().split_at(prev.as_slice().len());
    let moved: f64 = head.iter().zip(prev.as_slice()).map(|(x, y)| (x - y) * (x - y)).sum();
    let grown: f64 = tail.iter().map(|x| x * x).sum();
    (moved + grown).sqrt() / c.fro_norm().max(1e-300)
}

/// No NaN, no infinity (a branch-free scan: `O(n s)` beside an operator
/// apply).
fn all_finite(a: &[f64]) -> bool {
    !a.iter().fold(false, |bad, v| bad | !v.is_finite())
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

    fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        num / a.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300)
    }

    /// SPD matrix with eigenvalues log-uniform in [lo, hi].
    fn spd_with_spectrum(n: usize, lo: f64, hi: f64, seed: u64) -> DMat {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = DMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let sym = DMat::from_fn(n, n, |i, j| raw[(i, j)] + raw[(j, i)]);
        let (_, v) = sym_eig(&sym).unwrap();
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
        let (w, v) = sym_eig(m).unwrap();
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

    /// Every iterate the solver would have tested, recovered from outside:
    /// `tol = 0` never converges, so a run capped at `k` iterations returns
    /// `G_k` and, in `rel_change`, the coefficient-space change the solver
    /// measured at `k`. Stops once that change is under `floor` (or on a
    /// breakdown).
    fn iterates(m: &DMat, z: &[f64], s: usize, floor: f64) -> Vec<(Vec<f64>, f64)> {
        let mut out = Vec::new();
        for k in 1..=40 {
            let cfg = KrylovConfig { tol: 0.0, max_iter: k, check_interval: 1 };
            let (g, st) = block_lanczos_sqrt(&mut DenseOp::new(m.clone()), z, s, &cfg).unwrap();
            out.push((g, st.rel_change));
            if st.converged || st.rel_change < floor {
                break;
            }
        }
        out
    }

    /// The coefficient-space relative change is the `G`-space one the solver
    /// used to compute (`rel_diff` of successive `n x s` iterates), to
    /// `1e-10` relative (plus the `G`-space form's own roundoff floor), and
    /// stops every solve at the same iteration.
    fn assert_coefficient_test_is_the_g_space_test(m: &DMat, z: &[f64], s: usize) {
        let its = iterates(m, z, s, 1e-11);
        let old: Vec<f64> = its.windows(2).map(|w| rel_diff(&w[1].0, &w[0].0)).collect();
        for (k, (old, (_, new))) in old.iter().zip(&its[1..]).enumerate() {
            assert!(
                (old - new).abs() <= 1e-10 * old + 1e-14,
                "s = {s}, iteration {}: G-space {old:e} vs coefficient-space {new:e}",
                k + 2
            );
        }
        for tol in [1e-2, 1e-6, 1e-10] {
            // old[k] is the change measured at iteration k + 2.
            let want = old.iter().position(|&r| r < tol).expect("reaches every tol") + 2;
            let cfg = KrylovConfig { tol, max_iter: 40, check_interval: 1 };
            let (g, st) = block_lanczos_sqrt(&mut DenseOp::new(m.clone()), z, s, &cfg).unwrap();
            assert!(st.converged);
            assert_eq!(st.iterations, want, "s = {s}, tol = {tol:e}");
            // ... and returns that iteration's iterate, bit for bit.
            assert_eq!(g, its[want - 1].0, "s = {s}, tol = {tol:e}");
        }
    }

    #[test]
    fn coefficient_space_change_is_the_g_space_change() {
        for (s, n) in [(1usize, 60usize), (4, 120), (16, 320)] {
            let m = spd_with_spectrum(n, 0.2, 2.5, 50 + s as u64);
            let mut rng = StdRng::seed_from_u64(60 + s as u64);
            let z: Vec<f64> = (0..n * s).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_coefficient_test_is_the_g_space_test(&m, &z, s);
        }
    }

    #[test]
    fn coefficient_space_change_holds_with_a_deficient_column() {
        // M = diag(1.3, M') and the first sample along e_0, an eigenvector:
        // that column of W collapses at the first iteration (thin_qr zeroes
        // it and flags it deficient) while the other three go on, so every
        // later panel carries a zero column.
        let (n, s) = (81, 4);
        let inner = spd_with_spectrum(n - 1, 0.2, 2.5, 71);
        let m = DMat::from_fn(n, n, |i, j| match (i, j) {
            (0, 0) => 1.3,
            (0, _) | (_, 0) => 0.0,
            _ => inner[(i - 1, j - 1)],
        });
        let mut rng = StdRng::seed_from_u64(72);
        let mut z: Vec<f64> = (0..n * s).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for i in 0..n {
            z[i * s] = if i == 0 { 1.0 } else { 0.0 };
        }
        // The premise, checked on the first residual panel itself.
        let v1 = ThinQr::factor(DMat::from_vec(n, s, z.clone())).q;
        let mut w = m.matmul(&v1);
        let a1 = v1.tr_matmul(&w);
        w.add_scaled_matmul(-1.0, &v1, &a1);
        assert_eq!(ThinQr::factor(w).deficient, vec![0]);
        assert_coefficient_test_is_the_g_space_test(&m, &z, s);
    }

    /// Forwards to a dense operator and plants one NaN in the output of its
    /// third block apply.
    struct NanOnThirdApply {
        inner: DenseOp,
        applies: usize,
    }

    impl LinearOperator for NanOnThirdApply {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            self.apply_multi(x, y, 1);
        }
        fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
            self.inner.apply_multi(x, y, s);
            self.applies += 1;
            if self.applies == 3 {
                y[y.len() / 2] = f64::NAN;
            }
        }
    }

    #[test]
    fn non_finite_operator_output_is_a_typed_error() {
        let n = 40;
        let m = spd_with_spectrum(n, 0.05, 5.0, 81);
        let mut rng = StdRng::seed_from_u64(82);
        let cfg = KrylovConfig { tol: 1e-12, max_iter: 30, check_interval: 1 };
        for s in [1, 4] {
            let z: Vec<f64> = (0..n * s).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut op = NanOnThirdApply { inner: DenseOp::new(m.clone()), applies: 0 };
            let err = block_lanczos_sqrt(&mut op, &z, s, &cfg).unwrap_err();
            assert_eq!(err, KrylovError::NonFinite { iteration: 3 });
            assert_eq!(err.to_string(), "operator output is not finite (Lanczos iteration 3)");
            assert_eq!(op.applies, 3, "the solve stops at the faulty apply");

            let mut bad = z.clone();
            bad[s] = f64::INFINITY;
            let err = block_lanczos_sqrt(&mut DenseOp::new(m.clone()), &bad, s, &cfg).unwrap_err();
            assert_eq!(err, KrylovError::NonFinite { iteration: 0 });
        }
    }

    #[test]
    fn zero_iteration_cap_returns_the_zero_block_unconverged() {
        let cfg = KrylovConfig { tol: 1e-2, max_iter: 0, check_interval: 1 };
        let (g, st) =
            block_lanczos_sqrt(&mut DenseOp::new(DMat::identity(3)), &[1.0; 3], 1, &cfg).unwrap();
        assert_eq!((g, st.iterations, st.converged), (vec![0.0; 3], 0, false));
    }

    /// Absolute golden bits of one solve at the ladder's block width on a
    /// fixed dense operator (built without an eigensolve, from an LCG): pins
    /// serial == rayon against a value — CI runs this at `RAYON_NUM_THREADS`
    /// 1 and 3 on both `HIBD_SIMD` legs. Nothing under the solver dispatches
    /// on SIMD or calls `libm` beyond `sqrt`, so there is one hash.
    #[test]
    fn block_solve_golden_bits() {
        let (n, s) = (240, 16);
        let mut state = 0x2014_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = DMat::from_fn(n, n, |_, _| next());
        let mut m = b.matmul(&b.transpose());
        for i in 0..n {
            m[(i, i)] += 4.0;
        }
        let z: Vec<f64> = (0..n * s).map(|_| next()).collect();
        let cfg = KrylovConfig { tol: 1e-2, max_iter: 50, check_interval: 1 };
        let (g, st) = block_lanczos_sqrt(&mut DenseOp::new(m), &z, s, &cfg).unwrap();
        assert!(st.converged);
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for b in g.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!((st.iterations, h), (5, 0xe564_4e60_f120_b112), "got {h:#018x}");
    }
}
