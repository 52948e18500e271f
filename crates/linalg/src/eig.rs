//! Symmetric eigendecompositions and matrix square roots.
//!
//! The Krylov Brownian-displacement method reduces `M^{1/2} z` to the square
//! root of a *small* projected matrix `T` (tridiagonal for single-vector
//! Lanczos, block tridiagonal for block Lanczos). Those square roots are
//! computed through a full eigendecomposition `T = V diag(w) V^T` here.
//!
//! One solver: Householder reduction to tridiagonal form followed by
//! implicit-shift QL with accumulated transformations (the EISPACK
//! `tred2` / `tql2` pair). Block Lanczos re-solves its `m*s x m*s` `T_m`
//! (up to ~112 here) every iteration to test convergence, so the solve has to
//! be a few `n^3`, on unit-stride data: the working matrix is held
//! *transposed* (row `j` is EISPACK's column `j`), which turns every inner
//! loop of both routines — and the `V^T B` / `V X` products of
//! [`sym_sqrt_times_block`] — into contiguous row operations. Nothing here
//! calls into `libm` beyond `sqrt`, so results are the same bits on every
//! host.

use crate::dmat::{dot, DMat};

/// QL sweeps allowed per eigenvalue before [`EigError::NoConvergence`].
const MAX_QL_SWEEPS: usize = 30;

/// Failures of the eigensolver and of the square root built on it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EigError {
    /// Implicit QL did not isolate eigenvalue `index` within its sweep cap.
    /// Finite symmetric input converges in two or three sweeps; a non-finite
    /// entry is what ends here (never a panic, never an endless loop).
    NoConvergence { index: usize },
    /// [`sym_sqrt_times_block`] only: an eigenvalue is negative beyond
    /// roundoff, so the matrix has no real square root.
    Negative { eigenvalue: f64 },
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NoConvergence { index } => write!(
                f,
                "QL iteration did not converge for eigenvalue {index} in {MAX_QL_SWEEPS} sweeps"
            ),
            EigError::Negative { eigenvalue } => write!(f, "negative eigenvalue {eigenvalue:e}"),
        }
    }
}

impl std::error::Error for EigError {}

/// Eigendecomposition of a symmetric matrix: `a = V diag(w) V^T`.
///
/// Returns `(w, v)` with eigenvalues `w` ascending and the corresponding
/// eigenvectors as the *columns* of `v`. The symmetrized input
/// `(a + a^T)/2` is what is decomposed; minor asymmetry is tolerated.
pub fn sym_eig(a: &DMat) -> Result<(Vec<f64>, DMat), EigError> {
    let (w, rows) = sym_eig_rows(a)?;
    Ok((w, rows.transpose()))
}

/// [`sym_eig`] with the eigenvectors as the *rows* of the returned matrix
/// (the solver's native layout).
fn sym_eig_rows(a: &DMat) -> Result<(Vec<f64>, DMat), EigError> {
    assert_eq!(a.nrows(), a.ncols(), "matrix must be square");
    let n = a.nrows();
    let mut u = DMat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    if n > 0 {
        tred2(&mut u, &mut d, &mut e);
        e.rotate_left(1); // tred2 leaves the subdiagonal in e[1..]
    }
    tql2(&mut d, &mut e, &mut u)?;
    Ok(sorted_ascending(d, &u))
}

/// Eigendecomposition of a symmetric tridiagonal matrix given its diagonal
/// `d` and subdiagonal `e` (`e.len() == d.len() - 1`). Returns `(w, v)` like
/// [`sym_eig`].
pub fn tridiag_eig(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, DMat), EigError> {
    let n = d.len();
    assert!(n > 0);
    assert_eq!(e.len(), n - 1, "subdiagonal length must be n-1");
    let mut d = d.to_vec();
    let mut sub = e.to_vec();
    sub.push(0.0);
    let mut u = DMat::identity(n);
    tql2(&mut d, &mut sub, &mut u)?;
    let (w, rows) = sorted_ascending(d, &u);
    Ok((w, rows.transpose()))
}

/// Order eigenpairs (`u`'s rows) by ascending eigenvalue. `total_cmp`: a
/// stray non-finite value sorts somewhere instead of panicking.
fn sorted_ascending(d: Vec<f64>, u: &DMat) -> (Vec<f64>, DMat) {
    let n = d.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let w = idx.iter().map(|&i| d[i]).collect();
    (w, DMat::from_fn(n, n, |j, k| u[(idx[j], k)]))
}

/// `sqrt(a^2 + b^2)` without overflow, in IEEE operations only.
fn pythag(a: f64, b: f64) -> f64 {
    let m = a.abs().max(b.abs());
    if m == 0.0 {
        return 0.0;
    }
    let (x, y) = (a / m, b / m);
    m * (x * x + y * y).sqrt()
}

/// Householder reduction of the symmetric matrix in `u` to tridiagonal form
/// (EISPACK `tred2`). On return `d` is the diagonal, `e[1..]` the
/// subdiagonal (`e[0] = 0`) and row `j` of `u` is column `j` of the
/// accumulated orthogonal transformation.
fn tred2(u: &mut DMat, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = u[(j, n - 1)];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = u[(j, i - 1)];
                u[(j, i)] = 0.0;
                u[(i, j)] = 0.0;
            }
        } else {
            // Householder vector in d[..i].
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // e[..i] = A d / h over the leading i x i block, from its
            // stored triangle (row j holds entries j..i).
            for j in 0..i {
                let f = d[j];
                u[(i, j)] = f;
                let row = u.row(j);
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            // Rank-two update A -= d e^T + e d^T.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = u.row_mut(j);
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                row[i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n.saturating_sub(1) {
        u[(i, n - 1)] = u[(i, i)];
        u[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = u[(i + 1, k)] / h;
            }
            for j in 0..=i {
                let (row, hv) = u.rows_mut2(j, i + 1);
                let g = dot(&hv[..=i], &row[..=i]);
                for (x, dk) in row[..=i].iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        u.row_mut(i + 1)[..=i].fill(0.0);
    }
    for j in 0..n {
        d[j] = u[(j, n - 1)];
        u[(j, n - 1)] = 0.0;
    }
    u[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the symmetric tridiagonal `(d, e)` — `e[i]` couples
/// `d[i]` and `d[i + 1]`, `e[n - 1]` is ignored — applying every rotation to
/// the rows of `u` (EISPACK `tql2`). On return `d` holds the eigenvalues,
/// unordered, and row `j` of `u` the eigenvector of `d[j]`.
fn tql2(d: &mut [f64], e: &mut [f64], u: &mut DMat) -> Result<(), EigError> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // First negligible subdiagonal at or after l (e[n-1] = 0 stops the
        // scan on finite input; the explicit bound stops it on NaN).
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let small = f64::EPSILON * tst1;
        let m = (l..n - 1).find(|&m| e[m].abs() <= small).unwrap_or(n - 1);
        if m > l {
            let mut sweeps = 0;
            loop {
                if sweeps == MAX_QL_SWEEPS {
                    return Err(EigError::NoConvergence { index: l });
                }
                sweeps += 1;
                // Implicit shift from the leading 2 x 2.
                let g = d[l];
                let p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = if p < 0.0 { -pythag(p, 1.0) } else { pythag(p, 1.0) };
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                f += h;
                // QL sweep from m down to l.
                let mut p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = pythag(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (lo, hi) = u.rows_mut2(i, i + 1);
                    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                        let h = *y;
                        *y = s * *x + c * h;
                        *x = c * *x - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                // `!(<=)`: a NaN keeps iterating into the sweep cap.
                if e[l].abs() <= small {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Compute `sqrt(T) * B` for a small symmetric positive semidefinite `T`
/// (`k x k`) and a block `B` (`k x s`).
///
/// Tiny negative eigenvalues (roundoff from a PSD source) are clamped to
/// zero; a significantly negative eigenvalue (beyond `-1e-8 * max|w|`)
/// returns [`EigError::Negative`] with its value, signalling the source
/// operator was not PSD.
pub fn sym_sqrt_times_block(t: &DMat, b: &DMat) -> Result<DMat, EigError> {
    assert_eq!(t.nrows(), t.ncols());
    assert_eq!(t.nrows(), b.nrows());
    let (w, vt) = sym_eig_rows(t)?;
    let wmax = w.iter().fold(0.0f64, |m, &x| m.max(x.abs())).max(1e-300);
    if let Some(&eigenvalue) = w.iter().find(|&&wi| wi < -1e-8 * wmax) {
        return Err(EigError::Negative { eigenvalue });
    }
    // sqrt(T) B = V diag(sqrt w) V^T B
    let mut scaled = vt.matmul(b);
    for (i, wi) in w.iter().enumerate() {
        let sw = wi.max(0.0).sqrt();
        for x in scaled.row_mut(i) {
            *x *= sw;
        }
    }
    Ok(vt.tr_matmul(&scaled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_sym(n: usize, seed: u64) -> DMat {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = DMat::from_fn(n, n, |_, _| next());
        let bt = b.transpose();
        DMat::from_fn(n, n, |i, j| b[(i, j)] + bt[(i, j)])
    }

    fn check_decomposition(a: &DMat, w: &[f64], v: &DMat, tol: f64) {
        let n = a.nrows();
        // A v_j = w_j v_j
        for j in 0..n {
            let vj: Vec<f64> = (0..n).map(|i| v[(i, j)]).collect();
            let mut av = vec![0.0; n];
            a.mul_vec(&vj, &mut av);
            for i in 0..n {
                assert!(
                    (av[i] - w[j] * vj[i]).abs() < tol,
                    "residual at ({i},{j}): {} vs {}",
                    av[i],
                    w[j] * vj[i]
                );
            }
        }
        // V orthogonal
        let gram = v.tr_matmul(v);
        assert!(gram.max_abs_diff(&DMat::identity(n)) < tol);
    }

    #[test]
    fn known_2x2() {
        let a = DMat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (w, v) = sym_eig(&a).unwrap();
        assert!((w[0] - 1.0).abs() < 1e-13);
        assert!((w[1] - 3.0).abs() < 1e-13);
        check_decomposition(&a, &w, &v, 1e-12);
    }

    #[test]
    fn random_symmetric_matrices() {
        for n in [1usize, 2, 3, 8, 25, 60] {
            let a = random_sym(n, n as u64);
            let (w, v) = sym_eig(&a).unwrap();
            assert!(w.windows(2).all(|p| p[0] <= p[1]), "sorted ascending");
            check_decomposition(&a, &w, &v, 1e-10 * (n as f64).max(1.0));
            // Trace preserved.
            let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
            let ws: f64 = w.iter().sum();
            assert!((tr - ws).abs() < 1e-10 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn diagonal_matrix_is_trivial() {
        let a = DMat::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let (w, v) = sym_eig(&a).unwrap();
        assert_eq!(w, vec![1.0, 2.0, 3.0]);
        check_decomposition(&a, &w, &v, 1e-14);
    }

    #[test]
    fn tridiagonal_known_eigenvalues() {
        // The n x n tridiagonal (2, -1) matrix has eigenvalues
        // 2 - 2 cos(k pi/(n+1)).
        let n = 10;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let (w, v) = tridiag_eig(&d, &e).unwrap();
        for k in 1..=n {
            let want = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((w[k - 1] - want).abs() < 1e-12, "k={k}");
        }
        let mut a = DMat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        check_decomposition(&a, &w, &v, 1e-11);
    }

    #[test]
    fn sqrt_times_block_squares_back() {
        // T PSD: sqrt(T) applied twice = T applied once.
        let n = 12;
        let b = random_sym(n, 77);
        let t = b.matmul(&b.transpose()); // PSD
        let x = DMat::from_fn(n, 4, |i, j| ((i * 4 + j) as f64 * 0.21).sin());
        let s1 = sym_sqrt_times_block(&t, &x).unwrap();
        let s2 = sym_sqrt_times_block(&t, &s1).unwrap();
        let tx = t.matmul(&x);
        assert!(s2.max_abs_diff(&tx) < 1e-8 * tx.fro_norm().max(1.0));
    }

    #[test]
    fn sqrt_rejects_indefinite() {
        let a = DMat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalue -1
        let b = DMat::identity(2);
        let Err(EigError::Negative { eigenvalue }) = sym_sqrt_times_block(&a, &b) else {
            panic!("indefinite input must be rejected");
        };
        assert!((eigenvalue + 1.0).abs() < 1e-12);
    }

    #[test]
    fn sqrt_clamps_roundoff_negatives() {
        // PSD with an exactly-zero eigenvalue perturbed by tiny negative.
        let mut a = DMat::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = -1e-16;
        let b = DMat::identity(2);
        let s = sym_sqrt_times_block(&a, &b).unwrap();
        assert!((s[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(s[(1, 1)].abs() < 1e-8);
    }

    #[test]
    fn non_finite_input_is_a_typed_error_never_a_panic_or_a_hang() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(0, 0), (3, 3), (5, 5), (2, 0), (5, 4)] {
                let mut a = random_sym(6, 9);
                a[(i, j)] = bad;
                a[(j, i)] = bad;
                // Either outcome is in type; which one depends on where the
                // value sits. What must not happen is not returning.
                match sym_eig(&a) {
                    Ok((w, _)) => assert!(w.iter().any(|x| !x.is_finite()), "{bad} at ({i},{j})"),
                    Err(e) => assert!(matches!(e, EigError::NoConvergence { .. })),
                }
            }
        }
        // The case block Lanczos would meet: a NaN coupling in a tridiagonal.
        let err = tridiag_eig(&[2.0, 2.0, 2.0, 2.0], &[-1.0, f64::NAN, -1.0]).unwrap_err();
        assert_eq!(err, EigError::NoConvergence { index: 0 });
        assert_eq!(err.to_string(), "QL iteration did not converge for eigenvalue 0 in 30 sweeps");
    }
}
