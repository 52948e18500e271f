//! Thin QR factorization of tall skinny panels.
//!
//! Block Lanczos (paper Section III-B, ref. \[8\]) re-orthogonalizes an
//! `n x s` panel every iteration (`s = lambda_RPY` is small, 8–32). Modified
//! Gram–Schmidt with one re-orthogonalization pass is numerically adequate at
//! these panel widths and trivially parallel over the long dimension.

use crate::dmat::DMat;

/// Result of a thin QR: `A = Q R` with `Q` `n x s` orthonormal columns and
/// `R` `s x s` upper triangular.
#[derive(Clone, Debug)]
pub struct ThinQr {
    pub q: DMat,
    pub r: DMat,
    /// Columns whose norm collapsed below the breakdown tolerance; their `Q`
    /// columns were replaced by zeros and `R` diagonal by 0. A nonempty list
    /// signals (benign) Lanczos breakdown.
    pub deficient: Vec<usize>,
}

/// Factor a tall skinny `n x s` panel (`a` row-major, `n >= s`).
///
/// Uses modified Gram–Schmidt with a second orthogonalization pass
/// ("twice is enough").
pub fn thin_qr(a: &DMat) -> ThinQr {
    ThinQr::factor(a.clone())
}

impl ThinQr {
    /// [`thin_qr`] in place: the panel's buffer becomes `Q`.
    ///
    /// The panel stays row-major throughout; the only scratch is one
    /// contiguous column. Column `j`'s *first* pass against `q_0 .. q_{j-1}`
    /// is done right-looking — as soon as `q_k` is final it is projected out
    /// of every later column in sweeps whose inner loop runs along a row —
    /// and its *second* pass left-looking, just before it is normalized.
    /// Each column still sees the same projections in the same order, and
    /// every dot product still sums its rows first to last, so the factors
    /// are those of the textbook column-by-column loop to the bit. (The
    /// second pass is a chain of dependent additions `n` long per projection
    /// in any layout; that chain, not data movement, is what this costs.)
    pub fn factor(mut q: DMat) -> ThinQr {
        let (n, s) = (q.nrows(), q.ncols());
        assert!(n >= s, "panel must be tall: {n} x {s}");
        let mut r = DMat::zeros(s, s);
        let mut deficient = Vec::new();
        if s == 0 {
            return ThinQr { q, r, deficient };
        }
        let data = q.as_mut_slice();

        // One accumulator per column, swept along the rows: squared column
        // norms here, first-pass projections below.
        let mut acc = vec![0.0; s];
        for row in data.chunks_exact(s) {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v * v;
            }
        }
        let scale = acc.iter().map(|v| v.sqrt()).fold(0.0f64, f64::max).max(1e-300);

        let mut cj = vec![0.0; n];
        for j in 0..s {
            // Second pass of column j against the finished columns, on a
            // contiguous copy of the column, one sweep per column k:
            // subtract the projection on q_{k-1} found by the sweep before,
            // accumulate the one on q_k. The last sweep (k = j) accumulates
            // the column's own squared norm.
            for (c, row) in cj.iter_mut().zip(data.chunks_exact(s)) {
                *c = row[j];
            }
            let mut proj = 0.0;
            for k in 0..=j {
                let mut sum = 0.0;
                for (c, row) in cj.iter_mut().zip(data.chunks_exact(s)) {
                    if k > 0 {
                        *c -= proj * row[k - 1];
                    }
                    sum += if k < j { row[k] } else { *c } * *c;
                }
                if k < j {
                    r[(k, j)] += sum;
                }
                proj = sum;
            }
            let norm = proj.sqrt();
            let inv = if norm <= 1e-14 * scale {
                deficient.push(j);
                None
            } else {
                r[(j, j)] = norm;
                Some(norm)
            };
            // Normalize q_j and take the first pass of every later column
            // against it: projections in one sweep, subtraction in the next.
            let later = &mut acc[j + 1..];
            later.fill(0.0);
            for (c, row) in cj.iter().zip(data.chunks_exact_mut(s)) {
                row[j] = inv.map_or(0.0, |norm| c / norm);
                let qj = row[j];
                for (p, v) in later.iter_mut().zip(&row[j + 1..]) {
                    *p += qj * v;
                }
            }
            r.row_mut(j)[j + 1..].copy_from_slice(later);
            for row in data.chunks_exact_mut(s) {
                let qj = row[j];
                for (v, p) in row[j + 1..].iter_mut().zip(&*later) {
                    *v -= p * qj;
                }
            }
        }
        ThinQr { q, r, deficient }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_panel(n: usize, s: usize, seed: u64) -> DMat {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        DMat::from_fn(n, s, |_, _| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    #[test]
    fn qr_reconstructs_panel() {
        for (n, s) in [(10usize, 3usize), (50, 8), (7, 7), (100, 16)] {
            let a = random_panel(n, s, (n + s) as u64);
            let f = thin_qr(&a);
            assert!(f.deficient.is_empty());
            let qr = f.q.matmul(&f.r);
            assert!(qr.max_abs_diff(&a) < 1e-12, "({n},{s}): {}", qr.max_abs_diff(&a));
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = random_panel(40, 10, 5);
        let f = thin_qr(&a);
        let gram = f.q.tr_matmul(&f.q);
        let eye = DMat::identity(10);
        assert!(gram.max_abs_diff(&eye) < 1e-13);
    }

    #[test]
    fn r_is_upper_triangular_with_nonnegative_diagonal() {
        let a = random_panel(20, 6, 9);
        let f = thin_qr(&a);
        for i in 0..6 {
            assert!(f.r[(i, i)] >= 0.0);
            for j in 0..i {
                assert_eq!(f.r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn detects_rank_deficiency() {
        // Third column = sum of the first two.
        let mut a = random_panel(30, 3, 1);
        for i in 0..30 {
            a[(i, 2)] = a[(i, 0)] + a[(i, 1)];
        }
        let f = thin_qr(&a);
        assert_eq!(f.deficient, vec![2]);
        // Q's surviving columns are still orthonormal and reconstruct A.
        let qr = f.q.matmul(&f.r);
        assert!(qr.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn already_orthogonal_input_is_fixed_point() {
        let n = 12;
        let a = DMat::identity(n);
        let f = thin_qr(&a);
        assert!(f.q.max_abs_diff(&DMat::identity(n)) < 1e-15);
        assert!(f.r.max_abs_diff(&DMat::identity(n)) < 1e-15);
    }

    #[test]
    fn severely_ill_conditioned_panel_stays_orthogonal() {
        // Nearly parallel columns stress MGS; the second pass must rescue
        // orthogonality.
        let n = 50;
        let base = random_panel(n, 1, 2);
        let mut a = DMat::zeros(n, 3);
        let eps = 1e-9;
        let pert1 = random_panel(n, 1, 3);
        let pert2 = random_panel(n, 1, 4);
        for i in 0..n {
            a[(i, 0)] = base[(i, 0)];
            a[(i, 1)] = base[(i, 0)] + eps * pert1[(i, 0)];
            a[(i, 2)] = base[(i, 0)] - eps * pert2[(i, 0)];
        }
        let f = thin_qr(&a);
        let gram = f.q.tr_matmul(&f.q);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((gram[(i, j)] - want).abs() < 1e-10, "gram[{i},{j}] = {}", gram[(i, j)]);
            }
        }
    }
}
