//! Row-major dense matrix.

use rayon::prelude::*;

/// Dense `nrows x ncols` matrix, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct DMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DMat {
    pub fn zeros(nrows: usize, ncols: usize) -> DMat {
        DMat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    pub fn identity(n: usize) -> DMat {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> DMat {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        DMat { nrows, ncols, data }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> DMat {
        assert_eq!(data.len(), nrows * ncols);
        DMat { nrows, ncols, data }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The row-major buffer itself (no copy).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Two disjoint mutable rows (`i != j`).
    pub fn rows_mut2(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(i, j);
        let nc = self.ncols;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * nc);
            (&mut a[i * nc..(i + 1) * nc], &mut b[..nc])
        } else {
            let (a, b) = self.data.split_at_mut(i * nc);
            (&mut b[..nc], &mut a[j * nc..(j + 1) * nc])
        }
    }

    /// `y = A x`, parallel over rows.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            *yi = dot(self.row(i), x);
        });
    }

    /// `Y = A X` with `X` row-major `[ncols][s]`, `Y` row-major `[nrows][s]`.
    pub fn mul_multi(&self, x: &[f64], y: &mut [f64], s: usize) {
        assert_eq!(x.len(), self.ncols * s);
        assert_eq!(y.len(), self.nrows * s);
        y.par_chunks_mut(s).enumerate().for_each(|(i, yrow)| {
            yrow.fill(0.0);
            for (aij, xrow) in self.row(i).iter().zip(x.chunks_exact(s)) {
                if *aij != 0.0 {
                    for (o, xv) in yrow.iter_mut().zip(xrow) {
                        *o += aij * xv;
                    }
                }
            }
        });
    }

    /// `C = A * B` (parallel over rows of C, ikj order).
    pub fn matmul(&self, b: &DMat) -> DMat {
        assert_eq!(self.ncols, b.nrows);
        let mut c = DMat::zeros(self.nrows, b.ncols);
        let bn = b.ncols;
        c.data.par_chunks_mut(bn).enumerate().for_each(|(i, crow)| {
            for (k, aik) in self.row(i).iter().enumerate() {
                if *aik != 0.0 {
                    let brow = b.row(k);
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aik * bv;
                    }
                }
            }
        });
        c
    }

    /// `self += alpha * (A * B)` without materializing the product: each
    /// row of `A * B` is formed exactly as [`DMat::matmul`] forms it (ikj
    /// order, zero-skipping, accumulated from zero) in a row-sized buffer,
    /// then added. For `alpha = 1` / `alpha = -1` the result is therefore
    /// bitwise `self + a.matmul(b)` / `self - a.matmul(b)` — minus the
    /// `nrows x ncols` temporary, which is what block Lanczos' projections
    /// (`W -= V P`, a dozen per iteration) used to allocate.
    pub fn add_scaled_matmul(&mut self, alpha: f64, a: &DMat, b: &DMat) {
        assert_eq!(a.ncols, b.nrows);
        assert_eq!((self.nrows, self.ncols), (a.nrows, b.ncols));
        let bn = b.ncols;
        self.data.par_chunks_mut(bn).enumerate().for_each_init(
            || vec![0.0; bn],
            |prod, (i, crow)| {
                prod.fill(0.0);
                for (k, aik) in a.row(i).iter().enumerate() {
                    if *aik != 0.0 {
                        for (pv, bv) in prod.iter_mut().zip(b.row(k)) {
                            *pv += aik * bv;
                        }
                    }
                }
                for (cv, pv) in crow.iter_mut().zip(&*prod) {
                    *cv += alpha * pv;
                }
            },
        );
    }

    /// `C = A^T * B` where `A` is `n x p`, `B` is `n x q` → `p x q`.
    ///
    /// The rows are cut into blocks of `TR_MATMUL_ROWS` = 128 (boundaries depend
    /// on `nrows` only), each block's partial product is accumulated row by
    /// row from zero — in parallel across blocks — and the partials are added
    /// in block order. The summation tree is therefore fixed by the shape:
    /// the result is the same bits at every thread count.
    pub fn tr_matmul(&self, b: &DMat) -> DMat {
        assert_eq!(self.nrows, b.nrows);
        let (p, q) = (self.ncols, b.ncols);
        let mut c = DMat::zeros(p, q);
        if p * q == 0 {
            return c;
        }
        if self.nrows <= TR_MATMUL_ROWS {
            tr_matmul_rows(self, b, 0..self.nrows, &mut c.data);
            return c;
        }
        let mut partials = vec![0.0; self.nrows.div_ceil(TR_MATMUL_ROWS) * p * q];
        partials.par_chunks_mut(p * q).enumerate().for_each(|(blk, part)| {
            let start = blk * TR_MATMUL_ROWS;
            tr_matmul_rows(self, b, start..(start + TR_MATMUL_ROWS).min(self.nrows), part);
        });
        for part in partials.chunks_exact(p * q) {
            for (cv, pv) in c.data.iter_mut().zip(part) {
                *cv += pv;
            }
        }
        c
    }

    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Largest absolute entry of `A - B`.
    pub fn max_abs_diff(&self, other: &DMat) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum asymmetry `max |A_ij - A_ji|` (square matrices).
    pub fn max_asymmetry(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        let mut m = 0.0f64;
        for i in 0..self.nrows {
            for j in 0..i {
                m = m.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        m
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * 8
    }
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

/// Row-block height of [`DMat::tr_matmul`]'s fixed summation tree.
const TR_MATMUL_ROWS: usize = 128;

/// `c += A[rows]^T B[rows]` (`c` row-major `p x q`), one row at a time.
fn tr_matmul_rows(a: &DMat, b: &DMat, rows: std::ops::Range<usize>, c: &mut [f64]) {
    let q = b.ncols;
    for i in rows {
        let brow = b.row(i);
        for (av, crow) in a.row(i).iter().zip(c.chunks_exact_mut(q)) {
            if *av != 0.0 {
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

/// Plain dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_and_identity() {
        let i3 = DMat::identity(3);
        assert_eq!(i3[(0, 0)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        i3.mul_vec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn matmul_reference() {
        let a = DMat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DMat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn add_scaled_matmul_is_matmul_then_add_bitwise() {
        // Tall-skinny times small, as block Lanczos uses it; the second case
        // plants zeros (skipped by both forms) and a zero-bearing target.
        let lcg = |seed: u64| {
            let mut state = seed;
            move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        };
        for zeros in [false, true] {
            let mut next = lcg(7 + u64::from(zeros));
            let mut gen = |r: usize, c: usize| {
                DMat::from_fn(r, c, |i, j| {
                    let v = next();
                    if zeros && (i + 2 * j) % 3 == 0 {
                        0.0
                    } else {
                        v
                    }
                })
            };
            let (a, b, c) = (gen(37, 5), gen(5, 4), gen(37, 4));
            let prod = a.matmul(&b);
            for alpha in [-1.0, 1.0] {
                let mut fused = c.clone();
                fused.add_scaled_matmul(alpha, &a, &b);
                let want = DMat::from_fn(37, 4, |i, j| {
                    if alpha < 0.0 {
                        c[(i, j)] - prod[(i, j)]
                    } else {
                        c[(i, j)] + prod[(i, j)]
                    }
                });
                let bits = |m: &DMat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fused), bits(&want), "alpha {alpha}, zeros {zeros}");
            }
        }
        let m = DMat::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(m.into_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let a = DMat::from_fn(5, 3, |i, j| (i * 3 + j) as f64 * 0.3 - 1.0);
        let b = DMat::from_fn(5, 4, |i, j| ((i + 2 * j) as f64).sin());
        let c1 = a.tr_matmul(&b);
        let c2 = a.transpose().matmul(&b);
        assert!(c1.max_abs_diff(&c2) < 1e-13);
    }

    #[test]
    fn tr_matmul_is_its_block_tree_bitwise() {
        // The same tree evaluated serially with explicit transposes: blocks
        // of TR_MATMUL_ROWS rows, each partial accumulated row by row from
        // zero, partials added in block order (a single block is its own
        // partial). Whatever the thread count, `tr_matmul` must return these
        // bits. 599 / 600 are the periodic ladder panel and its neighbour,
        // 6000 the open one.
        let bits = |m: &DMat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for nrows in [1usize, 599, 600, 6000] {
            let mut state = nrows as u64;
            let mut gen = |cols: usize| {
                DMat::from_fn(nrows, cols, |i, j| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // A few exact zeros: both forms skip them.
                    if (i + j) % 11 == 0 {
                        0.0
                    } else {
                        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                    }
                })
            };
            let (a, b) = (gen(16), gen(16));
            let mut want = DMat::zeros(16, 16);
            for start in (0..nrows).step_by(TR_MATMUL_ROWS) {
                let mut part = DMat::zeros(16, 16);
                for i in start..(start + TR_MATMUL_ROWS).min(nrows) {
                    for k in 0..16 {
                        for l in 0..16 {
                            if a[(i, k)] != 0.0 {
                                part[(k, l)] += a[(i, k)] * b[(i, l)];
                            }
                        }
                    }
                }
                if nrows <= TR_MATMUL_ROWS {
                    want = part;
                } else {
                    for (w, p) in want.as_mut_slice().iter_mut().zip(part.as_slice()) {
                        *w += p;
                    }
                }
            }
            assert_eq!(bits(&a.tr_matmul(&b)), bits(&want), "nrows = {nrows}");
        }
    }

    #[test]
    fn mul_multi_matches_mul_vec() {
        let a = DMat::from_fn(4, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let s = 3;
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut y = vec![0.0; 12];
        a.mul_multi(&x, &mut y, s);
        for col in 0..s {
            let xc: Vec<f64> = (0..4).map(|r| x[r * s + col]).collect();
            let mut yc = vec![0.0; 4];
            a.mul_vec(&xc, &mut yc);
            for r in 0..4 {
                assert!((y[r * s + col] - yc[r]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn rows_mut2_both_orders() {
        let mut a = DMat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        {
            let (r0, r2) = a.rows_mut2(0, 2);
            r0[0] = -1.0;
            r2[1] = -2.0;
        }
        {
            let (r2, r1) = a.rows_mut2(2, 1);
            r2[0] = 9.0;
            r1[0] = 8.0;
        }
        assert_eq!(a.as_slice(), &[-1.0, 1.0, 8.0, 3.0, 9.0, -2.0]);
    }

    #[test]
    fn norms_and_asymmetry() {
        let a = DMat::from_vec(2, 2, vec![1.0, 2.0, 2.5, -1.0]);
        assert!((a.fro_norm() - (1.0f64 + 4.0 + 6.25 + 1.0).sqrt()).abs() < 1e-15);
        assert!((a.max_asymmetry() - 0.5).abs() < 1e-15);
    }
}
