//! Block CSR with dense 3x3 blocks — the real-space RPY operator.
//!
//! The real-space Ewald sum couples each pair of particles within the cutoff
//! `r_max` through a 3x3 tensor (paper Section IV-C). Storing those tensors
//! as dense row-major blocks amortizes index overhead 9x compared to scalar
//! CSR and keeps the inner SpMV kernel fully unrolled, mirroring the BCSR
//! kernels of the paper's refs. \[24\] and \[26\].
//!
//! Block row `i` acts on particle `i`'s 3-vector; the logical scalar matrix
//! is `3*nbrows x 3*nbcols`.

use hibd_hot as hibd;
use rayon::prelude::*;

/// Builder accumulating 3x3 blocks in coordinate form.
#[derive(Clone, Debug)]
pub struct Bcsr3Builder {
    nbrows: usize,
    nbcols: usize,
    entries: Vec<(usize, usize, [f64; 9])>,
}

impl Bcsr3Builder {
    pub fn new(nbrows: usize, nbcols: usize) -> Self {
        Bcsr3Builder { nbrows, nbcols, entries: Vec::new() }
    }

    /// Record `A[bi, bj] += block` (row-major 3x3).
    pub fn push(&mut self, bi: usize, bj: usize, block: [f64; 9]) {
        debug_assert!(bi < self.nbrows && bj < self.nbcols);
        self.entries.push((bi, bj, block));
    }

    /// Number of accumulated (pre-merge) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge entries of several builders (parallel assembly pattern: one
    /// builder per thread, then concatenate).
    pub fn append(&mut self, other: &mut Bcsr3Builder) {
        assert_eq!(self.nbrows, other.nbrows);
        assert_eq!(self.nbcols, other.nbcols);
        self.entries.append(&mut other.entries);
    }

    /// Assemble, summing duplicate blocks, block columns sorted per row.
    ///
    /// A counting sort by block row straight into the final arrays: entries
    /// are bucketed per row through an index permutation (the 88-byte
    /// entries themselves never move), each row's indices are sorted by
    /// column, and every block is copied exactly once. Duplicates of one
    /// `(row, column)` are summed in push order.
    pub fn build(self) -> Bcsr3 {
        let entries = &self.entries;
        assert!(entries.len() <= u32::MAX as usize, "too many blocks for u32 entry indices");
        // Pre-merge row bounds, then the entry indices bucketed by row in
        // push order.
        let mut starts = vec![0usize; self.nbrows + 1];
        for e in entries {
            starts[e.0 + 1] += 1;
        }
        for i in 0..self.nbrows {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; entries.len()];
        for (e, entry) in entries.iter().enumerate() {
            order[cursor[entry.0]] = e as u32;
            cursor[entry.0] += 1;
        }
        let mut indptr = Vec::with_capacity(self.nbrows + 1);
        let mut indices: Vec<u32> = Vec::with_capacity(entries.len());
        let mut blocks: Vec<[f64; 9]> = Vec::with_capacity(entries.len());
        for br in 0..self.nbrows {
            indptr.push(blocks.len());
            let row = &mut order[starts[br]..starts[br + 1]];
            // The entry index breaks column ties, so equal columns stay in
            // push order without a stable (allocating) sort.
            row.sort_unstable_by_key(|&e| (entries[e as usize].1, e));
            let mut open_col = None; // column of the row's last pushed block
            for &e in row.iter() {
                let (_, col, blk) = &entries[e as usize];
                if open_col == Some(*col) {
                    let acc = blocks.len() - 1;
                    for (a, b) in blocks[acc].iter_mut().zip(blk) {
                        *a += b;
                    }
                } else {
                    indices.push(*col as u32);
                    blocks.push(*blk);
                    open_col = Some(*col);
                }
            }
        }
        indptr.push(blocks.len());
        Bcsr3 { nbrows: self.nbrows, nbcols: self.nbcols, indptr, indices, blocks }
    }
}

/// Block compressed sparse row matrix with 3x3 blocks.
#[derive(Clone, Debug)]
pub struct Bcsr3 {
    nbrows: usize,
    nbcols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    blocks: Vec<[f64; 9]>,
}

impl Bcsr3 {
    /// Number of block rows (particles).
    pub fn nbrows(&self) -> usize {
        self.nbrows
    }

    pub fn nbcols(&self) -> usize {
        self.nbcols
    }

    /// Number of stored 3x3 blocks.
    pub fn nblocks(&self) -> usize {
        self.blocks.len()
    }

    /// Memory footprint in bytes (blocks + indices + row pointers).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.len() * 72 + self.indices.len() * 4 + self.indptr.len() * 8
    }

    /// `(block columns, blocks)` of one block row.
    #[inline]
    pub fn row(&self, br: usize) -> (&[u32], &[[f64; 9]]) {
        let (s, e) = (self.indptr[br], self.indptr[br + 1]);
        (&self.indices[s..e], &self.blocks[s..e])
    }

    /// `y = A x` for `x` of length `3*nbcols`, parallel over block rows.
    #[hibd::hot]
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), 3 * self.nbcols);
        assert_eq!(y.len(), 3 * self.nbrows);
        y.par_chunks_mut(3).enumerate().for_each(|(br, yb)| {
            let (cols, blocks) = self.row(br);
            let mut acc = [0.0f64; 3];
            for (c, b) in cols.iter().zip(blocks) {
                let xb = &x[3 * *c as usize..3 * *c as usize + 3];
                acc[0] += b[0] * xb[0] + b[1] * xb[1] + b[2] * xb[2];
                acc[1] += b[3] * xb[0] + b[4] * xb[1] + b[5] * xb[2];
                acc[2] += b[6] * xb[0] + b[7] * xb[1] + b[8] * xb[2];
            }
            yb.copy_from_slice(&acc);
        });
    }

    /// `Y = A X` for `X` row-major `[3*nbcols][s]` — the paper's
    /// multiple-right-hand-side SpMV (ref. \[24\]), used when the same mobility
    /// operator acts on a block of `lambda_RPY` Krylov vectors.
    #[hibd::hot]
    pub fn mul_multi(&self, x: &[f64], y: &mut [f64], s: usize) {
        assert_eq!(x.len(), 3 * self.nbcols * s);
        assert_eq!(y.len(), 3 * self.nbrows * s);
        y.par_chunks_mut(3 * s).enumerate().for_each(|(br, yb)| {
            yb.fill(0.0);
            let (cols, blocks) = self.row(br);
            let (y0, rest) = yb.split_at_mut(s);
            let (y1, y2) = rest.split_at_mut(s);
            for (c, b) in cols.iter().zip(blocks) {
                let base = 3 * *c as usize * s;
                let x0 = &x[base..base + s];
                let x1 = &x[base + s..base + 2 * s];
                let x2 = &x[base + 2 * s..base + 3 * s];
                for j in 0..s {
                    y0[j] += b[0] * x0[j] + b[1] * x1[j] + b[2] * x2[j];
                    y1[j] += b[3] * x0[j] + b[4] * x1[j] + b[5] * x2[j];
                    y2[j] += b[6] * x0[j] + b[7] * x1[j] + b[8] * x2[j];
                }
            }
        });
    }

    /// Densify to a `3*nbrows x 3*nbcols` row-major matrix (tests only).
    pub fn to_dense(&self) -> Vec<f64> {
        let (nr, nc) = (3 * self.nbrows, 3 * self.nbcols);
        let mut d = vec![0.0; nr * nc];
        for br in 0..self.nbrows {
            let (cols, blocks) = self.row(br);
            for (c, b) in cols.iter().zip(blocks) {
                for i in 0..3 {
                    for j in 0..3 {
                        d[(3 * br + i) * nc + 3 * *c as usize + j] += b[3 * i + j];
                    }
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(v: f64) -> [f64; 9] {
        let mut b = [0.0; 9];
        for (i, x) in b.iter_mut().enumerate() {
            *x = v + i as f64 * 0.1;
        }
        b
    }

    fn example() -> Bcsr3 {
        let mut b = Bcsr3Builder::new(3, 3);
        b.push(0, 0, block(1.0));
        b.push(0, 2, block(2.0));
        b.push(2, 1, block(-1.0));
        b.build()
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = example();
        let dense = a.to_dense();
        let x: Vec<f64> = (0..9).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y = vec![0.0; 9];
        a.mul_vec(&x, &mut y);
        for r in 0..9 {
            let want: f64 = (0..9).map(|c| dense[r * 9 + c] * x[c]).sum();
            assert!((y[r] - want).abs() < 1e-14, "r={r}");
        }
    }

    #[test]
    fn empty_rows_give_zero() {
        let a = example();
        let x = vec![1.0; 9];
        let mut y = vec![7.0; 9]; // pre-filled garbage must be overwritten
        a.mul_vec(&x, &mut y);
        assert_eq!(&y[3..6], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn duplicate_blocks_sum() {
        let mut b = Bcsr3Builder::new(1, 1);
        b.push(0, 0, block(1.0));
        b.push(0, 0, block(2.0));
        let a = b.build();
        assert_eq!(a.nblocks(), 1);
        let d = a.to_dense();
        assert!((d[0] - 3.0).abs() < 1e-15);
    }

    #[test]
    fn build_matches_dense_accumulation_in_push_order() {
        // Random pushes, with and without repeated `(row, col)` pairs: the
        // built matrix must hold exactly the distinct pairs, columns strictly
        // ascending per row, each block the push-order sum of its entries
        // (bit for bit — the dense reference accumulates in that order).
        let mut state = 2014u64;
        let mut next = move |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for (nb, pushes, unique) in [(7, 40, true), (7, 200, false), (1, 5, false), (12, 0, true)] {
            let mut builder = Bcsr3Builder::new(nb, nb);
            let mut dense = vec![0.0; 9 * nb * nb];
            let mut seen = std::collections::BTreeSet::new();
            for k in 0..pushes {
                let (r, c) = (next(nb), next(nb));
                if unique && seen.contains(&(r, c)) {
                    continue;
                }
                seen.insert((r, c));
                let blk = block(0.37 * k as f64 - 3.0);
                builder.push(r, c, blk);
                for i in 0..3 {
                    for j in 0..3 {
                        dense[(3 * r + i) * 3 * nb + 3 * c + j] += blk[3 * i + j];
                    }
                }
            }
            let a = builder.build();
            assert_eq!(a.nblocks(), seen.len(), "nb={nb} pushes={pushes}");
            let mut stored = 0;
            for br in 0..nb {
                let (cols, blocks) = a.row(br);
                assert_eq!(cols.len(), blocks.len());
                assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {br}: {cols:?}");
                assert!(cols.iter().all(|&c| seen.contains(&(br, c as usize))));
                stored += cols.len();
            }
            assert_eq!(stored, seen.len());
            let got = a.to_dense();
            assert!(got.iter().zip(&dense).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn mul_multi_matches_column_wise_mul_vec() {
        let a = example();
        let s = 4;
        let x: Vec<f64> = (0..9 * s).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut y = vec![0.0; 9 * s];
        a.mul_multi(&x, &mut y, s);
        for col in 0..s {
            let xc: Vec<f64> = (0..9).map(|r| x[r * s + col]).collect();
            let mut yc = vec![0.0; 9];
            a.mul_vec(&xc, &mut yc);
            for r in 0..9 {
                assert!((y[r * s + col] - yc[r]).abs() < 1e-13, "r={r} col={col}");
            }
        }
    }

    #[test]
    fn builder_append_merges() {
        let mut b1 = Bcsr3Builder::new(2, 2);
        b1.push(0, 0, block(1.0));
        let mut b2 = Bcsr3Builder::new(2, 2);
        b2.push(1, 1, block(2.0));
        b2.push(0, 0, block(0.5));
        b1.append(&mut b2);
        assert!(b2.is_empty());
        let a = b1.build();
        assert_eq!(a.nblocks(), 2);
        let d = a.to_dense();
        assert!((d[0] - 1.5).abs() < 1e-15);
    }

    #[test]
    fn memory_accounting() {
        let a = example();
        assert_eq!(a.memory_bytes(), 3 * 72 + 3 * 4 + 4 * 8);
    }
}
