//! The PSE near-field operator `N = M_self + M_real(xi)`.
//!
//! The complement of the wave-space sum under the positive (Hasimoto)
//! split: [`RpyHasimoto::real_tensor`] — overlap branch included — over the
//! pairs inside the cutoff, plus the `xi`-dependent self term. The cutoff is
//! the drift operator's `r_max <= L/2`, so only the minimum image of a pair
//! can lie inside it and one cell-list pass delivers exactly the
//! contributing pairs (the contract of `pme::real::assemble_real_space`, and
//! the same sparsity pattern). The self coefficient stays a scalar applied
//! on the fly (it would only pad the diagonal blocks).

use hibd_cells::CellList;
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_rpy::RpyHasimoto;
use hibd_sparse::{Bcsr3, Bcsr3Builder};

/// Sparse SPD near-field mobility as a [`LinearOperator`] for (block)
/// Lanczos. Applies count no FFTs — that is the whole point of the split.
#[derive(Clone, Debug)]
pub struct NearFieldOperator {
    n: usize,
    mat: Bcsr3,
    self_coef: f64,
    /// Column applies served (one per `apply`, `s` per `apply_multi`).
    matvec_columns: usize,
}

impl NearFieldOperator {
    /// Assemble for a configuration; needs `r_max <= L/2`.
    pub fn new(positions: &[Vec3], kernel: &RpyHasimoto, r_max: f64) -> NearFieldOperator {
        NearFieldOperator {
            n: positions.len(),
            mat: assemble(positions, kernel, r_max),
            self_coef: kernel.self_coefficient(),
            matvec_columns: 0,
        }
    }

    /// Re-assemble for new positions (operator refresh), keeping the
    /// cumulative matvec counter.
    pub fn rebuild(&mut self, positions: &[Vec3], kernel: &RpyHasimoto, r_max: f64) {
        self.n = positions.len();
        self.mat = assemble(positions, kernel, r_max);
        self.self_coef = kernel.self_coefficient();
    }

    /// The sparse pair part (zero diagonal blocks).
    pub fn matrix(&self) -> &Bcsr3 {
        &self.mat
    }

    /// Self-mobility coefficient added along the diagonal.
    pub fn self_coefficient(&self) -> f64 {
        self.self_coef
    }

    /// Column applies served so far.
    pub fn matvec_columns(&self) -> usize {
        self.matvec_columns
    }

    pub fn reset_counters(&mut self) {
        self.matvec_columns = 0;
    }

    /// Resident bytes of the sparse matrix.
    pub fn memory_bytes(&self) -> usize {
        self.mat.memory_bytes()
    }

    /// Dense `3n x 3n` materialization (tests only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = self.mat.to_dense();
        let dim = 3 * self.n;
        for i in 0..dim {
            d[i * dim + i] += self.self_coef;
        }
        d
    }
}

impl LinearOperator for NearFieldOperator {
    fn dim(&self) -> usize {
        3 * self.n
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.mat.mul_vec(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += self.self_coef * xi;
        }
        self.matvec_columns += 1;
    }

    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        self.mat.mul_multi(x, y, s);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += self.self_coef * xi;
        }
        self.matvec_columns += s;
    }
}

fn assemble(positions: &[Vec3], kernel: &RpyHasimoto, r_max: f64) -> Bcsr3 {
    // Minimum image only: any further image of a pair is at least
    // `L - r_max >= r_max` away, and self images at least `L`.
    assert!(
        r_max <= kernel.box_l / 2.0 + 1e-12,
        "r_max {r_max} must be <= L/2 = {}",
        kernel.box_l / 2.0
    );
    let n = positions.len();
    let mut b = Bcsr3Builder::new(n, n);
    CellList::new(positions, kernel.box_l, r_max).for_each_pair(|i, j, dr, _r2| {
        // The pair tensor is symmetric and even in `dr`, so the (j, i)
        // block is identical.
        let blk = kernel.real_tensor(dr);
        b.push(i, j, blk);
        b.push(j, i, blk);
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_linalg::{sym_eig, DMat};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_positions(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(0.0..box_l),
                    rng.gen_range(0.0..box_l),
                    rng.gen_range(0.0..box_l),
                )
            })
            .collect()
    }

    #[test]
    fn assembly_is_the_minimum_image_pair_sum_up_to_exactly_half_the_box() {
        // The tuner's box-bound splits sit at r_max = L/2 exactly (every
        // ladder shape): that cutoff is inside the one assembly path, as an
        // interior one is. Overlapping pairs included (random positions).
        let box_l = 9.0;
        let pos = random_positions(40, box_l, 3);
        let kernel = RpyHasimoto::new(1.0, 1.0, box_l, 0.6);
        let n = pos.len();
        let dim = 3 * n;
        for r_max in [box_l / 2.0, 3.7] {
            let got = assemble(&pos, &kernel, r_max).to_dense();
            let mut want = vec![0.0; dim * dim];
            let mut stored = 0;
            for i in 0..n {
                for j in 0..n {
                    let dr = (pos[i] - pos[j]).min_image(box_l);
                    if i == j || dr.norm2() > r_max * r_max {
                        continue;
                    }
                    stored += 1;
                    let blk = kernel.real_tensor(dr);
                    for (e, v) in blk.iter().enumerate() {
                        want[(3 * i + e / 3) * dim + 3 * j + e % 3] = *v;
                    }
                }
            }
            assert!(stored > n, "r_max = {r_max}: the cutoff must hold pairs");
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-15, "r_max = {r_max}: {g} vs {w}");
            }
            for i in 0..dim {
                for j in 0..i {
                    assert!((got[i * dim + j] - got[j * dim + i]).abs() <= 1e-14);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be <= L/2")]
    fn rejects_a_cutoff_beyond_half_the_box() {
        let pos = random_positions(5, 8.0, 2);
        assemble(&pos, &RpyHasimoto::new(1.0, 1.0, 8.0, 0.5), 4.5);
    }

    /// Sequential insertion with a minimum pair distance of `2a = 2`.
    fn random_suspension(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos: Vec<Vec3> = Vec::with_capacity(n);
        while pos.len() < n {
            let c = Vec3::new(
                rng.gen_range(0.0..box_l),
                rng.gen_range(0.0..box_l),
                rng.gen_range(0.0..box_l),
            );
            if pos.iter().all(|p| (*p - c).min_image(box_l).norm() >= 2.0) {
                pos.push(c);
            }
        }
        pos
    }

    #[test]
    fn near_field_is_spd_at_a_tuned_split() {
        // phi = 0.2 at the drift operator's own box-bound split — xi L = 3.5,
        // well past the 1.9 at which Beenakker's near field goes indefinite.
        let pme = hibd_pme::tune(24, 0.2, 1.0, 1.0, 1e-3).params;
        assert!(pme.alpha * pme.box_l > 3.0);
        let pos = random_suspension(24, pme.box_l, 7);
        let kernel = RpyHasimoto::new(1.0, 1.0, pme.box_l, pme.alpha);
        let op = NearFieldOperator::new(&pos, &kernel, pme.r_max);
        let dim = 3 * pos.len();
        let m = DMat::from_vec(dim, dim, op.to_dense());
        assert!(m.max_asymmetry() < 1e-13);
        let (w, _) = sym_eig(&m).unwrap();
        let min = w.iter().copied().fold(f64::MAX, f64::min);
        assert!(min > 0.0, "near field not SPD: min eigenvalue {min}");
    }

    #[test]
    fn apply_adds_self_term_and_counts_columns() {
        let box_l = 12.0;
        let pos = random_positions(8, box_l, 11);
        let kernel = RpyHasimoto::new(1.0, 1.0, box_l, 0.5);
        let mut op = NearFieldOperator::new(&pos, &kernel, 5.0);
        let dim = op.dim();
        let x: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; dim];
        op.apply(&x, &mut y);
        let mut y_mat = vec![0.0; dim];
        op.matrix().mul_vec(&x, &mut y_mat);
        for i in 0..dim {
            assert!((y[i] - y_mat[i] - op.self_coefficient() * x[i]).abs() < 1e-14);
        }
        // apply_multi with s columns matches per-column apply and counts s.
        let s = 3;
        let mut xm = vec![0.0; dim * s];
        for i in 0..dim {
            for c in 0..s {
                xm[i * s + c] = x[i] * (c + 1) as f64;
            }
        }
        let mut ym = vec![0.0; dim * s];
        op.apply_multi(&xm, &mut ym, s);
        for i in 0..dim {
            for c in 0..s {
                assert!((ym[i * s + c] - y[i] * (c + 1) as f64).abs() < 1e-12);
            }
        }
        assert_eq!(op.matvec_columns(), 1 + s);
        op.reset_counters();
        assert_eq!(op.matvec_columns(), 0);
        assert!(op.memory_bytes() > 0);
    }
}
