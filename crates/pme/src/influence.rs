//! The PME influence function (paper Section IV-B4).
//!
//! On the half spectrum (`K x K x (K/2+1)` points), the reciprocal kernel is
//! the 3x3 tensor `I(k) = s(k) (I - k̂k̂ᵀ)` with the scalar
//!
//! `s(k) = mu0 * m_alpha(|k|) * |b0|^2 |b1|^2 |b2|^2 / L^3`
//!
//! (`m_alpha` from the split's wave kernel — Beenakker's for the drift
//! operator, the positively split one for the `hibd-pse` sampler — `|b|^2`
//! the B-spline Euler factors, `1/L^3` the reciprocal-sum prefactor, `k = 0`
//! excluded).
//!
//! Storing the full tensor would need 6 doubles per point; following the
//! paper, only the scalar `s(k)` is stored ("a savings of a factor of 6")
//! and the projector `(I - k̂k̂ᵀ)` is rebuilt from the lattice vector with no
//! memory accesses. Applying it is a memory-bandwidth-bound streaming pass.

use crate::bspline::euler_factors;
use hibd_fft::Complex64;
use hibd_hot as hibd;
use hibd_rpy::WaveKernel;
use rayon::prelude::*;
use std::f64::consts::TAU;

/// Precomputed influence function for a fixed `(K, p, alpha, L)`.
#[derive(Clone, Debug)]
pub struct Influence {
    k: usize,
    nc: usize,
    /// `2 pi / L`.
    kunit: f64,
    /// `s(k)` per half-spectrum point, 0 at `k = 0`.
    scalars: Vec<f64>,
}

/// Fold a mesh index into its signed frequency integer.
#[inline]
pub fn fold(ki: usize, k: usize) -> i64 {
    if ki <= k / 2 {
        ki as i64
    } else {
        ki as i64 - k as i64
    }
}

impl Influence {
    /// Precompute the scalar array; `kernel` supplies `m_alpha`, `mu0` and
    /// `L`, `p` the B-spline order.
    pub fn new(kernel: &impl WaveKernel, k: usize, p: usize) -> Influence {
        let nc = k / 2 + 1;
        let b2 = euler_factors(k, p);
        let l = kernel.box_l();
        let kunit = TAU / l;
        let mu0 = kernel.mu0();
        let vol = l * l * l;
        let mut scalars = vec![0.0; k * k * nc];
        scalars.par_chunks_mut(k * nc).enumerate().for_each(|(k0, plane)| {
            let f0 = fold(k0, k) as f64;
            for k1 in 0..k {
                let f1 = fold(k1, k) as f64;
                for k2 in 0..nc {
                    let f2 = k2 as f64; // half spectrum: always <= K/2
                    if k0 == 0 && k1 == 0 && k2 == 0 {
                        continue; // k = 0 excluded
                    }
                    let k2norm = kunit * kunit * (f0 * f0 + f1 * f1 + f2 * f2);
                    let m = kernel.recip_scalar(k2norm);
                    plane[k1 * nc + k2] = mu0 * m * b2[k0] * b2[k1] * b2[k2] / vol;
                }
            }
        });
        Influence { k, nc, kunit, scalars }
    }

    /// Mesh dimension `K`.
    pub fn mesh_dim(&self) -> usize {
        self.k
    }

    /// Bytes stored (the paper's `8 * K^3 / 2`).
    pub fn memory_bytes(&self) -> usize {
        self.scalars.len() * 8
    }

    /// Raw scalar value at half-spectrum index (tests).
    pub fn scalar_at(&self, k0: usize, k1: usize, k2: usize) -> f64 {
        self.scalars[(k0 * self.k + k1) * self.nc + k2]
    }

    /// Apply `D_theta = I(k) C_theta` in place. `spec` holds the three force
    /// component spectra concatenated: `[x | y | z]`, each of length
    /// `K*K*(K/2+1)`.
    #[hibd::hot]
    pub fn apply(&self, spec: &mut [Complex64]) {
        let s_len = self.k * self.k * self.nc;
        assert_eq!(spec.len(), 3 * s_len, "expected three concatenated spectra");
        let (sx, rest) = spec.split_at_mut(s_len);
        let (sy, sz) = rest.split_at_mut(s_len);
        self.apply_components(sx, sy, sz);
    }

    /// Apply `I(k)` to a batch of `width` column spectra laid out
    /// `[theta][col]`: x spectra for all columns first, then y, then z
    /// (matching the batched mesh layout in `spread_multi`). One scalar-table
    /// pass per column; the projector is rebuilt from the lattice vector
    /// exactly as in the single-RHS path.
    #[hibd::hot]
    pub fn apply_multi(&self, spec: &mut [Complex64], width: usize) {
        let s_len = self.k * self.k * self.nc;
        assert_eq!(spec.len(), 3 * width * s_len, "expected 3*width spectra");
        let (sx_all, rest) = spec.split_at_mut(width * s_len);
        let (sy_all, sz_all) = rest.split_at_mut(width * s_len);
        for j in 0..width {
            let r = j * s_len..(j + 1) * s_len;
            self.apply_components(&mut sx_all[r.clone()], &mut sy_all[r.clone()], &mut sz_all[r]);
        }
    }

    /// Apply `I(k)^{1/2} = s(k)^{1/2} (I - k̂k̂ᵀ)` in place (the projector is
    /// idempotent, so the square root only touches the scalar), so that
    /// `apply_sqrt ∘ apply_sqrt = apply`. Only a positively split kernel
    /// (`hibd_rpy::RpyHasimoto`) has the nonnegative table this needs;
    /// Beenakker's negative lobes would come out NaN.
    #[hibd::hot]
    pub fn apply_sqrt(&self, spec: &mut [Complex64]) {
        let s_len = self.k * self.k * self.nc;
        assert_eq!(spec.len(), 3 * s_len, "expected three concatenated spectra");
        let (sx, rest) = spec.split_at_mut(s_len);
        let (sy, sz) = rest.split_at_mut(s_len);
        self.stream_components(sx, sy, sz, true);
    }

    /// Batched [`apply_sqrt`](Self::apply_sqrt) over `width` column spectra
    /// in the `[theta][col]` layout of [`apply_multi`](Self::apply_multi).
    #[hibd::hot]
    pub fn apply_sqrt_multi(&self, spec: &mut [Complex64], width: usize) {
        let s_len = self.k * self.k * self.nc;
        assert_eq!(spec.len(), 3 * width * s_len, "expected 3*width spectra");
        let (sx_all, rest) = spec.split_at_mut(width * s_len);
        let (sy_all, sz_all) = rest.split_at_mut(width * s_len);
        for j in 0..width {
            let r = j * s_len..(j + 1) * s_len;
            self.stream_components(
                &mut sx_all[r.clone()],
                &mut sy_all[r.clone()],
                &mut sz_all[r],
                true,
            );
        }
    }

    /// Core streaming pass over one (x, y, z) spectrum triple.
    fn apply_components(&self, sx: &mut [Complex64], sy: &mut [Complex64], sz: &mut [Complex64]) {
        self.stream_components(sx, sy, sz, false);
    }

    /// Streaming pass; `sqrt` selects `s(k)^{1/2}` over `s(k)`. The projector is applied once either way — it is idempotent,
    /// so the square root of the tensor only changes the scalar factor.
    #[hibd::hot]
    fn stream_components(
        &self,
        sx: &mut [Complex64],
        sy: &mut [Complex64],
        sz: &mut [Complex64],
        sqrt: bool,
    ) {
        let plane = self.k * self.nc;
        let k = self.k;
        let nc = self.nc;
        let kunit = self.kunit;

        sx.par_chunks_mut(plane)
            .zip(sy.par_chunks_mut(plane))
            .zip(sz.par_chunks_mut(plane))
            .zip(self.scalars.par_chunks(plane))
            .enumerate()
            .for_each(|(k0, (((px, py), pz), ps))| {
                let f0 = fold(k0, k) as f64 * kunit;
                for k1 in 0..k {
                    let f1 = fold(k1, k) as f64 * kunit;
                    let row = k1 * nc;
                    for k2 in 0..nc {
                        let s = if sqrt { ps[row + k2].sqrt() } else { ps[row + k2] };
                        let idx = row + k2;
                        if s == 0.0 {
                            px[idx] = Complex64::ZERO;
                            py[idx] = Complex64::ZERO;
                            pz[idx] = Complex64::ZERO;
                            continue;
                        }
                        let f2 = k2 as f64 * kunit;
                        let knorm2 = f0 * f0 + f1 * f1 + f2 * f2;
                        let inv = 1.0 / knorm2;
                        let (cx, cy, cz) = (px[idx], py[idx], pz[idx]);
                        // k·c (complex, no conjugation), then projector.
                        let kdot = cx.scale(f0) + cy.scale(f1) + cz.scale(f2);
                        let proj = kdot.scale(inv);
                        px[idx] = (cx - proj.scale(f0)).scale(s);
                        py[idx] = (cy - proj.scale(f1)).scale(s);
                        pz[idx] = (cz - proj.scale(f2)).scale(s);
                    }
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_rpy::{RpyEwald, RpyHasimoto};

    fn test_ewald() -> RpyEwald {
        RpyEwald::new(1.0, 1.0, 10.0, 0.8, 1e-8)
    }

    /// The positive split at the same `(L, xi)`: the table `apply_sqrt` is
    /// defined on.
    fn positive_split() -> RpyHasimoto {
        RpyHasimoto::new(1.0, 1.0, 10.0, 0.8)
    }

    #[test]
    fn dc_mode_is_zeroed() {
        let inf = Influence::new(&test_ewald(), 8, 4);
        assert_eq!(inf.scalar_at(0, 0, 0), 0.0);
        assert!(inf.scalar_at(1, 0, 0) != 0.0);
    }

    #[test]
    fn scalars_match_direct_kernel_evaluation() {
        let ewald = test_ewald();
        let k = 8;
        let p = 4;
        let inf = Influence::new(&ewald, k, p);
        let b2 = euler_factors(k, p);
        let l = ewald.box_l;
        // Spot check a few modes, including negative frequencies.
        for (k0, k1, k2) in [(1usize, 0usize, 0usize), (7, 2, 3), (4, 4, 4), (5, 6, 1)] {
            let f = [fold(k0, k), fold(k1, k), fold(k2, k)];
            let k2norm = (TAU / l).powi(2) * f.iter().map(|&x| (x * x) as f64).sum::<f64>();
            let want =
                ewald.mu0() * ewald.recip_scalar(k2norm) * b2[k0] * b2[k1] * b2[k2] / (l * l * l);
            let got = inf.scalar_at(k0, k1, k2);
            assert!(
                (got - want).abs() < 1e-15 * want.abs().max(1e-10),
                "({k0},{k1},{k2}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn scalars_symmetric_under_frequency_negation() {
        // s(-k) = s(k): along the first two axes the half spectrum stores
        // both signs.
        let inf = Influence::new(&test_ewald(), 10, 4);
        for k0 in 1..10 {
            for k1 in 1..10 {
                let a = inf.scalar_at(k0, k1, 2);
                let b = inf.scalar_at(10 - k0, 10 - k1, 2);
                assert!((a - b).abs() < 1e-12 * a.abs().max(1e-30), "({k0},{k1})");
            }
        }
    }

    #[test]
    fn apply_projects_out_longitudinal_component() {
        // A spectrum whose vector part is parallel to k must map to zero.
        let ewald = test_ewald();
        let k = 8;
        let inf = Influence::new(&ewald, k, 4);
        let s_len = k * k * (k / 2 + 1);
        let mut spec = vec![Complex64::ZERO; 3 * s_len];
        // Mode (1, 2, 3): set c parallel to k-direction.
        let (k0, k1, k2) = (1usize, 2usize, 3usize);
        let idx = (k0 * k + k1) * (k / 2 + 1) + k2;
        let f = [1.0, 2.0, 3.0];
        for theta in 0..3 {
            spec[theta * s_len + idx] = Complex64::new(f[theta], -0.5 * f[theta]);
        }
        inf.apply(&mut spec);
        for theta in 0..3 {
            assert!(spec[theta * s_len + idx].abs() < 1e-12, "theta={theta}");
        }
    }

    #[test]
    fn apply_keeps_transverse_component_scaled() {
        let ewald = test_ewald();
        let k = 8;
        let inf = Influence::new(&ewald, k, 4);
        let s_len = k * k * (k / 2 + 1);
        let mut spec = vec![Complex64::ZERO; 3 * s_len];
        // Mode along x only: k = (1,0,0); transverse vector (0, 1, 0).
        let idx = k * (k / 2 + 1);
        spec[s_len + idx] = Complex64::ONE; // y component
        inf.apply(&mut spec);
        let want = inf.scalar_at(1, 0, 0);
        assert!((spec[s_len + idx].re - want).abs() < 1e-15);
        assert!(spec[idx].abs() < 1e-18, "x stays zero");
        assert!(spec[2 * s_len + idx].abs() < 1e-18, "z stays zero");
    }

    #[test]
    fn memory_is_one_scalar_per_half_spectrum_point() {
        let k = 16;
        let inf = Influence::new(&test_ewald(), k, 4);
        assert_eq!(inf.memory_bytes(), 8 * k * k * (k / 2 + 1));
    }

    /// Deterministic pseudo-random spectrum triple (no RNG dependency here).
    fn synthetic_spectra(s_len: usize) -> Vec<Complex64> {
        let mut spec = vec![Complex64::ZERO; 3 * s_len];
        let mut x = 0x243F6A8885A308D3u64;
        for v in &mut spec {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let re = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let im = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            *v = Complex64::new(re, im);
        }
        spec
    }

    #[test]
    fn apply_sqrt_composed_twice_matches_apply() {
        // At alpha = 0.8, L = 10 the corner modes sit beyond |k| = sqrt(3)/a,
        // where Beenakker's table is negative and the positive split's is not.
        let k = 10;
        let negative = |inf: &Influence| inf.scalars.iter().any(|&s| s < 0.0);
        assert!(negative(&Influence::new(&test_ewald(), k, 4)));
        let inf = Influence::new(&positive_split(), k, 4);
        assert!(!negative(&inf));
        let s_len = k * k * (k / 2 + 1);
        let base = synthetic_spectra(s_len);
        let mut twice = base.clone();
        inf.apply_sqrt(&mut twice);
        inf.apply_sqrt(&mut twice);
        let mut once = base;
        inf.apply(&mut once);
        let scale = once.iter().map(|c| c.abs()).fold(0.0f64, f64::max);
        for (a, b) in twice.iter().zip(&once) {
            assert!((*a - *b).abs() < 1e-12 * scale, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn apply_sqrt_multi_matches_columnwise_apply_sqrt() {
        let k = 8;
        let inf = Influence::new(&positive_split(), k, 4);
        let s_len = k * k * (k / 2 + 1);
        let width = 3;
        // Build the batched layout [theta][col] from `width` single triples.
        let singles: Vec<Vec<Complex64>> = (0..width)
            .map(|j| synthetic_spectra(s_len).iter().map(|c| c.scale(1.0 + j as f64)).collect())
            .collect();
        let mut batch = vec![Complex64::ZERO; 3 * width * s_len];
        for theta in 0..3 {
            for (j, s) in singles.iter().enumerate() {
                let dst = (theta * width + j) * s_len;
                batch[dst..dst + s_len].copy_from_slice(&s[theta * s_len..(theta + 1) * s_len]);
            }
        }
        inf.apply_sqrt_multi(&mut batch, width);
        for (j, s) in singles.iter().enumerate() {
            let mut want = s.clone();
            inf.apply_sqrt(&mut want);
            for theta in 0..3 {
                let src = (theta * width + j) * s_len;
                for i in 0..s_len {
                    let got = batch[src + i];
                    let exp = want[theta * s_len + i];
                    assert!((got - exp).abs() < 1e-14, "col {j} theta {theta}");
                }
            }
        }
    }
}
