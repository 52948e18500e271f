//! Beenakker's Ewald summation of the RPY tensor (paper Section II-B).
//!
//! Under periodic boundary conditions the mobility between particles `i` and
//! `j` is an infinite (conditionally convergent) lattice sum. Beenakker
//! (J. Chem. Phys. 85, 1581, 1986) splits it into two rapidly converging
//! parts controlled by the splitting parameter `xi` (the paper's `alpha`):
//!
//! `M = M_real(xi) + M_recip(xi) + M_self(xi)`
//!
//! * the real-space kernel decays like `erfc(xi r)` / `exp(-xi^2 r^2)`;
//! * the reciprocal-space kernel decays like `exp(-k^2 / 4 xi^2)`;
//! * the self term completes the `i = j` diagonal.
//!
//! The sum of the three parts is **independent of `xi`** — the defining
//! correctness property, enforced by unit tests here. Increasing `xi` moves
//! work from the real sum (shorter cutoff `r_max`) into the reciprocal sum
//! (more Fourier modes), which is exactly the load-balancing knob the
//! paper's hybrid implementation tunes (Section IV-E).
//!
//! Beenakker's split reproduces the *non-overlapping* RPY form at all
//! distances; for pairs closer than `2a` an overlap correction (the
//! difference between Yamakawa's regularized tensor and the analytic
//! continuation of the far form) is added to the real-space term.

use crate::tensor::{iso_plus_outer, rpy_pair_scalars, rpy_self_mobility};
use hibd_mathx::{erfc, Vec3};
use std::f64::consts::PI;

/// Beenakker Ewald split of the periodic RPY mobility.
#[derive(Clone, Debug)]
pub struct RpyEwald {
    /// Particle radius.
    pub a: f64,
    /// Fluid viscosity.
    pub eta: f64,
    /// Cubic box side.
    pub box_l: f64,
    /// Ewald splitting parameter (the paper's `alpha`), units 1/length.
    pub xi: f64,
    /// Real-space cutoff: image terms beyond this radius are dropped.
    rcut: f64,
    /// Reciprocal-space cutoff on `|k|`.
    kcut: f64,
    /// Precomputed reciprocal modes `(k, coeff)` with
    /// `coeff = mu0 * m(k) / L^3`; excludes `k = 0`.
    kmodes: Vec<(Vec3, f64)>,
}

impl RpyEwald {
    /// Build a split with truncation tolerance `tol` (relative to `mu0`) for
    /// both sums. `tol = 1e-10` gives reference-quality summation.
    pub fn new(a: f64, eta: f64, box_l: f64, xi: f64, tol: f64) -> RpyEwald {
        assert!(a > 0.0 && eta > 0.0 && box_l > 0.0 && xi > 0.0);
        assert!(tol > 0.0 && tol < 1.0);
        // Gaussian decay: e^{-x^2} ~ tol at x = sqrt(ln 1/tol); pad by 1.5x
        // for the polynomial prefactors of the Beenakker kernels.
        let x = (1.0 / tol).ln().sqrt() * 1.5;
        let rcut = x / xi;
        let kcut = 2.0 * x * xi;
        let mut s = RpyEwald { a, eta, box_l, xi, rcut, kcut, kmodes: Vec::new() };
        s.build_kmodes();
        s
    }

    /// Build a split exposing only the kernels (`real_scalars`,
    /// `recip_scalar`, `self_coefficient`, `real_tensor*`) without
    /// enumerating reciprocal modes. This is what PME uses: it evaluates the
    /// reciprocal kernel on its own FFT mesh, so building the dense-Ewald
    /// mode table would be wasted work. [`Self::mobility_tensor`] must not
    /// be called on a kernel-only split (it would silently miss the
    /// reciprocal sum); debug builds assert this.
    pub fn kernel_only(a: f64, eta: f64, box_l: f64, xi: f64) -> RpyEwald {
        assert!(a > 0.0 && eta > 0.0 && box_l > 0.0 && xi > 0.0);
        RpyEwald { a, eta, box_l, xi, rcut: f64::INFINITY, kcut: 0.0, kmodes: Vec::new() }
    }

    fn build_kmodes(&mut self) {
        let mu0 = self.mu0();
        let l = self.box_l;
        let nmax = (self.kcut * l / (2.0 * PI)).ceil() as i64;
        let mut modes = Vec::new();
        for nx in -nmax..=nmax {
            for ny in -nmax..=nmax {
                for nz in -nmax..=nmax {
                    if nx == 0 && ny == 0 && nz == 0 {
                        continue;
                    }
                    let k = Vec3::new(nx as f64, ny as f64, nz as f64) * (2.0 * PI / l);
                    let k2 = k.norm2();
                    if k2 > self.kcut * self.kcut {
                        continue;
                    }
                    modes.push((k, mu0 * self.recip_scalar(k2) / (l * l * l)));
                }
            }
        }
        self.kmodes = modes;
    }

    /// `mu0 = 1/(6 pi eta a)`.
    pub fn mu0(&self) -> f64 {
        rpy_self_mobility(self.a, self.eta)
    }

    /// Real-space cutoff radius implied by the tolerance.
    pub fn rcut(&self) -> f64 {
        self.rcut
    }

    /// Reciprocal-space cutoff `|k|`.
    pub fn kcut(&self) -> f64 {
        self.kcut
    }

    /// Number of reciprocal modes kept.
    pub fn num_kmodes(&self) -> usize {
        self.kmodes.len()
    }

    /// Beenakker real-space scalars `(fI, frr)` in units of `mu0`:
    /// `M^(1)(r) = mu0 (fI I + frr r̂ r̂ᵀ)`.
    pub fn real_scalars(&self, r: f64) -> (f64, f64) {
        debug_assert!(r > 0.0);
        let (a, xi) = (self.a, self.xi);
        let a3 = a * a * a;
        let x = xi * r;
        let e = (-x * x).exp() / PI.sqrt();
        let erfc_x = erfc(x);
        let r2 = r * r;
        let xi3 = xi * xi * xi;
        let xi5 = xi3 * xi * xi;
        let xi7 = xi5 * xi * xi;
        let fi = (0.75 * a / r + 0.5 * a3 / (r2 * r)) * erfc_x
            + (4.0 * xi7 * a3 * r2 * r2 + 3.0 * xi3 * a * r2 - 20.0 * xi5 * a3 * r2 - 4.5 * xi * a
                + 14.0 * xi3 * a3
                + xi * a3 / r2)
                * e;
        let frr = (0.75 * a / r - 1.5 * a3 / (r2 * r)) * erfc_x
            + (-4.0 * xi7 * a3 * r2 * r2 - 3.0 * xi3 * a * r2
                + 16.0 * xi5 * a3 * r2
                + 1.5 * xi * a
                - 2.0 * xi3 * a3
                - 3.0 * xi * a3 / r2)
                * e;
        (fi, frr)
    }

    /// Overlap correction scalars for `r < 2a` (zero otherwise): the
    /// difference between the Yamakawa regularized tensor and the analytic
    /// continuation of the non-overlapping form that the Ewald split
    /// reproduces.
    pub fn overlap_scalars(&self, r: f64) -> (f64, f64) {
        if r >= 2.0 * self.a {
            return (0.0, 0.0);
        }
        let (fi_over, frr_over) = rpy_pair_scalars(r, self.a); // regularized branch
        let ar = self.a / r;
        let ar3 = ar * ar * ar;
        let fi_std = 0.75 * ar + 0.5 * ar3;
        let frr_std = 0.75 * ar - 1.5 * ar3;
        (fi_over - fi_std, frr_over - frr_std)
    }

    /// Beenakker reciprocal kernel `m(k)` (units of `mu0 / a` folded such
    /// that `M_recip = mu0/L^3 Σ cos(k·r) (I - k̂k̂ᵀ) m(k)`), paper Eq. 5.
    pub fn recip_scalar(&self, k2: f64) -> f64 {
        debug_assert!(k2 > 0.0);
        let (a, xi) = (self.a, self.xi);
        let a3 = a * a * a;
        let xi2 = xi * xi;
        (a - a3 * k2 / 3.0)
            * (1.0 + k2 / (4.0 * xi2) + k2 * k2 / (8.0 * xi2 * xi2))
            * (6.0 * PI / k2)
            * (-k2 / (4.0 * xi2)).exp()
    }

    /// Self-term coefficient: `M_self = mu0 (1 - 6 xi a/sqrt(pi)
    /// + 40 xi^3 a^3 / (3 sqrt(pi))) I`.
    pub fn self_coefficient(&self) -> f64 {
        let (a, xi) = (self.a, self.xi);
        self.mu0()
            * (1.0 - 6.0 * xi * a / PI.sqrt() + 40.0 * xi.powi(3) * a.powi(3) / (3.0 * PI.sqrt()))
    }

    /// Single real-space lattice term `mu0 M^(1)(rv)` for one image vector
    /// `rv` (no overlap correction): used by both the dense reference and
    /// the PME real-space sparse matrix.
    pub fn real_tensor(&self, rv: Vec3) -> [f64; 9] {
        let r = rv.norm();
        let (fi, frr) = self.real_scalars(r);
        let mu0 = self.mu0();
        iso_plus_outer(mu0 * fi, mu0 * frr, rv / r)
    }

    /// Real-space term for a *minimum-image* displacement, including the
    /// overlap correction when `|rv| < 2a`. This is what the PME real-space
    /// operator stores per neighbor pair.
    pub fn real_tensor_with_overlap(&self, rv: Vec3) -> [f64; 9] {
        let r = rv.norm();
        let (mut fi, mut frr) = self.real_scalars(r);
        let (di, drr) = self.overlap_scalars(r);
        fi += di;
        frr += drr;
        let mu0 = self.mu0();
        iso_plus_outer(mu0 * fi, mu0 * frr, rv / r)
    }

    /// Reference periodic mobility tensor between two particles with
    /// minimum-image displacement `dr` (`same = true` for `i = j`, where
    /// `dr` must be zero). Sums all images / modes within the tolerance
    /// cutoffs; `O(rcut^3 + kmodes)` per call — reference use only.
    pub fn mobility_tensor(&self, dr: Vec3, same: bool) -> [f64; 9] {
        debug_assert!(
            !(self.kmodes.is_empty() && self.kcut == 0.0),
            "mobility_tensor called on a kernel_only split"
        );
        let l = self.box_l;
        let mu0 = self.mu0();
        let mut m = [0.0f64; 9];

        // Real-space lattice sum.
        let nmax = (self.rcut / l).ceil() as i64 + 1;
        for lx in -nmax..=nmax {
            for ly in -nmax..=nmax {
                for lz in -nmax..=nmax {
                    let rv = dr + Vec3::new(lx as f64, ly as f64, lz as f64) * l;
                    let r = rv.norm();
                    if r < 1e-12 || r > self.rcut {
                        continue;
                    }
                    let (fi, frr) = self.real_scalars(r);
                    add_iso_outer(&mut m, mu0 * fi, mu0 * frr, rv / r);
                }
            }
        }
        // Overlap correction on the minimum image.
        if !same {
            let mi = dr.min_image(l);
            let r = mi.norm();
            if r > 0.0 && r < 2.0 * self.a {
                let (di, drr) = self.overlap_scalars(r);
                add_iso_outer(&mut m, mu0 * di, mu0 * drr, mi / r);
            }
        }

        // Reciprocal sum over precomputed modes.
        for (k, coeff) in &self.kmodes {
            let c = (k.dot(dr)).cos() * coeff;
            let kh = k.normalized().expect("k modes exclude zero");
            add_iso_outer(&mut m, c, -c, kh);
        }

        if same {
            let s = self.self_coefficient();
            m[0] += s;
            m[4] += s;
            m[8] += s;
        }
        m
    }
}

/// A wave-space kernel the PME influence table can be built from:
/// `M_recip = mu0 / L³ Σ_k cos(k·r) (I - k̂k̂ᵀ) recip_scalar(k²)`.
pub trait WaveKernel: Sync {
    /// Cubic box side.
    fn box_l(&self) -> f64;
    /// `mu0 = 1/(6 pi eta a)`.
    fn mu0(&self) -> f64;
    /// The scalar `m(k)` at `k² = |k|² > 0`.
    fn recip_scalar(&self, k2: f64) -> f64;
}

impl WaveKernel for RpyEwald {
    fn box_l(&self) -> f64 {
        self.box_l
    }
    fn mu0(&self) -> f64 {
        self.mu0()
    }
    fn recip_scalar(&self, k2: f64) -> f64 {
        self.recip_scalar(k2)
    }
}

#[inline]
fn add_iso_outer(m: &mut [f64; 9], s1: f64, s2: f64, u: Vec3) {
    let t = iso_plus_outer(s1, s2, u);
    for (a, b) in m.iter_mut().zip(&t) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: f64 = 1.0;
    const ETA: f64 = 1.0;
    const L: f64 = 10.0;

    fn max_diff(a: &[f64; 9], b: &[f64; 9]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn total_mobility_is_xi_independent() {
        // The defining property of the Ewald split.
        let dr = Vec3::new(2.3, -1.1, 0.7);
        let reference = RpyEwald::new(A, ETA, L, 1.0, 1e-12).mobility_tensor(dr, false);
        for xi in [0.4, 0.7, 1.5] {
            let m = RpyEwald::new(A, ETA, L, xi, 1e-12).mobility_tensor(dr, false);
            assert!(max_diff(&m, &reference) < 1e-10, "xi={xi}: diff {}", max_diff(&m, &reference));
        }
    }

    #[test]
    fn self_mobility_is_xi_independent_and_below_mu0() {
        let reference = RpyEwald::new(A, ETA, L, 1.0, 1e-12).mobility_tensor(Vec3::ZERO, true);
        for xi in [0.5, 1.4] {
            let m = RpyEwald::new(A, ETA, L, xi, 1e-12).mobility_tensor(Vec3::ZERO, true);
            assert!(max_diff(&m, &reference) < 1e-10, "xi={xi}");
        }
        // Known periodic self-mobility: mu0 (1 - 2.8373 a/L + 4.19 (a/L)^3 ...)
        let mu0 = rpy_self_mobility(A, ETA);
        let got = reference[0] / mu0;
        let want = 1.0 - 2.837297 * A / L + 4.19 * (A / L).powi(3);
        assert!((got - want).abs() < 2e-3, "self mobility {got} vs Hasimoto {want}");
        // Isotropy of the diagonal.
        assert!((reference[0] - reference[4]).abs() < 1e-10);
        assert!((reference[0] - reference[8]).abs() < 1e-10);
    }

    #[test]
    fn real_kernel_reduces_to_rpy_when_xi_is_tiny() {
        // xi -> 0 turns off the splitting: M^(1) -> free-space RPY.
        let s = RpyEwald::new(A, ETA, L, 1e-6, 1e-6);
        for r in [2.0f64, 3.5, 4.9] {
            let (fi, frr) = s.real_scalars(r);
            let (fi0, frr0) = rpy_pair_scalars(r, A);
            assert!((fi - fi0).abs() < 1e-5, "r={r}: {fi} vs {fi0}");
            assert!((frr - frr0).abs() < 1e-5);
        }
        // Self coefficient -> mu0.
        assert!((s.self_coefficient() / s.mu0() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn overlap_correction_restores_regularized_tensor() {
        let s = RpyEwald::new(A, ETA, L, 0.8, 1e-10);
        let r = 1.2; // < 2a
        let (di, drr) = s.overlap_scalars(r);
        let ar = A / r;
        let std_fi = 0.75 * ar + 0.5 * ar.powi(3);
        let std_frr = 0.75 * ar - 1.5 * ar.powi(3);
        let (reg_fi, reg_frr) = rpy_pair_scalars(r, A);
        assert!((std_fi + di - reg_fi).abs() < 1e-14);
        assert!((std_frr + drr - reg_frr).abs() < 1e-14);
        // No correction beyond contact.
        assert_eq!(s.overlap_scalars(2.5), (0.0, 0.0));
    }

    #[test]
    fn pair_tensor_is_symmetric_in_components() {
        let s = RpyEwald::new(A, ETA, L, 0.9, 1e-10);
        let m = s.mobility_tensor(Vec3::new(1.7, 2.9, -0.4), false);
        assert!((m[1] - m[3]).abs() < 1e-14);
        assert!((m[2] - m[6]).abs() < 1e-14);
        assert!((m[5] - m[7]).abs() < 1e-14);
    }

    #[test]
    fn mobility_is_periodic_in_dr() {
        let s = RpyEwald::new(A, ETA, L, 1.0, 1e-10);
        let dr = Vec3::new(1.2, -2.0, 3.3);
        let m1 = s.mobility_tensor(dr, false);
        let m2 = s.mobility_tensor(dr + Vec3::new(L, -L, 2.0 * L), false);
        assert!(max_diff(&m1, &m2) < 1e-9);
    }

    #[test]
    fn kmode_count_scales_with_xi() {
        let few = RpyEwald::new(A, ETA, L, 0.3, 1e-8).num_kmodes();
        let many = RpyEwald::new(A, ETA, L, 1.2, 1e-8).num_kmodes();
        assert!(few > 0);
        assert!(many > 8 * few, "kcut ~ xi: {few} vs {many}");
    }

    #[test]
    fn tolerance_controls_accuracy() {
        let dr = Vec3::new(2.0, 1.0, -1.5);
        let tight = RpyEwald::new(A, ETA, L, 1.0, 1e-12).mobility_tensor(dr, false);
        let loose = RpyEwald::new(A, ETA, L, 1.0, 1e-4).mobility_tensor(dr, false);
        let d = max_diff(&tight, &loose);
        assert!(d < 1e-4, "loose sum within its tolerance: {d}");
        assert!(d > 1e-14, "tolerances actually differ");
    }
}
