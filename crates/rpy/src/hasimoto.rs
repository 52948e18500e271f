//! The positively split (Hasimoto) Ewald sum of the RPY tensor.
//!
//! In Fourier space the periodic RPY mobility — overlapping pairs and the
//! self term included — is one sum,
//!
//! `M(r) = 1/(eta L^3) Σ_{k != 0} e^{ik·r} sinc²(ka) (I - k̂k̂ᵀ) / k²`,
//!
//! and Fiore, Balboa Usabiaga, Donev & Swan (J. Chem. Phys. 146, 124116)
//! split it with Hasimoto's screening function
//!
//! `H(k) = (1 + k²/4xi²) e^{-k²/4xi²}`,  `0 <= H <= 1` for every `k`, `xi`:
//!
//! the wave part carries `H`, the real part `1 - H`. Both factors are
//! nonnegative and they multiply a nonnegative spectrum, so **both halves
//! are positive semidefinite for every `xi`** — which Beenakker's split
//! ([`crate::ewald`]) is not: its reciprocal kernel truncates `sinc²` at
//! `O(k²)` and goes negative beyond `|k| = sqrt(3)/a`, and its real-space
//! complement goes indefinite past `xi L ~ 1.9`. The total is the same
//! matrix (tests compare the two to 1e-10), so the drift operator and the
//! dense reference stay on Beenakker's split while `hibd-pse` takes square
//! roots of these two halves separately.
//!
//! **Real space.** `sinc²(ka) = (1 - cos 2ka) / (2 a² k²)` turns the radial
//! inverse transform into a second difference: with `Φ(r) = S(r) / (4a² r)`,
//! `S(r) = W(r + 2a) - 2 W(r) + W(r - 2a)`, the tensor is
//! `(∇∇ - I∇²) Φ = F (I - r̂r̂ᵀ) + G r̂r̂ᵀ`,
//!
//! `F = -(S''/r - S'/r² + S/r³) / (4a²)`,  `G = -(S'/r² - S/r³) / (2a²)`,
//!
//! for the *odd* one-dimensional generator `W`. The wave half's generator is
//!
//! `W̃(x) = -[(x⁴ - 3/(4xi⁴)) erf(xi x) + (x³/xi - x/(2xi³)) g(x)] / (96 pi eta)`,
//! `g(x) = e^{-xi²x²} / sqrt(pi)`,
//!
//! the free RPY tensor's is `-sgn(x) x⁴ / (96 pi eta)`, and their difference
//! for `x > 0` is, up to a constant the second difference removes,
//!
//! `W(x) = -[(x⁴ - 3/(4xi⁴)) erfc(xi x) - (x³/xi - x/(2xi³)) g(x)] / (96 pi eta)`.
//!
//! So for `r >= 2a` (all three arguments nonnegative) the real part is the
//! second difference of `W`, evaluated without cancellation against the
//! `1/r` tail; for `r < 2a` it is the Yamakawa branch of
//! [`rpy_pair_scalars`] minus the second difference of `W̃` (whose oddness
//! supplies `W̃(r - 2a) = -W̃(2a - r)`). Derivatives are taken term by term
//! (`W' ~ x³`, `W'' ~ x²` with the same structure).
//!
//! **Conditioning.** The closed form cancels like `1e-17 / (xi a)⁴` as
//! `xi -> 0` (the `3/(4xi⁴)` constant) and, on the overlap branch, by a
//! further `(a/r)³` as `r -> 0` (three `O(1/r²)` terms summing to `O(1)`).
//! Measured against the Beenakker reference at a tuned split (`xi a = 0.42`,
//! `a = eta = 1`): 5e-14 at `r = 0.05a`, 2e-10 at `r = 0.004a`, 1e-8 at
//! `r = 0.001a`. A suspension does not produce such pairs, and coincident
//! particles are a setup error everywhere in `hibd`.

use crate::ewald::WaveKernel;
use crate::tensor::{iso_plus_outer, rpy_pair_scalars, rpy_self_mobility};
use hibd_mathx::{erf, erfc, Vec3};
use std::f64::consts::PI;

/// Hasimoto-split kernels of the periodic RPY mobility (kernels only: the
/// lattice sums are the caller's, as with [`crate::RpyEwald::kernel_only`]).
#[derive(Clone, Copy, Debug)]
pub struct RpyHasimoto {
    /// Particle radius.
    pub a: f64,
    /// Fluid viscosity.
    pub eta: f64,
    /// Cubic box side.
    pub box_l: f64,
    /// Splitting parameter, units 1/length.
    pub xi: f64,
}

impl RpyHasimoto {
    pub fn new(a: f64, eta: f64, box_l: f64, xi: f64) -> RpyHasimoto {
        assert!(a > 0.0 && eta > 0.0 && box_l > 0.0 && xi > 0.0);
        RpyHasimoto { a, eta, box_l, xi }
    }

    /// `mu0 = 1/(6 pi eta a)`.
    pub fn mu0(&self) -> f64 {
        rpy_self_mobility(self.a, self.eta)
    }

    /// Wave kernel in the units of [`crate::RpyEwald::recip_scalar`]:
    /// `6 pi a sinc²(ka) H(k) / k²`, nonnegative for every `k`.
    pub fn recip_scalar(&self, k2: f64) -> f64 {
        debug_assert!(k2 > 0.0);
        let ka = k2.sqrt() * self.a;
        let sinc = ka.sin() / ka;
        let q = k2 / (4.0 * self.xi * self.xi);
        6.0 * PI * self.a * sinc * sinc * (1.0 + q) * (-q).exp() / k2
    }

    /// Self-term coefficient: the real-space kernel at zero separation,
    /// `mu0 (1 - e^{-4a²xi²} + 4 sqrt(pi) a xi erfc(2 a xi)) / (4 sqrt(pi) xi a)`.
    pub fn self_coefficient(&self) -> f64 {
        let x = self.a * self.xi;
        let sp = PI.sqrt();
        self.mu0() * (1.0 - (-4.0 * x * x).exp() + 4.0 * sp * x * erfc(2.0 * x)) / (4.0 * sp * x)
    }

    /// `(W, W', W'')` of the real-space generator (`wave = false`, needs
    /// `x >= 0`) or of the wave half's odd generator `W̃` (`wave = true`,
    /// any `x`), in units of `mu0`.
    fn generator(&self, x: f64, wave: bool) -> [f64; 3] {
        let (a, xi) = (self.a, self.xi);
        let xi3 = xi * xi * xi;
        let g = (-xi * xi * x * x).exp() / PI.sqrt();
        // `erfc -> erf` flips the sign of every Gaussian term.
        let (e, g) = if wave { (erf(xi * x), -g) } else { (erfc(xi * x), g) };
        let x2 = x * x;
        [
            -a / 16.0 * ((x2 * x2 - 0.75 / (xi3 * xi)) * e - (x2 * x / xi - 0.5 * x / xi3) * g),
            -a / 4.0 * (x2 * x * e - (x2 / xi - 0.5 / xi3) * g),
            -0.75 * a * (x2 * e - x * g / xi),
        ]
    }

    /// Real-space scalars `(fI, frr)` in units of `mu0`,
    /// `M_real(r) = mu0 (fI I + frr r̂ r̂ᵀ)`, overlap branch included.
    pub fn real_scalars(&self, r: f64) -> (f64, f64) {
        debug_assert!(r > 0.0);
        let a = self.a;
        let wave = r < 2.0 * a;
        let (p, c, m) = (
            self.generator(r + 2.0 * a, wave),
            self.generator(r, wave),
            self.generator(r - 2.0 * a, wave),
        );
        let s: [f64; 3] = std::array::from_fn(|d| p[d] - 2.0 * c[d] + m[d]);
        let (r2, r3) = (r * r, r * r * r);
        let f = -(s[2] / r - s[1] / r2 + s[0] / r3) / (4.0 * a * a);
        let g = -(s[1] / r2 - s[0] / r3) / (2.0 * a * a);
        if wave {
            let (fi, frr) = rpy_pair_scalars(r, a);
            (fi - f, frr - (g - f))
        } else {
            (f, g - f)
        }
    }

    /// Real-space tensor for one image vector `rv` (overlap included).
    pub fn real_tensor(&self, rv: Vec3) -> [f64; 9] {
        let r = rv.norm();
        let (fi, frr) = self.real_scalars(r);
        let mu0 = self.mu0();
        iso_plus_outer(mu0 * fi, mu0 * frr, rv / r)
    }
}

impl WaveKernel for RpyHasimoto {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RpyEwald;
    use hibd_linalg::{sym_eig, DMat};

    const A: f64 = 1.0;
    const ETA: f64 = 1.0;
    /// The sweep over which Beenakker's split goes indefinite (past 1.9).
    const XI_L: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

    /// Lattice sums run to `r = X_CUT / xi` and `|k| = 2 X_CUT xi`, where
    /// both Gaussians are `e^{-X_CUT²} ~ 4e-19`.
    const X_CUT: f64 = 6.5;

    fn add(m: &mut [f64; 9], t: &[f64; 9]) {
        for (a, b) in m.iter_mut().zip(t) {
            *a += b;
        }
    }

    /// Every real-space lattice image of `dr` (the `r = 0` term excluded).
    fn real_sum(h: &RpyHasimoto, dr: Vec3) -> [f64; 9] {
        let rcut = X_CUT / h.xi;
        let nmax = (rcut / h.box_l).ceil() as i64 + 1;
        let mut m = [0.0; 9];
        for lx in -nmax..=nmax {
            for ly in -nmax..=nmax {
                for lz in -nmax..=nmax {
                    let rv = dr + Vec3::new(lx as f64, ly as f64, lz as f64) * h.box_l;
                    let r = rv.norm();
                    if r > 1e-12 && r <= rcut {
                        add(&mut m, &h.real_tensor(rv));
                    }
                }
            }
        }
        m
    }

    /// The wave-mode table `(k, mu0 m(k) / L³)`.
    fn wave_modes(h: &RpyHasimoto) -> Vec<(Vec3, f64)> {
        let kcut = 2.0 * X_CUT * h.xi;
        let nmax = (kcut * h.box_l / (2.0 * PI)).ceil() as i64;
        let mut modes = Vec::new();
        for nx in -nmax..=nmax {
            for ny in -nmax..=nmax {
                for nz in -nmax..=nmax {
                    let k = Vec3::new(nx as f64, ny as f64, nz as f64) * (2.0 * PI / h.box_l);
                    let k2 = k.norm2();
                    if k2 > 0.0 && k2 <= kcut * kcut {
                        modes.push((k, h.mu0() * h.recip_scalar(k2) / h.box_l.powi(3)));
                    }
                }
            }
        }
        modes
    }

    fn wave_sum(modes: &[(Vec3, f64)], dr: Vec3) -> [f64; 9] {
        let mut m = [0.0; 9];
        for (k, coeff) in modes {
            let c = k.dot(dr).cos() * coeff;
            add(&mut m, &iso_plus_outer(c, -c, *k / k.norm()));
        }
        m
    }

    fn self_tensor(h: &RpyHasimoto) -> [f64; 9] {
        iso_plus_outer(h.self_coefficient(), 0.0, Vec3::ZERO)
    }

    #[test]
    fn both_halves_sum_to_the_beenakker_ewald_mobility() {
        // The total is split-independent: real images + wave modes (+ self)
        // of the positive split == Beenakker's dense reference, including
        // the overlap branch down to r = 0.05a (the cancellation documented
        // in the module header grows like 1e-16 / r³ below that: 1.9e-10 at
        // r = 0.004a).
        let l = 9.0;
        let reference = RpyEwald::new(A, ETA, l, 0.7, 1e-13);
        let u = Vec3::new(0.48, -0.6, 0.64);
        let pairs = [
            ("far", Vec3::new(3.1, -2.2, 1.7)),
            ("r = 1.3a", u * 1.3),
            ("r = 0.05a", u * 0.05),
            ("half-box diagonal", Vec3::splat(l / 2.0)),
        ];
        for xi_l in XI_L {
            let h = RpyHasimoto::new(A, ETA, l, xi_l / l);
            let modes = wave_modes(&h);
            for (name, dr) in pairs {
                let mut m = real_sum(&h, dr);
                add(&mut m, &wave_sum(&modes, dr));
                let want = reference.mobility_tensor(dr, false);
                for (got, want) in m.iter().zip(&want) {
                    assert!((got - want).abs() < 1e-10, "xi L = {xi_l}, {name}: {got} vs {want}");
                }
            }
            let mut m = real_sum(&h, Vec3::ZERO);
            add(&mut m, &wave_sum(&modes, Vec3::ZERO));
            add(&mut m, &self_tensor(&h));
            let want = reference.mobility_tensor(Vec3::ZERO, true);
            for (got, want) in m.iter().zip(&want) {
                assert!((got - want).abs() < 1e-10, "xi L = {xi_l}, i = j: {got} vs {want}");
            }
        }
    }

    #[test]
    fn real_scalars_are_continuous_across_contact() {
        for xi in [0.2, 0.42, 0.9, 2.0] {
            let h = RpyHasimoto::new(A, ETA, 10.0, xi);
            let (fi_in, frr_in) = h.real_scalars(2.0 * A - 1e-9);
            let (fi_out, frr_out) = h.real_scalars(2.0 * A + 1e-9);
            assert!((fi_in - fi_out).abs() < 1e-8, "xi = {xi}: {fi_in} vs {fi_out}");
            assert!((frr_in - frr_out).abs() < 1e-8, "xi = {xi}: {frr_in} vs {frr_out}");
        }
    }

    #[test]
    fn real_kernel_reduces_to_rpy_as_xi_vanishes() {
        // xi -> 0 moves the whole sum into real space; the wave part left
        // behind is O(xi a) (1 - self/mu0 = 3 xi a / sqrt(pi) + ...), so the
        // distance to the free tensor must shrink with xi, on both branches.
        for r in [0.7f64, 1.6, 2.0, 3.5, 6.0] {
            let (fi0, frr0) = rpy_pair_scalars(r, A);
            for xi in [0.04, 0.02, 0.01] {
                let (fi, frr) = RpyHasimoto::new(A, ETA, 10.0, xi).real_scalars(r);
                assert!((fi - fi0).abs() < 2.0 * xi, "r = {r}, xi = {xi}: {fi} vs {fi0}");
                assert!((frr - frr0).abs() < 2.0 * xi, "r = {r}, xi = {xi}: {frr} vs {frr0}");
            }
        }
    }

    #[test]
    fn self_coefficient_is_the_zero_separation_limit() {
        // Only the Yamakawa branch is non-smooth at r = 0 (its |r| terms);
        // the wave part subtracted from it is even in r, so the kernel
        // approaches the self coefficient as `-9r/32a + O(r² xi²)`.
        let r = 1e-3;
        for xi in [0.2, 0.42, 1.0, 2.5] {
            let h = RpyHasimoto::new(A, ETA, 10.0, xi);
            let (fi, frr) = h.real_scalars(r);
            let s = h.self_coefficient() / h.mu0();
            assert!((fi + 9.0 * r / 32.0 - s).abs() < 1e-5, "xi = {xi}: {fi} vs {s}");
            assert!((frr - 3.0 * r / 32.0).abs() < 1e-5, "xi = {xi}: frr = {frr}");
            assert!(s > 0.0 && s < 1.0);
        }
    }

    #[test]
    fn wave_kernel_is_nonnegative_where_beenakkers_is_not() {
        let (xi, l) = (0.8, 10.0);
        let h = RpyHasimoto::new(A, ETA, l, xi);
        let b = RpyEwald::kernel_only(A, ETA, l, xi);
        let mut beenakker_negative = false;
        for i in 1..400 {
            let k = 0.02 * i as f64;
            assert!(h.recip_scalar(k * k) >= 0.0, "k = {k}");
            beenakker_negative |= b.recip_scalar(k * k) < 0.0;
        }
        assert!(beenakker_negative, "the comparison needs k beyond sqrt(3)/a");
        // Same small-k limit: both splits agree on the Oseen pole.
        let k2 = 1e-6;
        assert!((h.recip_scalar(k2) / b.recip_scalar(k2) - 1.0).abs() < 1e-6);
    }

    /// Sequential insertion with a minimum pair distance of `2a`.
    fn suspension(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * box_l
        };
        let mut pos: Vec<Vec3> = Vec::with_capacity(n);
        while pos.len() < n {
            let c = Vec3::new(next(), next(), next());
            if pos.iter().all(|p| (*p - c).min_image(box_l).norm() >= 2.0 * A) {
                pos.push(c);
            }
        }
        pos
    }

    fn min_eigenvalue(pos: &[Vec3], block: impl Fn(Vec3, bool) -> [f64; 9]) -> f64 {
        let n = pos.len();
        let mut m = DMat::zeros(3 * n, 3 * n);
        for i in 0..n {
            for j in 0..n {
                let t = block(pos[i] - pos[j], i == j);
                for bi in 0..3 {
                    for bj in 0..3 {
                        m[(3 * i + bi, 3 * j + bj)] = t[3 * bi + bj];
                    }
                }
            }
        }
        assert!(m.max_asymmetry() < 1e-12);
        sym_eig(&m).unwrap().0.iter().copied().fold(f64::MAX, f64::min)
    }

    #[test]
    fn both_halves_are_positive_definite_for_every_xi() {
        // phi = 0.2, n = 16. The image-summed near field and the wave sum
        // are each a nonnegative spectrum's transform: their minimum
        // eigenvalues stay positive over the sweep on which the Beenakker
        // near field turns indefinite past xi L = 1.9.
        let n = 16;
        let l = (n as f64 * 4.0 / 3.0 * PI / 0.2).cbrt();
        let pos = suspension(n, l, 7);
        for xi_l in XI_L {
            let h = RpyHasimoto::new(A, ETA, l, xi_l / l);
            let near = min_eigenvalue(&pos, |dr, same| {
                let mut t = real_sum(&h, dr);
                if same {
                    add(&mut t, &self_tensor(&h));
                }
                t
            });
            assert!(near > 0.0, "xi L = {xi_l}: near field min eigenvalue {near}");
            let modes = wave_modes(&h);
            let wave = min_eigenvalue(&pos, |dr, _| wave_sum(&modes, dr));
            // Fewer than 3n independent modes at xi L = 1 would still be
            // PSD; the strict sign needs the table to span the space.
            assert!(wave > 0.0, "xi L = {xi_l}: wave sum min eigenvalue {wave}");
        }
    }
}
