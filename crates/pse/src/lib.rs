//! `hibd-pse`: a positively-split Ewald (PSE) Brownian displacement sampler.
//!
//! The paper's Algorithm 2 draws `g = M^{1/2} z` with block Lanczos, paying
//! one full PME apply (six batched FFT passes per column block) per Krylov
//! iteration. Fiore, Balboa Usabiaga, Donev & Swan ("Rapid sampling of
//! stochastic displacements in Brownian dynamics simulations", J. Chem.
//! Phys. 146, 124116 (2017)) observed that an Ewald split whose two halves
//! are *each* positive semidefinite hands us the square root: `M = N + A`
//! with independent samples `N^{1/2} z1 + A^{1/2} z2` has covariance `M`.
//!
//! * **Wave half `A`.** In the wave-space sum the operator is *diagonal* in
//!   `k` with tensor `I(k) = s(k) (I - k̂k̂ᵀ)`, so `I(k)^{1/2} = s(k)^{1/2}
//!   (I - k̂k̂ᵀ)` is exact and sampling costs a single inverse-FFT pass — no
//!   forward transforms, no iteration.
//! * **Near half `N`.** A short-ranged sparse matrix whose matvecs cost no
//!   FFTs at all; block Lanczos on it converges in a handful of iterations.
//!
//! Both need `s(k) >= 0` and `N` positive definite, which is a property of
//! the *split*: Hasimoto's screening function `H(k) = (1 + k²/4xi²)
//! e^{-k²/4xi²}` on the RPY spectrum `sinc²(ka)/k²` satisfies `0 <= H <= 1`,
//! so `H` and `1 - H` both multiply a nonnegative spectrum and both halves
//! are PSD for **every** `xi` ([`hibd_rpy::RpyHasimoto`]; Beenakker's split,
//! which the drift operator and the dense reference use, is not — see
//! DESIGN.md Sec. 4). With no `xi` to protect, the sampler runs at the
//! drift operator's own `(alpha, r_max, K, p)` ([`PseSplit::resolve`]): its
//! real-space tail at that cutoff is ~10x *below* Beenakker's at equal `xi`
//! and its wave kernel decays faster, so a mesh and a cutoff tuned for the
//! drift PME at `e_p` resolve the sampled operator at least as well, and the
//! near field is the same minimum-image sparsity pattern as `M_real`.
//!
//! [`PseSampler`] packages both halves: near-field block Lanczos writes the
//! output, the wave sampler accumulates on top (mirroring the overwrite +
//! accumulate convention of the PME apply pipeline).

pub mod nearfield;
pub mod sampler;

pub use nearfield::NearFieldOperator;
pub use sampler::{PseError, PseSampler};

use hibd_pme::PmeParams;

/// The sampler's split policy. It has no knobs: a positive split is valid at
/// any `xi`, so the one that costs nothing extra — the drift operator's — is
/// the only one used.
#[derive(Clone, Copy, Debug, Default)]
pub struct PseSplit {}

/// Fully resolved sampler parameters (analogous to [`PmeParams`] for the
/// PME operator).
#[derive(Clone, Copy, Debug)]
pub struct PseParams {
    /// Particle radius.
    pub a: f64,
    /// Solvent viscosity.
    pub eta: f64,
    /// Periodic box edge.
    pub box_l: f64,
    /// Splitting parameter (the PME `alpha`).
    pub xi: f64,
    /// Near-field minimum-image cutoff (the PME `r_max`, `<= L/2`).
    pub r_max: f64,
    /// Mesh dimension `K`.
    pub mesh_dim: usize,
    /// B-spline interpolation order `p`.
    pub spline_order: usize,
}

impl PseSplit {
    /// The sampler shares every parameter with the drift operator.
    pub fn resolve(&self, pme: &PmeParams) -> PseParams {
        PseParams {
            a: pme.a,
            eta: pme.eta,
            box_l: pme.box_l,
            xi: pme.alpha,
            r_max: pme.r_max,
            mesh_dim: pme.mesh_dim,
            spline_order: pme.spline_order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_returns_the_drift_operators_split() {
        for pme in [PmeParams::default(), hibd_pme::tune(200, 0.2, 1.0, 1.0, 1e-3).params] {
            let p = PseSplit::default().resolve(&pme);
            assert_eq!(p.xi.to_bits(), pme.alpha.to_bits());
            assert_eq!(p.r_max.to_bits(), pme.r_max.to_bits());
            assert_eq!(p.box_l.to_bits(), pme.box_l.to_bits());
            assert_eq!((p.mesh_dim, p.spline_order), (pme.mesh_dim, pme.spline_order));
            assert_eq!((p.a, p.eta), (pme.a, pme.eta));
        }
    }
}
