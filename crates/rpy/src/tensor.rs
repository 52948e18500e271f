//! The free-space Rotne–Prager–Yamakawa tensor.
//!
//! For two spheres of equal radius `a` in an unbounded fluid of viscosity
//! `eta`, separated by `r = |r_ij|` (paper Section II-A):
//!
//! * `r >= 2a`:
//!   `M_ij = mu0 [ (3a/4r + a^3/2r^3) I + (3a/4r - 3a^3/2r^3) r̂ r̂ᵀ ]`
//! * `r < 2a` (Yamakawa's regularization; keeps `M` positive definite even
//!   for overlapping spheres):
//!   `M_ij = mu0 [ (1 - 9r/32a) I + (3r/32a) r̂ r̂ᵀ ]`
//! * `M_ii = mu0 I`
//!
//! with `mu0 = 1/(6 pi eta a)`.

use hibd_mathx::Vec3;

/// Self-mobility `mu0 = 1/(6 pi eta a)` of an isolated sphere.
#[inline]
pub fn rpy_self_mobility(a: f64, eta: f64) -> f64 {
    1.0 / (6.0 * std::f64::consts::PI * eta * a)
}

/// Scalar RPY pair coefficients `(fI, frr)` in units of `mu0`, such that the
/// pair tensor is `mu0 (fI I + frr r̂ r̂ᵀ)`. Handles both branches.
#[inline]
pub fn rpy_pair_scalars(r: f64, a: f64) -> (f64, f64) {
    debug_assert!(r > 0.0);
    if r >= 2.0 * a {
        let ar = a / r;
        let ar3 = ar * ar * ar;
        (0.75 * ar + 0.5 * ar3, 0.75 * ar - 1.5 * ar3)
    } else {
        let ra = r / a;
        (1.0 - 9.0 * ra / 32.0, 3.0 * ra / 32.0)
    }
}

/// Full 3x3 RPY pair tensor (row-major) for displacement `dr = r_i - r_j`.
pub fn rpy_pair_tensor(dr: Vec3, a: f64, eta: f64) -> [f64; 9] {
    let r = dr.norm();
    assert!(r > 0.0, "RPY tensor is undefined at zero separation");
    let (fi, frr) = rpy_pair_scalars(r, a);
    let mu0 = rpy_self_mobility(a, eta);
    let rh = dr / r;
    iso_plus_outer(mu0 * fi, mu0 * frr, rh)
}

/// Assemble `s1 * I + s2 * u uᵀ` as a row-major 3x3 tensor.
#[inline]
pub fn iso_plus_outer(s1: f64, s2: f64, u: Vec3) -> [f64; 9] {
    [
        s1 + s2 * u.x * u.x,
        s2 * u.x * u.y,
        s2 * u.x * u.z,
        s2 * u.y * u.x,
        s1 + s2 * u.y * u.y,
        s2 * u.y * u.z,
        s2 * u.z * u.x,
        s2 * u.z * u.y,
        s1 + s2 * u.z * u.z,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: f64 = 1.0;
    const ETA: f64 = 1.0;

    #[test]
    fn self_mobility_value() {
        let mu0 = rpy_self_mobility(A, ETA);
        assert!((mu0 - 1.0 / (6.0 * std::f64::consts::PI)).abs() < 1e-16);
        // Scales inversely with radius and viscosity.
        assert!((rpy_self_mobility(2.0, 1.0) - mu0 / 2.0).abs() < 1e-16);
        assert!((rpy_self_mobility(1.0, 3.0) - mu0 / 3.0).abs() < 1e-16);
    }

    #[test]
    fn far_field_approaches_oseen() {
        // At large r the RPY tensor approaches the Oseen tensor
        // (1/(8 pi eta r)) (I + r̂r̂ᵀ).
        let r = 1000.0;
        let dr = Vec3::new(r, 0.0, 0.0);
        let m = rpy_pair_tensor(dr, A, ETA);
        let oseen_par = 2.0 / (8.0 * std::f64::consts::PI * ETA * r); // (I + r̂r̂)_xx = 2
        let oseen_perp = 1.0 / (8.0 * std::f64::consts::PI * ETA * r);
        assert!((m[0] - oseen_par).abs() < 1e-3 * oseen_par);
        assert!((m[4] - oseen_perp).abs() < 1e-3 * oseen_perp);
        assert!(m[1].abs() < 1e-15);
    }

    #[test]
    fn tensor_is_symmetric_and_isotropic_along_axes() {
        let m = rpy_pair_tensor(Vec3::new(0.0, 3.0, 0.0), A, ETA);
        // Only yy differs from xx/zz for a y-separation.
        assert_eq!(m[0], m[8]);
        assert!(m[4] > m[0]);
        for (i, j) in [(1, 3), (2, 6), (5, 7)] {
            assert_eq!(m[i], m[j]);
        }
    }

    #[test]
    fn branches_are_continuous_at_contact() {
        let eps = 1e-9;
        let (fi_in, frr_in) = rpy_pair_scalars(2.0 * A - eps, A);
        let (fi_out, frr_out) = rpy_pair_scalars(2.0 * A + eps, A);
        assert!((fi_in - fi_out).abs() < 1e-8, "{fi_in} vs {fi_out}");
        assert!((frr_in - frr_out).abs() < 1e-8);
        // Known contact values: fI = 7/16, frr = 3/16 at r = 2a.
        assert!((fi_out - 7.0 / 16.0).abs() < 1e-8);
        assert!((frr_out - 3.0 / 16.0).abs() < 1e-8);
    }

    #[test]
    fn scalars_are_the_equal_radius_limit_of_the_unequal_sphere_tensor() {
        // Zuk, Wajnryb, Mizerski & Szymczak (J. Fluid Mech. 741, 2014) give
        // the RPY tensor for radii `a_i != a_j`. At `a_i = a_j = a`, in units
        // of `mu0`, their partial-overlap and far branches read as below: an
        // expression tree independent of `rpy_pair_scalars`, at `a != 1`,
        // inside both branches and on both sides of contact.
        let a = 1.3;
        for r in [0.4, 1.0, 2.0, 2.6 - 1e-9, 2.6 + 1e-9, 4.0, 10.0] {
            let (r2, r3) = (r * r, r * r * r);
            let (want_i, want_rr) = if r <= 2.0 * a {
                let overlap = 32.0 * r3 * a;
                ((32.0 * a * r3 - 9.0 * r2 * r2) / overlap, 3.0 * r2 * r2 / overlap)
            } else {
                let oseen = 6.0 * a / (8.0 * r);
                (oseen * (1.0 + 2.0 * a * a / (3.0 * r2)), oseen * (1.0 - 2.0 * a * a / r2))
            };
            let (fi, frr) = rpy_pair_scalars(r, a);
            assert!((fi - want_i).abs() < 1e-13, "r={r}: {fi} vs {want_i}");
            assert!((frr - want_rr).abs() < 1e-13, "r={r}: {frr} vs {want_rr}");
        }
    }

    #[test]
    fn overlap_limit_reaches_self_mobility() {
        // As r -> 0 the regularized tensor approaches mu0 I.
        let (fi, frr) = rpy_pair_scalars(1e-12, A);
        assert!((fi - 1.0).abs() < 1e-10);
        assert!(frr.abs() < 1e-10);
    }

    #[test]
    fn tensor_depends_only_on_separation_direction_and_magnitude() {
        let m1 = rpy_pair_tensor(Vec3::new(1.0, 2.0, 2.0), A, ETA);
        let m2 = rpy_pair_tensor(Vec3::new(-1.0, -2.0, -2.0), A, ETA);
        for (a, b) in m1.iter().zip(&m2) {
            assert!((a - b).abs() < 1e-16, "RPY is even in dr");
        }
    }

    #[test]
    fn iso_plus_outer_layout() {
        let t = iso_plus_outer(2.0, 3.0, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(t, [5.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0]);
    }
}
