//! A minimal 3-vector used for particle positions, displacements and forces.
//!
//! Kept deliberately tiny (24 bytes, `Copy`) so that `Vec<Vec3>` is a dense
//! `3n` array with no indirection; the solver kernels reinterpret such arrays
//! as flat `&[f64]` slices where convenient.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-component double-precision vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All three components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3::new(v, v, v)
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Unit vector in the direction of `self`. Returns `None` for a zero
    /// vector (within `1e-300` of zero) instead of producing NaNs.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Minimum-image displacement in a cubic periodic box of side `l`:
    /// every component is wrapped into `[-l/2, l/2)`.
    #[inline]
    pub fn min_image(self, l: f64) -> Vec3 {
        #[inline]
        fn wrap(v: f64, l: f64) -> f64 {
            v - l * (v / l).round()
        }
        Vec3::new(wrap(self.x, l), wrap(self.y, l), wrap(self.z, l))
    }

    /// Wrap a position into the primary box `[0, l)^3`.
    #[inline]
    pub fn wrap_into_box(self, l: f64) -> Vec3 {
        #[inline]
        fn wrap(v: f64, l: f64) -> f64 {
            let w = v - l * (v / l).floor();
            // Guard against `v/l` rounding such that `w == l` exactly.
            if w >= l {
                w - l
            } else {
                w
            }
        }
        Vec3::new(wrap(self.x, l), wrap(self.y, l), wrap(self.z, l))
    }

    /// Outer product `self * oᵀ` as a row-major 3x3 tensor.
    #[inline]
    pub fn outer(self, o: Vec3) -> [f64; 9] {
        [
            self.x * o.x,
            self.x * o.y,
            self.x * o.z,
            self.y * o.x,
            self.y * o.y,
            self.y * o.z,
            self.z * o.x,
            self.z * o.y,
            self.z * o.z,
        ]
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// Reinterpret a slice of `Vec3` as a flat `&[f64]` of length `3n`.
#[inline]
pub fn as_flat(v: &[Vec3]) -> &[f64] {
    // SAFETY: Vec3 is #[repr(C)] with exactly three f64 fields, so a slice of
    // n Vec3 has the same layout as a slice of 3n f64.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<f64>(), v.len() * 3) }
}

/// Reinterpret a mutable slice of `Vec3` as a flat `&mut [f64]`.
#[inline]
pub fn as_flat_mut(v: &mut [Vec3]) -> &mut [f64] {
    // SAFETY: see `as_flat`.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<f64>(), v.len() * 3) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a.dot(b), -1.0 + 1.0 + 6.0);
    }

    #[test]
    fn norm_and_normalize() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm2(), 25.0);
        assert_eq!(v.norm(), 5.0);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn min_image_wraps_to_half_box() {
        let l = 10.0;
        let d = Vec3::new(9.0, -9.0, 4.9).min_image(l);
        assert!((d.x - -1.0).abs() < 1e-12);
        assert!((d.y - 1.0).abs() < 1e-12);
        assert!((d.z - 4.9).abs() < 1e-12);
        // Invariant: wrapped components are within [-l/2, l/2].
        for v in [-123.4, -5.0, 0.0, 5.0, 7.5, 123.4] {
            let w = Vec3::splat(v).min_image(l);
            assert!(w.x.abs() <= l / 2.0 + 1e-12);
        }
    }

    #[test]
    fn wrap_into_box_is_idempotent_and_in_range() {
        let l = 7.5;
        for v in [-20.0, -7.5, -0.1, 0.0, 3.0, 7.5, 7.4999999, 22.6] {
            let p = Vec3::splat(v).wrap_into_box(l);
            assert!(p.x >= 0.0 && p.x < l, "v={v} -> {}", p.x);
            let q = p.wrap_into_box(l);
            assert!((p - q).norm() < 1e-12);
        }
    }

    #[test]
    fn outer_product_layout() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        let o = a.outer(b);
        assert_eq!(o[0], 4.0); // xx
        assert_eq!(o[1], 5.0); // xy
        assert_eq!(o[3], 8.0); // yx
        assert_eq!(o[8], 18.0); // zz
    }

    #[test]
    fn flat_views_alias_components() {
        let mut v = vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        assert_eq!(as_flat(&v), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        as_flat_mut(&mut v)[4] = 50.0;
        assert_eq!(v[1].y, 50.0);
    }

    #[test]
    fn indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[2], 3.0);
        v[1] = -2.0;
        assert_eq!(v.y, -2.0);
    }
}
