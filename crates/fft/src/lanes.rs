//! The [`Lane`] trait: what a 1D transform needs from its element type.
//!
//! Every line kernel in this crate — the leaf butterflies, the combine
//! stage, the DIT recursion, the r2c/c2r packing and the three [`crate::Fft3`]
//! axis passes — is written once, generic over `Lane`, and instantiated for
//! exactly two element types:
//!
//! * [`Complex64`]: one line — the public 1D API, and every line of a mesh
//!   with a Bluestein axis;
//! * [`C4`]: four lines of *one* mesh moving through the transform together
//!   ([`crate::Fft3`] bundles four consecutive rows, or four neighbouring
//!   `k2` columns of a strided axis), so one mesh fills the SIMD lanes as
//!   well as a batch does — the "3D FFTs for blocks of vectors" of the
//!   paper's Section III-B are simply many meshes. The twiddle at each step
//!   is one scalar shared by all four lanes, so a `C4` kernel replaces the
//!   per-line deinterleave/permute traffic with broadcast multiplies.
//!
//! Bitwise contract: every lane of a `C4` transform is *bitwise identical* to
//! the `Complex64` transform of that line, so which lines share a bundle — or
//! whether any do — moves no bit of a mesh (ensemble replicas are compared
//! bitwise against standalone runs). It holds because both are the same
//! source: the `C4` operators below are the `Complex64` expression trees
//! (`complex.rs`) applied per lane — plain `mul`/`add`/`sub`, never
//! `mul_add`, which would change the rounding (Rust does not contract float
//! expressions on its own). The only lane-specific kernels are the AVX2 fast
//! paths: the two `combine_avx2` kernels in `simd.rs`, which share one FMA
//! register body, and [`generic_avx2`] here, which is [`generic_scalar`]
//! itself compiled for AVX2 registers. Pinned by `to_bits` tests here, in
//! `fft3.rs` and in `tests/batch_bitwise.rs`.

use crate::complex::Complex64;
use crate::plan::MAX_RADIX;
use crate::simd::CombineAvx2;
use std::ops::{Add, Mul, Sub};

/// Element type of a line transform: `LANES` complex values that move
/// through every kernel together. Storage outside a kernel is always plain
/// `Complex64` / `f64` meshes, gathered and scattered one lane at a time.
///
/// Beyond arithmetic there are three hooks and there should be no fourth:
/// `as_complex` (Bluestein), `generic_leaf`, and the `CombineAvx2`
/// supertrait, which is a trait of its own only so that the simd-dispatch
/// lint finds both `combine_avx2` kernels in `simd.rs` beside `combine_scalar`.
pub(crate) trait Lane:
    Copy
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Complex64, Output = Self>
    + CombineAvx2
{
    const ZERO: Self;
    /// Lines per element.
    const LANES: usize;

    fn scale(self, s: f64) -> Self;
    fn conj(self) -> Self;
    /// `i * z`.
    fn mul_i(self) -> Self;
    /// `-i * z`.
    fn mul_neg_i(self) -> Self;

    /// The value in lane `l < LANES`.
    fn lane(self, l: usize) -> Complex64;
    fn set_lane(&mut self, l: usize, v: Complex64);

    /// The slice as plain complex numbers, for the one-lane type only: the
    /// Bluestein fallback has no lane form.
    fn as_complex(data: &mut [Self]) -> Option<&mut [Complex64]>;

    /// Leaf DFT for the odd radices above 5:
    /// `out[s] = Σ_q t[q] gen[qs mod r]`.
    fn generic_leaf(t: &[Self], out: &mut [Self], gen: &[Complex64]) {
        generic_scalar(t, out, gen);
    }
}

impl Lane for Complex64 {
    const ZERO: Self = Complex64::ZERO;
    const LANES: usize = 1;

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        Complex64::scale(self, s)
    }
    #[inline(always)]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }
    #[inline(always)]
    fn mul_i(self) -> Self {
        Complex64::mul_i(self)
    }
    #[inline(always)]
    fn mul_neg_i(self) -> Self {
        Complex64::mul_neg_i(self)
    }
    #[inline(always)]
    fn lane(self, _: usize) -> Complex64 {
        self
    }
    #[inline(always)]
    fn set_lane(&mut self, _: usize, v: Complex64) {
        *self = v;
    }
    fn as_complex(data: &mut [Self]) -> Option<&mut [Complex64]> {
        Some(data)
    }
}

/// Four complex values in structure-of-arrays form; lane `l` holds line `l`
/// of a bundle. Each `[f64; 4]` field is exactly one AVX register wide, and
/// the alignment keeps an element on one cache line (at the allocator's 16
/// bytes, `im` straddles two in every mmap-backed slab): with the axis-0
/// gather writing whole elements this is worth 2–3 % of a K = 66 mesh.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(64))]
pub(crate) struct C4 {
    pub re: [f64; 4],
    pub im: [f64; 4],
}

/// `C4` from a per-lane `(re, im)` rule.
#[inline(always)]
fn lanewise(f: impl Fn(usize) -> (f64, f64)) -> C4 {
    let mut o = C4::ZERO;
    for l in 0..C4::LANES {
        (o.re[l], o.im[l]) = f(l);
    }
    o
}

impl Add for C4 {
    type Output = C4;
    #[inline(always)]
    fn add(self, b: C4) -> C4 {
        lanewise(|l| (self.re[l] + b.re[l], self.im[l] + b.im[l]))
    }
}

impl Sub for C4 {
    type Output = C4;
    #[inline(always)]
    fn sub(self, b: C4) -> C4 {
        lanewise(|l| (self.re[l] - b.re[l], self.im[l] - b.im[l]))
    }
}

/// Every lane times one shared twiddle, with the `Complex64::mul` tree.
impl Mul<Complex64> for C4 {
    type Output = C4;
    #[inline(always)]
    fn mul(self, w: Complex64) -> C4 {
        lanewise(|l| (self.re[l] * w.re - self.im[l] * w.im, self.re[l] * w.im + self.im[l] * w.re))
    }
}

impl Lane for C4 {
    const ZERO: Self = C4 { re: [0.0; 4], im: [0.0; 4] };
    const LANES: usize = 4;

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        lanewise(|l| (self.re[l] * s, self.im[l] * s))
    }
    #[inline(always)]
    fn conj(self) -> Self {
        lanewise(|l| (self.re[l], -self.im[l]))
    }
    #[inline(always)]
    fn mul_i(self) -> Self {
        lanewise(|l| (-self.im[l], self.re[l]))
    }
    #[inline(always)]
    fn mul_neg_i(self) -> Self {
        lanewise(|l| (self.im[l], -self.re[l]))
    }
    #[inline(always)]
    fn lane(self, l: usize) -> Complex64 {
        Complex64::new(self.re[l], self.im[l])
    }
    #[inline(always)]
    fn set_lane(&mut self, l: usize, v: Complex64) {
        (self.re[l], self.im[l]) = (v.re, v.im);
    }
    fn as_complex(_: &mut [Self]) -> Option<&mut [Complex64]> {
        None
    }
    fn generic_leaf(t: &[Self], out: &mut [Self], gen: &[Complex64]) {
        #[cfg(target_arch = "x86_64")]
        if hibd_simd::avx2() {
            // SAFETY: `hibd_simd::avx2()` returns true only after runtime
            // detection of the avx2 (and fma) target features.
            unsafe { generic_avx2(t, out, gen) };
            return;
        }
        generic_scalar(t, out, gen);
    }
}

/// DFT for the odd primes above 5 (`r <= MAX_RADIX`), table-driven:
/// `gen[j] = cis(∓2 pi j / r)`. The inputs are folded into conjugate pairs
/// `a_q = t[q] + t[r-q]`, `b_q = t[q] - t[r-q]`, whose table entries are
/// conjugates too, so that `out[s]` and `out[r-s]` share
/// `t[0] + Σ_q cos·a_q` and `i Σ_q sin·b_q` — real multiplies only, and a
/// quarter of the direct sum's count.
#[inline(always)]
fn generic_scalar<L: Lane>(t: &[L], out: &mut [L], gen: &[Complex64]) {
    let r = t.len();
    let h = r / 2;
    debug_assert!(r % 2 == 1 && r <= MAX_RADIX && gen.len() == r);
    let mut a = [L::ZERO; MAX_RADIX / 2];
    let mut b = [L::ZERO; MAX_RADIX / 2];
    let mut sum = t[0];
    for q in 1..=h {
        a[q - 1] = t[q] + t[r - q];
        b[q - 1] = t[q] - t[r - q];
        sum = sum + a[q - 1];
    }
    out[0] = sum;
    for s in 1..=h {
        let mut even = t[0];
        let mut odd = L::ZERO;
        for q in 1..=h {
            let g = gen[q * s % r];
            even = even + a[q - 1].scale(g.re);
            odd = odd + b[q - 1].scale(g.im);
        }
        let odd = odd.mul_i();
        out[s] = even + odd;
        out[r - s] = even - odd;
    }
}

/// [`generic_scalar`] for four lanes compiled for AVX2 registers: the same
/// body, so lanewise `mul`/`add`/`sub` only (no FMA — the feature is not
/// enabled here and Rust never contracts) and every lane is bitwise the
/// scalar loop — a pure speedup, legal under either `HIBD_SIMD` leg.
///
/// # Safety
/// The caller must ensure the CPU supports the `avx2` target feature
/// (runtime-detected via `hibd_simd::avx2()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn generic_avx2(t: &[C4], out: &mut [C4], gen: &[Complex64]) {
    generic_scalar(t, out, gen);
}

#[cfg(test)]
mod tests {
    //! The `C4` instantiation on tiny sizes, lane by lane against the
    //! `Complex64` one. Small enough for the Miri CI leg, which is pointed at
    //! this module (under Miri runtime feature detection reports no AVX2, so
    //! it interprets the scalar leg; natively these run the dispatched one).

    use super::*;
    use crate::plan::{Direction, FftPlan};
    use crate::real::RealFftPlan;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn c4_lines_are_bitwise_four_complex_lines() {
        // Every hand-written radix as leaf and as an `m >= 4` combine (the
        // AVX2 kernels' gate), an `m % 4` tail, and the conjugate-pair radices
        // 7, 11 and 13 as leaf, as a combine and under one.
        let sizes = [2usize, 3, 4, 5, 6, 7, 8, 12, 15, 16, 20, 22, 25];
        for n in sizes.into_iter().chain([11, 13, 14, 26, 49, 66, 77, 121, 126]) {
            let plan = FftPlan::new(n).unwrap();
            let mut next = lcg(n as u64);
            let mut lines: Vec<Vec<Complex64>> =
                (0..4).map(|_| (0..n).map(|_| Complex64::new(next(), next())).collect()).collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut bundle = vec![C4::ZERO; n];
                for (l, line) in lines.iter().enumerate() {
                    bundle.iter_mut().zip(line).for_each(|(v, c)| v.set_lane(l, *c));
                }
                plan.process(&mut bundle, &mut vec![C4::ZERO; n], dir);
                for (l, line) in lines.iter_mut().enumerate() {
                    plan.process(line, &mut vec![Complex64::ZERO; n], dir);
                    let lane: Vec<Complex64> = bundle.iter().map(|v| v.lane(l)).collect();
                    assert_eq!(bits(&lane), bits(line), "n={n} {dir:?} lane {l}");
                }
            }
        }
    }

    #[test]
    fn c4_real_lines_are_bitwise_four_real_lines() {
        for n in [2usize, 4, 8, 12, 22, 32] {
            let plan = RealFftPlan::new(n).unwrap();
            let m = n / 2;
            let mut next = lcg(100 + n as u64);
            // Two rows per mesh; the transform reads and writes the second.
            let reals: Vec<Vec<f64>> =
                (0..4).map(|_| (0..2 * n).map(|_| next()).collect()).collect();
            let mut backs = vec![vec![0.0f64; 2 * n]; 4];
            let mut bundle = vec![C4::ZERO; m + 1];
            let mut scratch = vec![C4::ZERO; plan.scratch_len()];
            plan.forward_lanes(reals.iter().map(|r| &r[n..]), &mut bundle, &mut scratch);
            plan.inverse_lanes(&bundle, backs.iter_mut().map(|b| &mut b[n..]), &mut scratch);
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            for l in 0..4 {
                let mut spec = vec![Complex64::ZERO; m + 1];
                plan.forward(&reals[l][n..], &mut spec, &mut scratch);
                let lane: Vec<Complex64> = bundle.iter().map(|v| v.lane(l)).collect();
                assert_eq!(bits(&lane), bits(&spec), "n={n} lane {l} (r2c)");
                let mut back = vec![0.0f64; n];
                plan.inverse(&spec, &mut back, &mut scratch);
                let got: Vec<u64> = backs[l][n..].iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "n={n} lane {l} (c2r)");
                assert!(backs[l][..n].iter().all(|&v| v == 0.0), "row 0 untouched");
            }
        }
    }
}
