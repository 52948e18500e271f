//! The combine stage of the mixed-radix recursion, scalar and vectorized.
//!
//! Each Cooley–Tukey level multiplies the `r` sub-transform outputs by
//! twiddle factors and applies an `r`-point butterfly for every `k` in
//! `0..m`. [`combine_scalar`] is that loop, generic over the [`Lane`] element
//! type. The AVX2 fast paths fill a register's four slots with the two
//! kinds of independent work there are, and are the only code written per
//! lane type:
//!
//! * `Complex64`: four *consecutive `k`* of one line — the interleaved data
//!   is deinterleaved into split re/im registers and twiddles come from the
//!   plan's split `tw_re`/`tw_im` tables with unit stride;
//! * `C4`: the four *lines* of a bundle at one `k` — already split, and the
//!   twiddle is one broadcast scalar.
//!
//! Both expand the same register arithmetic (`combine_body!`), in which
//! every complex multiply-add maps onto FMA instructions, so a line sees the
//! same bits whichever kernel it rode through.
//!
//! Dispatch policy (see `hibd-simd`): the AVX2 path is taken only for the
//! hand-unrolled radices 2/3/4/5 with `m >= 4`, over `k < m & !3`, and when
//! runtime detection reports AVX2+FMA. The scalar loop reproduces the
//! pre-SIMD combine operation-for-operation, so forcing `HIBD_SIMD=off`
//! yields the historical scalar transform bit for bit at 5-smooth lengths;
//! lengths with a factor 7, 11 or 13 differ from it on both legs alike, by
//! the rounding of the conjugate-pair leaf (`lanes::generic_scalar`).

use crate::complex::Complex64;
use crate::lanes::{Lane, C4};
use crate::plan::{butterfly_into, Direction, Level, MAX_RADIX};
#[cfg(target_arch = "x86_64")]
use crate::plan::{C1, C2, HALF_SQRT3, S1, S2};
use hibd_hot as hibd;

/// Combine stage entry point: `dst` holds the `lv.r` contiguous
/// sub-transform outputs of length `lv.m` each.
#[hibd::hot]
pub(crate) fn combine<L: Lane>(dst: &mut [L], lv: &Level, dir: Direction) {
    debug_assert_eq!(dst.len(), lv.r * lv.m);
    #[cfg(target_arch = "x86_64")]
    if matches!(lv.r, 2..=5) && lv.m >= 4 && hibd_simd::avx2() {
        // SAFETY: `hibd_simd::avx2()` returns true only after runtime
        // detection of the avx2 and fma target features on this CPU.
        unsafe { L::combine_avx2(dst, lv, dir) };
        return combine_scalar(dst, lv, dir, lv.m & !3);
    }
    combine_scalar(dst, lv, dir, 0);
}

/// The classic scalar combine loop over `k in k0..m`, preserved bitwise
/// from the pre-SIMD implementation (twiddle multiply, then the shared
/// butterfly kernel). Also runs the `m % 4` tail of the AVX2 paths.
#[hibd::hot]
fn combine_scalar<L: Lane>(dst: &mut [L], lv: &Level, dir: Direction, k0: usize) {
    let (r, m) = (lv.r, lv.m);
    let mut t = [L::ZERO; MAX_RADIX];
    let mut out = [L::ZERO; MAX_RADIX];
    for k in k0..m {
        for q in 0..r {
            let mut w = lv.tw[q * m + k];
            if dir == Direction::Inverse {
                w = w.conj();
            }
            t[q] = dst[q * m + k] * w;
        }
        butterfly_into(&t[..r], &mut out[..r], dir, lv.gen(dir));
        for s in 0..r {
            dst[s * m + k] = out[s];
        }
    }
}

/// The per-lane-type half of the combine stage; a supertrait of [`Lane`]
/// rather than one of its methods so that both kernels live in this file,
/// beside the scalar loop they must agree with (the simd-dispatch lint's
/// `*_avx2` / `*_scalar` rule).
pub(crate) trait CombineAvx2: Sized {
    /// Radix-2/3/4/5 butterflies for `k < lv.m & !3` (needs `lv.m >= 4`);
    /// the caller finishes `k >= lv.m & !3` with [`combine_scalar`].
    ///
    /// # Safety
    /// The caller must ensure the CPU supports the `avx2` and `fma` target
    /// features (runtime-detected via `hibd_simd::avx2()`).
    #[cfg(target_arch = "x86_64")]
    unsafe fn combine_avx2(dst: &mut [Self], lv: &Level, dir: Direction);
}

/// Deinterleave four consecutive `Complex64` starting at `$idx` into
/// `(re, im)` 4-lane registers.
#[cfg(target_arch = "x86_64")]
macro_rules! ld4 {
    ($dst:expr, $idx:expr) => {{
        // SAFETY: caller guarantees `$idx + 3 < $dst.len()`; `Complex64` is
        // `#[repr(C)] { re, im }`, so four consecutive elements are eight
        // contiguous f64 lanes readable through the cast pointer.
        let p = unsafe { $dst.as_ptr().add($idx).cast::<f64>() };
        // SAFETY: in-bounds unaligned reads of lanes 0..4 and 4..8.
        let ab = unsafe { _mm256_loadu_pd(p) };
        // SAFETY: as above.
        let cd = unsafe { _mm256_loadu_pd(p.add(4)) };
        let lo = _mm256_permute2f128_pd::<0x20>(ab, cd);
        let hi = _mm256_permute2f128_pd::<0x31>(ab, cd);
        (_mm256_unpacklo_pd(lo, hi), _mm256_unpackhi_pd(lo, hi))
    }};
}

/// Interleave `(re, im)` 4-lane registers back into four consecutive
/// `Complex64` at `$idx`.
#[cfg(target_arch = "x86_64")]
macro_rules! st4 {
    ($dst:expr, $idx:expr, $re:expr, $im:expr) => {{
        let lo = _mm256_unpacklo_pd($re, $im);
        let hi = _mm256_unpackhi_pd($re, $im);
        let ab = _mm256_permute2f128_pd::<0x20>(lo, hi);
        let cd = _mm256_permute2f128_pd::<0x31>(lo, hi);
        // SAFETY: same bounds and layout argument as `ld4!`, mutably.
        let p = unsafe { $dst.as_mut_ptr().add($idx).cast::<f64>() };
        // SAFETY: in-bounds unaligned writes of lanes 0..4 and 4..8.
        unsafe { _mm256_storeu_pd(p, ab) };
        // SAFETY: as above.
        unsafe { _mm256_storeu_pd(p.add(4), cd) };
    }};
}

/// Load the [`C4`] at `$idx` into `(re, im)` registers (no deinterleave
/// needed — the struct is already split).
#[cfg(target_arch = "x86_64")]
macro_rules! ldc4 {
    ($dst:expr, $idx:expr) => {{
        // SAFETY: `[f64; 4]` is 4 contiguous f64s; in-bounds load.
        let re = unsafe { _mm256_loadu_pd($dst[$idx].re.as_ptr()) };
        // SAFETY: as above.
        let im = unsafe { _mm256_loadu_pd($dst[$idx].im.as_ptr()) };
        (re, im)
    }};
}

/// Store `(re, im)` registers into the [`C4`] at `$idx`.
#[cfg(target_arch = "x86_64")]
macro_rules! stc4 {
    ($dst:expr, $idx:expr, $re:expr, $im:expr) => {{
        // SAFETY: in-bounds stores into the 4-lane arrays.
        unsafe { _mm256_storeu_pd($dst[$idx].re.as_mut_ptr(), $re) };
        // SAFETY: as above.
        unsafe { _mm256_storeu_pd($dst[$idx].im.as_mut_ptr(), $im) };
    }};
}

/// Lanewise complex multiply `(zr + i zi) * (wr + i wi)` via FMA.
#[cfg(target_arch = "x86_64")]
macro_rules! cmul {
    ($zr:expr, $zi:expr, $wr:expr, $wi:expr) => {
        (
            _mm256_fmsub_pd($zr, $wr, _mm256_mul_pd($zi, $wi)),
            _mm256_fmadd_pd($zr, $wi, _mm256_mul_pd($zi, $wr)),
        )
    };
}

/// Butterfly inputs `t_q` for four consecutive `k`: `dst[$idx .. $idx + 4]`
/// times their twiddles from the SoA tables, conjugated via `$conj` (a sign
/// mask of `-0.0` per lane for inverse transforms, else zeros).
#[cfg(target_arch = "x86_64")]
macro_rules! ldt4 {
    ($dst:expr, $lv:expr, $idx:expr, $conj:expr) => {{
        let (zr, zi) = ld4!($dst, $idx);
        // SAFETY: caller guarantees `$idx + 3` is within the `r*m`-long
        // twiddle tables.
        let wr = unsafe { _mm256_loadu_pd($lv.tw_re.as_ptr().add($idx)) };
        // SAFETY: as above; `tw_im` has the same length as `tw_re`.
        let wi = unsafe { _mm256_loadu_pd($lv.tw_im.as_ptr().add($idx)) };
        cmul!(zr, zi, wr, _mm256_xor_pd(wi, $conj))
    }};
}

/// Butterfly input `t_q` for four lines: the lane bundle at `$idx` times
/// its one twiddle, broadcast and conjugated exactly as `ldt4!` does.
#[cfg(target_arch = "x86_64")]
macro_rules! ldtc4 {
    ($dst:expr, $lv:expr, $idx:expr, $conj:expr) => {{
        let (zr, zi) = ldc4!($dst, $idx);
        let w = $lv.tw[$idx];
        cmul!(zr, zi, _mm256_set1_pd(w.re), _mm256_xor_pd(_mm256_set1_pd(w.im), $conj))
    }};
}

/// The radix-2/3/4/5 butterflies in split re/im registers, for
/// `k in (0..m & !3).step_by($step)` — the one copy of the FMA expression
/// tree. `$ld!(dst, idx)` loads the `(re, im)` registers at `idx`,
/// `$ldt!(dst, lv, idx, conj)` loads them times their twiddles, and
/// `$st!(dst, idx, re, im)` stores; what a register's four slots *are* is
/// the caller's business.
#[cfg(target_arch = "x86_64")]
macro_rules! combine_body {
    ($dst:ident, $lv:ident, $dir:ident, $step:literal, $ld:ident, $ldt:ident, $st:ident) => {{
        let (r, m) = ($lv.r, $lv.m);
        debug_assert!($dst.len() == r * m && $lv.tw.len() == r * m);
        debug_assert!($lv.tw_re.len() == r * m && $lv.tw_im.len() == r * m);
        debug_assert!(m >= 4 && (2..=5).contains(&r));
        let inv = $dir == Direction::Inverse;
        // `sgn` matches the scalar butterflies: -1 forward, +1 inverse,
        // applied wherever the scalar kernel multiplies by ±i.
        let sgn = if inv { 1.0 } else { -1.0 };
        let conj = if inv { _mm256_set1_pd(-0.0) } else { _mm256_setzero_pd() };
        let m4 = m & !3;

        match r {
            2 => {
                let mut k = 0;
                while k < m4 {
                    let (ar, ai) = $ld!($dst, k);
                    let (br, bi) = $ldt!($dst, $lv, m + k, conj);
                    $st!($dst, k, _mm256_add_pd(ar, br), _mm256_add_pd(ai, bi));
                    $st!($dst, m + k, _mm256_sub_pd(ar, br), _mm256_sub_pd(ai, bi));
                    k += $step;
                }
            }
            3 => {
                let half = _mm256_set1_pd(0.5);
                let hp = _mm256_set1_pd(sgn * HALF_SQRT3);
                let hm = _mm256_set1_pd(-sgn * HALF_SQRT3);
                let mut k = 0;
                while k < m4 {
                    let (t0r, t0i) = $ld!($dst, k);
                    let (t1r, t1i) = $ldt!($dst, $lv, m + k, conj);
                    let (t2r, t2i) = $ldt!($dst, $lv, 2 * m + k, conj);
                    let sr = _mm256_add_pd(t1r, t2r);
                    let si = _mm256_add_pd(t1i, t2i);
                    let dr = _mm256_sub_pd(t1r, t2r);
                    let di = _mm256_sub_pd(t1i, t2i);
                    // m1 = t0 - s/2; m2 = ∓i * sqrt(3)/2 * d.
                    let m1r = _mm256_fnmadd_pd(half, sr, t0r);
                    let m1i = _mm256_fnmadd_pd(half, si, t0i);
                    let m2r = _mm256_mul_pd(hm, di);
                    let m2i = _mm256_mul_pd(hp, dr);
                    $st!($dst, k, _mm256_add_pd(t0r, sr), _mm256_add_pd(t0i, si));
                    $st!($dst, m + k, _mm256_add_pd(m1r, m2r), _mm256_add_pd(m1i, m2i));
                    $st!($dst, 2 * m + k, _mm256_sub_pd(m1r, m2r), _mm256_sub_pd(m1i, m2i));
                    k += $step;
                }
            }
            4 => {
                let psg = _mm256_set1_pd(sgn);
                let nsg = _mm256_set1_pd(-sgn);
                let mut k = 0;
                while k < m4 {
                    let (t0r, t0i) = $ld!($dst, k);
                    let (t1r, t1i) = $ldt!($dst, $lv, m + k, conj);
                    let (t2r, t2i) = $ldt!($dst, $lv, 2 * m + k, conj);
                    let (t3r, t3i) = $ldt!($dst, $lv, 3 * m + k, conj);
                    let ar = _mm256_add_pd(t0r, t2r);
                    let ai = _mm256_add_pd(t0i, t2i);
                    let br = _mm256_sub_pd(t0r, t2r);
                    let bi = _mm256_sub_pd(t0i, t2i);
                    let cr = _mm256_add_pd(t1r, t3r);
                    let ci = _mm256_add_pd(t1i, t3i);
                    let er = _mm256_sub_pd(t1r, t3r);
                    let ei = _mm256_sub_pd(t1i, t3i);
                    // id = ∓i * (t1 - t3).
                    let idr = _mm256_mul_pd(nsg, ei);
                    let idi = _mm256_mul_pd(psg, er);
                    $st!($dst, k, _mm256_add_pd(ar, cr), _mm256_add_pd(ai, ci));
                    $st!($dst, m + k, _mm256_add_pd(br, idr), _mm256_add_pd(bi, idi));
                    $st!($dst, 2 * m + k, _mm256_sub_pd(ar, cr), _mm256_sub_pd(ai, ci));
                    $st!($dst, 3 * m + k, _mm256_sub_pd(br, idr), _mm256_sub_pd(bi, idi));
                    k += $step;
                }
            }
            5 => {
                let vc1 = _mm256_set1_pd(C1);
                let vs1 = _mm256_set1_pd(S1);
                let vc2 = _mm256_set1_pd(C2);
                let vs2 = _mm256_set1_pd(S2);
                let psg = _mm256_set1_pd(sgn);
                let nsg = _mm256_set1_pd(-sgn);
                let mut k = 0;
                while k < m4 {
                    let (t0r, t0i) = $ld!($dst, k);
                    let (t1r, t1i) = $ldt!($dst, $lv, m + k, conj);
                    let (t2r, t2i) = $ldt!($dst, $lv, 2 * m + k, conj);
                    let (t3r, t3i) = $ldt!($dst, $lv, 3 * m + k, conj);
                    let (t4r, t4i) = $ldt!($dst, $lv, 4 * m + k, conj);
                    let ar = _mm256_add_pd(t1r, t4r);
                    let ai = _mm256_add_pd(t1i, t4i);
                    let br = _mm256_sub_pd(t1r, t4r);
                    let bi = _mm256_sub_pd(t1i, t4i);
                    let cr = _mm256_add_pd(t2r, t3r);
                    let ci = _mm256_add_pd(t2i, t3i);
                    let dr = _mm256_sub_pd(t2r, t3r);
                    let di = _mm256_sub_pd(t2i, t3i);
                    // re1 = t0 + C1 a + C2 c ; re2 = t0 + C2 a + C1 c.
                    let re1r = _mm256_fmadd_pd(vc2, cr, _mm256_fmadd_pd(vc1, ar, t0r));
                    let re1i = _mm256_fmadd_pd(vc2, ci, _mm256_fmadd_pd(vc1, ai, t0i));
                    let re2r = _mm256_fmadd_pd(vc1, cr, _mm256_fmadd_pd(vc2, ar, t0r));
                    let re2i = _mm256_fmadd_pd(vc1, ci, _mm256_fmadd_pd(vc2, ai, t0i));
                    // im1 = ±i (S1 b + S2 d) ; im2 = ±i (S2 b - S1 d).
                    let z1r = _mm256_fmadd_pd(vs2, dr, _mm256_mul_pd(vs1, br));
                    let z1i = _mm256_fmadd_pd(vs2, di, _mm256_mul_pd(vs1, bi));
                    let z2r = _mm256_fnmadd_pd(vs1, dr, _mm256_mul_pd(vs2, br));
                    let z2i = _mm256_fnmadd_pd(vs1, di, _mm256_mul_pd(vs2, bi));
                    let im1r = _mm256_mul_pd(nsg, z1i);
                    let im1i = _mm256_mul_pd(psg, z1r);
                    let im2r = _mm256_mul_pd(nsg, z2i);
                    let im2i = _mm256_mul_pd(psg, z2r);
                    let or0 = _mm256_add_pd(t0r, _mm256_add_pd(ar, cr));
                    let oi0 = _mm256_add_pd(t0i, _mm256_add_pd(ai, ci));
                    $st!($dst, k, or0, oi0);
                    $st!($dst, m + k, _mm256_add_pd(re1r, im1r), _mm256_add_pd(re1i, im1i));
                    $st!($dst, 2 * m + k, _mm256_add_pd(re2r, im2r), _mm256_add_pd(re2i, im2i));
                    $st!($dst, 3 * m + k, _mm256_sub_pd(re2r, im2r), _mm256_sub_pd(re2i, im2i));
                    $st!($dst, 4 * m + k, _mm256_sub_pd(re1r, im1r), _mm256_sub_pd(re1i, im1i));
                    k += $step;
                }
            }
            _ => unreachable!("combine dispatches radix 2..=5 only"),
        }
    }};
}

impl CombineAvx2 for Complex64 {
    /// Four consecutive `k` per register, deinterleaved from the AoS line.
    ///
    /// # Safety
    /// See [`CombineAvx2::combine_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[hibd::hot]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn combine_avx2(dst: &mut [Self], lv: &Level, dir: Direction) {
        use core::arch::x86_64::*;
        combine_body!(dst, lv, dir, 4, ld4, ldt4, st4);
    }
}

impl CombineAvx2 for C4 {
    /// Four lines at one `k` per register, one broadcast twiddle.
    ///
    /// # Safety
    /// See [`CombineAvx2::combine_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[hibd::hot]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn combine_avx2(dst: &mut [Self], lv: &Level, dir: Direction) {
        use core::arch::x86_64::*;
        combine_body!(dst, lv, dir, 1, ldc4, ldtc4, stc4);
    }
}
