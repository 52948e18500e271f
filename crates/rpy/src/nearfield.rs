//! Batched near-field pair kernels (4 target–source pairs per iteration).
//!
//! Two consumers share these kernels:
//!
//! * the treecode near field evaluates the free-space two-branch RPY tensor
//!   for every unseparated pair ([`rpy_pairs_accumulate_multi`]): one target
//!   against a staged SoA tile of sources, four pairs per AVX2 iteration,
//!   with the Yamakawa overlap branch and the coincident `r = 0` limit
//!   handled by lane blends (a coincident lane contributes exactly
//!   `mu0 x_j`, so the self pair `j = k` needs no special casing). The pair
//!   scalars (`1/sqrt`, branch blend, `frr / r^2`) depend on the geometry
//!   only, so a block of right-hand sides shares them: they are evaluated
//!   once per pair and applied to every column.
//!   [`rpy_pairs_accumulate`] is the one-column instance;
//! * the Ewald real-space assembly evaluates Beenakker's `M^(1)` scalars
//!   for four pair displacements at once ([`real_tensors_with_overlap4`]):
//!   `erfc`/`exp` stay lane-scalar (they are iterative), while the
//!   polynomial prefactors run as 4-lane vectors that replicate the scalar
//!   expression tree operation-for-operation — the batched tensors are
//!   **bitwise identical** to [`RpyEwald::real_tensor_with_overlap`].
//!
//! **Lanes are pairs, not columns.** The treecode's far field runs its SIMD
//! lanes over the columns of a block (one pair's scalars broadcast against
//! `w` contiguous weights); here the lanes stay on four *pairs* and the
//! columns are an inner loop over per-column accumulators. A column's
//! arithmetic — FMA accumulation over the 4-pair groups, one horizontal
//! reduction, the scalar tail — is then the single-column sequence
//! verbatim, so column `j` of a block equals the one-column call by
//! `to_bits` at every width on both dispatch legs, and the one-column call
//! keeps the bits it always had. A lanes-over-columns near field measured
//! 1.5x slower at one column (7.1 vs 4.7 ms per n = 2000 apply) and would
//! move every open-boundary trajectory.
//!
//! Dispatch policy (see `hibd-simd`): AVX2+FMA kernels behind runtime
//! detection, `*_scalar` twins that reproduce the historical per-pair loops
//! everywhere else.

use crate::ewald::RpyEwald;
use crate::tensor::{iso_plus_outer, rpy_pair_scalars};
use hibd_hot as hibd;
use hibd_mathx::Vec3;

/// Recommended SoA staging tile for callers of [`rpy_pairs_accumulate`]
/// (stack buffers of this many lanes; loop over tiles beyond it).
pub const PAIR_TILE: usize = 32;

/// Columns of a block of vectors that move through the open-boundary
/// operator together: the width of the pair kernel's per-column accumulator
/// file and the column tile `hibd_treecode::TreeOperator::apply_multi` cuts
/// its blocks into. Sized by resident memory, not speed — the treecode's
/// tile scratch is `(6 n + 3 q^3 nodes) w` doubles, 2.1 MB at `w = 8` on the
/// ladder's n = 2000 open workload, whose peak RSS (18.0 MiB before blocks
/// existed) is gated at +5 %. Measured there (PR 19, same host and session):
/// a 16-column tile 19.9 MiB at 16.3 steps/s — over the gate; 8 columns
/// 17.6 MiB at 14.9 steps/s; 4 columns 16.5 MiB at 13.2 steps/s. Not a
/// tuning knob: change it only with those two numbers re-measured.
pub const COL_TILE: usize = 8;

/// Accumulate the free-space RPY action of a tile of sources on one target:
/// `out[theta] += Σ_t fi(r_t) v_t[theta] + frr(r_t) (r̂_t · v_t) r̂_t[theta]`
/// in units of `mu0` (the caller applies `mu0`), where `r_t` is the
/// target−source displacement. Coincident lanes (`r = 0`) use the
/// regularized limit `fi = 1, frr = 0`, i.e. they contribute `v_t` — which
/// is exactly the RPY self term, so a target may appear in its own tile.
///
/// The one-column instance of [`rpy_pairs_accumulate_multi`].
#[allow(clippy::too_many_arguments)]
#[hibd::hot]
#[inline]
pub fn rpy_pairs_accumulate(
    a: f64,
    px: f64,
    py: f64,
    pz: f64,
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    out: &mut [f64; 3],
) {
    rpy_pairs_accumulate_multi(
        a,
        px,
        py,
        pz,
        sx,
        sy,
        sz,
        &[[vx, vy, vz]],
        std::slice::from_mut(out),
    );
}

/// [`rpy_pairs_accumulate`] for a block of source vectors: `cols[j]` is
/// column `j`'s `[vx, vy, vz]` over the same source tile, `out[j]` its
/// accumulator. Each pair's scalars are evaluated once and applied to every
/// column; `out[j]` is bitwise what the one-column call on `cols[j]`
/// produces (see the module docs).
///
/// # Panics
/// If the source and column slices do not all share one length, or unless
/// `cols.len() == out.len() <= COL_TILE` (the accumulator file's width).
#[allow(clippy::too_many_arguments)]
#[hibd::hot]
#[inline]
pub fn rpy_pairs_accumulate_multi(
    a: f64,
    px: f64,
    py: f64,
    pz: f64,
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    cols: &[[&[f64]; 3]],
    out: &mut [[f64; 3]],
) {
    let len = sx.len();
    // The AVX2 kernel loads without bounds checks: a hard assert, not a
    // debug one.
    assert!(
        sy.len() == len
            && sz.len() == len
            && cols.len() == out.len()
            && cols.len() <= COL_TILE
            && cols.iter().all(|c| c.iter().all(|v| v.len() == len)),
        "pair tile slices must share one length, columns and outputs one width <= COL_TILE"
    );
    #[cfg(target_arch = "x86_64")]
    if len >= 4 && hibd_simd::avx2() {
        // SAFETY: `hibd_simd::avx2()` returns true only after runtime
        // detection of the avx2 and fma target features on this CPU; the
        // slice lengths and the width were checked above.
        unsafe {
            match cols.len() {
                1 => pairs_accumulate_avx2::<1>(a, px, py, pz, sx, sy, sz, cols, out),
                COL_TILE => pairs_accumulate_avx2::<COL_TILE>(a, px, py, pz, sx, sy, sz, cols, out),
                _ => pairs_accumulate_avx2::<0>(a, px, py, pz, sx, sy, sz, cols, out),
            }
        }
        return;
    }
    pairs_accumulate_scalar(a, px, py, pz, sx, sy, sz, cols, 0, out);
}

/// Scalar pair loop over sources `t0..`, reproducing the historical
/// treecode near-field arithmetic per pair and column (two-branch scalars,
/// normalized `r̂`, coincident limit); the scalars are shared by the columns.
#[allow(clippy::too_many_arguments)]
#[hibd::hot]
fn pairs_accumulate_scalar(
    a: f64,
    px: f64,
    py: f64,
    pz: f64,
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    cols: &[[&[f64]; 3]],
    t0: usize,
    out: &mut [[f64; 3]],
) {
    for t in t0..sx.len() {
        let dx = px - sx[t];
        let dy = py - sy[t];
        let dz = pz - sz[t];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 == 0.0 {
            for (c, o) in cols.iter().zip(out.iter_mut()) {
                o[0] += c[0][t];
                o[1] += c[1][t];
                o[2] += c[2][t];
            }
            continue;
        }
        let r = r2.sqrt();
        let (fi, frr) = rpy_pair_scalars(r, a);
        let rhx = dx / r;
        let rhy = dy / r;
        let rhz = dz / r;
        for (c, o) in cols.iter().zip(out.iter_mut()) {
            let (vx, vy, vz) = (c[0][t], c[1][t], c[2][t]);
            let dot = rhx * vx + rhy * vy + rhz * vz;
            o[0] += fi * vx + (frr * dot) * rhx;
            o[1] += fi * vy + (frr * dot) * rhy;
            o[2] += fi * vz + (frr * dot) * rhz;
        }
    }
}

/// AVX2+FMA pair kernel: four pairs per iteration. Both RPY branches are
/// evaluated and blended on `r < 2a`; coincident lanes are then overridden
/// to `fi = 1, frr = 0` (the division guard substitutes `r^2 = 1` in dead
/// lanes so no NaN contaminates the blend). `frr` is folded as `frr / r^2`
/// so the raw displacement replaces the normalized `r̂`. The group's five
/// scalar vectors stay in registers while every column's three accumulators
/// take their FMAs; after the groups each column reduces horizontally, and
/// the `len % 4` tail runs through [`pairs_accumulate_scalar`].
///
/// `W` is the column count known at compile time (the accumulator file is
/// then register-allocated; `W = 1` is the historical single-vector
/// kernel), or `0` for "read it from `cols.len()`".
///
/// # Safety
/// The caller must ensure the CPU supports the `avx2` and `fma` target
/// features (runtime-detected via `hibd_simd::avx2()`), that `sy`, `sz` and
/// every slice of `cols` are as long as `sx`, and that
/// `cols.len() == out.len() <= COL_TILE` (`== W` unless `W` is `0`).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[hibd::hot]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn pairs_accumulate_avx2<const W: usize>(
    a: f64,
    px: f64,
    py: f64,
    pz: f64,
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    cols: &[[&[f64]; 3]],
    out: &mut [[f64; 3]],
) {
    use core::arch::x86_64::*;

    let w = if W == 0 { cols.len() } else { W };
    let (cols, out) = (&cols[..w], &mut out[..w]);
    let len = sx.len();
    let n4 = len & !3;
    let vpx = _mm256_set1_pd(px);
    let vpy = _mm256_set1_pd(py);
    let vpz = _mm256_set1_pd(pz);
    let va = _mm256_set1_pd(a);
    let four_a2 = _mm256_set1_pd(4.0 * a * a);
    let one = _mm256_set1_pd(1.0);
    let zero = _mm256_setzero_pd();
    let c075 = _mm256_set1_pd(0.75);
    let c05 = _mm256_set1_pd(0.5);
    let c15 = _mm256_set1_pd(1.5);
    // Yamakawa overlap branch: fi = 1 - 9r/(32a), frr = 3r/(32a).
    let c9_32a = _mm256_set1_pd(9.0 / (32.0 * a));
    let c3_32a = _mm256_set1_pd(3.0 / (32.0 * a));
    let mut acc = [[zero; 3]; COL_TILE];
    let mut t = 0;
    while t < n4 {
        // SAFETY: `t + 3 < n4 <= len` and all slices share `len` (caller
        // contract).
        let (dx, dy, dz) = unsafe {
            (
                _mm256_sub_pd(vpx, _mm256_loadu_pd(sx.as_ptr().add(t))),
                _mm256_sub_pd(vpy, _mm256_loadu_pd(sy.as_ptr().add(t))),
                _mm256_sub_pd(vpz, _mm256_loadu_pd(sz.as_ptr().add(t))),
            )
        };
        let r2 = _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
        let zero_mask = _mm256_cmp_pd::<_CMP_EQ_OQ>(r2, zero);
        let near_mask = _mm256_cmp_pd::<_CMP_LT_OQ>(r2, four_a2);
        // Guard dead lanes before the divisions.
        let safe_r2 = _mm256_blendv_pd(r2, one, zero_mask);
        let r = _mm256_sqrt_pd(safe_r2);
        let ir = _mm256_div_pd(one, r);
        let ar = _mm256_mul_pd(va, ir);
        let ar3 = _mm256_mul_pd(_mm256_mul_pd(ar, ar), ar);
        // Far branch: fi = 0.75 ar + 0.5 ar^3, frr = 0.75 ar - 1.5 ar^3.
        let fi_far = _mm256_fmadd_pd(c05, ar3, _mm256_mul_pd(c075, ar));
        let frr_far = _mm256_fnmadd_pd(c15, ar3, _mm256_mul_pd(c075, ar));
        let fi_near = _mm256_fnmadd_pd(c9_32a, r, one);
        let frr_near = _mm256_mul_pd(c3_32a, r);
        let fi = _mm256_blendv_pd(fi_far, fi_near, near_mask);
        let frr = _mm256_blendv_pd(frr_far, frr_near, near_mask);
        // Coincident limit: mu0 I, i.e. fi = 1, frr = 0.
        let fi = _mm256_blendv_pd(fi, one, zero_mask);
        let frr = _mm256_blendv_pd(frr, zero, zero_mask);
        let g = _mm256_div_pd(frr, safe_r2);
        for (c, o) in cols.iter().zip(acc.iter_mut()) {
            // SAFETY: as above — every column slice has `len` entries.
            let (wx, wy, wz) = unsafe {
                (
                    _mm256_loadu_pd(c[0].as_ptr().add(t)),
                    _mm256_loadu_pd(c[1].as_ptr().add(t)),
                    _mm256_loadu_pd(c[2].as_ptr().add(t)),
                )
            };
            let dot = _mm256_fmadd_pd(dz, wz, _mm256_fmadd_pd(dy, wy, _mm256_mul_pd(dx, wx)));
            let gd = _mm256_mul_pd(g, dot);
            o[0] = _mm256_fmadd_pd(gd, dx, _mm256_fmadd_pd(fi, wx, o[0]));
            o[1] = _mm256_fmadd_pd(gd, dy, _mm256_fmadd_pd(fi, wy, o[1]));
            o[2] = _mm256_fmadd_pd(gd, dz, _mm256_fmadd_pd(fi, wz, o[2]));
        }
        t += 4;
    }
    for (o, lanes) in out.iter_mut().zip(&acc) {
        for (ov, &v) in o.iter_mut().zip(lanes) {
            let s = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
            *ov += _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
        }
    }
    pairs_accumulate_scalar(a, px, py, pz, sx, sy, sz, cols, n4, out);
}

/// Evaluate four Ewald real-space pair tensors (overlap correction
/// included) at once: `out[t] = mu0 (fi I + frr r̂r̂ᵀ)` for displacement
/// `rv[t]`, bitwise identical to four calls of
/// [`RpyEwald::real_tensor_with_overlap`].
#[hibd::hot]
pub fn real_tensors_with_overlap4(ew: &RpyEwald, rv: &[Vec3; 4], out: &mut [[f64; 9]; 4]) {
    #[cfg(target_arch = "x86_64")]
    if hibd_simd::avx2() {
        use std::f64::consts::PI;
        let mut r = [0.0; 4];
        let mut e = [0.0; 4];
        let mut erfc_x = [0.0; 4];
        // `erfc` and `exp` are iterative: keep them lane-scalar, exactly as
        // the scalar kernel computes them.
        for t in 0..4 {
            r[t] = rv[t].norm();
            let x = ew.xi * r[t];
            e[t] = (-x * x).exp() / PI.sqrt();
            erfc_x[t] = hibd_mathx::erfc(x);
        }
        let mut fi = [0.0; 4];
        let mut frr = [0.0; 4];
        // SAFETY: `hibd_simd::avx2()` returns true only after runtime
        // detection of the avx2 and fma target features on this CPU.
        unsafe { real_scalars4_avx2(ew.a, ew.xi, &r, &e, &erfc_x, &mut fi, &mut frr) };
        let mu0 = ew.mu0();
        for t in 0..4 {
            let (di, drr) = ew.overlap_scalars(r[t]);
            out[t] = iso_plus_outer(mu0 * (fi[t] + di), mu0 * (frr[t] + drr), rv[t] / r[t]);
        }
        return;
    }
    real_scalars4_scalar(ew, rv, out);
}

/// Scalar fallback: four independent calls of the canonical per-pair
/// kernel.
#[hibd::hot]
fn real_scalars4_scalar(ew: &RpyEwald, rv: &[Vec3; 4], out: &mut [[f64; 9]; 4]) {
    for t in 0..4 {
        out[t] = ew.real_tensor_with_overlap(rv[t]);
    }
}

/// Beenakker real-space scalars for four distances at once, given the
/// staged lane-scalar `e = exp(-(xi r)^2)/sqrt(pi)` and `erfc(xi r)`. The
/// vector expression tree mirrors [`RpyEwald::real_scalars`]
/// operation-for-operation (mul/add/sub/div only, no re-association, no
/// FMA contraction), so the lanes are bitwise identical to the scalar
/// kernel. The Beenakker coefficients are pinned by the xi-independence
/// tests in `ewald.rs`; change them only there.
///
/// # Safety
/// The caller must ensure the CPU supports the `avx2` and `fma` target
/// features (runtime-detected via `hibd_simd::avx2()`).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[hibd::hot]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn real_scalars4_avx2(
    a: f64,
    xi: f64,
    r: &[f64; 4],
    e: &[f64; 4],
    erfc_x: &[f64; 4],
    fi: &mut [f64; 4],
    frr: &mut [f64; 4],
) {
    use core::arch::x86_64::*;

    let a3 = a * a * a;
    let xi3 = xi * xi * xi;
    let xi5 = xi3 * xi * xi;
    let xi7 = xi5 * xi * xi;
    // SAFETY: all arrays are exactly four lanes.
    let (rv, ev, erfcv) = unsafe {
        (_mm256_loadu_pd(r.as_ptr()), _mm256_loadu_pd(e.as_ptr()), _mm256_loadu_pd(erfc_x.as_ptr()))
    };
    let r2 = _mm256_mul_pd(rv, rv);
    let r2r = _mm256_mul_pd(r2, rv);
    // fi = (0.75 a / r + 0.5 a^3 / r^3) erfc
    //    + (4 xi^7 a^3 r^4 + 3 xi^3 a r^2 - 20 xi^5 a^3 r^2 - 4.5 xi a
    //       + 14 xi^3 a^3 + xi a^3 / r^2) e
    let t_erfc = _mm256_add_pd(
        _mm256_div_pd(_mm256_set1_pd(0.75 * a), rv),
        _mm256_div_pd(_mm256_set1_pd(0.5 * a3), r2r),
    );
    // `c * r2 * r2` must round like the scalar's left-to-right chain, so no
    // pre-squared r^4: multiply by r2 twice.
    let mut poly = _mm256_add_pd(
        _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(4.0 * xi7 * a3), r2), r2),
        _mm256_mul_pd(_mm256_set1_pd(3.0 * xi3 * a), r2),
    );
    poly = _mm256_sub_pd(poly, _mm256_mul_pd(_mm256_set1_pd(20.0 * xi5 * a3), r2));
    poly = _mm256_sub_pd(poly, _mm256_set1_pd(4.5 * xi * a));
    poly = _mm256_add_pd(poly, _mm256_set1_pd(14.0 * xi3 * a3));
    poly = _mm256_add_pd(poly, _mm256_div_pd(_mm256_set1_pd(xi * a3), r2));
    let fiv = _mm256_add_pd(_mm256_mul_pd(t_erfc, erfcv), _mm256_mul_pd(poly, ev));
    // frr = (0.75 a / r - 1.5 a^3 / r^3) erfc
    //     + (-4 xi^7 a^3 r^4 - 3 xi^3 a r^2 + 16 xi^5 a^3 r^2 + 1.5 xi a
    //        - 2 xi^3 a^3 - 3 xi a^3 / r^2) e
    let t_erfc = _mm256_sub_pd(
        _mm256_div_pd(_mm256_set1_pd(0.75 * a), rv),
        _mm256_div_pd(_mm256_set1_pd(1.5 * a3), r2r),
    );
    let mut poly = _mm256_sub_pd(
        _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(-4.0 * xi7 * a3), r2), r2),
        _mm256_mul_pd(_mm256_set1_pd(3.0 * xi3 * a), r2),
    );
    poly = _mm256_add_pd(poly, _mm256_mul_pd(_mm256_set1_pd(16.0 * xi5 * a3), r2));
    poly = _mm256_add_pd(poly, _mm256_set1_pd(1.5 * xi * a));
    poly = _mm256_sub_pd(poly, _mm256_set1_pd(2.0 * xi3 * a3));
    poly = _mm256_sub_pd(poly, _mm256_div_pd(_mm256_set1_pd(3.0 * xi * a3), r2));
    let frrv = _mm256_add_pd(_mm256_mul_pd(t_erfc, erfcv), _mm256_mul_pd(poly, ev));
    // SAFETY: four-lane output arrays.
    unsafe {
        _mm256_storeu_pd(fi.as_mut_ptr(), fiv);
        _mm256_storeu_pd(frr.as_mut_ptr(), frrv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_accumulate_matches_per_pair_tensor() {
        // One target against seven sources spanning far, overlap, and
        // coincident lanes; compare against the reference tensor applied
        // per pair.
        let a = 1.0;
        let p = (0.3, -0.2, 0.5);
        let sx = [3.0, 0.3, 1.1, -2.0, 0.4, 5.0, 0.3];
        let sy = [0.0, -0.2, 0.4, 1.0, -0.2, -4.0, -0.2];
        let sz = [1.0, 0.5, -0.3, 0.7, 0.6, 2.0, 0.5];
        let vx = [1.0, -0.5, 0.25, 2.0, -1.0, 0.5, 0.75];
        let vy = [0.5, 1.5, -2.0, 0.1, 0.3, -0.25, 1.0];
        let vz = [-1.0, 0.25, 1.0, -0.4, 0.8, 1.5, -0.6];
        let mut got = [0.0; 3];
        rpy_pairs_accumulate(a, p.0, p.1, p.2, &sx, &sy, &sz, &vx, &vy, &vz, &mut got);
        let mut want = [0.0; 3];
        for t in 0..sx.len() {
            let dr = Vec3::new(p.0 - sx[t], p.1 - sy[t], p.2 - sz[t]);
            let m = if dr.norm2() == 0.0 {
                [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
            } else {
                let r = dr.norm();
                let (fi, frr) = rpy_pair_scalars(r, a);
                iso_plus_outer(fi, frr, dr / r)
            };
            let v = [vx[t], vy[t], vz[t]];
            for i in 0..3 {
                for j in 0..3 {
                    want[i] += m[3 * i + j] * v[j];
                }
            }
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-13 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    /// The SIMD override is process-global; the tests that flip it serialize.
    static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    const TARGET: (f64, f64, f64) = (0.3, -0.2, 0.5);

    /// `len` sources around [`TARGET`]: within `|d| < 3` per axis, so far
    /// (`r >= 2a`) and Yamakawa-overlap pairs mix, every fifth one
    /// coincident with the target; then `cols` columns of `[vx, vy, vz]`.
    #[allow(clippy::type_complexity)]
    fn pair_case(len: usize, cols: usize) -> ([Vec<f64>; 3], Vec<[Vec<f64>; 3]>) {
        let mut state = (len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(77);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut src = [Vec::new(), Vec::new(), Vec::new()];
        for t in 0..len {
            let d = [6.0 * next() - 3.0, 6.0 * next() - 3.0, 6.0 * next() - 3.0];
            let hit = t % 5 == 2;
            src[0].push(if hit { TARGET.0 } else { TARGET.0 + d[0] });
            src[1].push(if hit { TARGET.1 } else { TARGET.1 + d[1] });
            src[2].push(if hit { TARGET.2 } else { TARGET.2 + d[2] });
        }
        let v = (0..cols)
            .map(|_| [0; 3].map(|_| (0..len).map(|_| 2.0 * next() - 1.0).collect::<Vec<f64>>()))
            .collect();
        (src, v)
    }

    fn fnv1a(h: &mut u64, v: &[f64]) {
        for x in v {
            for b in x.to_bits().to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// One-column call on column `c`, from a nonzero accumulator.
    fn single(src: &[Vec<f64>; 3], c: &[Vec<f64>; 3]) -> [f64; 3] {
        let mut out = [0.125, -0.25, 0.5];
        let (px, py, pz) = TARGET;
        rpy_pairs_accumulate(
            1.0, px, py, pz, &src[0], &src[1], &src[2], &c[0], &c[1], &c[2], &mut out,
        );
        out
    }

    #[test]
    fn one_column_bits_are_the_recorded_ones() {
        // FNV-1a over the one-column results for every tile length, recorded
        // before the kernel became width-generic (PR 18's kernel, both
        // dispatch legs): the block rewrite moved no bit of it.
        let _l = SIMD_LOCK.lock().unwrap();
        for scalar in [false, true] {
            let _g = scalar.then(hibd_simd::ScalarGuard::new);
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for len in 1..=PAIR_TILE {
                let (src, v) = pair_case(len, 3);
                for c in &v {
                    fnv1a(&mut h, &single(&src, c));
                }
            }
            let want =
                if hibd_simd::avx2() { 0x9b66_a76d_6bdc_16bd_u64 } else { 0x8b9e_0f01_3462_d51c };
            assert_eq!(h, want, "scalar leg forced: {scalar}");
        }
    }

    #[test]
    fn every_column_of_a_block_is_the_one_column_call_bitwise() {
        // Lengths 1..=PAIR_TILE cover every `len % 4` tail and the all-scalar
        // `len < 4` dispatch; each case mixes far, overlap and coincident
        // lanes. Widths cover the three kernel instances (1, COL_TILE, other).
        let _l = SIMD_LOCK.lock().unwrap();
        for scalar in [false, true] {
            let _g = scalar.then(hibd_simd::ScalarGuard::new);
            for len in 1..=PAIR_TILE {
                for w in [1, 2, 3, 7, COL_TILE] {
                    let (src, v) = pair_case(len, w);
                    let cols: Vec<[&[f64]; 3]> =
                        v.iter().map(|c| [&c[0][..], &c[1][..], &c[2][..]]).collect();
                    let mut got = vec![[0.125, -0.25, 0.5]; w];
                    let (px, py, pz) = TARGET;
                    rpy_pairs_accumulate_multi(
                        1.0, px, py, pz, &src[0], &src[1], &src[2], &cols, &mut got,
                    );
                    for (j, (g, c)) in got.iter().zip(&v).enumerate() {
                        let want = single(&src, c);
                        assert_eq!(
                            g.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "len {len}, width {w}, column {j}, scalar leg forced: {scalar}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_ewald_tensors_match_scalar_kernel_bitwise() {
        let ew = RpyEwald::kernel_only(1.0, 1.0, 10.0, 0.8);
        // Lanes straddle the overlap boundary r = 2a.
        let rv = [
            Vec3::new(1.0, 0.5, -0.3),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(1.4, -1.4, 0.2),
            Vec3::new(3.0, 2.0, -1.0),
        ];
        let mut got = [[0.0; 9]; 4];
        real_tensors_with_overlap4(&ew, &rv, &mut got);
        for t in 0..4 {
            let want = ew.real_tensor_with_overlap(rv[t]);
            assert_eq!(got[t], want, "lane {t}");
        }
    }
}
