//! The batch transforms must be *bitwise* identical, mesh for mesh, to the
//! single-mesh transforms — not merely close. The ensemble engine
//! (`hibd-engine`) relies on this: replica drifts computed through one
//! `forward_batch`/`inverse_batch` round trip over `3R` concatenated meshes
//! must reproduce a standalone run's per-replica `forward`/`inverse` calls
//! exactly, or replica trajectories would diverge from their standalone
//! seeded twins. Every mesh of a batch runs the single-mesh code, bundling
//! lines of that mesh only; what differs with the batch width is whether the
//! work inside a mesh is nested parallel work (thread count not dividing the
//! batch), and this test pins that equivalence down to the last bit.
//!
//! `golden_bits_are_stable` additionally pins the *absolute* bits: an FNV-1a
//! over the `to_bits` of a batch-7 round trip, recorded before the lane
//! kernels became one generic body and before the lanes were filled from
//! inside one mesh, on both dispatch legs — so a rewrite that moves batch
//! and single together still fails here.

use hibd_fft::{Complex64, Fft3};
use std::sync::{Mutex, PoisonError};

/// The `hibd_simd` override is process-global: the golden test toggles it,
/// and a toggle landing between another test's batch and single transforms
/// would compare two dispatch legs. Every test in this file serializes here.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

fn check_dims(dims: [usize; 3], batch: usize) {
    let fft = Fft3::new(dims).unwrap();
    let nreal = fft.real_len();
    let nspec = fft.spectrum_len();
    let mut next = lcg(dims[0] as u64 * 1000 + batch as u64);
    let reals: Vec<f64> = (0..batch * nreal).map(|_| next()).collect();

    let mut batch_spec = vec![Complex64::ZERO; batch * nspec];
    fft.forward_batch(&reals, &mut batch_spec, batch);

    let mut single_spec = vec![Complex64::ZERO; nspec];
    for b in 0..batch {
        fft.forward(&reals[b * nreal..(b + 1) * nreal], &mut single_spec);
        for (i, (got, want)) in
            batch_spec[b * nspec..(b + 1) * nspec].iter().zip(&single_spec).enumerate()
        {
            assert!(
                got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                "forward dims {dims:?} batch {batch} mesh {b} bin {i}: {got:?} != {want:?}"
            );
        }
    }

    let mut batch_out = vec![0.0f64; batch * nreal];
    let mut batch_spec2 = batch_spec.clone();
    fft.inverse_batch(&mut batch_spec2, &mut batch_out, batch);

    let mut single_out = vec![0.0f64; nreal];
    for b in 0..batch {
        let mut spec = batch_spec[b * nspec..(b + 1) * nspec].to_vec();
        fft.inverse(&mut spec, &mut single_out);
        for (i, (got, want)) in
            batch_out[b * nreal..(b + 1) * nreal].iter().zip(&single_out).enumerate()
        {
            assert!(
                got.to_bits() == want.to_bits(),
                "inverse dims {dims:?} batch {batch} mesh {b} cell {i}: {got} != {want}"
            );
        }
    }
}

#[test]
fn batch_transforms_are_bitwise_identical_to_single_mesh() {
    let _l = SIMD_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Batches on both sides of the nesting rule at 1, 2, 3 and 5 threads.
    // After the four historical shapes: every bundle tail (`n0 % 4` planes
    // in the last unit, `n1 % 4` rows, `nc % 4` columns, `n0 == 1`,
    // `n1 == 1`), a radix-11 axis of 66, and a Bluestein axis (one-lane).
    for dims in [
        [8usize, 8, 8],
        [12, 12, 12],
        [6, 10, 8],
        [16, 16, 16],
        [5, 1, 10],
        [1, 5, 8],
        [3, 2, 4],
        [7, 5, 6],
        [66, 6, 8],
        [17, 4, 6],
        [4, 6, 34],
    ] {
        for batch in [1usize, 2, 3, 4, 5, 6, 7, 9, 12] {
            check_dims(dims, batch);
        }
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of a word stream.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.flat_map(u64::to_le_bytes) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `[forward_batch spectra, inverse_batch reals]` hashes of a batch-7 round
/// trip on a fixed LCG input.
fn golden_hashes(dims: [usize; 3]) -> [u64; 2] {
    const BATCH: usize = 7;
    let fft = Fft3::new(dims).unwrap();
    let mut next = lcg(0x601d + (dims[0] * 10_000 + dims[1] * 100 + dims[2]) as u64);
    let reals: Vec<f64> = (0..BATCH * fft.real_len()).map(|_| next()).collect();
    let mut spec = vec![Complex64::ZERO; BATCH * fft.spectrum_len()];
    fft.forward_batch(&reals, &mut spec, BATCH);
    let fwd = fnv1a(spec.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]));
    let mut out = vec![0.0f64; reals.len()];
    fft.inverse_batch(&mut spec, &mut out, BATCH);
    [fwd, fnv1a(out.iter().map(|v| v.to_bits()))]
}

/// `(dims, scalar leg, AVX2+FMA leg)`, recorded at the commit before the
/// lane kernels were folded into the generic body (x86-64 Linux; the
/// twiddles come from libm's `sin_cos`) and unchanged since for the three
/// 5-smooth shapes: which four lines share a bundle moves no bit.
/// `[22, 6, 8]` has a radix-11 leaf on axis 0 and was recorded again when
/// that leaf became the conjugate-pair sum (a different, shorter expression
/// tree than the direct `O(r^2)` loop, so different rounding).
const GOLDEN: [([usize; 3], [u64; 2], [u64; 2]); 4] = [
    (
        [22, 6, 8],
        [0x567a_5460_90ac_ca12, 0xf080_bcac_c423_ef58],
        [0x2ab7_8d1f_cd19_9d37, 0xb58f_2645_d45f_f0ee],
    ),
    // m = 3 at every combine level: below the AVX2 kernels' `m >= 4` gate.
    (
        [12, 12, 12],
        [0x12e5_d1b2_da82_f297, 0xd57e_dc45_dbb4_37bd],
        [0x12e5_d1b2_da82_f297, 0xd57e_dc45_dbb4_37bd],
    ),
    (
        [6, 10, 8],
        [0xad1f_3625_3ba2_6f00, 0xce84_fdaf_4cb3_04e3],
        [0x151d_4782_d94f_b73d, 0x0cbe_e708_353f_4b00],
    ),
    // Radix 5 (25 = 5.5), 3 (15 = 3.5) and 4 (half length 16 = 4.4) combines
    // with m >= 4: with [22, ..]'s radix 2, every AVX2 register body.
    (
        [25, 15, 32],
        [0x459b_1bf5_c3e0_62fb, 0x66ba_d493_5cce_b932],
        [0x7dd1_e9fc_147a_9f40, 0x109c_0af6_f4a0_3904],
    ),
];

#[test]
fn golden_bits_are_stable() {
    let _l = SIMD_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for (dims, scalar, avx2) in GOLDEN {
        {
            let _g = hibd_simd::ScalarGuard::new();
            let got = golden_hashes(dims);
            assert_eq!(got, scalar, "scalar leg, dims {dims:?}: {got:#018x?}");
        }
        // Dispatched leg: the AVX2 constants where the host (and
        // `HIBD_SIMD`) select them, the scalar ones everywhere else.
        let want = if hibd_simd::avx2() { avx2 } else { scalar };
        let got = golden_hashes(dims);
        assert_eq!(got, want, "dispatched leg, dims {dims:?}: {got:#018x?}");
    }
}

#[test]
fn batch_width_does_not_change_per_mesh_bits() {
    // Widths 3 and 3R must agree mesh-for-mesh on the shared prefix: the
    // engine batches `3R` meshes where a standalone operator batches 3.
    let _l = SIMD_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for dims in [[12usize, 12, 12], [7, 5, 6], [66, 6, 8]] {
        let fft = Fft3::new(dims).unwrap();
        let (nreal, nspec) = (fft.real_len(), fft.spectrum_len());
        let mut next = lcg(77);
        let reals: Vec<f64> = (0..12 * nreal).map(|_| next()).collect();
        let mut wide = vec![Complex64::ZERO; 12 * nspec];
        fft.forward_batch(&reals, &mut wide, 12);
        let mut narrow = vec![Complex64::ZERO; 3 * nspec];
        for g in 0..4 {
            fft.forward_batch(&reals[g * 3 * nreal..(g + 1) * 3 * nreal], &mut narrow, 3);
            assert!(
                wide[g * 3 * nspec..(g + 1) * 3 * nspec].iter().zip(&narrow).all(|(a, b)| a
                    .re
                    .to_bits()
                    == b.re.to_bits()
                    && a.im.to_bits() == b.im.to_bits()),
                "dims {dims:?}: forward_batch width 12 group {g} differs from width 3"
            );
        }
    }
}
