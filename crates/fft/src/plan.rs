//! 1D complex FFT: mixed-radix Cooley–Tukey with a Bluestein fallback.
//!
//! Lengths whose prime factors are at most [`MAX_RADIX`] run through the
//! mixed-radix path (the PME tuner only ever chooses such "smooth" mesh
//! dimensions; the paper's Table III uses K in {32, 64, 128, 256, 400}, all
//! 5-smooth). Radices 2, 3, 4 and 5 have hand-written butterflies; 7, 11
//! and 13 share one conjugate-pair kernel. Any other length — including
//! large primes — is handled by Bluestein's chirp-z algorithm on a
//! power-of-two inner transform, so every size is supported.
//!
//! The plan precomputes one twiddle table per recursion level, so applying
//! the plan performs no trigonometry. Plans are immutable after construction
//! and can be shared across threads (`&self` apply with caller-provided
//! scratch), which is how [`crate::Fft3`] runs many lines in parallel.

use crate::complex::Complex64;
use crate::lanes::Lane;
use std::f64::consts::TAU;

/// Largest supported prime factor of the transform length.
pub const MAX_RADIX: usize = 16;

/// Errors from plan construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FftError {
    /// Length zero is not a valid transform size.
    ZeroLength,
    /// The length has a prime factor larger than [`MAX_RADIX`] (no longer
    /// returned by [`FftPlan::new`], which falls back to Bluestein; kept for
    /// [`FftPlan::new_mixed_radix`] callers that want smooth sizes only).
    RoughLength { n: usize, prime: usize },
    /// Real transforms additionally require an even length.
    OddRealLength { n: usize },
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::ZeroLength => write!(f, "FFT length must be positive"),
            FftError::RoughLength { n, prime } => {
                write!(f, "FFT length {n} has unsupported prime factor {prime} (> {MAX_RADIX})")
            }
            FftError::OddRealLength { n } => {
                write!(f, "real FFT length {n} must be even")
            }
        }
    }
}

impl std::error::Error for FftError {}

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Direction {
    Forward,
    Inverse,
}

/// A reusable plan for complex FFTs of a fixed length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// Recursion levels, outermost first (empty for Bluestein plans).
    levels: Vec<Level>,
    /// Bluestein fallback state for rough lengths.
    bluestein: Option<Box<Bluestein>>,
}

/// One level of the mixed-radix recursion: `r` interleaved sub-transforms of
/// length `m`, combined by radix-`r` butterflies.
#[derive(Debug)]
pub(crate) struct Level {
    pub r: usize,
    pub m: usize,
    /// Forward twiddles `tw[q*m + k] = e^{-2 pi i qk / (r m)}` for
    /// `q in 0..r`, `k in 0..m`.
    pub tw: Vec<Complex64>,
    /// Split (structure-of-arrays) copies of `tw`: the `Complex64` AVX2
    /// combine kernel loads twiddle lanes with unit stride from these
    /// instead of deinterleaving the AoS table.
    pub tw_re: Vec<f64>,
    pub tw_im: Vec<f64>,
    /// Generic-butterfly twiddles, `[forward, inverse]`: entry `j` is
    /// `e^{∓2 pi i j / r}`. Populated only for radices above 5 (the
    /// hand-written butterflies embed their constants), whose conjugate-pair
    /// leaf reads its cosines and sines from here instead of evaluating them
    /// per apply.
    gen: [Vec<Complex64>; 2],
}

impl Level {
    /// Generic-butterfly table for one direction (empty for the hand-written
    /// radices 1..=5).
    pub(crate) fn gen(&self, dir: Direction) -> &[Complex64] {
        &self.gen[(dir == Direction::Inverse) as usize]
    }
}

/// Bluestein chirp-z state: an `n`-point DFT as a circular convolution of
/// length `m` (power of two, `>= 2n - 1`).
#[derive(Debug)]
struct Bluestein {
    m: usize,
    inner: FftPlan,
    /// Forward chirp `c_j = e^{-pi i j^2 / n}`, `j in 0..n`.
    chirp: Vec<Complex64>,
    /// Inner-FFT image of the circular chirp kernel `b_j = conj(c_{|j|})`.
    bhat: Vec<Complex64>,
}

impl Bluestein {
    fn new(n: usize) -> Bluestein {
        // Any inner length `m >= 2n - 1` works for the circular convolution;
        // the next *smooth even* length is almost always much closer than the
        // next power of two (n = 17 gets m = 36 instead of 64).
        let m = next_smooth_even(2 * n - 1);
        let inner = FftPlan::new_mixed_radix(m).expect("next_smooth_even returns smooth lengths");
        // Angle pi j^2 / n is periodic in j with period 2n.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let e = (j * j) % (2 * n);
                Complex64::cis(-std::f64::consts::PI * e as f64 / n as f64)
            })
            .collect();
        let mut b = vec![Complex64::ZERO; m];
        for j in 0..n {
            let v = chirp[j].conj();
            b[j] = v;
            if j > 0 {
                b[m - j] = v;
            }
        }
        let mut scratch = vec![Complex64::ZERO; m];
        inner.forward(&mut b, &mut scratch);
        Bluestein { m, inner, chirp, bhat: b }
    }

    /// n-point DFT of `data` (in place) via chirp convolution.
    fn process(&self, data: &mut [Complex64], scratch: &mut [Complex64], dir: Direction) {
        // IDFT(x) = conj(DFT(conj(x))) turns the forward chirp transform
        // into the (unnormalized) inverse.
        let conj_if_inverse = |data: &mut [Complex64]| {
            if dir == Direction::Inverse {
                data.iter_mut().for_each(|v| *v = v.conj());
            }
        };
        conj_if_inverse(data);
        let n = data.len();
        let m = self.m;
        let (a, rest) = scratch.split_at_mut(m);
        let inner_scratch = &mut rest[..m];
        // a_j = x_j c_j, zero-padded to m.
        for j in 0..n {
            a[j] = data[j] * self.chirp[j];
        }
        for v in &mut a[n..] {
            *v = Complex64::ZERO;
        }
        self.inner.forward(a, inner_scratch);
        for (av, bv) in a.iter_mut().zip(&self.bhat) {
            *av *= *bv;
        }
        self.inner.inverse(a, inner_scratch);
        let inv_m = 1.0 / m as f64;
        for k in 0..n {
            data[k] = a[k].scale(inv_m) * self.chirp[k];
        }
        conj_if_inverse(data);
    }
}

/// Smallest even length `>= n` whose prime factors are all `<= MAX_RADIX`
/// (i.e. accepted by [`FftPlan::new_mixed_radix`]). Used by the Bluestein
/// fallback to size its chirp convolution, and re-exported for mesh tuners
/// that want FFT-friendly dimensions.
pub fn next_smooth_even(n: usize) -> usize {
    let mut m = n.max(2);
    if m % 2 == 1 {
        m += 1;
    }
    while factorize(m).is_err() {
        m += 2;
    }
    m
}

/// Factor `n` into radices (4s first, then 2, 3, 5, then other primes).
fn factorize(mut n: usize) -> Result<Vec<usize>, FftError> {
    let mut f = Vec::new();
    while n.is_multiple_of(4) {
        f.push(4);
        n /= 4;
    }
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            f.push(p);
            n /= p;
        }
    }
    let mut p = 7;
    while n > 1 {
        while n.is_multiple_of(p) {
            if p > MAX_RADIX {
                return Err(FftError::RoughLength { n, prime: p });
            }
            f.push(p);
            n /= p;
        }
        p += 2;
        if p * p > n && n > 1 {
            if n > MAX_RADIX {
                return Err(FftError::RoughLength { n, prime: n });
            }
            f.push(n);
            n = 1;
        }
    }
    Ok(f)
}

impl FftPlan {
    /// Build a plan for length-`n` transforms: mixed radix for smooth `n`,
    /// Bluestein otherwise.
    pub fn new(n: usize) -> Result<FftPlan, FftError> {
        match FftPlan::new_mixed_radix(n) {
            Err(FftError::RoughLength { .. }) => {
                Ok(FftPlan { n, levels: Vec::new(), bluestein: Some(Box::new(Bluestein::new(n))) })
            }
            other => other,
        }
    }

    /// Build a mixed-radix plan; errors with [`FftError::RoughLength`] when
    /// `n` has a prime factor above [`MAX_RADIX`] (useful to *detect* smooth
    /// sizes, as the PME tuner does).
    pub fn new_mixed_radix(n: usize) -> Result<FftPlan, FftError> {
        if n == 0 {
            return Err(FftError::ZeroLength);
        }
        let mut cur = n;
        let levels = factorize(n)?
            .into_iter()
            .map(|r| {
                let m = cur / r;
                let mut tw = Vec::with_capacity(r * m);
                for q in 0..r {
                    for k in 0..m {
                        tw.push(Complex64::cis(-TAU * ((q * k) % cur) as f64 / cur as f64));
                    }
                }
                let table = |sign: f64| -> Vec<Complex64> {
                    let entries = if r > 5 { r } else { 0 };
                    (0..entries).map(|j| Complex64::cis(sign * TAU * j as f64 / r as f64)).collect()
                };
                cur = m;
                Level {
                    r,
                    m,
                    tw_re: tw.iter().map(|w| w.re).collect(),
                    tw_im: tw.iter().map(|w| w.im).collect(),
                    tw,
                    gen: [table(-1.0), table(1.0)],
                }
            })
            .collect();
        Ok(FftPlan { n, levels, bluestein: None })
    }

    /// Whether this plan uses the Bluestein fallback.
    pub fn is_bluestein(&self) -> bool {
        self.bluestein.is_some()
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Scratch length required by [`forward`](Self::forward) /
    /// [`inverse`](Self::inverse).
    pub fn scratch_len(&self) -> usize {
        match &self.bluestein {
            Some(b) => 2 * b.m,
            None => self.n,
        }
    }

    /// In-place forward transform (`e^{-2 pi i}`, unnormalized).
    ///
    /// `scratch` must have at least [`scratch_len`](Self::scratch_len)
    /// elements; its contents are clobbered.
    pub fn forward(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.process(data, scratch, Direction::Forward);
    }

    /// In-place inverse transform (`e^{+2 pi i}`, **unnormalized**: the
    /// composition `inverse(forward(x))` yields `n * x`).
    pub fn inverse(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.process(data, scratch, Direction::Inverse);
    }

    /// In-place transform of `L::LANES` lines at once (Bluestein plans: one
    /// line only — `Fft3` runs a mesh with such an axis one line per bundle).
    pub(crate) fn process<L: Lane>(&self, data: &mut [L], scratch: &mut [L], dir: Direction) {
        assert_eq!(data.len(), self.n, "data length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        if self.n == 1 {
            return;
        }
        if let Some(b) = &self.bluestein {
            let single = L::as_complex(data).zip(L::as_complex(scratch));
            let (data, scratch) = single.expect("lane transforms require mixed-radix plans");
            b.process(data, scratch, dir);
            return;
        }
        scratch[..self.n].copy_from_slice(data);
        self.recurse(0, &scratch[..self.n], 1, data, dir);
    }

    /// Out-of-place DIT recursion: transform the `r*m`-point sequence
    /// `src[0], src[stride], src[2*stride], ...` of level `level` into
    /// contiguous `dst[0..r*m]`.
    fn recurse<L: Lane>(
        &self,
        level: usize,
        src: &[L],
        stride: usize,
        dst: &mut [L],
        dir: Direction,
    ) {
        let lv = &self.levels[level];
        let (r, m) = (lv.r, lv.m);

        if m == 1 {
            // Leaf: gather the r strided inputs and do a single butterfly.
            let mut t = [L::ZERO; MAX_RADIX];
            for (q, tq) in t[..r].iter_mut().enumerate() {
                *tq = src[q * stride];
            }
            butterfly_into(&t[..r], &mut dst[..r], dir, lv.gen(dir));
            return;
        }

        // Sub-transforms of the r interleaved subsequences.
        for q in 0..r {
            self.recurse(
                level + 1,
                &src[q * stride..],
                stride * r,
                &mut dst[q * m..(q + 1) * m],
                dir,
            );
        }

        // Combine: X[k + m*s] = Σ_q w^{qk} ω_r^{qs} Y_q[k]. Dispatches to the
        // AVX2 kernels for radix 2/3/4/5; the scalar fallback reproduces the
        // classic loop bitwise.
        crate::simd::combine(&mut dst[..r * m], lv, dir);
    }

    /// Inner convolution length of the Bluestein fallback, if this plan uses
    /// it (pinned by tests: the chirp-z inner transform must be the next
    /// smooth even length, not the next power of two).
    pub fn bluestein_inner_len(&self) -> Option<usize> {
        self.bluestein.as_ref().map(|b| b.m)
    }
}

// Butterfly constants, shared with the AVX2 register bodies in `simd.rs`:
// sqrt(3)/2, and cos/sin of 2 pi/5 and 4 pi/5.
pub(crate) const HALF_SQRT3: f64 = 0.866_025_403_784_438_6;
pub(crate) const C1: f64 = 0.309_016_994_374_947_45;
pub(crate) const S1: f64 = 0.951_056_516_295_153_5;
pub(crate) const C2: f64 = -0.809_016_994_374_947_5;
pub(crate) const S2: f64 = 0.587_785_252_292_473_1;

/// `out[s] = Σ_q t[q] e^{∓2 pi i qs/r}` for `r = t.len()` (hand-written for
/// r = 1..5; radices above 5 read the plan's precomputed `gen` table).
pub(crate) fn butterfly_into<L: Lane>(t: &[L], out: &mut [L], dir: Direction, gen: &[Complex64]) {
    let inv = dir == Direction::Inverse;
    match t.len() {
        1 => out[0] = t[0],
        2 => {
            out[0] = t[0] + t[1];
            out[1] = t[0] - t[1];
        }
        3 => {
            // w = e^{∓2 pi i/3} = -1/2 ∓ i sqrt(3)/2
            let s = t[1] + t[2];
            let d = t[1] - t[2];
            let m1 = t[0] - s.scale(0.5);
            let m2 =
                if inv { d.mul_i().scale(HALF_SQRT3) } else { d.mul_neg_i().scale(HALF_SQRT3) };
            out[0] = t[0] + s;
            out[1] = m1 + m2;
            out[2] = m1 - m2;
        }
        4 => {
            let a = t[0] + t[2];
            let b = t[0] - t[2];
            let c = t[1] + t[3];
            let d = t[1] - t[3];
            let id = if inv { d.mul_i() } else { d.mul_neg_i() };
            out[0] = a + c;
            out[1] = b + id;
            out[2] = a - c;
            out[3] = b - id;
        }
        5 => {
            let a = t[1] + t[4];
            let b = t[1] - t[4];
            let c = t[2] + t[3];
            let d = t[2] - t[3];
            let sgn = if inv { 1.0 } else { -1.0 };
            let re1 = t[0] + a.scale(C1) + c.scale(C2);
            let im1 = (b.scale(S1) + d.scale(S2)).mul_i().scale(sgn);
            let re2 = t[0] + a.scale(C2) + c.scale(C1);
            let im2 = (b.scale(S2) - d.scale(S1)).mul_i().scale(sgn);
            out[0] = t[0] + a + c;
            out[1] = re1 + im1;
            out[2] = re2 + im2;
            out[3] = re2 - im2;
            out[4] = re1 - im1;
        }
        r => {
            debug_assert_eq!(gen.len(), r, "generic butterfly needs its twiddle table");
            L::generic_leaf(t, out, gen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft_forward, dft_inverse};

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Small deterministic LCG; avoids a rand dependency here.
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    const SIZES: &[usize] = &[
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48,
        60, 64, 100, 121, 125, 128, 144, 169, 200, 243, 256, 400,
        // Rough sizes exercising the Bluestein fallback.
        17, 19, 23, 34, 97, 101, 257,
        // The conjugate-pair leaf (7, 11, 13 above) as an `m >= 4` combine.
        14, 22, 26, 49, 66, 77, 126,
    ];

    #[test]
    fn forward_matches_naive_dft() {
        for &n in SIZES {
            let plan = FftPlan::new(n).unwrap();
            let x = random_signal(n, n as u64);
            let want = dft_forward(&x);
            let mut got = x.clone();
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward(&mut got, &mut scratch);
            let scale = (n as f64).sqrt();
            assert!(max_err(&got, &want) < 1e-11 * scale, "n={n}: err {}", max_err(&got, &want));
        }
    }

    #[test]
    fn inverse_matches_naive_dft() {
        for &n in SIZES {
            let plan = FftPlan::new(n).unwrap();
            let x = random_signal(n, 1000 + n as u64);
            let want = dft_inverse(&x);
            let mut got = x.clone();
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.inverse(&mut got, &mut scratch);
            assert!(max_err(&got, &want) < 1e-11 * (n as f64).sqrt(), "n={n}");
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        for &n in SIZES {
            let plan = FftPlan::new(n).unwrap();
            let x = random_signal(n, 7 * n as u64 + 3);
            let mut y = x.clone();
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward(&mut y, &mut scratch);
            plan.inverse(&mut y, &mut scratch);
            let recovered: Vec<Complex64> = y.iter().map(|v| v.scale(1.0 / n as f64)).collect();
            assert!(max_err(&recovered, &x) < 1e-12, "n={n}");
        }
    }

    #[test]
    fn parseval_identity() {
        for &n in &[16usize, 30, 100, 400] {
            let plan = FftPlan::new(n).unwrap();
            let x = random_signal(n, 555 + n as u64);
            let time_energy: f64 = x.iter().map(|v| v.norm2()).sum();
            let mut y = x.clone();
            let mut scratch = vec![Complex64::ZERO; n];
            plan.forward(&mut y, &mut scratch);
            let freq_energy: f64 = y.iter().map(|v| v.norm2()).sum::<f64>() / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-10 * time_energy,
                "n={n}: {time_energy} vs {freq_energy}"
            );
        }
    }

    #[test]
    fn linearity() {
        let n = 48;
        let plan = FftPlan::new(n).unwrap();
        let x = random_signal(n, 1);
        let y = random_signal(n, 2);
        let mut scratch = vec![Complex64::ZERO; n];
        let alpha = Complex64::new(0.7, -0.3);

        let mut fx = x.clone();
        plan.forward(&mut fx, &mut scratch);
        let mut fy = y.clone();
        plan.forward(&mut fy, &mut scratch);
        let combined_spectra: Vec<Complex64> =
            fx.iter().zip(&fy).map(|(a, b)| alpha * *a + *b).collect();

        let mut z: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| alpha * *a + *b).collect();
        plan.forward(&mut z, &mut scratch);
        assert!(max_err(&z, &combined_spectra) < 1e-12);
    }

    #[test]
    fn plan_selection_and_errors() {
        assert_eq!(FftPlan::new(0).unwrap_err(), FftError::ZeroLength);
        // Rough lengths now succeed via Bluestein...
        assert!(FftPlan::new(17).unwrap().is_bluestein());
        assert!(FftPlan::new(2 * 19).unwrap().is_bluestein());
        // ...while the mixed-radix constructor still reports them.
        assert!(matches!(FftPlan::new_mixed_radix(17).unwrap_err(), FftError::RoughLength { .. }));
        // Smooth sizes stay on the mixed-radix path.
        assert!(!FftPlan::new(13).unwrap().is_bluestein());
        assert!(!FftPlan::new(400).unwrap().is_bluestein());
    }

    #[test]
    fn factorization_products() {
        for &n in SIZES {
            match factorize(n) {
                Ok(f) => assert_eq!(f.iter().product::<usize>(), n.max(1), "n={n}"),
                Err(FftError::RoughLength { prime, .. }) => {
                    assert!(prime > MAX_RADIX, "n={n} flagged prime {prime}");
                }
                Err(e) => panic!("n={n}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn length_one_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut x = vec![Complex64::new(2.5, -1.5)];
        let mut s = vec![Complex64::ZERO; 1];
        plan.forward(&mut x, &mut s);
        assert_eq!(x[0], Complex64::new(2.5, -1.5));
    }
}
