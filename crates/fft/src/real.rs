//! 1D real-to-complex and complex-to-real transforms.
//!
//! A length-`n` real transform is computed with one length-`n/2` complex FFT
//! via the classic even/odd packing, halving both flops and memory traffic —
//! this is the "real-to-complex forward FFT and complex-to-real inverse FFT"
//! usage of MKL the paper relies on (Section IV-B3).
//!
//! Conventions match [`crate::plan`]: forward is `e^{-2 pi i}`, inverse is
//! `e^{+2 pi i}`, both unnormalized (`inverse(forward(x)) = n x`).

use crate::complex::Complex64;
use crate::lanes::Lane;
use crate::plan::{Direction, FftError, FftPlan};
use std::f64::consts::TAU;

/// Plan for real transforms of fixed even length `n`.
///
/// The spectrum is stored as the `n/2 + 1` non-redundant coefficients
/// `X[0..=n/2]`; the remainder follows from `X[n-k] = conj(X[k])`.
#[derive(Debug)]
pub struct RealFftPlan {
    n: usize,
    half: FftPlan,
    /// `e^{-2 pi i k / n}` for `k in 0..=n/2`.
    tw: Vec<Complex64>,
}

impl RealFftPlan {
    pub fn new(n: usize) -> Result<RealFftPlan, FftError> {
        if n == 0 {
            return Err(FftError::ZeroLength);
        }
        if !n.is_multiple_of(2) {
            return Err(FftError::OddRealLength { n });
        }
        let half = FftPlan::new(n / 2)?;
        let tw = (0..=n / 2).map(|k| Complex64::cis(-TAU * k as f64 / n as f64)).collect();
        Ok(RealFftPlan { n, half, tw })
    }

    /// Real signal length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored spectrum coefficients, `n/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Scratch length (complex elements) required by both transforms: the
    /// packed half-length signal plus whatever the inner complex plan needs
    /// (which exceeds `n/2` when the half length takes the Bluestein path).
    pub fn scratch_len(&self) -> usize {
        self.n / 2 + self.half.scratch_len()
    }

    /// Whether the half-length complex plan is mixed-radix, i.e. whether
    /// `forward_lanes`/`inverse_lanes` can run more than one lane.
    pub(crate) fn is_mixed_radix(&self) -> bool {
        !self.half.is_bluestein()
    }

    /// Forward r2c transform: `spectrum[k] = Σ_j input[j] e^{-2 pi i jk/n}`
    /// for `k in 0..=n/2`.
    pub fn forward(&self, input: &[f64], spectrum: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(input.len(), self.n, "input length mismatch");
        self.forward_lanes([input].into_iter(), spectrum, scratch);
    }

    /// [`forward`](Self::forward) of up to `L::LANES` lines at once: lane `l`
    /// transforms the `l`-th length-`n` signal of `input` (the lanes of a
    /// partial bundle beyond `input` carry whatever `scratch` held).
    pub(crate) fn forward_lanes<'a, L: Lane>(
        &self,
        input: impl ExactSizeIterator<Item = &'a [f64]>,
        spectrum: &mut [L],
        scratch: &mut [L],
    ) {
        debug_assert!(input.len() <= L::LANES, "at most one input line per lane");
        let m = self.n / 2;
        assert_eq!(spectrum.len(), m + 1, "spectrum length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        let (z, fft_scratch) = scratch.split_at_mut(m);

        // Pack x[2j] + i x[2j+1] and transform at half length.
        for (l, x) in input.enumerate() {
            assert_eq!(x.len(), self.n, "input length mismatch");
            for (zj, x) in z.iter_mut().zip(x.chunks_exact(2)) {
                zj.set_lane(l, Complex64::new(x[0], x[1]));
            }
        }
        self.half.process(z, fft_scratch, Direction::Forward);

        // Unpack: E[k] = (Z[k] + conj(Z[m-k]))/2 is the spectrum of the even
        // samples, O[k] = (Z[k] - conj(Z[m-k]))/(2i) of the odd samples, and
        // X[k] = E[k] + e^{-2 pi i k/n} O[k].
        for k in 0..=m {
            let zk = z[k % m];
            let zmk = z[(m - k) % m].conj();
            let e = (zk + zmk).scale(0.5);
            let o = (zk - zmk).scale(0.5).mul_neg_i();
            spectrum[k] = e + o * self.tw[k];
        }
    }

    /// Inverse c2r transform (unnormalized): reconstructs
    /// `output[j] = Σ_{k=0}^{n-1} X_full[k] e^{+2 pi i jk/n}` from the half
    /// spectrum, where `X_full` extends `spectrum` by conjugate symmetry.
    ///
    /// The imaginary parts of `spectrum[0]` and `spectrum[n/2]` must be zero
    /// for the result to be exactly real; they are ignored.
    pub fn inverse(&self, spectrum: &[Complex64], output: &mut [f64], scratch: &mut [Complex64]) {
        assert_eq!(output.len(), self.n, "output length mismatch");
        self.inverse_lanes(spectrum, [output].into_iter(), scratch);
    }

    /// [`inverse`](Self::inverse) of up to `L::LANES` lines at once: lane `l`
    /// lands in the `l`-th length-`n` line of `output`.
    pub(crate) fn inverse_lanes<'a, L: Lane>(
        &self,
        spectrum: &[L],
        output: impl ExactSizeIterator<Item = &'a mut [f64]>,
        scratch: &mut [L],
    ) {
        debug_assert!(output.len() <= L::LANES, "at most one output line per lane");
        let m = self.n / 2;
        assert_eq!(spectrum.len(), m + 1, "spectrum length mismatch");
        assert!(scratch.len() >= self.scratch_len(), "scratch too small");
        let (h, fft_scratch) = scratch.split_at_mut(m);

        // H[k] = (X[k] + conj(X[m-k])) + i e^{+2 pi i k/n} (X[k] - conj(X[m-k]))
        // packs the even/odd inverse transforms into one half-length inverse.
        for (k, hk) in h.iter_mut().enumerate() {
            let xk = spectrum[k];
            let xmk = spectrum[m - k].conj();
            let sum = xk + xmk;
            let diff = xk - xmk;
            *hk = sum + (diff * self.tw[k].conj()).mul_i();
        }
        self.half.process(h, fft_scratch, Direction::Inverse);
        for (l, y) in output.enumerate() {
            assert_eq!(y.len(), self.n, "output length mismatch");
            for (y, hj) in y.chunks_exact_mut(2).zip(h.iter()) {
                let v = hj.lane(l);
                (y[0], y[1]) = (v.re, v.im);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_forward_real;

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    const SIZES: &[usize] = &[
        2, 4, 6, 8, 10, 12, 16, 20, 30, 32, 48, 64, 100, 128, 132, 252, 256, 400,
        // Half-lengths taking the Bluestein path.
        34, 38, 46, 194,
    ];

    #[test]
    fn forward_matches_naive_dft() {
        for &n in SIZES {
            let plan = RealFftPlan::new(n).unwrap();
            let x = random_real(n, n as u64);
            let want = dft_forward_real(&x);
            let mut got = vec![Complex64::ZERO; plan.spectrum_len()];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward(&x, &mut got, &mut scratch);
            for k in 0..=n / 2 {
                assert!((got[k] - want[k]).abs() < 1e-11 * (n as f64).sqrt(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        for &n in SIZES {
            let plan = RealFftPlan::new(n).unwrap();
            let x = random_real(n, 3 * n as u64 + 1);
            let mut s = vec![Complex64::ZERO; plan.spectrum_len()];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward(&x, &mut s, &mut scratch);
            assert!(s[0].im.abs() < 1e-12, "n={n}");
            assert!(s[n / 2].im.abs() < 1e-12, "n={n}");
            let sum: f64 = x.iter().sum();
            assert!((s[0].re - sum).abs() < 1e-11 * (n as f64).sqrt());
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        for &n in SIZES {
            let plan = RealFftPlan::new(n).unwrap();
            let x = random_real(n, 99 + n as u64);
            let mut s = vec![Complex64::ZERO; plan.spectrum_len()];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward(&x, &mut s, &mut scratch);
            let mut y = vec![0.0; n];
            plan.inverse(&s, &mut y, &mut scratch);
            for j in 0..n {
                assert!((y[j] / n as f64 - x[j]).abs() < 1e-12, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn inverse_of_pure_mode_is_cosine() {
        let n = 16;
        let plan = RealFftPlan::new(n).unwrap();
        let mut s = vec![Complex64::ZERO; plan.spectrum_len()];
        s[3] = Complex64::new(1.0, 0.0);
        let mut y = vec![0.0; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.inverse(&s, &mut y, &mut scratch);
        // X[3] = X[n-3]^* = 1 contributes 2 cos(2 pi 3 j / n).
        for j in 0..n {
            let want = 2.0 * (TAU * 3.0 * j as f64 / n as f64).cos();
            assert!((y[j] - want).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn rejects_odd_and_zero_lengths() {
        assert!(matches!(RealFftPlan::new(9).unwrap_err(), FftError::OddRealLength { n: 9 }));
        assert_eq!(RealFftPlan::new(0).unwrap_err(), FftError::ZeroLength);
    }
}
