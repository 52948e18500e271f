//! Offline stand-in for the subset of `rand` 0.8 the hibd crates use:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`RngCore`] and
//! [`Rng::gen_range`] on `f64` ranges.
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64. It is a sound
//! generator but **not** upstream's ChaCha12 stream: the same seed gives the
//! same numbers on every run of this build, and different numbers from a
//! build against the published crate.

use std::ops::Range;

/// The raw generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Generators that can be built from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen_range` can sample uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<f64>, rng: &mut R) -> f64 {
        assert!(range.start < range.end, "gen_range: empty range");
        loop {
            // 53 random bits: uniform in [0, 1).
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let v = range.start + (range.end - range.start) * unit;
            // Rounding can land exactly on the excluded end point.
            if v < range.end {
                return v;
            }
        }
    }
}

/// The user-facing extension methods.
pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(range, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), seeded through SplitMix64.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let mut differs = false;
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = a.gen_range(-1.0..1.0);
            assert_eq!(x.to_bits(), b.gen_range(-1.0..1.0f64).to_bits());
            differs |= x != c.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            sum += x;
        }
        assert!(differs);
        assert!((sum / 10_000.0).abs() < 0.03, "mean {sum}");
    }
}
