//! Property tests for the influence-function square-root path (the PSE
//! sampler's precondition): over tuner-chosen `(K, p, alpha)` configs,
//! every Beenakker scalar inside its positivity region `|k| <= sqrt(3)/a`
//! is nonnegative as computed, the positively split table at the *same*
//! `(alpha, K, p)` — what the sampler runs on — is nonnegative everywhere,
//! and on it `apply_sqrt` composed twice reproduces `apply` to 1e-12.

use hibd_fft::Complex64;
use hibd_pme::influence::{fold, Influence};
use hibd_pme::tune;
use hibd_rpy::{RpyEwald, RpyHasimoto};
use proptest::prelude::*;
use std::f64::consts::TAU;

/// Deterministic spectrum filler (keeps the property pure).
fn synthetic_spectra(s_len: usize, salt: u64) -> Vec<Complex64> {
    let mut spec = vec![Complex64::ZERO; 3 * s_len];
    let mut x = salt | 1;
    for v in &mut spec {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let re = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let im = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        *v = Complex64::new(re, im);
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn influence_scalars_nonnegative_where_sqrt_needs_them(
        n in 16usize..220,
        phi in 0.05f64..0.35,
        ep in prop::sample::select(vec![1e-2f64, 1e-3]),
        salt in any::<u64>(),
    ) {
        let cfg = tune(n, phi, 1.0, 1.0, ep);
        let p = cfg.params;
        let ewald = RpyEwald::kernel_only(p.a, p.eta, p.box_l, p.alpha);
        let beenakker = Influence::new(&ewald, p.mesh_dim, p.spline_order);

        // (a) Inside |k| <= sqrt(3)/a the Beenakker kernel is positive, so
        // every mesh scalar there must be nonnegative as computed.
        let k = p.mesh_dim;
        let nc = k / 2 + 1;
        let kunit = TAU / p.box_l;
        let k2lim = 3.0 / (p.a * p.a);
        for k0 in 0..k {
            for k1 in 0..k {
                for k2 in 0..nc {
                    if k0 == 0 && k1 == 0 && k2 == 0 {
                        continue;
                    }
                    let f = [fold(k0, k) as f64, fold(k1, k) as f64, k2 as f64];
                    let k2norm = kunit * kunit * (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]);
                    if k2norm <= k2lim {
                        let s = beenakker.scalar_at(k0, k1, k2);
                        prop_assert!(s >= 0.0, "negative scalar {s:e} at ({k0},{k1},{k2})");
                    }
                }
            }
        }

        // (b) The positive split's table has no negative entry at any
        // tuned alpha, beyond `sqrt(3)/a` included.
        let hasimoto = RpyHasimoto::new(p.a, p.eta, p.box_l, p.alpha);
        let inf = Influence::new(&hasimoto, p.mesh_dim, p.spline_order);
        for (k0, k1, k2) in
            (0..k).flat_map(|a| (0..k).flat_map(move |b| (0..nc).map(move |c| (a, b, c))))
        {
            prop_assert!(inf.scalar_at(k0, k1, k2) >= 0.0);
        }

        // (c) sqrt composed twice = apply, to 1e-12 of the spectrum scale.
        let s_len = k * k * nc;
        let base = synthetic_spectra(s_len, salt);
        let mut twice = base.clone();
        inf.apply_sqrt(&mut twice);
        inf.apply_sqrt(&mut twice);
        let mut once = base;
        inf.apply(&mut once);
        let scale = once.iter().map(|c| c.abs()).fold(f64::MIN_POSITIVE, f64::max);
        for (a, b) in twice.iter().zip(&once) {
            prop_assert!((*a - *b).abs() <= 1e-12 * scale, "{a:?} vs {b:?}");
        }
    }
}
