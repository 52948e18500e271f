//! Paper-figure variants of the PME apply, composed outside the operator.
//!
//! `PmeOperator` keeps exactly one reciprocal pipeline body. The variants
//! the figures need — Figure 4's on-the-fly weights, Figure 9's overlapped
//! real/reciprocal branches, the pre-batching per-column block apply — are
//! assembled here from the operator's read-only parts (`spread_plan()`,
//! `interp_matrix()`, `real_matrix()`, `plans()`) and harness-owned meshes.

use hibd_fft::Complex64;
use hibd_linalg::LinearOperator;
use hibd_pme::onthefly::{interpolate_on_the_fly, spread_on_the_fly};
use hibd_pme::spread::interpolate;
use hibd_pme::{PmeOperator, PmePlans};
use std::time::Instant;

/// Harness-owned buffers for one single-vector trip: the `[F_x | F_y | F_z]`
/// mesh triple, its half spectra, and the two `3n` branch outputs.
pub struct RecipScratch {
    mesh: Vec<f64>,
    spec: Vec<Complex64>,
    u_recip: Vec<f64>,
    u_real: Vec<f64>,
}

impl RecipScratch {
    pub fn new(op: &PmeOperator) -> RecipScratch {
        let fft = op.plans().fft();
        RecipScratch {
            mesh: vec![0.0; 3 * fft.real_len()],
            spec: vec![Complex64::ZERO; 3 * fft.spectrum_len()],
            u_recip: vec![0.0; op.dim()],
            u_real: vec![0.0; op.dim()],
        }
    }
}

/// Stages 3–5 on a mesh triple: r2c, influence multiply, c2r.
fn mesh_round_trip(plans: &PmePlans, mesh: &mut [f64], spec: &mut [Complex64]) {
    plans.fft().forward_batch(mesh, spec, 3);
    plans.influence().apply(spec);
    plans.fft().inverse_batch(spec, mesh, 3);
}

/// `u += M_recip f` recomputing the B-spline weights at both ends instead
/// of reading the precomputed `P` — the Figure 4 baseline.
pub fn recip_apply_add_on_the_fly(
    op: &PmeOperator,
    w: &mut RecipScratch,
    f: &[f64],
    u: &mut [f64],
) {
    spread_on_the_fly(op.spread_plan(), op.interp_matrix(), f, &mut w.mesh);
    mesh_round_trip(op.plans(), &mut w.mesh, &mut w.spec);
    interpolate_on_the_fly(op.interp_matrix(), &w.mesh, &mut w.u_recip);
    for (o, v) in u.iter_mut().zip(&w.u_recip) {
        *o += v;
    }
}

/// `u = PME(f)` with the real-space and reciprocal-space branches running
/// **concurrently** (Section IV-E: "the real-space terms and the
/// reciprocal-space terms can be computed concurrently"). Returns the
/// wall-clock seconds `(t_real, t_recip)` of the two branches — the Figure 9
/// anchor for the overlap the modeled hybrid executor assumes.
pub fn apply_overlapped(
    op: &PmeOperator,
    w: &mut RecipScratch,
    f: &[f64],
    u: &mut [f64],
) -> (f64, f64) {
    let RecipScratch { mesh, spec, u_recip, u_real } = w;
    let (real, self_coef) = (op.real_matrix(), op.plans().self_coefficient());
    let (t_real, t_recip) = std::thread::scope(|scope| {
        let real_branch = scope.spawn(|| {
            let t0 = Instant::now();
            real.mul_vec(f, u_real);
            for (o, v) in u_real.iter_mut().zip(f) {
                *o += self_coef * v;
            }
            t0.elapsed().as_secs_f64()
        });
        let t0 = Instant::now();
        op.spread_plan().spread(op.interp_matrix(), f, mesh);
        mesh_round_trip(op.plans(), mesh, spec);
        interpolate(op.interp_matrix(), mesh, u_recip);
        let t_recip = t0.elapsed().as_secs_f64();
        (real_branch.join().expect("real-space branch panicked"), t_recip)
    });
    for ((o, a), b) in u.iter_mut().zip(&*u_real).zip(&*u_recip) {
        *o = a + b;
    }
    (t_real, t_recip)
}

/// `Y[:, col0..col0+w] += recip(X[:, col0..col0+w])` for row-major
/// `[rows][s]` blocks, handing `recip` contiguous `[rows][w]` copies (zeroed
/// output) — the gather/scatter a device offload region would ship.
pub(crate) fn recip_on_gathered_cols(
    x: &[f64],
    y: &mut [f64],
    s: usize,
    col0: usize,
    w: usize,
    recip: impl FnOnce(&[f64], &mut [f64]),
) {
    let xc: Vec<f64> =
        x.chunks_exact(s).flat_map(|row| row[col0..col0 + w].iter().copied()).collect();
    let mut yc = vec![0.0; xc.len()];
    recip(&xc, &mut yc);
    for (row, add) in y.chunks_exact_mut(s).zip(yc.chunks_exact(w)) {
        for (o, v) in row[col0..col0 + w].iter_mut().zip(add) {
            *o += v;
        }
    }
}

/// Block apply `Y = M X` the pre-batching way: multi-RHS SpMM for the real
/// part, then the single-vector reciprocal pipeline once per column. The
/// baseline the `pme_apply_multi` / `krylov` benches time the batched
/// `apply_multi` against.
pub fn apply_multi_columnwise(op: &mut PmeOperator, x: &[f64], y: &mut [f64], s: usize) {
    op.real_apply_multi(x, y, s);
    for col in 0..s {
        recip_on_gathered_cols(x, y, s, col, 1, |fc, uc| op.recip_apply_add(fc, uc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suspension;
    use hibd_pme::PmeParams;

    fn operator(n: usize, seed: u64) -> PmeOperator {
        let sys = suspension(n, 0.1, seed);
        let params = PmeParams { box_l: sys.box_l, r_max: sys.box_l / 2.5, ..PmeParams::default() };
        PmeOperator::new(sys.positions(), params).unwrap()
    }

    fn vector(len: usize, seed: usize) -> Vec<f64> {
        (0..len).map(|i| ((i * 37 + seed) % 101) as f64 / 50.0 - 1.0).collect()
    }

    #[test]
    fn overlapped_apply_matches_sequential_and_times_both_branches() {
        let n = 10;
        let mut op = operator(n, 51);
        let f = vector(3 * n, 53);
        let mut u_seq = vec![0.0; 3 * n];
        op.apply(&f, &mut u_seq);
        let mut u_ovl = vec![0.0; 3 * n];
        let mut w = RecipScratch::new(&op);
        let (t_real, t_recip) = apply_overlapped(&op, &mut w, &f, &mut u_ovl);
        assert!(t_real > 0.0 && t_recip > 0.0, "branch times ({t_real}, {t_recip})");
        for i in 0..3 * n {
            assert!((u_seq[i] - u_ovl[i]).abs() < 1e-13, "i={i}: {} vs {}", u_seq[i], u_ovl[i]);
        }
    }

    #[test]
    fn on_the_fly_pipeline_matches_precomputed() {
        let n = 12;
        let mut op = operator(n, 61);
        let f = vector(3 * n, 63);
        let mut u_pre = vec![0.25; 3 * n];
        let mut u_fly = u_pre.clone();
        op.recip_apply_add(&f, &mut u_pre);
        let mut w = RecipScratch::new(&op);
        recip_apply_add_on_the_fly(&op, &mut w, &f, &mut u_fly);
        for i in 0..3 * n {
            assert!((u_pre[i] - u_fly[i]).abs() < 1e-12, "i={i}: {} vs {}", u_pre[i], u_fly[i]);
        }
    }

    #[test]
    fn columnwise_baseline_matches_batched_block_apply() {
        let n = 9;
        let mut op = operator(n, 71);
        for s in [1usize, 3, 4] {
            let x = vector(3 * n * s, 73 + s);
            let mut y_batched = vec![0.0; 3 * n * s];
            op.apply_multi(&x, &mut y_batched, s);
            let mut y_colwise = vec![0.0; 3 * n * s];
            apply_multi_columnwise(&mut op, &x, &mut y_colwise, s);
            for i in 0..3 * n * s {
                assert!((y_batched[i] - y_colwise[i]).abs() < 1e-12, "s={s} i={i}");
            }
        }
    }
}
