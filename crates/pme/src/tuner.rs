//! PME parameter selection (the procedure behind the paper's Table III).
//!
//! Given a particle count, volume fraction and target PME accuracy `e_p`,
//! choose `(K, p, r_max, alpha)` such that the real-space truncation error,
//! the reciprocal-space (Gaussian) truncation error and the B-spline
//! interpolation error are all at or below the target, and — among the
//! splits that do — the one the Section IV-D model predicts to be cheapest.
//!
//! **The rule.** The Ewald split has one free parameter. [`tune_with_rmax`]
//! turns a real-space cutoff into the `(alpha, K, p)` that meets the error
//! budget at it; [`tune`] walks a fixed geometric ladder of cutoffs from
//! `2.5a` to `L/2` ([`candidate_splits`]) and keeps the one with the least
//! predicted time per mobility column ([`split_cost`]):
//!
//! `T_real(B_r) + T_assembly(B_r) / A + T_recip(K, p, n)`,
//!
//! with `B_r = n rho (4/3) pi r_max^3` stored real-space blocks and `A`
//! ([`APPLIES_PER_BUILD`]) the mobility columns one operator build is
//! amortized over. A larger cutoff buys a smaller `alpha` and with it a
//! smaller mesh, at `r_max^3` more real-space work — the balance the paper
//! strikes in Section IV-E. Small boxes (every ladder shape, n <= 200) end
//! **box-bound**: the reciprocal half still dominates at `r_max = L/2`, so
//! the cutoff stops there rather than at a balance point; from n ~ 1000 the
//! optimum is interior.
//!
//! **Why the model's machine is pinned.** All terms come from
//! [`PerfModel`] on [`Machine::reference`], constants frozen in source (see
//! [`crate::perf`] for the rung behind each). `tune` is a pure function of
//! its five arguments: no clock, no host probe, no thread count, no
//! environment, no cache file. Checkpoints do not store `PmeParams` (resume
//! re-tunes), the engine's `ShapeKey` is the tuned parameter bits, and the
//! bitwise contracts (replica == standalone, kill-and-restart ==
//! uninterrupted) must hold across hosts — a host-calibrated split would
//! break all three.
//!
//! Also provides [`measure_ep`], the empirical error measurement
//! `e_p = |u_pme - u_ref|_2 / |u_ref|_2` used to validate the choices.

use crate::operator::{PmeOperator, PmeParams};
use crate::perf::{real_space_blocks, Machine, PerfModel};
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;

/// A tuned configuration plus the target it was tuned for.
#[derive(Clone, Copy, Debug)]
pub struct TunedConfig {
    pub params: PmeParams,
    /// The accuracy target the tuner aimed at.
    pub target_ep: f64,
}

/// Box side for `n` spheres of radius `a` at volume fraction `phi`:
/// `L = (4 pi a^3 n / (3 phi))^{1/3}`.
pub fn box_from_volume_fraction(n: usize, phi: f64, a: f64) -> f64 {
    assert!(phi > 0.0 && phi < 1.0, "volume fraction must be in (0,1)");
    (4.0 * std::f64::consts::PI * a.powi(3) * n as f64 / (3.0 * phi)).cbrt()
}

/// Smallest even *smooth* (mixed-radix) FFT dimension `>= k`. The FFT crate
/// can transform any size via Bluestein, but smooth sizes are several times
/// faster, so the tuner only ever picks these.
pub use hibd_fft::next_smooth_even;

/// Magnitude of the real-space Ewald kernel at radius `r` (units of `mu0`):
/// the truncation error of dropping a neighbor just outside the cutoff.
pub fn real_kernel_magnitude(a: f64, box_l: f64, alpha: f64, r: f64) -> f64 {
    let kernel = hibd_rpy::RpyEwald::kernel_only(a, 1.0, box_l, alpha);
    let (fi, frr) = kernel.real_scalars(r);
    fi.abs().max(frr.abs()).max((fi + frr).abs())
}

/// Find `alpha` such that the real-space kernel magnitude at `r_max` equals
/// `target` (bisection; the magnitude is decreasing in `alpha` over the
/// bracket).
fn solve_alpha(a: f64, box_l: f64, r_max: f64, target: f64) -> f64 {
    let mut lo = 0.05 / r_max;
    let mut hi = 30.0 / r_max;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if real_kernel_magnitude(a, box_l, mid, r_max) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Find the reciprocal cutoff `k_max` on the 5 % ladder `2 alpha 1.05^j`
/// whose dropped-mode tail is below `target` (units of `mu0`): the continuum
/// estimate `(1/(2 pi^2)) ∫_{k_max}^∞ |m_alpha(k)| k^2 dk` of the dropped
/// modes' contribution to a mobility entry.
///
/// One cumulative sweep: the ladder is laid out to `~20 alpha` (where the
/// Gaussian factor is below `e^{-100}`), each rung-to-rung segment is
/// integrated once by Simpson's rule, and the tails accumulate from the far
/// end down until one exceeds the target.
fn solve_kmax(a: f64, box_l: f64, alpha: f64, target: f64) -> f64 {
    const RUNGS: usize = 48;
    const PANELS: usize = 8;
    let kernel = hibd_rpy::RpyEwald::kernel_only(a, 1.0, box_l, alpha);
    let f = |k: f64| kernel.recip_scalar(k * k).abs() * k * k;
    let mut ks = [2.0 * alpha; RUNGS + 1];
    for j in 1..=RUNGS {
        ks[j] = ks[j - 1] * 1.05;
    }
    let scale = 1.0 / (2.0 * std::f64::consts::PI * std::f64::consts::PI);
    let mut tail = 0.0;
    for j in (0..RUNGS).rev() {
        let h = (ks[j + 1] - ks[j]) / PANELS as f64;
        let mut seg = f(ks[j]) + f(ks[j + 1]);
        for i in 1..PANELS {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            seg += w * f(ks[j] + i as f64 * h);
        }
        tail += seg * h / 3.0 * scale;
        if tail > target {
            return ks[j + 1];
        }
    }
    ks[0]
}

/// Mobility columns one operator build is amortized over in [`split_cost`]:
/// a `lambda_RPY = 16` window (the paper's and the ladder's) is 6 block
/// Lanczos iterations of 16 columns at `e_k = 1e-2` plus 16 drift applies.
/// One documented constant, not a knob — a job's own `lambda_RPY` must not
/// move its split (see the module docs).
pub const APPLIES_PER_BUILD: f64 = 112.0;

/// The deterministic cutoff ladder [`tune`] searches: `2.5a · 1.05^i` below
/// `L/2`, then `L/2` itself (minimum-image real space cannot go further).
/// Geometric because the real-space cost goes as `r_max^3`; 5 % steps
/// resolve every FFT-smooth mesh size up to K ~ 100.
fn cutoff_candidates(a: f64, box_l: f64) -> Vec<f64> {
    let half = box_l / 2.0;
    let mut out = Vec::new();
    let mut r = 2.5 * a;
    while r < half {
        out.push(r);
        r *= 1.05;
    }
    out.push(half);
    out
}

/// Every split [`tune`] considers, in ladder order (ascending `r_max`): the
/// cutoff candidates resolved by [`tune_with_rmax`]. Harnesses that scan
/// splits (the hybrid balancer, Table III's neighbours) scan exactly these.
pub fn candidate_splits(
    n: usize,
    phi: f64,
    a: f64,
    eta: f64,
    target_ep: f64,
) -> impl Iterator<Item = TunedConfig> {
    let box_l = box_from_volume_fraction(n, phi, a);
    cutoff_candidates(a, box_l)
        .into_iter()
        .map(move |r_max| tune_with_rmax(n, phi, a, eta, target_ep, r_max))
}

/// Modeled seconds per mobility column at one split, by half.
#[derive(Clone, Copy, Debug)]
pub struct SplitCost {
    /// Real space: the SpMV plus the assembly amortized over
    /// [`APPLIES_PER_BUILD`] columns.
    pub real: f64,
    /// The reciprocal pipeline (paper Eq. 10).
    pub recip: f64,
}

impl SplitCost {
    pub fn total(&self) -> f64 {
        self.real + self.recip
    }
}

/// What [`tune`] minimizes: the Section IV-D model of one mobility column
/// for `n` particles at `params`, on the pinned [`Machine::reference`].
pub fn split_cost(n: usize, params: &PmeParams) -> SplitCost {
    let model = PerfModel::new(Machine::reference(), params.mesh_dim, params.spline_order, n);
    let blocks = real_space_blocks(n, params.box_l, params.r_max);
    SplitCost {
        real: model.t_real(blocks, 1) + model.t_assembly(blocks) / APPLIES_PER_BUILD,
        recip: model.t_recip(),
    }
}

/// Choose PME parameters for `n` particles at volume fraction `phi` with
/// target relative accuracy `target_ep` (e.g. `1e-3` as in Table III): the
/// cheapest of [`candidate_splits`] by [`split_cost`]. Candidates that land
/// on the same mesh differ only in real-space work, so the smallest cutoff
/// among them wins; exact ties go to the earlier (smaller) candidate.
///
/// A pure function of its arguments — see the module docs for why it must
/// stay one.
pub fn tune(n: usize, phi: f64, a: f64, eta: f64, target_ep: f64) -> TunedConfig {
    assert!(n > 0);
    let mut best: Option<(f64, TunedConfig)> = None;
    for cfg in candidate_splits(n, phi, a, eta, target_ep) {
        let cost = split_cost(n, &cfg.params).total();
        if best.is_none_or(|(least, _)| cost < least) {
            best = Some((cost, cfg));
        }
    }
    best.expect("the candidate ladder always holds L/2").1
}

/// The split at an imposed real-space cutoff — the per-candidate primitive
/// of [`tune`], and the knob the hybrid load balancer turns (Section IV-E:
/// `alpha` is tuned so the CPU's real-space work matches the accelerator's
/// reciprocal-space work).
///
/// * `alpha` is bisected so the real-space kernel magnitude at `r_max` is a
///   fifth of the target (the Beenakker kernel's polynomial prefactors make
///   closed-form choices like `sqrt(ln 1/e_p)/r_max` far too optimistic, and
///   several neighbors sit just outside the cutoff);
/// * the reciprocal cutoff `k_max` is grown until the continuum tail
///   estimate is a fifth of the target, and `K >= k_max L / pi` (with the
///   B-spline margin below) is rounded to an FFT-smooth even size;
/// * `p = 4` for loose targets, `p = 6` at `1e-3` and below, `p = 8` for
///   very tight targets.
pub fn tune_with_rmax(
    n: usize,
    phi: f64,
    a: f64,
    eta: f64,
    target_ep: f64,
    r_max: f64,
) -> TunedConfig {
    assert!(n > 0);
    assert!(target_ep > 0.0 && target_ep < 0.5);
    let box_l = box_from_volume_fraction(n, phi, a);
    let spline_order = if target_ep >= 1e-2 {
        4
    } else if target_ep >= 1e-4 {
        6
    } else {
        8
    };
    let params = split_at(a, eta, box_l, r_max, target_ep / 5.0, spline_order);
    TunedConfig { params, target_ep }
}

/// `(alpha, K)` meeting a per-term error `share` at cutoff `r_max` with
/// order-`spline_order` splines.
fn split_at(
    a: f64,
    eta: f64,
    box_l: f64,
    r_max: f64,
    share: f64,
    spline_order: usize,
) -> PmeParams {
    let r_max = r_max.clamp(1e-6, box_l / 2.0);
    let alpha = solve_alpha(a, box_l, r_max, share);
    let k_max = solve_kmax(a, box_l, alpha, share);
    // B-spline interpolation error model: err ~ C_p * margin^{-p}, with
    // C_p calibrated against dense-Ewald measurements (see tests). The mesh
    // margin is chosen so that term also lands at a third of the target.
    let c_p: f64 = match spline_order {
        4 => 1.2e-2,
        6 => 4e-3,
        _ => 2e-3,
    };
    let margin = (c_p / share).powf(1.0 / spline_order as f64).max(1.1);
    let k_mesh = next_smooth_even((margin * k_max * box_l / std::f64::consts::PI).ceil() as usize)
        .max(next_smooth_even(2 * spline_order));
    PmeParams { a, eta, box_l, alpha, mesh_dim: k_mesh, spline_order, r_max }
}

/// Measure `e_p = |u_pme - u_ref| / |u_ref|` over `trials` random force
/// vectors, where `reference` is any trusted operator of the same dimension
/// (tight-tolerance dense Ewald, or a deliberately over-resolved PME).
pub fn measure_ep(
    op: &mut dyn LinearOperator,
    reference: &mut dyn LinearOperator,
    trials: usize,
    seed: u64,
) -> f64 {
    let dim = op.dim();
    assert_eq!(dim, reference.dim());
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut worst = 0.0f64;
    let mut u_pme = vec![0.0; dim];
    let mut u_ref = vec![0.0; dim];
    for _ in 0..trials.max(1) {
        let f: Vec<f64> = (0..dim).map(|_| next()).collect();
        op.apply(&f, &mut u_pme);
        reference.apply(&f, &mut u_ref);
        let num: f64 = u_pme.iter().zip(&u_ref).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let den: f64 = u_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
        worst = worst.max(num / den.max(1e-300));
    }
    worst
}

/// Build a deliberately over-resolved reference PME operator for large
/// systems where the dense Ewald matrix is unaffordable. The reference gets
/// its **own split** (the total is split-independent): at the base's cutoff,
/// `alpha` and the mesh are solved for an error share 100x tighter than the
/// one `base` meets, with order-8 splines. Reusing `base.alpha` with a larger
/// cutoff — the obvious construction — leaves a box-bound base (`r_max = L/2`
/// already) with exactly the base's real-space truncation, which the
/// comparison then cannot see.
pub fn reference_operator(positions: &[Vec3], base: &PmeParams) -> PmeOperator {
    let share = real_kernel_magnitude(base.a, base.box_l, base.alpha, base.r_max) / 100.0;
    let tighter = split_at(base.a, base.eta, base.box_l, base.r_max, share, 8);
    PmeOperator::new(positions, tighter).expect("reference operator construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_fft::FftPlan;
    use hibd_linalg::DenseOp;
    use hibd_rpy::{dense_ewald_mobility, RpyEwald};

    fn lcg_positions(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * box_l
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn box_matches_volume_fraction() {
        let l = box_from_volume_fraction(1000, 0.2, 1.0);
        let phi = 1000.0 * 4.0 / 3.0 * std::f64::consts::PI / l.powi(3);
        assert!((phi - 0.2).abs() < 1e-12);
        // Paper's N1000 configuration: L ≈ 27.6.
        assert!((l - 27.6).abs() < 0.2, "L = {l}");
    }

    #[test]
    fn next_smooth_even_properties() {
        assert_eq!(next_smooth_even(2), 2);
        assert_eq!(next_smooth_even(31), 32);
        assert_eq!(next_smooth_even(33), 36); // 34 = 2*17, 17 > MAX_RADIX
        for k in [3usize, 17, 63, 100, 255, 399] {
            let s = next_smooth_even(k);
            assert!(s >= k && s.is_multiple_of(2));
            assert!(FftPlan::new(s).is_ok(), "k={k} -> {s}");
        }
    }

    #[test]
    fn tuned_parameters_are_consistent() {
        for n in [100usize, 1000, 10000, 100000] {
            let cfg = tune(n, 0.2, 1.0, 1.0, 1e-3);
            let p = cfg.params;
            assert!(p.r_max <= p.box_l / 2.0 + 1e-9, "n={n}");
            assert!(p.alpha > 0.0);
            assert!(p.mesh_dim.is_multiple_of(2));
            assert!(FftPlan::new(p.mesh_dim).is_ok());
            // The real-space kernel magnitude at the cutoff meets the
            // tuner's per-term share of the target.
            let mag = real_kernel_magnitude(p.a, p.box_l, p.alpha, p.r_max);
            assert!(mag <= 1e-3 / 5.0 * 1.01, "n={n} kernel magnitude {mag:e}");
        }
    }

    #[test]
    fn tune_is_a_pure_function_of_its_arguments() {
        // Checkpoints do not store the split and `ShapeKey` is its bits:
        // asking twice must give the same bits.
        for n in [24usize, 200, 5000] {
            let (p, q) = (tune(n, 0.2, 1.0, 1.0, 1e-3).params, tune(n, 0.2, 1.0, 1.0, 1e-3).params);
            assert_eq!(p.alpha.to_bits(), q.alpha.to_bits(), "n={n}");
            assert_eq!(p.r_max.to_bits(), q.r_max.to_bits(), "n={n}");
            assert_eq!(p.box_l.to_bits(), q.box_l.to_bits(), "n={n}");
            assert_eq!((p.mesh_dim, p.spline_order), (q.mesh_dim, q.spline_order), "n={n}");
        }
    }

    #[test]
    fn tune_returns_the_cheapest_candidate() {
        for n in [100usize, 1000, 10_000, 100_000] {
            let chosen = tune(n, 0.2, 1.0, 1.0, 1e-3).params;
            let least = split_cost(n, &chosen).total();
            // The fixed cutoff this search replaced: 4a, growing as n^{1/6}
            // past 1000 particles.
            let fixed = (4.0 * (n as f64 / 1000.0).sqrt().cbrt().max(1.0)).min(chosen.box_l / 2.0);
            let mut others: Vec<PmeParams> =
                candidate_splits(n, 0.2, 1.0, 1.0, 1e-3).map(|c| c.params).collect();
            assert!(others.contains(&chosen), "n={n}: r_max {} off the ladder", chosen.r_max);
            others.push(tune_with_rmax(n, 0.2, 1.0, 1.0, 1e-3, fixed).params);
            for other in others {
                let cost = split_cost(n, &other).total();
                assert!(least <= cost, "n={n}: r_max {} costs {cost:e} < {least:e}", other.r_max);
            }
        }
    }

    #[test]
    fn small_boxes_are_box_bound_and_large_ones_are_not() {
        // The ladder's periodic shapes: the reciprocal half still dominates
        // at r_max = L/2, so the mesh is the smallest any cutoff allows.
        for n in [80usize, 120, 160, 200] {
            let p = tune(n, 0.2, 1.0, 1.0, 1e-3).params;
            let at_half = tune_with_rmax(n, 0.2, 1.0, 1.0, 1e-3, p.box_l / 2.0).params;
            assert_eq!(
                p.mesh_dim,
                at_half.mesh_dim,
                "n={n}: r_max {} of {}",
                p.r_max,
                p.box_l / 2.0
            );
        }
        let p = tune(10_000, 0.2, 1.0, 1.0, 1e-3).params;
        assert!(p.r_max < 0.95 * p.box_l / 2.0, "r_max {} of L/2 {}", p.r_max, p.box_l / 2.0);
    }

    #[test]
    fn mesh_grows_with_system_size() {
        let k1 = tune(1000, 0.2, 1.0, 1.0, 1e-3).params.mesh_dim;
        let k2 = tune(64000, 0.2, 1.0, 1.0, 1e-3).params.mesh_dim;
        assert!(k2 as f64 >= 1.4 * k1 as f64, "K(64k)={k2} vs K(1k)={k1}");
    }

    #[test]
    #[ignore]
    fn probe_margin_sweep() {
        let n = 40;
        for margin in [1.15f64, 1.3, 1.5, 2.0] {
            let mut cfg = tune(n, 0.2, 1.0, 1.0, 1e-3);
            let base_k = (cfg.params.mesh_dim as f64 / 1.35 * margin).ceil() as usize;
            cfg.params.mesh_dim = next_smooth_even(base_k);
            let p = cfg.params;
            let pos = lcg_positions(n, p.box_l, 5);
            let mut op = PmeOperator::new(&pos, p).unwrap();
            let dense = dense_ewald_mobility(&pos, &RpyEwald::new(p.a, p.eta, p.box_l, 0.5, 1e-10));
            let mut reference = DenseOp::new(dense);
            let ep = measure_ep(&mut op, &mut reference, 2, 77);
            println!(
                "margin {margin}: K={} p={} alpha={:.3} rmax={} ep={ep:e}",
                p.mesh_dim, p.spline_order, p.alpha, p.r_max
            );
        }
    }

    #[test]
    fn tuned_config_achieves_its_target_on_a_small_system() {
        // End-to-end tuner validation against dense Ewald.
        let n = 40;
        let cfg = tune(n, 0.2, 1.0, 1.0, 1e-3);
        let p = cfg.params;
        let pos = lcg_positions(n, p.box_l, 5);
        let mut op = PmeOperator::new(&pos, p).unwrap();
        let dense = dense_ewald_mobility(&pos, &RpyEwald::new(p.a, p.eta, p.box_l, 0.5, 1e-10));
        let mut reference = DenseOp::new(dense);
        let ep = measure_ep(&mut op, &mut reference, 3, 77);
        assert!(ep < 1e-3, "measured e_p {ep:e} exceeds target 1e-3");
    }

    #[test]
    fn reference_operator_is_tighter() {
        // A box-bound base (r_max = L/2): a reference that kept the base's
        // alpha would share its real-space truncation exactly and could be
        // no better than that term.
        let n = 30;
        let box_l = box_from_volume_fraction(n, 0.2, 1.0);
        let p = tune_with_rmax(n, 0.2, 1.0, 1.0, 1e-2, box_l / 2.0).params;
        assert_eq!(p.r_max, box_l / 2.0);
        let pos = lcg_positions(n, p.box_l, 9);
        let mut op = PmeOperator::new(&pos, p).unwrap();
        let mut refop = reference_operator(&pos, &p);
        assert_eq!(refop.params().r_max, p.r_max);
        assert!(refop.params().alpha > p.alpha);
        let dense = dense_ewald_mobility(&pos, &RpyEwald::new(p.a, p.eta, p.box_l, 0.5, 1e-10));
        let mut exact = DenseOp::new(dense);
        let ep_base = measure_ep(&mut op, &mut exact, 2, 3);
        let ep_ref = measure_ep(&mut refop, &mut exact, 2, 3);
        assert!(ep_ref <= ep_base / 10.0, "reference {ep_ref:e} vs base {ep_base:e}");
    }
}
