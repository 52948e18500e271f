//! Ablation: split-Ewald (PSE) sampling vs block Lanczos on the PME
//! operator.
//!
//! The PSE wave-space sampler replaces the Krylov iteration over full PME
//! applies (one forward + one inverse batch FFT each) with a single
//! inverse transform of a shaped Gaussian spectrum — half an FFT round
//! trip per displacement block, independent of the accuracy target. The
//! price is a Lanczos iteration on the FFT-free sparse near field, rebuilt
//! every window. This harness counts both currencies and times both
//! windows at matched Krylov tolerance `e_k` on the standard phi = 0.2
//! workload, with both samplers on the same tuned `(alpha, r_max, K, p)`.
//!
//! Exits non-zero when the operator the sampler draws from (near field +
//! mesh wave operator) misses `e_p` against the reference, so the CI smoke
//! step is a gate.

use hibd_bench::{
    flush_stdout, fmt_bytes, fmt_secs, mobility_reference, suspension, time_once, Opts,
};
use hibd_krylov::{block_lanczos_sqrt, KrylovConfig};
use hibd_mathx::fill_standard_normal;
use hibd_pme::tuner::measure_ep;
use hibd_pme::{tune, PmeOperator};
use hibd_pse::{NearFieldOperator, PseSampler, PseSplit};
use hibd_rpy::RpyHasimoto;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = Opts::parse();
    let n = if opts.full { 1000 } else { 300 };
    let phi = 0.2;
    let lambda = 16;
    let target = 1e-3;

    let sys = suspension(n, phi, opts.seed);
    let pos = sys.positions();
    let params = tune(n, phi, 1.0, 1.0, target).params;
    let pse = PseSplit::default().resolve(&params);

    let mut op = PmeOperator::new(pos, params).expect("PME operator");
    let kernel = RpyHasimoto::new(pse.a, pse.eta, pse.box_l, pse.xi);
    let (near, t_near) = time_once(|| NearFieldOperator::new(pos, &kernel, pse.r_max));
    let blocks_per_row = near.matrix().nblocks() as f64 / n as f64;
    drop(near);
    let (mut sampler, t_build) = time_once(|| PseSampler::new(pos, pse).expect("PSE sampler"));

    // The accuracy gate: what the sampler draws from vs the true mobility
    // (the drift PME beside it, same reference and probes).
    let (mut trusted, reference) = mobility_reference(pos, &params);
    let ep_pse = measure_ep(&mut sampler, &mut *trusted, 2, opts.seed);
    let ep_pme = measure_ep(&mut op, &mut *trusted, 2, opts.seed);
    drop(trusted);

    println!("# Ablation: PSE sampler vs block Lanczos (n = {n}, phi = {phi}, lambda = {lambda})");
    println!(
        "# shared split: K = {}, p = {}, alpha = xi = {:.4}, r_max = {:.2} (L/2 = {:.2})",
        params.mesh_dim,
        params.spline_order,
        pse.xi,
        pse.r_max,
        params.box_l / 2.0
    );
    println!(
        "# PSE near field: assembly {}, {blocks_per_row:.1} blocks/row; sampler build {} ({})",
        fmt_secs(t_near),
        fmt_secs(t_build),
        fmt_bytes(sampler.memory_bytes()),
    );
    println!(
        "# operator error vs {reference}: sampled (near + mesh wave) {ep_pse:.2e}, \
         drift PME {ep_pme:.2e}, gate e_p < {target:.0e}"
    );
    println!(
        "{:>6} | {:>11} {:>10} {:>10} {:>10} | {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "e_k",
        "block iters",
        "roundtrips",
        "meshFFTs",
        "window",
        "roundtrips",
        "meshFFTs",
        "near matvec",
        "near iters",
        "rebuild",
        "window"
    );

    let dim = 3 * n;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xab1a);
    let mut z = vec![0.0; dim * lambda];
    let mut d = vec![0.0; dim * lambda];
    for e_k in [1e-2, 1e-3, 1e-4] {
        let kcfg = KrylovConfig { tol: e_k, max_iter: 200, check_interval: 1 };

        // Block Lanczos: each iteration applies the PME operator to the
        // lambda-column block — one forward + one inverse batch of 3*lambda
        // meshes, i.e. one full FFT round trip (6*lambda mesh transforms).
        // Its window is the solve (the operator build is the drift's, paid
        // in both modes).
        fill_standard_normal(&mut rng, &mut z);
        let ((_, bstats), bt) =
            time_once(|| block_lanczos_sqrt(&mut op, &z, lambda, &kcfg).expect("block Lanczos"));

        // PSE: half a round trip (3*lambda inverse-only transforms) plus the
        // FFT-free near-field Lanczos. Its window is the sampler rebuild
        // (near field + interpolation matrix) plus the draw.
        sampler.reset_counters();
        let ((), rt) = time_once(|| sampler.rebuild(pos).expect("PSE rebuild"));
        let (pstats, pt) =
            time_once(|| sampler.sample_block(&mut rng, &mut d, lambda, &kcfg).expect("PSE"));
        assert_eq!(sampler.mesh_transforms(), 3 * lambda);

        println!(
            "{e_k:>6.0e} | {:>11} {:>10} {:>10} {:>10} | {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}",
            bstats.iterations,
            bstats.iterations,
            bstats.iterations * 6 * lambda,
            fmt_secs(bt),
            0.5,
            3 * lambda,
            sampler.near_matvec_columns(),
            pstats.iterations,
            fmt_secs(rt),
            fmt_secs(rt + pt),
        );
        flush_stdout();
    }
    println!();
    println!("# Round trips: forward + inverse batch FFT of the 3*lambda displacement");
    println!("# meshes. PSE always pays exactly half of one (inverse only), so it beats");
    println!("# block Lanczos whenever the latter needs >= 1 iteration; the near-field");
    println!("# matvecs it pays instead never touch the mesh. Window: wall time each");
    println!("# sampler adds to an operator refresh (PSE: rebuild + draw).");
    if ep_pse >= target {
        eprintln!(
            "ablation_pse: the sampled operator's error {ep_pse:.2e} reached e_p = {target:e}"
        );
        std::process::exit(1);
    }
}
