//! Ablation: block Lanczos vs single-vector Lanczos vs Fixman's Chebyshev
//! displacements.
//!
//! The paper (Section III-B, ref. \[8\]) motivates the block method by (a)
//! fewer total iterations and (b) multi-RHS SpMV efficiency. This harness
//! quantifies both on the PME operator: total Krylov iterations (= operator
//! block/single applications) and wall-clock per operator refresh. Block
//! Lanczos is the driver's own mode; the single-vector and Chebyshev
//! (`hibd_bench::chebyshev`, ref. \[25\]) baselines are not production modes,
//! so each is looped here over `lambda` columns of `Z` on a bare
//! `PmeOperator` with the driver's defaults.

use hibd_bench::chebyshev::{chebyshev_sqrt, estimate_spectrum_bounds, ChebyshevConfig};
use hibd_bench::{flush_stdout, fmt_secs, suspension, time_once, Opts};
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_krylov::{lanczos_sqrt, KrylovConfig};
use hibd_mathx::fill_standard_normal;
use hibd_pme::PmeOperator;
use hibd_telemetry::{Counter, Phase};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One operator refresh of the driver: block iterations and window time.
fn run_block(n: usize, lambda: usize, seed: u64) -> (usize, f64) {
    let sys = suspension(n, 0.2, seed);
    let cfg = MatrixFreeConfig { lambda_rpy: lambda, ..Default::default() };
    let mut bd = MatrixFreeBd::new(sys, cfg, seed).expect("driver");
    bd.run(1).expect("one refresh"); // one operator refresh + one step
    let t = bd.snapshot();
    (t.counter(Counter::LanczosIterations) as usize, t.phase(Phase::Displacements).total_secs())
}

/// The bare operator the harness-side solvers loop over: the driver's tuned
/// split for the same suspension.
fn bare_operator(n: usize, seed: u64, cfg: &MatrixFreeConfig) -> PmeOperator {
    let sys = suspension(n, 0.2, seed);
    let params = hibd_pme::tune(n, 0.2, sys.a, sys.eta, cfg.target_ep).params;
    PmeOperator::new(sys.positions(), params).expect("operator")
}

/// `lambda` independent `lanczos_sqrt` solves: summed iterations and time.
fn run_single(n: usize, lambda: usize, seed: u64) -> (usize, f64) {
    let cfg = MatrixFreeConfig::default();
    let mut op = bare_operator(n, seed, &cfg);
    let kcfg = KrylovConfig { tol: cfg.e_k, max_iter: cfg.max_krylov, check_interval: 1 };
    let mut z = vec![0.0; 3 * n];
    let mut rng = StdRng::seed_from_u64(seed);
    time_once(|| {
        (0..lambda)
            .map(|_| {
                fill_standard_normal(&mut rng, &mut z);
                lanczos_sqrt(&mut op, &z, &kcfg).expect("lanczos").1.iterations
            })
            .sum()
    })
}

/// Spectral bounds estimated once (15 applies), then `lambda` polynomial
/// evaluations at `tol = e_k`: summed operator applies and time.
fn run_chebyshev(n: usize, lambda: usize, seed: u64) -> (usize, f64) {
    const BOUND_ITERS: usize = 15;
    let cfg = MatrixFreeConfig::default();
    let mut op = bare_operator(n, seed, &cfg);
    let mut z = vec![0.0; 3 * n];
    let mut rng = StdRng::seed_from_u64(seed);
    time_once(|| {
        let bounds = estimate_spectrum_bounds(&mut op, BOUND_ITERS).expect("bounds");
        let ccfg = ChebyshevConfig { tol: cfg.e_k, bounds: Some(bounds), ..Default::default() };
        let degrees: usize = (0..lambda)
            .map(|_| {
                fill_standard_normal(&mut rng, &mut z);
                chebyshev_sqrt(&mut op, &z, &ccfg).expect("chebyshev").1.degree
            })
            .sum();
        BOUND_ITERS + degrees
    })
}

fn main() {
    let opts = Opts::parse();
    let n = if opts.full { 5000 } else { 1000 };

    println!("# Ablation: displacement solvers (n = {n})");
    println!(
        "{:>7} | {:>11} {:>11} | {:>12} {:>12} | {:>11} {:>11}",
        "lambda",
        "block iters",
        "block time",
        "single iters",
        "single time",
        "cheb applies",
        "cheb time"
    );
    for lambda in [4usize, 8, 16] {
        let (bi, bt) = run_block(n, lambda, opts.seed);
        let (si, st) = run_single(n, lambda, opts.seed);
        let (ci, ct) = run_chebyshev(n, lambda, opts.seed);
        println!(
            "{lambda:>7} | {bi:>11} {:>11} | {si:>12} {:>12} | {ci:>11} {:>11}",
            fmt_secs(bt),
            fmt_secs(st),
            fmt_secs(ct),
        );
        flush_stdout();
    }
    println!();
    println!("# Expected: block iterations ~ constant in lambda and far below the");
    println!("# summed single-vector iterations (paper ref. [8] benefit (a));");
    println!("# Fixman's Chebyshev (ref. [25]) needs the most operator applies,");
    println!("# which is why the paper's Krylov choice wins.");
}
