//! Ablation: block Lanczos vs single-vector Lanczos displacements.
//!
//! The paper (Section III-B, ref. \[8\]) motivates the block method by (a)
//! fewer total iterations and (b) multi-RHS SpMV efficiency. This harness
//! quantifies both on the PME operator: total Krylov iterations (= operator
//! block/single applications) and wall-clock per operator refresh. Block
//! Lanczos and Chebyshev are the driver's own modes; the single-vector
//! baseline is not a production mode, so it is looped here over the columns
//! of the same `Z` on a bare `PmeOperator` with the driver's defaults.

use hibd_bench::{flush_stdout, fmt_secs, suspension, time_once, Opts};
use hibd_core::mf_bd::{DisplacementMode, MatrixFreeBd, MatrixFreeConfig};
use hibd_krylov::{lanczos_sqrt, KrylovConfig};
use hibd_mathx::fill_standard_normal;
use hibd_pme::PmeOperator;
use hibd_telemetry::{Counter, Phase};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(n: usize, lambda: usize, mode: DisplacementMode, seed: u64) -> (usize, f64) {
    let sys = suspension(n, 0.2, seed);
    let cfg =
        MatrixFreeConfig { lambda_rpy: lambda, displacement_mode: mode, ..Default::default() };
    let mut bd = MatrixFreeBd::new(sys, cfg, seed).expect("driver");
    bd.run(1).expect("one refresh"); // one operator refresh + one step
    let t = bd.snapshot();
    (t.counter(Counter::LanczosIterations) as usize, t.phase(Phase::Displacements).total_secs())
}

/// `lambda` independent `lanczos_sqrt` solves: summed iterations and time.
fn run_single(n: usize, lambda: usize, seed: u64) -> (usize, f64) {
    let sys = suspension(n, 0.2, seed);
    let cfg = MatrixFreeConfig::default();
    let params = hibd_pme::tune(n, 0.2, sys.a, sys.eta, cfg.target_ep).params;
    let mut op = PmeOperator::new(sys.positions(), params).expect("operator");
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
        let (bi, bt) = run(n, lambda, DisplacementMode::BlockKrylov, opts.seed);
        let (si, st) = run_single(n, lambda, opts.seed);
        let (ci, ct) = run(n, lambda, DisplacementMode::Chebyshev, opts.seed);
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
