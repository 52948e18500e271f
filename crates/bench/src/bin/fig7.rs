//! Figure 7: conventional Ewald BD vs the matrix-free algorithm —
//! (a) memory and (b) execution time per step, as functions of n.
//!
//! The dense algorithm's memory is the `(3n)^2` mobility matrix; its time
//! per step amortizes assembly + Cholesky + lambda_RPY propagation steps.
//! The matrix-free side measures the PME operator footprint and the
//! amortized Algorithm 2 step.
//!
//! Scaled down by default: the dense baseline is O(n^3) on one core (the
//! paper's 32 GB / 10,000-particle ceiling corresponds to hours here).

use hibd_bench::{flush_stdout, fmt_bytes, fmt_secs, suspension, Opts};
use hibd_core::ewald_bd::{EwaldBd, EwaldBdConfig};
use hibd_core::forces::RepulsiveHarmonic;
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};

fn main() {
    let opts = Opts::parse();
    let phi = 0.2;
    let sizes: Vec<usize> =
        if opts.full { vec![500, 1000, 2000, 3000, 5000] } else { vec![125, 250, 500, 1000] };
    let lambda = 16;

    println!("# Figure 7: Ewald BD (dense) vs matrix-free BD");
    println!(
        "{:>7} | {:>10} {:>10} | {:>11} {:>11} | {:>8}",
        "n", "mem dense", "mem m-free", "t/step dense", "t/step m-free", "speedup"
    );
    for &n in &sizes {
        // Dense baseline: one full cache refresh + lambda steps.
        let sys = suspension(n, phi, opts.seed);
        let mut ewald = EwaldBd::new(
            sys.clone(),
            EwaldBdConfig { lambda_rpy: lambda, ..Default::default() },
            opts.seed,
        );
        ewald.add_force(RepulsiveHarmonic::default());
        ewald.run(lambda).expect("dense BD");
        let dense_mem = ewald.mobility_memory_bytes();
        let dense_per_step = ewald.snapshot().step_seconds(lambda as u64);

        // Matrix-free: same workload.
        let mut mf = MatrixFreeBd::new(
            sys,
            MatrixFreeConfig { lambda_rpy: lambda, ..Default::default() },
            opts.seed,
        )
        .expect("mf driver");
        mf.add_force(RepulsiveHarmonic::default());
        mf.run(lambda).expect("matrix-free BD");
        let mf_mem = mf.operator_memory_bytes();
        let mf_per_step = mf.snapshot().step_seconds(mf.completed_steps());

        println!(
            "{n:>7} | {:>10} {:>10} | {:>11} {:>11} | {:>7.1}x",
            fmt_bytes(dense_mem),
            fmt_bytes(mf_mem),
            fmt_secs(dense_per_step),
            fmt_secs(mf_per_step),
            dense_per_step / mf_per_step
        );
        flush_stdout();
    }
    println!();
    println!("# Paper shape: dense memory grows ~n^2 (32 GB at n = 10,000) while the");
    println!("# matrix-free footprint grows ~n; the time advantage grows past 35x at");
    println!("# the dense algorithm's memory ceiling.");
}
