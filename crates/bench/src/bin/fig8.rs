//! Figure 8: matrix-free BD time per step as a function of n.
//!
//! Each point runs one operator refresh (PME setup + block Krylov
//! displacements for lambda_RPY = 16 steps) plus the lambda propagation
//! steps, and reports amortized seconds per step. Full mode runs the
//! paper's range up to 500,000 particles (several hours on one core);
//! quick mode stops at 50,000 with the same scaling visible.

use hibd_bench::{flush_stdout, fmt_bytes, fmt_secs, suspension, telemetry_window, Opts};
use hibd_core::forces::RepulsiveHarmonic;
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_telemetry::{Counter, Phase};

fn main() {
    let opts = Opts::parse();
    let phi = 0.2;
    let sizes: Vec<usize> = if opts.full {
        vec![1000, 5000, 10_000, 50_000, 100_000, 200_000, 500_000]
    } else {
        vec![1000, 5000, 10_000, 20_000]
    };
    let lambda = 16;

    println!("# Figure 8: matrix-free BD time per step vs n (phi = {phi})");
    println!(
        "{:>8} {:>6} {:>3} | {:>10} {:>10} {:>10} {:>11} | {:>10} {:>6} {:>6}",
        "n", "K", "p", "setup", "krylov", "stepping", "t/step", "op mem", "iters", "ffts"
    );
    for &n in &sizes {
        let sys = suspension(n, phi, opts.seed);
        let mut mf = MatrixFreeBd::new(
            sys,
            MatrixFreeConfig { lambda_rpy: lambda, ..Default::default() },
            opts.seed,
        )
        .expect("driver");
        mf.add_force(RepulsiveHarmonic::default());
        // Each row is one fresh telemetry window; phase totals and workload
        // counters come from the shared recorder instead of ad-hoc sums.
        let ((), snap) = telemetry_window(|| mf.run(lambda).expect("run"));
        let p = mf.shape().pme.expect("periodic run has PME params");
        println!(
            "{n:>8} {:>6} {:>3} | {:>10} {:>10} {:>10} {:>11} | {:>10} {:>6} {:>6}",
            p.mesh_dim,
            p.spline_order,
            fmt_secs(snap.phase(Phase::PmeSetup).total_secs()),
            fmt_secs(snap.phase(Phase::Displacements).total_secs()),
            fmt_secs(snap.phase(Phase::Stepping).total_secs()),
            fmt_secs(snap.step_seconds(lambda as u64)),
            fmt_bytes(snap.counter(Counter::PmeScratchBytes) as usize),
            snap.counter(Counter::LanczosIterations),
            snap.counter(Counter::ForwardFfts) + snap.counter(Counter::InverseFfts)
        );
        flush_stdout();
    }
    println!();
    println!("# Paper shape: near-linear growth of time per step (O(n log n)),");
    println!("# memory O(n) — 500,000 particles are feasible where the dense");
    println!("# algorithm stops near 10,000.");
}
