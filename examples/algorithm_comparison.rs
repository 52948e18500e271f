//! Side-by-side run of both algorithms on the same suspension.
//!
//! Runs Algorithm 1 (dense Ewald + Cholesky) and Algorithm 2 (PME + block
//! Krylov) from the same initial configuration, then compares their
//! per-phase costs and checks that both produce statistically consistent
//! dynamics (comparable mean-squared displacement per step).
//!
//! ```sh
//! cargo run --release --example algorithm_comparison
//! ```

use hibd::core::ewald_bd::{EwaldBd, EwaldBdConfig};
use hibd::prelude::*;
use hibd::telemetry::{Counter, Phase, Snapshot};

fn msd_per_step(unwrapped: &[Vec3], initial: &[Vec3], steps: usize) -> f64 {
    unwrapped.iter().zip(initial).map(|(u, p)| (*u - *p).norm2()).sum::<f64>()
        / (unwrapped.len() * steps) as f64
}

fn main() {
    let n = 150;
    let phi = 0.15;
    let steps = 32;
    let mut rng = make_rng(21);
    let system = ParticleSystem::random_suspension(n, phi, &mut rng);
    let initial: Vec<Vec3> = system.unwrapped().to_vec();

    // Algorithm 1: conventional Ewald BD.
    let mut dense = EwaldBd::new(system.clone(), EwaldBdConfig::default(), 99);
    dense.add_force(RepulsiveHarmonic::default());
    dense.run(steps).expect("dense run");
    let t1 = dense.snapshot();

    // Algorithm 2: matrix-free BD.
    let mut mf = MatrixFreeBd::new(system, MatrixFreeConfig::default(), 99).expect("setup");
    mf.add_force(RepulsiveHarmonic::default());
    mf.run(steps).expect("matrix-free run");
    let t2 = mf.snapshot();
    let secs = |snap: &Snapshot, phase: Phase| snap.phase(phase).total_secs();

    println!("n = {n}, phi = {phi}, {steps} steps\n");
    println!("Algorithm 1 (dense Ewald + Cholesky):");
    println!("  assembly      {:>9.3} s", secs(t1, Phase::Assembly));
    println!("  cholesky      {:>9.3} s", secs(t1, Phase::Cholesky));
    println!("  displacements {:>9.3} s", secs(t1, Phase::Displacements));
    println!("  stepping      {:>9.3} s", secs(t1, Phase::Stepping));
    println!("  per step      {:>9.3} ms", t1.step_seconds(steps as u64) * 1e3);
    println!("  matrix memory {:>9.1} MiB", (6 * n * n * 9 * 8) as f64 / 1048576.0);
    println!();
    println!("Algorithm 2 (PME + block Krylov):");
    println!("  PME setup     {:>9.3} s", secs(&t2, Phase::PmeSetup));
    println!(
        "  displacements {:>9.3} s ({} Krylov iterations)",
        secs(&t2, Phase::Displacements),
        t2.counter(Counter::LanczosIterations)
    );
    println!("  stepping      {:>9.3} s", secs(&t2, Phase::Stepping));
    println!("  per step      {:>9.3} ms", t2.step_seconds(steps as u64) * 1e3);
    println!("  operator mem  {:>9.1} MiB", mf.operator_memory_bytes() as f64 / 1048576.0);
    println!();
    let m1 = msd_per_step(dense.system().unwrapped(), &initial, steps);
    let m2 = msd_per_step(mf.system().unwrapped(), &initial, steps);
    println!("MSD per step: dense {m1:.5}  matrix-free {m2:.5}  ratio {:.3}", m2 / m1);
    println!("(different random streams; the ratio should be ~1 statistically)");
}
