//! Quickstart: simulate a small Brownian suspension with hydrodynamic
//! interactions and estimate its self-diffusion coefficient.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hibd::core::diffusion::DiffusionEstimator;
use hibd::prelude::*;
use hibd::telemetry::Counter;

fn main() {
    // 300 spheres (radius a = 1) at volume fraction 0.2 in a periodic box.
    let mut rng = make_rng(7);
    let system = ParticleSystem::random_suspension(300, 0.2, &mut rng);
    println!(
        "suspension: n = {}, L = {:.2}, phi = {:.3}",
        system.len(),
        system.box_l,
        system.volume_fraction()
    );

    // Matrix-free BD: PME parameters are tuned automatically for the target
    // accuracy e_p ~ 1e-3 and the Krylov tolerance e_k = 1e-2 (the paper's
    // production settings).
    let config = MatrixFreeConfig { e_k: 1e-2, target_ep: 1e-3, ..Default::default() };
    let dt = config.dt;
    let mut sim = MatrixFreeBd::new(system, config, 7).expect("setup");
    sim.add_force(RepulsiveHarmonic::default());
    let pme = sim.shape().pme.expect("periodic run has PME params");
    println!(
        "PME: K = {}, p = {}, r_max = {:.2}, alpha = {:.3}",
        pme.mesh_dim, pme.spline_order, pme.r_max, pme.alpha
    );

    // Equilibrate, then measure the mean-squared displacement.
    sim.run(50).expect("equilibration");
    let mut est = DiffusionEstimator::new(dt, 8);
    est.record(sim.system().unwrapped());
    for step in 1..=400 {
        sim.step().expect("step");
        est.record(sim.system().unwrapped());
        if step % 100 == 0 {
            let iterations = sim.snapshot().counter(Counter::LanczosIterations);
            println!("step {step}: {iterations} Krylov iterations so far");
        }
    }

    let mu0 = 1.0 / (6.0 * std::f64::consts::PI); // isolated-sphere mobility
    let (d, err) = est.diffusion().expect("diffusion estimate");
    println!();
    println!("D / D0 = {:.3} +- {:.3}  (D0 = kBT mu0)", d / mu0, err / mu0);
    println!("crowding at phi = 0.2 should give D/D0 well below 1 (paper Fig. 3)");
    let per_step = sim.snapshot().step_seconds(sim.completed_steps());
    println!("time per BD step: {:.1} ms", per_step * 1e3);
}
