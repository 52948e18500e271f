//! Diffusion of a bead-spring polymer chain with hydrodynamic interactions.
//!
//! A classic result of polymer physics: with hydrodynamic interactions the
//! center-of-mass diffusion of an N-bead chain scales like the Zimm model
//! (`D ~ N^{-nu}`, faster than Rouse's `D ~ 1/N`), because the beads drag
//! fluid along with them. This example builds chains of several lengths,
//! runs the matrix-free BD, and prints the measured center-of-mass D.
//!
//! ```sh
//! cargo run --release --example polymer_diffusion
//! ```

use hibd::core::forces::HarmonicBond;
use hibd::prelude::*;

/// Build one chain of `nbeads` beads (bond rest length 2a) in a dilute box.
fn chain_system(nbeads: usize, seed: u64) -> ParticleSystem {
    let _ = seed;
    let bond = 2.0;
    // Dilute: box much larger than the chain.
    let box_l = (nbeads as f64 * bond * 3.0).max(30.0);
    let mid = box_l / 2.0;
    // Slightly kinked initial line to avoid a perfectly singular geometry.
    let positions: Vec<Vec3> = (0..nbeads)
        .map(|i| {
            Vec3::new(
                mid + (i as f64 - nbeads as f64 / 2.0) * bond,
                mid + 0.3 * (i as f64).sin(),
                mid + 0.3 * (i as f64 * 1.7).cos(),
            )
        })
        .collect();
    ParticleSystem::new(positions, box_l, 1.0, 1.0)
}

fn com(points: &[Vec3]) -> Vec3 {
    let mut c = Vec3::ZERO;
    for p in points {
        c += *p;
    }
    c / points.len() as f64
}

fn main() {
    let mu0 = 1.0 / (6.0 * std::f64::consts::PI);
    println!("center-of-mass diffusion of bead-spring chains (Zimm regime)");
    println!("{:>7} {:>12} {:>12} {:>12}", "beads", "D_com/D0", "Rouse 1/N", "steps/s");

    for &nbeads in &[2usize, 4, 8, 16] {
        let system = chain_system(nbeads, 3);
        let config = MatrixFreeConfig { lambda_rpy: 8, ..Default::default() };
        let dt = config.dt;
        let mut sim = MatrixFreeBd::new(system, config, 3).expect("setup");
        sim.add_force(HarmonicBond::chain(0, nbeads as u32, 20.0, 2.0));
        sim.add_force(RepulsiveHarmonic::default());

        let steps = 400;
        let mut com_track: Vec<Vec3> = Vec::with_capacity(steps + 1);
        com_track.push(com(sim.system().unwrapped()));
        for _ in 0..steps {
            sim.step().expect("step");
            com_track.push(com(sim.system().unwrapped()));
        }
        // MSD of the COM over a quarter-trajectory lag.
        let lag = steps / 4;
        let mut msd = 0.0;
        let mut cnt = 0;
        for t in 0..(com_track.len() - lag) {
            msd += (com_track[t + lag] - com_track[t]).norm2();
            cnt += 1;
        }
        msd /= cnt as f64;
        let d_com = msd / (6.0 * lag as f64 * dt);
        let rate = 1.0 / sim.snapshot().step_seconds(sim.completed_steps());
        println!("{nbeads:>7} {:>12.4} {:>12.4} {:>12.1}", d_com / mu0, 1.0 / nbeads as f64, rate);
    }
    println!();
    println!("with HI, D_com/D0 decays slower than the free-draining (Rouse) 1/N");
    println!("column — the hydrodynamic coupling is what the RPY mobility adds.");
}
