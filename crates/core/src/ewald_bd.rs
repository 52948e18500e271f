//! Algorithm 1: the conventional Ewald BD baseline.
//!
//! Every `lambda_RPY` steps: assemble the dense `3n x 3n` Beenakker-Ewald
//! mobility matrix, Cholesky-factor it, and draw `lambda_RPY` Brownian
//! displacement vectors `d = sqrt(2 kB T dt) S z` at once. In between, each
//! step evaluates the deterministic forces and propagates
//! `r += M f dt + d_j`.
//!
//! This is the baseline whose `O(n^2)` memory and `O(n^3)` factorization the
//! matrix-free algorithm removes (Figure 7); it also serves as the accuracy
//! reference for small systems.

use crate::forces::{total_force, Force};
use crate::system::ParticleSystem;
use hibd_linalg::{CholeskyFactor, DMat};
use hibd_mathx::fill_standard_normal;
use hibd_rpy::{dense_ewald_mobility, RpyEwald};
use hibd_telemetry::{self as telemetry, Phase, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Errors from the BD drivers.
#[derive(Clone, Debug)]
pub enum BdError {
    /// The mobility matrix lost positive definiteness (numerically).
    NotPositiveDefinite { pivot: usize },
    /// The Krylov displacement solver failed.
    Krylov(String),
    /// PME/FFT setup failed (bad mesh size).
    Setup(String),
}

impl std::fmt::Display for BdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BdError::NotPositiveDefinite { pivot } => {
                write!(f, "mobility matrix not positive definite (pivot {pivot})")
            }
            BdError::Krylov(s) => write!(f, "Krylov displacement solver: {s}"),
            BdError::Setup(s) => write!(f, "setup: {s}"),
        }
    }
}

impl std::error::Error for BdError {}

/// Configuration of the conventional algorithm.
#[derive(Clone, Copy, Debug)]
pub struct EwaldBdConfig {
    /// Time step `dt`.
    pub dt: f64,
    /// Thermal energy `kB T`.
    pub kbt: f64,
    /// Mobility-matrix reuse interval (paper: 10–100, experiments use 16).
    pub lambda_rpy: usize,
    /// Ewald splitting parameter; `None` selects the classic cost-balancing
    /// `xi = sqrt(pi) n^{1/6} / L`.
    pub xi: Option<f64>,
    /// Truncation tolerance of the Ewald sums.
    pub ewald_tol: f64,
}

impl Default for EwaldBdConfig {
    fn default() -> Self {
        EwaldBdConfig { dt: 0.01, kbt: 1.0, lambda_rpy: 16, xi: None, ewald_tol: 1e-4 }
    }
}

struct Cache {
    m: DMat,
    /// `3n x lambda` row-major block of pre-drawn displacements.
    disp: Vec<f64>,
    used: usize,
}

/// The Algorithm 1 driver.
pub struct EwaldBd {
    system: ParticleSystem,
    cfg: EwaldBdConfig,
    forces: Vec<Box<dyn Force>>,
    rng: StdRng,
    cache: Option<Cache>,
    /// `Assembly` (line 4), `Cholesky` (line 5), `Displacements` (lines
    /// 6-7) and one `Stepping` span (lines 9-10) per step taken.
    snap: Snapshot,
}

impl EwaldBd {
    pub fn new(system: ParticleSystem, cfg: EwaldBdConfig, seed: u64) -> EwaldBd {
        assert!(cfg.lambda_rpy >= 1);
        EwaldBd {
            system,
            cfg,
            forces: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            cache: None,
            snap: Snapshot::empty(),
        }
    }

    pub fn add_force(&mut self, force: impl Force + 'static) {
        self.forces.push(Box::new(force));
    }

    /// Add an already-boxed force (useful when the concrete type is chosen
    /// at run time, e.g. from a config file).
    pub fn add_force_boxed(&mut self, force: Box<dyn Force>) {
        self.forces.push(force);
    }

    pub fn system(&self) -> &ParticleSystem {
        &self.system
    }

    pub fn config(&self) -> &EwaldBdConfig {
        &self.cfg
    }

    /// The run's phase account; `Stepping.count` is the steps taken.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The splitting parameter in effect.
    pub fn xi(&self) -> f64 {
        self.cfg.xi.unwrap_or_else(|| {
            std::f64::consts::PI.sqrt() * (self.system.len() as f64).powf(1.0 / 6.0)
                / self.system.box_l
        })
    }

    /// Size of the dense mobility matrix in bytes (the Figure 7a quantity).
    pub fn mobility_memory_bytes(&self) -> usize {
        let dim = 3 * self.system.len();
        dim * dim * 8
    }

    fn refresh_cache(&mut self) -> Result<(), BdError> {
        let n3 = 3 * self.system.len();
        let lambda = self.cfg.lambda_rpy;

        let sw = telemetry::start(Phase::Assembly);
        let ewald = RpyEwald::new(
            self.system.a,
            self.system.eta,
            self.system.box_l,
            self.xi(),
            self.cfg.ewald_tol,
        );
        let m = dense_ewald_mobility(self.system.positions(), &ewald);
        sw.stop(&mut self.snap);
        let sw = telemetry::start(Phase::Cholesky);
        let chol =
            CholeskyFactor::new(&m).map_err(|e| BdError::NotPositiveDefinite { pivot: e.pivot })?;
        sw.stop(&mut self.snap);
        let sw = telemetry::start(Phase::Displacements);
        let mut z = vec![0.0; n3 * lambda];
        fill_standard_normal(&mut self.rng, &mut z);
        let mut disp = vec![0.0; n3 * lambda];
        chol.mul_multi(&z, &mut disp, lambda);
        let scale = (2.0 * self.cfg.kbt * self.cfg.dt).sqrt();
        for d in &mut disp {
            *d *= scale;
        }
        sw.stop(&mut self.snap);
        self.cache = Some(Cache { m, disp, used: 0 });
        Ok(())
    }

    /// Advance one BD step.
    pub fn step(&mut self) -> Result<(), BdError> {
        let lambda = self.cfg.lambda_rpy;
        if self.cache.as_ref().map(|c| c.used >= lambda).unwrap_or(true) {
            self.refresh_cache()?;
        }

        let sw = telemetry::start(Phase::Stepping);
        let n3 = 3 * self.system.len();
        let f = total_force(&mut self.forces, &self.system);
        let cache = self.cache.as_mut().expect("cache refreshed above");
        let mut drift = vec![0.0; n3];
        cache.m.mul_vec(&f, &mut drift);
        let j = cache.used;
        let mut d = vec![0.0; n3];
        for i in 0..n3 {
            d[i] = drift[i] * self.cfg.dt + cache.disp[i * lambda + j];
        }
        cache.used += 1;
        self.system.apply_displacements(&d);
        sw.stop(&mut self.snap);
        Ok(())
    }

    /// Advance `m` steps.
    pub fn run(&mut self, m: usize) -> Result<(), BdError> {
        for _ in 0..m {
            self.step()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::RepulsiveHarmonic;

    fn small_system(n: usize, phi: f64, seed: u64) -> ParticleSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        ParticleSystem::random_suspension(n, phi, &mut rng)
    }

    #[test]
    fn steps_advance_and_stay_in_box() {
        let sys = small_system(20, 0.1, 1);
        let mut bd = EwaldBd::new(sys, EwaldBdConfig::default(), 42);
        bd.add_force(RepulsiveHarmonic::default());
        bd.run(5).unwrap();
        assert_eq!(bd.snapshot().phase(Phase::Stepping).count, 5);
        let l = bd.system().box_l;
        for p in bd.system().positions() {
            for c in 0..3 {
                assert!(p[c] >= 0.0 && p[c] < l);
            }
        }
        // Something actually moved.
        let moved = bd
            .system()
            .unwrapped()
            .iter()
            .zip(bd.system().positions())
            .any(|(u, _)| u.norm() > 0.0);
        assert!(moved);
    }

    #[test]
    fn matrix_reused_within_lambda_window() {
        let sys = small_system(10, 0.1, 2);
        let cfg = EwaldBdConfig { lambda_rpy: 4, ..Default::default() };
        let mut bd = EwaldBd::new(sys, cfg, 7);
        bd.run(4).unwrap();
        assert_eq!(bd.snapshot().phase(Phase::Assembly).count, 1);
        bd.run(1).unwrap(); // triggers the second assembly
        assert_eq!(bd.snapshot().phase(Phase::Assembly).count, 2);
        bd.run(3).unwrap(); // within the second window: no new assembly
        assert_eq!(bd.snapshot().phase(Phase::Assembly).count, 2);
        assert_eq!(bd.snapshot().phase(Phase::Cholesky).count, 2);
    }

    #[test]
    fn zero_temperature_freezes_force_free_system() {
        let sys = small_system(8, 0.05, 3);
        let before: Vec<_> = sys.positions().to_vec();
        let cfg = EwaldBdConfig { kbt: 0.0, ..Default::default() };
        let mut bd = EwaldBd::new(sys, cfg, 9);
        bd.run(3).unwrap();
        for (a, b) in before.iter().zip(bd.system().positions()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn displacement_scale_tracks_temperature() {
        // RMS step size ~ sqrt(2 kBT mu0 dt).
        let cfg = EwaldBdConfig { lambda_rpy: 8, ..Default::default() };
        let mut bd = EwaldBd::new(small_system(30, 0.05, 4), cfg, 11);
        bd.run(8).unwrap();
        let msd: f64 = bd
            .system()
            .unwrapped()
            .iter()
            .zip(bd.system().positions().iter())
            .map(|(u, _)| u.norm2())
            .sum::<f64>();
        // Crude sanity bounds (free diffusion): 6 D t per particle.
        let mu0 = 1.0 / (6.0 * std::f64::consts::PI);
        let expect = 6.0 * cfg.kbt * mu0 * cfg.dt * 8.0 * 30.0;
        // MSD of unwrapped-vs-origin equals displacement MSD here because
        // initial unwrapped == initial positions.
        let actual: f64 = bd
            .system()
            .unwrapped()
            .iter()
            .zip(initial_positions(&bd))
            .map(|(u, p0)| (*u - p0).norm2())
            .sum();
        let _ = msd;
        assert!(actual > 0.2 * expect && actual < 5.0 * expect, "{actual} vs {expect}");
    }

    fn initial_positions(_bd: &EwaldBd) -> Vec<hibd_mathx::Vec3> {
        // Reconstruct: unwrapped - (unwrapped - initial) is not tracked;
        // instead rebuild the same seeded system.
        let mut rng = StdRng::seed_from_u64(4);
        ParticleSystem::random_suspension(30, 0.05, &mut rng).positions().to_vec()
    }
}
