//! `hibd-core`: Brownian dynamics drivers with hydrodynamic interactions.
//!
//! Implements both simulation algorithms of the paper on top of the
//! substrate crates:
//!
//! * [`ewald_bd`] — **Algorithm 1**, the conventional Ewald BD baseline:
//!   dense `3n x 3n` Beenakker-Ewald mobility matrix, Cholesky factor for
//!   the Brownian displacements, matrix reuse over `lambda_RPY` steps;
//! * [`mf_bd`] — **Algorithm 2**, the matrix-free method: a PME operator per
//!   configuration and a block Krylov solver for the displacements;
//! * [`system`] — the particle suspension state (wrapped + unwrapped
//!   coordinates, suspension builders at a target volume fraction);
//! * [`forces`] — deterministic forces `f(r)`: the paper's repulsive
//!   harmonic contact force, plus constant (gravity) and bonded springs for
//!   the example applications;
//! * [`diffusion`] — the translational diffusion-coefficient estimator of
//!   paper Eq. 12, with block-averaged error bars;
//! * [`config`] — the `key = value` simulation spec shared by every front
//!   end (`hibd run` configs double as `hibd serve` spool job files);
//! * [`checkpoint`] — versioned binary snapshot/restart of the full
//!   simulation state.
//!
//! The *modeled* Section IV-E hybrid executor is paper scaffolding and lives
//! with the figure harnesses (`hibd_bench::hybrid`), not here.

pub mod analysis;
pub mod checkpoint;
pub mod config;
pub mod diffusion;
pub mod ewald_bd;
pub mod forces;
pub mod io;
pub mod mf_bd;
pub mod system;

pub use analysis::RdfAccumulator;
pub use checkpoint::Checkpoint;
pub use config::SimSpec;
pub use diffusion::DiffusionEstimator;
pub use ewald_bd::{EwaldBd, EwaldBdConfig};
pub use forces::{ConstantForce, Force, HarmonicBond, LennardJones, RepulsiveHarmonic};
pub use mf_bd::{
    resolve_shape, DisplacementMode, MatrixFreeBd, MatrixFreeConfig, MobilityOp, MobilityPlans,
    ResolvedShape,
};
pub use system::ParticleSystem;
