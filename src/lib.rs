//! # hibd — Hydrodynamic-Interaction Brownian Dynamics
//!
//! A matrix-free Brownian dynamics library with long-range hydrodynamic
//! interactions, reproducing Liu & Chow, *"Large-Scale Hydrodynamic Brownian
//! Simulations on Multicore and Manycore Architectures"*, IPDPS 2014.
//!
//! The conventional BD algorithm stores the dense `3n x 3n` Rotne–Prager–
//! Yamakawa mobility matrix and Cholesky-factorizes it to sample Brownian
//! displacements — `O(n^2)` memory and `O(n^3)` time. This crate implements
//! the paper's matrix-free alternative: the mobility is applied through a
//! particle-mesh Ewald (PME) operator (`O(n log n)`), and displacements are
//! drawn with a block Krylov (Lanczos) method that needs only `M*v` products.
//!
//! ## Quick start
//!
//! ```
//! use hibd::prelude::*;
//!
//! // A small periodic suspension at volume fraction 0.1.
//! let mut rng = make_rng(42);
//! let system = ParticleSystem::random_suspension(100, 0.1, &mut rng);
//! let config = MatrixFreeConfig::default();
//! let mut sim = MatrixFreeBd::new(system, config, 42).unwrap();
//! sim.add_force(RepulsiveHarmonic::default());
//! sim.run(10).unwrap();
//! assert_eq!(sim.system().len(), 100);
//! // Phase time lives in one `Snapshot` per job (driver + operator spans).
//! assert!(sim.snapshot().step_seconds(sim.completed_steps()) > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`mathx`] | `erf`/`erfc`, Gaussian sampling, `Vec3`, statistics |
//! | [`fft`] | 3D real-to-complex FFT (mixed radix, from scratch) |
//! | [`sparse`] | CSR / fixed-nnz CSR / 3x3-block BCSR sparse kernels |
//! | [`linalg`] | dense matrix, Cholesky, QR, symmetric eigensolvers |
//! | [`cells`] | periodic and open-boundary Verlet cell lists |
//! | [`rpy`] | RPY tensor and its Beenakker Ewald summation |
//! | [`pme`] | particle-mesh Ewald operator for the RPY tensor |
//! | [`krylov`] | (block) Lanczos computation of `M^{1/2} z` |
//! | [`pse`] | positively-split Ewald Brownian displacement sampler |
//! | [`treecode`] | hierarchical free-space RPY operator (open boundaries) |
//! | [`core`] | BD drivers, forces, diffusion analysis, config + checkpoint |
//! | [`engine`] | resident plan cache + lockstep multi-replica ensembles |

pub use hibd_cells as cells;
pub use hibd_core as core;
pub use hibd_engine as engine;
pub use hibd_fft as fft;
pub use hibd_krylov as krylov;
pub use hibd_linalg as linalg;
pub use hibd_mathx as mathx;
pub use hibd_pme as pme;
pub use hibd_pse as pse;
pub use hibd_rpy as rpy;
pub use hibd_sparse as sparse;
pub use hibd_telemetry as telemetry;
pub use hibd_treecode as treecode;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use hibd_core::diffusion::DiffusionEstimator;
    pub use hibd_core::ewald_bd::{EwaldBd, EwaldBdConfig};
    pub use hibd_core::forces::{ConstantForce, Force, HarmonicBond, RepulsiveHarmonic};
    pub use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
    pub use hibd_core::system::ParticleSystem;
    pub use hibd_mathx::Vec3;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic RNG helper used in examples and docs.
    pub fn make_rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }
}
