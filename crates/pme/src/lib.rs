//! `hibd-pme`: the particle-mesh Ewald operator for the RPY tensor.
//!
//! This is the paper's primary contribution (Sections III-A and IV): a
//! matrix-free application of the periodic RPY mobility,
//!
//! `u = PME(f) = M_real f + M_recip f + M_self f`,
//!
//! where the real-space part is a short-cutoff sparse matrix (BCSR, 3x3
//! blocks) and the reciprocal-space part runs through the six-step kernel
//! pipeline of Section IV-A:
//!
//! 1. **Construct P** ([`pmat`]) — the `n x K^3` B-spline interpolation
//!    matrix, precomputed once per particle configuration and reused across
//!    every Krylov iteration;
//! 2. **Spreading** — `F_theta = P^T f_theta`, parallelized over the eight
//!    write-conflict-free *independent sets* of mesh blocks ([`spread`]);
//! 3. **Forward 3D FFT** (three r2c transforms, one per force component);
//! 4. **Influence function** ([`influence`]) — multiply by
//!    `I(k) = |b(k)|^2 m_alpha(|k|) (I - k̂k̂ᵀ) / L^3`, storing one scalar
//!    per mesh point and reconstructing the tensor on the fly;
//! 5. **Inverse 3D FFT** (three c2r transforms);
//! 6. **Interpolation** — `u_theta = P U_theta`.
//!
//! [`operator::PmeOperator`] packages the pipeline — one body, entered with
//! one vector (`recip_apply_add`) or a block (`recip_apply_add_multi`) —
//! behind the [`LinearOperator`](hibd_linalg::LinearOperator) trait so the
//! Krylov displacement solver can consume it; [`onthefly`] holds the two
//! Figure 4 baseline kernels (`hibd-bench` composes them into a pipeline);
//! [`tuner`] selects `(K, p, r_max,
//! alpha)` for a target PME accuracy `e_p` (reproducing Table III), and
//! [`perf`] implements the paper's performance model (Section IV-D) with the
//! Table I machine descriptions.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels

pub mod bspline;
pub mod influence;
pub mod onthefly;
pub mod operator;
pub mod perf;
pub mod pmat;
pub mod real;
pub(crate) mod simd;
pub mod spread;
pub mod tuner;
pub mod verify;

pub use operator::{PmeOperator, PmeParams, PmePlans};
pub use tuner::{measure_ep, tune, tune_with_rmax, TunedConfig};
