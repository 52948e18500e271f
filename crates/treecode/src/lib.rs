//! `hibd-treecode`: hierarchical `O(n log n)` free-space RPY mobility.
//!
//! The periodic backends of the workspace (dense Ewald, PME, PSE) all
//! presuppose a cubic box; the workload class that motivates the paper's
//! biomolecular examples — finite clusters, polymers and proteins in an
//! unbounded solvent — needs the *free-space* RPY tensor instead. Its far
//! field is smooth, so a kernel-independent treecode in the RPYFMM lineage
//! applies: a linearized octree over the cloud (Morton order, leaf capacity
//! `s`), Chebyshev anterpolation proxies per cell carrying 3-vector source
//! strengths, a multipole acceptance criterion `theta`, and exact direct
//! evaluation (two-branch RPY with Yamakawa overlap regularization) for
//! everything the traversal cannot separate.
//!
//! [`TreeOperator`] implements the same [`hibd_linalg::LinearOperator`]
//! trait as the PME and dense operators, so block Lanczos, the BD drivers,
//! telemetry, and the audit/alloc tooling consume it unchanged. Accuracy is
//! governed by [`TreeParams`] (`theta`, `cheb_order`), looked up in
//! [`SCHEDULE`], whose tiers are validated by measurement against the dense
//! free-space RPY matrix — not by an asymptotic error bound.
//!
//! Three evaluations share that machinery ([`TreeEval`]): the exact direct
//! sum (`O(n^2)` through the vectorised near-field pair kernel — the
//! operator with the root as its only leaf), the node-to-particle treecode
//! (`O(n log n)`) and a true kernel-independent FMM with an M2L/L2L/L2P
//! downward pass (`O(n)`, see [`fmm`]). Which one runs, and at what leaf
//! capacity, is not a user choice: [`tune`] picks it from `(n, tolerance)`
//! by a modelled per-column cost — the direct sum below the hierarchical
//! crossover, the cheapest hierarchy above it (see [`tuner`]).
//!
//! Module map: [`morton`] (Z-order codes), [`tree`] (linearized octree),
//! [`cheb`] (anterpolation weights and the universal M2M transfer
//! matrices), [`fmm`] (M2L interaction lists and translation tables),
//! [`operator`] (the matrix-free apply), [`tuner`] (accuracy schedule and
//! cost model).

pub mod cheb;
pub mod fmm;
pub mod morton;
pub mod operator;
pub mod tree;
pub mod tuner;

pub use operator::{TreeEval, TreeOperator, TreeParams, TreePlans, MAX_CHEB_ORDER};
pub use tree::Octree;
pub use tuner::{measured_rel_error, tune, tune_at_theta, SCHEDULE};
