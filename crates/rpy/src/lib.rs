//! `hibd-rpy`: the Rotne–Prager–Yamakawa tensor and its Ewald summation.
//!
//! The mobility matrix `M` of a Brownian dynamics simulation with
//! hydrodynamic interactions has 3x3 tensor entries `M_ij` describing how a
//! force on particle `j` induces a velocity on particle `i` through the
//! fluid. This crate provides:
//!
//! * [`tensor`] — the free-space RPY tensor (paper Section II-A), including
//!   the regularized overlapping form for `r < 2a`;
//! * [`ewald`] — Beenakker's Ewald summation of the RPY tensor under
//!   periodic boundary conditions (paper Section II-B, ref. \[22\]): the
//!   real-space kernels `M^(1)`, the reciprocal-space kernel `M^(2)`, the
//!   self term, and tolerance-driven cutoffs;
//! * [`hasimoto`] — the positively split (Hasimoto) form of the same sum,
//!   whose real and wave halves are each positive semidefinite: what the
//!   split-Ewald displacement sampler (`hibd-pse`) takes square roots of;
//! * [`dense`] — dense mobility-matrix assembly: the periodic Ewald matrix
//!   used by the conventional Algorithm 1 and as the ground truth that PME
//!   is validated against, plus a free-space variant for unit tests.
//!
//! Everything is expressed in absolute mobility units; the natural scale is
//! `mu0 = 1/(6 pi eta a)`, the self-mobility of an isolated sphere.

pub mod dense;
pub mod ewald;
pub mod hasimoto;
pub mod nearfield;
pub mod tensor;

pub use dense::{dense_ewald_mobility, dense_rpy_free};
pub use ewald::{RpyEwald, WaveKernel};
pub use hasimoto::RpyHasimoto;
pub use nearfield::{
    real_tensors_with_overlap4, rpy_pairs_accumulate, rpy_pairs_accumulate_multi, COL_TILE,
    PAIR_TILE,
};
pub use tensor::{rpy_pair_scalars, rpy_pair_tensor, rpy_self_mobility};
