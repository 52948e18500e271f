//! `hibd-engine`: a resident batch-simulation engine.
//!
//! Screening studies run many replicas of the *same shape* — one suspension
//! geometry, many noise seeds. Building a standalone [`MatrixFreeBd`] per
//! replica repeats the position-independent setup work (FFT twiddle plans,
//! the `O(K^3)` influence table, Chebyshev transfer matrices) `R` times.
//! This crate keeps that work resident:
//!
//! * [`PlanCache`] — deduplicates the immutable setup artifacts
//!   ([`hibd_pme::PmePlans`] / [`hibd_treecode::TreePlans`]) behind a
//!   canonical [`ShapeKey`], handing every replica of a shape the same
//!   `Arc`. Hit/miss counts feed the telemetry counters.
//! * [`EnsembleRunner`] — holds `R` jobs in stable slots and advances each
//!   by one `MatrixFreeBd::step` per engine step. Membership is dynamic
//!   (`admit`/`retire` at step boundaries) and `step_isolated` confines one
//!   job's error or panic to that job — the substrate the `hibd-serve`
//!   daemon schedules onto.
//!
//! The correctness contract is **bitwise** and holds by construction: a
//! job's trajectory is identical, bit for bit, to a standalone
//! single-trajectory run with the same seed, because the runner steps it
//! through the standalone driver's own `step`. Same-shape jobs' FFTs are
//! deliberately not fused into one batch: `Fft3` fills its SIMD lanes from
//! inside one mesh, so a mesh in a wide batch costs what a mesh alone does
//! (DESIGN.md §12).
//!
//! [`MatrixFreeBd`]: hibd_core::MatrixFreeBd

pub mod cache;
pub mod ensemble;

pub use cache::{PlanCache, ShapeKey};
pub use ensemble::{EnsembleRunner, JobFailure, JobFault};
