//! `hibd-serve`: a resident batch-simulation service.
//!
//! The throughput case for the paper's method is not one long trajectory
//! but *fleets* of them — parameter sweeps and replica ensembles where the
//! expensive part (operator setup, FFT plans, tuned shapes) is shared
//! across jobs. This crate turns the [`hibd_engine::EnsembleRunner`] into a
//! long-running daemon:
//!
//! * [`spool`] — jobs are ordinary `hibd run` config files dropped into a
//!   watched directory; a `<name>.cancel` sentinel cancels cooperatively;
//! * [`server`] — the main loop: bounded admission, one-time shape
//!   resolution, and shape-affine routing so same-shape jobs land in the
//!   same worker's runner and share its plans (joins at the next step
//!   boundary, retirements without stalling the rest);
//! * [`worker`] — worker threads (std threads + channels, no async
//!   runtime), each owning one runner with per-job fault isolation;
//! * [`job`] / [`output`] — the crash-safe streaming protocol: append-only
//!   trajectories, atomic rename-on-write checkpoints, and a `meta.json`
//!   commit point, with non-terminal checkpoints aligned to `lambda_RPY`
//!   window boundaries so a killed daemon resumes every job **bitwise**;
//! * [`status`] — a periodically rewritten `hibd-serve-v2` `status.json`
//!   (queue depths, plan-cache health, per-worker load, per-job telemetry)
//!   plus the validator behind `xtask validate-status`;
//! * [`shutdown`] — SIGINT/SIGTERM → finish the step, checkpoint all, exit.

pub mod job;
pub mod output;
pub mod server;
pub mod shutdown;
pub mod spec;
pub mod spool;
pub mod status;
pub mod worker;

pub use job::{JobMeta, JobState};
pub use server::{serve, ServeReport};
pub use spec::ServeSpec;
pub use status::validate_status;
