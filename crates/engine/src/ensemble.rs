//! Resident multi-job stepping: stable slots, shared plans, per-job faults.
//!
//! Each job is a full [`MatrixFreeBd`] driver — own positions, own RNG
//! stream, own operator — and one engine step is [`MatrixFreeBd::step`] on
//! every live slot, so a job stepped here produces exactly the trajectory a
//! standalone driver with the same system, config and seed would: it *is*
//! that driver. What the runner adds is residency. Jobs resolving to the
//! same shape share one [`PmePlans`]/[`TreePlans`] allocation from the
//! runner's [`PlanCache`]; [`EnsembleRunner::admit`] and
//! [`EnsembleRunner::retire`] change membership between steps (retired slots
//! are reused); and a job that errors or panics is reported by slot while
//! the others finish the step.
//!
//! [`PmePlans`]: hibd_pme::PmePlans
//! [`TreePlans`]: hibd_treecode::TreePlans

use crate::cache::PlanCache;
use hibd_core::ewald_bd::BdError;
use hibd_core::mf_bd::{MatrixFreeConfig, MobilityOp, MobilityPlans};
use hibd_core::{MatrixFreeBd, ParticleSystem};
use hibd_telemetry::{Counter, LabeledSnapshot, Snapshot};
use std::sync::Arc;

/// Why a job failed during a step.
#[derive(Debug)]
pub enum JobFault {
    /// The driver returned a structured error.
    Error(BdError),
    /// The job panicked; the payload message, when one was attached.
    Panic(String),
}

impl std::fmt::Display for JobFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFault::Error(e) => write!(f, "{e}"),
            JobFault::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One job's failure from [`EnsembleRunner::step_isolated`]. The job did
/// not complete that step and its driver state is suspect: always
/// [`retire`](EnsembleRunner::retire) it before stepping again.
#[derive(Debug)]
pub struct JobFailure {
    /// Slot index of the failed job.
    pub slot: usize,
    /// What went wrong.
    pub fault: JobFault,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job in slot {}: {}", self.slot, self.fault)
    }
}

impl std::error::Error for JobFailure {}

/// Best-effort extraction of a panic payload message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run one job's step, converting an error or a panic into a fault. The
/// step only touches that job's own driver state, which the caller then
/// retires — hence the `AssertUnwindSafe`.
fn run_guarded(f: impl FnOnce() -> Result<(), BdError>) -> Result<(), JobFault> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(JobFault::Error(e)),
        Err(p) => Err(JobFault::Panic(panic_message(p.as_ref()))),
    }
}

/// Steps every live job once per engine step, sharing setup plans between
/// same-shape jobs. Slots are stable handles: a job keeps its slot index
/// for life, and retired slots are recycled.
pub struct EnsembleRunner {
    slots: Vec<Option<MatrixFreeBd>>,
    cache: PlanCache,
}

impl EnsembleRunner {
    /// Build one replica per `(system, seed)` job, all under `cfg`, sharing
    /// setup plans through an internal unbounded [`PlanCache`].
    pub fn new(
        cfg: MatrixFreeConfig,
        jobs: Vec<(ParticleSystem, u64)>,
    ) -> Result<EnsembleRunner, BdError> {
        let mut runner = EnsembleRunner::with_cache(PlanCache::new());
        for (system, seed) in jobs {
            runner.admit(system, cfg, seed)?;
        }
        Ok(runner)
    }

    /// An empty runner that shares plans through `cache` (use
    /// [`PlanCache::with_capacity`] to bound a long-running service).
    #[must_use]
    pub fn with_cache(cache: PlanCache) -> EnsembleRunner {
        EnsembleRunner { slots: Vec::new(), cache }
    }

    /// Admit a new job, returning its slot index; it steps from the next
    /// engine step on. A retired slot is reused when one is free. Admission
    /// is the only point that builds plans, so a same-shape admit is a
    /// cache hit and shares the existing `Arc`.
    pub fn admit(
        &mut self,
        system: ParticleSystem,
        cfg: MatrixFreeConfig,
        seed: u64,
    ) -> Result<usize, BdError> {
        let plans = self.cache.plans_for(&system, &cfg)?;
        let bd = MatrixFreeBd::with_plans(system, cfg, seed, plans)?;
        Ok(match self.slots.iter().position(Option::is_none) {
            Some(free) => {
                self.slots[free] = Some(bd);
                free
            }
            None => {
                self.slots.push(Some(bd));
                self.slots.len() - 1
            }
        })
    }

    /// Remove the job in `slot` (finished, failed, or cancelled) and hand
    /// its driver back — phase account included; the other jobs keep
    /// stepping.
    pub fn retire(&mut self, slot: usize) -> Option<MatrixFreeBd> {
        self.slots.get_mut(slot)?.take()
    }

    /// Number of live replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the runner holds no live replicas.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot indices of the live replicas, in slot order.
    #[must_use]
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&r| self.slots[r].is_some()).collect()
    }

    /// The replica in `slot`, when one is live there.
    #[must_use]
    pub fn slot(&self, slot: usize) -> Option<&MatrixFreeBd> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// The replica in `slot`, mutable, when one is live there.
    pub fn slot_mut(&mut self, slot: usize) -> Option<&mut MatrixFreeBd> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    /// Replica `r` (read access: positions, phase account, parameters).
    ///
    /// # Panics
    /// Panics when slot `r` is empty; use [`slot`](EnsembleRunner::slot)
    /// where retirement is in play.
    #[must_use]
    pub fn replica(&self, r: usize) -> &MatrixFreeBd {
        self.slots[r].as_ref().expect("live replica")
    }

    /// Replica `r`, mutable — for attaching forces before stepping.
    ///
    /// # Panics
    /// Panics when slot `r` is empty.
    pub fn replica_mut(&mut self, r: usize) -> &mut MatrixFreeBd {
        self.slots[r].as_mut().expect("live replica")
    }

    /// The internal plan cache (hit/miss/eviction counters, plan bytes).
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Advance every replica by one BD step; the first job failure of the
    /// step is the error. [`step_isolated`](Self::step_isolated) is the body:
    /// a failing job never unwinds through the engine, and the replicas
    /// that did not fail have completed the step.
    pub fn step(&mut self) -> Result<(), JobFailure> {
        self.step_isolated().into_iter().next().map_or(Ok(()), Err)
    }

    /// Advance every live job by one [`MatrixFreeBd::step`] with per-job
    /// fault isolation: a job that errors or panics is reported, the others
    /// (and the daemon) keep going. Failed slots must be
    /// [`retire`](EnsembleRunner::retire)d before the next step — their
    /// driver state is suspect.
    pub fn step_isolated(&mut self) -> Vec<JobFailure> {
        let mut failures = Vec::new();
        for (slot, bd) in self.slots.iter_mut().enumerate() {
            let Some(bd) = bd else { continue };
            if let Err(fault) = run_guarded(|| bd.step()) {
                failures.push(JobFailure { slot, fault });
            }
        }
        failures
    }

    /// Advance every replica by `m` steps.
    pub fn run(&mut self, m: usize) -> Result<(), JobFailure> {
        for _ in 0..m {
            self.step()?;
        }
        Ok(())
    }

    /// The phase account of the job in `slot` — its driver's
    /// [`snapshot`](MatrixFreeBd::snapshot) (empty for an empty slot).
    #[must_use]
    pub fn job_snapshot(&self, slot: usize) -> Snapshot {
        self.slot(slot).map_or_else(Snapshot::empty, MatrixFreeBd::snapshot)
    }

    /// Per-job phase statistics labeled `r{slot}` for every live slot plus
    /// a `shared` entry carrying the plan-cache counters (all work is some
    /// job's own). Merging these across runners goes through
    /// [`hibd_telemetry::merge_labeled`].
    #[must_use]
    pub fn job_snapshots(&self) -> Vec<LabeledSnapshot> {
        let mut out: Vec<LabeledSnapshot> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(r, bd)| {
                Some(LabeledSnapshot { label: format!("r{r}"), snapshot: bd.as_ref()?.snapshot() })
            })
            .collect();
        let mut shared = Snapshot::empty();
        shared.counters[Counter::PlanCacheHits as usize] = self.cache.hits();
        shared.counters[Counter::PlanCacheMisses as usize] = self.cache.misses();
        shared.counters[Counter::PlanCacheEvictions as usize] = self.cache.evictions();
        out.push(LabeledSnapshot { label: "shared".into(), snapshot: shared });
        out
    }

    /// Resident bytes of the whole ensemble: every live replica's per-job
    /// operator state and each distinct shared plan set **once**. With `R`
    /// replicas of one shape this is strictly less than `R` standalone
    /// operators, which count their plans `R` times.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let mut total = 0;
        let mut seen: Vec<*const u8> = Vec::new();
        for bd in self.slots.iter().flatten() {
            total += bd.operator().map_or(0, MobilityOp::state_memory_bytes);
            let (ptr, bytes) = match bd.plans() {
                MobilityPlans::Pme(p) => (Arc::as_ptr(p).cast::<u8>(), p.memory_bytes()),
                MobilityPlans::Tree(p) => (Arc::as_ptr(p).cast::<u8>(), p.memory_bytes()),
            };
            if !seen.contains(&ptr) {
                seen.push(ptr);
                total += bytes;
            }
        }
        total
    }
}
