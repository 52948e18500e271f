//! Lockstep multi-replica stepping with cross-replica FFT batching.
//!
//! Each replica is a full [`MatrixFreeBd`] driver — own positions, own
//! RNG stream, own operator scratch — but replicas resolving to the same
//! shape share one [`PmePlans`]/[`TreePlans`] allocation from the runner's
//! [`PlanCache`], and the per-step drift `M f` of every same-shape periodic
//! group goes through **one** batched forward/inverse FFT pair instead of
//! `G` separate 3-transform trips.
//!
//! Membership is dynamic: [`EnsembleRunner::admit`] adds a job between
//! steps (it joins its shape group at the next step boundary) and
//! [`EnsembleRunner::retire`] removes one without stalling the rest —
//! retired slots are reused by later admissions. This is safe under the
//! bitwise contract because the batched FFTs are bitwise identical per
//! mesh: regrouping only repacks which meshes ride in one batch, never
//! what any single mesh computes.
//!
//! Bitwise contract: a replica stepped here produces exactly the trajectory
//! a standalone `MatrixFreeBd` with the same system, config, and seed
//! would. The window refresh (operator build + Brownian block) is the
//! standalone code path verbatim; the drift pipeline reuses the operator's
//! own spread/influence/interpolate kernels; and the batch FFTs are bitwise
//! identical per mesh to the single-mesh transforms.
//!
//! [`PmePlans`]: hibd_pme::PmePlans
//! [`TreePlans`]: hibd_treecode::TreePlans

use crate::cache::PlanCache;
use hibd_core::ewald_bd::BdError;
use hibd_core::mf_bd::{MatrixFreeConfig, MobilityOp, MobilityPlans};
use hibd_core::{MatrixFreeBd, ParticleSystem};
use hibd_linalg::LinearOperator;
use hibd_pme::PmeOperator;
use hibd_telemetry::{self as telemetry, Counter, LabeledSnapshot, Phase, Snapshot};
use std::sync::Arc;

/// The PME operator of a periodic replica whose window is current.
fn pme_op(bd: &mut MatrixFreeBd) -> &mut PmeOperator {
    match bd.operator_mut() {
        Some(MobilityOp::Pme(op)) => op,
        _ => panic!("periodic replica runs on PME"),
    }
}

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

/// One job's failure from [`EnsembleRunner::step_isolated`]. The slot is
/// dead for the rest of that step; the caller decides whether to
/// [`retire`](EnsembleRunner::retire) it (a failed job's operator scratch
/// is suspect — always retire before stepping again).
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

/// Run one per-job segment, converting an error or a panic into a fault.
/// The segment only touches that job's own driver state, which the caller
/// then retires — hence the `AssertUnwindSafe`.
fn run_guarded<T>(f: impl FnOnce() -> Result<T, BdError>) -> Result<T, JobFault> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(JobFault::Error(e)),
        Err(p) => Err(JobFault::Panic(panic_message(p.as_ref()))),
    }
}

/// Mark `slot` dead for the rest of the step and report why.
fn note_fault(slot: usize, fault: JobFault, dead: &mut [bool], failures: &mut Vec<JobFailure>) {
    dead[slot] = true;
    failures.push(JobFailure { slot, fault });
}

/// Steps live replicas in lockstep, sharing setup plans and batching the
/// drift FFTs of same-shape periodic replicas. Slots are stable handles:
/// a job keeps its slot index for life, and retired slots are recycled.
pub struct EnsembleRunner {
    slots: Vec<Option<MatrixFreeBd>>,
    cache: PlanCache,
    /// Same-shape periodic groups (slot indices), rebuilt on every
    /// admit/retire. Plans are per-driver immutable, so membership only
    /// changes at those step boundaries.
    groups: Vec<Vec<usize>>,
    /// Open-boundary slots, stepped through their own tree operator.
    solo: Vec<usize>,
    /// Per-slot drift `M f` buffers.
    drift: Vec<Vec<f64>>,
    /// Work not attributable to one job: the batched FFT passes. Everything
    /// else is in the owning driver's own snapshot.
    shared: Snapshot,
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
        EnsembleRunner {
            slots: Vec::new(),
            cache,
            groups: Vec::new(),
            solo: Vec::new(),
            drift: Vec::new(),
            shared: Snapshot::empty(),
        }
    }

    /// Admit a new job, returning its slot index. The job joins its shape
    /// group at the next step boundary; a retired slot is reused when one
    /// is free. Admission is the only point that builds plans, so a
    /// same-shape admit is a cache hit and shares the existing `Arc`.
    pub fn admit(
        &mut self,
        system: ParticleSystem,
        cfg: MatrixFreeConfig,
        seed: u64,
    ) -> Result<usize, BdError> {
        let plans = self.cache.plans_for(&system, &cfg)?;
        let bd = MatrixFreeBd::with_plans(system, cfg, seed, plans)?;
        let slot = match self.slots.iter().position(Option::is_none) {
            Some(free) => {
                self.slots[free] = Some(bd);
                free
            }
            None => {
                self.slots.push(Some(bd));
                self.drift.push(Vec::new());
                self.slots.len() - 1
            }
        };
        self.drift[slot].clear();
        self.regroup();
        Ok(slot)
    }

    /// Remove the job in `slot` (finished, failed, or cancelled) and hand
    /// its driver back — phase account included; the rest of its group
    /// keeps stepping.
    pub fn retire(&mut self, slot: usize) -> Option<MatrixFreeBd> {
        let bd = self.slots.get_mut(slot)?.take()?;
        self.drift[slot] = Vec::new();
        self.regroup();
        Some(bd)
    }

    /// Rebuild the periodic groups and the solo list from the live slots.
    /// `Arc::ptr_eq` is the grouping key: equal pointers guarantee the
    /// same FFT plan, so one batched transform serves the whole group.
    /// Slot-index iteration keeps the grouping deterministic.
    fn regroup(&mut self) {
        let mut groups: Vec<(Arc<hibd_pme::PmePlans>, Vec<usize>)> = Vec::new();
        let mut solo = Vec::new();
        for (r, bd) in self.slots.iter().enumerate() {
            let Some(bd) = bd else { continue };
            match bd.plans() {
                MobilityPlans::Pme(p) => match groups.iter_mut().find(|(g, _)| Arc::ptr_eq(g, p)) {
                    Some((_, members)) => members.push(r),
                    None => groups.push((Arc::clone(p), vec![r])),
                },
                MobilityPlans::Tree(_) => solo.push(r),
            }
        }
        self.groups = groups.into_iter().map(|(_, members)| members).collect();
        self.solo = solo;
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

    /// Sizes of the current same-shape periodic groups, in group order.
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }

    /// Number of open-boundary (ungrouped) replicas.
    #[must_use]
    pub fn solo_count(&self) -> usize {
        self.solo.len()
    }

    /// Advance every replica by one BD step; the first job failure of the
    /// step is the error. [`step_isolated`](Self::step_isolated) is the body:
    /// a failing job never unwinds through the engine, and the replicas
    /// that did not fail have completed the step.
    pub fn step(&mut self) -> Result<(), JobFailure> {
        self.step_isolated().into_iter().next().map_or(Ok(()), Err)
    }

    /// Advance every replica by one BD step with per-job fault isolation:
    /// a job that errors or panics is skipped for the rest of the step and
    /// reported, while the rest of its group (and the daemon) keep going.
    /// Failed slots must be [`retire`](EnsembleRunner::retire)d before the
    /// next step — their driver state is suspect.
    pub fn step_isolated(&mut self) -> Vec<JobFailure> {
        let n_slots = self.slots.len();
        let mut failures = Vec::new();
        let mut dead = vec![false; n_slots];

        // Window refresh per replica (operator rebuild + Brownian block):
        // the standalone code path, timed into the driver's own snapshot.
        for r in 0..n_slots {
            let Some(bd) = self.slots[r].as_mut() else {
                dead[r] = true;
                continue;
            };
            if let Err(fault) = run_guarded(|| bd.ensure_window()) {
                note_fault(r, fault, &mut dead, &mut failures);
            }
        }

        // Deterministic forces on the current configurations.
        let mut forces: Vec<Vec<f64>> = vec![Vec::new(); n_slots];
        for r in 0..n_slots {
            if dead[r] {
                continue;
            }
            let bd = self.slots[r].as_mut().expect("live");
            match run_guarded(|| Ok(bd.total_forces())) {
                Ok(f) => forces[r] = f,
                Err(fault) => note_fault(r, fault, &mut dead, &mut failures),
            }
        }
        for (r, is_dead) in dead.iter().enumerate() {
            self.drift[r].clear();
            if !*is_dead {
                let n = self.slots[r].as_ref().expect("live").system().len();
                self.drift[r].resize(3 * n, 0.0);
            }
        }

        // Drift `M f` for each same-shape periodic group: per-replica
        // real-space + spread, one shared batched FFT round trip,
        // per-replica influence + interpolation. The batch buffers are
        // *borrowed* from the group's first live operator — its Krylov
        // batch scratch already holds `3 lambda` meshes, so lockstepping
        // adds no large allocation of its own. A member that faults
        // mid-group leaves its mesh chunk untouched downstream; the batch
        // FFT is bitwise per mesh, so one member's garbage never reaches
        // another's lanes.
        for group in &self.groups {
            let live: Vec<usize> = group.iter().copied().filter(|&r| !dead[r]).collect();
            let Some(&host) = live.first() else { continue };
            let g = live.len();
            let plans = match self.slots[host].as_ref().expect("live").plans() {
                MobilityPlans::Pme(p) => Arc::clone(p),
                MobilityPlans::Tree(_) => unreachable!("groups hold periodic replicas"),
            };
            let k = plans.params().mesh_dim;
            let k3 = k * k * k;
            let s_len = k * k * (k / 2 + 1);
            let (need_mesh, need_spec) = (3 * g * k3, 3 * g * s_len);
            let (mut bmesh, mut bspec) =
                pme_op(self.slots[host].as_mut().expect("live")).take_batch_scratch(g);

            for (gi, &r) in live.iter().enumerate() {
                let chunk = &mut bmesh[gi * 3 * k3..(gi + 1) * 3 * k3];
                let bd = self.slots[r].as_mut().expect("live");
                let f = &forces[r];
                let drift = &mut self.drift[r];
                let res = run_guarded(|| {
                    let op = pme_op(bd);
                    op.real_apply(f, drift);
                    op.spread_forces(f, chunk);
                    Ok(())
                });
                if let Err(fault) = res {
                    note_fault(r, fault, &mut dead, &mut failures);
                }
            }

            let sw = telemetry::start(Phase::ForwardFft);
            plans.fft().forward_batch(&bmesh[..need_mesh], &mut bspec[..need_spec], 3 * g);
            sw.stop(&mut self.shared);

            for (gi, &r) in live.iter().enumerate() {
                if dead[r] {
                    continue;
                }
                let sw = telemetry::start(Phase::Influence);
                plans.influence().apply(&mut bspec[gi * 3 * s_len..(gi + 1) * 3 * s_len]);
                sw.stop(self.slots[r].as_mut().expect("live").snapshot_mut());
            }

            let sw = telemetry::start(Phase::InverseFft);
            plans.fft().inverse_batch(&mut bspec[..need_spec], &mut bmesh[..need_mesh], 3 * g);
            sw.stop(&mut self.shared);

            for (gi, &r) in live.iter().enumerate() {
                if dead[r] {
                    continue;
                }
                let chunk = &bmesh[gi * 3 * k3..(gi + 1) * 3 * k3];
                let bd = self.slots[r].as_mut().expect("live");
                let drift = &mut self.drift[r];
                let res = run_guarded(|| {
                    pme_op(bd).interpolate_add(chunk, drift);
                    Ok(())
                });
                if let Err(fault) = res {
                    note_fault(r, fault, &mut dead, &mut failures);
                }
            }

            pme_op(self.slots[host].as_mut().expect("live")).restore_batch_scratch(bmesh, bspec);
        }

        // Open-boundary replicas: the treecode apply is already an `O(n
        // log n)` single pass with nothing to batch across replicas.
        for &r in &self.solo {
            if dead[r] {
                continue;
            }
            let bd = self.slots[r].as_mut().expect("live");
            let f = &forces[r];
            let drift = &mut self.drift[r];
            let res = run_guarded(|| {
                let sw = telemetry::start(Phase::Stepping);
                bd.operator_mut().expect("window is current").apply(f, drift);
                sw.stop(bd.snapshot_mut());
                Ok(())
            });
            if let Err(fault) = res {
                note_fault(r, fault, &mut dead, &mut failures);
            }
        }

        // Propagate every replica.
        for r in 0..n_slots {
            if dead[r] {
                continue;
            }
            let bd = self.slots[r].as_mut().expect("live");
            let drift = &self.drift[r];
            let res = run_guarded(|| {
                bd.advance_with_drift(drift);
                Ok(())
            });
            if let Err(fault) = res {
                note_fault(r, fault, &mut dead, &mut failures);
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
    /// a `shared` entry for the batched FFT passes and the plan-cache
    /// counters. Merging these across runners goes through
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
        let mut shared = self.shared.clone();
        shared.counters[Counter::PlanCacheHits as usize] = self.cache.hits();
        shared.counters[Counter::PlanCacheMisses as usize] = self.cache.misses();
        shared.counters[Counter::PlanCacheEvictions as usize] = self.cache.evictions();
        out.push(LabeledSnapshot { label: "shared".into(), snapshot: shared });
        out
    }

    /// Resident bytes of the whole ensemble: every live replica's per-job
    /// operator state (which includes the borrowed batch scratch), each
    /// distinct shared plan set **once**, and the drift buffers. With `R`
    /// replicas of one shape this is strictly less than `R` standalone
    /// operators, which count their plans `R` times.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let mut total =
            self.drift.iter().map(|d| d.capacity() * std::mem::size_of::<f64>()).sum::<usize>();
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
