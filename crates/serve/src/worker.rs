//! Worker threads: each owns one [`EnsembleRunner`] and advances every
//! admitted job by one step per round.
//!
//! The server routes same-shape jobs to the same worker, so they share one
//! plan `Arc` from that worker's cache (an admit starts stepping at the
//! next round, a finished job retires without stalling the rest). All file
//! output follows the `meta.json` commit protocol in [`crate::job`]; faults
//! are isolated per job through [`EnsembleRunner::step_isolated`].

use crate::job::{
    aligned_checkpoint_interval, checkpoint_name, trajectory_path, JobMeta, JobState,
};
use crate::output::{atomic_write, CountingFile};
use crate::status::{JobView, ServiceState, WorkerView};
use hibd_core::checkpoint::Checkpoint;
use hibd_core::config::SimSpec;
use hibd_core::io::{Coordinates, XyzWriter};
use hibd_core::mf_bd::MatrixFreeConfig;
use hibd_core::system::ParticleSystem;
use hibd_engine::{EnsembleRunner, PlanCache};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server → worker messages.
pub enum Command {
    /// Admit a prepared job (system built / checkpoint restored, shape
    /// resolved and pinned in `cfg` by the server).
    Admit(Box<AdmitJob>),
    /// Cooperatively cancel a job by name at the next step boundary.
    Cancel(String),
    /// Finish every job's current window, checkpoint, and exit.
    Drain,
}

/// Everything a worker needs to take over a job.
pub struct AdmitJob {
    pub name: String,
    pub spec: SimSpec,
    /// Resolved config: the server pins the backend parameters so
    /// admission never re-runs the tuner and same-shape jobs share plans.
    pub cfg: MatrixFreeConfig,
    /// Initial (or checkpoint-restored) configuration.
    pub system: ParticleSystem,
    /// Completed steps at hand-over (0 fresh, the committed step on resume;
    /// always a `lambda_RPY` window boundary so the replay is bitwise).
    pub start_step: u64,
    /// Committed trajectory bytes (resume truncates to this).
    pub traj_bytes: u64,
    /// Job output directory.
    pub dir: PathBuf,
}

/// Worker-side bookkeeping for one live job.
struct ActiveJob {
    name: String,
    dir: PathBuf,
    steps: u64,
    step: u64,
    lambda: u64,
    ckpt_every: u64,
    traj_interval: u64,
    writer: XyzWriter<CountingFile>,
    committed_ckpt: Option<String>,
    deadline: Option<Duration>,
    admitted: Instant,
    cancel: bool,
}

/// One worker thread: drain commands, step, commit output, repeat.
pub struct Worker {
    index: usize,
    runner: EnsembleRunner,
    jobs: BTreeMap<usize, ActiveJob>,
    rx: Receiver<Command>,
    state: Arc<Mutex<ServiceState>>,
    throttle: Duration,
    poll: Duration,
    draining: bool,
}

impl Worker {
    /// Thread body: runs until drained (and told to) or the channel closes.
    pub fn run(
        index: usize,
        plan_cache: usize,
        throttle_ms: u64,
        poll_ms: u64,
        rx: Receiver<Command>,
        state: Arc<Mutex<ServiceState>>,
    ) {
        let cache =
            if plan_cache == 0 { PlanCache::new() } else { PlanCache::with_capacity(plan_cache) };
        let mut worker = Worker {
            index,
            runner: EnsembleRunner::with_cache(cache),
            jobs: BTreeMap::new(),
            rx,
            state,
            throttle: Duration::from_millis(throttle_ms),
            poll: Duration::from_millis(poll_ms.max(1)),
            draining: false,
        };
        worker.serve();
    }

    fn serve(&mut self) {
        loop {
            while let Ok(cmd) = self.rx.try_recv() {
                self.handle(cmd);
            }
            if crate::shutdown::requested() {
                self.draining = true;
            }
            // Pre-step pass: everything that must happen at a step boundary
            // (budget, cancellation, deadline, drain parking).
            self.boundary_pass();
            if self.runner.is_empty() {
                self.publish();
                if self.draining {
                    return;
                }
                // Idle: block on the channel so an empty worker costs nothing.
                match self.rx.recv_timeout(self.poll) {
                    Ok(cmd) => self.handle(cmd),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                continue;
            }

            let failures = self.runner.step_isolated();
            // A faulted driver is somewhere inside a step: its in-memory
            // state must not become a checkpoint.
            for f in &failures {
                self.finalize(f.slot, JobState::Failed, Some(f.fault.to_string()), false);
            }
            let survivors: Vec<usize> =
                self.jobs.keys().copied().filter(|s| self.runner.slot(*s).is_some()).collect();
            for slot in survivors {
                self.post_step(slot);
            }
            self.publish();
            if !self.throttle.is_zero() {
                std::thread::sleep(self.throttle);
            }
        }
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Admit(job) => self.admit(*job),
            Command::Cancel(name) => {
                for job in self.jobs.values_mut() {
                    if job.name == name {
                        job.cancel = true;
                    }
                }
            }
            Command::Drain => self.draining = true,
        }
    }

    fn log(&self, message: &str) {
        let mut state = self.state.lock().expect("service state mutex");
        state.log.push(format!("worker {}: {message}", self.index));
    }

    fn update_view(&self, name: &str, f: impl FnOnce(&mut JobView)) {
        let mut state = self.state.lock().expect("service state mutex");
        let view = state.jobs.entry(name.to_string()).or_insert_with(|| JobView::queued(0));
        f(view);
    }

    fn admit(&mut self, job: AdmitJob) {
        let name = job.name.clone();
        match self.try_admit(job) {
            Ok(slot) => {
                let job = &self.jobs[&slot];
                let (step, steps) = (job.step, job.steps);
                self.update_view(&name, |v| {
                    v.state = JobState::Running;
                    v.step = step;
                    v.steps = steps;
                });
                self.log(&format!("admitted {name} at step {step}/{steps} (slot {slot})"));
            }
            Err(e) => {
                self.log(&format!("admission of {name} failed: {e}"));
                self.update_view(&name, |v| {
                    v.state = JobState::Failed;
                    v.error = Some(e.clone());
                });
            }
        }
    }

    fn try_admit(&mut self, job: AdmitJob) -> Result<usize, String> {
        std::fs::create_dir_all(&job.dir).map_err(|e| format!("creating job dir: {e}"))?;
        let spec = &job.spec;
        // `SimSpec::validate` bounds it, but a panic here would take the
        // whole worker down: fail this job instead.
        let deadline = spec
            .deadline_seconds
            .map(Duration::try_from_secs_f64)
            .transpose()
            .map_err(|e| format!("deadline_seconds: {e}"))?;
        let traj_interval = spec.trajectory_interval.max(1) as u64;
        let sink = CountingFile::resume(&trajectory_path(&job.dir), job.traj_bytes)
            .map_err(|e| format!("opening trajectory: {e}"))?;
        let writer = XyzWriter::new(sink, Coordinates::Wrapped)
            .with_frame_offset((job.start_step / traj_interval) as usize);

        let slot = self
            .runner
            .admit(job.system, job.cfg, spec.seed)
            .map_err(|e| format!("building the driver: {e}"))?;
        let bd = self.runner.slot_mut(slot).expect("freshly admitted slot");
        // Window-seeded RNG: resuming the completed-step counter at a
        // window boundary replays the uninterrupted run bit for bit.
        bd.set_completed_steps(job.start_step);
        for force in spec.forces() {
            bd.add_force_boxed(force);
        }

        let lambda = spec.lambda_rpy.max(1) as u64;
        let active = ActiveJob {
            name: job.name,
            dir: job.dir,
            steps: spec.steps as u64,
            step: job.start_step,
            lambda,
            ckpt_every: aligned_checkpoint_interval(spec.checkpoint_interval, spec.lambda_rpy),
            traj_interval,
            writer,
            committed_ckpt: None,
            deadline,
            admitted: Instant::now(),
            cancel: false,
        };
        let meta = JobMeta {
            name: active.name.clone(),
            state: JobState::Running,
            step: active.step,
            steps: active.steps,
            checkpoint: None,
            trajectory_bytes: job.traj_bytes,
            error: None,
        };
        // Re-commit the record at admission so a resumed job's meta is
        // refreshed even if it never reaches another checkpoint. The
        // resumed-from checkpoint (if any) stays on disk and stays named:
        let mut meta = meta;
        if active.step > 0 {
            let ckpt = checkpoint_name(active.step);
            if active.dir.join(&ckpt).exists() {
                meta.checkpoint = Some(ckpt);
            }
        }
        meta.commit(&active.dir).map_err(|e| format!("committing meta.json: {e}"))?;
        let committed = meta.checkpoint;
        self.jobs.insert(slot, ActiveJob { committed_ckpt: committed, ..active });
        Ok(slot)
    }

    /// Step-boundary housekeeping for every live job: budget, cancellation,
    /// wall-clock deadline, and drain parking (window boundaries only).
    fn boundary_pass(&mut self) {
        let slots: Vec<usize> = self.jobs.keys().copied().collect();
        for slot in slots {
            let job = &self.jobs[&slot];
            if job.step >= job.steps {
                self.finalize(slot, JobState::Done, None, true);
            } else if job.cancel {
                self.finalize(
                    slot,
                    JobState::Cancelled,
                    Some("cancelled by sentinel".into()),
                    true,
                );
            } else if job.deadline.is_some_and(|d| job.admitted.elapsed() > d) {
                let msg = format!("deadline exceeded at step {}/{}", job.step, job.steps);
                self.finalize(slot, JobState::Failed, Some(msg), true);
            } else if self.draining && job.step.is_multiple_of(job.lambda) {
                self.park(slot);
            }
        }
    }

    /// One completed step for a surviving job: stream the frame, finish or
    /// commit a periodic checkpoint.
    fn post_step(&mut self, slot: usize) {
        let job = self.jobs.get_mut(&slot).expect("live job");
        job.step += 1;
        if job.step.is_multiple_of(job.traj_interval) {
            let system = self.runner.slot(slot).expect("live slot").system();
            let comment = format!("step={}", job.step);
            if let Err(e) = job.writer.write_frame(system, &comment) {
                let msg = format!("trajectory write failed: {e}");
                self.finalize(slot, JobState::Failed, Some(msg), true);
                return;
            }
        }
        let job = &self.jobs[&slot];
        if job.step >= job.steps {
            self.finalize(slot, JobState::Done, None, true);
        } else if job.step.is_multiple_of(job.ckpt_every) {
            if let Err(e) = self.commit(slot, JobState::Running, None, true) {
                let msg = format!("checkpoint commit failed: {e}");
                self.finalize(slot, JobState::Failed, Some(msg), true);
            }
        }
    }

    /// Flush the trajectory, write `ckpt-<step>.hibd` when `capture` is set,
    /// commit `meta.json`, and unlink the superseded checkpoint (in that
    /// order — see [`crate::job`] for why a kill anywhere in between stays
    /// consistent). Without `capture` the record keeps naming the last
    /// committed checkpoint.
    fn commit(
        &mut self,
        slot: usize,
        state: JobState,
        error: Option<String>,
        capture: bool,
    ) -> std::io::Result<()> {
        let job = self.jobs.get_mut(&slot).expect("live job");
        job.writer.sink_mut().flush()?;
        let checkpoint = if capture {
            let system = self.runner.slot(slot).expect("live slot").system();
            let ckpt = checkpoint_name(job.step);
            atomic_write(&job.dir.join(&ckpt), &Checkpoint::capture(system, job.step).encode())?;
            Some(ckpt)
        } else {
            job.committed_ckpt.clone()
        };
        let meta = JobMeta {
            name: job.name.clone(),
            state,
            step: job.step,
            steps: job.steps,
            checkpoint: checkpoint.clone(),
            trajectory_bytes: job.writer.sink_mut().bytes(),
            error,
        };
        meta.commit(&job.dir)?;
        if let Some(old) = std::mem::replace(&mut job.committed_ckpt, checkpoint) {
            if Some(&old) != job.committed_ckpt.as_ref() {
                std::fs::remove_file(job.dir.join(old)).ok();
            }
        }
        Ok(())
    }

    /// Retire `slot` into a terminal state: terminal commit (with a final
    /// checkpoint of the in-memory state only when `at_boundary` — a job
    /// that faulted inside a step keeps its last committed one), registry
    /// update, slot freed for the next admission.
    fn finalize(&mut self, slot: usize, state: JobState, error: Option<String>, at_boundary: bool) {
        let snapshot = self.runner.job_snapshot(slot);
        let commit = self.commit(slot, state, error.clone(), at_boundary);
        self.runner.retire(slot);
        let job = self.jobs.remove(&slot).expect("live job");
        if let Err(e) = commit {
            self.log(&format!("{}: terminal commit failed: {e}", job.name));
        }
        let step = job.step;
        self.update_view(&job.name, |v| {
            v.state = state;
            v.step = step;
            v.error = error.clone();
            v.snapshot = snapshot;
        });
        let detail = error.as_deref().unwrap_or("complete");
        self.log(&format!("{} -> {} at step {step} ({detail})", job.name, state.name()));
    }

    /// Drain parking: commit a window-boundary checkpoint with the job left
    /// in `running` state, then release the slot. A restarted daemon
    /// re-admits it from exactly this point, bitwise.
    fn park(&mut self, slot: usize) {
        let snapshot = self.runner.job_snapshot(slot);
        let commit = self.commit(slot, JobState::Running, None, true);
        self.runner.retire(slot);
        let job = self.jobs.remove(&slot).expect("live job");
        if let Err(e) = commit {
            self.log(&format!("{}: drain checkpoint failed: {e}", job.name));
        }
        let step = job.step;
        self.update_view(&job.name, |v| {
            v.state = JobState::Running;
            v.step = step;
            v.snapshot = snapshot;
        });
        self.log(&format!("parked {} at step {step} for shutdown", job.name));
    }

    /// Publish per-job progress and the worker view into the registry.
    fn publish(&self) {
        let mut views: Vec<(String, u64, hibd_telemetry::Snapshot)> = Vec::new();
        for (slot, job) in &self.jobs {
            views.push((job.name.clone(), job.step, self.runner.job_snapshot(*slot)));
        }
        let cache = self.runner.cache();
        let worker_view = WorkerView {
            jobs: self.runner.len(),
            cache_shapes: cache.len(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_capacity: cache.capacity(),
            plan_bytes: cache.plans_memory_bytes(),
        };
        let mut state = self.state.lock().expect("service state mutex");
        for (name, step, snapshot) in views {
            if let Some(view) = state.jobs.get_mut(&name) {
                view.step = step;
                view.snapshot = snapshot;
            }
        }
        state.workers[self.index] = worker_view;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_core::forces::Force;
    use hibd_core::MatrixFreeBd;

    /// Panics on its `trigger`-th evaluation (one per step) — a fault in the
    /// middle of a step that no config file can express, which is why this
    /// case sits here with the worker's runner in reach and not beside the
    /// spool-driven cases in `tests/service.rs`.
    struct PanicAt {
        calls: u64,
        trigger: u64,
    }

    impl Force for PanicAt {
        fn accumulate(&mut self, _system: &ParticleSystem, _f: &mut [f64]) {
            self.calls += 1;
            assert!(self.calls < self.trigger, "poison pill");
        }

        fn name(&self) -> &'static str {
            "panic-at"
        }
    }

    #[test]
    fn step_fault_keeps_the_last_committed_checkpoint() {
        const COMMIT: u64 = 2;
        let dir = std::env::temp_dir().join("hibd_serve_worker_fault");
        std::fs::remove_dir_all(&dir).ok();
        let spec = SimSpec {
            particles: 14,
            seed: 7,
            steps: 20,
            lambda_rpy: 2,
            trajectory_interval: 2,
            checkpoint_interval: COMMIT as usize,
            report_interval: 0,
            ..SimSpec::default()
        };
        let cfg = spec.matrix_free_config();
        let system = spec.build_system(spec.seed);

        // What the step-`COMMIT` commit must have written, and must still hold.
        let mut alone = MatrixFreeBd::new(system.clone(), cfg, spec.seed).unwrap();
        for force in spec.forces() {
            alone.add_force_boxed(force);
        }
        alone.run(COMMIT as usize).unwrap();
        let committed = Checkpoint::capture(alone.system(), COMMIT).encode();

        let (tx, rx) = std::sync::mpsc::channel();
        let state = Arc::new(Mutex::new(ServiceState {
            workers: vec![WorkerView::default()],
            ..ServiceState::default()
        }));
        let mut worker = Worker {
            index: 0,
            runner: EnsembleRunner::with_cache(PlanCache::new()),
            jobs: BTreeMap::new(),
            rx,
            state: Arc::clone(&state),
            throttle: Duration::ZERO,
            poll: Duration::from_millis(1),
            draining: false,
        };
        worker.admit(AdmitJob {
            name: "poisoned".into(),
            spec,
            cfg,
            system,
            start_step: 0,
            traj_bytes: 0,
            dir: dir.clone(),
        });
        // Steps 1..=3 complete (checkpoint at 2); the fourth faults with one
        // uncommitted step in memory.
        let poison = PanicAt { calls: 0, trigger: COMMIT + 2 };
        worker.runner.slot_mut(0).expect("admitted").add_force(poison);
        drop(tx); // the idle worker sees the closed channel and returns
        worker.serve();

        let meta = JobMeta::load(&dir).unwrap().unwrap();
        assert_eq!(meta.state, JobState::Failed);
        assert!(meta.error.unwrap().contains("poison pill"));
        assert_eq!(meta.step, COMMIT + 1, "the record says how far the job got");
        assert_eq!(meta.checkpoint, Some(checkpoint_name(COMMIT)), "not the mid-step state");
        assert_eq!(std::fs::read(dir.join(checkpoint_name(COMMIT))).unwrap(), committed);
        assert!(!dir.join(checkpoint_name(COMMIT + 1)).exists());
        assert_eq!(state.lock().unwrap().jobs["poisoned"].state, JobState::Failed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
