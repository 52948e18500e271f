//! The daemon main loop: spool watching, admission, routing, status, drain.
//!
//! The server thread owns the spool scan and all admission decisions; the
//! heavy lifting happens on the worker threads ([`crate::worker`]). Shape
//! resolution runs once here, on the server thread, and the resolved
//! parameters are pinned into the job's `MatrixFreeConfig` — so the worker
//! never re-runs the tuner and every same-shape job routes to the same
//! worker, where the runner's plan cache turns its admission into a hit.

use crate::job::{JobMeta, JobState};
use crate::output::atomic_write;
use crate::spec::ServeSpec;
use crate::spool;
use crate::status::{render_status, JobView, ServiceState, WorkerView};
use crate::worker::{AdmitJob, Command, Worker};
use hibd_core::checkpoint::Checkpoint;
use hibd_core::config::{Algorithm, SimSpec};
use hibd_core::mf_bd::resolve_shape;
use hibd_engine::ShapeKey;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exit summary of a daemon run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    pub done: usize,
    pub failed: usize,
    pub cancelled: usize,
    /// Jobs parked mid-run by a graceful drain (resume on restart).
    pub parked: usize,
    /// The daemon exited because of SIGINT/SIGTERM rather than idleness.
    pub interrupted: bool,
}

/// Server-side tracking of each spooled name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tracked {
    /// Waiting for an admission slot.
    Queued,
    /// Handed to a worker.
    Sent,
    /// Done / failed / cancelled; never re-admitted.
    Terminal,
}

struct Server {
    spec: ServeSpec,
    spool_dir: PathBuf,
    out_root: PathBuf,
    state: Arc<Mutex<ServiceState>>,
    txs: Vec<Sender<Command>>,
    tracked: BTreeMap<String, Tracked>,
    /// Job name → owning worker.
    owner: BTreeMap<String, usize>,
    /// Shape → worker affinity (same shape, same runner, shared plans).
    routing: BTreeMap<ShapeKey, usize>,
    started: Instant,
}

/// Run the daemon until drained. `log` receives progress lines from the
/// server and (forwarded) from the workers.
pub fn serve(
    spec: &ServeSpec,
    mut log: impl FnMut(&str),
) -> Result<ServeReport, Box<dyn std::error::Error>> {
    spec.validate()?;
    let spool_dir = PathBuf::from(&spec.spool);
    let out_root = PathBuf::from(&spec.output);
    std::fs::create_dir_all(&spool_dir)?;
    std::fs::create_dir_all(&out_root)?;
    let status_path = spec.status_path();
    if let Some(parent) = status_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }

    let state = Arc::new(Mutex::new(ServiceState {
        workers: vec![WorkerView::default(); spec.workers],
        ..ServiceState::default()
    }));
    let mut txs = Vec::with_capacity(spec.workers);
    let mut handles = Vec::with_capacity(spec.workers);
    for w in 0..spec.workers {
        let (tx, rx) = mpsc::channel();
        let (plan_cache, throttle_ms, poll_ms) = (spec.plan_cache, spec.throttle_ms, spec.poll_ms);
        let state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name(format!("hibd-serve-w{w}"))
            .spawn(move || Worker::run(w, plan_cache, throttle_ms, poll_ms, rx, state))?;
        txs.push(tx);
        handles.push(handle);
    }
    log(&format!(
        "serving spool {} with {} worker(s), queue bound {}",
        spool_dir.display(),
        spec.workers,
        spec.queue
    ));

    let mut server = Server {
        spec: spec.clone(),
        spool_dir,
        out_root,
        state,
        txs,
        tracked: BTreeMap::new(),
        owner: BTreeMap::new(),
        routing: BTreeMap::new(),
        started: Instant::now(),
    };

    let mut draining = false;
    let mut last_status: Option<Instant> = None;
    loop {
        server.forward_logs(&mut log);
        server.reconcile();
        let scan = spool::scan(&server.spool_dir)?;
        if !draining {
            server.admissions(&scan, &mut log);
            server.cancellations(&scan, &mut log);
        }

        if last_status.is_none_or(|t| t.elapsed() >= Duration::from_millis(spec.status_ms)) {
            server.write_status(&status_path)?;
            last_status = Some(Instant::now());
        }

        if !draining && crate::shutdown::requested() {
            draining = true;
            server.drain(&mut log, "shutdown requested");
        }
        if !draining && spec.exit_when_idle && server.idle(&scan) {
            draining = true;
            server.drain(&mut log, "spool idle");
        }
        if draining && handles.iter().all(std::thread::JoinHandle::is_finished) {
            break;
        }
        std::thread::sleep(Duration::from_millis(spec.poll_ms));
    }

    server.txs.clear();
    for handle in handles {
        handle.join().map_err(|_| "a worker thread panicked")?;
    }
    server.forward_logs(&mut log);
    server.write_status(&status_path)?;

    let state = server.state.lock().expect("service state mutex");
    let report = ServeReport {
        done: state.count(JobState::Done),
        failed: state.count(JobState::Failed),
        cancelled: state.count(JobState::Cancelled),
        parked: state.count(JobState::Running) + state.count(JobState::Queued),
        interrupted: crate::shutdown::requested(),
    };
    log(&format!(
        "drained: {} done, {} failed, {} cancelled, {} parked",
        report.done, report.failed, report.cancelled, report.parked
    ));
    Ok(report)
}

impl Server {
    fn forward_logs(&self, log: &mut impl FnMut(&str)) {
        let lines: Vec<String> = {
            let mut state = self.state.lock().expect("service state mutex");
            state.log.drain(..).collect()
        };
        for line in lines {
            log(&line);
        }
    }

    /// Fold worker-reported terminal states back into the tracking map
    /// (a parked job stays `running` in the registry and stays `Sent`, so
    /// a drained daemon leaves it spooled for the next one).
    fn reconcile(&mut self) {
        let state = self.state.lock().expect("service state mutex");
        for (name, tracked) in &mut self.tracked {
            if *tracked == Tracked::Sent {
                if let Some(view) = state.jobs.get(name) {
                    if view.state.is_terminal() {
                        *tracked = Tracked::Terminal;
                    }
                }
            }
        }
    }

    /// Scan pass 1: admit new spool files (bounded by `queue`).
    fn admissions(&mut self, scan: &spool::SpoolScan, log: &mut impl FnMut(&str)) {
        for (name, path) in &scan.jobs {
            if self.tracked.contains_key(name) && self.tracked[name] != Tracked::Queued {
                continue;
            }
            let dir = self.out_root.join(name);
            // A restarted daemon finds terminal jobs by their committed record.
            match JobMeta::load(&dir) {
                Ok(Some(meta)) if meta.state.is_terminal() => {
                    self.tracked.insert(name.clone(), Tracked::Terminal);
                    self.set_view(name, |v| {
                        v.state = meta.state;
                        v.step = meta.step;
                        v.steps = meta.steps;
                        v.error = meta.error.clone();
                    });
                    continue;
                }
                Ok(_) => {}
                Err(e) => {
                    self.fail_unadmitted(name, &dir, &format!("corrupt meta.json: {e}"), log);
                    continue;
                }
            }
            // Cancelled before ever being admitted: commit the record directly.
            if scan.cancels.iter().any(|c| c == name) {
                self.cancel_unadmitted(name, &dir, log);
                continue;
            }
            let in_flight = self.state.lock().expect("service state mutex").in_flight();
            if in_flight >= self.spec.queue {
                if self.tracked.insert(name.clone(), Tracked::Queued).is_none() {
                    self.set_view(name, |v| v.state = JobState::Queued);
                    log(&format!("{name}: queued (admission bound {} reached)", self.spec.queue));
                }
                continue;
            }
            match self.prepare(name, path, dir.clone()) {
                Ok((job, key)) => {
                    let worker = self.route(key);
                    let (step, steps) = (job.start_step, job.spec.steps as u64);
                    let resumed =
                        if step > 0 { format!(" (resumed at step {step})") } else { String::new() };
                    log(&format!("{name}: admitted to worker {worker}{resumed}"));
                    self.set_view(name, |v| {
                        v.state = JobState::Running;
                        v.step = step;
                        v.steps = steps;
                        v.worker = Some(worker);
                    });
                    self.tracked.insert(name.clone(), Tracked::Sent);
                    self.owner.insert(name.clone(), worker);
                    // A closed channel means the worker is gone (drain race);
                    // the job stays spooled for the next daemon.
                    self.txs[worker].send(Command::Admit(Box::new(job))).ok();
                }
                Err(e) => self.fail_unadmitted(name, &dir, &e, log),
            }
        }
    }

    /// Scan pass 2: forward `.cancel` sentinels for in-flight jobs.
    fn cancellations(&mut self, scan: &spool::SpoolScan, log: &mut impl FnMut(&str)) {
        for name in &scan.cancels {
            match self.tracked.get(name) {
                Some(Tracked::Sent) => {
                    let running = {
                        let state = self.state.lock().expect("service state mutex");
                        state.jobs.get(name).is_some_and(|v| v.state == JobState::Running)
                    };
                    if running {
                        if let Some(&w) = self.owner.get(name) {
                            self.txs[w].send(Command::Cancel(name.clone())).ok();
                        }
                    }
                }
                Some(Tracked::Queued) => {
                    let dir = self.out_root.join(name);
                    self.cancel_unadmitted(name, &dir, log);
                }
                _ => {}
            }
        }
    }

    /// Parse, validate, and prepare one job for hand-over: build or restore
    /// the system, resolve the operator shape once, pin it into the config.
    fn prepare(
        &mut self,
        name: &str,
        path: &Path,
        dir: PathBuf,
    ) -> Result<(AdmitJob, ShapeKey), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let sim = SimSpec::parse(&text).map_err(|e| e.to_string())?;
        if sim.algorithm != Algorithm::MatrixFree {
            return Err("serve jobs share matrix-free operator plans; \
                 set algorithm = matrix-free"
                .into());
        }
        if sim.replicas != 1 {
            return Err(format!(
                "spool jobs are single-trajectory (replicas = {}); submit replicas as \
                 separate job files — the service shares plans between same-shape jobs anyway",
                sim.replicas
            ));
        }

        let meta = JobMeta::load(&dir)?;
        let (system, start_step, traj_bytes) = match &meta {
            Some(m) if m.state == JobState::Running && m.checkpoint.is_some() => {
                let ckpt = m.checkpoint.as_deref().expect("checked above");
                let ck = Checkpoint::load(&dir.join(ckpt))
                    .map_err(|e| format!("loading {ckpt}: {e}"))?;
                if ck.step != m.step {
                    return Err(format!(
                        "inconsistent commit: meta.json step {} vs checkpoint step {}",
                        m.step, ck.step
                    ));
                }
                (ck.restore(), m.step, m.trajectory_bytes)
            }
            _ => (sim.build_system(sim.seed), 0, 0),
        };

        let mut cfg = sim.matrix_free_config();
        let shape = resolve_shape(&system, &cfg).map_err(|e| e.to_string())?;
        cfg.pme = shape.pme;
        if shape.tree.is_some() {
            cfg.tree = shape.tree;
        }
        let key = match (&shape.pme, &shape.tree) {
            (Some(p), _) => ShapeKey::periodic(p),
            (_, Some(t)) => ShapeKey::open(t),
            _ => return Err("shape resolution yielded no backend".into()),
        };
        let job = AdmitJob {
            name: name.to_string(),
            spec: sim,
            cfg,
            system,
            start_step,
            traj_bytes,
            dir,
        };
        Ok((job, key))
    }

    /// Worker routing: shape affinity first (so same-shape jobs share one
    /// runner's plans), least-loaded otherwise.
    fn route(&mut self, key: ShapeKey) -> usize {
        if let Some(&w) = self.routing.get(&key) {
            return w;
        }
        let mut load = vec![0usize; self.txs.len()];
        let state = self.state.lock().expect("service state mutex");
        for view in state.jobs.values() {
            if view.state == JobState::Running {
                if let Some(w) = view.worker {
                    load[w] += 1;
                }
            }
        }
        drop(state);
        let w = (0..load.len()).min_by_key(|&w| (load[w], w)).unwrap_or(0);
        self.routing.insert(key, w);
        w
    }

    fn set_view(&self, name: &str, f: impl FnOnce(&mut JobView)) {
        let mut state = self.state.lock().expect("service state mutex");
        let view = state.jobs.entry(name.to_string()).or_insert_with(|| JobView::queued(0));
        f(view);
    }

    /// Commit a terminal record for a job that never reached a worker.
    fn terminal_unadmitted(
        &mut self,
        name: &str,
        dir: &Path,
        state: JobState,
        error: Option<String>,
    ) {
        std::fs::create_dir_all(dir).ok();
        let meta = JobMeta {
            name: name.to_string(),
            state,
            step: 0,
            steps: 0,
            checkpoint: None,
            trajectory_bytes: 0,
            error: error.clone(),
        };
        meta.commit(dir).ok();
        self.tracked.insert(name.to_string(), Tracked::Terminal);
        self.set_view(name, |v| {
            v.state = state;
            v.error = error;
        });
    }

    fn fail_unadmitted(&mut self, name: &str, dir: &Path, error: &str, log: &mut impl FnMut(&str)) {
        log(&format!("{name}: rejected ({error})"));
        self.terminal_unadmitted(name, dir, JobState::Failed, Some(error.to_string()));
    }

    fn cancel_unadmitted(&mut self, name: &str, dir: &Path, log: &mut impl FnMut(&str)) {
        log(&format!("{name}: cancelled before admission"));
        self.terminal_unadmitted(
            name,
            dir,
            JobState::Cancelled,
            Some("cancelled by sentinel".to_string()),
        );
    }

    /// Idle = every spooled job is tracked and terminal, nothing in flight.
    fn idle(&self, scan: &spool::SpoolScan) -> bool {
        let all_terminal =
            scan.jobs.keys().all(|name| self.tracked.get(name) == Some(&Tracked::Terminal));
        let state = self.state.lock().expect("service state mutex");
        all_terminal && state.in_flight() == 0 && state.count(JobState::Queued) == 0
    }

    fn drain(&self, log: &mut impl FnMut(&str), why: &str) {
        log(&format!("draining workers ({why})"));
        self.state.lock().expect("service state mutex").draining = true;
        for tx in &self.txs {
            tx.send(Command::Drain).ok();
        }
    }

    fn write_status(&self, path: &Path) -> std::io::Result<()> {
        let doc = {
            let state = self.state.lock().expect("service state mutex");
            render_status(&state, self.spec.queue, self.started.elapsed().as_secs_f64())
        };
        atomic_write(path, doc.as_bytes())
    }
}
