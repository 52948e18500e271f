//! In-process service tests: mixed spool to completion (bitwise vs a
//! standalone run), graceful drain + resume, cancellation, and bad-job
//! isolation. A fault *inside* a step needs a poisoned force, which no spool
//! file can carry: that case is `worker::tests` in `src/worker.rs`.
//!
//! The shutdown flag is process-global, so every test here serializes on
//! one mutex and resets the flag before starting its daemon.

use hibd_core::config::SimSpec;
use hibd_core::io::{Coordinates, XyzWriter};
use hibd_engine::EnsembleRunner;
use hibd_serve::job::JobState;
use hibd_serve::{serve, shutdown, validate_status, JobMeta, ServeSpec};
use hibd_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests: the shutdown flag they toggle is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hibd_serve_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_spec(particles: usize, seed: u64, steps: usize) -> SimSpec {
    SimSpec {
        particles,
        seed,
        steps,
        lambda_rpy: 2,
        trajectory_interval: 2,
        report_interval: 0,
        ..SimSpec::default()
    }
}

/// The trajectory bytes a standalone single-replica run of `spec` writes
/// (the exact `hibd run` frame schedule: `local % interval == 0`,
/// comment `step={global}`).
fn standalone_trajectory(spec: &SimSpec) -> Vec<u8> {
    let system = spec.build_system(spec.seed);
    let mut runner =
        EnsembleRunner::new(spec.matrix_free_config(), vec![(system, spec.seed)]).unwrap();
    for f in spec.forces() {
        runner.replica_mut(0).add_force_boxed(f);
    }
    let mut w = XyzWriter::new(Vec::new(), Coordinates::Wrapped);
    for local in 1..=spec.steps {
        runner.step().unwrap();
        if local % spec.trajectory_interval == 0 {
            w.write_frame(runner.replica(0).system(), &format!("step={local}")).unwrap();
        }
    }
    w.into_inner().unwrap()
}

fn serve_spec(root: &Path) -> ServeSpec {
    ServeSpec {
        spool: root.join("spool").to_string_lossy().into_owned(),
        output: root.join("out").to_string_lossy().into_owned(),
        workers: 1,
        queue: 8,
        poll_ms: 5,
        status: None,
        status_ms: 20,
        throttle_ms: 0,
        plan_cache: 0,
        exit_when_idle: false,
    }
}

fn spool_job(root: &Path, name: &str, spec: &SimSpec) {
    let dir = root.join("spool");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{name}.conf")), spec.to_config_text()).unwrap();
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(120), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn job_field(status: &Value, job: &str, field: &str) -> Option<f64> {
    status.get("jobs")?.get(job)?.get(field).and_then(Value::as_f64)
}

fn job_state(status: &Value, job: &str) -> Option<String> {
    status.get("jobs")?.get(job)?.get("state").and_then(Value::as_str).map(str::to_string)
}

#[test]
fn mixed_spool_completes_bitwise_and_status_validates() {
    let _guard = lock();
    shutdown::reset();
    let root = temp_root("mixed");
    // a and b share a shape (same n, phi — only the seed differs); c is a
    // different shape. One worker, so a and b share one plan set.
    let a = small_spec(14, 7, 6);
    let b = small_spec(14, 8, 6);
    let c = small_spec(24, 9, 6);
    spool_job(&root, "a", &a);
    spool_job(&root, "b", &b);
    spool_job(&root, "c", &c);

    let spec = ServeSpec { exit_when_idle: true, ..serve_spec(&root) };
    let mut lines = Vec::new();
    let report = serve(&spec, |m| lines.push(m.to_string())).unwrap();
    assert_eq!(report.done, 3, "log: {lines:#?}");
    assert_eq!(report.failed, 0);
    assert_eq!(report.cancelled, 0);
    assert!(!report.interrupted);

    // Byte-for-byte the standalone trajectories.
    for (name, job) in [("a", &a), ("b", &b), ("c", &c)] {
        let got = std::fs::read(root.join("out").join(name).join("trajectory.xyz")).unwrap();
        assert_eq!(got, standalone_trajectory(job), "trajectory of {name} diverged");
        let meta = JobMeta::load(&root.join("out").join(name)).unwrap().unwrap();
        assert_eq!(meta.state, JobState::Done);
        assert_eq!(meta.step, 6);
        assert_eq!(meta.trajectory_bytes, got.len() as u64);
        // The terminal checkpoint is present and named by the commit.
        let ckpt = meta.checkpoint.expect("terminal checkpoint");
        assert!(root.join("out").join(name).join(ckpt).exists());
    }

    // status.json validates and shows the shared shape as a cache hit.
    let doc = std::fs::read_to_string(spec.status_path()).unwrap();
    validate_status(&doc).unwrap();
    let status = json::parse(&doc).unwrap();
    let hits = status.get("plan_cache").unwrap().get("hits").unwrap().as_f64().unwrap();
    assert!(hits >= 1.0, "a and b share a shape, expected a plan-cache hit:\n{doc}");
    assert_eq!(job_state(&status, "a").as_deref(), Some("done"));
    assert!(lines.iter().any(|l| l.contains("admitted")), "{lines:#?}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn drain_parks_mid_run_and_restart_resumes_bitwise() {
    let _guard = lock();
    shutdown::reset();
    let root = temp_root("drain");
    let job = small_spec(14, 3, 60);
    spool_job(&root, "long", &job);

    let spec = serve_spec(&root);
    let status_path = spec.status_path();
    let handle = {
        let spec = spec.clone();
        std::thread::spawn(move || serve(&spec, |_| {}).unwrap())
    };
    // Let it get properly mid-run, then pull the plug.
    wait_for(
        || {
            std::fs::read_to_string(&status_path)
                .ok()
                .and_then(|doc| json::parse(&doc).ok())
                .and_then(|s| job_field(&s, "long", "step"))
                .is_some_and(|step| (4.0..=40.0).contains(&step))
        },
        "the job to reach step 4",
    );
    shutdown::request();
    let report = handle.join().unwrap();
    assert!(report.interrupted);
    assert_eq!(report.parked, 1, "the long job should be parked, not finished");

    // The parked commit is a window-boundary running checkpoint.
    let meta = JobMeta::load(&root.join("out").join("long")).unwrap().unwrap();
    assert_eq!(meta.state, JobState::Running);
    assert!(meta.step > 0 && meta.step < 60);
    assert_eq!(meta.step % job.lambda_rpy as u64, 0, "parked off a window boundary");

    // Restart: resumes from the commit and finishes, bitwise.
    shutdown::reset();
    let spec = ServeSpec { exit_when_idle: true, ..spec };
    let mut lines = Vec::new();
    let report = serve(&spec, |m| lines.push(m.to_string())).unwrap();
    assert_eq!(report.done, 1, "log: {lines:#?}");
    assert!(lines.iter().any(|l| l.contains("resumed at step")), "{lines:#?}");
    let got = std::fs::read(root.join("out").join("long").join("trajectory.xyz")).unwrap();
    assert_eq!(got, standalone_trajectory(&job), "resumed trajectory diverged");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn cancellation_and_bad_jobs_leave_the_daemon_serving() {
    let _guard = lock();
    shutdown::reset();
    let root = temp_root("cancel");
    let ok = small_spec(14, 5, 4);
    let slow = small_spec(14, 6, 500_000);
    spool_job(&root, "ok", &ok);
    spool_job(&root, "slow", &slow);
    std::fs::write(root.join("spool").join("bad.conf"), "particles = what\n").unwrap();
    // A value the parser no longer knows is one more bad job, not a panic.
    std::fs::write(root.join("spool").join("retired.conf"), "displacement = chebyshev\n").unwrap();

    let spec = serve_spec(&root);
    let status_path = spec.status_path();
    let handle = {
        let spec = spec.clone();
        std::thread::spawn(move || serve(&spec, |_| {}).unwrap())
    };
    let read_status = || {
        std::fs::read_to_string(&status_path).ok().and_then(|doc| {
            validate_status(&doc).unwrap();
            json::parse(&doc).ok()
        })
    };
    // The bad jobs fail fast; ok completes; slow keeps running through all.
    wait_for(
        || {
            read_status().is_some_and(|s| {
                job_state(&s, "bad").as_deref() == Some("failed")
                    && job_state(&s, "retired").as_deref() == Some("failed")
                    && job_state(&s, "ok").as_deref() == Some("done")
                    && job_state(&s, "slow").as_deref() == Some("running")
            })
        },
        "bad and retired failed, ok done, slow running",
    );
    // Cooperative cancellation through the spool sentinel.
    std::fs::write(root.join("spool").join("slow.cancel"), "").unwrap();
    wait_for(
        || read_status().is_some_and(|s| job_state(&s, "slow").as_deref() == Some("cancelled")),
        "slow to cancel",
    );
    shutdown::request();
    let report = handle.join().unwrap();
    assert_eq!((report.done, report.failed, report.cancelled), (1, 2, 1));

    let meta = JobMeta::load(&root.join("out").join("bad")).unwrap().unwrap();
    assert_eq!(meta.state, JobState::Failed);
    assert!(meta.error.unwrap().contains("cannot parse"), "parse error should be recorded");
    let meta = JobMeta::load(&root.join("out").join("retired")).unwrap().unwrap();
    assert_eq!(meta.state, JobState::Failed);
    let error = meta.error.unwrap();
    assert!(error.contains("unknown displacement `chebyshev`"), "{error}");
    assert!(error.contains("(block-krylov | split-ewald)"), "{error}");
    let meta = JobMeta::load(&root.join("out").join("slow")).unwrap().unwrap();
    assert_eq!(meta.state, JobState::Cancelled);
    std::fs::remove_dir_all(&root).ok();
}

/// `deadline_seconds = 1e30` is finite and positive, so it used to validate
/// — and then panic `Duration::from_secs_f64` on the worker thread, outside
/// any `catch_unwind`, taking every job on that worker with it.
#[test]
fn a_config_value_cannot_take_the_daemon_down() {
    let _guard = lock();
    shutdown::reset();
    let root = temp_root("bad_value");
    let ok = small_spec(14, 11, 6);
    spool_job(&root, "ok", &ok);
    let huge = format!("{}deadline_seconds = 1e30\n", small_spec(14, 12, 6).to_config_text());
    std::fs::write(root.join("spool").join("huge.conf"), huge).unwrap();
    std::fs::write(root.join("spool").join("nan.conf"), "particles = 14\nviscosity = nan\n")
        .unwrap();
    // A key that is gone (the open-boundary evaluation is a tuner output)
    // is one more job that fails alone, with an error saying who decides now.
    std::fs::write(root.join("spool").join("eval.conf"), "boundary = open\neval = fmm\n").unwrap();

    let spec = ServeSpec { exit_when_idle: true, ..serve_spec(&root) };
    let mut lines = Vec::new();
    let report = serve(&spec, |m| lines.push(m.to_string())).unwrap();
    assert_eq!((report.done, report.failed), (1, 3), "log: {lines:#?}");

    for (name, key) in [
        ("huge", "deadline_seconds 1000"),
        ("nan", "viscosity NaN"),
        ("eval", "chosen by hibd_treecode::tune"),
    ] {
        let meta = JobMeta::load(&root.join("out").join(name)).unwrap().unwrap();
        assert_eq!(meta.state, JobState::Failed);
        let error = meta.error.unwrap();
        assert!(error.contains(key), "{name}: {error}");
    }
    let got = std::fs::read(root.join("out").join("ok").join("trajectory.xyz")).unwrap();
    assert_eq!(got, standalone_trajectory(&ok), "the healthy job's trajectory diverged");
    std::fs::remove_dir_all(&root).ok();
}
