//! Graceful Ctrl-C for `hibd run` / `hibd ensemble`: the runner finishes
//! the in-flight step, writes a final checkpoint, and reports
//! `interrupted` — and a resume from that checkpoint reproduces the
//! uninterrupted run bit for bit (the interrupt lands on a `lambda_rpy`
//! window boundary in these tests).
//!
//! The shutdown flag is process-global, so the tests serialize on one
//! mutex and reset the flag around every run.

use hibd_cli::checkpoint::Checkpoint;
use hibd_cli::config::SimSpec;
use hibd_cli::runner::{run_ensemble, run_simulation};
use hibd_serve::shutdown;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes the tests: the shutdown flag they toggle is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hibd_interrupt_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_spec(ckpt: &Path) -> SimSpec {
    SimSpec {
        particles: 14,
        seed: 11,
        steps: 8,
        lambda_rpy: 2,
        report_interval: 1,
        checkpoint: Some(ckpt.to_string_lossy().into_owned()),
        checkpoint_interval: 100,
        ..SimSpec::default()
    }
}

#[test]
fn interrupted_run_checkpoints_and_resumes_bitwise() {
    let _guard = lock();
    shutdown::reset();
    let dir = temp_root("run");
    let ckpt = dir.join("s.hibd");
    let spec = base_spec(&ckpt);

    // Uninterrupted reference: final checkpoint at step 8.
    run_simulation(&spec, None, |_| {}).unwrap();
    let reference = std::fs::read(&ckpt).unwrap();
    std::fs::remove_file(&ckpt).unwrap();

    // Interrupt after step 4 (a window boundary) via the report stream.
    let mut lines = Vec::new();
    let report = run_simulation(&spec, None, |m| {
        if m.starts_with("step 4:") {
            shutdown::request();
        }
        lines.push(m.to_string());
    })
    .unwrap();
    assert!(report.interrupted);
    assert_eq!(report.steps, 4, "the in-flight step finishes, then the run stops");
    assert!(lines.iter().any(|l| l.contains("interrupted: 1 checkpoint(s) written at step 4")));
    assert_eq!(Checkpoint::load(&ckpt).unwrap().step, 4);

    // Resume the remaining steps: the final checkpoint is bitwise the
    // uninterrupted one.
    shutdown::reset();
    let spec2 = SimSpec { steps: 4, ..spec };
    let report = run_simulation(&spec2, Some(&ckpt), |_| {}).unwrap();
    assert!(!report.interrupted);
    assert_eq!(std::fs::read(&ckpt).unwrap(), reference, "resumed end state diverged");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_ensemble_checkpoints_every_replica() {
    let _guard = lock();
    shutdown::reset();
    let dir = temp_root("ensemble");
    let ckpt = dir.join("e.hibd");
    let spec = SimSpec { replicas: 2, ..base_spec(&ckpt) };

    let mut lines = Vec::new();
    let er = run_ensemble(&spec, |m| {
        if m.starts_with("step 2:") {
            shutdown::request();
        }
        lines.push(m.to_string());
    })
    .unwrap();
    shutdown::reset();
    assert!(er.interrupted);
    assert_eq!(er.steps, 2);
    assert!(lines.iter().any(|l| l.contains("interrupted: 2 checkpoint(s) written at step 2")));
    for r in 0..2 {
        let ck = Checkpoint::load(&dir.join(format!("e.r{r}.hibd"))).unwrap();
        assert_eq!(ck.step, 2, "replica {r} checkpoint");
    }
    std::fs::remove_dir_all(&dir).ok();
}
