//! Satellite: checkpoint save -> load -> resume must reproduce the
//! uninterrupted run exactly (byte-identical checkpoint files), for both
//! the block Krylov and split-Ewald displacement samplers and for an open
//! cluster on tuned treecode parameters (the resume re-resolves them on the
//! restored positions; both tuners are pure functions of the shape).
//!
//! Works because the driver's per-window RNG stream is derived from the
//! completed-step counter: a resume at a `lambda_rpy` boundary (checkpoint
//! intervals are chosen as multiples of `lambda_rpy`) replays the exact
//! Gaussian stream the uninterrupted run consumed.

use hibd_cli::checkpoint::Checkpoint;
use hibd_cli::config::{Displacement, SimSpec};
use hibd_cli::runner::run_simulation;
use hibd_core::system::Boundary;
use std::path::Path;

fn quiet() -> impl FnMut(&str) {
    |_msg: &str| {}
}

#[test]
fn resumed_run_matches_uninterrupted_checkpoint() {
    let dir = std::env::temp_dir().join("hibd_ckpt_roundtrip_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (mode, boundary, tag) in [
        (Displacement::BlockKrylov, Boundary::Periodic, "block"),
        (Displacement::SplitEwald, Boundary::Periodic, "pse"),
        (Displacement::BlockKrylov, Boundary::Open, "open"),
    ] {
        let ck_full = dir.join(format!("{tag}_full.hibd"));
        let ck_split = dir.join(format!("{tag}_split.hibd"));
        let base = SimSpec {
            particles: 12,
            lambda_rpy: 2,
            seed: 4242,
            displacement: mode,
            boundary,
            checkpoint_interval: 2,
            report_interval: 0,
            ..Default::default()
        };

        // Uninterrupted: 4 steps, final checkpoint at step 4.
        let full = SimSpec {
            steps: 4,
            checkpoint: Some(ck_full.to_string_lossy().into_owned()),
            ..base.clone()
        };
        run_simulation(&full, None, quiet()).unwrap();

        // Interrupted: 2 steps, then resume the checkpoint for 2 more.
        let split =
            SimSpec { steps: 2, checkpoint: Some(ck_split.to_string_lossy().into_owned()), ..base };
        run_simulation(&split, None, quiet()).unwrap();
        assert_eq!(Checkpoint::load(&ck_split).unwrap().step, 2);
        run_simulation(&split, Some(Path::new(&ck_split)), quiet()).unwrap();

        let a = std::fs::read(&ck_full).unwrap();
        let b = std::fs::read(&ck_split).unwrap();
        assert_eq!(Checkpoint::load(&ck_split).unwrap().step, 4);
        assert_eq!(a, b, "{tag}: resumed checkpoint differs from uninterrupted run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `hibd resume` continues the trajectory it resumes: `run` 4 steps and
/// `run` 2 + `resume` 2 write byte-identical trajectory files (frames and
/// the `frame=` counter land on the global step) and checkpoints.
#[test]
fn resumed_run_appends_to_the_trajectory_it_resumes() {
    let dir = std::env::temp_dir().join("hibd_resume_append_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let spec_for = |tag: &str, steps: usize| SimSpec {
        particles: 12,
        lambda_rpy: 2,
        seed: 77,
        steps,
        trajectory: Some(dir.join(format!("{tag}.xyz")).to_string_lossy().into_owned()),
        trajectory_interval: 1,
        checkpoint: Some(dir.join(format!("{tag}.hibd")).to_string_lossy().into_owned()),
        checkpoint_interval: 2,
        report_interval: 0,
        ..Default::default()
    };
    run_simulation(&spec_for("full", 4), None, quiet()).unwrap();
    let split = spec_for("split", 2);
    run_simulation(&split, None, quiet()).unwrap();
    run_simulation(&split, Some(&dir.join("split.hibd")), quiet()).unwrap();

    let full_traj = std::fs::read_to_string(dir.join("full.xyz")).unwrap();
    assert_eq!(full_traj.matches("frame=").count(), 4);
    assert!(full_traj.contains("frame=3 step=4"));
    assert_eq!(full_traj, std::fs::read_to_string(dir.join("split.xyz")).unwrap());
    assert_eq!(
        std::fs::read(dir.join("full.hibd")).unwrap(),
        std::fs::read(dir.join("split.hibd")).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
