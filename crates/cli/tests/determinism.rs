//! Satellite: the same config and seed must produce bitwise-identical
//! trajectories across independent process-level runs, for both the block
//! Krylov and the split-Ewald displacement samplers.

use hibd_cli::config::{Displacement, SimSpec};
use hibd_cli::runner::{run_ensemble, run_simulation};
use std::path::Path;

fn quiet() -> impl FnMut(&str) {
    |_msg: &str| {}
}

fn run_to_file(spec: &SimSpec, dir: &Path, name: &str) -> Vec<u8> {
    let traj = dir.join(name);
    let spec = SimSpec {
        trajectory: Some(traj.to_string_lossy().into_owned()),
        trajectory_interval: 1,
        ..spec.clone()
    };
    run_simulation(&spec, None, quiet()).unwrap();
    std::fs::read(&traj).unwrap()
}

#[test]
fn identical_runs_write_identical_trajectories() {
    let dir = std::env::temp_dir().join("hibd_determinism_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (mode, tag) in [(Displacement::BlockKrylov, "block"), (Displacement::SplitEwald, "pse")] {
        let spec = SimSpec {
            particles: 12,
            steps: 5,
            lambda_rpy: 2,
            seed: 777,
            displacement: mode,
            report_interval: 0,
            ..Default::default()
        };
        let a = run_to_file(&spec, &dir, &format!("{tag}_a.xyz"));
        let b = run_to_file(&spec, &dir, &format!("{tag}_b.xyz"));
        assert!(!a.is_empty());
        assert_eq!(a, b, "{tag}: two identical runs diverged");

        // A different seed must actually change the trajectory.
        let other = SimSpec { seed: 778, ..spec.clone() };
        let c = run_to_file(&other, &dir, &format!("{tag}_c.xyz"));
        assert_ne!(a, c, "{tag}: seed had no effect");

        // The shape log names the sampler's split for split-ewald only, and
        // it is the drift operator's: same alpha, same r_max.
        let mut lines = Vec::new();
        run_simulation(&SimSpec { steps: 0, ..spec }, None, |m: &str| lines.push(m.to_string()))
            .unwrap();
        let drift = lines.iter().find(|l| l.starts_with("matrix-free: K")).expect("shape line");
        let field = |line: &str, key: &str| {
            let rest =
                &line[line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len()..];
            rest.split([' ', ',']).next().unwrap().to_string()
        };
        match lines.iter().find(|l| l.starts_with("split-ewald:")) {
            Some(pse) => {
                assert_eq!(mode, Displacement::SplitEwald, "{pse}");
                assert_eq!(field(pse, "xi = "), field(drift, "alpha = "), "{pse} / {drift}");
                assert_eq!(field(pse, "r_max = "), field(drift, "r_max = "), "{pse} / {drift}");
                assert!(pse.contains("blocks/row"), "{pse}");
            }
            None => assert_eq!(mode, Displacement::BlockKrylov),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The open-boundary shape line — which evaluation the tuner chose and the
/// three modelled prices it weighed — is a pure function of the shape: the
/// real binary prints the same line on one pool thread and on two, and it is
/// the direct sum at the ladder's open shape.
#[test]
fn open_shape_log_is_identical_at_every_thread_count() {
    let dir = std::env::temp_dir().join("hibd_open_shape_log_test");
    std::fs::create_dir_all(&dir).unwrap();
    let conf = dir.join("open.conf");
    std::fs::write(
        &conf,
        "particles = 2000\nvolume_fraction = 0.1\nboundary = open\nsteps = 0\nreport_interval = 0\n",
    )
    .unwrap();
    let shape_line = |threads: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hibd"))
            .arg("run")
            .arg(&conf)
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        let line = text.lines().find(|l| l.contains("matrix-free")).expect("shape line");
        line.to_string()
    };
    let one = shape_line("1");
    assert_eq!(one, shape_line("2"));
    assert!(
        one.contains("matrix-free direct: n = 2000, theta = 0.40, q = 3, leaf = 64, model direct : tree : fmm = 2.397 : 2.595 : 2.243 ms/col"),
        "{one}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI-level ensemble contract: replica `r` of an `R`-replica ensemble
/// writes byte-identical trajectory and checkpoint files to a standalone
/// `replicas = 1` run with seed `seed + r`, with all replicas on one set of
/// shared plans.
#[test]
fn ensemble_replicas_match_sequential_runs_bitwise() {
    const R: usize = 3;
    let dir = std::env::temp_dir().join("hibd_ensemble_bitwise_test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = SimSpec {
        particles: 12,
        steps: 4,
        lambda_rpy: 2,
        seed: 900,
        replicas: R,
        trajectory: Some(dir.join("ens.xyz").to_string_lossy().into_owned()),
        trajectory_interval: 1,
        checkpoint: Some(dir.join("ens.hibd").to_string_lossy().into_owned()),
        checkpoint_interval: 2,
        report_interval: 0,
        ..Default::default()
    };
    run_ensemble(&spec, quiet()).unwrap();

    for r in 0..R {
        let solo = SimSpec {
            replicas: 1,
            seed: 900 + r as u64,
            trajectory: Some(dir.join(format!("solo{r}.xyz")).to_string_lossy().into_owned()),
            checkpoint: Some(dir.join(format!("solo{r}.hibd")).to_string_lossy().into_owned()),
            ..spec.clone()
        };
        run_simulation(&solo, None, quiet()).unwrap();
        let ens_traj = std::fs::read(dir.join(format!("ens.r{r}.xyz"))).unwrap();
        let solo_traj = std::fs::read(dir.join(format!("solo{r}.xyz"))).unwrap();
        assert!(!ens_traj.is_empty());
        assert_eq!(ens_traj, solo_traj, "replica {r} trajectory diverged from seed {}", 900 + r);
        let ens_ck = std::fs::read(dir.join(format!("ens.r{r}.hibd"))).unwrap();
        let solo_ck = std::fs::read(dir.join(format!("solo{r}.hibd"))).unwrap();
        assert_eq!(ens_ck, solo_ck, "replica {r} checkpoint diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}
