//! Assemble and run a simulation from a [`SimSpec`].
//!
//! One stepping loop drives `R = spec.replicas` replicas through the
//! [`EnsembleRunner`] (the dense baseline keeps its own single-replica
//! leg); [`run_simulation`] (`hibd run` / `resume`, `R = 1`) and
//! [`run_ensemble`] (`hibd ensemble`) are its two guarded entries. Replica
//! `r` of an ensemble is defined as **the standalone run with seed
//! `seed + r`** — same initial-configuration RNG, same BD stream — so its
//! trajectory file is byte-identical to a `replicas = 1` run of that seed.

use crate::checkpoint::Checkpoint;
use crate::config::{Algorithm, SimSpec};
use hibd_core::ewald_bd::{EwaldBd, EwaldBdConfig};
use hibd_core::io::{Coordinates, XyzWriter};
use hibd_core::mf_bd::{DisplacementMode, MatrixFreeBd};
use hibd_core::system::{Boundary, ParticleSystem};
use hibd_engine::EnsembleRunner;
use hibd_telemetry::{Counter, LabeledSnapshot};
use hibd_treecode::{TreeEval, TreeParams};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

type RunResult = Result<RunReport, Box<dyn std::error::Error>>;

/// The PME shape a matrix-free run executed with (for the performance
/// model in `--profile` output). `None` for the dense baseline.
#[derive(Clone, Copy, Debug)]
pub struct PmeShape {
    /// Particle count.
    pub n: usize,
    /// Mesh cells per side (`K`).
    pub mesh_dim: usize,
    /// B-spline order (`p`).
    pub spline_order: usize,
    /// Mobility reuse interval (block width of the Krylov solves).
    pub lambda: usize,
    /// Box side and real-space cutoff: with `n`, what
    /// `hibd_pme::perf::real_space_blocks` prices the real-space row on.
    pub box_l: f64,
    pub r_max: f64,
}

/// Summary of a completed run of `replicas` replicas.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub replicas: usize,
    /// Steps every replica actually executed (short of the budget when
    /// interrupted).
    pub steps: usize,
    pub seconds: f64,
    /// Wall seconds per replica-step.
    pub seconds_per_step: f64,
    /// `Counter::LanczosIterations` summed over `jobs`.
    pub krylov_iterations: usize,
    pub pme: Option<PmeShape>,
    /// A SIGINT/SIGTERM arrived: the run finished its in-flight step,
    /// wrote a final checkpoint, and stopped early.
    pub interrupted: bool,
    /// Per-job phase accounts (`r0`, `r1`, ..., plus the engine's `shared`
    /// plan-cache entry for matrix-free runs) for the `--profile` jobs
    /// section.
    pub jobs: Vec<LabeledSnapshot>,
}

/// Either BD driver behind one stepping interface. Matrix-free runs go
/// through the [`EnsembleRunner`] so `hibd run` and `hibd ensemble` share
/// every line of operator construction.
enum Driver {
    MatrixFree(Box<EnsembleRunner>),
    Dense(Box<EwaldBd>),
}

impl Driver {
    fn step(&mut self) -> Result<(), Box<dyn std::error::Error>> {
        match self {
            Driver::MatrixFree(d) => Ok(d.step()?),
            Driver::Dense(d) => Ok(d.step()?),
        }
    }

    fn system(&self, r: usize) -> &ParticleSystem {
        match self {
            Driver::MatrixFree(d) => d.replica(r).system(),
            Driver::Dense(d) => d.system(),
        }
    }

    fn jobs(&self) -> Vec<LabeledSnapshot> {
        match self {
            Driver::MatrixFree(d) => d.job_snapshots(),
            Driver::Dense(d) => {
                vec![LabeledSnapshot { label: "r0".into(), snapshot: d.snapshot().clone() }]
            }
        }
    }
}

fn krylov_iterations(jobs: &[LabeledSnapshot]) -> usize {
    jobs.iter().map(|j| j.snapshot.counter(Counter::LanczosIterations) as usize).sum()
}

/// Log the resolved operator shape of a freshly built driver and return
/// the PME shape for the profile's performance model (None for open runs).
fn log_shape(bd: &MatrixFreeBd, lambda: usize, log: &mut impl FnMut(&str)) -> Option<PmeShape> {
    let resolved = bd.shape();
    if let Some(t) = resolved.tree {
        // Which evaluation the tuner chose, and the three modelled prices it
        // is one of (each at this leaf capacity) — a pure function of the
        // shape, like the periodic line below.
        let n = bd.system().len();
        let name = |eval| match eval {
            TreeEval::Direct => "direct",
            TreeEval::Tree => "treecode",
            TreeEval::Fmm => "fmm",
        };
        let [direct, tree, fmm] = [TreeEval::Direct, TreeEval::Tree, TreeEval::Fmm]
            .map(|eval| 1e3 * hibd_treecode::tuner::cost(n, &TreeParams { eval, ..t }));
        log(&format!(
            "matrix-free {}: n = {n}, theta = {:.2}, q = {}, leaf = {}, \
             model direct : tree : fmm = {direct:.3} : {tree:.3} : {fmm:.3} ms/col",
            name(t.eval),
            t.theta,
            t.cheb_order,
            t.leaf_capacity
        ));
    }
    resolved.pme.map(|p| {
        // `r_max` against `L/2` says which way the split was bound; the
        // model terms are what the tuner weighed at it.
        let cost = hibd_pme::tuner::split_cost(bd.system().len(), &p);
        log(&format!(
            "matrix-free: K = {}, p = {}, r_max = {:.2} (L/2 = {:.2}), alpha = {:.4}, \
             model real : recip = {:.3} : {:.3} ms/col",
            p.mesh_dim,
            p.spline_order,
            p.r_max,
            p.box_l / 2.0,
            p.alpha,
            cost.real * 1e3,
            cost.recip * 1e3
        ));
        if bd.config().displacement_mode == DisplacementMode::SplitEwald {
            // The sampler has no split of its own to report: its near field
            // is the drift operator's real-space sparsity pattern.
            let n = bd.system().len();
            log(&format!(
                "split-ewald: xi = {:.4}, r_max = {:.2} (the drift operator's), \
                 near field {:.1} blocks/row",
                p.alpha,
                p.r_max,
                hibd_pme::perf::real_space_blocks(n, p.box_l, p.r_max) / n as f64
            ));
        }
        PmeShape {
            n: bd.system().len(),
            mesh_dim: p.mesh_dim,
            spline_order: p.spline_order,
            lambda,
            box_l: p.box_l,
            r_max: p.r_max,
        }
    })
}

/// Per-replica output path: plain at `R = 1`, otherwise `.r{N}` spliced
/// before the extension of the *file name* (`out.xyz` -> `out.r2.xyz`; a
/// dot in a directory name is not an extension).
fn replica_path(base: &str, r: usize, replicas: usize) -> String {
    if replicas == 1 {
        return base.to_string();
    }
    let path = Path::new(base);
    match (path.file_stem(), path.extension()) {
        (Some(stem), Some(ext)) => {
            let name = format!("{}.r{r}.{}", stem.to_string_lossy(), ext.to_string_lossy());
            path.with_file_name(name).to_string_lossy().into_owned()
        }
        _ => format!("{base}.r{r}"),
    }
}

/// `hibd run` / `hibd resume`: one trajectory; `resume_from` optionally
/// restores a checkpoint (overriding the generated initial configuration)
/// and continues its trajectory file. `log` receives progress lines.
pub fn run_simulation(
    spec: &SimSpec,
    resume_from: Option<&Path>,
    log: impl FnMut(&str),
) -> RunResult {
    if spec.replicas > 1 {
        return Err(format!(
            "this config sets replicas = {}; single-trajectory `hibd run` needs replicas = 1 \
             (use `hibd ensemble` for multi-replica runs)",
            spec.replicas
        )
        .into());
    }
    run_replicas(spec, resume_from, log)
}

/// `hibd ensemble`: `spec.replicas` independent replicas, stepped one after
/// the other each step, on one shared plan cache. Replica `r` is the standalone run with seed
/// `spec.seed + r` (trajectory/checkpoint files get a `.r{N}` suffix when
/// `replicas > 1`). Resume is single-trajectory only: restart replica `r`
/// with `hibd resume` on its own checkpoint and `seed = seed + r`.
pub fn run_ensemble(spec: &SimSpec, log: impl FnMut(&str)) -> RunResult {
    if spec.algorithm != Algorithm::MatrixFree {
        return Err("ensemble stepping shares matrix-free operator plans; \
             set algorithm = matrix-free"
            .into());
    }
    run_replicas(spec, None, log)
}

/// The stepping loop behind both entries: build the driver, then step /
/// frame / report / checkpoint until the budget or a SIGINT. A resumed run
/// (`replicas = 1`) counts its outputs on the *global* step, so frames and
/// checkpoints land where the uninterrupted run puts them.
fn run_replicas(
    spec: &SimSpec,
    resume_from: Option<&Path>,
    mut log: impl FnMut(&str),
) -> RunResult {
    let replicas = spec.replicas;
    let many = if replicas > 1 { format!(", {replicas} replicas") } else { String::new() };
    // Initial configurations: fresh suspensions or the checkpoint.
    let (mut jobs, start_step): (Vec<(ParticleSystem, u64)>, usize) = match resume_from {
        Some(path) => {
            let ck = Checkpoint::load(path)?;
            log(&format!(
                "resumed from {} at step {} ({} particles)",
                path.display(),
                ck.step,
                ck.wrapped.len()
            ));
            (vec![(ck.restore(), spec.seed)], ck.step as usize)
        }
        None => {
            let seeds = (0..replicas as u64).map(|r| spec.seed + r);
            (seeds.map(|seed| (spec.build_system(seed), seed)).collect(), 0)
        }
    };
    let first = &jobs[0].0;
    match first.boundary() {
        Boundary::Periodic => log(&format!(
            "system: n = {}, L = {:.3}, phi = {:.3}{many}",
            first.len(),
            first.box_l,
            first.volume_fraction()
        )),
        Boundary::Open => log(&format!("system: n = {}, open boundary{many}", first.len())),
    }
    if first.boundary() == Boundary::Open && spec.algorithm == Algorithm::Dense {
        return Err("the dense Ewald baseline is periodic-only; this configuration is open".into());
    }

    // Driver.
    let mut pme_shape = None;
    let mut driver = match spec.algorithm {
        Algorithm::MatrixFree => {
            let mut runner = EnsembleRunner::new(spec.matrix_free_config(), jobs)?;
            pme_shape = log_shape(runner.replica(0), spec.lambda_rpy, &mut log);
            log(&format!(
                "plan cache: {} resident shape(s), {} hit(s), {} miss(es)",
                runner.cache().len(),
                runner.cache().hits(),
                runner.cache().misses()
            ));
            for r in 0..replicas {
                let bd = runner.replica_mut(r);
                // The per-window RNG stream is derived from the completed-step
                // counter, so a checkpoint resumed at a window boundary replays
                // the uninterrupted run bit for bit.
                bd.set_completed_steps(start_step as u64);
                for f in spec.forces() {
                    bd.add_force_boxed(f);
                }
            }
            Driver::MatrixFree(Box::new(runner))
        }
        Algorithm::Dense => {
            let cfg = EwaldBdConfig {
                dt: spec.dt,
                kbt: spec.kbt,
                lambda_rpy: spec.lambda_rpy,
                ..Default::default()
            };
            let (system, seed) = jobs.swap_remove(0);
            let mut bd = EwaldBd::new(system, cfg, seed);
            log("dense Ewald baseline (Algorithm 1)");
            for f in spec.forces() {
                bd.add_force_boxed(f);
            }
            Driver::Dense(Box::new(bd))
        }
    };

    // Per-replica trajectory sinks. A resumed run appends to the file it is
    // resuming and continues its `frame=` counter.
    let mut trajs = Vec::with_capacity(replicas);
    if let Some(base) = &spec.trajectory {
        for r in 0..replicas {
            let path = replica_path(base, r, replicas);
            let file = match resume_from {
                Some(_) => OpenOptions::new().append(true).create(true).open(path)?,
                None => File::create(path)?,
            };
            trajs.push(
                XyzWriter::new(BufWriter::new(file), Coordinates::Wrapped)
                    .with_frame_offset(start_step / spec.trajectory_interval),
            );
        }
    }
    let save_checkpoints = |driver: &Driver, base: &str, global: usize| -> std::io::Result<()> {
        for r in 0..replicas {
            Checkpoint::capture(driver.system(r), global as u64)
                .save(Path::new(&replica_path(base, r, replicas)))?;
        }
        Ok(())
    };

    let unit = if replicas > 1 { "replica-step" } else { "step" };
    let t0 = std::time::Instant::now();
    let mut completed = 0;
    let mut interrupted = false;
    for local in 1..=spec.steps {
        driver.step()?;
        completed = local;
        let global = start_step + local;
        for (r, w) in trajs.iter_mut().enumerate() {
            if global % spec.trajectory_interval == 0 {
                w.write_frame(driver.system(r), &format!("step={global}"))?;
            }
        }
        if spec.report_interval > 0 && global % spec.report_interval == 0 {
            let per = t0.elapsed().as_secs_f64() / (local * replicas) as f64;
            log(&format!(
                "step {global}: {:.2} ms/{unit}, {} Krylov iterations total",
                per * 1e3,
                krylov_iterations(&driver.jobs())
            ));
        }
        if let Some(base) = &spec.checkpoint {
            if global % spec.checkpoint_interval == 0 || local == spec.steps {
                save_checkpoints(&driver, base, global)?;
            }
        }
        // Graceful Ctrl-C: the in-flight step finished and its outputs are
        // written; commit a final checkpoint per replica and stop instead of
        // dying mid-step with only the last periodic commit on disk.
        if hibd_serve::shutdown::requested() && local < spec.steps {
            interrupted = true;
            match &spec.checkpoint {
                Some(base) => {
                    save_checkpoints(&driver, base, global)?;
                    log(&format!("interrupted: {replicas} checkpoint(s) written at step {global}"));
                }
                None => log(&format!("interrupted at step {global} (no checkpoint configured)")),
            }
            break;
        }
    }
    for w in trajs {
        w.into_inner()?.flush()?;
    }

    let seconds = t0.elapsed().as_secs_f64();
    let jobs = driver.jobs();
    Ok(RunReport {
        replicas,
        steps: completed,
        seconds,
        seconds_per_step: seconds / (completed * replicas).max(1) as f64,
        krylov_iterations: krylov_iterations(&jobs),
        pme: pme_shape,
        interrupted,
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimSpec;
    use hibd_core::mf_bd::MatrixFreeConfig;

    fn quiet() -> impl FnMut(&str) {
        |_msg: &str| {}
    }

    #[test]
    fn runs_a_small_matrix_free_simulation() {
        let spec = SimSpec { particles: 20, steps: 3, report_interval: 0, ..Default::default() };
        let report = run_simulation(&spec, None, quiet()).unwrap();
        assert_eq!(report.steps, 3);
        assert!(report.seconds_per_step > 0.0);
        assert!(report.krylov_iterations > 0);
    }

    #[test]
    fn run_rejects_multi_replica_configs() {
        let spec = SimSpec { replicas: 2, ..Default::default() };
        let e = run_simulation(&spec, None, quiet()).unwrap_err();
        assert!(e.to_string().contains("hibd ensemble"), "{e}");
    }

    #[test]
    fn ensemble_rejects_the_dense_baseline() {
        let spec = SimSpec { algorithm: Algorithm::Dense, ..Default::default() };
        let e = run_ensemble(&spec, quiet()).unwrap_err();
        assert!(e.to_string().contains("matrix-free"), "{e}");
    }

    #[test]
    fn replica_paths_splice_before_the_extension() {
        assert_eq!(replica_path("out.xyz", 2, 4), "out.r2.xyz");
        assert_eq!(replica_path("state", 0, 2), "state.r0");
        assert_eq!(replica_path("a/b.tar.gz", 1, 2), "a/b.tar.r1.gz");
        assert_eq!(replica_path("out.d/state", 0, 2), "out.d/state.r0");
        assert_eq!(replica_path("out.d/traj.xyz", 1, 2), "out.d/traj.r1.xyz");
        assert_eq!(replica_path("out.xyz", 0, 1), "out.xyz");
    }

    #[test]
    fn runs_a_small_ensemble_with_per_job_snapshots() {
        let spec = SimSpec {
            particles: 12,
            steps: 3,
            lambda_rpy: 2,
            replicas: 3,
            report_interval: 0,
            ..Default::default()
        };
        let mut lines = Vec::new();
        let er = run_ensemble(&spec, |m| lines.push(m.to_string())).unwrap();
        assert_eq!(er.replicas, 3);
        assert_eq!(er.steps, 3);
        assert!(er.krylov_iterations > 0);
        assert!(er.pme.is_some());
        let labels: Vec<&str> = er.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["r0", "r1", "r2", "shared"]);
        assert!(lines.iter().any(|l| l.contains("3 replicas")));
        assert!(lines.iter().any(|l| l.contains("plan cache: 1 resident")));
    }

    #[test]
    fn runs_the_dense_baseline() {
        let spec = SimSpec {
            particles: 12,
            steps: 2,
            algorithm: Algorithm::Dense,
            report_interval: 0,
            ..Default::default()
        };
        let report = run_simulation(&spec, None, quiet()).unwrap();
        assert_eq!(report.steps, 2);
        assert_eq!(report.krylov_iterations, 0);
        let [job] = report.jobs.as_slice() else { panic!("one dense job, no shared entry") };
        assert_eq!(job.snapshot.phase(hibd_telemetry::Phase::Cholesky).count, 1);
    }

    #[test]
    fn runs_an_open_boundary_simulation_and_resumes() {
        let dir = std::env::temp_dir().join("hibd_runner_open_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("open.hibd");
        let spec = SimSpec {
            particles: 15,
            steps: 4,
            boundary: hibd_core::system::Boundary::Open,
            theta: Some(0.6),
            lambda_rpy: 4,
            checkpoint: Some(ckpt.to_string_lossy().into_owned()),
            checkpoint_interval: 2,
            report_interval: 0,
            ..Default::default()
        };
        let mut lines = Vec::new();
        let report = run_simulation(&spec, None, |m| lines.push(m.to_string())).unwrap();
        assert_eq!(report.steps, 4);
        assert!(report.krylov_iterations > 0);
        assert!(report.pme.is_none(), "open runs have no PME shape");
        assert!(report.jobs[0].snapshot.phase(hibd_telemetry::Phase::NearField).count > 0);
        assert!(lines.iter().any(|l| l.contains("open boundary")));
        // `theta` pins a hierarchy; which one and its leaf capacity are the
        // tuner's, and the line says what it weighed.
        let shape = lines.iter().find(|l| l.starts_with("matrix-free")).expect("shape line");
        assert!(shape.contains("n = 15, theta = 0.60, q = 3, leaf = "), "{shape}");
        assert!(shape.contains("model direct : tree : fmm = ") && !shape.contains("direct:"));

        // Resume keeps the open boundary through the checkpoint.
        let spec2 = SimSpec { steps: 2, ..spec.clone() };
        let mut lines2 = Vec::new();
        run_simulation(&spec2, Some(&ckpt), |m| lines2.push(m.to_string())).unwrap();
        assert!(lines2.iter().any(|l| l.contains("resumed") && l.contains("step 4")));
        assert!(lines2.iter().any(|l| l.contains("open boundary")));
        let ck = Checkpoint::load(&ckpt).unwrap();
        assert_eq!(ck.step, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tuned_open_runs_log_the_direct_sum_and_its_alternatives() {
        let spec = SimSpec {
            particles: 15,
            steps: 2,
            boundary: hibd_core::system::Boundary::Open,
            lambda_rpy: 4,
            report_interval: 0,
            ..Default::default()
        };
        let mut lines = Vec::new();
        let report = run_simulation(&spec, None, |m| lines.push(m.to_string())).unwrap();
        assert_eq!(report.steps, 2);
        let shape = lines.iter().find(|l| l.starts_with("matrix-free")).expect("shape line");
        assert!(shape.starts_with("matrix-free direct: n = 15, theta = 0.40, q = 3, leaf = "));
        // A single leaf prices as the direct sum: all three agree at n = 15.
        let (_, model) = shape.split_once("model direct : tree : fmm = ").expect("model terms");
        let terms: Vec<&str> = model.trim_end_matches(" ms/col").split(" : ").collect();
        assert!(terms.len() == 3 && terms[0] == terms[1] && terms[1] == terms[2], "{shape}");
    }

    #[test]
    fn runs_an_open_boundary_fmm_simulation() {
        // The `eval` key is gone from configs; explicit `TreeParams` are how
        // a caller still asks for one evaluation, end to end through the
        // engine the CLI drives.
        let spec = SimSpec {
            particles: 15,
            boundary: hibd_core::system::Boundary::Open,
            lambda_rpy: 4,
            ..Default::default()
        };
        let tree = TreeParams {
            theta: 0.6,
            leaf_capacity: 4,
            eval: TreeEval::Fmm,
            ..TreeParams::default()
        };
        let cfg = MatrixFreeConfig { tree: Some(tree), ..spec.matrix_free_config() };
        let jobs = vec![(spec.build_system(spec.seed), spec.seed)];
        let mut runner = EnsembleRunner::new(cfg, jobs).unwrap();
        let mut lines = Vec::new();
        log_shape(runner.replica(0), spec.lambda_rpy, &mut |m: &str| lines.push(m.to_string()));
        assert!(lines[0].starts_with("matrix-free fmm: n = 15, theta = 0.60, q = 3, leaf = 4,"));
        runner.step().unwrap();
        runner.step().unwrap();
        let jobs = runner.job_snapshots();
        assert!(krylov_iterations(&jobs) > 0);
        assert!(jobs[0].snapshot.phase(hibd_telemetry::Phase::M2l).count > 0);
    }

    #[test]
    fn writes_trajectory_and_checkpoint_then_resumes() {
        let dir = std::env::temp_dir().join("hibd_runner_test");
        std::fs::create_dir_all(&dir).unwrap();
        let traj = dir.join("t.xyz");
        let ckpt = dir.join("s.hibd");
        let spec = SimSpec {
            particles: 15,
            steps: 4,
            trajectory: Some(traj.to_string_lossy().into_owned()),
            trajectory_interval: 2,
            checkpoint: Some(ckpt.to_string_lossy().into_owned()),
            checkpoint_interval: 2,
            report_interval: 0,
            ..Default::default()
        };
        run_simulation(&spec, None, quiet()).unwrap();
        let text = std::fs::read_to_string(&traj).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("Lattice")).count(), 2);

        // Resume: the checkpoint stores step 4; two more steps continue it.
        let spec2 = SimSpec { steps: 2, trajectory: None, ..spec.clone() };
        let mut lines = Vec::new();
        run_simulation(&spec2, Some(&ckpt), |m| lines.push(m.to_string())).unwrap();
        assert!(lines.iter().any(|l| l.contains("resumed") && l.contains("step 4")));
        // Final checkpoint now at global step 6.
        let ck = Checkpoint::load(&ckpt).unwrap();
        assert_eq!(ck.step, 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
