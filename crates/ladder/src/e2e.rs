//! The timed end-to-end runs: the release `hibd` binary on generated config
//! files, one child after another (closed loop, one client), then the
//! correctness checks on what the children wrote.

use crate::checks::{check_trajectory, fnv1a, pme_rel_err_vs_dense, tree_rel_err_vs_dense};
use crate::child::{self, ChildRun, Watch};
use crate::host::{self, Host};
use crate::json::Value;
use crate::schema::{Metric, WorkloadResult};
use crate::workloads::{
    run_config_text, serve_config_text, Constants, RunShape, ServeJob, ServeShape, CHECKPOINT_FILE,
    E_P, SERVE_SPOOL, TRAJECTORY_FILE,
};
use hibd_core::checkpoint::Checkpoint;
use hibd_core::config::SimSpec;
use hibd_core::mf_bd::{resolve_shape, ResolvedShape};
use hibd_core::system::ParticleSystem;
use std::io;
use std::path::{Path, PathBuf};

/// What every mode needs to drive the program.
pub struct Ctx {
    /// The release `hibd` binary (built beside this harness).
    pub hibd: PathBuf,
    /// Scratch directory inside the checkout; removed when the run ends.
    pub work: PathBuf,
    pub host: Host,
    pub constants: Constants,
    pub seed: u64,
}

fn io_err(context: &str, e: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("{context}: {e}"))
}

/// Parse the spec the program will see and resolve its operator shape.
pub fn resolve(text: &str, seed: u64) -> io::Result<(SimSpec, ParticleSystem, ResolvedShape)> {
    let spec = SimSpec::parse(text).map_err(|e| io_err("generated config", e))?;
    let system = spec.build_system(seed);
    let shape = resolve_shape(&system, &spec.matrix_free_config())
        .map_err(|e| io_err("resolve_shape", e))?;
    Ok((spec, system, shape))
}

/// `N Krylov iterations` from the `[hibd] done:` line.
pub fn parse_krylov_iterations(stdout: &str) -> Option<usize> {
    let line = stdout.lines().rev().find(|l| l.contains("Krylov iterations"))?;
    let head = line[..line.find("Krylov iterations")?].trim_end();
    head.rsplit(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// One `hibd run` child of `steps` steps in a fresh `dir`.
pub fn run_once(
    ctx: &Ctx,
    shape: &RunShape,
    seed: u64,
    steps: usize,
    threads: usize,
    dir: &Path,
    watch: Watch<'_>,
) -> io::Result<ChildRun> {
    fresh_dir(dir)?;
    std::fs::write(dir.join("run.conf"), run_config_text(shape, seed, steps))?;
    child::run(&ctx.hibd, &["run", "run.conf"], dir, threads, watch)
}

/// One `hibd serve` child over a freshly spooled job list in `dir`.
pub fn serve_once(
    ctx: &Ctx,
    shape: &ServeShape,
    jobs: &[ServeJob],
    dir: &Path,
    watch: Watch<'_>,
) -> io::Result<ChildRun> {
    fresh_dir(dir)?;
    std::fs::create_dir_all(dir.join("spool"))?;
    for job in jobs {
        std::fs::write(
            dir.join("spool").join(format!("{}.conf", job.name)),
            shape.job_config(job),
        )?;
    }
    std::fs::write(dir.join("serve.conf"), serve_config_text("spool", "out"))?;
    child::run(&ctx.hibd, &["serve", "serve.conf"], dir, ctx.host.threads, watch)
}

fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

/// Where the zero-step children run, so the timed children's output stays
/// in place for the checks.
fn setup_dir(ctx: &Ctx, workload: &str) -> PathBuf {
    ctx.work.join(format!("{workload}_setup"))
}

/// Median set-up wall over `reps` zero-step children. Measured right after
/// the timed children: a fresh invocation starts seconds after the previous
/// one freed its memory, which is when the guest kernel is busy handing
/// those pages back to the host, and millisecond children feel that.
fn measure_setup(
    r: &mut WorkloadResult,
    reps: usize,
    mut zero_step_child: impl FnMut() -> io::Result<ChildRun>,
) -> io::Result<()> {
    let mut walls = Vec::with_capacity(reps);
    let mut all_ok = true;
    for _ in 0..reps {
        let run = zero_step_child()?;
        all_ok &= run.success;
        walls.push(run.wall_s);
    }
    r.check("setup_exit_status", all_ok, format!("{reps} zero-step children"));
    r.end_to_end.push(("setup_s".into(), Metric::median_of(&walls, "s")));
    Ok(())
}

/// Throughput and memory metrics from the timed children's walls.
fn push_throughput(
    r: &mut WorkloadResult,
    walls: &[f64],
    rss_kib: &[u64],
    steps: usize,
    jobs: usize,
) {
    let per = |scale: f64| walls.iter().map(|w| scale / w).collect::<Vec<f64>>();
    r.end_to_end.push(("steps_per_s".into(), Metric::median_of(&per(steps as f64), "steps/s")));
    r.end_to_end
        .push(("jobs_per_hour".into(), Metric::median_of(&per(3600.0 * jobs as f64), "jobs/h")));
    let rss: Vec<f64> = rss_kib.iter().map(|&k| mib(k)).collect();
    if rss.is_empty() {
        r.check("peak_rss_read", false, "VmHWM was never read");
    } else {
        r.end_to_end.push(("peak_rss_mib".into(), Metric::median_of(&rss, "MiB")));
    }
}

/// What one finished job must have left in its output directory.
struct Expected<'a> {
    checkpoint: &'a str,
    particles: usize,
    steps: usize,
    trajectory_interval: usize,
    /// Box edge for periodic jobs (wrapped coordinates must lie inside).
    box_l: Option<f64>,
}

/// Checks on one finished output directory; returns the final system when
/// the checkpoint decodes at the expected step.
fn check_run_outputs(
    r: &mut WorkloadResult,
    prefix: &str,
    dir: &Path,
    want: &Expected<'_>,
) -> Option<ParticleSystem> {
    let text = std::fs::read_to_string(dir.join(TRAJECTORY_FILE)).unwrap_or_default();
    let frames = want.steps / want.trajectory_interval;
    match check_trajectory(&text, want.particles, frames, want.box_l) {
        Ok(_) => r.check(
            format!("{prefix}trajectory"),
            true,
            format!("{frames} frames of {}", want.particles),
        ),
        Err(e) => r.check(format!("{prefix}trajectory"), false, e),
    }
    match Checkpoint::load(&dir.join(want.checkpoint)) {
        Ok(ck) => {
            let ok = ck.step == want.steps as u64 && ck.wrapped.len() == want.particles;
            let detail =
                format!("step {} of {}, {} particles", ck.step, want.steps, ck.wrapped.len());
            r.check(format!("{prefix}checkpoint"), ok, detail);
            ok.then(|| ck.restore())
        }
        Err(e) => {
            r.check(format!("{prefix}checkpoint"), false, e.to_string());
            None
        }
    }
}

/// The accuracy gate: the operator the workload runs with, at the final
/// positions, against the dense reference, must meet `e_p`.
pub fn accuracy_gate(r: &mut WorkloadResult, system: &ParticleSystem, shape: &ResolvedShape) {
    if let Some(params) = shape.pme {
        match pme_rel_err_vs_dense(system.positions(), params) {
            Ok(err) => {
                r.info("pme.rel_err_vs_dense", err);
                r.check(
                    "accuracy_gate",
                    err <= E_P,
                    format!("pme.rel_err_vs_dense {err:.3e} <= e_p {E_P:.0e}"),
                );
            }
            Err(e) => r.check("accuracy_gate", false, e),
        }
    }
    if let Some(params) = shape.tree {
        let err = tree_rel_err_vs_dense(system.positions(), params);
        r.info("treecode.rel_err_vs_dense", err);
        r.check(
            "accuracy_gate",
            err <= E_P,
            format!("treecode.rel_err_vs_dense {err:.3e} <= e_p {E_P:.0e}"),
        );
    }
}

pub fn shape_info(r: &mut WorkloadResult, shape: &ResolvedShape) {
    if let Some(p) = shape.pme {
        r.info("kref", p.mesh_dim);
        r.info("p", p.spline_order);
        r.info("r_max", p.r_max);
        r.info("alpha", p.alpha);
        r.info("box_l", p.box_l);
    }
    if let Some(t) = shape.tree {
        r.info("theta", t.theta);
        r.info("q", t.cheb_order);
        r.info("leaf_capacity", t.leaf_capacity);
    }
}

/// Timed run of one of the three `hibd run` workloads.
pub fn run_workload(
    ctx: &Ctx,
    workload: &str,
    shape: &RunShape,
    seconds: f64,
) -> io::Result<WorkloadResult> {
    let mut r = WorkloadResult::default();
    let dir = ctx.work.join(workload);
    let (_, system, resolved) = resolve(&run_config_text(shape, ctx.seed, shape.steps), ctx.seed)?;
    shape_info(&mut r, &resolved);
    r.info("steps", shape.steps);
    r.info("loadavg_before", host::loadavg());

    let reps = ctx.constants.reps_for(workload, seconds);
    let (mut walls, mut rss, mut hashes, mut iterations) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut all_ok = true;
    for _ in 0..reps {
        let run = run_once(
            ctx,
            shape,
            ctx.seed,
            shape.steps,
            ctx.host.threads,
            &dir,
            Watch::Rss { tick: &mut |_| {} },
        )?;
        r.ops_attempted += shape.steps;
        if !run.success {
            all_ok = false;
            r.ops_failed += shape.steps;
            eprintln!("[bench_ladder] {workload} child failed:\n{}{}", run.stdout, run.stderr);
        }
        walls.push(run.wall_s);
        rss.extend(run.peak_rss_kib);
        hashes.push(fnv1a(&std::fs::read(dir.join(TRAJECTORY_FILE)).unwrap_or_default()));
        iterations.push(parse_krylov_iterations(&run.stdout));
    }
    r.check("exit_status", all_ok, format!("{reps} timed children"));
    push_throughput(&mut r, &walls, &rss, shape.steps, 1);
    r.info("reps", reps);
    measure_setup(&mut r, ctx.constants.setup_reps, || {
        run_once(
            ctx,
            shape,
            ctx.seed,
            0,
            ctx.host.threads,
            &setup_dir(ctx, workload),
            Watch::Nothing,
        )
    })?;

    let same =
        hashes.windows(2).all(|w| w[0] == w[1]) && iterations.windows(2).all(|w| w[0] == w[1]);
    r.check(
        "determinism",
        same && reps >= 2,
        format!("{reps} repetitions, trajectory fnv1a {:016x}", hashes[0]),
    );
    r.info("trajectory_fnv1a", Value::str(format!("{:016x}", hashes[0])));
    match iterations[0] {
        Some(k) => r.info("krylov_iterations", k),
        None => r.check(
            "krylov_iterations_reported",
            false,
            "no `Krylov iterations` in the child's output",
        ),
    }

    let box_l = (!shape.open).then_some(system.box_l);
    let want = Expected {
        checkpoint: CHECKPOINT_FILE,
        particles: shape.particles,
        steps: shape.steps,
        trajectory_interval: shape.trajectory_interval,
        box_l,
    };
    let last = check_run_outputs(&mut r, "", &dir, &want);
    if let Some(final_system) = last {
        accuracy_gate(&mut r, &final_system, &resolved);
    }
    Ok(r)
}

/// `"state": "done"` in a job's committed `meta.json`.
pub fn meta_is_done(meta: &str) -> bool {
    crate::json::parse(meta)
        .ok()
        .and_then(|m| m.get("state")?.as_str().map(|s| s == "done"))
        .unwrap_or(false)
}

const SERVE_SUMMARY_TAIL: &str = "done, 0 failed, 0 cancelled, 0 parked";

/// The daemon exited cleanly and reported every job done.
pub fn serve_exit_ok(run: &ChildRun, jobs: usize) -> bool {
    run.success && run.stdout.contains(&format!("exit: {jobs} {SERVE_SUMMARY_TAIL}"))
}

/// FNV-1a over the jobs' trajectories in spool order.
pub fn serve_trajectory_hash(dir: &Path, jobs: &[ServeJob]) -> u64 {
    let mut bytes = Vec::new();
    for job in jobs {
        bytes.extend(
            std::fs::read(dir.join("out").join(&job.name).join(TRAJECTORY_FILE))
                .unwrap_or_default(),
        );
    }
    fnv1a(&bytes)
}

/// Per-job checks on a finished spool run.
pub fn check_serve_outputs(
    r: &mut WorkloadResult,
    shape: &ServeShape,
    jobs: &[ServeJob],
    dir: &Path,
    run: &ChildRun,
) -> io::Result<()> {
    r.check(
        "serve_summary",
        serve_exit_ok(run, jobs.len()),
        format!("exit: {} {SERVE_SUMMARY_TAIL}", jobs.len()),
    );
    let mut metas_done = 0;
    for job in jobs {
        let out = dir.join("out").join(&job.name);
        metas_done += usize::from(meta_is_done(
            &std::fs::read_to_string(out.join("meta.json")).unwrap_or_default(),
        ));
        let (_, system, _) = resolve(&shape.job_config(job), job.seed)?;
        let checkpoint = format!("ckpt-{}.hibd", job.steps);
        let want = Expected {
            checkpoint: &checkpoint,
            particles: job.particles,
            steps: job.steps,
            trajectory_interval: shape.trajectory_interval,
            box_l: Some(system.box_l),
        };
        check_run_outputs(r, &format!("{}.", job.name), &out, &want);
    }
    r.check(
        "meta_state_done",
        metas_done == jobs.len(),
        format!("{metas_done} of {} meta.json done", jobs.len()),
    );
    Ok(())
}

/// Resolved PME shapes of the spool, one per particle count, in spool order.
pub fn serve_shapes(
    shape: &ServeShape,
    jobs: &[ServeJob],
) -> io::Result<Vec<(usize, ResolvedShape)>> {
    let mut shapes: Vec<(usize, ResolvedShape)> = Vec::new();
    for job in jobs {
        if !shapes.iter().any(|(n, _)| *n == job.particles) {
            shapes.push((job.particles, resolve(&shape.job_config(job), job.seed)?.2));
        }
    }
    Ok(shapes)
}

/// Resolved-shape info fields of the spool: one array entry per shape.
pub fn serve_shape_info(r: &mut WorkloadResult, shapes: &[(usize, ResolvedShape)]) {
    let field = |f: &dyn Fn(&hibd_pme::PmeParams) -> f64| {
        Value::Arr(
            shapes.iter().filter_map(|(_, s)| s.pme.as_ref().map(f)).map(Value::Num).collect(),
        )
    };
    r.info("kref", field(&|p| p.mesh_dim as f64));
    r.info("p", field(&|p| p.spline_order as f64));
    r.info("r_max", field(&|p| p.r_max));
    r.info("alpha", field(&|p| p.alpha));
}

/// Timed run of the `hibd serve` workload.
pub fn serve_workload(ctx: &Ctx, seconds: f64) -> io::Result<WorkloadResult> {
    let mut r = WorkloadResult::default();
    let shape = ctx.constants.serve;
    let dir = ctx.work.join(SERVE_SPOOL);
    let jobs = shape.jobs(ctx.seed, 1);
    let idle_jobs = shape.jobs(ctx.seed, 0);
    serve_shape_info(&mut r, &serve_shapes(&shape, &jobs)?);
    r.info("S", shape.s);
    r.info("loadavg_before", host::loadavg());

    let reps = ctx.constants.reps_for(SERVE_SPOOL, seconds);
    let (mut walls, mut rss, mut hashes) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..reps {
        let run = serve_once(ctx, &shape, &jobs, &dir, Watch::Rss { tick: &mut |_| {} })?;
        r.ops_attempted += jobs.len();
        if !serve_exit_ok(&run, jobs.len()) {
            r.ops_failed += jobs.len();
            eprintln!(
                "[bench_ladder] serve_spool repetition {rep} failed:\n{}{}",
                run.stdout, run.stderr
            );
        }
        walls.push(run.wall_s);
        rss.extend(run.peak_rss_kib);
        hashes.push(serve_trajectory_hash(&dir, &jobs));
        last = Some(run);
    }
    push_throughput(&mut r, &walls, &rss, shape.total_steps(), jobs.len());
    r.info("reps", reps);
    measure_setup(&mut r, ctx.constants.setup_reps, || {
        serve_once(ctx, &shape, &idle_jobs, &setup_dir(ctx, SERVE_SPOOL), Watch::Nothing)
    })?;
    let same = hashes.windows(2).all(|w| w[0] == w[1]);
    r.check(
        "determinism",
        same && reps >= 2,
        format!("{reps} repetitions, trajectories fnv1a {:016x}", hashes[0]),
    );
    r.info("trajectory_fnv1a", Value::str(format!("{:016x}", hashes[0])));
    // Per-job checks once, on what the last repetition left behind.
    check_serve_outputs(&mut r, &shape, &jobs, &dir, &last.expect("at least one repetition"))?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn krylov_iterations_come_from_the_done_line() {
        let out = "[hibd] system: n = 200\n[hibd] done: 64 steps in 13.92 s (217.52 ms/step, 24 Krylov iterations)\n";
        assert_eq!(parse_krylov_iterations(out), Some(24));
        assert_eq!(
            parse_krylov_iterations("[hibd] step 16: 244.32 ms/step, 6 Krylov iterations total\n"),
            Some(6)
        );
        assert_eq!(parse_krylov_iterations("nothing here"), None);
    }

    #[test]
    fn meta_state_is_read_from_json() {
        assert!(meta_is_done(
            "{\n  \"schema\": \"hibd-job-v1\",\n  \"state\": \"done\",\n  \"step\": 16\n}"
        ));
        assert!(!meta_is_done("{\"state\": \"running\"}"));
        assert!(!meta_is_done("{\"note\": \"state: done\"}"));
        assert!(!meta_is_done(""));
    }
}
