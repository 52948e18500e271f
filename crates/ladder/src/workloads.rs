//! The four workloads: names, reasons, frozen constants and the config text
//! the `hibd` binary receives. The program sees only these generated files.

use crate::json::Value;
use std::fmt::Write as _;

pub const PERIODIC_RUN: &str = "periodic_run";
pub const PSE_RUN: &str = "pse_run";
pub const OPEN_RUN: &str = "open_run";
pub const SERVE_SPOOL: &str = "serve_spool";

/// Workload names in ladder order, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        PERIODIC_RUN,
        "hibd run, periodic n=200 phi=0.2 block-krylov lambda=16 steps=32: Algorithm 2 as shipped; \
         48-mesh batched FFTs in the window, so fft, pme and krylov do nearly all the work",
    ),
    (
        PSE_RUN,
        "same system, displacement = split-ewald, steps=32: the window is half a round trip plus a \
         sparse near-field Lanczos, so single-mesh FFTs and pse/rpy/sparse carry it",
    ),
    (
        OPEN_RUN,
        "hibd run, open n=2000 phi=0.1 treecode lambda=16 steps=32: FFT-free control on which every \
         fft/pme change must predict no change; only end-to-end use of tree and free pair kernels",
    ),
    (
        SERVE_SPOOL,
        "hibd serve, 1 worker, 8 spooled jobs in 3 periodic shapes (n=80 x4, 120 x3, 160 x1), S=8: \
         daemon overhead, plan-cache hits, lockstep groups that shrink mid-run, atomic-commit output",
    ),
];

pub const E_K: f64 = 1e-2;
pub const E_P: f64 = 1e-3;

/// One `hibd run` workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunShape {
    pub particles: usize,
    pub volume_fraction: f64,
    pub open: bool,
    pub displacement: &'static str,
    pub lambda_rpy: usize,
    /// Steps of one timed child: whole `lambda_rpy` windows, at least two.
    pub steps: usize,
    pub trajectory_interval: usize,
    pub checkpoint_interval: usize,
}

/// The `hibd serve` workload: `groups` lists `(particles, jobs)` per shape;
/// within a shape the first half of the jobs (rounded up) run `s` steps and
/// the rest `2 s`, so lockstep groups shrink while the spool drains.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeShape {
    pub groups: [(usize, usize); 3],
    pub volume_fraction: f64,
    pub lambda_rpy: usize,
    pub s: usize,
    pub trajectory_interval: usize,
    pub checkpoint_interval: usize,
}

/// One spooled job.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeJob {
    pub name: String,
    pub particles: usize,
    pub steps: usize,
    pub seed: u64,
}

impl ServeShape {
    /// The job list for `seed` (job `k` runs with `seed + k`); `steps_scale`
    /// is 1 for timed runs and 0 for the set-up measurement.
    pub fn jobs(&self, seed: u64, steps_scale: usize) -> Vec<ServeJob> {
        let mut jobs = Vec::new();
        for &(particles, count) in &self.groups {
            for j in 0..count {
                let k = jobs.len();
                let steps = if j < count.div_ceil(2) { self.s } else { 2 * self.s };
                jobs.push(ServeJob {
                    name: format!("job{k}"),
                    particles,
                    steps: steps * steps_scale,
                    seed: seed + k as u64,
                });
            }
        }
        jobs
    }

    pub fn total_steps(&self) -> usize {
        self.jobs(0, 1).iter().map(|j| j.steps).sum()
    }

    /// The `hibd run` shape of one job (the spool format is the run format).
    pub fn run_shape(&self, job: &ServeJob) -> RunShape {
        RunShape {
            particles: job.particles,
            volume_fraction: self.volume_fraction,
            open: false,
            displacement: "block-krylov",
            lambda_rpy: self.lambda_rpy,
            steps: job.steps,
            trajectory_interval: self.trajectory_interval,
            checkpoint_interval: self.checkpoint_interval,
        }
    }

    /// Config text of one job; paths are relative to the job's output
    /// directory, which the daemon chooses.
    pub fn job_config(&self, job: &ServeJob) -> String {
        run_config_text(&self.run_shape(job), job.seed, job.steps)
    }
}

/// Every frozen number of the benchmark. `diff` refuses to compare
/// documents whose constants differ.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constants {
    pub smoke: bool,
    pub periodic: RunShape,
    pub pse: RunShape,
    pub open: RunShape,
    pub serve: ServeShape,
    /// Zero-step children per set-up measurement.
    pub setup_reps: usize,
    /// Fewest timed children per run (the determinism check needs two).
    pub min_reps: usize,
    /// Seconds budgeted per timed child (at or a little under what one takes
    /// at seed state on the reference host; the noisiest workload gets the
    /// most repetitions): fixes the rep count for a given `--seconds`
    /// independent of how fast the program under test is.
    pub nominal_rep_seconds: [f64; 4],
    /// Steps of the traced in-process replay of the workload in focus (four
    /// windows, so 60 steady samples back the p80) and of the others.
    pub trace_focus_steps: usize,
    pub trace_other_steps: usize,
    /// The `engine.*` rungs: four same-shape replicas, `steps` lockstep
    /// steps with the window refreshes inside the timed region.
    pub engine: RunShape,
    /// Particle count of the `treecode.*_n8000` rungs (the `n2000` rungs
    /// reuse `open`).
    pub tree_large_particles: usize,
}

impl Constants {
    /// The reference shapes. Shapes never change; `steps`/`s` were sized at
    /// seed state on the reference host (see README) and are frozen.
    pub const fn frozen() -> Constants {
        let periodic = RunShape {
            particles: 200,
            volume_fraction: 0.2,
            open: false,
            displacement: "block-krylov",
            lambda_rpy: 16,
            steps: 32,
            trajectory_interval: 8,
            checkpoint_interval: 32,
        };
        Constants {
            smoke: false,
            periodic,
            pse: RunShape { displacement: "split-ewald", steps: 32, ..periodic },
            open: RunShape {
                particles: 2000,
                volume_fraction: 0.1,
                open: true,
                displacement: "block-krylov",
                lambda_rpy: 16,
                steps: 32,
                trajectory_interval: 8,
                checkpoint_interval: 32,
            },
            serve: ServeShape {
                groups: [(80, 4), (120, 3), (160, 1)],
                volume_fraction: 0.2,
                lambda_rpy: 8,
                s: 8,
                trajectory_interval: 4,
                checkpoint_interval: 16,
            },
            setup_reps: 25,
            min_reps: 3,
            nominal_rep_seconds: [5.0, 5.0, 5.0, 4.0],
            trace_focus_steps: 64,
            trace_other_steps: 16,
            engine: RunShape { particles: 120, lambda_rpy: 8, steps: 16, ..periodic },
            tree_large_particles: 8000,
        }
    }

    /// Tiny shapes for the `--smoke` end-to-end self-test: same code paths,
    /// seconds in total. Documents written this way carry `"smoke": true`
    /// and `diff` rejects them.
    pub const fn smoke() -> Constants {
        let periodic = RunShape {
            particles: 24,
            volume_fraction: 0.2,
            open: false,
            displacement: "block-krylov",
            lambda_rpy: 4,
            steps: 8,
            trajectory_interval: 2,
            checkpoint_interval: 4,
        };
        Constants {
            smoke: true,
            periodic,
            pse: RunShape { displacement: "split-ewald", ..periodic },
            open: RunShape { particles: 60, volume_fraction: 0.1, open: true, ..periodic },
            serve: ServeShape {
                groups: [(12, 4), (16, 3), (20, 1)],
                volume_fraction: 0.2,
                lambda_rpy: 2,
                s: 2,
                trajectory_interval: 1,
                checkpoint_interval: 2,
            },
            setup_reps: 2,
            min_reps: 2,
            nominal_rep_seconds: [1e9; 4],
            trace_focus_steps: 8,
            trace_other_steps: 4,
            engine: RunShape { particles: 16, lambda_rpy: 2, steps: 4, ..periodic },
            tree_large_particles: 300,
        }
    }

    pub fn run_shape(&self, workload: &str) -> Option<&RunShape> {
        match workload {
            PERIODIC_RUN => Some(&self.periodic),
            PSE_RUN => Some(&self.pse),
            OPEN_RUN => Some(&self.open),
            _ => None,
        }
    }

    pub fn nominal_rep_seconds(&self, workload: &str) -> f64 {
        let i = WORKLOADS.iter().position(|w| w.0 == workload).expect("known workload");
        self.nominal_rep_seconds[i]
    }

    /// Timed children for a `--seconds` budget: as many nominal-length reps
    /// as fit, never fewer than `min_reps`.
    pub fn reps_for(&self, workload: &str, seconds: f64) -> usize {
        ((seconds / self.nominal_rep_seconds(workload)).floor() as usize).max(self.min_reps)
    }

    /// Flat `name -> number` view for the document's `constants` block.
    pub fn to_json(self) -> Value {
        let mut m = Vec::new();
        for (w, r) in [(PERIODIC_RUN, &self.periodic), (PSE_RUN, &self.pse), (OPEN_RUN, &self.open)]
        {
            m.push((format!("{w}.particles"), r.particles.into()));
            m.push((format!("{w}.volume_fraction"), r.volume_fraction.into()));
            m.push((format!("{w}.lambda_rpy"), r.lambda_rpy.into()));
            m.push((format!("{w}.steps"), r.steps.into()));
            m.push((format!("{w}.trajectory_interval"), r.trajectory_interval.into()));
            m.push((format!("{w}.checkpoint_interval"), r.checkpoint_interval.into()));
        }
        let s = &self.serve;
        for (i, (particles, jobs)) in s.groups.iter().enumerate() {
            m.push((format!("{SERVE_SPOOL}.shape{i}.particles"), (*particles).into()));
            m.push((format!("{SERVE_SPOOL}.shape{i}.jobs"), (*jobs).into()));
        }
        m.push((format!("{SERVE_SPOOL}.volume_fraction"), s.volume_fraction.into()));
        m.push((format!("{SERVE_SPOOL}.lambda_rpy"), s.lambda_rpy.into()));
        m.push((format!("{SERVE_SPOOL}.S"), s.s.into()));
        m.push((format!("{SERVE_SPOOL}.trajectory_interval"), s.trajectory_interval.into()));
        m.push((format!("{SERVE_SPOOL}.checkpoint_interval"), s.checkpoint_interval.into()));
        m.push(("e_k".to_string(), E_K.into()));
        m.push(("e_p".to_string(), E_P.into()));
        m.push(("setup_reps".to_string(), self.setup_reps.into()));
        m.push(("min_reps".to_string(), self.min_reps.into()));
        m.push(("trace_focus_steps".to_string(), self.trace_focus_steps.into()));
        m.push(("trace_other_steps".to_string(), self.trace_other_steps.into()));
        m.push(("engine.particles".to_string(), self.engine.particles.into()));
        m.push(("engine.lambda_rpy".to_string(), self.engine.lambda_rpy.into()));
        m.push(("engine.steps".to_string(), self.engine.steps.into()));
        m.push(("treecode.large_particles".to_string(), self.tree_large_particles.into()));
        Value::obj(m)
    }
}

pub const TRAJECTORY_FILE: &str = "trajectory.xyz";
pub const CHECKPOINT_FILE: &str = "state.hibd";

/// Config text for a `hibd run` child (also the format of spooled jobs).
/// `dt` and the forces stay at their defaults; output is always on.
pub fn run_config_text(shape: &RunShape, seed: u64, steps: usize) -> String {
    let mut t = String::new();
    let _ = writeln!(t, "particles = {}", shape.particles);
    let _ = writeln!(t, "volume_fraction = {}", shape.volume_fraction);
    let _ = writeln!(t, "seed = {seed}");
    let _ = writeln!(t, "boundary = {}", if shape.open { "open" } else { "periodic" });
    let _ = writeln!(t, "algorithm = matrix-free");
    let _ = writeln!(t, "displacement = {}", shape.displacement);
    let _ = writeln!(t, "lambda_rpy = {}", shape.lambda_rpy);
    let _ = writeln!(t, "e_k = {E_K}");
    let _ = writeln!(t, "e_p = {E_P}");
    let _ = writeln!(t, "steps = {steps}");
    let _ = writeln!(t, "trajectory = {TRAJECTORY_FILE}");
    let _ = writeln!(t, "trajectory_interval = {}", shape.trajectory_interval);
    let _ = writeln!(t, "report_interval = 0");
    let _ = writeln!(t, "checkpoint = {CHECKPOINT_FILE}");
    let _ = writeln!(t, "checkpoint_interval = {}", shape.checkpoint_interval);
    t
}

/// Daemon config: one worker, queue of eight, exit when the spool is done;
/// every other daemon key stays at its default.
pub fn serve_config_text(spool: &str, output: &str) -> String {
    format!("spool = {spool}\noutput = {output}\nworkers = 1\nqueue = 8\nexit_when_idle = on\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_core::config::{Displacement, SimSpec};
    use hibd_core::system::Boundary;
    use hibd_serve::ServeSpec;

    #[test]
    fn run_configs_round_trip_through_the_programs_parser() {
        for c in [Constants::frozen(), Constants::smoke()] {
            for (w, shape) in [(PERIODIC_RUN, c.periodic), (PSE_RUN, c.pse), (OPEN_RUN, c.open)] {
                let spec = SimSpec::parse(&run_config_text(&shape, 77, shape.steps)).expect(w);
                assert_eq!(spec.particles, shape.particles);
                assert_eq!(spec.seed, 77);
                assert_eq!(spec.steps, shape.steps);
                assert_eq!(spec.lambda_rpy, shape.lambda_rpy);
                assert_eq!((spec.e_k, spec.e_p), (E_K, E_P));
                assert_eq!(spec.boundary == Boundary::Open, shape.open);
                assert_eq!(spec.displacement == Displacement::SplitEwald, w == PSE_RUN);
                assert_eq!(spec.trajectory.as_deref(), Some(TRAJECTORY_FILE));
                assert_eq!(spec.checkpoint.as_deref(), Some(CHECKPOINT_FILE));
                assert_eq!(spec.trajectory_interval, shape.trajectory_interval);
                assert_eq!(spec.report_interval, 0);
                // Whole windows, at least two; frames divide evenly.
                assert_eq!(shape.steps % shape.lambda_rpy, 0);
                assert!(shape.steps / shape.lambda_rpy >= 2);
                assert_eq!(shape.steps % shape.trajectory_interval, 0);
                // The set-up variant only changes `steps`.
                assert_eq!(SimSpec::parse(&run_config_text(&shape, 77, 0)).unwrap().steps, 0);
            }
        }
    }

    #[test]
    fn serve_spool_has_eight_jobs_in_three_shapes_with_mixed_lengths() {
        let c = Constants::frozen();
        let jobs = c.serve.jobs(2014, 1);
        assert_eq!(jobs.len(), 8);
        let steps: Vec<usize> = jobs.iter().map(|j| j.steps).collect();
        assert_eq!(steps, [8, 8, 16, 16, 8, 8, 16, 8]);
        assert_eq!(c.serve.total_steps(), 88);
        assert_eq!(jobs[5].seed, 2019);
        assert!(c.serve.jobs(2014, 0).iter().all(|j| j.steps == 0));
        for job in &jobs {
            let spec = SimSpec::parse(&c.serve.job_config(job)).unwrap();
            assert_eq!(
                (spec.particles, spec.steps, spec.seed),
                (job.particles, job.steps, job.seed)
            );
            assert_eq!(spec.lambda_rpy, 8);
            assert_eq!(spec.steps % spec.lambda_rpy, 0);
        }
        let serve = ServeSpec::parse(&serve_config_text("spool", "out")).unwrap();
        assert_eq!((serve.workers, serve.queue, serve.exit_when_idle), (1, 8, true));
        assert_eq!(serve.poll_ms, ServeSpec::default().poll_ms);
    }

    #[test]
    fn rep_count_follows_the_budget_not_the_program() {
        let c = Constants::frozen();
        assert_eq!(c.reps_for(PERIODIC_RUN, 20.0), 4);
        assert_eq!(c.reps_for(SERVE_SPOOL, 20.0), 5);
        assert_eq!(c.reps_for(PERIODIC_RUN, 1.0), c.min_reps);
        assert!(c.reps_for(PSE_RUN, 60.0) > c.reps_for(PSE_RUN, 20.0));
        assert_eq!(Constants::smoke().reps_for(OPEN_RUN, 60.0), 2);
        assert_ne!(Constants::smoke().to_json(), c.to_json());
    }
}
