//! The traced run: the run workloads replayed in-process through public
//! calls only, then the rung probes on that run's final positions and
//! resolved shape. Every call is wrapped in a span; every per-layer timing is
//! read back from the spans by name.
//!
//! The contract gives each traced run one workload, so that workload is in
//! *focus*: its replay runs four windows (60 steady samples behind the p80),
//! the other two run one window, and every rung is probed either way.

use crate::checks::{fnv1a, pme_rel_err_vs_dense, probe_vector, tree_rel_err_vs_dense};
use crate::child::Watch;
use crate::e2e::{
    check_serve_outputs, meta_is_done, parse_krylov_iterations, run_once, serve_once,
    serve_shape_info, serve_shapes, shape_info, Ctx,
};
use crate::host;
use crate::json::Value;
use crate::schema::{per_layer, Metric, WorkloadResult, CORE_WORKLOADS};
use crate::spans::{self, Recorder};
use crate::stats::{highest_percentile, percentile};
use crate::workloads::{
    run_config_text, RunShape, CHECKPOINT_FILE, E_K, E_P, OPEN_RUN, PERIODIC_RUN, PSE_RUN,
    SERVE_SPOOL, TRAJECTORY_FILE,
};
use hibd_core::checkpoint::Checkpoint;
use hibd_core::config::SimSpec;
use hibd_core::io::{Coordinates, XyzWriter};
use hibd_core::mf_bd::{resolve_shape, MatrixFreeBd, ResolvedShape};
use hibd_core::system::ParticleSystem;
use hibd_engine::EnsembleRunner;
use hibd_fft::{Complex64, Fft3, FftPlan};
use hibd_krylov::{block_lanczos_sqrt, KrylovConfig};
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_pme::perf::{Machine, PerfModel};
use hibd_pme::{PmeOperator, PmeParams, PmePlans};
use hibd_pse::{PseSampler, PseSplit};
use hibd_rpy::{real_tensors_with_overlap4, rpy_pairs_accumulate, RpyEwald, PAIR_TILE};
use hibd_treecode::{TreeEval, TreeOperator, TreeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::SystemTime;

/// Block width of the window rungs (`lambda_rpy` of the run workloads).
const S16: usize = 16;

/// Largest triad array (bytes).
const TRIAD_ARRAY_CAP: u64 = 128 << 20;

/// Bound on `krylov.sqrt_identity_err`, frozen by the PR that added the
/// benchmark: ten times the Krylov tolerance.
pub const SQRT_IDENTITY_BOUND: f64 = 10.0 * E_K;

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Standard normals from the probe stream (Box-Muller), so the window rungs
/// do not depend on the program's own sampler.
fn normal_vector(len: usize, index: u64) -> Vec<f64> {
    let u = probe_vector(2 * len.div_ceil(2) * 2, index);
    let mut out = Vec::with_capacity(len + 1);
    for pair in u.chunks_exact(2) {
        // Map [-1, 1) to (0, 1] for the radius and [0, 2 pi) for the angle.
        let r = (-2.0 * (1.0 - 0.5 * (pair[0] + 1.0)).ln()).sqrt();
        let phi = std::f64::consts::PI * (pair[1] + 1.0);
        out.push(r * phi.cos());
        out.push(r * phi.sin());
        if out.len() >= len {
            break;
        }
    }
    out.truncate(len);
    out
}

/// Wraps an operator so every `apply_multi` a solver makes becomes a child
/// span: the window then splits into mobility time and solver self time.
struct TracedOp<'a> {
    inner: &'a mut dyn LinearOperator,
    rec: &'a mut Recorder,
    span: &'static str,
}

impl LinearOperator for TracedOp<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let inner = &mut *self.inner;
        self.rec.time(self.span, || inner.apply(x, y));
    }

    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        let inner = &mut *self.inner;
        self.rec.time(self.span, || inner.apply_multi(x, y, s));
    }
}

/// What a replay leaves behind for the rungs.
struct Replay {
    system: ParticleSystem,
    resolved: ResolvedShape,
    /// Seconds from the start of the replay to the end of step
    /// `trace_other_steps` and its output: what the untraced child of that
    /// many steps is compared with.
    first_window_wall_s: f64,
    trajectory: Vec<u8>,
}

struct Tracer<'a> {
    ctx: &'a Ctx,
    focus: &'a str,
    rec: Recorder,
    metrics: BTreeMap<String, Metric>,
    result: WorkloadResult,
}

impl Tracer<'_> {
    fn reps(&self, n: usize) -> usize {
        if self.ctx.constants.smoke {
            1
        } else {
            n
        }
    }

    fn put(&mut self, name: &str, metric: Metric) {
        self.metrics.insert(name.to_string(), metric);
    }

    /// Time `reps` spans called `span`, each covering `calls` calls of `f`
    /// (after one untimed warm-up call when `reps > 2`: constructors that
    /// take a second are timed cold, twice); returns milliseconds per call.
    fn timed(&mut self, span: &str, reps: usize, calls: u32, mut f: impl FnMut()) -> Vec<f64> {
        if reps > 2 {
            f();
        }
        let first = self.rec.spans().len();
        for _ in 0..self.reps(reps) {
            self.rec.scope_calls(span, calls, |_| {
                for _ in 0..calls {
                    f();
                }
            });
        }
        self.rec.spans()[first..]
            .iter()
            .filter(|s| s.name == span)
            .map(spans::Span::ms_per_call)
            .collect()
    }

    /// `timed`, reported as the median under `metric` in `unit` (`scale`
    /// converts from milliseconds per call).
    fn timed_metric(
        &mut self,
        metric: &str,
        unit: &'static str,
        scale: f64,
        reps: usize,
        calls: u32,
        f: impl FnMut(),
    ) -> f64 {
        let ms = self.timed(metric.rsplit_once('.').map_or(metric, |x| x.0), reps, calls, f);
        let scaled: Vec<f64> = ms.iter().map(|v| v * scale).collect();
        let m = Metric::median_of(&scaled, unit);
        let value = m.value;
        self.put(metric, m);
        value
    }

    // ------------------------------------------------------------------
    // core: in-process replay
    // ------------------------------------------------------------------

    /// Replay `workload` for `steps` steps exactly as `hibd run` would:
    /// parse, build, then per step `step()`, frame and checkpoint output.
    fn replay(&mut self, workload: &str, shape: &RunShape, steps: usize) -> io::Result<Replay> {
        let seed = self.ctx.seed;
        let dir = self.ctx.work.join(format!("replay_{workload}"));
        std::fs::create_dir_all(&dir)?;
        let text = run_config_text(shape, seed, steps);
        self.rec.set_workload(workload);
        let first_window = self.ctx.constants.trace_other_steps;
        let mut first_window_wall_s = 0.0;
        let started = std::time::Instant::now();
        let (bd, spec) =
            self.rec.scope("core.replay", |rec| -> io::Result<(MatrixFreeBd, SimSpec)> {
                let (spec, mut bd) =
                    rec.time("core.build", || -> io::Result<(SimSpec, MatrixFreeBd)> {
                        let spec = SimSpec::parse(&text).map_err(other)?;
                        let system = spec.build_system(seed);
                        let bd = MatrixFreeBd::new(system, spec.matrix_free_config(), seed)
                            .map_err(other)?;
                        Ok((spec, bd))
                    })?;
                for f in spec.forces() {
                    bd.add_force_boxed(f);
                }
                let file = BufWriter::new(File::create(dir.join(TRAJECTORY_FILE))?);
                let mut traj = XyzWriter::new(file, Coordinates::Wrapped);
                for local in 1..=steps {
                    let refresh = (local - 1) % spec.lambda_rpy == 0;
                    let name = if refresh { "core.step.refresh" } else { "core.step.steady" };
                    rec.time(name, || bd.step()).map_err(other)?;
                    if local % spec.trajectory_interval == 0 {
                        rec.time("core.xyz_frame", || {
                            traj.write_frame(bd.system(), &format!("step={local}"))
                        })?;
                    }
                    if local % spec.checkpoint_interval == 0 || local == steps {
                        rec.time("core.checkpoint_save", || {
                            Checkpoint::capture(bd.system(), local as u64)
                                .save(&dir.join(CHECKPOINT_FILE))
                        })?;
                    }
                    if local == first_window {
                        first_window_wall_s = started.elapsed().as_secs_f64();
                    }
                }
                rec.time("core.xyz_flush", || traj.into_inner().and_then(|mut w| w.flush()))?;
                Ok((bd, spec))
            })?;
        let mut bd = bd;
        if bd.completed_steps() != steps as u64 {
            return Err(other(format!(
                "replay of {workload} completed {} of {steps} steps",
                bd.completed_steps()
            )));
        }
        for _ in 0..self.reps(5) {
            self.rec.time("core.forces", || std::hint::black_box(bd.total_forces()));
        }
        let resolved = resolve_shape(bd.system(), &spec.matrix_free_config()).map_err(other)?;
        self.result.ops_attempted += steps;
        Ok(Replay {
            system: bd.system().clone(),
            resolved,
            first_window_wall_s,
            trajectory: std::fs::read(dir.join(TRAJECTORY_FILE))?,
        })
    }

    /// `core.<w>.*` from the spans of `workload`'s replay.
    fn core_metrics(&mut self, workload: &str, short: &str) {
        let steady = self.rec.durations_ms(workload, "core.step.steady");
        let refresh = self.rec.durations_ms(workload, "core.step.refresh");
        let p50 = percentile(&steady, 50.0);
        self.put(&format!("core.{short}.step_steady_ms_p50"), Metric::new(p50, "ms", steady.len()));
        // The name says p80; with fewer than 50 steady samples fewer than ten
        // lie beyond it, which the info block states.
        self.put(
            &format!("core.{short}.step_steady_ms_p80"),
            Metric::new(percentile(&steady, 80.0), "ms", steady.len()),
        );
        let tail_ok = highest_percentile(steady.len()).is_some_and(|p| p >= 80);
        self.result.info(&format!("core.{short}.p80_has_10_beyond"), tail_ok);
        self.put(&format!("core.{short}.step_refresh_ms_p50"), Metric::median_of(&refresh, "ms"));
        let total: f64 = steady.iter().chain(&refresh).sum();
        let window: f64 = refresh.iter().map(|r| r - p50).sum();
        self.put(
            &format!("core.{short}.window_share"),
            Metric::new(window / total, "ratio", refresh.len()),
        );
        let forces = self.rec.durations_ms(workload, "core.forces");
        self.put(&format!("core.{short}.forces_ms"), Metric::median_of(&forces, "ms"));
    }

    // ------------------------------------------------------------------
    // host
    // ------------------------------------------------------------------

    /// STREAM triad `a = b + s c` over arrays of at least four times the
    /// last-level cache each (memory permitting), on `T` threads.
    fn host_probes(&mut self) -> f64 {
        let threads = self.ctx.host.threads;
        let llc = self.ctx.host.llc_bytes.max(1 << 20);
        let want = if self.ctx.constants.smoke { 8 << 20 } else { 4 * llc };
        // Three arrays must fit comfortably in what is free, and first
        // touch costs seconds per GiB in a VM: cap each array. The info
        // block states both sizes and whether the 4x rule was met.
        let array_bytes =
            want.min(TRIAD_ARRAY_CAP).min(host::mem_available_bytes() / 8).max(8 << 20);
        let len = (array_bytes / 8) as usize;
        let mut a = vec![0.0f64; len];
        let b = vec![1.5f64; len];
        let c = vec![2.5f64; len];
        let chunk = len.div_ceil(threads);
        let ms = self.timed("host.triad", 3, 1, || {
            std::thread::scope(|scope| {
                for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                    scope.spawn(move || {
                        for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + 3.0 * c;
                        }
                    });
                }
            });
        });
        std::hint::black_box(&a);
        let gbs: Vec<f64> = ms.iter().map(|t| 24.0 * len as f64 / (t * 1e-3) / 1e9).collect();
        let m = Metric::median_of(&gbs, "GB/s");
        let value = m.value;
        self.put("host.triad_gbs", m);
        self.put("host.threads", Metric::new(threads as f64, "count", 1));
        self.result.info("host.triad_array_bytes", Value::Num((len * 8) as f64));
        self.result.info("host.llc_bytes", Value::Num(self.ctx.host.llc_bytes as f64));
        self.result
            .info("host.triad_arrays_ge_4x_llc", (len * 8) as u64 >= 4 * self.ctx.host.llc_bytes);
        value
    }

    // ------------------------------------------------------------------
    // fft
    // ------------------------------------------------------------------

    fn fft_probes(&mut self, kref: usize) -> io::Result<()> {
        for (n, name) in [
            (64, "fft.line_n64.ns"),
            (96, "fft.line_n96.ns"),
            (126, "fft.line_n126.ns"),
            (94, "fft.line_n94_bluestein.ns"),
        ] {
            let plan = FftPlan::new(n).map_err(other)?;
            let input: Vec<Complex64> = probe_vector(2 * n, n as u64)
                .chunks(2)
                .map(|p| Complex64::new(p[0], p[1]))
                .collect();
            let mut data = input.clone();
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            self.timed_metric(name, "ns", 1e6, 7, 2000, || {
                data.copy_from_slice(&input);
                plan.forward(&mut data, &mut scratch);
                std::hint::black_box(&data);
            });
        }
        let single = |t: &mut Self, k: usize, tag: &str, inverse: bool| -> io::Result<f64> {
            let fft = Fft3::new([k, k, k]).map_err(other)?;
            let real0 = probe_vector(fft.real_len(), k as u64);
            let mut real = real0.clone();
            let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
            fft.forward(&real, &mut spec);
            let spec0 = spec.clone();
            let name = format!("fft.{}_{tag}.ms", if inverse { "c2r" } else { "r2c" });
            Ok(t.timed_metric(&name, "ms", 1.0, 7, 1, || {
                if inverse {
                    // The inverse transform consumes its spectrum.
                    spec.copy_from_slice(&spec0);
                    fft.inverse(&mut spec, &mut real);
                } else {
                    fft.forward(&real, &mut spec);
                }
                std::hint::black_box((&real, &spec));
            }))
        };
        let r2c_k64 = single(self, 64, "k64", false)?;
        single(self, 64, "k64", true)?;
        single(self, 128, "k128", false)?;
        let k3 = 64.0f64.powi(3);
        let flops = 2.5 * k3 * k3.log2();
        self.put(
            "fft.r2c_k64.gflops",
            Metric::new(flops / (r2c_k64 * 1e-3) / 1e9, "GF/s", 1).computed(),
        );

        let batch =
            |t: &mut Self, k: usize, width: usize, name: &str, roundtrip: bool| -> io::Result<()> {
                let fft = Fft3::new([k, k, k]).map_err(other)?;
                let mut reals = probe_vector(width * fft.real_len(), (k * width) as u64);
                let mut spectra = vec![Complex64::ZERO; width * fft.spectrum_len()];
                let ms = t.timed(name.rsplit_once('.').expect("dotted name").0, 3, 1, || {
                    fft.forward_batch(&reals, &mut spectra, width);
                    if roundtrip {
                        fft.inverse_batch(&mut spectra, &mut reals, width);
                        // Unnormalized transforms: undo the K^3 gain so repeated
                        // round trips stay finite.
                        let gain = 1.0 / fft.real_len() as f64;
                        reals.iter_mut().for_each(|v| *v *= gain);
                    }
                    std::hint::black_box((&reals, &spectra));
                });
                let per_mesh: Vec<f64> = ms.iter().map(|v| v / width as f64).collect();
                t.put(name, Metric::median_of(&per_mesh, "ms/mesh"));
                Ok(())
            };
        batch(self, 64, 12, "fft.r2c_batch12_k64.ms_per_mesh", false)?;
        batch(self, kref, 3 * S16, "fft.roundtrip_batch48_kref.ms_per_mesh", true)?;
        // Last, so they sit next in time to the `pme.apply_s1` rung whose
        // FFT share they give (the host drifts by 10 % over seconds).
        single(self, kref, "kref", false)?;
        single(self, kref, "kref", true)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // pme, krylov, pse (periodic shape at the final positions)
    // ------------------------------------------------------------------

    fn pme_probes(
        &mut self,
        positions: &[Vec3],
        params: PmeParams,
        triad_gbs: f64,
    ) -> io::Result<()> {
        let n = positions.len();
        let k = params.mesh_dim;
        let mut plans = None;
        self.timed_metric("pme.plans_build.ms", "ms", 1.0, 5, 1, || {
            plans = Some(PmePlans::new(params).expect("PME plans for the tuned shape"));
        });
        let plans = Arc::new(plans.expect("built at least once"));
        let mut op = None;
        self.timed_metric("pme.operator_build.ms", "ms", 1.0, 5, 1, || {
            op = Some(PmeOperator::with_plans(positions, Arc::clone(&plans)));
        });
        let mut op = op.expect("built at least once");

        let f = probe_vector(3 * n, 11);
        let mut u = vec![0.0; 3 * n];
        let apply_ms =
            self.timed_metric("pme.apply_s1.ms", "ms", 1.0, 9, 1, || op.apply(&f, &mut u));
        let mut mesh = vec![0.0; 3 * k * k * k];
        let spread_ms = self
            .timed_metric("pme.spread.ms", "ms", 1.0, 15, 1, || op.spread_forces(&f, &mut mesh));
        let interp_ms = self
            .timed_metric("pme.interp.ms", "ms", 1.0, 15, 1, || op.interpolate_add(&mesh, &mut u));
        self.timed_metric("pme.real_apply.ms", "ms", 1.0, 15, 4, || op.real_apply(&f, &mut u));
        let f16 = probe_vector(3 * n * S16, 12);
        let mut u16 = vec![0.0; 3 * n * S16];
        self.timed_metric(
            "pme.real_apply_s16.ms_per_col",
            "ms/col",
            1.0 / S16 as f64,
            9,
            1,
            || {
                op.real_apply_multi(&f16, &mut u16, S16);
            },
        );
        self.timed_metric("pme.apply_s16.ms_per_col", "ms/col", 1.0 / S16 as f64, 3, 1, || {
            op.apply_multi(&f16, &mut u16, S16);
        });

        // Shares and model ratios from the rungs already measured.
        let value = |t: &Self, name: &str| t.metrics[name].value;
        let fft_ms = 3.0 * (value(self, "fft.r2c_kref.ms") + value(self, "fft.c2r_kref.ms"));
        self.put("pme.fft_share", Metric::new(fft_ms / apply_ms, "ratio", 1));
        // The model's machine: measured triad bandwidth, FFT asymptote set
        // from the measured K = 128 transform through the model's own
        // saturation curve. Rates are computed from the model's byte and
        // flop formulas, not counted.
        let westmere = Machine::westmere();
        let k128 = PerfModel::new(westmere, 128, params.spline_order, n);
        let rate128 = k128.fft_flops() / 3.0 / (value(self, "fft.r2c_k128.ms") * 1e-3);
        let asymptote = rate128 * (128f64.powi(3) + westmere.fft_sat_k3) / 128f64.powi(3);
        let machine = Machine {
            name: "measured host",
            bandwidth: triad_gbs * 1e9,
            fft_flops: asymptote,
            ifft_flops: asymptote,
            ..westmere
        };
        let model = PerfModel::new(machine, k, params.spline_order, n);
        self.put(
            "pme.spread.gbs",
            Metric::new(model.spreading_bytes() / (spread_ms * 1e-3) / 1e9, "GB/s", 1).computed(),
        );
        self.put(
            "pme.interp.gbs",
            Metric::new(model.interpolation_bytes() / (interp_ms * 1e-3) / 1e9, "GB/s", 1)
                .computed(),
        );
        self.put(
            "pme.model_ratio_spread",
            Metric::new(spread_ms * 1e-3 / model.t_spreading(), "ratio", 1).computed(),
        );
        self.put(
            "pme.model_ratio_interp",
            Metric::new(interp_ms * 1e-3 / model.t_interpolation(), "ratio", 1).computed(),
        );
        self.put(
            "pme.model_ratio_fft",
            Metric::new(fft_ms * 1e-3 / (model.t_fft() + model.t_ifft()), "ratio", 1).computed(),
        );

        let err = pme_rel_err_vs_dense(positions, params).map_err(other)?;
        self.put("pme.rel_err_vs_dense", Metric::new(err, "ratio", 3));
        self.result.check(
            "accuracy_gate.pme",
            err <= E_P,
            format!("pme.rel_err_vs_dense {err:.3e} <= e_p {E_P:.0e}"),
        );

        self.krylov_probe(&mut op, n);
        Ok(())
    }

    /// One block-Lanczos window over the PME operator through the tracing
    /// wrapper, then the square-root identity on its result.
    fn krylov_probe(&mut self, op: &mut PmeOperator, n: usize) {
        let dim = 3 * n;
        let z = normal_vector(dim * S16, 21);
        let cfg = KrylovConfig { tol: E_K, max_iter: 100, check_interval: 1 };
        let first = self.rec.spans().len();
        let solved = self.rec.scope("krylov.block_window_s16", |rec| {
            let mut traced = TracedOp { inner: op, rec, span: "krylov.apply_multi" };
            block_lanczos_sqrt(&mut traced, &z, S16, &cfg)
        });
        let window = self.rec.spans()[first].clone();
        let own = spans::self_times_ns(self.rec.spans())[first];
        self.put("krylov.block_window_s16.ms", Metric::new(window.ms_per_call(), "ms", 1));
        self.put(
            "krylov.block_window_s16.self_share",
            Metric::new(own as f64 / window.duration_ns().max(1) as f64, "ratio", 1),
        );
        match solved {
            Ok((d, stats)) => {
                self.put(
                    "krylov.block_window_s16.iterations",
                    Metric::new(stats.iterations as f64, "count", 1),
                );
                self.result.check(
                    "krylov.converged",
                    stats.converged,
                    format!("{} iterations", stats.iterations),
                );
                // |d_j|^2 must equal z_j^T M z_j when d = M^{1/2} z.
                let mut mz = vec![0.0; dim * S16];
                op.apply_multi(&z, &mut mz, S16);
                let mut worst = 0.0f64;
                for j in 0..S16 {
                    let (mut dd, mut zmz) = (0.0, 0.0);
                    for i in 0..dim {
                        dd += d[i * S16 + j] * d[i * S16 + j];
                        zmz += z[i * S16 + j] * mz[i * S16 + j];
                    }
                    worst = worst.max((dd - zmz).abs() / zmz.abs().max(f64::MIN_POSITIVE));
                }
                self.put("krylov.sqrt_identity_err", Metric::new(worst, "ratio", S16));
                self.result.check(
                    "krylov.sqrt_identity",
                    worst <= SQRT_IDENTITY_BOUND,
                    format!("max_j | |d_j|^2 - z_j^T M z_j | / z_j^T M z_j = {worst:.3e} <= {SQRT_IDENTITY_BOUND:.1e}"),
                );
            }
            Err(e) => self.result.check("krylov.converged", false, e.to_string()),
        }
    }

    fn pse_probes(&mut self, positions: &[Vec3], params: PmeParams) -> io::Result<()> {
        let pse = PseSplit::default().resolve(&params);
        let mut sampler = None;
        let mut build_error = None;
        self.timed_metric("pse.sampler_build.ms", "ms", 1.0, 2, 1, || {
            match PseSampler::new(positions, pse) {
                Ok(s) => sampler = Some(s),
                Err(e) => build_error = Some(e.to_string()),
            }
        });
        let Some(mut sampler) = sampler else {
            return Err(other(build_error.unwrap_or_else(|| "PSE sampler was not built".into())));
        };
        let mut failure = None;
        self.timed_metric("pse.rebuild.ms", "ms", 1.0, 2, 1, || {
            if let Err(e) = sampler.rebuild(positions) {
                failure = Some(e.to_string());
            }
        });
        let mut rng = StdRng::seed_from_u64(self.ctx.seed);
        let mut out = vec![0.0; 3 * positions.len() * S16];
        let cfg = KrylovConfig { tol: E_K, max_iter: 100, check_interval: 1 };
        let mut iterations = 0;
        let mut calls = 0usize;
        let transforms_before = sampler.mesh_transforms();
        self.timed_metric("pse.sample_block_s16.ms", "ms", 1.0, 3, 1, || {
            calls += 1;
            match sampler.sample_block(&mut rng, &mut out, S16, &cfg) {
                Ok(stats) => iterations = stats.iterations,
                Err(e) => failure = Some(e.to_string()),
            }
        });
        self.result.check("pse.sample_block", failure.is_none(), failure.unwrap_or_default());
        self.put(
            "pse.sample_block_s16.near_iterations",
            Metric::new(iterations as f64, "count", 1),
        );
        let per_call = (sampler.mesh_transforms() - transforms_before) as f64 / calls as f64;
        self.put("pse.sample_block_s16.mesh_transforms", Metric::new(per_call, "count", calls));
        self.result.info("pse.near_matvec_columns", sampler.near_matvec_columns());
        Ok(())
    }

    // ------------------------------------------------------------------
    // rpy
    // ------------------------------------------------------------------

    fn rpy_probes(&mut self, cloud: &[Vec3], a: f64, periodic: PmeParams) {
        // Free pairs: every target against tiles of consecutive sources.
        let tiles = (cloud.len() / PAIR_TILE).clamp(1, 16);
        let targets = cloud.len().min(512);
        let coords = |f: fn(&Vec3) -> f64| cloud.iter().map(f).collect::<Vec<f64>>();
        let (sx, sy, sz) = (coords(|p| p.x), coords(|p| p.y), coords(|p| p.z));
        let v = probe_vector(3 * cloud.len(), 31);
        let (vx, rest) = v.split_at(cloud.len());
        let (vy, vz) = rest.split_at(cloud.len());
        let tile = PAIR_TILE.min(cloud.len());
        let pairs = (targets * tiles * tile) as u32;
        let mut acc = [0.0; 3];
        let per_pair = self.timed("rpy.pairs_free", 7, 1, || {
            for p in &cloud[..targets] {
                for t in 0..tiles {
                    let r = t * tile..(t + 1) * tile;
                    rpy_pairs_accumulate(
                        a,
                        p.x,
                        p.y,
                        p.z,
                        &sx[r.clone()],
                        &sy[r.clone()],
                        &sz[r.clone()],
                        &vx[r.clone()],
                        &vy[r.clone()],
                        &vz[r],
                        &mut acc,
                    );
                }
            }
            std::hint::black_box(&acc);
        });
        let ns: Vec<f64> = per_pair.iter().map(|ms| ms * 1e6 / f64::from(pairs)).collect();
        self.put("rpy.pairs_free.ns_per_pair", Metric::median_of(&ns, "ns/pair"));

        // Ewald real-space tensors, four pairs per call, separations spread
        // over (2a, r_max) like a near-field assembly sees them.
        let ewald = RpyEwald::kernel_only(periodic.a, periodic.eta, periodic.box_l, periodic.alpha);
        let dirs = probe_vector(3 * 4096, 32);
        let quads: Vec<[Vec3; 4]> = dirs
            .chunks_exact(12)
            .enumerate()
            .map(|(q, c)| {
                std::array::from_fn(|t| {
                    let d = Vec3::new(c[3 * t], c[3 * t + 1], c[3 * t + 2]);
                    let len = 2.0 * periodic.a
                        + (periodic.r_max - 2.0 * periodic.a) * ((4 * q + t) % 97) as f64 / 97.0;
                    d * (len / d.norm().max(1e-12))
                })
            })
            .collect();
        let mut out = [[0.0; 9]; 4];
        let per_sweep = self.timed("rpy.pairs_ewald_real", 7, 8, || {
            for rv in &quads {
                real_tensors_with_overlap4(&ewald, rv, &mut out);
            }
            std::hint::black_box(&out);
        });
        let ns: Vec<f64> = per_sweep.iter().map(|ms| ms * 1e6 / (4 * quads.len()) as f64).collect();
        self.put("rpy.pairs_ewald_real.ns_per_pair", Metric::median_of(&ns, "ns/pair"));
    }

    // ------------------------------------------------------------------
    // treecode
    // ------------------------------------------------------------------

    fn tree_probes(&mut self, small: &[Vec3], params: TreeParams) {
        let fmm = TreeParams { eval: TreeEval::Fmm, ..params };
        let tree = TreeParams { eval: TreeEval::Tree, ..params };
        let mut op = None;
        self.timed_metric("treecode.build_n2000.ms", "ms", 1.0, 5, 1, || {
            op = Some(TreeOperator::new(small, tree));
        });
        let apply = |t: &mut Self,
                     name: &str,
                     positions: &[Vec3],
                     p: TreeParams,
                     reps: usize|
         -> TreeOperator {
            let mut op = TreeOperator::new(positions, p);
            let x = probe_vector(3 * positions.len(), 41);
            let mut y = vec![0.0; x.len()];
            t.timed_metric(name, "ms", 1.0, reps, 1, || op.apply(&x, &mut y));
            op
        };
        apply(self, "treecode.apply_tree_n2000.ms", small, tree, 5);
        apply(self, "treecode.apply_fmm_n2000.ms", small, fmm, 5);
        let large_shape = RunShape {
            particles: self.ctx.constants.tree_large_particles,
            ..self.ctx.constants.open
        };
        let spec = SimSpec::parse(&run_config_text(&large_shape, self.ctx.seed, 0))
            .expect("generated config");
        let large = spec.build_system(self.ctx.seed);
        apply(self, "treecode.apply_tree_n8000.ms", large.positions(), tree, 3);
        let fmm_op = apply(self, "treecode.apply_fmm_n8000.ms", large.positions(), fmm, 3);
        let mib = fmm_op.state_memory_bytes() as f64 / (1 << 20) as f64;
        self.put("treecode.fmm_state_mib_n8000", Metric::new(mib, "MiB", 1));
        let err = tree_rel_err_vs_dense(small, params);
        self.put("treecode.rel_err_vs_dense", Metric::new(err, "ratio", 3));
        self.result.check(
            "accuracy_gate.treecode",
            err <= E_P,
            format!("treecode.rel_err_vs_dense {err:.3e} <= e_p {E_P:.0e}"),
        );
    }

    // ------------------------------------------------------------------
    // engine
    // ------------------------------------------------------------------

    /// Four same-shape replicas: one lockstep `EnsembleRunner` against four
    /// standalone drivers stepped one after another, construction and both
    /// window refreshes inside the timed region. Measured once: each side
    /// costs seconds.
    fn engine_probes(&mut self) -> io::Result<()> {
        const R: u64 = 4;
        let shape = self.ctx.constants.engine;
        let seed = self.ctx.seed;
        let spec = SimSpec::parse(&run_config_text(&shape, seed, shape.steps)).map_err(other)?;
        let cfg = spec.matrix_free_config();
        let jobs = || (0..R).map(|r| (spec.build_system(seed + r), seed + r)).collect::<Vec<_>>();
        let seconds_of = |rec: &Recorder, span: usize| rec.spans()[span].duration_ns() as f64 / 1e9;

        let first = self.rec.spans().len();
        let (mib, misses) =
            self.rec.scope("engine.ensemble_r4.run", |_| -> io::Result<(f64, f64)> {
                let mut runner = EnsembleRunner::new(cfg, jobs()).map_err(other)?;
                for _ in 0..shape.steps {
                    runner.step().map_err(other)?;
                }
                Ok((
                    runner.memory_bytes() as f64 / (1 << 20) as f64,
                    runner.cache().misses() as f64,
                ))
            })?;
        let ensemble_s = seconds_of(&self.rec, first);

        let first = self.rec.spans().len();
        self.rec.scope("engine.solo_x4.run", |_| -> io::Result<()> {
            for (system, job_seed) in jobs() {
                let mut bd = MatrixFreeBd::new(system, cfg, job_seed).map_err(other)?;
                for _ in 0..shape.steps {
                    bd.step().map_err(other)?;
                }
            }
            Ok(())
        })?;
        let solo_s = seconds_of(&self.rec, first);
        self.result.ops_attempted += 2 * R as usize * shape.steps;

        let replica_steps = (R as usize * shape.steps) as f64;
        self.put(
            "engine.ensemble_r4.replica_steps_per_s",
            Metric::new(replica_steps / ensemble_s, "steps/s", 1),
        );
        self.put(
            "engine.solo_x4.replica_steps_per_s",
            Metric::new(replica_steps / solo_s, "steps/s", 1),
        );
        self.put("engine.ensemble_r4.speedup", Metric::new(solo_s / ensemble_s, "ratio", 1));
        self.put("engine.ensemble_r4.mib", Metric::new(mib, "MiB", 1));
        self.put("engine.plan_cache.misses", Metric::new(misses, "count", 1));
        Ok(())
    }

    // ------------------------------------------------------------------
    // serve
    // ------------------------------------------------------------------

    fn serve_probes(&mut self) -> io::Result<()> {
        let ctx = self.ctx;
        let shape = ctx.constants.serve;
        let jobs = shape.jobs(ctx.seed, 1);
        let dir = ctx.work.join("trace_serve");

        // The spool through the daemon, watching for the first commit.
        let out_root = dir.join("out");
        let names: Vec<String> = jobs.iter().map(|j| j.name.clone()).collect();
        let mut first_done: Option<f64> = None;
        let mut tick = |elapsed: f64| {
            if first_done.is_none()
                && names.iter().any(|n| {
                    std::fs::read_to_string(out_root.join(n).join("meta.json"))
                        .is_ok_and(|m| meta_is_done(&m))
                })
            {
                first_done = Some(elapsed);
            }
        };
        let served = serve_once(ctx, &shape, &jobs, &dir, Watch::Rss { tick: &mut tick })?;
        self.result.ops_attempted += jobs.len();
        check_serve_outputs(&mut self.result, &shape, &jobs, &dir, &served)?;
        let mtime = |p: &Path| {
            std::fs::metadata(p).and_then(|m| m.modified()).unwrap_or(SystemTime::UNIX_EPOCH)
        };
        let started = mtime(&dir.join("serve.conf"));
        let last_commit = names
            .iter()
            .map(|n| mtime(&out_root.join(n).join("meta.json")))
            .max()
            .unwrap_or(started);
        let commit_s = last_commit.duration_since(started).map_or(0.0, |d| d.as_secs_f64());
        self.put(
            "serve.first_job_done_s",
            Metric::new(first_done.unwrap_or(served.wall_s), "s", 1),
        );
        self.put("serve.drain_tail_s", Metric::new((served.wall_s - commit_s).max(0.0), "s", 1));
        self.put(
            "serve.output_mib",
            Metric::new(dir_bytes(&out_root) as f64 / (1 << 20) as f64, "MiB", 1),
        );
        self.result.info("serve.wall_s", served.wall_s);

        // The same eight configs as back-to-back `hibd run` children.
        let mut sequential_s = 0.0;
        let mut all_ok = true;
        for job in &jobs {
            let run_shape = shape.run_shape(job);
            let run = run_once(
                ctx,
                &run_shape,
                job.seed,
                job.steps,
                ctx.host.threads,
                &dir,
                Watch::Nothing,
            )?;
            all_ok &= run.success;
            sequential_s += run.wall_s;
        }
        self.result.ops_attempted += jobs.len();
        self.result.check(
            "serve.sequential_exit_status",
            all_ok,
            format!("{} children", jobs.len()),
        );
        let per_hour = 3600.0 * jobs.len() as f64 / sequential_s;
        self.put("serve.sequential.jobs_per_hour", Metric::new(per_hour, "jobs/h", jobs.len()));
        self.put(
            "serve.speedup_vs_sequential",
            Metric::new(sequential_s / served.wall_s, "ratio", 1),
        );
        Ok(())
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The traced run with `focus` as the workload in focus. Writes the span
/// file to `trace_out` and returns every per-layer metric.
pub fn trace_workload(ctx: &Ctx, focus: &str, trace_out: &Path) -> io::Result<WorkloadResult> {
    let c = &ctx.constants;
    let mut t = Tracer {
        ctx,
        focus,
        rec: Recorder::new(),
        metrics: BTreeMap::new(),
        result: WorkloadResult::default(),
    };
    t.result.info("focus", Value::str(focus));
    t.result.info("loadavg_before", host::loadavg());
    let started = std::time::Instant::now();
    let lap = |what: &str| {
        eprintln!(
            "[bench_ladder] trace {focus}: {what} done at {:.1} s",
            started.elapsed().as_secs_f64()
        );
    };

    // core: replays, then the same runs as untraced children.
    let mut replays: BTreeMap<&str, Replay> = BTreeMap::new();
    for (workload, short) in CORE_WORKLOADS {
        let shape = *c.run_shape(workload).expect("run workload");
        let steps = if workload == t.focus { c.trace_focus_steps } else { c.trace_other_steps };
        let replay = t.replay(workload, &shape, steps)?;
        t.core_metrics(workload, short);
        replays.insert(workload, replay);
    }
    lap("replays");
    // The first window of each run workload again, as an untraced child:
    // Krylov iterations, the bitwise replay-equals-child check, and the
    // tracing overhead on the workload in focus.
    let overhead_on = if focus == SERVE_SPOOL { PERIODIC_RUN } else { focus };
    let child_dir = ctx.work.join("trace_child");
    let mut periodic_wall_t = 0.0;
    for (workload, short) in CORE_WORKLOADS {
        let shape = *c.run_shape(workload).expect("run workload");
        let replay = &replays[workload];
        let run = run_once(
            ctx,
            &shape,
            ctx.seed,
            c.trace_other_steps,
            ctx.host.threads,
            &child_dir,
            Watch::Nothing,
        )?;
        let child_bytes = std::fs::read(child_dir.join(TRAJECTORY_FILE)).unwrap_or_default();
        t.result.check(
            format!("core.{short}.replay_matches_child"),
            run.success && !child_bytes.is_empty() && replay.trajectory.starts_with(&child_bytes),
            format!(
                "first {} steps, child trajectory fnv1a {:016x}",
                c.trace_other_steps,
                fnv1a(&child_bytes)
            ),
        );
        match parse_krylov_iterations(&run.stdout) {
            Some(k) => {
                t.put(
                    &format!("core.{short}.krylov_iterations"),
                    Metric::new(k as f64, "count", 1),
                );
            }
            None => {
                return Err(other(format!(
                    "no Krylov iteration count in the {workload} child's output"
                )))
            }
        }
        if workload == overhead_on {
            let share = (replay.first_window_wall_s - run.wall_s) / run.wall_s;
            t.put("trace.overhead_share", Metric::new(share, "ratio", 1));
            t.result.info("trace.overhead_workload", Value::str(workload));
            t.result.info("trace.replay_first_window_wall_s", replay.first_window_wall_s);
            t.result.info("trace.child_wall_s", run.wall_s);
        }
        if workload == PERIODIC_RUN {
            periodic_wall_t = run.wall_s;
        }
    }
    // Thread scaling of the periodic run: the same child on one thread.
    let wall_1 =
        run_once(ctx, &c.periodic, ctx.seed, c.trace_other_steps, 1, &child_dir, Watch::Nothing)?
            .wall_s;
    t.put("core.periodic.speedup_t2", Metric::new(wall_1 / periodic_wall_t, "ratio", 1));
    let out_spans = |t: &Tracer<'_>, name: &str| t.rec.durations_ms(overhead_on, name);
    let (ckpt, frame) = (out_spans(&t, "core.checkpoint_save"), out_spans(&t, "core.xyz_frame"));
    t.put("core.checkpoint_save.ms", Metric::median_of(&ckpt, "ms"));
    t.put("core.xyz_frame.ms", Metric::median_of(&frame, "ms"));

    lap("untraced children");
    // Rungs, labelled with the workload in focus.
    t.rec.set_workload(focus);
    let pme_from = if focus == PSE_RUN { PSE_RUN } else { PERIODIC_RUN };
    let pme_params = replays[pme_from].resolved.pme.expect("periodic workloads resolve to PME");
    let pme_positions = replays[pme_from].system.positions().to_vec();
    let open = &replays[OPEN_RUN];
    let tree_params = open.resolved.tree.expect("the open workload resolves to the treecode");
    let open_positions = open.system.positions().to_vec();
    match focus {
        SERVE_SPOOL => {
            serve_shape_info(&mut t.result, &serve_shapes(&c.serve, &c.serve.jobs(ctx.seed, 1))?);
        }
        _ => shape_info(&mut t.result, &replays[focus].resolved),
    }
    t.result.info("rungs.kref", pme_params.mesh_dim);
    t.result.info("rungs.pme_positions_from", Value::str(pme_from));

    let triad = t.host_probes();
    lap("host");
    t.fft_probes(pme_params.mesh_dim)?;
    lap("fft");
    t.pme_probes(&pme_positions, pme_params, triad)?;
    lap("pme + krylov");
    t.pse_probes(&pme_positions, pme_params)?;
    t.rpy_probes(&open_positions, tree_params.a, pme_params);
    lap("pse + rpy");
    t.tree_probes(&open_positions, tree_params);
    lap("treecode");
    t.engine_probes()?;
    lap("engine");
    t.serve_probes()?;
    lap("serve");

    if let Some(parent) = trace_out.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(trace_out, spans::to_json(t.rec.spans()).to_compact())?;
    t.result.info("spans", t.rec.spans().len());

    // Every catalogue metric, in catalogue order; a gap is a harness bug.
    let Tracer { mut metrics, mut result, .. } = t;
    for layer in per_layer() {
        match metrics.remove(&layer.name) {
            Some(m) if m.unit == layer.unit && m.value.is_finite() => {
                result.per_layer.push((layer.name, m));
            }
            Some(m) => {
                return Err(other(format!(
                    "metric {} is {} {}, expected a finite {}",
                    layer.name, m.value, m.unit, layer.unit
                )))
            }
            None => return Err(other(format!("metric {} was not measured", layer.name))),
        }
    }
    if let Some(extra) = metrics.keys().next() {
        return Err(other(format!("metric {extra} is not in the catalogue")));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_linalg::DenseOp;

    #[test]
    fn normal_vectors_are_deterministic_with_unit_variance() {
        let z = normal_vector(20_001, 3);
        assert_eq!(z.len(), 20_001);
        assert_eq!(z, normal_vector(20_001, 3));
        let mean = z.iter().sum::<f64>() / z.len() as f64;
        let var = z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 0.03 && (var - 1.0).abs() < 0.05, "mean {mean}, var {var}");
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn traced_operator_splits_a_solve_into_applies_and_self_time() {
        let n = 12;
        let mut dense = DenseOp::new(hibd_linalg::DMat::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + i as f64
            } else {
                0.1
            }
        }));
        let z = normal_vector(n * 2, 1);
        let mut rec = Recorder::new();
        let (_, stats) = rec
            .scope("krylov.block_window_s16", |rec| {
                let mut traced = TracedOp { inner: &mut dense, rec, span: "krylov.apply_multi" };
                block_lanczos_sqrt(&mut traced, &z, 2, &KrylovConfig::default())
            })
            .unwrap();
        let spans = rec.spans();
        let applies = spans.iter().filter(|s| s.name == "krylov.apply_multi").count();
        assert_eq!(applies, stats.iterations);
        assert!(spans.iter().skip(1).all(|s| s.parent == Some(0)));
        let own = spans::self_times_ns(spans);
        let children: u64 = spans.iter().skip(1).map(spans::Span::duration_ns).sum();
        assert_eq!(own[0], spans[0].duration_ns() - children);
    }
}
