//! Shared helpers for the hibd experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the index). All binaries accept:
//!
//! * `--quick` — scaled-down workloads (default on this 1-core host);
//! * `--full`  — paper-scale workloads (hours of wall clock);
//! * `--seed N` — RNG seed.
//!
//! Paper-only executors live here too, out of the production crates:
//! [`hybrid`] (the *modeled* Section IV-E CPU + Xeon Phi scheduler),
//! [`compose`] (overlapped, on-the-fly and per-column PME applies built from
//! a `PmeOperator`'s read-only parts) and [`chebyshev`] (Fixman's polynomial
//! `M^{1/2} z`, the paper's ref. \[25\] comparison).

pub mod chebyshev;
pub mod compose;
pub mod hybrid;

use hibd_core::diffusion::DiffusionEstimator;
use hibd_core::mf_bd::MatrixFreeBd;
use hibd_core::system::ParticleSystem;
use hibd_linalg::{DenseOp, LinearOperator};
use hibd_mathx::Vec3;
use hibd_pme::perf::{Fit, Machine};
use hibd_pme::tuner::reference_operator;
use hibd_pme::PmeParams;
use hibd_rpy::{dense_ewald_mobility, RpyEwald};
use hibd_telemetry::{self as telemetry, Counter, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Parsed command-line options shared by all harnesses.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub full: bool,
    pub seed: u64,
}

impl Opts {
    pub fn parse() -> Opts {
        let mut full = false;
        let mut seed = 2014;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => full = true,
                "--quick" => full = false,
                "--seed" => {
                    seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed requires an integer");
                }
                "--help" | "-h" => {
                    eprintln!("options: --quick (default) | --full | --seed N");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; see --help");
                    std::process::exit(2);
                }
            }
        }
        Opts { full, seed }
    }
}

/// Build the standard monodisperse test suspension.
pub fn suspension(n: usize, phi: f64, seed: u64) -> ParticleSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    ParticleSystem::random_suspension(n, phi, &mut rng)
}

/// Build the standard open-boundary test cluster (free-space RPY backends).
pub fn cluster(n: usize, phi: f64, seed: u64) -> ParticleSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    ParticleSystem::random_cluster_with(n, phi, 1.0, 1.0, &mut rng)
}

/// The trusted operator an accuracy gate measures `e_p` against, and its
/// name: the tight-tolerance dense Ewald matrix where affordable
/// (n <= 500) — at the classic cost-balanced splitting parameter, since the
/// total is xi-independent and the PME `alpha` would make the reference's
/// reciprocal table enormous — an over-resolved PME operator with its own
/// split otherwise.
pub fn mobility_reference(
    positions: &[Vec3],
    p: &PmeParams,
) -> (Box<dyn LinearOperator>, &'static str) {
    let n = positions.len();
    if n <= 500 {
        let xi_bal = std::f64::consts::PI.sqrt() * (n as f64).powf(1.0 / 6.0) / p.box_l;
        let ewald = RpyEwald::new(p.a, p.eta, p.box_l, xi_bal, 1e-6);
        (Box::new(DenseOp::new(dense_ewald_mobility(positions, &ewald))), "dense Ewald")
    } else {
        (Box::new(reference_operator(positions, p)), "over-resolved PME")
    }
}

/// Paper Table III particle counts (quick subset vs full list).
pub fn table3_sizes(full: bool) -> Vec<usize> {
    if full {
        vec![
            500, 600, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 10_000, 20_000, 50_000,
            80_000, 100_000, 200_000, 300_000, 500_000,
        ]
    } else {
        vec![500, 1000, 2000, 5000, 10_000]
    }
}

/// One telemetry-recorded measurement window: resets the global recorder,
/// enables it, runs `f`, and returns its result together with the window's
/// snapshot. Replaces the per-harness `Instant` bookkeeping — every phase
/// and counter recorded inside `f` lands in one mergeable [`Snapshot`].
pub fn telemetry_window<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    telemetry::reset();
    telemetry::enable();
    let r = f();
    let snap = telemetry::snapshot();
    telemetry::disable();
    (r, snap)
}

/// Result of a telemetry-windowed diffusion run ([`run_bd_diffusion`]).
pub struct BdRun {
    /// Short-time self-diffusion coefficient.
    pub d: f64,
    /// Statistical error of `d`.
    pub d_err: f64,
    /// Amortized seconds per BD step (telemetry phase totals).
    pub seconds_per_step: f64,
    /// Cumulative Krylov iterations of the driver.
    pub krylov_iterations: usize,
    /// The measurement window's telemetry snapshot.
    pub snap: Snapshot,
}

/// The shared Table II / Figure 3 measurement loop: equilibrate `steps/10`,
/// then run `steps` recorded steps with diffusion sampling in a fresh
/// telemetry window.
pub fn run_bd_diffusion(bd: &mut MatrixFreeBd, steps: usize) -> BdRun {
    bd.run(steps / 10).expect("equilibration");
    let mut est = DiffusionEstimator::new(bd.config().dt, 8);
    let ((), snap) = telemetry_window(|| {
        est.record(bd.system().unwrapped());
        for _ in 0..steps {
            bd.step().expect("step");
            est.record(bd.system().unwrapped());
        }
    });
    let (d, d_err) = est.diffusion().expect("diffusion estimate");
    BdRun {
        d,
        d_err,
        seconds_per_step: snap.step_seconds(steps as u64),
        krylov_iterations: bd.snapshot().counter(Counter::LanczosIterations) as usize,
        snap,
    }
}

/// Time a closure once (seconds).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Time a closure with one warmup and `reps` measured repetitions; returns
/// the mean seconds.
pub fn time_mean(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// A [`Machine`] for *this* host, fitted ([`Fit`]) from a STREAM-like triad
/// and one r2c + one c2r transform at K = 64, so the Section IV-D model can
/// be compared against measurements on the machine actually running. Prints
/// the raw timings as a `#` line: the fitted machine's `t_fft` / `t_ifft` at
/// K = 64 are three times those transforms, by construction.
pub fn calibrate_host() -> Machine {
    // Out-of-cache triad a[i] = b[i] + s*c[i]: 8 Mi doubles per array, 192
    // MiB of traffic per pass.
    let n = 8 << 20;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let t_triad = time_mean(3, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + 0.5 * z;
        }
        std::hint::black_box(&a);
    });

    let k = 64;
    let fft = hibd_fft::Fft3::new([k, k, k]).expect("smooth size");
    let real = vec![0.1f64; k * k * k];
    let mut spec = vec![hibd_fft::Complex64::ZERO; fft.spectrum_len()];
    let t_fft = time_mean(10, || {
        fft.forward(&real, &mut spec);
        std::hint::black_box(&spec);
    });
    let mut inv_spec = spec.clone();
    let mut out = vec![0.0f64; k * k * k];
    let t_ifft = time_mean(10, || {
        inv_spec.copy_from_slice(&spec);
        fft.inverse(&mut inv_spec, &mut out);
        std::hint::black_box(&out);
    });

    // The saturation scale and assembly rate are not measured here: they
    // stay as pinned for the reference host.
    let fit = Fit::new(Machine::reference())
        .stream((3 * n * 8) as f64, t_triad)
        .transforms(k, 1.0, t_fft, t_ifft);
    let host = Machine { name: "this host (calibrated)", peak_flops: 0.0, ..fit.machine() };
    println!(
        "# host calibration: triad {:.1} GB/s; K = {k} r2c {}, c2r {} -> asymptotes fft {:.2} GF/s, \
         ifft {:.2} GF/s",
        host.bandwidth / 1e9,
        fmt_secs(t_fft),
        fmt_secs(t_ifft),
        host.fft_flops / 1e9,
        host.ifft_flops / 1e9
    );
    host
}

/// Flush stdout (harness rows must survive a timeout kill).
pub fn flush_stdout() {
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// Format seconds for table output.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Format bytes with binary units.
pub fn fmt_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1}{}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(123.0), "123");
        assert_eq!(fmt_secs(1.5), "1.50");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(2.5e-5), "25.0us");
        assert_eq!(fmt_bytes(512), "512.0B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MiB");
    }

    #[test]
    fn suspension_builder_is_seeded() {
        let a = suspension(20, 0.1, 7);
        let b = suspension(20, 0.1, 7);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn table3_lists() {
        assert!(table3_sizes(false).len() < table3_sizes(true).len());
        assert!(table3_sizes(true).contains(&500_000));
    }

    #[test]
    fn timing_helpers_run() {
        let (v, t) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
        let m = time_mean(2, || {
            std::hint::black_box(1 + 1);
        });
        assert!(m >= 0.0);
    }
}
