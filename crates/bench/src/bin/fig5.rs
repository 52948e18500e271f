//! Figure 5: reciprocal-space PME phase breakdown vs n and vs K,
//! measured against the Section IV-D performance model.
//!
//! (a) fixed mesh `K`, sweep particle count `n`;
//! (b) fixed `n`, sweep mesh dimension `K`.
//!
//! Both the measured per-phase seconds (spreading / forward FFT / influence
//! / inverse FFT / interpolation) and the model's prediction for *this host*
//! (`calibrate_host`: triad bandwidth, FFT asymptotes fitted at K = 64) are
//! printed; the `model fft` column is `t_fft + t_ifft`, which at K = 64 is
//! three times the calibration's r2c + c2r by construction.

use hibd_bench::{calibrate_host, flush_stdout, fmt_secs, suspension, time_mean, Opts};
use hibd_pme::perf::PerfModel;
use hibd_pme::{PmeOperator, PmeParams};
use hibd_telemetry::Phase;

/// Prints one row; returns measured / modeled total reciprocal time.
fn breakdown(
    n: usize,
    k: usize,
    p: usize,
    phi: f64,
    seed: u64,
    reps: usize,
    host: &PerfModel,
) -> f64 {
    let box_l = hibd_pme::tuner::box_from_volume_fraction(n, phi, 1.0);
    let params = PmeParams {
        a: 1.0,
        eta: 1.0,
        box_l,
        alpha: 0.5, // fixed split: this experiment times the pipeline only
        mesh_dim: k,
        spline_order: p,
        r_max: (4.0f64).min(box_l / 2.0),
    };
    let sys = suspension(n, phi, seed);
    let mut op = PmeOperator::new(sys.positions(), params).expect("operator");
    let f: Vec<f64> = (0..3 * n).map(|i| ((i * 13 + 7) % 97) as f64 / 48.0 - 1.0).collect();
    let mut u = vec![0.0; 3 * n];
    let total = time_mean(reps, || {
        u.fill(0.0);
        op.recip_apply_add(&f, &mut u);
    });
    // One span per phase per apply (warmup included), so the mean is per apply.
    let mean = |ph: Phase| fmt_secs(op.snapshot().phase(ph).mean_ns() * 1e-9);
    println!(
        "{n:>8} {k:>5} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>9} | {:>9} {:>9}",
        mean(Phase::Spreading),
        mean(Phase::ForwardFft),
        mean(Phase::Influence),
        mean(Phase::InverseFft),
        mean(Phase::Interpolation),
        fmt_secs(total),
        fmt_secs(host.t_fft() + host.t_ifft()),
        fmt_secs(host.t_recip()),
    );
    total / host.t_recip()
}

fn main() {
    let opts = Opts::parse();
    let phi = 0.2;
    let reps = if opts.full { 5 } else { 2 };
    let host = calibrate_host();

    // Column titles at the widths `breakdown` prints its rows in.
    let header = || {
        println!(
            "       n     K |    spread       fft influence      ifft    interp |  measured | \
             model fft     model"
        );
        flush_stdout();
    };

    println!("# Figure 5a: fixed K, sweeping n (p = 6)");
    let (k_a, ns) = if opts.full {
        (256usize, vec![10_000usize, 50_000, 100_000, 300_000, 500_000])
    } else {
        (64, vec![1000, 5000, 20_000, 50_000])
    };
    header();
    let mut ratios = Vec::new();
    for &n in &ns {
        let pm = PerfModel::new(host, k_a, 6, n);
        ratios.push(breakdown(n, k_a, 6, phi, opts.seed, reps, &pm));
    }

    println!();
    println!("# Figure 5b: fixed n, sweeping K (p = 6)");
    let (n_b, ks) = if opts.full {
        (5000usize, vec![64usize, 128, 256, 400])
    } else {
        (2000, vec![32, 64, 96, 128])
    };
    header();
    for &k in &ks {
        let pm = PerfModel::new(host, k, 6, n_b);
        ratios.push(breakdown(n_b, k, 6, phi, opts.seed, reps, &pm));
    }

    println!();
    let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().copied().fold(0.0, f64::max);
    println!("# Paper shape: FFTs dominate, but spreading/interpolation grow with n");
    println!("# and the influence function grows with K. Measured / model over these");
    println!("# rows: {lo:.2} - {hi:.2} (the paper's band is [0.8, 1.25]); `model fft` is");
    println!("# the calibration itself at K = 64 and moves along the 32^3 saturation");
    println!("# curve elsewhere. Per-phase ratios: EXPERIMENTS.md, Figure 5.");
}
