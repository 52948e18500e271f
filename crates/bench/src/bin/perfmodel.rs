//! Section IV-D performance model: calibrate, then predict a held-out run.
//!
//! Phase 1 calibrates the four model constants (bandwidth, forward/inverse
//! FFT rates, real-space rate) from telemetry spans of bare block PME
//! applies at two small shapes. Phase 2 runs a matrix-free BD window at a
//! *different* shape and prints the measured-vs-predicted table for all six
//! model phases plus the reciprocal-space total — a genuine out-of-sample
//! test of the paper's cost model on this host.

use hibd_bench::{flush_stdout, suspension, telemetry_window, Opts};
use hibd_core::forces::RepulsiveHarmonic;
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_linalg::LinearOperator;
use hibd_pme::PmeOperator;
use hibd_telemetry::{CalibrationSample, PerfModel};

/// One calibration shape: `reps` block applies of `s` columns on an
/// `n`-particle suspension.
fn calibration_sample(n: usize, s: usize, reps: usize, seed: u64) -> CalibrationSample {
    let sys = suspension(n, 0.2, seed);
    let params = hibd_pme::tune(n, 0.2, 1.0, 1.0, 1e-3).params;
    let mut op = PmeOperator::new(sys.positions(), params).expect("operator");
    let dim = 3 * n;
    let x: Vec<f64> =
        (0..dim * s).map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5).collect();
    let mut y = vec![0.0; dim * s];
    // Warm the scratch (allocation and page faults) outside the window.
    op.apply_multi(&x, &mut y, s);
    let ((), snap) = telemetry_window(|| {
        for _ in 0..reps {
            op.apply_multi(&x, &mut y, s);
        }
    });
    CalibrationSample::from_snapshot(
        n,
        params.mesh_dim,
        params.spline_order,
        (reps * s) as f64,
        1,
        &snap,
    )
}

fn main() {
    let opts = Opts::parse();
    let (cal_shapes, bd_n, bd_steps): (&[(usize, usize, usize)], usize, usize) = if opts.full {
        (&[(2000, 16, 4), (8000, 8, 2)], 20_000, 16)
    } else {
        (&[(300, 8, 3), (1000, 4, 2)], 2000, 8)
    };

    println!("# Section IV-D model: calibrate on block applies, predict an mf-BD run");
    let mut samples = Vec::new();
    for &(n, s, reps) in cal_shapes {
        let sample = calibration_sample(n, s, reps, opts.seed);
        println!(
            "# calibration shape: n = {n}, K = {}, p = {}, {} columns",
            sample.k, sample.p, sample.cols
        );
        samples.push(sample);
        flush_stdout();
    }
    let model = PerfModel::calibrate(&samples);

    // Held-out measurement: a matrix-free BD window at a different shape.
    let sys = suspension(bd_n, 0.2, opts.seed);
    let mut bd = MatrixFreeBd::new(sys, MatrixFreeConfig::default(), opts.seed).expect("driver");
    bd.add_force(RepulsiveHarmonic::default());
    let ((), snap) = telemetry_window(|| bd.run(bd_steps).expect("run"));
    let p = bd.shape().pme.expect("periodic run has PME params");
    let cols = snap.columns_applied();
    println!(
        "# measured run: n = {bd_n}, K = {}, p = {}, {bd_steps} steps, {cols} columns",
        p.mesh_dim, p.spline_order
    );
    println!();
    let report = model.report(bd_n, p.mesh_dim, p.spline_order, cols, 1, &snap);
    print!("{}", report.to_text());
    println!();
    println!("# ratio = measured / predicted; the FFT and real-space rows test");
    println!("# shape transfer (constants fitted at other n, K), the bandwidth");
    println!("# rows additionally test the single-bandwidth assumption.");
}
