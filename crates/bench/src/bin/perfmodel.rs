//! Section IV-D performance model: fit a machine, then predict a held-out
//! run.
//!
//! Phase 1 fits the host's `Machine` (`hibd_pme::perf::Fit`) from telemetry
//! spans of bare block PME applies at two small shapes. Phase 2 runs a
//! matrix-free BD window at a *different* shape and prints
//! `PerfModel::report` — a genuine out-of-sample test of the paper's cost
//! model on this host. Nothing is fitted to the real-space row: it is the
//! fitted bandwidth on `real_space_blocks`.

use hibd_bench::{flush_stdout, suspension, telemetry_window, Opts};
use hibd_core::forces::RepulsiveHarmonic;
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_linalg::LinearOperator;
use hibd_pme::perf::{real_space_blocks, Fit, Machine, PerfModel};
use hibd_pme::PmeOperator;

/// Pool one calibration shape into `fit`: `reps` block applies of `s`
/// columns on an `n`-particle suspension.
fn calibrate_on(fit: Fit, n: usize, s: usize, reps: usize, seed: u64) -> Fit {
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
    let cols = (reps * s) as f64;
    println!(
        "# calibration shape: n = {n}, K = {}, p = {}, {cols} columns",
        params.mesh_dim, params.spline_order
    );
    flush_stdout();
    fit.spans(params.mesh_dim, params.spline_order, n, cols, &snap)
}

fn main() {
    let opts = Opts::parse();
    let (cal_shapes, bd_n, bd_steps): (&[(usize, usize, usize)], usize, usize) = if opts.full {
        (&[(2000, 16, 4), (8000, 8, 2)], 20_000, 16)
    } else {
        (&[(300, 8, 24), (1000, 4, 12)], 2000, 8)
    };

    println!("# Section IV-D model: fit a machine on block applies, predict an mf-BD run");
    let mut fit = Fit::new(Machine::reference());
    for &(n, s, reps) in cal_shapes {
        fit = calibrate_on(fit, n, s, reps, opts.seed);
    }
    let host = fit.machine();

    // Held-out measurement: a matrix-free BD window at a different shape.
    let sys = suspension(bd_n, 0.2, opts.seed);
    let mut bd = MatrixFreeBd::new(sys, MatrixFreeConfig::default(), opts.seed).expect("driver");
    bd.add_force(RepulsiveHarmonic::default());
    let ((), snap) = telemetry_window(|| bd.run(bd_steps).expect("run"));
    let p = bd.shape().pme.expect("periodic run has PME params");
    let cols = snap.columns_applied();
    println!(
        "# measured run: n = {bd_n}, K = {}, p = {}, r_max = {:.2}, {bd_steps} steps, {cols} columns",
        p.mesh_dim, p.spline_order, p.r_max
    );
    println!();
    let blocks = real_space_blocks(bd_n, p.box_l, p.r_max);
    let report = PerfModel::new(host, p.mesh_dim, p.spline_order, bd_n).report(blocks, cols, &snap);
    print!("{}", report.to_text());
    println!();
    println!("# ratio = measured / predicted. The FFT rows test shape transfer");
    println!("# (asymptotes fitted at other K, moved along the saturation curve);");
    println!("# the bandwidth rows and real_space, the single-bandwidth assumption.");
}
