//! Figure 6: reciprocal-space PME on Westmere-EP vs Xeon Phi (KNC).
//!
//! **Hardware substitution** (see DESIGN.md): this host has neither
//! machine, so both columns come from the Section IV-D performance model
//! with the Table I machine descriptions — the same model the paper's
//! hybrid scheduler uses — plus, as a sanity anchor, this host measured
//! beside the same model on its calibrated machine (`calibrate_host`).

use hibd_bench::{
    calibrate_host, flush_stdout, fmt_secs, suspension, table3_sizes, time_mean, Opts,
};
use hibd_pme::perf::{Machine, PerfModel};
use hibd_pme::{tune, PmeOperator};

fn main() {
    let opts = Opts::parse();
    let phi = 0.2;
    let host = calibrate_host();
    let reps = if opts.full { 5 } else { 2 };

    println!("# Figure 6: reciprocal PME time, Westmere-EP vs KNC (modeled) + host (measured)");
    println!(
        "{:>8} {:>6} | {:>11} {:>11} {:>9} | {:>11} {:>11}",
        "n", "K", "westmere", "knc", "knc gain", "host model", "host meas"
    );
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for n in table3_sizes(opts.full) {
        let params = tune(n, phi, 1.0, 1.0, 1e-3).params;
        let w = PerfModel::new(Machine::westmere(), params.mesh_dim, params.spline_order, n);
        let k = PerfModel::new(Machine::knc(), params.mesh_dim, params.spline_order, n);
        let h = PerfModel::new(host, params.mesh_dim, params.spline_order, n);

        // Measure on the host only where it is quick enough.
        let measured = if n <= if opts.full { 100_000 } else { 10_000 } {
            let sys = suspension(n, phi, opts.seed);
            let mut op = PmeOperator::new(sys.positions(), params).expect("operator");
            let f: Vec<f64> = (0..3 * n).map(|i| ((i * 29 + 3) % 89) as f64 / 44.0 - 1.0).collect();
            let mut u = vec![0.0; 3 * n];
            fmt_secs(time_mean(reps, || {
                u.fill(0.0);
                op.recip_apply_add(&f, &mut u);
            }))
        } else {
            "-".to_string()
        };
        println!(
            "{n:>8} {:>6} | {:>11} {:>11} {:>8.2}x | {:>11} {:>11}",
            params.mesh_dim,
            fmt_secs(w.t_recip()),
            fmt_secs(k.t_recip()),
            w.t_recip() / k.t_recip(),
            fmt_secs(h.t_recip()),
            measured
        );
        flush_stdout();
        let gain = w.t_recip() / k.t_recip();
        (lo, hi) = (lo.min(gain), hi.max(gain));
    }
    println!();
    println!("# Paper shape: KNC is no faster (or slower) than the CPU for small");
    println!("# meshes, and up to ~1.6x faster for the largest configurations.");
    println!("# This table: knc gain {lo:.2}x - {hi:.2}x. The modeled KNC reaches half its");
    println!("# FFT rate at K = 128, so rows with K well under that show only the");
    println!("# paper's \"slower\" end; the crossover needs the --full meshes.");
}
