//! Figure 4: precomputed P vs on-the-fly weights.
//!
//! Times the reciprocal-space PME pipeline with the interpolation matrix
//! precomputed once and reused (Algorithm 2's setting, where the operator is
//! applied 300+ times per configuration) against recomputing B-spline
//! weights at every application.

use hibd_bench::compose::{recip_apply_add_on_the_fly, RecipScratch};
use hibd_bench::{flush_stdout, fmt_secs, suspension, table3_sizes, time_mean, Opts};
use hibd_pme::{tune, PmeOperator};

fn main() {
    let opts = Opts::parse();
    let phi = 0.2;
    let reps = if opts.full { 10 } else { 3 };

    println!("# Figure 4: reciprocal-space PME, precomputed P vs on-the-fly");
    println!(
        "{:>8} {:>6} {:>3} {:>12} {:>12} {:>9}",
        "n", "K", "p", "precomp", "on-the-fly", "speedup"
    );
    for n in table3_sizes(opts.full) {
        let params = tune(n, phi, 1.0, 1.0, 1e-3).params;
        let sys = suspension(n, phi, opts.seed);
        let mut op = PmeOperator::new(sys.positions(), params).expect("operator");
        let f: Vec<f64> = (0..3 * n).map(|i| ((i * 37 + 11) % 101) as f64 / 50.0 - 1.0).collect();
        let mut u = vec![0.0; 3 * n];
        let mut scratch = RecipScratch::new(&op);

        let t_pre = time_mean(reps, || {
            u.fill(0.0);
            op.recip_apply_add(&f, &mut u);
        });
        let t_fly = time_mean(reps, || {
            u.fill(0.0);
            recip_apply_add_on_the_fly(&op, &mut scratch, &f, &mut u);
        });
        println!(
            "{n:>8} {:>6} {:>3} {:>12} {:>12} {:>8.2}x",
            params.mesh_dim,
            params.spline_order,
            fmt_secs(t_pre),
            fmt_secs(t_fly),
            t_fly / t_pre
        );
        flush_stdout();
    }
    println!();
    println!("# Paper shape: precomputing P is ~1.5x faster on average, with the");
    println!("# largest gains where p^3 n / K^3 is largest.");
}
