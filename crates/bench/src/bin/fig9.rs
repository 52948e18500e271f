//! Figure 9: hybrid (CPU + 2 Xeon Phi) vs CPU-only BD step time.
//!
//! **Hardware substitution** (see DESIGN.md): the accelerators are modeled
//! devices (Table I parameters) driven by the same Section IV-E scheduler —
//! alpha balancing and static column partitioning — that would drive real
//! offload. A genuinely executed overlapped apply on this host is measured
//! as a sanity anchor for the concurrency mechanism.

use hibd_bench::compose::{apply_overlapped, RecipScratch};
use hibd_bench::hybrid::HybridModel;
use hibd_bench::{flush_stdout, fmt_secs, suspension, table3_sizes, Opts};
use hibd_pme::perf::Machine;
use hibd_pme::{tune, PmeOperator};

fn main() {
    let opts = Opts::parse();
    let phi = 0.2;
    let lambda = 16;
    let krylov_iters = 22; // paper: 19-25 iterations at these tolerances

    println!("# Figure 9: hybrid (2x KNC) vs CPU-only, modeled BD step times");
    println!(
        "{:>8} {:>6} | {:>12} {:>12} {:>9} | {:>14}",
        "n", "K", "cpu-only", "hybrid", "speedup", "cols (a,a,cpu)"
    );
    for n in table3_sizes(opts.full) {
        let params = tune(n, phi, 1.0, 1.0, 1e-3).params;
        let model =
            HybridModel::new(params, n, Machine::westmere(), vec![Machine::knc(), Machine::knc()]);
        let (cpu_only, hybrid) = model.step_times(lambda, krylov_iters);
        let (cols, _) = model.partition_block(lambda);
        println!(
            "{n:>8} {:>6} | {:>12} {:>12} {:>8.2}x | {:>14}",
            params.mesh_dim,
            fmt_secs(cpu_only),
            fmt_secs(hybrid),
            cpu_only / hybrid,
            format!("{cols:?}")
        );
        flush_stdout();
    }

    // Sanity anchor: genuinely overlapped real/reciprocal execution here.
    let n = if opts.full { 10_000 } else { 2000 };
    let params = tune(n, phi, 1.0, 1.0, 1e-3).params;
    let sys = suspension(n, phi, opts.seed);
    let op = PmeOperator::new(sys.positions(), params).expect("operator");
    let f: Vec<f64> = (0..3 * n).map(|i| ((i * 17 + 5) % 83) as f64 / 41.0 - 1.0).collect();
    let mut u = vec![0.0; 3 * n];
    let (t_real, t_recip) = apply_overlapped(&op, &mut RecipScratch::new(&op), &f, &mut u);
    println!();
    println!(
        "# overlapped-apply anchor at n = {n}: real {} || recip {} (concurrent branches)",
        fmt_secs(t_real),
        fmt_secs(t_recip)
    );
    println!("# Paper shape: ~2.5x average speedup, marginal for small systems and");
    println!("# greater than 3.5x for the largest configurations.");
}
