//! Ablation: open-boundary treecode vs FMM far field, dense reference.
//!
//! The treecode (DESIGN.md §10) replaces the O(n^2) dense free-space RPY
//! matvec with an O(n log n) hierarchical apply; the FMM downward pass
//! (DESIGN.md §13) turns the far field into O(n) by translating multipoles
//! into local expansions instead of evaluating proxy-to-target directly.
//! This harness reports `evals/n` against tree depth for both strategies:
//! the treecode's grows by a constant per added level (the log factor),
//! the FMM's stays level-constant. It also locates the tree-vs-FMM apply
//! crossover and, under `--full`, pushes to n = 1e5 for the scaling row.
//!
//! Beside each single-vector apply it times the block apply at the Brownian
//! window's width (`apply_multi`, `s = 16`, two column tiles) and prints
//! the time **per column** with its ratio to the `s = 1` apply — the block
//! body walks the tree and evaluates the pair scalars once per tile, so the
//! ratio is what a block of vectors buys on this backend. (Stand-in for a
//! `treecode.apply_s16.ms_per_col` ladder rung.)

use hibd_bench::{cluster, flush_stdout, fmt_bytes, fmt_secs, time_mean, time_once, Opts};
use hibd_linalg::LinearOperator;
use hibd_rpy::dense_rpy_free;
use hibd_treecode::{measured_rel_error, TreeEval, TreeOperator, TreeParams};

/// Dense matrices hold 9 n^2 doubles; past this the reference is unaffordable.
const DENSE_CAP: usize = 4000;

/// Block width of the `s16/col` columns: the ladder's `lambda_rpy`.
const BLOCK: usize = 16;

fn main() {
    let opts = Opts::parse();
    let sizes: &[usize] = if opts.full {
        &[250, 500, 1000, 2000, 4000, 8000, 16_000, 32_000, 100_000]
    } else {
        &[250, 500, 1000, 2000, 4000]
    };
    let phi = 0.1;
    let tree_params = TreeParams::default();
    let fmm_params = TreeParams { eval: TreeEval::Fmm, ..tree_params };

    println!(
        "# Ablation: treecode vs FMM far field (phi = {phi}, theta = {}, q = {})",
        tree_params.theta, tree_params.cheb_order
    );
    println!(
        "{:>7} {:>5} | {:>11} | {:>11} {:>11} {:>6} {:>8} | {:>11} {:>11} {:>6} {:>8} {:>9} | {:>8} {:>8} {:>8}",
        "n",
        "depth",
        "dense mv",
        "tree apply",
        "s16/col",
        "ratio",
        "evals/n",
        "fmm apply",
        "s16/col",
        "ratio",
        "evals/n",
        "fmm mem",
        "fmm/tree",
        "err(t)",
        "err(f)"
    );

    let mut races: Vec<(usize, f64, f64)> = Vec::new();
    for &n in sizes {
        let sys = cluster(n, phi, opts.seed);
        let pos = sys.positions();
        let f: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut u = vec![0.0; 3 * n];
        let reps = (20_000 / n).clamp(2, 40);
        let fs: Vec<f64> = (0..3 * n * BLOCK).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut us = vec![0.0; 3 * n * BLOCK];
        // Seconds per single apply, and per column of a BLOCK-wide apply.
        let mut race = |op: &mut TreeOperator| {
            let single = time_mean(reps, || {
                op.apply(&f, &mut u);
                std::hint::black_box(&u);
            });
            let block = time_mean(reps.div_ceil(4), || {
                op.apply_multi(&fs, &mut us, BLOCK);
                std::hint::black_box(&us);
            });
            (single, block / BLOCK as f64)
        };

        let (mut tree_op, _) = time_once(|| TreeOperator::new(pos, tree_params));
        let (t_tree, t_tree_col) = race(&mut tree_op);
        let (mut fmm_op, _) = time_once(|| TreeOperator::new(pos, fmm_params));
        let (t_fmm, t_fmm_col) = race(&mut fmm_op);
        races.push((n, t_tree, t_fmm));

        let t_dense = if n <= DENSE_CAP {
            let (m, _) = time_once(|| dense_rpy_free(pos, 1.0, 1.0));
            let mut v = vec![0.0; 3 * n];
            let t = time_mean(reps, || {
                m.mul_vec(&f, &mut v);
                std::hint::black_box(&v);
            });
            fmt_secs(t)
        } else {
            "-".to_string()
        };
        let (err_t, err_f) = if n <= DENSE_CAP {
            (
                format!("{:.1e}", measured_rel_error(pos, tree_params, 3)),
                format!("{:.1e}", measured_rel_error(pos, fmm_params, 3)),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };

        println!(
            "{n:>7} {:>5} | {t_dense:>11} | {:>11} {:>11} {:>6.2} {:>8.0} | {:>11} {:>11} {:>6.2} {:>8.0} {:>9} | {:>7.1}x {err_t:>8} {err_f:>8}",
            tree_op.max_depth(),
            fmt_secs(t_tree),
            fmt_secs(t_tree_col),
            t_tree_col / t_tree,
            tree_op.interactions_per_apply() as f64 / n as f64,
            fmt_secs(t_fmm),
            fmt_secs(t_fmm_col),
            t_fmm_col / t_fmm,
            fmm_op.interactions_per_apply() as f64 / n as f64,
            fmt_bytes(fmm_op.memory_bytes()),
            t_tree / t_fmm,
        );
        flush_stdout();
    }
    println!();
    // Sustained crossover: the smallest n from which the FMM apply stays
    // ahead on every larger size (single wins at tiny n are timer noise).
    let crossover = races
        .iter()
        .rev()
        .take_while(|&&(_, t_tree, t_fmm)| t_fmm < t_tree)
        .last()
        .map(|&(n, _, _)| n);
    match crossover {
        Some(n) => println!("# FMM apply crossover: ahead of the treecode from n = {n} on."),
        None => println!("# FMM apply crossover: not reached on these sizes."),
    }
    println!("# Expected: tree evals/n climbs monotonically — a roughly constant");
    println!("# increment per added depth level, the O(n log n) signature. fmm");
    println!("# evals/n (table multiply-adds, no kernel calls) jumps when a new");
    println!("# depth level opens, then *falls* as n fills the level — the M2L");
    println!("# pair list saturates per level, so the per-particle far work is");
    println!("# bounded by a level constant instead of climbing: the O(n)");
    println!("# signature. Both strategies hold rel err <= 1e-3 at the default");
    println!("# theta; dense columns stop where 9 n^2 doubles stop fitting.");
    println!("# s16/col is apply_multi(s = {BLOCK}) per column, ratio = s16/col over the");
    println!("# s = 1 apply: pair scalars and the tree walk are paid once per");
    println!(
        "# {}-column tile, so the ratio should sit well under 0.5. fmm mem",
        hibd_rpy::COL_TILE
    );
    println!("# is read after the block apply: it includes the tile scratch.");
}
