//! Ablation and gate: the open-boundary cost tuner against measurement.
//!
//! `hibd_treecode::tune` picks, from `(n, e_p)` alone, the exact direct sum
//! below the hierarchical crossover and tree-vs-FMM plus a leaf capacity
//! above it, by a modelled per-column cost (DESIGN.md §10, §13). This
//! harness is to that choice what `table3` is to the Ewald split: per `n` it
//! measures **every** candidate — the direct sum, and treecode and FMM at
//! each leaf capacity, each at the `(theta, q)` the tuner would run it at
//! (`tuner::candidates`: one tier stricter on trees deeper than the tier is
//! measured for, shown as `q4`) — as the single-vector `apply`, the block
//! apply at the Brownian window's width (`apply_multi`, `s = 16`, per
//! column), and their blend in a BD step's proportions (`ms/col`, what the
//! tuner minimises), beside what the model predicted for each. It exits 1
//! when the tuner's choice measures more than `GATE` off the best measured
//! candidate, or when a chosen point's error reaches `e_p`.
//!
//! Errors are measured against the direct sum (itself pinned to the dense
//! matrix at 1e-13 by the treecode tests, and re-checked here against
//! `dense_rpy_free` while 9 n^2 doubles stay small). The `# spans` line per
//! size gives the per-operation prices `KernelCosts::reference` was read
//! from, on this host.

use hibd_bench::{cluster, flush_stdout, fmt_bytes, fmt_secs, Opts};
use hibd_linalg::LinearOperator;
use hibd_rpy::{dense_rpy_free, COL_TILE};
use hibd_telemetry::Phase;
use hibd_treecode::tuner::{candidates, cost, tile_cost, BLOCK_COLUMNS_PER_STEP};
use hibd_treecode::{tune, TreeEval, TreeOperator, TreeParams};
use std::time::Instant;

/// Dense matrices hold 9 n^2 doubles; past this the reference is the direct
/// sum alone.
const DENSE_CAP: usize = 1000;

/// Past this the direct sum is applied once, for the error reference, and
/// not timed (13 s per apply at n = 1e5, an order of magnitude off the
/// hierarchy by then) — its row is the model's — and candidates modelled
/// more than `SKIP` times the choice are not built (a depth-5 FMM one tier
/// up holds most of a gigabyte of M2L tables).
const DIRECT_CAP: usize = 32_000;
const SKIP: f64 = 2.5;

/// Block width of the `s16/col` columns: the ladder's `lambda_rpy`.
const BLOCK: usize = 16;

/// The accuracy target every chosen point must meet.
const E_P: f64 = 1e-3;

/// Chosen-over-best-measured above which the run fails.
const GATE: f64 = 1.25;

/// Fastest run over at least `reps` runs and `MIN_SECS`, after `WARM_SECS`
/// of untimed ones: the host's noise is one-sided, and a pool thread woken
/// after a serial stretch (the cloud and operator builds before every row)
/// shares its waker's core until the scheduler moves it — tens of
/// milliseconds in which a 100 us apply sees no second thread at all.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    const WARM_SECS: f64 = 0.2;
    const MIN_SECS: f64 = 0.05;
    let start = Instant::now();
    f();
    while start.elapsed().as_secs_f64() < WARM_SECS {
        f();
    }
    let (mut best, mut runs, start) = (f64::INFINITY, 0, Instant::now());
    while runs < reps || start.elapsed().as_secs_f64() < MIN_SECS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
        runs += 1;
    }
    best
}

/// A BD step's mix of the two measurements — the tuner's objective.
fn blend(single: f64, block_column: f64) -> f64 {
    (single + BLOCK_COLUMNS_PER_STEP * block_column) / (1.0 + BLOCK_COLUMNS_PER_STEP)
}

fn label(p: &TreeParams) -> String {
    match p.eval {
        TreeEval::Direct => "direct".into(),
        TreeEval::Tree => format!("tree {} q{}", p.leaf_capacity, p.cheb_order),
        TreeEval::Fmm => format!("fmm {} q{}", p.leaf_capacity, p.cheb_order),
    }
}

/// One measured candidate.
struct Row {
    params: TreeParams,
    single: f64,
    block_column: f64,
    err: f64,
    /// Fastest span per phase and tile width, `[w = 1, w = COL_TILE]`.
    spans: [[f64; 2]; 3],
    interactions: u64,
    m2l_pairs: u64,
}

impl Row {
    fn blended(&self) -> f64 {
        blend(self.single, self.block_column)
    }
}

fn main() {
    let opts = Opts::parse();
    let sizes: &[usize] = if opts.full {
        &[250, 500, 1000, 2000, 4000, 8000, 16_000, 32_000, 100_000]
    } else {
        &[250, 500, 1000, 2000, 4000]
    };
    let phi = 0.1;
    println!(
        "# Ablation: open-boundary evaluation chosen by modelled cost (phi = {phi}, e_p = {E_P:.0e})"
    );
    println!(
        "# per candidate: measured apply | s{BLOCK}/col | ms/col = (apply + {} s{BLOCK}/col) / {}, \
         the same three modelled, err vs the direct sum",
        BLOCK_COLUMNS_PER_STEP,
        1.0 + BLOCK_COLUMNS_PER_STEP
    );

    let mut failures: Vec<String> = Vec::new();
    for &n in sizes {
        let sys = cluster(n, phi, opts.seed);
        let pos = sys.positions();
        let tuned = tune(n, E_P, 1.0, 1.0);
        let f: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let fs: Vec<f64> = (0..3 * n * BLOCK).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut us = vec![0.0; 3 * n * BLOCK];
        let reps = (40_000 / n).clamp(2, 30);

        let mut measure = |params: TreeParams, exact: Option<&Vec<f64>>| -> (Row, Vec<f64>) {
            // Two operators, so each one's fastest spans belong to one width.
            let mut op = TreeOperator::new(pos, params);
            let mut u = vec![0.0; 3 * n];
            let single = best_of(reps, || op.apply(&f, &mut u));
            let mut wide = TreeOperator::new(pos, params);
            let block = best_of(reps.div_ceil(3), || wide.apply_multi(&fs, &mut us, BLOCK));
            let err = exact.map_or(0.0, |e| {
                let err2: f64 = u.iter().zip(e).map(|(t, e)| (t - e) * (t - e)).sum();
                (err2 / e.iter().map(|e| e * e).sum::<f64>()).sqrt()
            });
            let far = if params.eval == TreeEval::Fmm { Phase::M2l } else { Phase::FarField };
            let span = |o: &TreeOperator, ph| {
                let st = o.snapshot().phase(ph);
                if st.count == 0 {
                    0.0
                } else {
                    st.min_ns as f64 * 1e-9
                }
            };
            let row = Row {
                params,
                single,
                block_column: block / BLOCK as f64,
                err,
                spans: [Phase::NearField, far, Phase::Upward]
                    .map(|ph| [span(&op, ph), span(&wide, ph)]),
                interactions: op.interactions_per_apply(),
                m2l_pairs: op.fmm_stats().map_or(0, |(pairs, _)| pairs as u64),
            };
            println!(
                "{:>11} {:>3} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>5.2} {:>8.0} {:>9} {:>8}",
                label(&params),
                op.max_depth(),
                fmt_secs(row.single),
                fmt_secs(row.block_column),
                fmt_secs(row.blended()),
                fmt_secs(tile_cost(n, &params, 1)),
                fmt_secs(tile_cost(n, &params, COL_TILE) / COL_TILE as f64),
                fmt_secs(cost(n, &params)),
                row.blended() / cost(n, &params),
                row.interactions as f64 / n as f64,
                fmt_bytes(wide.state_memory_bytes()),
                if exact.is_some() { format!("{err:.1e}") } else { "-".into() },
            );
            flush_stdout();
            (row, u)
        };

        println!();
        println!(
            "# n = {n}: tuned {} (leaf {}), modelled {} per column",
            label(&tuned),
            tuned.leaf_capacity,
            fmt_secs(cost(n, &tuned))
        );
        println!(
            "{:>11} {:>3} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>5} {:>8} {:>9} {:>8}",
            "eval",
            "dep",
            "apply",
            "s16/col",
            "ms/col",
            "m:apply",
            "m:s16",
            "m:ms/col",
            "meas/m",
            "evals/n",
            "state",
            "err"
        );
        let mut rows: Vec<Row> = Vec::new();
        // The direct sum first: it is every other row's error reference.
        let direct_params = TreeParams { eval: TreeEval::Direct, ..tuned };
        let exact = if n <= DIRECT_CAP {
            let (mut row, u) = measure(direct_params, None);
            if n <= DENSE_CAP {
                let dense = dense_rpy_free(pos, 1.0, 1.0);
                let mut v = vec![0.0; 3 * n];
                dense.mul_vec(&f, &mut v);
                let err2: f64 = u.iter().zip(&v).map(|(t, d)| (t - d) * (t - d)).sum();
                row.err = (err2 / v.iter().map(|d| d * d).sum::<f64>()).sqrt();
                println!("{:>11}     | vs dense_rpy_free: err {:.1e}", "", row.err);
            }
            rows.push(row);
            u
        } else {
            println!(
                "{:>11}   - | not timed above n = {DIRECT_CAP}: modelled {} per column",
                "direct",
                fmt_secs(cost(n, &direct_params))
            );
            let mut u = vec![0.0; 3 * n];
            TreeOperator::new(pos, direct_params).apply(&f, &mut u);
            u
        };
        for params in candidates(n, E_P, 1.0, 1.0) {
            if n > DIRECT_CAP && cost(n, &params) > SKIP * cost(n, &tuned) {
                println!(
                    "{:>11}   - | not built: modelled {} per column, over {SKIP}x the choice",
                    label(&params),
                    fmt_secs(cost(n, &params))
                );
                continue;
            }
            rows.push(measure(params, Some(&exact)).0);
        }

        // The gate: the tuner's choice against the best measured candidate.
        // The two rows the verdict rests on are timed once more at the end of
        // the block and keep their faster reading: where a row sits in the
        // block (the direct sum is always first, right after the serial
        // cloud build) must not decide it.
        let fastest = |rows: &[Row]| {
            let best =
                rows.iter().enumerate().min_by(|a, b| a.1.blended().total_cmp(&b.1.blended()));
            best.expect("candidates were measured").0
        };
        let chosen = rows.iter().position(|r| r.params == tuned).expect("the choice is a row");
        let runner_up = Some(fastest(&rows)).filter(|&i| i != chosen);
        println!("# again, the rows the verdict rests on:");
        for i in std::iter::once(chosen).chain(runner_up) {
            let (row, _) = measure(rows[i].params, Some(&exact));
            rows[i].single = rows[i].single.min(row.single);
            rows[i].block_column = rows[i].block_column.min(row.block_column);
        }
        let (chosen, best) = (&rows[chosen], &rows[fastest(&rows)]);
        let off = chosen.blended() / best.blended();
        println!(
            "# n = {n}: chosen {} {} per column, best measured {} {}: chosen / best = {off:.2}, \
             err {:.1e}",
            label(&chosen.params),
            fmt_secs(chosen.blended()),
            label(&best.params),
            fmt_secs(best.blended()),
            chosen.err,
        );
        if off > GATE {
            failures.push(format!(
                "n = {n}: chosen {} is {off:.2}x the best measured candidate ({})",
                label(&chosen.params),
                label(&best.params)
            ));
        }
        if chosen.err >= E_P {
            failures.push(format!("n = {n}: chosen point's error {:.2e} >= e_p", chosen.err));
        }

        // Per-operation prices at the carried leaf capacity, `w = 1` and per
        // column of a full tile: what `KernelCosts::reference` is read from.
        let at_leaf = |eval| {
            rows.iter()
                .find(|r| r.params.eval == eval && r.params.leaf_capacity == tuned.leaf_capacity)
        };
        if let (Some(tree), Some(fmm)) = (at_leaf(TreeEval::Tree), at_leaf(TreeEval::Fmm)) {
            let q3 = |r: &Row| r.params.cheb_order.pow(3) as u64;
            let entries = fmm.m2l_pairs * q3(fmm) * q3(fmm);
            let near_pairs = fmm.interactions - entries - n as u64 * q3(fmm);
            let proxies = tree.interactions - near_pairs;
            let per = |secs: [f64; 2], ops: u64| match ops {
                0 => "- | -".to_string(),
                _ => format!(
                    "{:.2} | {:.2}",
                    secs[0] / ops as f64 * 1e9,
                    secs[1] / COL_TILE as f64 / ops as f64 * 1e9
                ),
            };
            let direct = rows.iter().find(|r| r.params.eval == TreeEval::Direct);
            println!(
                "# spans at leaf {} (ns, w = 1 | per column of a {COL_TILE}-tile): direct pair \
                 {}, near pair {}, proxy {}, M2L entry {}; upward pass {:.1} % of the tree apply",
                tuned.leaf_capacity,
                direct.map_or("- | -".into(), |d| per(d.spans[0], (n * n) as u64)),
                per(fmm.spans[0], near_pairs),
                per(tree.spans[1], proxies),
                per(fmm.spans[1], entries),
                100.0 * tree.spans[2][0] / tree.single,
            );
        }
    }

    println!();
    println!("# Expected: the direct sum wins while n^2 pairs through full 32-source tiles cost");
    println!("# less than a tree's near field plus its far field — to n ~ 2800 at e_p = 1e-3");
    println!("# (`hibd_treecode::tuner::CROSSOVER`) — and at the crossover the best hierarchy");
    println!("# and the direct sum measure within noise of each other. Above it the FMM leads");
    println!("# the treecode at equal (theta, q), but its error grows faster with depth (it");
    println!("# interpolates on the target side too): rows marked q4 are candidates whose tree");
    println!("# goes deeper than their evaluation holds the 1e-3 tier for (FMM: depth 2,");
    println!("# treecode: depth 3), run one tier stricter. The best leaf capacity puts");
    println!("# n / 8^depth mid-range: capacities whose level cells sit just under them build");
    println!("# mixed-depth trees (n = 2000 at 32: depth 3, leaves of 4) and measure 2-3x");
    println!("# worse, which the model's occupancy blend prices in (meas/m stays near 1 at");
    println!("# clean points and below 1 at mixed ones: it errs on the side of avoiding them).");
    println!(
        "# s{BLOCK}/col is apply_multi(s = {BLOCK}) per column: pair scalars and the tree walk"
    );
    println!("# are paid once per {COL_TILE}-column tile. state is read after the block apply: it");
    println!("# includes the tile scratch.");
    if failures.is_empty() {
        println!("# gate: every choice within {GATE}x of the best measured candidate, err < e_p.");
    } else {
        for f in &failures {
            println!("# GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
