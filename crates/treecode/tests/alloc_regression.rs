//! Allocation regression for the treecode steady state.
//!
//! Construction builds the octree, traversal lists and anterpolation tables;
//! after one warm-up apply (which lets rayon finish lazy pool setup),
//! repeated applies must cause no net heap growth and `memory_bytes` must
//! not move — the apply path is strictly reuse-only operator-owned scratch.

use hibd_alloctrack::{exclusive, measure};
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_treecode::{TreeEval, TreeOperator, TreeParams};

hibd_alloctrack::install!();

const TOL: isize = 16 * 1024;

fn cloud(n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * spread
    };
    (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
}

#[test]
fn apply_is_allocation_free_at_steady_state() {
    let _guard = exclusive();
    let n = 400;
    let pos = cloud(n, 30.0, 3);
    let params = TreeParams { leaf_capacity: 16, ..TreeParams::default() };
    let mut op = TreeOperator::new(&pos, params);
    let x = vec![0.5; 3 * n];
    let mut y = vec![0.0; 3 * n];
    op.apply(&x, &mut y); // warm-up (rayon pool, lazy growth)
    let mem = op.memory_bytes();
    let (m, ()) = measure(|| {
        for _ in 0..5 {
            op.apply(&x, &mut y);
        }
    });
    assert!(m.net_bytes.abs() <= TOL, "5 warm applies leaked {} net bytes", m.net_bytes);
    assert_eq!(op.memory_bytes(), mem, "operator scratch grew after warm-up");
}

#[test]
fn apply_multi_is_allocation_free_at_steady_state() {
    // `s = 16` is two full column tiles: the first block apply grows the
    // tile scratch (and the FMM locals) from width 1 to the tile width, once;
    // after it neither block nor single applies touch the heap, and
    // `memory_bytes` — which counts the grown scratch — stays put.
    let _guard = exclusive();
    let n = 200;
    let s = 16;
    let pos = cloud(n, 20.0, 9);
    for eval in [TreeEval::Tree, TreeEval::Fmm, TreeEval::Direct] {
        let params = TreeParams { leaf_capacity: 16, eval, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let built = op.memory_bytes();
        let x = vec![0.25; 3 * n * s];
        let mut y = vec![0.0; 3 * n * s];
        op.apply_multi(&x, &mut y, s); // warm-up grows the tile scratch
        let mem = op.memory_bytes();
        assert!(mem > built, "{eval:?}: the report must show the grown tile scratch");
        let (m, ()) = measure(|| {
            for _ in 0..3 {
                op.apply_multi(&x, &mut y, s);
                op.apply(&x[..3 * n], &mut y[..3 * n]);
            }
        });
        assert!(
            m.net_bytes.abs() <= TOL,
            "{eval:?}: 3 warm block applies leaked {} net bytes",
            m.net_bytes
        );
        assert_eq!(op.memory_bytes(), mem, "{eval:?}: block scratch grew after warm-up");
    }
}

#[test]
fn direct_sum_owns_two_tiles_and_nothing_per_node() {
    // The direct sum's whole state is the Morton order, the positions and
    // the gathered input / output tiles: `6 n w` doubles of scratch at the
    // widest tile applied, no proxy grids, no lists, no shared tables.
    let _guard = exclusive();
    let n = 300;
    let pos = cloud(n, 25.0, 17);
    let params = TreeParams { eval: TreeEval::Direct, ..TreeParams::default() };
    let mut op = TreeOperator::new(&pos, params);
    let fixed = n * (std::mem::size_of::<Vec3>() + std::mem::size_of::<u32>());
    let tiles = |w: usize| 6 * n * w * std::mem::size_of::<f64>();
    let slack = 512; // the root node (a `Vec`'s first growth holds four), one leaf id, CSR offsets
    assert_eq!(op.memory_bytes(), op.state_memory_bytes(), "nothing lives in the plans");
    let built = op.state_memory_bytes();
    assert!((fixed + tiles(1)..=fixed + tiles(1) + slack).contains(&built), "{built}");
    let s = 16;
    let x = vec![0.25; 3 * n * s];
    let mut y = vec![0.0; 3 * n * s];
    op.apply_multi(&x, &mut y, s);
    let wide = op.state_memory_bytes();
    let w = hibd_rpy::COL_TILE;
    assert!((fixed + tiles(w)..=fixed + tiles(w) + slack).contains(&wide), "{wide}");
}

#[test]
fn fmm_apply_is_allocation_free_at_steady_state() {
    // The downward pass adds M2L tables, an interaction-list index and the
    // local-expansion buffer — all built at construction or grown by the
    // warm-up; repeated applies must stay heap-silent like the treecode's.
    let _guard = exclusive();
    let n = 400;
    let pos = cloud(n, 30.0, 5);
    let params = TreeParams { leaf_capacity: 16, eval: TreeEval::Fmm, ..TreeParams::default() };
    let mut op = TreeOperator::new(&pos, params);
    let x = vec![0.5; 3 * n];
    let mut y = vec![0.0; 3 * n];
    op.apply(&x, &mut y); // warm-up (rayon pool, lazy growth)
    let mem = op.memory_bytes();
    let (m, ()) = measure(|| {
        for _ in 0..5 {
            op.apply(&x, &mut y);
        }
    });
    assert!(m.net_bytes.abs() <= TOL, "5 warm FMM applies leaked {} net bytes", m.net_bytes);
    assert_eq!(op.memory_bytes(), mem, "FMM operator scratch grew after warm-up");
}

#[test]
fn fmm_memory_bytes_covers_the_translation_tables() {
    // Self-audit against the allocator: building the FMM operator instead
    // of the treecode one must raise `memory_bytes` by at least the M2L +
    // L2L storage the allocator saw it request — the report may not hide
    // the new tables. `state_memory_bytes` carries the per-tree part (M2L
    // entries + locals); the L2L octant tables live in the shared plans.
    let _guard = exclusive();
    let n = 500;
    let pos = cloud(n, 28.0, 13);
    let tree_params = TreeParams { leaf_capacity: 8, ..TreeParams::default() };
    let fmm_params = TreeParams { eval: TreeEval::Fmm, ..tree_params };

    let tree_op = TreeOperator::new(&pos, tree_params);
    let (built, mut fmm_op) = measure(|| TreeOperator::new(&pos, fmm_params));
    assert!(
        built.net_bytes > 0,
        "FMM construction should allocate tables (net {})",
        built.net_bytes
    );

    let (pairs, entries) = fmm_op.fmm_stats().expect("FMM operator reports stats");
    assert!(entries > 0 && pairs >= entries);
    let q3 = fmm_params.cheb_order.pow(3);
    // Every deduplicated entry stores at least its two q^3 x q^3 blocks.
    let table_floor = entries * 2 * q3 * q3 * std::mem::size_of::<f64>();
    let extra = fmm_op.state_memory_bytes() as isize - tree_op.state_memory_bytes() as isize;
    assert!(extra >= table_floor as isize, "state grew {extra}, table floor {table_floor}");
    assert!(fmm_op.memory_bytes() > tree_op.memory_bytes(), "plans + state must outweigh");
    // And the allocator agrees the tables are real, not just reported.
    assert!(built.net_bytes >= table_floor as isize, "allocator saw {}", built.net_bytes);

    // The first apply may grow the local-expansion scratch it owns, but the
    // report must track it: memory_bytes after a warm apply is stable.
    let x = vec![1.0; 3 * n];
    let mut y = vec![0.0; 3 * n];
    fmm_op.apply(&x, &mut y);
    let warmed = fmm_op.memory_bytes();
    fmm_op.apply(&x, &mut y);
    assert_eq!(fmm_op.memory_bytes(), warmed, "FMM apply grew scratch after warm-up");
}

#[test]
fn memory_bytes_accounts_for_the_dominant_storage() {
    // Self-audit: the report must cover at least the storage we can bound
    // from first principles (positions + order + per-particle weights +
    // the Morton scratch), and construction must not under-report scratch
    // that the first apply then grows.
    let _guard = exclusive();
    let n = 300;
    let pos = cloud(n, 25.0, 11);
    let params = TreeParams::default();
    let q = params.cheb_order;
    let mut op = TreeOperator::new(&pos, params);
    let floor = n * std::mem::size_of::<Vec3>()      // Morton positions
        + n * std::mem::size_of::<u32>()             // order
        + n * 3 * q * std::mem::size_of::<f64>()     // anterpolation weights
        + 2 * 3 * n * std::mem::size_of::<f64>(); // xr + yr
    assert!(op.memory_bytes() >= floor, "{} < floor {}", op.memory_bytes(), floor);
    let before = op.memory_bytes();
    let x = vec![1.0; 3 * n];
    let mut y = vec![0.0; 3 * n];
    op.apply(&x, &mut y);
    assert_eq!(op.memory_bytes(), before, "single-vector apply grew scratch");
}
