//! Bitwise determinism of the FMM downward pass under rayon.
//!
//! The M2L fan-in recurses over node *ordinal ranges* and splits the local
//! expansion buffer at node boundaries (`split_at_mut`), accumulating each
//! target's interaction list sequentially in traversal order; the upward
//! pass and L2L recurse over sibling *subtrees* (contiguous preorder slices,
//! a node after its children going up and before them going down, each grid
//! written by one node's kernel in octant order) and L2P reuses the
//! leaf-ordinal pattern. The
//! result must therefore be bitwise identical across thread counts — open
//! checkpoint resume replays windows and compares trajectories bitwise, so
//! "close to" is not good enough. Every comparison here is `to_bits`.
//!
//! Block applies run the same passes once per column tile with the tile's
//! columns as the innermost, contiguous index; the splits are the same node
//! and leaf boundaries scaled by the tile width, so `apply_multi` is covered
//! by the same argument and the same tests.

use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_treecode::{TreeEval, TreeOperator, TreeParams};

fn cloud(n: usize, spread: f64, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pos =
        (0..n).map(|_| Vec3::new(next() * spread, next() * spread, next() * spread)).collect();
    let x = (0..3 * n).map(|_| 2.0 * next() - 1.0).collect();
    (pos, x)
}

/// Block width of the `apply_multi` legs: two full column tiles and a tail.
const S: usize = 19;

/// Row-major `[dim][S]` block whose column `j` is `x * (1 + j)`.
fn block_of(x: &[f64]) -> Vec<f64> {
    x.iter().flat_map(|&v| (0..S).map(move |j| v * (1.0 + j as f64))).collect()
}

/// `apply(x)` followed by `apply_multi(block_of(x), S)`, concatenated.
fn apply_in_pool(pos: &[Vec3], x: &[f64], threads: usize) -> Vec<f64> {
    let params = TreeParams { eval: TreeEval::Fmm, ..TreeParams::default() };
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    pool.install(|| {
        let mut op = TreeOperator::new(pos, params);
        let mut y = vec![0.0; x.len() * (1 + S)];
        let (single, block) = y.split_at_mut(x.len());
        op.apply(x, single);
        op.apply_multi(&block_of(x), block, S);
        y
    })
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (va, vb)) in a.iter().zip(b).enumerate() {
        assert!(va.to_bits() == vb.to_bits(), "{what}: component {i} differs: {va:e} vs {vb:e}");
    }
}

#[test]
fn fmm_apply_is_bitwise_identical_serial_vs_rayon() {
    let (pos, x) = cloud(600, 24.0, 9001);
    let serial = apply_in_pool(&pos, &x, 1);
    for threads in [2, 4, 7] {
        let parallel = apply_in_pool(&pos, &x, threads);
        assert_bitwise_eq(&serial, &parallel, &format!("1 vs {threads} threads"));
    }
}

#[test]
fn fmm_apply_is_bitwise_reproducible_across_repeats_and_rebuilds() {
    let (pos, x) = cloud(400, 20.0, 31);
    let params = TreeParams { eval: TreeEval::Fmm, ..TreeParams::default() };

    // Same operator, repeated applies: steady-state scratch reuse must not
    // perturb a single bit — also not after a block apply has widened the
    // tile scratch the single apply then uses a prefix of.
    let mut op = TreeOperator::new(&pos, params);
    let mut y1 = vec![0.0; 3 * pos.len()];
    let mut y2 = vec![0.0; 3 * pos.len()];
    op.apply(&x, &mut y1);
    op.apply(&x, &mut y2);
    assert_bitwise_eq(&y1, &y2, "repeat apply on one operator");
    let xs = block_of(&x);
    let mut ys1 = vec![0.0; xs.len()];
    let mut ys2 = vec![0.0; xs.len()];
    op.apply_multi(&xs, &mut ys1, S);
    op.apply(&x, &mut y2);
    op.apply_multi(&xs, &mut ys2, S);
    assert_bitwise_eq(&y1, &y2, "apply after a block apply");
    assert_bitwise_eq(&ys1, &ys2, "repeat block apply on one operator");

    // A freshly built operator over the same cloud: setup is a pure
    // function of (positions, params).
    let mut fresh = TreeOperator::new(&pos, params);
    let mut y3 = vec![0.0; 3 * pos.len()];
    fresh.apply(&x, &mut y3);
    assert_bitwise_eq(&y1, &y3, "fresh rebuild");
}

#[test]
fn fmm_apply_multi_columns_are_bitwise_identical_to_single_applies() {
    // The downward pass runs once per column *tile*, every table entry and
    // interpolation weight applied to all of the tile's columns; batching
    // must not change a column's expression tree. Column `j` of
    // `apply_multi` == standalone `apply`, across full tiles and the tail.
    let (pos, x) = cloud(150, 14.0, 77);
    let n3 = 3 * pos.len();
    let s = S;
    let params = TreeParams { eval: TreeEval::Fmm, ..TreeParams::default() };
    let mut op = TreeOperator::new(&pos, params);

    // Multi-RHS layout is row-major [dim][s].
    let xs = block_of(&x);
    let mut ys = vec![0.0; n3 * s];
    op.apply_multi(&xs, &mut ys, s);

    for j in 0..s {
        let xj: Vec<f64> = (0..n3).map(|d| xs[d * s + j]).collect();
        let mut yj = vec![0.0; n3];
        op.apply(&xj, &mut yj);
        let col: Vec<f64> = (0..n3).map(|d| ys[d * s + j]).collect();
        assert_bitwise_eq(&yj, &col, &format!("multi column {j}"));
    }
}
