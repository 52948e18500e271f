//! Steady-state allocation regression tests for the PME operator.
//!
//! CLAUDE.md: "PmeOperator apply paths are allocation-free at steady state".
//! These tests install the counting allocator and hold the invariant to net
//! heap growth measured across all threads: after a warm-up apply has grown
//! the scratch, repeated applies must not leak a single persistent buffer.
//! (Transient allocations that free before the measurement ends — rayon's
//! injector blocks, worker-split scratch — net out by construction; the
//! lexical "no `vec!` in hot code at all" side is enforced by
//! `cargo run -p xtask -- audit`.)

use hibd_alloctrack::{exclusive, measure};
use hibd_mathx::Vec3;
use hibd_pme::{PmeOperator, PmeParams};

hibd_alloctrack::install!();

/// Slack for allocator-internal bookkeeping and lazily grown runtime
/// structures (thread-local caches, crossbeam queue blocks). A genuine
/// per-apply leak on these meshes is hundreds of kilobytes per apply.
const TOL: isize = 16 * 1024;

fn params() -> PmeParams {
    PmeParams {
        a: 1.0,
        eta: 1.0,
        box_l: 10.0,
        alpha: 0.8,
        mesh_dim: 32,
        spline_order: 6,
        r_max: 4.5,
    }
}

fn positions(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * box_l
    };
    (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
}

fn vector(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

#[test]
fn single_rhs_apply_is_allocation_free_at_steady_state() {
    use hibd_linalg::LinearOperator;
    let _guard = exclusive();
    let n = 40;
    let p = params();
    let pos = positions(n, p.box_l, 1);
    let mut op = PmeOperator::new(&pos, p).unwrap();
    let x = vector(3 * n, 3);
    let mut y = vec![0.0; 3 * n];
    for _ in 0..2 {
        op.apply(&x, &mut y); // warm-up: grows mesh/spectrum scratch
    }
    let claimed = op.memory_bytes();
    let (m, ()) = measure(|| {
        for _ in 0..5 {
            op.apply(&x, &mut y);
        }
    });
    assert!(m.net_bytes.abs() <= TOL, "5 warm applies leaked {} net bytes", m.net_bytes);
    assert_eq!(op.memory_bytes(), claimed, "scratch grew after warm-up");
}

#[test]
fn block_apply_is_allocation_free_at_steady_state() {
    use hibd_linalg::LinearOperator;
    let _guard = exclusive();
    let n = 24;
    let s = 4;
    let p = params();
    let pos = positions(n, p.box_l, 11);
    let mut op = PmeOperator::new(&pos, p).unwrap();
    let x = vector(3 * n * s, 13);
    let mut y = vec![0.0; 3 * n * s];
    for _ in 0..2 {
        op.apply_multi(&x, &mut y, s); // warm-up: grows batch scratch
    }
    let claimed = op.memory_bytes();
    let (m, ()) = measure(|| {
        for _ in 0..5 {
            op.apply_multi(&x, &mut y, s);
        }
    });
    assert!(m.net_bytes.abs() <= TOL, "5 warm block applies leaked {} net bytes", m.net_bytes);
    assert_eq!(op.memory_bytes(), claimed);
}

#[test]
fn alternating_widths_are_allocation_free_once_the_widest_has_run() {
    // The vector entry and every block width share one batch scratch that
    // only grows: after the widest apply, narrower ones (the column chunks a
    // partitioned executor gathers) must not allocate.
    let _guard = exclusive();
    let n = 24;
    let s = 6;
    let width = 3;
    let p = params();
    let pos = positions(n, p.box_l, 21);
    let mut op = PmeOperator::new(&pos, p).unwrap();
    let x = vector(3 * n * s, 23);
    let mut y = vec![0.0; 3 * n * s];
    op.recip_apply_add_multi(&x, &mut y, s);
    let (xw, yw) = (&x[..3 * n * width], &mut y[..3 * n * width]);
    let (m, ()) = measure(|| {
        for _ in 0..4 {
            op.recip_apply_add_multi(xw, yw, width);
            op.recip_apply_add(&xw[..3 * n], &mut yw[..3 * n]);
        }
    });
    assert!(m.net_bytes.abs() <= TOL, "narrower warm applies leaked {} net bytes", m.net_bytes);
}

#[test]
fn memory_bytes_accounts_for_measured_scratch_growth() {
    // The self-audit of the `memory_bytes` bookkeeping: growing the batch
    // scratch (first block apply after single-RHS warm-up) must raise the
    // *claimed* footprint by what the allocator *measured*, within
    // tolerance. A scratch buffer `memory_bytes` forgot to count shows up
    // here as measured >> claimed.
    use hibd_linalg::LinearOperator;
    let _guard = exclusive();
    let n = 24;
    let s = 8;
    let p = params();
    let pos = positions(n, p.box_l, 31);
    let mut op = PmeOperator::new(&pos, p).unwrap();
    let x1 = vector(3 * n, 33);
    let mut y1 = vec![0.0; 3 * n];
    op.apply(&x1, &mut y1); // grow the single-RHS scratch first
    let claimed_before = op.memory_bytes();
    let x = vector(3 * n * s, 35);
    let mut y = vec![0.0; 3 * n * s];
    let (m, ()) = measure(|| op.apply_multi(&x, &mut y, s));
    let claimed_delta = (op.memory_bytes() - claimed_before) as isize;
    assert!(claimed_delta > 0, "block apply should have grown batch scratch");
    assert!(
        (m.net_bytes - claimed_delta).abs() <= TOL,
        "allocator measured {} net bytes of growth but memory_bytes claims {claimed_delta}",
        m.net_bytes
    );
}
