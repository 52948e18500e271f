//! Pins the one-body reciprocal pipeline.
//!
//! `PmeOperator` has a single private spread → `forward_batch` → influence →
//! `inverse_batch` → interpolate body behind `recip_apply_add` (one vector)
//! and `recip_apply_add_multi` (a block). Two contracts keep trajectories
//! where they were:
//!
//! * **bitwise**: `recip_apply_add` equals its stages run one by one through
//!   the public stage methods on caller-owned meshes (`spread_forces` → the
//!   plans' batched FFTs and influence table → `interpolate_add`), under
//!   both SIMD dispatch legs — the public stages *are* the pipeline's, which
//!   is what lets the ladder's `pme.spread.ms` / `pme.interp.ms` rungs time
//!   them in isolation;
//! * **to roundoff**: column `j` of a block apply matches the single-vector
//!   entry on the gathered column, and a gathered sub-block matches the same
//!   columns of the full block (what the column-partitioned executor in
//!   `hibd-bench` relies on). The single- and multi-RHS row kernels order
//!   their sums differently, so this is 1e-12, not `to_bits`.

use hibd_fft::Complex64;
use hibd_mathx::Vec3;
use hibd_pme::{PmeOperator, PmeParams};
use std::sync::Mutex;

/// The `hibd_simd` override is process-global; toggles serialize here.
static SIMD_LOCK: Mutex<()> = Mutex::new(());

fn params() -> PmeParams {
    PmeParams {
        a: 1.0,
        eta: 1.0,
        box_l: 10.0,
        alpha: 0.8,
        mesh_dim: 24,
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

/// Columns `col0..col0 + w` of a row-major `[rows][s]` block as `[rows][w]`.
fn gather(x: &[f64], s: usize, col0: usize, w: usize) -> Vec<f64> {
    x.chunks_exact(s).flat_map(|row| row[col0..col0 + w].iter().copied()).collect()
}

/// `recip_apply_add` and the public stage methods composed on caller-owned
/// meshes, both starting from the same nonzero `u`.
fn entry_and_composition(op: &mut PmeOperator, f: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let k = op.params().mesh_dim;
    let plans = std::sync::Arc::clone(op.plans());
    let mut via_entry = vector(f.len(), 99);
    let mut via_stages = via_entry.clone();
    op.recip_apply_add(f, &mut via_entry);

    let mut mesh = vec![0.0; 3 * k * k * k];
    let mut spec = vec![Complex64::ZERO; 3 * plans.fft().spectrum_len()];
    op.spread_forces(f, &mut mesh);
    plans.fft().forward_batch(&mesh, &mut spec, 3);
    plans.influence().apply(&mut spec);
    plans.fft().inverse_batch(&mut spec, &mut mesh, 3);
    op.interpolate_add(&mesh, &mut via_stages);
    (via_entry, via_stages)
}

#[test]
fn recip_apply_add_is_bitwise_the_stage_composition_on_both_simd_legs() {
    let _l = SIMD_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = 30;
    let p = params();
    let pos = positions(n, p.box_l, 5);
    let mut op = PmeOperator::new(&pos, p).unwrap();
    let f = vector(3 * n, 7);
    for leg in ["scalar", "dispatched"] {
        let _g = (leg == "scalar").then(hibd_simd::ScalarGuard::new);
        let (entry, stages) = entry_and_composition(&mut op, &f);
        for (i, (a, b)) in entry.iter().zip(&stages).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{leg} leg, i={i}: {a} vs {b}");
        }
    }
}

#[test]
fn block_columns_match_the_single_vector_entry() {
    let n = 9;
    let p = params();
    let pos = positions(n, p.box_l, 61);
    let mut op = PmeOperator::new(&pos, p).unwrap();
    for s in [1usize, 2, 4, 7] {
        let x = vector(3 * n * s, 63 + s as u64);
        let mut y = vec![0.0; 3 * n * s];
        op.recip_apply_add_multi(&x, &mut y, s);
        for col in 0..s {
            let mut yc = vec![0.0; 3 * n];
            op.recip_apply_add(&gather(&x, s, col, 1), &mut yc);
            for i in 0..3 * n {
                let got = y[i * s + col];
                assert!((got - yc[i]).abs() < 1e-12, "s={s} col={col} i={i}: {got} vs {}", yc[i]);
            }
        }
    }
}

#[test]
fn gathered_column_chunks_compose_to_the_full_block() {
    let n = 8;
    let s = 5;
    let p = params();
    let pos = positions(n, p.box_l, 71);
    let mut op = PmeOperator::new(&pos, p).unwrap();
    let x = vector(3 * n * s, 73);
    let mut y_full = vec![0.0; 3 * n * s];
    op.recip_apply_add_multi(&x, &mut y_full, s);
    for (col0, w) in [(0usize, 2usize), (2, 2), (4, 1)] {
        let mut yc = vec![0.0; 3 * n * w];
        op.recip_apply_add_multi(&gather(&x, s, col0, w), &mut yc, w);
        let want = gather(&y_full, s, col0, w);
        for (i, (a, b)) in yc.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-13, "chunk ({col0},{w}) i={i}: {a} vs {b}");
        }
    }
}
