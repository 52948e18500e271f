//! Allocation regression for the batched near-field kernels.
//!
//! Both entry points work on caller-provided slices with stack-only state
//! (the treecode calls `rpy_pairs_accumulate_multi` inside its parallel leaf pass,
//! and `real_tensors_with_overlap4` runs inside the real-space assembly
//! loop), so the assertion is zero allocator calls, not a steady-state
//! budget.

use hibd_alloctrack::{exclusive, measure};
use hibd_mathx::Vec3;
use hibd_rpy::{
    real_tensors_with_overlap4, rpy_pairs_accumulate, rpy_pairs_accumulate_multi, RpyEwald,
    PAIR_TILE,
};

hibd_alloctrack::install!();

#[test]
fn pair_batch_kernel_never_allocates() {
    let _guard = exclusive();
    // One-time dispatch detection reads HIBD_SIMD (allocates when the
    // variable is set) — keep it outside the measurement window.
    hibd_simd::avx2();
    let a = 1.0;
    let n = PAIR_TILE;
    let mut state = 0x9e3779b97f4a7c15_u64;
    let mut next = move || {
        state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    };
    let sx: Vec<f64> = (0..n).map(|_| next()).collect();
    let sy: Vec<f64> = (0..n).map(|_| next()).collect();
    let sz: Vec<f64> = (0..n).map(|_| next()).collect();
    let vx: Vec<f64> = (0..n).map(|_| next()).collect();
    let vy: Vec<f64> = (0..n).map(|_| next()).collect();
    let vz: Vec<f64> = (0..n).map(|_| next()).collect();
    let mut out = [0.0f64; 3];
    // A three-column block over the same tile (the runtime-width instance).
    let cols =
        [[&vx[..], &vy[..], &vz[..]], [&vy[..], &vz[..], &vx[..]], [&vz[..], &vx[..], &vy[..]]];
    let mut outs = [[0.0f64; 3]; 3];
    let (m, ()) = measure(|| {
        for _ in 0..8 {
            rpy_pairs_accumulate(a, 0.1, -0.2, 0.3, &sx, &sy, &sz, &vx, &vy, &vz, &mut out);
            rpy_pairs_accumulate_multi(a, 0.1, -0.2, 0.3, &sx, &sy, &sz, &cols, &mut outs);
        }
    });
    assert_eq!(m.alloc_calls, 0, "pair kernel made {} allocations", m.alloc_calls);
    assert_eq!(m.net_bytes, 0, "pair kernel leaked {} bytes", m.net_bytes);
}

#[test]
fn batched_ewald_kernel_never_allocates() {
    let _guard = exclusive();
    // One-time dispatch detection reads HIBD_SIMD (allocates when the
    // variable is set) — keep it outside the measurement window.
    hibd_simd::avx2();
    let ew = RpyEwald::new(1.0, 1.0, 12.0, 0.8, 1e-8);
    let rv = [
        Vec3::new(1.1, 0.2, -0.4),
        Vec3::new(0.6, -0.7, 0.9), // |r| < 2a: overlap branch
        Vec3::new(2.0, 0.0, 0.0),  // exactly the boundary
        Vec3::new(-2.5, 1.5, 3.0),
    ];
    let mut out = [[0.0f64; 9]; 4];
    let (m, ()) = measure(|| {
        for _ in 0..8 {
            real_tensors_with_overlap4(&ew, &rv, &mut out);
        }
    });
    assert_eq!(m.alloc_calls, 0, "batched Ewald kernel made {} allocations", m.alloc_calls);
    assert_eq!(m.net_bytes, 0, "batched Ewald kernel leaked {} bytes", m.net_bytes);
}
