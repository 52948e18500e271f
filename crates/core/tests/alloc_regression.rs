//! Allocation regression for the Algorithm 2 driver: BD steps inside one
//! operator window must not grow the heap, and a window refresh must never
//! hold two operators nor allocate the batch scratch again.
//!
//! The expensive allocations (PME operator, displacement block, per-step
//! scratch) all happen at the window refresh; the steps that follow inside
//! the window reuse them. Force evaluation allocates a transient total-force
//! vector per step, which frees immediately — the invariant is zero *net*
//! growth, i.e. nothing persists step to step.

use hibd_alloctrack::{exclusive, measure};
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_core::system::ParticleSystem;
use rand::rngs::StdRng;
use rand::SeedableRng;

hibd_alloctrack::install!();

const TOL: isize = 16 * 1024;

#[test]
fn steps_within_a_lambda_window_do_not_grow_the_heap() {
    let _guard = exclusive();
    let mut rng = StdRng::seed_from_u64(4);
    let sys = ParticleSystem::random_suspension(24, 0.1, &mut rng);
    let cfg = MatrixFreeConfig { lambda_rpy: 8, ..Default::default() };
    let mut bd = MatrixFreeBd::new(sys, cfg, 11).unwrap();

    // Step 1 refreshes the operator, draws the displacement block, and
    // grows the per-step scratch; steps 2..8 stay inside the window.
    bd.step().unwrap();
    let op_mem = bd.operator_memory_bytes();
    let (m, ()) = measure(|| {
        for _ in 0..5 {
            bd.step().unwrap();
        }
    });
    assert!(m.net_bytes.abs() <= TOL, "5 in-window steps leaked {} net bytes", m.net_bytes);
    assert_eq!(bd.operator_memory_bytes(), op_mem, "operator scratch grew inside the window");
}

#[test]
fn window_refresh_keeps_one_operator_resident() {
    // The operator's `3 lambda`-mesh batch scratch dominates the driver's
    // footprint, so building window k+1 (and running its whole Krylov solve)
    // while window k's operator is still alive doubles the resident peak.
    // `refresh_operator` drops before it rebuilds; measured across the
    // *second* refresh, the heap peak above the non-operator heap must stay
    // near one operator (it was ~2x before the fix). Nor may the scratch be
    // dropped with the operator and grown again: that leaves net and peak
    // bytes alone but allocates (and page-faults) `3 lambda` meshes per
    // window, so the refresh must make no allocation as large as one mesh.
    let _guard = exclusive();
    let lambda = 8;
    let mut rng = StdRng::seed_from_u64(4);
    let sys = ParticleSystem::random_suspension(24, 0.1, &mut rng);
    let cfg = MatrixFreeConfig { lambda_rpy: lambda, ..Default::default() };
    let mut bd = MatrixFreeBd::new(sys, cfg, 11).unwrap();
    bd.run(lambda).unwrap(); // first window, fully consumed

    let op_mem = bd.operator_memory_bytes() as isize;
    let (m, ()) = measure(|| bd.step().unwrap()); // second refresh
    let peak_above = m.peak_bytes + op_mem;
    assert!(
        peak_above <= op_mem + op_mem / 4,
        "refresh peaked {peak_above} bytes above the non-operator heap; one operator is {op_mem}"
    );
    let k = bd.shape().pme.expect("periodic").mesh_dim;
    assert!(
        m.largest_alloc < 8 * k * k * k,
        "refresh allocated {} bytes at once; one K = {k} mesh is {}",
        m.largest_alloc,
        8 * k * k * k
    );
}
