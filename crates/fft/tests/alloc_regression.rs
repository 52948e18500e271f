//! Allocation regression for the 1D FFT plan applies.
//!
//! `FftPlan::forward`/`inverse` take caller-provided scratch and must not
//! touch the heap at all — the SIMD combine layer stages twiddles in
//! precomputed SoA tables and works in registers, so there is no "warm-up"
//! to excuse: the assertion is zero allocator calls, not just zero net
//! bytes. (The 3D `Fft3` transforms allocate per-worker line scratch by
//! design and are covered by the PME operator steady-state tests instead.)

use hibd_alloctrack::{exclusive, measure};
use hibd_fft::{Complex64, FftPlan, RealFftPlan};

hibd_alloctrack::install!();

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let re = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let im = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            Complex64::new(re, im)
        })
        .collect()
}

#[test]
fn complex_plan_apply_never_allocates() {
    let _guard = exclusive();
    // One-time dispatch detection reads HIBD_SIMD (allocates when the
    // variable is set) — keep it outside the measurement window.
    hibd_simd::avx2();
    // Smooth sizes covering every SIMD radix, plus a Bluestein length.
    for &n in &[16usize, 18, 27, 60, 125, 400, 97] {
        let plan = FftPlan::new(n).unwrap();
        let mut data = signal(n, n as u64);
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        let (m, ()) = measure(|| {
            for _ in 0..3 {
                plan.forward(&mut data, &mut scratch);
                plan.inverse(&mut data, &mut scratch);
            }
        });
        assert_eq!(m.alloc_calls, 0, "n={n}: plan apply made {} allocations", m.alloc_calls);
        // Zero calls is the contract. With none of our own, a non-zero net is
        // another libtest thread's `free` landing in the window (the counters
        // are process-global), which reads negative; only growth is a leak.
        assert!(m.net_bytes <= 0, "n={n}: plan apply leaked {} bytes", m.net_bytes);
    }
}

#[test]
fn real_plan_apply_never_allocates() {
    let _guard = exclusive();
    // One-time dispatch detection reads HIBD_SIMD (allocates when the
    // variable is set) — keep it outside the measurement window.
    hibd_simd::avx2();
    for &n in &[16usize, 20, 48, 64] {
        let plan = RealFftPlan::new(n).unwrap();
        let real: Vec<f64> = signal(n, 7 * n as u64).iter().map(|c| c.re).collect();
        let mut half = vec![Complex64::ZERO; plan.spectrum_len()];
        let mut out = vec![0.0f64; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        let (m, ()) = measure(|| {
            for _ in 0..3 {
                plan.forward(&real, &mut half, &mut scratch);
                plan.inverse(&half, &mut out, &mut scratch);
            }
        });
        assert_eq!(m.alloc_calls, 0, "n={n}: real plan apply made {} allocations", m.alloc_calls);
        // As above: only growth is a leak.
        assert!(m.net_bytes <= 0, "n={n}: real plan apply leaked {} bytes", m.net_bytes);
    }
}
