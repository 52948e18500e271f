//! Positive fixture: hot functions using only the sanctioned idioms —
//! slice arithmetic, stack arrays, and `resize` on caller-owned scratch.

use hibd_hot as hibd;

#[hibd::hot]
fn saxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[hibd::hot]
fn tile_reduce(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    for chunk in x.chunks(8) {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += v;
        }
    }
    acc.iter().sum()
}

fn with_scratch(scratch: &mut Vec<f64>, n: usize) {
    // Grow-only reuse outside a hot fn, and allowed inside one too.
    scratch.resize(n, 0.0);
}

#[hibd::hot]
fn telemetry_timed_kernel(x: &mut [f64], sink: &mut hibd_telemetry::Snapshot) {
    // The sanctioned hot-path timing mechanism: a telemetry stopwatch
    // stopped into the caller's snapshot (inline arrays: allocation-free,
    // plus a single relaxed load when global recording is off).
    let sw = hibd_telemetry::start(hibd_telemetry::Phase::RealSpace);
    for v in x.iter_mut() {
        *v *= 2.0;
    }
    hibd_telemetry::incr(hibd_telemetry::Counter::NeighborRebuilds, 1);
    sw.stop(sink);
}
