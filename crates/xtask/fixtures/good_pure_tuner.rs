//! Positive fixture for pure-tuner: the shape is a table lookup in the
//! tolerance, and the machine is fitted from seconds the caller measured
//! and hands over. Comments and strings may say Instant, rayon or std::fs.

pub struct Snapshot {
    pub fft_secs: f64,
}

pub struct Machine {
    pub fft_flops: f64,
}

const SCHEDULE: [(f64, usize); 3] = [(1e-2, 32), (1e-3, 48), (1e-4, 64)];

pub fn tune(rel_tol: f64) -> usize {
    SCHEDULE.iter().find(|&&(tol, _)| tol <= rel_tol).map_or(64, |&(_, k)| k)
}

/// Flops over the seconds in `snap` — recorded elsewhere, with whatever
/// clock the caller likes ("Instant::now()" included).
pub fn fit(flops: f64, snap: &Snapshot) -> Machine {
    Machine { fft_flops: flops / snap.fft_secs }
}
