//! Negative fixture for pure-tuner (audited under a tuner / perf-model
//! path): a "tuner" that times a trial apply, sizes itself to the host,
//! honours an env override and caches its answer on disk. Every one of
//! these makes the chosen shape differ between the run and its resume, or
//! between two hosts.

use rayon::prelude::*;
use std::time::{Instant, SystemTime};

pub struct Shape {
    pub mesh_dim: usize,
}

pub fn tune(n: usize) -> Shape {
    if let Ok(text) = std::fs::read_to_string("tune.cache") {
        return Shape { mesh_dim: text.trim().parse().unwrap_or(32) };
    }
    if let Ok(k) = std::env::var("HIBD_MESH") {
        return Shape { mesh_dim: k.parse().unwrap_or(32) };
    }
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let t0 = Instant::now();
    let work: f64 = (0..n).into_par_iter().map(|i| i as f64).sum();
    let secs = t0.elapsed().as_secs_f64();
    let _stamp = SystemTime::now();
    Shape { mesh_dim: if secs * work > threads as f64 { 64 } else { 32 } }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn tests_may_time_things() {
        let t0 = Instant::now();
        assert!(t0.elapsed().as_secs_f64() >= 0.0);
        assert!(std::env::var("HOME").is_ok() || std::fs::metadata("/").is_ok());
    }
}
