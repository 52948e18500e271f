//! Properties of the Lanczos square-root solvers against dense references,
//! over a fixed set of generated cases (a self-contained LCG, so the suite
//! needs no property-testing crate and runs wherever `cargo test` does).

use hibd_krylov::{block_lanczos_sqrt, lanczos_sqrt, KrylovConfig};
use hibd_linalg::{sym_eig, DMat, DenseOp};

const CASES: u64 = 24;

/// SPD matrix with eigenvalues in [lo, hi] built from a random rotation.
fn spd_from(raw: &[f64], n: usize, lo: f64, hi: f64) -> DMat {
    let b = DMat::from_vec(n, n, raw.to_vec());
    let sym = DMat::from_fn(n, n, |i, j| b[(i, j)] + b[(j, i)]);
    let (_, v) = sym_eig(&sym).unwrap();
    let mut vw = v.clone();
    for i in 0..n {
        for j in 0..n {
            let w = lo + (hi - lo) * j as f64 / (n - 1).max(1) as f64;
            vw[(i, j)] *= w;
        }
    }
    vw.matmul(&v.transpose())
}

fn exact_sqrt_times(m: &DMat, x: &[f64]) -> Vec<f64> {
    let (w, v) = sym_eig(m).unwrap();
    let n = m.nrows();
    let mut tmp = vec![0.0; n];
    for j in 0..n {
        let mut s = 0.0;
        for i in 0..n {
            s += v[(i, j)] * x[i];
        }
        tmp[j] = s * w[j].max(0.0).sqrt();
    }
    let mut out = vec![0.0; n];
    for i in 0..n {
        for j in 0..n {
            out[i] += v[(i, j)] * tmp[j];
        }
    }
    out
}

fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
    let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

/// Case `seed`: `n` in `3..16`, `n * n` matrix entries and an `n`-vector,
/// all uniform in `[-1, 1)`.
fn case(seed: u64) -> (usize, Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let n = 3 + (next() * 13.0) as usize;
    let raw = (0..n * n).map(|_| 2.0 * next() - 1.0).collect();
    let z = (0..n).map(|_| 2.0 * next() - 1.0).collect();
    (n, raw, z)
}

#[test]
fn lanczos_sqrt_matches_eigendecomposition() {
    for seed in 0..CASES {
        let (n, raw, z) = case(seed);
        let m = spd_from(&raw, n, 0.4, 2.5);
        let want = exact_sqrt_times(&m, &z);
        let cfg = KrylovConfig { tol: 1e-10, max_iter: 4 * n, check_interval: 1 };
        let (g, stats) = lanczos_sqrt(&mut DenseOp::new(m), &z, &cfg).unwrap();
        assert!(stats.converged, "case {seed} (n = {n})");
        assert!(rel_err(&g, &want) < 1e-6, "case {seed} (n = {n}): err {}", rel_err(&g, &want));
    }
}

#[test]
fn block_and_single_agree() {
    for seed in 0..CASES {
        let (n, raw, z) = case(seed);
        let m = spd_from(&raw, n, 0.5, 2.0);
        let cfg = KrylovConfig { tol: 1e-9, max_iter: 4 * n, check_interval: 1 };
        let (g1, _) = lanczos_sqrt(&mut DenseOp::new(m.clone()), &z, &cfg).unwrap();
        let (gb, _) = block_lanczos_sqrt(&mut DenseOp::new(m), &z, 1, &cfg).unwrap();
        assert!(rel_err(&g1, &gb) < 1e-5, "case {seed} (n = {n}): err {}", rel_err(&g1, &gb));
    }
}
