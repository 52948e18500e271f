//! Properties of the dense linear algebra kernels over generated cases (a
//! self-contained LCG, so the suite needs no property-testing crate and runs
//! wherever `cargo test` does), and the eigensolver against an independent
//! oracle on the shapes block Lanczos hands it.

use hibd_linalg::{sym_eig, sym_sqrt_times_block, thin_qr, CholeskyFactor, DMat};

const CASES: u64 = 40;

/// Uniform draws in `[-1, 1)`.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407))
    }

    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `lo..hi`.
    fn size(&mut self, lo: usize, hi: usize) -> usize {
        lo + ((self.next() + 1.0) * 0.5 * (hi - lo) as f64) as usize
    }

    fn matrix(&mut self, nrows: usize, ncols: usize) -> DMat {
        DMat::from_fn(nrows, ncols, |_, _| self.next())
    }

    fn symmetric(&mut self, n: usize) -> DMat {
        let b = self.matrix(n, n);
        DMat::from_fn(n, n, |i, j| b[(i, j)] + b[(j, i)])
    }

    /// `B B^T + n I`: the diagonal shift guarantees SPD.
    fn spd(&mut self, n: usize) -> DMat {
        let b = self.matrix(n, n);
        let mut a = b.matmul(&b.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    /// `Q diag(w) Q^T` with `Q` the orthonormal factor of a random square.
    fn with_spectrum(&mut self, w: &[f64]) -> DMat {
        let n = w.len();
        let q = thin_qr(&self.matrix(n, n)).q;
        let qw = DMat::from_fn(n, n, |i, j| q[(i, j)] * w[j]);
        qw.matmul(&q.transpose())
    }

    /// A block tridiagonal like block Lanczos' `T_m`: `m` symmetric `s x s`
    /// diagonal blocks, upper-triangular subdiagonal blocks (thin-QR `R`
    /// factors) with a positive diagonal.
    fn block_tridiagonal(&mut self, m: usize, s: usize) -> DMat {
        let mut t = DMat::zeros(m * s, m * s);
        for jb in 0..m {
            let a = self.symmetric(s);
            for i in 0..s {
                for k in 0..s {
                    t[(jb * s + i, jb * s + k)] = a[(i, k)] + if i == k { 3.0 } else { 0.0 };
                }
            }
            if jb + 1 < m {
                for i in 0..s {
                    for k in i..s {
                        let b = if i == k { 0.5 + 0.5 * self.next().abs() } else { self.next() };
                        t[((jb + 1) * s + i, jb * s + k)] = b;
                        t[(jb * s + k, (jb + 1) * s + i)] = b;
                    }
                }
            }
        }
        t
    }
}

#[test]
fn cholesky_reconstructs() {
    for seed in 0..CASES {
        let mut rng = Lcg::new(seed);
        let n = rng.size(1, 12);
        let a = rng.spd(n);
        let f = CholeskyFactor::new(&a).unwrap();
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-9 * (n as f64), "case {seed}");
    }
}

#[test]
fn cholesky_solve_inverts() {
    for seed in 0..CASES {
        let mut rng = Lcg::new(100 + seed);
        let n = rng.size(1, 10);
        let a = rng.spd(n);
        let xs: Vec<f64> = (0..n).map(|_| rng.next()).collect();
        let f = CholeskyFactor::new(&a).unwrap();
        let mut b = vec![0.0; n];
        a.mul_vec(&xs, &mut b);
        let mut x = vec![0.0; n];
        f.solve(&b, &mut x);
        for (got, want) in x.iter().zip(&xs) {
            assert!((got - want).abs() < 1e-7, "case {seed}");
        }
    }
}

#[test]
fn qr_reconstruction_and_orthogonality() {
    for seed in 0..CASES {
        let mut rng = Lcg::new(200 + seed);
        let n = rng.size(2, 20);
        let s = rng.size(1, 6).min(n);
        let a = rng.matrix(n, s);
        let f = thin_qr(&a);
        assert!(f.q.matmul(&f.r).max_abs_diff(&a) < 1e-10, "case {seed}");
        // Columns not flagged deficient must be orthonormal.
        let gram = f.q.tr_matmul(&f.q);
        for i in (0..s).filter(|i| !f.deficient.contains(i)) {
            for j in (0..s).filter(|j| !f.deficient.contains(j)) {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((gram[(i, j)] - want).abs() < 1e-10, "case {seed}");
            }
        }
    }
}

#[test]
fn sqrt_squares_to_operator() {
    for seed in 0..CASES {
        let mut rng = Lcg::new(300 + seed);
        let n = rng.size(1, 8);
        let a = rng.spd(n);
        let s1 = sym_sqrt_times_block(&a, &DMat::identity(n)).unwrap();
        assert!(s1.matmul(&s1).max_abs_diff(&a) < 1e-8 * a.fro_norm().max(1.0), "case {seed}");
    }
}

#[test]
fn gemm_is_associative_with_vectors() {
    // (A B) x == A (B x)
    for seed in 0..CASES {
        let mut rng = Lcg::new(400 + seed);
        let n = rng.size(1, 8);
        let (a, b) = (rng.matrix(n, n), rng.matrix(n, n));
        let xs: Vec<f64> = (0..n).map(|_| rng.next()).collect();
        let mut lhs = vec![0.0; n];
        a.matmul(&b).mul_vec(&xs, &mut lhs);
        let mut bx = vec![0.0; n];
        b.mul_vec(&xs, &mut bx);
        let mut rhs = vec![0.0; n];
        a.mul_vec(&bx, &mut rhs);
        for (p, q) in lhs.iter().zip(&rhs) {
            assert!((p - q).abs() < 1e-10, "case {seed}");
        }
    }
}

/// Eigenvalues by cyclic Jacobi, ascending: the solver `sym_eig` ran before
/// Householder + QL, kept as an oracle that shares no step with it.
fn jacobi_eigenvalues(a: &DMat) -> Vec<f64> {
    let n = a.nrows();
    let mut m = DMat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let scale = (0..n)
        .map(|i| m[(i, i)].abs())
        .fold(0.0f64, f64::max)
        .max(m.fro_norm() / (n as f64).max(1.0))
        .max(1e-300);
    let tol = 1e-15 * scale;
    for _sweep in 0..100 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                off = off.max(m[(p, q)].abs());
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                // Jacobi rotation zeroing m[p][q].
                let theta = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    if k != p && k != q {
                        let (mkp, mkq) = (m[(k, p)], m[(k, q)]);
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(p, k)] = m[(k, p)];
                        m[(k, q)] = s * mkp + c * mkq;
                        m[(q, k)] = m[(k, q)];
                    }
                }
                m[(p, p)] -= t * apq;
                m[(q, q)] += t * apq;
                m[(p, q)] = 0.0;
                m[(q, p)] = 0.0;
            }
        }
    }
    let mut w: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    w.sort_by(f64::total_cmp);
    w
}

/// Everything `sym_eig` promises, on one matrix.
fn check_sym_eig(a: &DMat, what: &str) {
    let n = a.nrows();
    let norm = a.fro_norm();
    let (w, v) = sym_eig(a).unwrap();
    assert!(w.windows(2).all(|p| p[0] <= p[1]), "{what}: ascending");
    let av = a.matmul(&v);
    let residual = DMat::from_fn(n, n, |i, j| av[(i, j)] - v[(i, j)] * w[j]).fro_norm();
    assert!(residual <= 1e-13 * norm, "{what}: ||AV - VL|| = {residual:e}, ||A|| = {norm:e}");
    let gram = v.tr_matmul(&v);
    let loss = DMat::from_fn(n, n, |i, j| gram[(i, j)] - f64::from(u8::from(i == j))).fro_norm();
    assert!(loss <= 1e-13, "{what}: ||V^T V - I|| = {loss:e}");
    let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
    assert!(
        (trace - w.iter().sum::<f64>()).abs() <= 1e-13 * norm.max(1e-300) * n as f64,
        "{what}: trace"
    );
    for (k, (got, want)) in w.iter().zip(jacobi_eigenvalues(a)).enumerate() {
        assert!(
            (got - want).abs() <= 1e-12 * norm,
            "{what}: eigenvalue {k}: {got:e} vs Jacobi {want:e}"
        );
    }
}

#[test]
fn sym_eig_on_random_dense_matrices() {
    for seed in 0..CASES {
        let mut rng = Lcg::new(500 + seed);
        let n = rng.size(1, 10);
        check_sym_eig(&rng.symmetric(n), &format!("case {seed}, n = {n}"));
    }
    let mut rng = Lcg::new(600);
    for n in [16, 33, 64, 112] {
        check_sym_eig(&rng.symmetric(n), &format!("dense n = {n}"));
    }
}

#[test]
fn sym_eig_on_the_block_tridiagonals_lanczos_builds() {
    let mut rng = Lcg::new(700);
    for s in [8, 16] {
        for m in 1..=112 / s {
            check_sym_eig(&rng.block_tridiagonal(m, s), &format!("s = {s}, m s = {}", m * s));
        }
    }
}

#[test]
fn sym_eig_on_graded_repeated_and_zero_spectra() {
    let mut rng = Lcg::new(800);
    for n in [8usize, 40, 96] {
        // 1e-8 ... 1, log-spaced.
        let graded: Vec<f64> =
            (0..n).map(|k| 10f64.powf(-8.0 * k as f64 / (n - 1) as f64)).collect();
        check_sym_eig(&rng.with_spectrum(&graded), &format!("graded n = {n}"));
        let repeated: Vec<f64> = (0..n).map(|k| [1.0, 1.0, 1.0, 2.0, 2.0, 5.0][k % 6]).collect();
        check_sym_eig(&rng.with_spectrum(&repeated), &format!("repeated n = {n}"));
        let zeros: Vec<f64> =
            (0..n).map(|k| if k % 3 == 0 { 0.0 } else { 1.0 + k as f64 }).collect();
        check_sym_eig(&rng.with_spectrum(&zeros), &format!("zero eigenvalues n = {n}"));
    }
}

#[test]
fn sym_eig_on_tiny_and_zero_matrices() {
    check_sym_eig(&DMat::from_vec(1, 1, vec![-2.5]), "1 x 1");
    check_sym_eig(&DMat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]), "2 x 2");
    check_sym_eig(&DMat::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]), "2 x 2 identity");
    check_sym_eig(&DMat::zeros(5, 5), "zero matrix");
    let (w, v) = sym_eig(&DMat::zeros(0, 0)).unwrap();
    assert!(w.is_empty() && v.as_slice().is_empty());
}
