//! The combined PSE sampler: near-field block Lanczos + exact wave-space
//! square root.
//!
//! **Wave part.** Under the repo's unnormalized FFT convention
//! (`ifft(fft(x)) = n x`), the PME reciprocal operator is the matrix
//! `A = P W̄ D W Pᵀ` with `W` the (symmetric) forward DFT, `W̄` the inverse,
//! `W̄ W = K³ I`, and `D = diag(s(k) (I - k̂k̂ᵀ))`. Filling the half
//! spectrum with Hermitian-symmetric unit complex Gaussians `ξ`
//! (`E[ξ(k) ξ(k)^*] = 1`, `ξ(-k) = ξ(k)^*`), scaling by `D^{1/2}`
//! ([`Influence::apply_sqrt_multi`]), running **one** unnormalized inverse
//! FFT and interpolating gives `u = P W̄ D^{1/2} ξ` with
//!
//! `Cov(u) = P W̄ D^{1/2} E[ξ ξ^H] D^{1/2} W̄^H Pᵀ = P W̄ D W Pᵀ = A`
//!
//! exactly — no `K³` normalization factor appears, because the sampler runs
//! one inverse transform where the apply runs a forward/inverse round trip.
//! Zero FFT forward passes, zero iterations.
//!
//! **Near part.** Block Lanczos on the sparse [`NearFieldOperator`] — whose
//! matvec is an SpMM, not an FFT — converges in a handful of iterations:
//! the screened real-space kernel is short-ranged and diagonally dominant.
//!
//! The near sample is written first (overwrite), the wave sample
//! accumulates on top via [`interpolate_multi`] — the same
//! overwrite-then-accumulate convention as the PME apply pipeline.

use crate::nearfield::NearFieldOperator;
use crate::PseParams;
use hibd_fft::{Complex64, Fft3};
use hibd_hot as hibd;
use hibd_krylov::{block_lanczos_sqrt, KrylovConfig, KrylovError, KrylovStats};
use hibd_linalg::LinearOperator;
use hibd_mathx::{fill_standard_normal, standard_normal, Vec3};
use hibd_pme::influence::Influence;
use hibd_pme::pmat::{build_interp_matrix, InterpMatrix};
use hibd_pme::spread::{interpolate_multi, SpreadPlan};
use hibd_rpy::RpyHasimoto;
use rand::rngs::StdRng;
use std::f64::consts::FRAC_1_SQRT_2;

/// Columns per batched wave pass (bounds the mesh/spectrum scratch exactly
/// like the PME operator's column chunks).
pub const WAVE_CHUNK: usize = 8;

/// Errors from sampler construction or drawing.
#[derive(Debug)]
pub enum PseError {
    /// FFT plan or parameter validation failure.
    Setup(String),
    /// The near-field Lanczos failed. The positive split keeps the near
    /// field SPD at every `xi`, so `NotPositiveSemidefinite` here means
    /// degenerate input (coincident or non-finite particle positions) or a
    /// bug, not a parameter to retune.
    Krylov(KrylovError),
}

impl std::fmt::Display for PseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PseError::Setup(s) => write!(f, "PSE setup: {s}"),
            PseError::Krylov(KrylovError::NotPositiveSemidefinite { eigenvalue }) => write!(
                f,
                "PSE near field is not positive definite (projected eigenvalue {eigenvalue:e}): \
                 the positive split is SPD at every xi, so the configuration is degenerate \
                 (coincident or non-finite particle positions) or this is a bug"
            ),
            PseError::Krylov(e) => write!(f, "PSE near-field Lanczos: {e}"),
        }
    }
}

impl std::error::Error for PseError {}

impl From<KrylovError> for PseError {
    fn from(e: KrylovError) -> Self {
        PseError::Krylov(e)
    }
}

/// Positively-split Ewald Brownian displacement sampler.
///
/// Draws blocks `G` (row-major `[3n][s]`, the repo's multi-RHS layout) with
/// `Cov(G columns) = N + A ≈ M` — near field plus wave field of the positive
/// split. Steady-state draws are allocation-free: all mesh, spectrum
/// and Gaussian scratch is grown by `resize` and never shrunk, and
/// [`memory_bytes`](Self::memory_bytes) accounts it.
pub struct PseSampler {
    params: PseParams,
    n: usize,
    kernel: RpyHasimoto,
    fft: Fft3,
    pm: InterpMatrix,
    inf: Influence,
    near: NearFieldOperator,
    /// Wave scratch: up to `3 * WAVE_CHUNK` half spectra / meshes.
    spec: Vec<Complex64>,
    mesh: Vec<f64>,
    /// Near-field Gaussian block scratch.
    z_near: Vec<f64>,
    /// Single-mesh inverse-FFT executions performed (3 per wave column).
    mesh_transforms: usize,
}

impl PseSampler {
    pub fn new(positions: &[Vec3], params: PseParams) -> Result<PseSampler, PseError> {
        if positions.is_empty() {
            return Err(PseError::Setup("no particles".into()));
        }
        if !(params.xi > 0.0 && params.r_max > 0.0 && params.box_l > 0.0) {
            return Err(PseError::Setup(format!(
                "xi {}, r_max {}, box {} must be positive",
                params.xi, params.r_max, params.box_l
            )));
        }
        if params.r_max > params.box_l / 2.0 + 1e-12 {
            return Err(PseError::Setup(format!(
                "near-field cutoff r_max {} exceeds L/2 = {} (minimum-image assembly)",
                params.r_max,
                params.box_l / 2.0
            )));
        }
        let k = params.mesh_dim;
        let fft = Fft3::new([k, k, k]).map_err(|e| PseError::Setup(e.to_string()))?;
        let kernel = RpyHasimoto::new(params.a, params.eta, params.box_l, params.xi);
        let pm = build_interp_matrix(positions, params.box_l, k, params.spline_order);
        let inf = Influence::new(&kernel, k, params.spline_order);
        let near = NearFieldOperator::new(positions, &kernel, params.r_max);
        Ok(PseSampler {
            params,
            n: positions.len(),
            kernel,
            fft,
            pm,
            inf,
            near,
            spec: Vec::new(),
            mesh: Vec::new(),
            z_near: Vec::new(),
            mesh_transforms: 0,
        })
    }

    /// Refresh for new positions (operator-window refresh in the BD
    /// driver). The influence table, FFT plan and wave scratch depend only
    /// on the parameters and are reused; the interpolation matrix and the
    /// near-field sparse matrix are rebuilt.
    pub fn rebuild(&mut self, positions: &[Vec3]) -> Result<(), PseError> {
        if positions.len() != self.n {
            return Err(PseError::Setup(format!(
                "rebuild with {} particles, sampler built for {}",
                positions.len(),
                self.n
            )));
        }
        self.pm = build_interp_matrix(
            positions,
            self.params.box_l,
            self.params.mesh_dim,
            self.params.spline_order,
        );
        self.near.rebuild(positions, &self.kernel, self.params.r_max);
        Ok(())
    }

    pub fn params(&self) -> &PseParams {
        &self.params
    }

    pub fn near_field(&self) -> &NearFieldOperator {
        &self.near
    }

    /// Single-mesh inverse-FFT executions so far (the sampler never runs a
    /// forward transform).
    pub fn mesh_transforms(&self) -> usize {
        self.mesh_transforms
    }

    /// Near-field matvec columns so far.
    pub fn near_matvec_columns(&self) -> usize {
        self.near.matvec_columns()
    }

    pub fn reset_counters(&mut self) {
        self.mesh_transforms = 0;
        self.near.reset_counters();
    }

    /// Resident bytes: interpolation matrix, influence table, near-field
    /// matrix, and all draw scratch.
    pub fn memory_bytes(&self) -> usize {
        self.pm.mat.memory_bytes()
            + self.inf.memory_bytes()
            + self.near.memory_bytes()
            + self.spec.len() * 16
            + self.mesh.len() * 8
            + self.z_near.len() * 8
    }

    /// Draw one block `G` of `s` displacement samples into `out` (row-major
    /// `[3n][s]`, overwritten): near-field Lanczos sample plus wave-space
    /// sample. Returns the near-field Lanczos stats; the wave part is exact
    /// and iteration-free. Gaussian consumption order is fixed (near block
    /// first, then wave spectra in column chunks), so a seeded `rng` makes
    /// the draw fully deterministic.
    pub fn sample_block(
        &mut self,
        rng: &mut StdRng,
        out: &mut [f64],
        s: usize,
        kcfg: &KrylovConfig,
    ) -> Result<KrylovStats, PseError> {
        let n3 = 3 * self.n;
        assert_eq!(out.len(), n3 * s, "output must be [3n][s]");
        assert!(s > 0);
        if self.z_near.len() < n3 * s {
            self.z_near.resize(n3 * s, 0.0);
        }
        fill_standard_normal(rng, &mut self.z_near[..n3 * s]);
        let (g, stats) = block_lanczos_sqrt(&mut self.near, &self.z_near[..n3 * s], s, kcfg)?;
        out.copy_from_slice(&g);
        self.wave_sample_block(rng, out, s);
        Ok(stats)
    }

    /// `u += A f` (spread -> forward -> `I(k)` -> inverse -> interpolate).
    fn wave_apply_add(&self, f: &[f64], u: &mut [f64]) {
        let k = self.params.mesh_dim;
        let plan = SpreadPlan::new(&self.pm.scaled, k, self.params.spline_order);
        let mut mesh = vec![0.0; 3 * k * k * k];
        let mut spec = vec![Complex64::ZERO; 3 * self.fft.spectrum_len()];
        plan.spread(&self.pm, f, &mut mesh);
        self.fft.forward_batch(&mesh, &mut spec, 3);
        self.inf.apply(&mut spec);
        self.fft.inverse_batch(&mut spec, &mut mesh, 3);
        interpolate_multi(&self.pm, &mesh, 1, 0, 1, u);
    }

    /// Accumulate a wave-space sample block into `out` (row-major
    /// `[3n][s]`): Hermitian Gaussian spectrum → `I(k)^{1/2}` → one inverse
    /// batch FFT → B-spline interpolation. Public for the ablation harness
    /// and the covariance tests.
    #[hibd::hot]
    pub fn wave_sample_block(&mut self, rng: &mut StdRng, out: &mut [f64], s: usize) {
        let k = self.params.mesh_dim;
        let nc = k / 2 + 1;
        let k3 = k * k * k;
        let s_len = self.fft.spectrum_len();
        let cap = s.min(WAVE_CHUNK);
        if self.spec.len() < 3 * cap * s_len {
            self.spec.resize(3 * cap * s_len, Complex64::ZERO);
        }
        if self.mesh.len() < 3 * cap * k3 {
            self.mesh.resize(3 * cap * k3, 0.0);
        }
        let mut col0 = 0;
        while col0 < s {
            let width = (s - col0).min(WAVE_CHUNK);
            let spec = &mut self.spec[..3 * width * s_len];
            for q in 0..3 * width {
                fill_hermitian_gaussian(rng, &mut spec[q * s_len..(q + 1) * s_len], k, nc);
            }
            self.inf.apply_sqrt_multi(spec, width);
            let mesh = &mut self.mesh[..3 * width * k3];
            self.fft.inverse_batch(spec, mesh, 3 * width);
            self.mesh_transforms += 3 * width;
            interpolate_multi(&self.pm, mesh, s, col0, width, out);
            col0 += width;
        }
    }
}

/// The operator whose square root [`PseSampler::sample_block`] draws,
/// `u = (N + A) f`: the near field plus the mesh wave operator
/// `A = P W̄ D W Pᵀ` on the sampler's own `P`, FFT and influence table. A
/// verification view (`hibd_pme::measure_ep` against dense Ewald in the
/// tests and the ablation's accuracy gate), not a production path: it plans
/// its spread and allocates its meshes per call.
impl LinearOperator for PseSampler {
    fn dim(&self) -> usize {
        3 * self.n
    }

    fn apply(&mut self, f: &[f64], u: &mut [f64]) {
        self.near.matrix().mul_vec(f, u);
        for (ui, fi) in u.iter_mut().zip(f) {
            *ui += self.near.self_coefficient() * fi;
        }
        self.wave_apply_add(f, u);
    }
}

/// Fill one half spectrum (`K x K x (K/2+1)`) with a Hermitian-symmetric
/// complex Gaussian field of unit variance: the inverse c2r transform of
/// the result is a real mesh whose full-spectrum coefficients satisfy
/// `E[h(k) h(k)^*] = 1` and `h(-k) = h(k)^*`.
///
/// * interior `k2` (conjugate partner not stored): free complex Gaussian,
///   `Re, Im ~ N(0, 1/2)`;
/// * boundary planes (`k2 = 0` or `2 k2 = K`), partnered point
///   `(-k0, -k1) mod K` distinct: one of the pair free, the other its
///   conjugate (row-major iteration visits the lexicographically smaller
///   partner first);
/// * self-conjugate points: real `N(0, 1)`.
#[hibd::hot]
fn fill_hermitian_gaussian(rng: &mut StdRng, spec: &mut [Complex64], k: usize, nc: usize) {
    debug_assert_eq!(spec.len(), k * k * nc);
    for k0 in 0..k {
        for k1 in 0..k {
            for k2 in 0..nc {
                let idx = (k0 * k + k1) * nc + k2;
                if k2 != 0 && 2 * k2 != k {
                    spec[idx] = Complex64::new(
                        standard_normal(rng) * FRAC_1_SQRT_2,
                        standard_normal(rng) * FRAC_1_SQRT_2,
                    );
                    continue;
                }
                let p0 = (k - k0) % k;
                let p1 = (k - k1) % k;
                if (p0, p1) == (k0, k1) {
                    spec[idx] = Complex64::new(standard_normal(rng), 0.0);
                } else if (p0, p1) < (k0, k1) {
                    spec[idx] = spec[(p0 * k + p1) * nc + k2].conj();
                } else {
                    spec[idx] = Complex64::new(
                        standard_normal(rng) * FRAC_1_SQRT_2,
                        standard_normal(rng) * FRAC_1_SQRT_2,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PseSplit;
    use hibd_linalg::DenseOp;
    use hibd_pme::PmeParams;
    use hibd_rpy::{dense_ewald_mobility, RpyEwald};
    use rand::{Rng, SeedableRng};

    fn suspension(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pos: Vec<Vec3> = Vec::with_capacity(n);
        while pos.len() < n {
            let c = Vec3::new(
                rng.gen_range(0.0..box_l),
                rng.gen_range(0.0..box_l),
                rng.gen_range(0.0..box_l),
            );
            if pos.iter().all(|p| (*p - c).min_image(box_l).norm() >= 2.0) {
                pos.push(c);
            }
        }
        pos
    }

    fn small_sampler(n: usize, box_l: f64, k: usize, seed: u64) -> (Vec<Vec3>, PseSampler) {
        let pos = suspension(n, box_l, seed);
        // Box-bound like every tuned small box, at the default's `alpha r_max`.
        let pme = PmeParams {
            box_l,
            mesh_dim: k,
            spline_order: 4,
            r_max: box_l / 2.0,
            alpha: 6.4 / box_l,
            ..PmeParams::default()
        };
        let params = PseSplit::default().resolve(&pme);
        let sampler = PseSampler::new(&pos, params).unwrap();
        (pos, sampler)
    }

    #[test]
    fn hermitian_fill_makes_real_meshes() {
        // c2r inverse of a properly Hermitian spectrum is exact; verify via
        // forward-inverse round trip: inverse then forward must reproduce
        // K^3 times the spectrum only if the field was consistent. Cheaper
        // and direct: inverse transform, then check against a brute-force
        // full-spectrum sum at a few mesh points.
        let k = 6;
        let nc = k / 2 + 1;
        let fft = Fft3::new([k, k, k]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
        fill_hermitian_gaussian(&mut rng, &mut spec, k, nc);
        let saved = spec.clone();
        let mut mesh = vec![0.0; k * k * k];
        fft.inverse(&mut spec, &mut mesh);
        // Forward again: must give K^3 * original spectrum (this fails if
        // the boundary planes are not exactly conjugate-symmetric, because
        // the c2r transform would have silently projected them).
        let mut spec2 = vec![Complex64::ZERO; fft.spectrum_len()];
        fft.forward(&mesh, &mut spec2);
        let k3 = (k * k * k) as f64;
        for (a, b) in spec2.iter().zip(&saved) {
            assert!((*a - b.scale(k3)).abs() < 1e-10, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn hermitian_fill_has_unit_variance_per_mode() {
        let k = 4;
        let nc = k / 2 + 1;
        let mut rng = StdRng::seed_from_u64(1);
        let rounds = 20000;
        let mut sum2 = vec![0.0f64; k * k * nc];
        let mut spec = vec![Complex64::ZERO; k * k * nc];
        for _ in 0..rounds {
            fill_hermitian_gaussian(&mut rng, &mut spec, k, nc);
            for (s, v) in sum2.iter_mut().zip(&spec) {
                *s += v.norm2();
            }
        }
        for (idx, s) in sum2.iter().enumerate() {
            let var = s / rounds as f64;
            assert!((var - 1.0).abs() < 0.06, "mode {idx}: E|h|^2 = {var}");
        }
    }

    #[test]
    fn wave_sample_covariance_matches_recip_operator() {
        // Monte-Carlo covariance of the wave sampler against the exact
        // reciprocal-operator matrix built from the *same* P, FFT and
        // influence table, column by column.
        let (pos, mut sampler) = small_sampler(4, 4.4, 8, 5);
        let n3 = 3 * pos.len();
        let mut a = vec![0.0; n3 * n3]; // column-major columns of A
        let mut e = vec![0.0; n3];
        for j in 0..n3 {
            e.fill(0.0);
            e[j] = 1.0;
            sampler.wave_apply_add(&e, &mut a[j * n3..(j + 1) * n3]);
        }

        let mut rng = StdRng::seed_from_u64(9);
        let s = 8;
        let rounds = 2500; // 20k samples
        let mut cov = vec![0.0; n3 * n3];
        let mut out = vec![0.0; n3 * s];
        for _ in 0..rounds {
            out.fill(0.0);
            sampler.wave_sample_block(&mut rng, &mut out, s);
            for col in 0..s {
                for i in 0..n3 {
                    for j in 0..n3 {
                        cov[i * n3 + j] += out[i * s + col] * out[j * s + col];
                    }
                }
            }
        }
        let samples = (rounds * s) as f64;
        let mut diff2 = 0.0;
        let mut norm2 = 0.0;
        for i in 0..n3 {
            for j in 0..n3 {
                let c = cov[i * n3 + j] / samples;
                let want = a[j * n3 + i];
                diff2 += (c - want).powi(2);
                norm2 += want.powi(2);
            }
        }
        let rel = (diff2 / norm2).sqrt();
        assert!(rel < 0.1, "wave covariance mismatch {rel}");
    }

    #[test]
    fn sampled_operator_matches_dense_ewald_at_the_tuned_split() {
        // The sampler runs at the drift operator's own (alpha, r_max, K, p):
        // near field + mesh wave operator must meet the e_p those were tuned
        // for (the metric of `pme.rel_err_vs_dense`), against a dense Ewald
        // reference at a cost-balanced xi of its own. And the near field it
        // leaves is well conditioned: a handful of Lanczos iterations.
        for (n, seed) in [(24usize, 11u64), (80, 12)] {
            let pme = hibd_pme::tune(n, 0.2, 1.0, 1.0, 1e-3).params;
            let pos = suspension(n, pme.box_l, seed);
            let mut sampler = PseSampler::new(&pos, PseSplit::default().resolve(&pme)).unwrap();
            let xi = std::f64::consts::PI.sqrt() * (n as f64).powf(1.0 / 6.0) / pme.box_l;
            let dense = dense_ewald_mobility(&pos, &RpyEwald::new(1.0, 1.0, pme.box_l, xi, 1e-9));
            let worst = hibd_pme::measure_ep(&mut sampler, &mut DenseOp::new(dense), 3, seed);
            assert!(worst < 1e-3, "n = {n}: sampled operator vs dense Ewald {worst:e}");

            let s = 16;
            let mut out = vec![0.0; 3 * n * s];
            let mut rng = StdRng::seed_from_u64(seed);
            let kcfg = KrylovConfig { tol: 1e-2, max_iter: 100, check_interval: 1 };
            let stats = sampler.sample_block(&mut rng, &mut out, s, &kcfg).unwrap();
            assert!(stats.converged && stats.iterations <= 6, "n = {n}: {stats:?}");
        }
    }

    #[test]
    fn cutoff_beyond_half_the_box_is_a_setup_error() {
        let pme = PmeParams { box_l: 6.0, r_max: 4.0, ..PmeParams::default() };
        let err = PseSampler::new(&suspension(4, 6.0, 1), PseSplit::default().resolve(&pme));
        assert!(matches!(err, Err(PseError::Setup(m)) if m.contains("L/2")));
    }

    #[test]
    fn indefinite_near_field_error_carries_the_eigenvalue_and_names_no_knob() {
        let e = PseError::from(KrylovError::NotPositiveSemidefinite { eigenvalue: -2.5e-3 });
        let text = e.to_string();
        assert!(text.contains("-2.5e-3") && text.contains("coincident"), "{text}");
        assert!(!text.contains("lower") && !text.contains("cutoff"), "{text}");
    }

    #[test]
    fn sample_block_is_deterministic_for_a_seed() {
        let (_, mut sampler) = small_sampler(6, 6.5, 8, 2);
        let n3 = 18;
        let s = 4;
        let kcfg = KrylovConfig::default();
        let draw = |sampler: &mut PseSampler| {
            let mut rng = StdRng::seed_from_u64(77);
            let mut out = vec![0.0; n3 * s];
            sampler.sample_block(&mut rng, &mut out, s, &kcfg).unwrap();
            out
        };
        let a = draw(&mut sampler);
        let b = draw(&mut sampler);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_sample_blocks_do_not_grow_memory() {
        let (pos, mut sampler) = small_sampler(6, 6.5, 8, 3);
        let n3 = 3 * pos.len();
        let s = 4;
        let fresh = sampler.memory_bytes();
        let kcfg = KrylovConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = vec![0.0; n3 * s];
        sampler.sample_block(&mut rng, &mut out, s, &kcfg).unwrap();
        let after_first = sampler.memory_bytes();
        // First draw grows exactly the documented scratch: 3s half spectra,
        // 3s meshes, and the 3n*s Gaussian block (s <= WAVE_CHUNK here).
        let k = sampler.params.mesh_dim;
        let expected = 3 * s * sampler.fft.spectrum_len() * 16 + 3 * s * k * k * k * 8 + n3 * s * 8;
        assert_eq!(after_first, fresh + expected);
        for _ in 0..5 {
            sampler.sample_block(&mut rng, &mut out, s, &kcfg).unwrap();
            assert_eq!(sampler.memory_bytes(), after_first);
        }
        // Rebuild keeps the scratch (no shrink) and stays drawable.
        sampler.rebuild(&pos).unwrap();
        sampler.sample_block(&mut rng, &mut out, s, &kcfg).unwrap();
        assert_eq!(sampler.memory_bytes(), after_first);
    }

    #[test]
    fn counters_track_transforms_and_matvecs() {
        let (pos, mut sampler) = small_sampler(6, 6.5, 8, 6);
        let n3 = 3 * pos.len();
        let s = 4;
        let kcfg = KrylovConfig::default();
        let mut rng = StdRng::seed_from_u64(8);
        let mut out = vec![0.0; n3 * s];
        let stats = sampler.sample_block(&mut rng, &mut out, s, &kcfg).unwrap();
        // Wave: exactly 3 inverse transforms per column, no forwards.
        assert_eq!(sampler.mesh_transforms(), 3 * s);
        // Near: one block apply per Lanczos iteration, s columns each.
        assert_eq!(sampler.near_matvec_columns(), stats.iterations * s);
        sampler.reset_counters();
        assert_eq!(sampler.mesh_transforms(), 0);
        assert_eq!(sampler.near_matvec_columns(), 0);
    }
}
