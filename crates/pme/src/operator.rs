//! The assembled PME mobility operator (paper Algorithm 2, line 4).
//!
//! The operator is split along the setup/state axis:
//!
//! * [`PmePlans`] holds the **position-independent** setup artifacts — the
//!   Ewald kernel, FFT plans, influence table, and self-mobility
//!   coefficient. They depend only on [`PmeParams`], live behind an `Arc`,
//!   and are shared across lambda-windows of one trajectory and across
//!   replicas of an ensemble (`hibd-engine`'s `PlanCache` deduplicates them
//!   by shape key).
//! * `PmeOperator` adds the **position-dependent** per-configuration
//!   artifacts (interpolation matrix `P`, spreading schedule, real-space
//!   BCSR matrix) plus the mutable per-job scratch (`PmeState`: batch
//!   meshes and spectra, the phase account). `apply` then evaluates `u = M f`
//!   with no further setup — the property that makes the operator cheap to
//!   use inside the Krylov iteration.
//!
//! The reciprocal sum has **one** body, `recip_pipeline`, behind the two
//! entries `recip_apply_add` (one vector) and `recip_apply_add_multi` (a
//! block). Everything else that wants the pipeline — the paper-figure
//! harnesses in `hibd-bench` (overlapped, on-the-fly, column-partitioned
//! applies) — composes it from the stage methods and read-only accessors
//! below with its own meshes.
//!
//! Each phase is timed with a [`hibd_telemetry`] stopwatch stopped into the
//! operator's own [`Snapshot`] ([`PmeOperator::snapshot`], which the Figure 5
//! harness and the driver's per-job account read); the same spans feed the
//! global recorder (the calibrated Section IV-D model) whenever telemetry is
//! enabled.

use crate::influence::Influence;
use crate::pmat::{build_interp_matrix, InterpMatrix};
use crate::real::assemble_real_space;
use crate::spread::{interpolate, interpolate_multi, SpreadPlan};
use hibd_fft::{Complex64, Fft3, FftError};
use hibd_hot as hibd;
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_rpy::RpyEwald;
use hibd_sparse::Bcsr3;
use hibd_telemetry::{self as telemetry, Counter, Phase, Snapshot};
use std::sync::Arc;

/// PME discretization parameters (one row of the paper's Table III).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PmeParams {
    /// Particle radius.
    pub a: f64,
    /// Fluid viscosity.
    pub eta: f64,
    /// Cubic box side `L`.
    pub box_l: f64,
    /// Ewald splitting parameter (the paper's `alpha`).
    pub alpha: f64,
    /// FFT mesh dimension `K` (`K^3` points; must be even and 16-smooth).
    pub mesh_dim: usize,
    /// Cardinal B-spline order `p`.
    pub spline_order: usize,
    /// Real-space cutoff `r_max` (`<= L/2`).
    pub r_max: f64,
}

impl Default for PmeParams {
    fn default() -> Self {
        PmeParams {
            a: 1.0,
            eta: 1.0,
            box_l: 10.0,
            alpha: 0.8,
            mesh_dim: 32,
            spline_order: 4,
            r_max: 4.0,
        }
    }
}

/// Position-independent PME setup artifacts, shareable across operators.
///
/// Everything in here is a pure function of [`PmeParams`]: the Beenakker
/// Ewald kernel, the `K^3` FFT plans, the influence-function scalar table
/// (the dominant setup cost, `O(K^3)` `erfc` evaluations), and the
/// self-mobility coefficient. A standalone driver builds one `PmePlans` and
/// reuses it across every lambda-window rebuild; the ensemble engine shares
/// one across all replicas of the same shape.
pub struct PmePlans {
    params: PmeParams,
    ewald: RpyEwald,
    fft: Fft3,
    inf: Influence,
    self_coef: f64,
}

impl PmePlans {
    /// Build the shareable setup for a parameter set. The only failure mode
    /// is an FFT-unfriendly mesh dimension.
    pub fn new(params: PmeParams) -> Result<PmePlans, FftError> {
        let k = params.mesh_dim;
        let ewald = RpyEwald::kernel_only(params.a, params.eta, params.box_l, params.alpha);
        let fft = Fft3::new([k, k, k])?;
        let inf = Influence::new(&ewald, k, params.spline_order);
        let self_coef = ewald.self_coefficient();
        Ok(PmePlans { params, ewald, fft, inf, self_coef })
    }

    pub fn params(&self) -> &PmeParams {
        &self.params
    }

    /// The Ewald kernel the influence table was built from.
    pub fn ewald(&self) -> &RpyEwald {
        &self.ewald
    }

    /// The shared `K^3` FFT plans (all methods take `&self`).
    pub fn fft(&self) -> &Fft3 {
        &self.fft
    }

    /// The influence-function table.
    pub fn influence(&self) -> &Influence {
        &self.inf
    }

    /// Self-mobility coefficient added on the real-space branch.
    pub fn self_coefficient(&self) -> f64 {
        self.self_coef
    }

    /// Resident bytes of the shared artifacts (the influence table; the FFT
    /// twiddle storage is a few lines per axis and is not accounted).
    pub fn memory_bytes(&self) -> usize {
        self.inf.memory_bytes()
    }
}

/// Mutable per-job state: interpolation scratch, the batch meshes/spectra
/// every reciprocal apply runs through, and the accumulated phase spans.
/// Owned by exactly one `PmeOperator`; never shared.
struct PmeState {
    /// Single-RHS interpolation scratch (`3n`).
    interp_scratch: Vec<f64>,
    /// `3*width` real meshes of `K^3` in `[theta][col]` layout (width 1 is
    /// the plain `[F_x | F_y | F_z]` triple). Grown on demand, never shrunk,
    /// so repeated applies at the same width are allocation-free.
    batch_mesh: Vec<f64>,
    /// Batched half spectra, `3*width` of `K^2 (K/2+1)` each.
    batch_spec: Vec<Complex64>,
    snap: Snapshot,
}

/// What the one reciprocal pipeline body spreads from and interpolates
/// into — the only stage that differs between the two public entries.
enum Rhs<'a> {
    /// One `3n` vector through the single-RHS row kernels.
    Vector { f: &'a [f64], u: &'a mut [f64] },
    /// A row-major `[3n][s]` block through the multi-RHS row kernels.
    Block { x: &'a [f64], y: &'a mut [f64], s: usize },
}

/// The matrix-free periodic RPY mobility operator.
///
/// ```
/// use hibd_mathx::Vec3;
/// use hibd_pme::{PmeOperator, PmeParams};
/// use hibd_linalg::LinearOperator;
///
/// let positions = vec![
///     Vec3::new(1.0, 2.0, 3.0),
///     Vec3::new(6.0, 5.0, 4.0),
///     Vec3::new(3.0, 8.0, 7.5),
/// ];
/// let params = PmeParams::default(); // L = 10, K = 32, p = 4
/// let mut op = PmeOperator::new(&positions, params).unwrap();
///
/// // u = M f: velocities induced by forces through the fluid.
/// let f = vec![1.0, 0.0, 0.0,  0.0, 0.0, 0.0,  0.0, 0.0, 0.0];
/// let mut u = vec![0.0; 9];
/// op.apply(&f, &mut u);
/// assert!(u[0] > 0.0, "forced particle moves along the force");
/// assert!(u[3].abs() > 0.0, "other particles are dragged along");
/// ```
pub struct PmeOperator {
    plans: Arc<PmePlans>,
    n: usize,
    pm: InterpMatrix,
    plan: SpreadPlan,
    real: Bcsr3,
    state: PmeState,
}

impl PmeOperator {
    /// Build the operator for a particle configuration (Algorithm 2 line 4:
    /// "Construct PME operator using r_k"), including its own plans.
    pub fn new(positions: &[Vec3], params: PmeParams) -> Result<PmeOperator, FftError> {
        Ok(Self::with_plans(positions, Arc::new(PmePlans::new(params)?)))
    }

    /// Build the position-dependent part of the operator on top of shared
    /// plans — the per-window / per-replica construction path. Infallible:
    /// the FFT plans already exist.
    pub fn with_plans(positions: &[Vec3], plans: Arc<PmePlans>) -> PmeOperator {
        let k = plans.params.mesh_dim;
        let p = plans.params.spline_order;
        let pm = build_interp_matrix(positions, plans.params.box_l, k, p);
        let plan = SpreadPlan::new(&pm.scaled, k, p);
        let real = assemble_real_space(positions, &plans.ewald, plans.params.r_max);
        let op = PmeOperator {
            plans,
            n: positions.len(),
            pm,
            plan,
            real,
            state: PmeState {
                interp_scratch: vec![0.0; 3 * positions.len()],
                batch_mesh: Vec::new(),
                batch_spec: Vec::new(),
                snap: Snapshot::empty(),
            },
        };
        if telemetry::enabled() {
            telemetry::gauge_max(Counter::PmeScratchBytes, op.memory_bytes() as u64);
        }
        op
    }

    pub fn params(&self) -> &PmeParams {
        &self.plans.params
    }

    /// The shared setup artifacts backing this operator.
    pub fn plans(&self) -> &Arc<PmePlans> {
        &self.plans
    }

    /// The Ewald kernel in use.
    pub fn ewald(&self) -> &RpyEwald {
        &self.plans.ewald
    }

    /// The interpolation matrix (for the Figure 4 comparison and tests).
    pub fn interp_matrix(&self) -> &InterpMatrix {
        &self.pm
    }

    /// The spreading plan.
    pub fn spread_plan(&self) -> &SpreadPlan {
        &self.plan
    }

    /// The real-space BCSR operator.
    pub fn real_matrix(&self) -> &Bcsr3 {
        &self.real
    }

    /// Phase spans accumulated by this operator's applies.
    pub fn snapshot(&self) -> &Snapshot {
        &self.state.snap
    }

    /// Estimated resident bytes of the operator (paper Eq. 11 plus the
    /// real-space matrix): meshes + spectra (including the grown batch
    /// scratch) + particle scratch + P + influence + BCSR. Counts the
    /// shared plans in full — this is the standalone footprint; an ensemble
    /// sums [`PmeOperator::state_memory_bytes`] and counts each distinct
    /// [`PmePlans`] once.
    pub fn memory_bytes(&self) -> usize {
        self.state_memory_bytes() + self.plans.memory_bytes()
    }

    /// Resident bytes of the per-job part only (everything except the
    /// shared [`PmePlans`]).
    pub fn state_memory_bytes(&self) -> usize {
        (self.state.batch_mesh.len() + self.state.interp_scratch.len()) * 8
            + self.state.batch_spec.len() * 16
            + self.pm.mat.memory_bytes()
            + self.real.memory_bytes()
    }

    /// The six-step reciprocal pipeline (Section IV-A), the only body of it
    /// in this crate: spread, one batched r2c over the `3*width` meshes,
    /// influence multiply, one batched c2r, interpolate-accumulate. A vector
    /// goes through the public stage methods
    /// ([`spread_forces`](Self::spread_forces) /
    /// [`interpolate_add`](Self::interpolate_add)), and at width 1 the batch
    /// transforms are bitwise the per-mesh ones (`fft/tests/batch_bitwise.rs`).
    #[hibd::hot]
    fn recip_pipeline(&mut self, rhs: Rhs<'_>) {
        let width = match &rhs {
            Rhs::Vector { .. } => 1,
            Rhs::Block { x, y, s } => {
                assert_eq!(x.len(), 3 * self.n * s);
                assert_eq!(y.len(), 3 * self.n * s);
                assert!(*s > 0, "empty block");
                *s
            }
        };
        let k = self.plans.params.mesh_dim;
        self.ensure_batch_scratch(width);
        let (mut mesh_buf, mut spec_buf) = self.take_batch_scratch();
        let mesh = &mut mesh_buf[..3 * width * k * k * k];
        let spec = &mut spec_buf[..3 * width * k * k * (k / 2 + 1)];

        match &rhs {
            Rhs::Vector { f, .. } => self.spread_forces(f, mesh),
            Rhs::Block { x, s, .. } => {
                let sw = telemetry::start(Phase::Spreading);
                self.plan.spread_multi(&self.pm, x, *s, 0, *s, mesh);
                sw.stop(&mut self.state.snap);
            }
        }
        let sw = telemetry::start(Phase::ForwardFft);
        self.plans.fft.forward_batch(mesh, spec, 3 * width);
        sw.stop(&mut self.state.snap);
        let sw = telemetry::start(Phase::Influence);
        self.plans.inf.apply_multi(spec, width);
        sw.stop(&mut self.state.snap);
        let sw = telemetry::start(Phase::InverseFft);
        self.plans.fft.inverse_batch(spec, mesh, 3 * width);
        sw.stop(&mut self.state.snap);
        match rhs {
            Rhs::Vector { u, .. } => self.interpolate_add(mesh, u),
            Rhs::Block { y, s, .. } => {
                let sw = telemetry::start(Phase::Interpolation);
                interpolate_multi(&self.pm, mesh, s, 0, s, y);
                sw.stop(&mut self.state.snap);
            }
        }
        self.restore_batch_scratch(mesh_buf, spec_buf);
    }

    /// `u += M_recip f` for one `3n` vector.
    #[hibd::hot]
    pub fn recip_apply_add(&mut self, f: &[f64], u: &mut [f64]) {
        self.recip_pipeline(Rhs::Vector { f, u });
    }

    /// `Y += M_recip X` for a row-major `[3n][s]` block: one spreading pass
    /// and one batched trip through the FFT plans serve all `s` columns.
    #[hibd::hot]
    pub fn recip_apply_add_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        self.recip_pipeline(Rhs::Block { x, y, s });
    }

    /// Spread `f` through this operator's `P` into a caller-provided
    /// `[F_x | F_y | F_z]` mesh triple (`3 K^3`). *Is* the spreading stage
    /// of [`PmeOperator::recip_apply_add`].
    #[hibd::hot]
    pub fn spread_forces(&mut self, f: &[f64], mesh: &mut [f64]) {
        assert_eq!(f.len(), 3 * self.n);
        let k = self.plans.params.mesh_dim;
        assert_eq!(mesh.len(), 3 * k * k * k);
        let sw = telemetry::start(Phase::Spreading);
        self.plan.spread(&self.pm, f, mesh);
        sw.stop(&mut self.state.snap);
    }

    /// `u += P^T mesh` from a caller-provided mesh triple — the
    /// interpolation stage of [`PmeOperator::recip_apply_add`].
    #[hibd::hot]
    pub fn interpolate_add(&mut self, mesh: &[f64], u: &mut [f64]) {
        assert_eq!(u.len(), 3 * self.n);
        let k = self.plans.params.mesh_dim;
        assert_eq!(mesh.len(), 3 * k * k * k);
        let sw = telemetry::start(Phase::Interpolation);
        interpolate(&self.pm, mesh, &mut self.state.interp_scratch);
        for (o, v) in u.iter_mut().zip(&self.state.interp_scratch) {
            *o += v;
        }
        sw.stop(&mut self.state.snap);
    }

    /// Hand out this operator's batch mesh/spectrum scratch at whatever size
    /// its applies have grown it to, so a successor operator can adopt the
    /// buffers (and their faulted-in pages) through
    /// [`restore_batch_scratch`](Self::restore_batch_scratch).
    pub fn take_batch_scratch(&mut self) -> (Vec<f64>, Vec<Complex64>) {
        (std::mem::take(&mut self.state.batch_mesh), std::mem::take(&mut self.state.batch_spec))
    }

    /// Adopt scratch taken with
    /// [`take_batch_scratch`](Self::take_batch_scratch), from this operator
    /// or one on the same plans.
    pub fn restore_batch_scratch(&mut self, mesh: Vec<f64>, spec: Vec<Complex64>) {
        self.state.batch_mesh = mesh;
        self.state.batch_spec = spec;
    }

    /// `u = (M_real + M_self) f` — the short-range part.
    #[hibd::hot]
    pub fn real_apply(&mut self, f: &[f64], u: &mut [f64]) {
        let sw = telemetry::start(Phase::RealSpace);
        self.real.mul_vec(f, u);
        for (o, v) in u.iter_mut().zip(f) {
            *o += self.plans.self_coef * v;
        }
        sw.stop(&mut self.state.snap);
    }

    /// Multi-RHS real part: `U = (M_real + M_self) F` for row-major
    /// `[3n][s]` blocks (BCSR SpMM, paper ref. \[24\]).
    #[hibd::hot]
    pub fn real_apply_multi(&mut self, f: &[f64], u: &mut [f64], s: usize) {
        let sw = telemetry::start(Phase::RealSpace);
        self.real.mul_multi(f, u, s);
        for (o, v) in u.iter_mut().zip(f) {
            *o += self.plans.self_coef * v;
        }
        sw.stop(&mut self.state.snap);
    }

    /// Grow the batch scratch to hold `3*width` meshes and spectra. `resize`
    /// keeps existing capacity, so steady-state block applies never allocate.
    fn ensure_batch_scratch(&mut self, width: usize) {
        let k = self.plans.params.mesh_dim;
        let k3 = k * k * k;
        let s_len = k * k * (k / 2 + 1);
        if self.state.batch_mesh.len() < 3 * width * k3 {
            self.state.batch_mesh.resize(3 * width * k3, 0.0);
        }
        if self.state.batch_spec.len() < 3 * width * s_len {
            self.state.batch_spec.resize(3 * width * s_len, Complex64::ZERO);
        }
        if telemetry::enabled() {
            telemetry::gauge_max(Counter::PmeScratchBytes, self.memory_bytes() as u64);
        }
    }
}

impl LinearOperator for PmeOperator {
    fn dim(&self) -> usize {
        3 * self.n
    }

    /// `u = PME(f) = (M_real + M_self) f + M_recip f`.
    #[hibd::hot]
    fn apply(&mut self, f: &[f64], u: &mut [f64]) {
        self.real_apply(f, u);
        self.recip_apply_add(f, u);
    }

    /// Block application: multi-RHS SpMM for the real part, batched
    /// spread/FFT/influence/interpolate for the reciprocal part. This is
    /// the "3D FFTs for blocks of vectors" the paper notes no library
    /// provides (Sec. III-B) — one pass over the P nonzeros and one batched
    /// trip through the FFT plans serve all `s` columns.
    #[hibd::hot]
    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        assert_eq!(x.len(), 3 * self.n * s);
        assert_eq!(y.len(), 3 * self.n * s);
        self.real_apply_multi(x, y, s);
        self.recip_apply_add_multi(x, y, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_rpy::dense_ewald_mobility;

    fn lcg_positions(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * box_l
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    fn lcg_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn test_params() -> PmeParams {
        PmeParams {
            a: 1.0,
            eta: 1.0,
            box_l: 10.0,
            alpha: 0.8,
            mesh_dim: 32,
            spline_order: 6,
            r_max: 4.5,
        }
    }

    #[test]
    fn pme_matches_dense_ewald() {
        // The headline correctness test: e_p = |u_pme - u_exact| / |u_exact|
        // against the tight-tolerance dense Ewald matrix.
        let n = 10;
        let params = test_params();
        let pos = lcg_positions(n, params.box_l, 3);
        let mut op = PmeOperator::new(&pos, params).unwrap();
        let dense = dense_ewald_mobility(
            &pos,
            &RpyEwald::new(params.a, params.eta, params.box_l, params.alpha, 1e-12),
        );
        let f = lcg_vector(3 * n, 7);
        let mut u_pme = vec![0.0; 3 * n];
        op.apply(&f, &mut u_pme);
        let mut u_exact = vec![0.0; 3 * n];
        dense.mul_vec(&f, &mut u_exact);
        let num: f64 =
            u_pme.iter().zip(&u_exact).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let den: f64 = u_exact.iter().map(|v| v * v).sum::<f64>().sqrt();
        let ep = num / den;
        assert!(ep < 1e-3, "PME relative error e_p = {ep:e}");
    }

    #[test]
    fn operator_is_symmetric() {
        // g^T (M f) == f^T (M g) for the full PME operator.
        let n = 12;
        let params = test_params();
        let pos = lcg_positions(n, params.box_l, 9);
        let mut op = PmeOperator::new(&pos, params).unwrap();
        let f = lcg_vector(3 * n, 11);
        let g = lcg_vector(3 * n, 13);
        let mut mf = vec![0.0; 3 * n];
        op.apply(&f, &mut mf);
        let mut mg = vec![0.0; 3 * n];
        op.apply(&g, &mut mg);
        let lhs: f64 = g.iter().zip(&mf).map(|(a, b)| a * b).sum();
        let rhs: f64 = f.iter().zip(&mg).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1e-10), "{lhs} vs {rhs}");
    }

    #[test]
    fn operator_is_linear() {
        let n = 8;
        let params = test_params();
        let pos = lcg_positions(n, params.box_l, 15);
        let mut op = PmeOperator::new(&pos, params).unwrap();
        let f = lcg_vector(3 * n, 17);
        let g = lcg_vector(3 * n, 19);
        let comb: Vec<f64> = f.iter().zip(&g).map(|(a, b)| 2.0 * a - 0.5 * b).collect();
        let mut mf = vec![0.0; 3 * n];
        op.apply(&f, &mut mf);
        let mut mg = vec![0.0; 3 * n];
        op.apply(&g, &mut mg);
        let mut mc = vec![0.0; 3 * n];
        op.apply(&comb, &mut mc);
        for i in 0..3 * n {
            let want = 2.0 * mf[i] - 0.5 * mg[i];
            assert!((mc[i] - want).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn apply_multi_matches_columnwise_apply() {
        let n = 6;
        let s = 3;
        let params = test_params();
        let pos = lcg_positions(n, params.box_l, 21);
        let mut op = PmeOperator::new(&pos, params).unwrap();
        let x = lcg_vector(3 * n * s, 23);
        let mut y = vec![0.0; 3 * n * s];
        op.apply_multi(&x, &mut y, s);
        for col in 0..s {
            let xc: Vec<f64> = (0..3 * n).map(|i| x[i * s + col]).collect();
            let mut yc = vec![0.0; 3 * n];
            op.apply(&xc, &mut yc);
            for i in 0..3 * n {
                assert!((y[i * s + col] - yc[i]).abs() < 1e-12, "col {col} i {i}");
            }
        }
    }

    #[test]
    fn repeated_block_applies_do_not_grow_memory() {
        // Batch scratch is grown once on first use and reused afterwards.
        let n = 8;
        let s = 4;
        let params = test_params();
        let pos = lcg_positions(n, params.box_l, 81);
        let mut op = PmeOperator::new(&pos, params).unwrap();
        let x = lcg_vector(3 * n * s, 83);
        let mut y = vec![0.0; 3 * n * s];
        op.apply_multi(&x, &mut y, s);
        let after_first = op.memory_bytes();
        for _ in 0..3 {
            op.apply_multi(&x, &mut y, s);
        }
        assert_eq!(op.memory_bytes(), after_first);
        // And the batch scratch is reflected in the accounting.
        let k = params.mesh_dim;
        let k3 = k * k * k;
        let s_len = k * k * (k / 2 + 1);
        let batch_bytes = 3 * s * k3 * 8 + 3 * s * s_len * 16;
        let fresh = PmeOperator::new(&pos, params).unwrap().memory_bytes();
        assert_eq!(after_first, fresh + batch_bytes);
    }

    #[test]
    fn phase_spans_accumulate() {
        let n = 8;
        let params = test_params();
        let pos = lcg_positions(n, params.box_l, 31);
        let mut op = PmeOperator::new(&pos, params).unwrap();
        assert_eq!(op.snapshot(), &Snapshot::empty());
        let f = lcg_vector(3 * n, 33);
        let mut u = vec![0.0; 3 * n];
        op.apply(&f, &mut u);
        op.apply(&f, &mut u);
        // One span per phase per apply, nothing outside the PME phases.
        for ph in telemetry::MODEL_PHASES {
            assert_eq!(op.snapshot().phase(ph).count, 2, "{}", ph.name());
        }
        assert!(op.snapshot().phase(Phase::ForwardFft).total_ns > 0);
        assert_eq!(op.snapshot().phase(Phase::PmeSetup).count, 0);
    }

    #[test]
    fn memory_scales_linearly_in_particles_for_fixed_mesh() {
        let params = test_params();
        let pos_small = lcg_positions(10, params.box_l, 41);
        let pos_large = lcg_positions(40, params.box_l, 43);
        let m_small = PmeOperator::new(&pos_small, params).unwrap().memory_bytes();
        let m_large = PmeOperator::new(&pos_large, params).unwrap().memory_bytes();
        // P grows by 12 p^3 per particle; meshes stay fixed.
        let p3 = params.spline_order.pow(3);
        let expected_growth = 30 * 12 * p3;
        let growth = m_large - m_small;
        assert!(
            growth >= expected_growth && growth < expected_growth * 4,
            "growth {growth} vs P-only {expected_growth}"
        );
    }
}
