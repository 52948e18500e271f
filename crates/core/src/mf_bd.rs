//! Algorithm 2: the matrix-free BD algorithm.
//!
//! Every `lambda_RPY` steps: build a fresh mobility operator for the current
//! configuration and draw the whole block of `lambda_RPY` Brownian
//! displacement vectors with block Lanczos (`D = Krylov(M, Z)`). In
//! between, each step evaluates the deterministic forces and propagates
//! `r += M(f) dt + d_j` — never materializing the mobility matrix.
//!
//! The operator backend follows the system's [`Boundary`]: periodic boxes
//! use the [`PmeOperator`] (Ewald split + particle-mesh reciprocal sum),
//! open systems use the hierarchical free-space [`TreeOperator`] from
//! `hibd-treecode`. Block Lanczos needs only `M v` products and works with
//! either backend; `SplitEwald` is wave-space sampling and therefore
//! periodic-only.

use crate::ewald_bd::BdError;
use crate::forces::{total_force, Force};
use crate::system::{Boundary, ParticleSystem};
use hibd_krylov::{block_lanczos_sqrt, KrylovConfig};
use hibd_linalg::LinearOperator;
use hibd_mathx::fill_standard_normal;
use hibd_pme::{tune, PmeOperator, PmeParams, PmePlans};
use hibd_pse::{PseError, PseSampler, PseSplit};
use hibd_telemetry::{self as telemetry, Counter, Phase, Snapshot};
use hibd_treecode::{TreeOperator, TreeParams, TreePlans};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// How the block of Brownian displacement vectors is computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DisplacementMode {
    /// Block Lanczos over all `lambda_RPY` vectors at once (Algorithm 2;
    /// fewer iterations per vector, multi-RHS real-space SpMM).
    #[default]
    BlockKrylov,
    /// Positively-split Ewald sampling (`hibd-pse`): exact single-inverse
    /// FFT square root in wave space plus block Lanczos on a sparse,
    /// FFT-free near field, at the drift operator's own `(alpha, r_max, K, p)`.
    SplitEwald,
}

/// Configuration of the matrix-free algorithm.
#[derive(Clone, Copy, Debug)]
pub struct MatrixFreeConfig {
    /// Time step `dt`.
    pub dt: f64,
    /// Thermal energy `kB T`.
    pub kbt: f64,
    /// Operator reuse interval (= Krylov block width).
    pub lambda_rpy: usize,
    /// Krylov convergence tolerance (the paper's `e_k`).
    pub e_k: f64,
    /// PME accuracy target (the paper's `e_p`) used when `pme` is `None`.
    pub target_ep: f64,
    /// Explicit PME parameters; `None` lets the tuner choose from the
    /// system's size and volume fraction.
    pub pme: Option<PmeParams>,
    /// Krylov iteration cap.
    pub max_krylov: usize,
    /// Displacement solver variant.
    pub displacement_mode: DisplacementMode,
    /// Explicit open-boundary parameters, evaluation included; `None` lets
    /// `hibd_treecode::tune(n, target_ep, ..)` choose — the exact direct
    /// sum below the hierarchical crossover, above it tree vs FMM and the
    /// leaf capacity by modelled cost at the `SCHEDULE` tier measured
    /// against the dense free-space RPY matrix. The particle radius and
    /// viscosity are always taken from the system.
    pub tree: Option<TreeParams>,
}

impl Default for MatrixFreeConfig {
    fn default() -> Self {
        MatrixFreeConfig {
            dt: 0.01,
            kbt: 1.0,
            lambda_rpy: 16,
            e_k: 1e-2,
            target_ep: 1e-3,
            pme: None,
            max_krylov: 100,
            displacement_mode: DisplacementMode::BlockKrylov,
            tree: None,
        }
    }
}

/// The immutable, position-independent setup artifacts of the resolved
/// mobility backend, shareable across drivers via `Arc` (the engine's plan
/// cache hands the same allocation to every replica of a shape).
#[derive(Clone)]
pub enum MobilityPlans {
    /// Periodic backend: FFT plan, influence table, Ewald coefficients.
    Pme(Arc<PmePlans>),
    /// Open backend: Chebyshev nodes and M2M transfer matrices.
    Tree(Arc<TreePlans>),
}

impl MobilityPlans {
    /// Resident bytes of the shared setup artifacts (count once per cache
    /// entry, not per driver).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        match self {
            MobilityPlans::Pme(p) => p.memory_bytes(),
            MobilityPlans::Tree(p) => p.memory_bytes(),
        }
    }
}

/// The backend parameters a `(system, config)` pair resolves to — exactly
/// one of the two is `Some`. This is the canonical shape identity the
/// engine's plan cache keys on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResolvedShape {
    /// PME parameters (periodic systems).
    pub pme: Option<PmeParams>,
    /// Treecode parameters (open systems), with `a`/`eta` from the system.
    pub tree: Option<TreeParams>,
}

/// Resolve the mobility-backend parameters for `system` under `cfg`:
/// explicit config values win, otherwise the PME or treecode tuner chooses
/// — both pure functions of `(n, phi, a, eta, e_p)` and never of the
/// positions, so a resumed job resolves the shape it started with.
/// Pure with respect to the driver — [`MatrixFreeBd::new`] and
/// [`MatrixFreeBd::with_plans`] both start here, so a plan built for a
/// shape is guaranteed to match any driver resolving the same shape.
pub fn resolve_shape(
    system: &ParticleSystem,
    cfg: &MatrixFreeConfig,
) -> Result<ResolvedShape, BdError> {
    match system.boundary() {
        Boundary::Periodic => {
            let params = match cfg.pme {
                Some(p) => p,
                None => {
                    tune(
                        system.len(),
                        system.volume_fraction(),
                        system.a,
                        system.eta,
                        cfg.target_ep,
                    )
                    .params
                }
            };
            if (params.box_l - system.box_l).abs() > 1e-9 * system.box_l {
                return Err(BdError::Setup(format!(
                    "PME box {} does not match system box {}",
                    params.box_l, system.box_l
                )));
            }
            Ok(ResolvedShape { pme: Some(params), tree: None })
        }
        Boundary::Open => {
            if cfg.displacement_mode == DisplacementMode::SplitEwald {
                return Err(BdError::Setup(
                    "SplitEwald sampling is wave-space (periodic-only); \
                     open systems need an M*v displacement mode"
                        .into(),
                ));
            }
            if cfg.pme.is_some() {
                return Err(BdError::Setup(
                    "explicit PME parameters are meaningless for an open system".into(),
                ));
            }
            let tp = match cfg.tree {
                Some(t) => TreeParams { a: system.a, eta: system.eta, ..t },
                None => hibd_treecode::tune(system.len(), cfg.target_ep, system.a, system.eta),
            };
            // Explicit parameters arrive unvalidated; `TreePlans::new` would
            // panic on what this reports.
            tp.check().map_err(BdError::Setup)?;
            Ok(ResolvedShape { pme: None, tree: Some(tp) })
        }
    }
}

/// The boundary-selected mobility backend of the current window (periodic
/// PME vs free-space treecode) — the per-configuration twin of
/// [`MobilityPlans`], dispatched once per apply.
pub enum MobilityOp {
    // Boxed: both operators carry hundreds of bytes of inline scratch
    // headers, and the enum is rebuilt once per refresh — the indirection
    // costs nothing on the apply path.
    Pme(Box<PmeOperator>),
    Tree(Box<TreeOperator>),
}

impl MobilityOp {
    /// Standalone resident bytes of the operator, shared plans included.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        match self {
            MobilityOp::Pme(op) => op.memory_bytes(),
            MobilityOp::Tree(op) => op.memory_bytes(),
        }
    }

    /// Resident bytes of the per-job part only (an ensemble counts each
    /// distinct [`MobilityPlans`] once on top).
    #[must_use]
    pub fn state_memory_bytes(&self) -> usize {
        match self {
            MobilityOp::Pme(op) => op.state_memory_bytes(),
            MobilityOp::Tree(op) => op.state_memory_bytes(),
        }
    }

    /// Phase spans accumulated by this operator's build and applies.
    #[must_use]
    pub fn snapshot(&self) -> &Snapshot {
        match self {
            MobilityOp::Pme(op) => op.snapshot(),
            MobilityOp::Tree(op) => op.snapshot(),
        }
    }
}

impl LinearOperator for MobilityOp {
    fn dim(&self) -> usize {
        match self {
            MobilityOp::Pme(op) => op.dim(),
            MobilityOp::Tree(op) => op.dim(),
        }
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        match self {
            MobilityOp::Pme(op) => op.apply(x, y),
            MobilityOp::Tree(op) => op.apply(x, y),
        }
    }

    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        match self {
            MobilityOp::Pme(op) => op.apply_multi(x, y, s),
            MobilityOp::Tree(op) => op.apply_multi(x, y, s),
        }
    }
}

/// The Algorithm 2 driver.
pub struct MatrixFreeBd {
    system: ParticleSystem,
    cfg: MatrixFreeConfig,
    /// Immutable setup artifacts for the resolved backend; every operator
    /// refresh reuses them (possibly shared with other drivers).
    plans: MobilityPlans,
    forces: Vec<Box<dyn Force>>,
    /// Base RNG seed; each operator window re-derives its own stream from
    /// `(seed, steps_done)` so a run resumed at a window boundary consumes
    /// exactly the Gaussians an uninterrupted run would (bitwise resume).
    seed: u64,
    /// Completed BD steps (drives the window-seeded RNG; restorable via
    /// [`set_completed_steps`](Self::set_completed_steps)).
    steps_done: u64,
    op: Option<MobilityOp>,
    /// PSE sampler, built lazily on the first `SplitEwald` refresh.
    pse: Option<PseSampler>,
    /// `3n x lambda` row-major block of pre-drawn displacements.
    disp: Vec<f64>,
    used: usize,
    /// Persistent per-step scratch: PME drift output and the combined
    /// displacement (each `3n`), so `step` allocates nothing.
    drift_scratch: Vec<f64>,
    step_scratch: Vec<f64>,
    /// The driver's own account — `PmeSetup`/`TreeBuild` (line 4),
    /// `Displacements` (lines 5-6), `Stepping` (lines 8-9) and the
    /// `LanczosIterations` counter — plus every retired operator's spans.
    snap: Snapshot,
}

/// SplitMix64 finalizer over `(seed, window)` — a cheap, well-mixed stream
/// seed per operator window.
fn window_seed(seed: u64, window: u64) -> u64 {
    let mut z = seed
        .wrapping_add(window.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn map_pse(e: PseError) -> BdError {
    match e {
        PseError::Setup(s) => BdError::Setup(s),
        e @ PseError::Krylov(_) => BdError::Krylov(e.to_string()),
    }
}

impl MatrixFreeBd {
    /// Build the driver. For periodic systems the PME parameters come from
    /// `cfg.pme` or the PME tuner; for open systems the treecode parameters
    /// come from `cfg.tree` or the treecode tuner's schedule.
    pub fn new(
        system: ParticleSystem,
        cfg: MatrixFreeConfig,
        seed: u64,
    ) -> Result<MatrixFreeBd, BdError> {
        assert!(cfg.lambda_rpy >= 1);
        let shape = resolve_shape(&system, &cfg)?;
        let mut snap = Snapshot::empty();
        let plans = match (shape.pme, shape.tree) {
            (Some(params), None) => {
                let sw = telemetry::start(Phase::PmeSetup);
                let plans = PmePlans::new(params).map_err(|e| BdError::Setup(e.to_string()))?;
                sw.stop(&mut snap);
                MobilityPlans::Pme(Arc::new(plans))
            }
            (None, Some(tp)) => {
                let sw = telemetry::start(Phase::TreeBuild);
                let plans = TreePlans::new(tp);
                sw.stop(&mut snap);
                MobilityPlans::Tree(Arc::new(plans))
            }
            _ => unreachable!("resolve_shape yields exactly one backend"),
        };
        Ok(Self::assemble(system, cfg, seed, plans, snap))
    }

    /// Build the driver around already-constructed (typically cache-shared)
    /// setup plans. The plans must describe exactly the shape this
    /// `(system, cfg)` pair resolves to — validated here so a stale cache
    /// entry cannot silently run the wrong mesh or tree schedule.
    pub fn with_plans(
        system: ParticleSystem,
        cfg: MatrixFreeConfig,
        seed: u64,
        plans: MobilityPlans,
    ) -> Result<MatrixFreeBd, BdError> {
        assert!(cfg.lambda_rpy >= 1);
        let shape = resolve_shape(&system, &cfg)?;
        let matches = match (&plans, &shape.pme, &shape.tree) {
            (MobilityPlans::Pme(p), Some(params), None) => p.params() == params,
            (MobilityPlans::Tree(p), None, Some(tp)) => p.params() == tp,
            _ => false,
        };
        if !matches {
            return Err(BdError::Setup(
                "shared plans do not match the shape this system and config resolve to".into(),
            ));
        }
        Ok(Self::assemble(system, cfg, seed, plans, Snapshot::empty()))
    }

    fn assemble(
        system: ParticleSystem,
        cfg: MatrixFreeConfig,
        seed: u64,
        plans: MobilityPlans,
        snap: Snapshot,
    ) -> MatrixFreeBd {
        MatrixFreeBd {
            system,
            cfg,
            plans,
            forces: Vec::new(),
            seed,
            steps_done: 0,
            op: None,
            pse: None,
            disp: Vec::new(),
            used: usize::MAX,
            drift_scratch: Vec::new(),
            step_scratch: Vec::new(),
            snap,
        }
    }

    /// Restore the completed-step counter when resuming from a checkpoint.
    /// The next [`step`](Self::step) rebuilds the operator and, because the
    /// per-window RNG stream is derived from `(seed, steps_done)`, a resume
    /// at an operator-window boundary (`steps % lambda_rpy == 0`) replays
    /// the uninterrupted run bit for bit.
    pub fn set_completed_steps(&mut self, steps: u64) {
        self.steps_done = steps;
        self.used = usize::MAX;
        self.retire_operator();
    }

    /// Completed BD steps.
    pub fn completed_steps(&self) -> u64 {
        self.steps_done
    }

    pub fn add_force(&mut self, force: impl Force + 'static) {
        self.forces.push(Box::new(force));
    }

    /// Add an already-boxed force (useful when the concrete type is chosen
    /// at run time, e.g. from a config file).
    pub fn add_force_boxed(&mut self, force: Box<dyn Force>) {
        self.forces.push(force);
    }

    pub fn system(&self) -> &ParticleSystem {
        &self.system
    }

    pub fn config(&self) -> &MatrixFreeConfig {
        &self.cfg
    }

    /// The backend parameters in effect (exactly one side is `Some`).
    #[must_use]
    pub fn shape(&self) -> ResolvedShape {
        match &self.plans {
            MobilityPlans::Pme(p) => ResolvedShape { pme: Some(*p.params()), tree: None },
            MobilityPlans::Tree(p) => ResolvedShape { pme: None, tree: Some(*p.params()) },
        }
    }

    /// The shared setup plans this driver refreshes its operators from.
    pub fn plans(&self) -> &MobilityPlans {
        &self.plans
    }

    /// The current window's operator (`None` before the first step).
    pub fn operator(&self) -> Option<&MobilityOp> {
        self.op.as_ref()
    }

    /// The job's whole phase account: the driver's own spans and Lanczos
    /// counter, every retired window's operator, and the live operator.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.snap.clone();
        if let Some(op) = &self.op {
            snap.merge(op.snapshot());
        }
        snap
    }

    /// Resident bytes of the current operator (0 before the first step).
    pub fn operator_memory_bytes(&self) -> usize {
        self.op.as_ref().map_or(0, MobilityOp::memory_bytes)
    }

    /// Drop the current window's operator, keeping its phase account.
    fn retire_operator(&mut self) {
        if let Some(op) = self.op.take() {
            self.snap.merge(op.snapshot());
        }
    }

    fn refresh_operator(&mut self) -> Result<(), BdError> {
        let lambda = self.cfg.lambda_rpy;
        let n3 = 3 * self.system.len();

        // Drop before rebuild, scratch handed over: the previous window's
        // operator owns a `3 lambda`-mesh batch scratch, and keeping the
        // operator alive through the build and the Krylov solve below would
        // double the resident peak — while dropping the scratch with it has
        // the solve allocate and fault in the same pages again. So the two
        // buffers move across (every pipeline overwrites them) and the rest
        // of the operator goes. The split-Ewald sampler works on meshes of
        // its own, where an idle scratch would only add to the peak: there
        // it is dropped too. A failed refresh leaves `op = None`;
        // `ensure_window` retries.
        let scratch = match &mut self.op {
            Some(MobilityOp::Pme(old))
                if self.cfg.displacement_mode == DisplacementMode::BlockKrylov =>
            {
                Some(old.take_batch_scratch())
            }
            _ => None,
        };
        self.retire_operator();
        let mut op = match &self.plans {
            MobilityPlans::Pme(plans) => {
                let sw = telemetry::start(Phase::PmeSetup);
                let mut op = PmeOperator::with_plans(self.system.positions(), Arc::clone(plans));
                if let Some((mesh, spec)) = scratch {
                    op.restore_batch_scratch(mesh, spec);
                }
                sw.stop(&mut self.snap);
                MobilityOp::Pme(Box::new(op))
            }
            // `TreeOperator::with_plans` times itself under `TreeBuild`.
            MobilityPlans::Tree(plans) => MobilityOp::Tree(Box::new(TreeOperator::with_plans(
                self.system.positions(),
                Arc::clone(plans),
            ))),
        };

        let sw = telemetry::start(Phase::Displacements);
        let mut rng = StdRng::seed_from_u64(window_seed(self.seed, self.steps_done));
        let kcfg =
            KrylovConfig { tol: self.cfg.e_k, max_iter: self.cfg.max_krylov, check_interval: 1 };
        let (mut d, iterations) = match self.cfg.displacement_mode {
            DisplacementMode::BlockKrylov => {
                let mut z = vec![0.0; n3 * lambda];
                fill_standard_normal(&mut rng, &mut z);
                let (d, stats) = block_lanczos_sqrt(&mut op, &z, lambda, &kcfg)
                    .map_err(|e| BdError::Krylov(e.to_string()))?;
                (d, stats.iterations)
            }
            DisplacementMode::SplitEwald => {
                let positions = self.system.positions();
                let sampler = match (&mut self.pse, &self.plans) {
                    (Some(sampler), _) => {
                        sampler.rebuild(positions).map_err(map_pse)?;
                        sampler
                    }
                    (slot @ None, MobilityPlans::Pme(plans)) => {
                        let pse_params = PseSplit::default().resolve(plans.params());
                        slot.insert(PseSampler::new(positions, pse_params).map_err(map_pse)?)
                    }
                    // `resolve_shape` rejects this pairing at setup.
                    (None, MobilityPlans::Tree(_)) => {
                        return Err(BdError::Setup(
                            "SplitEwald sampling needs a periodic system".into(),
                        ))
                    }
                };
                // Reuse the displacement block as the sampler output so the
                // steady-state refresh allocates nothing here.
                let mut d = std::mem::take(&mut self.disp);
                d.resize(n3 * lambda, 0.0);
                let stats =
                    sampler.sample_block(&mut rng, &mut d, lambda, &kcfg).map_err(map_pse)?;
                (d, stats.iterations)
            }
        };
        let scale = (2.0 * self.cfg.kbt * self.cfg.dt).sqrt();
        for v in &mut d {
            *v *= scale;
        }
        sw.stop(&mut self.snap);
        self.snap.counters[Counter::LanczosIterations as usize] += iterations as u64;
        self.op = Some(op);
        self.disp = d;
        self.used = 0;
        Ok(())
    }

    /// Make the current displacement window valid: rebuild the operator and
    /// redraw the Brownian block when the window is exhausted (or none has
    /// been built yet).
    fn ensure_window(&mut self) -> Result<(), BdError> {
        if self.used >= self.cfg.lambda_rpy || self.op.is_none() {
            self.refresh_operator()?;
        }
        Ok(())
    }

    /// Evaluate the total deterministic force on the current configuration.
    pub fn total_forces(&mut self) -> Vec<f64> {
        total_force(&mut self.forces, &self.system)
    }

    /// Advance one BD step: `r += M f dt + d_j`, consuming displacement `j`
    /// of the current window.
    pub fn step(&mut self) -> Result<(), BdError> {
        self.ensure_window()?;

        let sw = telemetry::start(Phase::Stepping);
        let n3 = 3 * self.system.len();
        let f = total_force(&mut self.forces, &self.system);
        let op = self.op.as_mut().expect("operator refreshed by ensure_window");
        self.drift_scratch.resize(n3, 0.0);
        op.apply(&f, &mut self.drift_scratch);

        let lambda = self.cfg.lambda_rpy;
        let j = self.used;
        self.step_scratch.resize(n3, 0.0);
        for (i, (s, &d)) in self.step_scratch.iter_mut().zip(&self.drift_scratch).enumerate() {
            *s = d * self.cfg.dt + self.disp[i * lambda + j];
        }
        self.used += 1;
        self.steps_done += 1;
        self.system.apply_displacements(&self.step_scratch);
        sw.stop(&mut self.snap);
        Ok(())
    }

    /// Advance `m` steps.
    pub fn run(&mut self, m: usize) -> Result<(), BdError> {
        for _ in 0..m {
            self.step()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::RepulsiveHarmonic;

    fn small_system(n: usize, phi: f64, seed: u64) -> ParticleSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        ParticleSystem::random_suspension(n, phi, &mut rng)
    }

    #[test]
    fn krylov_faults_keep_their_text_through_both_displacement_paths() {
        let fault = hibd_krylov::KrylovError::NonFinite { iteration: 3 };
        let direct = BdError::Krylov(fault.to_string()).to_string();
        assert!(
            direct.ends_with("operator output is not finite (Lanczos iteration 3)"),
            "{direct}"
        );
        let via_pse = map_pse(PseError::from(fault)).to_string();
        assert!(
            via_pse.ends_with("operator output is not finite (Lanczos iteration 3)"),
            "{via_pse}"
        );
    }

    #[test]
    fn steps_advance_with_tuned_parameters() {
        let sys = small_system(30, 0.1, 1);
        let mut bd = MatrixFreeBd::new(sys, MatrixFreeConfig::default(), 42).unwrap();
        bd.add_force(RepulsiveHarmonic::default());
        bd.run(3).unwrap();
        assert_eq!(bd.completed_steps(), 3);
        assert!(bd.snapshot().counter(Counter::LanczosIterations) > 0);
        assert!(bd.operator_memory_bytes() > 0);
        let l = bd.system().box_l;
        for p in bd.system().positions() {
            for c in 0..3 {
                assert!(p[c] >= 0.0 && p[c] < l);
            }
        }
    }

    #[test]
    fn operator_reused_within_lambda_window_and_its_account_outlives_it() {
        let sys = small_system(20, 0.1, 2);
        let cfg = MatrixFreeConfig { lambda_rpy: 4, ..Default::default() };
        let mut bd = MatrixFreeBd::new(sys, cfg, 5).unwrap();
        bd.run(4).unwrap();
        let first = bd.snapshot();
        assert_eq!(first.phase(Phase::PmeSetup).count, 2, "plans + the first window");
        assert_eq!(first.phase(Phase::Stepping).count, 4, "one span per step");
        bd.run(3).unwrap(); // one more setup at step 5, reused for 6-7
        let second = bd.snapshot();
        assert_eq!(second.phase(Phase::PmeSetup).count, 3);
        // The first window's operator is gone, its spans are not: the job's
        // account is the retired operator's plus the live one's.
        let live = bd.operator().expect("second window").snapshot().phase(Phase::Spreading).count;
        assert!(live > 0);
        assert_eq!(
            second.phase(Phase::Spreading).count,
            first.phase(Phase::Spreading).count + live
        );
        bd.run(1).unwrap(); // step 8: still inside second window
        assert_eq!(bd.snapshot().phase(Phase::PmeSetup).count, 3);
    }

    #[test]
    fn zero_temperature_freezes_force_free_system() {
        let sys = small_system(15, 0.05, 3);
        let before: Vec<_> = sys.positions().to_vec();
        let cfg = MatrixFreeConfig { kbt: 0.0, ..Default::default() };
        let mut bd = MatrixFreeBd::new(sys, cfg, 9).unwrap();
        bd.run(2).unwrap();
        for (a, b) in before.iter().zip(bd.system().positions()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn rejects_mismatched_pme_box() {
        let sys = small_system(10, 0.1, 4);
        let cfg = MatrixFreeConfig {
            pme: Some(PmeParams { box_l: 999.0, ..PmeParams::default() }),
            ..Default::default()
        };
        assert!(matches!(MatrixFreeBd::new(sys, cfg, 1), Err(BdError::Setup(_))));
    }

    #[test]
    fn split_ewald_mode_produces_comparable_displacement_scale() {
        // SplitEwald consumes a different Gaussian stream (spectral noise +
        // near-field block instead of one dense block), so trajectories
        // cannot match bitwise; both paths sample N(0, 2 kBT M dt), so the
        // RMS displacement per step must agree to within MC scatter.
        let rms = |mode| {
            let sys = small_system(15, 0.1, 9);
            let start: Vec<_> = sys.positions().to_vec();
            let cfg = MatrixFreeConfig {
                lambda_rpy: 8,
                e_k: 1e-4,
                displacement_mode: mode,
                ..Default::default()
            };
            let mut bd = MatrixFreeBd::new(sys, cfg, 77).unwrap();
            bd.run(8).unwrap();
            let mut sum = 0.0;
            for (p, q) in bd.system().unwrapped().iter().zip(&start) {
                sum += (*p - *q).norm2();
            }
            (sum / start.len() as f64).sqrt()
        };
        let block = rms(DisplacementMode::BlockKrylov);
        let pse = rms(DisplacementMode::SplitEwald);
        let ratio = pse / block;
        assert!((0.7..1.4).contains(&ratio), "RMS ratio {ratio} (pse {pse} vs block {block})");
    }

    #[test]
    fn resume_at_window_boundary_matches_uninterrupted_run() {
        // The window-seeded RNG makes a resume at steps % lambda == 0
        // replay the uninterrupted Gaussian stream exactly, for every
        // displacement mode.
        for mode in [DisplacementMode::BlockKrylov, DisplacementMode::SplitEwald] {
            let cfg =
                MatrixFreeConfig { lambda_rpy: 4, displacement_mode: mode, ..Default::default() };
            let sys = small_system(12, 0.1, 21);

            let mut full = MatrixFreeBd::new(sys.clone(), cfg, 55).unwrap();
            full.add_force(RepulsiveHarmonic::default());
            full.run(8).unwrap();

            let mut head = MatrixFreeBd::new(sys, cfg, 55).unwrap();
            head.add_force(RepulsiveHarmonic::default());
            head.run(4).unwrap();
            let mut tail = MatrixFreeBd::new(head.system().clone(), cfg, 55).unwrap();
            tail.add_force(RepulsiveHarmonic::default());
            tail.set_completed_steps(4);
            tail.run(4).unwrap();
            assert_eq!(tail.completed_steps(), 8);

            for (a, b) in full.system().positions().iter().zip(tail.system().positions()) {
                for c in 0..3 {
                    assert_eq!(a[c], b[c], "mode {mode:?}: resumed trajectory diverged");
                }
            }
        }
    }

    fn small_cluster(n: usize, phi: f64, seed: u64) -> ParticleSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        ParticleSystem::random_cluster_with(n, phi, 1.0, 1.0, &mut rng)
    }

    #[test]
    fn open_boundary_steps_on_the_treecode() {
        let sys = small_cluster(25, 0.1, 13);
        let cfg = MatrixFreeConfig { lambda_rpy: 4, ..Default::default() };
        let mut bd = MatrixFreeBd::new(sys, cfg, 42).unwrap();
        bd.add_force(RepulsiveHarmonic::default());
        bd.run(5).unwrap();
        assert_eq!(bd.completed_steps(), 5);
        let snap = bd.snapshot();
        assert!(snap.counter(Counter::LanczosIterations) > 0);
        assert_eq!(snap.phase(Phase::TreeBuild).count, 3, "plans + two windows");
        assert!(snap.phase(Phase::NearField).count > snap.phase(Phase::TreeBuild).count);
        let shape = bd.shape();
        assert!(shape.pme.is_none());
        let tp = shape.tree.expect("open driver resolved tree params");
        assert!((tp.a - 1.0).abs() < 1e-15 && (tp.eta - 1.0).abs() < 1e-15);
        let Some(MobilityOp::Tree(op)) = bd.operator() else { panic!("tree operator built") };
        assert!(op.interactions_per_apply() > 0);
        assert!(bd.operator_memory_bytes() > 0);
        for p in bd.system().positions() {
            for c in 0..3 {
                assert!(p[c].is_finite());
            }
        }
    }

    #[test]
    fn open_boundary_rejects_split_ewald_and_pme_params() {
        let cfg = MatrixFreeConfig {
            displacement_mode: DisplacementMode::SplitEwald,
            ..Default::default()
        };
        assert!(matches!(
            MatrixFreeBd::new(small_cluster(8, 0.1, 2), cfg, 1),
            Err(BdError::Setup(_))
        ));
        let cfg = MatrixFreeConfig { pme: Some(PmeParams::default()), ..Default::default() };
        assert!(matches!(
            MatrixFreeBd::new(small_cluster(8, 0.1, 2), cfg, 1),
            Err(BdError::Setup(_))
        ));
    }

    #[test]
    fn bad_explicit_tree_params_are_setup_errors_naming_the_field() {
        // An explicit `tree` reaches the driver unvalidated; every field
        // `TreePlans::new` would panic on comes back as a typed error.
        let ok = TreeParams::default();
        for (bad, field) in [
            (TreeParams { theta: 1.5, ..ok }, "theta 1.5"),
            (TreeParams { theta: f64::NAN, ..ok }, "theta NaN"),
            (TreeParams { leaf_capacity: 0, ..ok }, "leaf_capacity 0"),
            (TreeParams { cheb_order: 1, ..ok }, "cheb_order 1"),
            (TreeParams { cheb_order: 9, ..ok }, "cheb_order 9"),
        ] {
            let cfg = MatrixFreeConfig { tree: Some(bad), ..Default::default() };
            match MatrixFreeBd::new(small_cluster(8, 0.1, 2), cfg, 1) {
                Err(BdError::Setup(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                Err(e) => panic!("{field}: wrong error {e}"),
                Ok(_) => panic!("{field}: accepted"),
            }
        }
        // `a` and `eta` are the system's, whatever the explicit value says.
        let cfg =
            MatrixFreeConfig { tree: Some(TreeParams { a: -1.0, ..ok }), ..Default::default() };
        let shape = resolve_shape(&small_cluster(8, 0.1, 2), &cfg).unwrap();
        assert_eq!(shape.tree.unwrap().a, 1.0);
    }

    #[test]
    fn small_open_systems_resolve_to_the_exact_direct_sum() {
        let sys = small_cluster(25, 0.1, 13);
        let tuned = resolve_shape(&sys, &MatrixFreeConfig::default()).unwrap().tree.unwrap();
        assert_eq!(tuned, hibd_treecode::tune(25, 1e-3, 1.0, 1.0));
        assert_eq!(tuned.eval, hibd_treecode::TreeEval::Direct);
        // An explicit hierarchy is honoured field for field.
        let fmm = TreeParams { eval: hibd_treecode::TreeEval::Fmm, leaf_capacity: 4, ..tuned };
        let cfg = MatrixFreeConfig { tree: Some(fmm), lambda_rpy: 2, ..Default::default() };
        let mut bd = MatrixFreeBd::new(sys, cfg, 5).unwrap();
        assert_eq!(bd.shape().tree, Some(fmm));
        bd.run(2).unwrap();
        assert!(bd.snapshot().phase(Phase::M2l).count > 0);
    }

    #[test]
    fn open_resume_at_window_boundary_matches_uninterrupted_run() {
        // Tuned parameters on both sides: the tuner never sees positions, so
        // the tail resolves the head's shape on the moved cluster.
        let cfg = MatrixFreeConfig { lambda_rpy: 3, ..Default::default() };
        let sys = small_cluster(10, 0.1, 23);

        let mut full = MatrixFreeBd::new(sys.clone(), cfg, 91).unwrap();
        full.add_force(RepulsiveHarmonic::default());
        full.run(6).unwrap();

        let mut head = MatrixFreeBd::new(sys, cfg, 91).unwrap();
        head.add_force(RepulsiveHarmonic::default());
        head.run(3).unwrap();
        let mut tail = MatrixFreeBd::new(head.system().clone(), cfg, 91).unwrap();
        tail.add_force(RepulsiveHarmonic::default());
        tail.set_completed_steps(3);
        tail.run(3).unwrap();

        assert_eq!(tail.shape(), full.shape());
        for (a, b) in full.system().positions().iter().zip(tail.system().positions()) {
            for c in 0..3 {
                assert_eq!(a[c], b[c], "open resumed trajectory diverged");
            }
        }
    }

    #[test]
    fn deterministic_trajectories_for_fixed_seed() {
        let run = |seed| {
            let sys = small_system(12, 0.1, 6);
            let mut bd = MatrixFreeBd::new(sys, MatrixFreeConfig::default(), seed).unwrap();
            bd.add_force(RepulsiveHarmonic::default());
            bd.run(3).unwrap();
            bd.system().positions().to_vec()
        };
        let a = run(123);
        let b = run(123);
        let c = run(124);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| (*x - *y).norm() > 1e-12));
    }
}
