//! Unified low-overhead phase tracing.
//!
//! The crate has two layers:
//!
//! 1. **Recorder** ([`span`], [`start`], [`incr`], [`gauge_max`]):
//!    a lock-free, allocation-free-at-steady-state span recorder. Each OS
//!    thread claims a static slot holding relaxed atomic per-phase stats and
//!    a small ring buffer of raw `(phase, t_start, t_stop)` spans. When
//!    recording is disabled (the default, toggled at runtime by [`enable`] /
//!    [`disable`], or compiled out by building without the `record` feature)
//!    the record path is a single relaxed load.
//! 2. **Aggregation** ([`snapshot`], [`Snapshot`], [`PhaseStats`]): merges
//!    all slots into per-phase count/total/min/max plus fixed-bucket log2
//!    nanosecond histograms, and the workload counters of [`Counter`].
//!    Merging is exact (u64 nanoseconds), associative and order-independent.
//!
//! The Section IV-D performance model that reads these snapshots — formulas,
//! machines fitted from spans, the measured-vs-predicted report — lives in
//! `hibd_pme::perf`; only the list of phases it covers ([`MODEL_PHASES`]) is
//! here, next to [`Phase`].
//!
//! One clock, one sink type: timing sites elsewhere in the workspace use
//! [`start`]/[`Stopwatch::stop`], which records the span into the caller's
//! own [`Snapshot`] (an operator's, a driver's, the engine's `shared`) always
//! and into the global recorder when enabled. A job's phase account is the
//! merge of those snapshots (`MatrixFreeBd::snapshot()`); nothing else
//! accumulates seconds. This is the sanctioned way to time `#[hibd::hot]`
//! code; the `xtask` audit rejects raw `Instant::now()` inside hot functions.

pub mod json;
mod recorder;
mod stats;

pub use recorder::{disable, enable, enabled, gauge_max, incr, reset, snapshot, trace, SpanRecord};
pub use stats::{bucket_of, merge_labeled, LabeledSnapshot, PhaseStats, Snapshot, NUM_BUCKETS};

/// Phases of the simulation pipeline, a static registry.
///
/// The first six are the Section IV-D model phases (the PME apply); the rest
/// cover the Brownian-dynamics drivers and the treecode/FMM backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Spreading forces onto the PME mesh (B-spline scatter).
    Spreading = 0,
    /// Forward real-to-complex FFTs (3 per apply, one per component).
    ForwardFft = 1,
    /// Influence-function scaling in reciprocal space.
    Influence = 2,
    /// Inverse complex-to-real FFTs (3 per apply).
    InverseFft = 3,
    /// Interpolating mesh velocities back to particles.
    Interpolation = 4,
    /// Real-space (near-field) sparse apply.
    RealSpace = 5,
    /// Matrix-free operator construction (tuning, spreading plan, BCSR).
    PmeSetup = 6,
    /// Brownian displacement sampling (block Lanczos / split-Ewald).
    Displacements = 7,
    /// Force evaluation + drift + position update.
    Stepping = 8,
    /// Dense Ewald mobility assembly.
    Assembly = 9,
    /// Dense Cholesky factorization.
    Cholesky = 10,
    /// Treecode octree construction (Morton sort, traversal lists, proxies).
    TreeBuild = 11,
    /// Treecode upward pass (P2M anterpolation + M2M transfers).
    Upward = 12,
    /// Treecode far field (source-proxy to target-particle kernel sums).
    FarField = 13,
    /// Treecode near field (direct two-branch RPY over leaf pairs).
    NearField = 14,
    /// FMM multipole-to-local translations (per-target-node GEMVs against
    /// the precomputed interaction-list tables).
    M2l = 15,
    /// FMM downward pass (L2L child shifts plus L2P leaf interpolation).
    Downward = 16,
}

/// Number of phases in the registry.
pub const NUM_PHASES: usize = 17;

/// The six phases of one PME apply that the Section IV-D model prices, in
/// pipeline order.
pub const MODEL_PHASES: [Phase; 6] = [
    Phase::Spreading,
    Phase::ForwardFft,
    Phase::Influence,
    Phase::InverseFft,
    Phase::Interpolation,
    Phase::RealSpace,
];

impl Phase {
    /// Every phase, in `repr` order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Spreading,
        Phase::ForwardFft,
        Phase::Influence,
        Phase::InverseFft,
        Phase::Interpolation,
        Phase::RealSpace,
        Phase::PmeSetup,
        Phase::Displacements,
        Phase::Stepping,
        Phase::Assembly,
        Phase::Cholesky,
        Phase::TreeBuild,
        Phase::Upward,
        Phase::FarField,
        Phase::NearField,
        Phase::M2l,
        Phase::Downward,
    ];

    /// Stable snake_case name (used in JSON profiles).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Spreading => "spreading",
            Phase::ForwardFft => "forward_fft",
            Phase::Influence => "influence",
            Phase::InverseFft => "inverse_fft",
            Phase::Interpolation => "interpolation",
            Phase::RealSpace => "real_space",
            Phase::PmeSetup => "pme_setup",
            Phase::Displacements => "displacements",
            Phase::Stepping => "stepping",
            Phase::Assembly => "assembly",
            Phase::Cholesky => "cholesky",
            Phase::TreeBuild => "tree_build",
            Phase::Upward => "upward",
            Phase::FarField => "far_field",
            Phase::NearField => "near_field",
            Phase::M2l => "m2l",
            Phase::Downward => "downward",
        }
    }
}

/// Monotonic workload counters (and one gauge) aggregated next to the spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Forward FFT mesh transforms executed (batch calls count each mesh).
    ForwardFfts = 0,
    /// Inverse FFT mesh transforms executed.
    InverseFfts = 1,
    /// Lanczos iterations across all square-root solves.
    LanczosIterations = 2,
    /// Lanczos solver restarts (fresh Krylov spaces built).
    LanczosRestarts = 3,
    /// Neighbor-list (cell list / Verlet) rebuilds.
    NeighborRebuilds = 4,
    /// Peak PME operator scratch footprint in bytes (a gauge: merged by max).
    PmeScratchBytes = 5,
    /// Treecode column-pair work: direct particle-particle near-field pairs
    /// plus proxy-to-particle far-field kernel evaluations, counted once per
    /// applied column — a block apply of `s` columns adds `s` times the
    /// single apply's count, although it evaluates each pair's kernel
    /// scalars only once per column tile.
    TreeInteractions = 6,
    /// Engine plan-cache lookups that reused an existing `Arc<...Plans>`.
    PlanCacheHits = 7,
    /// Engine plan-cache lookups that had to build fresh plans.
    PlanCacheMisses = 8,
    /// FMM multipole-to-local translations applied (one per accepted
    /// target-node/source-node pair per applied column).
    M2lTranslations = 9,
    /// Engine plan-cache entries evicted by the LRU capacity bound.
    PlanCacheEvictions = 10,
}

/// Number of counters in the registry.
pub const NUM_COUNTERS: usize = 11;

impl Counter {
    /// Every counter, in `repr` order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::ForwardFfts,
        Counter::InverseFfts,
        Counter::LanczosIterations,
        Counter::LanczosRestarts,
        Counter::NeighborRebuilds,
        Counter::PmeScratchBytes,
        Counter::TreeInteractions,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::M2lTranslations,
        Counter::PlanCacheEvictions,
    ];

    /// Stable snake_case name (used in JSON profiles).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Counter::ForwardFfts => "forward_ffts",
            Counter::InverseFfts => "inverse_ffts",
            Counter::LanczosIterations => "lanczos_iterations",
            Counter::LanczosRestarts => "lanczos_restarts",
            Counter::NeighborRebuilds => "neighbor_rebuilds",
            Counter::PmeScratchBytes => "pme_scratch_bytes",
            Counter::TreeInteractions => "tree_interactions",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::M2lTranslations => "m2l_translations",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
        }
    }

    /// Gauges merge by `max`; plain counters merge by `+`.
    #[must_use]
    pub const fn is_gauge(self) -> bool {
        matches!(self, Counter::PmeScratchBytes)
    }
}

/// A scope guard recording a span on drop (only when recording is enabled).
///
/// Use [`Stopwatch`] instead when the span belongs in a per-instance
/// [`Snapshot`] too.
#[must_use = "dropping the span immediately records a zero-length interval"]
pub struct Span {
    phase: Phase,
    start_ns: u64,
    armed: bool,
}

/// Open a span for `phase`. When recording is disabled this does not even
/// read the clock.
#[inline]
pub fn span(phase: Phase) -> Span {
    if enabled() {
        Span { phase, start_ns: recorder::now_ns(), armed: true }
    } else {
        Span { phase, start_ns: 0, armed: false }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            recorder::record_span(self.phase, self.start_ns, recorder::now_ns());
        }
    }
}

/// A started phase timer that *always* measures (the clock is read whether or
/// not recording is enabled): stopping it records the span into the caller's
/// [`Snapshot`], and additionally into the global recorder when recording is
/// enabled.
#[must_use = "a stopwatch does nothing until stopped"]
pub struct Stopwatch {
    phase: Phase,
    start_ns: u64,
}

/// Start a [`Stopwatch`] for `phase`.
#[inline]
pub fn start(phase: Phase) -> Stopwatch {
    Stopwatch { phase, start_ns: recorder::now_ns() }
}

impl Stopwatch {
    /// Stop and record the span into `sink` (always; inline arrays, no
    /// allocation) and into the global recorder (when enabled).
    #[inline]
    pub fn stop(self, sink: &mut Snapshot) {
        let stop_ns = recorder::now_ns();
        recorder::record_span(self.phase, self.start_ns, stop_ns);
        sink.phases[self.phase as usize].record(stop_ns.saturating_sub(self.start_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The recorder is process-global; serialize the tests that touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn registry_names_are_unique_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn stopwatch_feeds_snapshot_when_enabled() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        let mut local = Snapshot::empty();
        let sw = start(Phase::Spreading);
        std::hint::black_box(1 + 1);
        sw.stop(&mut local);
        incr(Counter::ForwardFfts, 3);
        gauge_max(Counter::PmeScratchBytes, 1024);
        gauge_max(Counter::PmeScratchBytes, 512);
        let snap = snapshot();
        disable();
        // One clock: the local sink and the recorder hold the same span.
        assert_eq!(snap.phase(Phase::Spreading), local.phase(Phase::Spreading));
        assert_eq!(snap.phase(Phase::Spreading).count, 1);
        assert_eq!(snap.counter(Counter::ForwardFfts), 3);
        assert_eq!(snap.counter(Counter::PmeScratchBytes), 1024);
        assert!(snap.phase(Phase::Spreading).total_ns >= snap.phase(Phase::Spreading).min_ns);
    }

    #[test]
    fn disabled_recording_leaves_no_trace() {
        let _g = LOCK.lock().unwrap();
        reset();
        disable();
        let mut local = Snapshot::empty();
        start(Phase::Influence).stop(&mut local);
        assert_eq!(local.phase(Phase::Influence).count, 1, "the local sink always records");
        {
            let _s = span(Phase::Influence);
        }
        incr(Counter::InverseFfts, 7);
        let snap = snapshot();
        assert_eq!(snap.phase(Phase::Influence).count, 0);
        assert_eq!(snap.counter(Counter::InverseFfts), 0);
    }

    #[test]
    fn spans_show_up_in_trace() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        for _ in 0..4 {
            let _s = span(Phase::Cholesky);
        }
        let spans = trace();
        disable();
        let chol = spans.iter().filter(|s| s.phase == Phase::Cholesky).count();
        assert_eq!(chol, 4);
        for s in &spans {
            assert!(s.stop_ns >= s.start_ns);
        }
    }
}
