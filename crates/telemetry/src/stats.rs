//! Pure aggregation types: per-phase statistics and whole-process snapshots.
//!
//! All fields are exact integers (u64 nanoseconds / counts), so merging is
//! associative, commutative, and order-independent across threads — the
//! property the proptests in `tests/merge_props.rs` pin down. Floating-point
//! views (`total_secs`, `mean_ns`) are derived on read only.

use crate::{Counter, Phase, NUM_COUNTERS, NUM_PHASES};

/// Number of log2 nanosecond histogram buckets. Bucket `b` holds durations
/// with bit length `b` (i.e. `2^(b-1) <= d < 2^b`; bucket 0 is `d == 0`),
/// saturating at the top bucket (~>= 1 s).
pub const NUM_BUCKETS: usize = 32;

/// Histogram bucket index for a duration in nanoseconds.
#[inline]
#[must_use]
pub fn bucket_of(d_ns: u64) -> usize {
    ((u64::BITS - d_ns.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Statistics for one phase: count, total, min/max, log2 histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds (`u64::MAX` while empty).
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
    /// Log2 duration histogram, see [`bucket_of`].
    pub hist: [u64; NUM_BUCKETS],
}

impl Default for PhaseStats {
    fn default() -> Self {
        Self::empty()
    }
}

impl PhaseStats {
    /// Stats with no spans recorded.
    #[must_use]
    pub const fn empty() -> Self {
        PhaseStats { count: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0, hist: [0; NUM_BUCKETS] }
    }

    /// Accumulate one span duration (pure mirror of the recorder's atomics).
    pub fn record(&mut self, d_ns: u64) {
        self.count += 1;
        self.total_ns += d_ns;
        self.min_ns = self.min_ns.min(d_ns);
        self.max_ns = self.max_ns.max(d_ns);
        self.hist[bucket_of(d_ns)] += 1;
    }

    /// Fold another stats block into this one. Exact and associative.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += *b;
        }
    }

    /// Total time in seconds.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Mean span duration in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Aggregated statistics for every phase plus the workload counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-phase stats, indexed by `Phase as usize`.
    pub phases: [PhaseStats; NUM_PHASES],
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; NUM_COUNTERS],
}

impl Default for Snapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl Snapshot {
    /// A snapshot with nothing recorded.
    #[must_use]
    pub const fn empty() -> Self {
        Snapshot { phases: [PhaseStats::empty(); NUM_PHASES], counters: [0; NUM_COUNTERS] }
    }

    /// Stats for one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> &PhaseStats {
        &self.phases[phase as usize]
    }

    /// Value of one counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Amortized seconds per BD step over `steps` steps: the sum of the
    /// driver-level phases — operator setup (`PmeSetup`, `TreeBuild`), the
    /// dense baseline's `Assembly` and `Cholesky`, `Displacements` and
    /// `Stepping`. Every other phase nests inside one of these, so this is
    /// the whole account without double counting.
    #[must_use]
    pub fn step_seconds(&self, steps: u64) -> f64 {
        const DRIVER: [Phase; 6] = [
            Phase::PmeSetup,
            Phase::TreeBuild,
            Phase::Assembly,
            Phase::Cholesky,
            Phase::Displacements,
            Phase::Stepping,
        ];
        let total_ns: u64 = DRIVER.iter().map(|&p| self.phase(p).total_ns).sum();
        total_ns as f64 * 1e-9 / steps.max(1) as f64
    }

    /// Mobility columns pushed through the reciprocal PME pipeline: every
    /// column costs exactly three forward mesh transforms (one per vector
    /// component), for single and batched applies alike.
    #[must_use]
    pub fn columns_applied(&self) -> f64 {
        self.counter(Counter::ForwardFfts) as f64 / 3.0
    }

    /// Fold another snapshot into this one (gauges merge by max).
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.merge(b);
        }
        for c in Counter::ALL {
            let i = c as usize;
            self.counters[i] = if c.is_gauge() {
                self.counters[i].max(other.counters[i])
            } else {
                self.counters[i] + other.counters[i]
            };
        }
    }

    /// Render the non-empty phase statistics as a JSON object, the shared
    /// encoding of the `hibd-profile-v2` and `hibd-serve-v2` documents.
    #[must_use]
    pub fn phases_to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let mut first = true;
        for ph in Phase::ALL {
            let st = self.phase(ph);
            if st.count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write!(
                out,
                "\"{}\":{{\"count\":{},\"total_s\":{:e},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{:e},\"hist\":[",
                ph.name(),
                st.count,
                st.total_secs(),
                st.min_ns,
                st.max_ns,
                st.mean_ns()
            )
            .unwrap();
            for (i, b) in st.hist.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "{b}").unwrap();
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }

    /// Render every counter as a JSON object (zero counters included, so
    /// consumers can rely on the full registry being present).
    #[must_use]
    pub fn counters_to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":{}", c.name(), self.counter(*c)).unwrap();
        }
        out.push('}');
        out
    }
}

/// A [`Snapshot`] tagged with a job / replica label, the unit the ensemble
/// profile aggregates ("r0", "r1", ..., "shared").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabeledSnapshot {
    /// Job label; snapshots with equal labels merge into one.
    pub label: String,
    /// The per-job statistics.
    pub snapshot: Snapshot,
}

impl LabeledSnapshot {
    /// An empty snapshot under `label`.
    #[must_use]
    pub fn empty(label: impl Into<String>) -> LabeledSnapshot {
        LabeledSnapshot { label: label.into(), snapshot: Snapshot::empty() }
    }
}

/// Fold `other` into `into`, merging label-wise: snapshots whose label is
/// already present merge via [`Snapshot::merge`] (exact, associative);
/// unseen labels are appended in order of first appearance. Because the
/// per-label fold is [`Snapshot::merge`] and the label set is a union,
/// grouping does not matter — the associativity proptests in
/// `tests/merge_props.rs` pin this down.
pub fn merge_labeled(into: &mut Vec<LabeledSnapshot>, other: &[LabeledSnapshot]) {
    for ls in other {
        if let Some(existing) = into.iter_mut().find(|e| e.label == ls.label) {
            existing.snapshot.merge(&ls.snapshot);
        } else {
            into.push(ls.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn step_seconds_sums_the_driver_level_phases_only() {
        let mut snap = Snapshot::empty();
        for ph in [Phase::PmeSetup, Phase::TreeBuild, Phase::Displacements, Phase::Stepping] {
            snap.phases[ph as usize].record(1_000_000_000);
        }
        // Nested inside `Displacements` / `Stepping`: must not count twice.
        snap.phases[Phase::ForwardFft as usize].record(5_000_000_000);
        assert!((snap.step_seconds(4) - 1.0).abs() < 1e-12);
        assert!((snap.step_seconds(0) - 4.0).abs() < 1e-12, "zero steps amortize over one");
        snap.counters[Counter::ForwardFfts as usize] = 36;
        assert!((snap.columns_applied() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn record_matches_merge_of_singletons() {
        let durations = [0u64, 1, 5, 1_000, 123_456_789, u64::MAX / 2];
        let mut direct = PhaseStats::empty();
        let mut merged = PhaseStats::empty();
        for &d in &durations {
            direct.record(d);
            let mut single = PhaseStats::empty();
            single.record(d);
            merged.merge(&single);
        }
        assert_eq!(direct, merged);
        assert_eq!(direct.count, durations.len() as u64);
        assert_eq!(direct.min_ns, 0);
        assert_eq!(direct.max_ns, u64::MAX / 2);
    }
}
