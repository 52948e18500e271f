//! The lock-free span recorder: static per-thread slots of relaxed atomics.
//!
//! Design notes:
//!
//! - Every recording thread claims one of [`MAX_THREADS`] static slots on
//!   first use (a compare-exchange sweep) and releases it when the thread
//!   exits, so slots are recycled across short-lived threads (scoped harness
//!   threads, test harness threads, ...). If more than
//!   `MAX_THREADS` threads record concurrently, the surplus threads share the
//!   last slot — all fields are atomics, so sharing is merely contended, not
//!   unsound.
//! - Claiming touches only `Cell`s in a `const`-initialized `thread_local!`
//!   and static atomics: the steady-state record path performs **zero heap
//!   allocation** (enforced by `tests/alloc_regression.rs`).
//! - All counters are relaxed: the recorder never synchronizes application
//!   memory, and [`snapshot`] taken concurrently with recording is only
//!   approximately consistent (exact once recording threads are quiescent,
//!   which is when harnesses read it).
//! - Raw spans additionally go into a per-slot ring buffer of
//!   `(phase, t_start, t_stop)` for trace export. A reader racing a writer
//!   may observe a torn (mixed-generation) record; [`trace`] is a debugging
//!   aid, the statistics above are the source of truth.

use crate::stats::{bucket_of, PhaseStats, Snapshot, NUM_BUCKETS};
use crate::{Counter, Phase, NUM_COUNTERS, NUM_PHASES};
use std::cell::Cell;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::OnceLock;
use std::time::Instant;

/// Maximum number of threads recording without slot sharing.
const MAX_THREADS: usize = 32;
/// Raw spans retained per slot (newest overwrite oldest).
const RING_CAP: usize = 64;

struct Slot {
    claimed: AtomicBool,
    count: [AtomicU64; NUM_PHASES],
    total_ns: [AtomicU64; NUM_PHASES],
    min_ns: [AtomicU64; NUM_PHASES],
    max_ns: [AtomicU64; NUM_PHASES],
    hist: [[AtomicU64; NUM_BUCKETS]; NUM_PHASES],
    counters: [AtomicU64; NUM_COUNTERS],
    ring_head: AtomicU64,
    /// `[phase as u64, start_ns, stop_ns]` triples.
    ring: [[AtomicU64; 3]; RING_CAP],
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array-repeat seed
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const NS_MAX: AtomicU64 = AtomicU64::new(u64::MAX);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; NUM_BUCKETS] = [ZERO; NUM_BUCKETS];
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_TRIPLE: [AtomicU64; 3] = [ZERO; 3];
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    claimed: AtomicBool::new(false),
    count: [ZERO; NUM_PHASES],
    total_ns: [ZERO; NUM_PHASES],
    min_ns: [NS_MAX; NUM_PHASES],
    max_ns: [ZERO; NUM_PHASES],
    hist: [ZERO_ROW; NUM_PHASES],
    counters: [ZERO; NUM_COUNTERS],
    ring_head: ZERO,
    ring: [ZERO_TRIPLE; RING_CAP],
};

static SLOTS: [Slot; MAX_THREADS] = [EMPTY_SLOT; MAX_THREADS];

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn global recording on. Cheap; affects all threads.
pub fn enable() {
    #[cfg(feature = "record")]
    ENABLED.store(true, Relaxed);
}

/// Turn global recording off. [`Stopwatch`](crate::Stopwatch) timers keep
/// returning elapsed seconds; they just stop feeding the global recorder.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Whether spans and counters are currently being recorded.
///
/// Without the `record` cargo feature this is a constant `false` and the
/// whole record path compiles away.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "record") && ENABLED.load(Relaxed)
}

/// Monotonic nanoseconds since the first telemetry call in the process.
///
/// Backed by a process-wide `Instant` epoch; does not allocate.
#[inline]
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Per-thread claimed slot index, plus whether this thread owns the claim
/// (overflow threads share the last slot without owning it).
struct SlotHandle {
    idx: Cell<usize>,
    owned: Cell<bool>,
}

impl Drop for SlotHandle {
    fn drop(&mut self) {
        let i = self.idx.get();
        if i < MAX_THREADS && self.owned.get() {
            SLOTS[i].claimed.store(false, Relaxed);
        }
    }
}

thread_local! {
    static HANDLE: SlotHandle = const { SlotHandle { idx: Cell::new(usize::MAX), owned: Cell::new(false) } };
}

fn claim_slot() -> (usize, bool) {
    for (i, s) in SLOTS.iter().enumerate() {
        if s.claimed.compare_exchange(false, true, Relaxed, Relaxed).is_ok() {
            return (i, true);
        }
    }
    (MAX_THREADS - 1, false)
}

/// Run `f` against this thread's slot. Skips silently if thread-local storage
/// is already being torn down (recording during thread exit).
#[inline]
fn with_slot(f: impl FnOnce(&'static Slot)) {
    let _ = HANDLE.try_with(|h| {
        let mut i = h.idx.get();
        if i == usize::MAX {
            let (idx, owned) = claim_slot();
            h.idx.set(idx);
            h.owned.set(owned);
            i = idx;
        }
        f(&SLOTS[i]);
    });
}

/// Record one completed span. No-op unless [`enabled`].
#[inline]
pub(crate) fn record_span(phase: Phase, start_ns: u64, stop_ns: u64) {
    if !enabled() {
        return;
    }
    let d = stop_ns.saturating_sub(start_ns);
    let p = phase as usize;
    with_slot(|s| {
        s.count[p].fetch_add(1, Relaxed);
        s.total_ns[p].fetch_add(d, Relaxed);
        s.min_ns[p].fetch_min(d, Relaxed);
        s.max_ns[p].fetch_max(d, Relaxed);
        s.hist[p][bucket_of(d)].fetch_add(1, Relaxed);
        let head = (s.ring_head.fetch_add(1, Relaxed) as usize) % RING_CAP;
        s.ring[head][0].store(phase as u64, Relaxed);
        s.ring[head][1].store(start_ns, Relaxed);
        s.ring[head][2].store(stop_ns, Relaxed);
    });
}

/// Add `by` to a counter. No-op unless [`enabled`].
#[inline]
pub fn incr(counter: Counter, by: u64) {
    if !enabled() {
        return;
    }
    with_slot(|s| {
        s.counters[counter as usize].fetch_add(by, Relaxed);
    });
}

/// Raise a gauge counter to at least `value`. No-op unless [`enabled`].
#[inline]
pub fn gauge_max(counter: Counter, value: u64) {
    if !enabled() {
        return;
    }
    with_slot(|s| {
        s.counters[counter as usize].fetch_max(value, Relaxed);
    });
}

/// Aggregate every slot into a [`Snapshot`]. Does not stop recording; take
/// snapshots at quiescent points for exact numbers.
#[must_use]
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::empty();
    for s in &SLOTS {
        for p in 0..NUM_PHASES {
            let mut ps = PhaseStats::empty();
            ps.count = s.count[p].load(Relaxed);
            ps.total_ns = s.total_ns[p].load(Relaxed);
            ps.min_ns = s.min_ns[p].load(Relaxed);
            ps.max_ns = s.max_ns[p].load(Relaxed);
            for (b, h) in ps.hist.iter_mut().zip(&s.hist[p]) {
                *b = h.load(Relaxed);
            }
            out.phases[p].merge(&ps);
        }
        for (c, slot_c) in Counter::ALL.iter().zip(&s.counters) {
            let v = slot_c.load(Relaxed);
            let agg = &mut out.counters[*c as usize];
            *agg = if c.is_gauge() { (*agg).max(v) } else { *agg + v };
        }
    }
    out
}

/// Zero all recorded statistics, counters, and ring buffers.
///
/// Call at a quiescent point; resetting concurrently with recording threads
/// can interleave with in-flight spans.
pub fn reset() {
    for s in &SLOTS {
        for p in 0..NUM_PHASES {
            s.count[p].store(0, Relaxed);
            s.total_ns[p].store(0, Relaxed);
            s.min_ns[p].store(u64::MAX, Relaxed);
            s.max_ns[p].store(0, Relaxed);
            for b in &s.hist[p] {
                b.store(0, Relaxed);
            }
        }
        for c in &s.counters {
            c.store(0, Relaxed);
        }
        s.ring_head.store(0, Relaxed);
        for r in &s.ring {
            for w in r {
                w.store(0, Relaxed);
            }
        }
    }
}

/// One raw span drained from the ring buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which phase the span belongs to.
    pub phase: Phase,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Stop, nanoseconds since the telemetry epoch.
    pub stop_ns: u64,
}

/// Collect the most recent raw spans (up to 64 per recording thread), sorted
/// by start time. Allocates; not for hot paths.
#[must_use]
pub fn trace() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for s in &SLOTS {
        let head = s.ring_head.load(Relaxed) as usize;
        let filled = head.min(RING_CAP);
        for r in s.ring.iter().take(filled) {
            let phase_idx = r[0].load(Relaxed) as usize;
            let start_ns = r[1].load(Relaxed);
            let stop_ns = r[2].load(Relaxed);
            if phase_idx < NUM_PHASES && stop_ns >= start_ns {
                out.push(SpanRecord { phase: Phase::ALL[phase_idx], start_ns, stop_ns });
            }
        }
    }
    out.sort_by_key(|s| (s.start_ns, s.stop_ns));
    out
}
