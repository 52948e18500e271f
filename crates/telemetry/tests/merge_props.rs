//! Property tests: histogram/stat merge is associative, commutative, and
//! order-independent across threads. All state is exact u64 arithmetic, so
//! every equality below is bit-exact — no tolerances.

use hibd_telemetry::{
    merge_labeled, Counter, LabeledSnapshot, Phase, PhaseStats, Snapshot, NUM_PHASES,
};
use proptest::prelude::*;

fn stats_from(durations: &[u64]) -> PhaseStats {
    let mut s = PhaseStats::empty();
    for &d in durations {
        s.record(d);
    }
    s
}

/// A labeled snapshot from a tiny alphabet of labels (so collisions are
/// common) with a few recorded spans and one counter.
fn labeled_from(label_idx: u8, durations: &[u64], count: u64) -> LabeledSnapshot {
    let mut ls = LabeledSnapshot::empty(format!("r{}", label_idx % 4));
    ls.snapshot.phases[Phase::Stepping as usize] = stats_from(durations);
    ls.snapshot.counters[Counter::LanczosIterations as usize] = count;
    ls
}

/// Canonical form: sort by label (merge order only affects label order).
fn canon(mut v: Vec<LabeledSnapshot>) -> Vec<LabeledSnapshot> {
    v.sort_by(|a, b| a.label.cmp(&b.label));
    v
}

proptest! {
    #[test]
    fn merge_is_commutative(xs in prop::collection::vec(any::<u64>(), 0..64),
                            ys in prop::collection::vec(any::<u64>(), 0..64)) {
        // Avoid count/total overflow: cap durations.
        let xs: Vec<u64> = xs.iter().map(|d| d % (1 << 40)).collect();
        let ys: Vec<u64> = ys.iter().map(|d| d % (1 << 40)).collect();
        let (a, b) = (stats_from(&xs), stats_from(&ys));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(xs in prop::collection::vec(any::<u64>(), 0..48),
                            ys in prop::collection::vec(any::<u64>(), 0..48),
                            zs in prop::collection::vec(any::<u64>(), 0..48)) {
        let f = |v: &[u64]| stats_from(&v.iter().map(|d| d % (1 << 40)).collect::<Vec<_>>());
        let (a, b, c) = (f(&xs), f(&ys), f(&zs));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn any_partition_merges_to_the_sequential_result(
        durations in prop::collection::vec(0u64..(1 << 40), 1..128),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let sequential = stats_from(&durations);

        let mut boundaries: Vec<usize> = cuts.iter().map(|i| i % (durations.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(durations.len());
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut merged = PhaseStats::empty();
        for w in boundaries.windows(2) {
            merged.merge(&stats_from(&durations[w[0]..w[1]]));
        }
        prop_assert_eq!(sequential, merged);
    }

    #[test]
    fn labeled_merge_is_associative(
        groups in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(0u64..(1 << 40), 0..8), any::<u32>()),
            0..12,
        ),
        cut in any::<usize>(),
    ) {
        let all: Vec<LabeledSnapshot> =
            groups.iter().map(|(l, d, c)| labeled_from(*l, d, u64::from(*c))).collect();
        // Left fold one at a time...
        let mut one_by_one: Vec<LabeledSnapshot> = Vec::new();
        for ls in &all {
            merge_labeled(&mut one_by_one, std::slice::from_ref(ls));
        }
        // ...must equal merging two arbitrary halves that were themselves
        // label-merged.
        let k = if all.is_empty() { 0 } else { cut % (all.len() + 1) };
        let mut left: Vec<LabeledSnapshot> = Vec::new();
        merge_labeled(&mut left, &all[..k]);
        let mut right: Vec<LabeledSnapshot> = Vec::new();
        merge_labeled(&mut right, &all[k..]);
        let mut grouped = left;
        merge_labeled(&mut grouped, &right);
        prop_assert_eq!(canon(one_by_one), canon(grouped));
    }

    #[test]
    fn labeled_merge_keeps_labels_disjoint(
        groups in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(0u64..(1 << 40), 0..8), any::<u32>()),
            0..12,
        ),
    ) {
        let all: Vec<LabeledSnapshot> =
            groups.iter().map(|(l, d, c)| labeled_from(*l, d, u64::from(*c))).collect();
        let mut merged: Vec<LabeledSnapshot> = Vec::new();
        merge_labeled(&mut merged, &all);
        // One entry per distinct label, and per-label totals are the exact
        // sums of that label's inputs.
        let mut labels: Vec<&str> = merged.iter().map(|m| m.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        prop_assert_eq!(labels.len(), merged.len());
        for m in &merged {
            let want: u64 = all
                .iter()
                .filter(|ls| ls.label == m.label)
                .map(|ls| ls.snapshot.phase(Phase::Stepping).count)
                .sum();
            prop_assert_eq!(m.snapshot.phase(Phase::Stepping).count, want);
        }
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_gauges(a in any::<u32>(), b in any::<u32>()) {
        let mut x = Snapshot::empty();
        let mut y = Snapshot::empty();
        x.counters[Counter::LanczosIterations as usize] = u64::from(a);
        y.counters[Counter::LanczosIterations as usize] = u64::from(b);
        x.counters[Counter::PmeScratchBytes as usize] = u64::from(a);
        y.counters[Counter::PmeScratchBytes as usize] = u64::from(b);
        x.merge(&y);
        prop_assert_eq!(x.counter(Counter::LanczosIterations), u64::from(a) + u64::from(b));
        prop_assert_eq!(x.counter(Counter::PmeScratchBytes), u64::from(a).max(u64::from(b)));
    }
}

/// Order-independence with the real recorder: threads record interleaved
/// spans; the global snapshot must equal the deterministic per-thread sum.
#[test]
fn threaded_recording_is_order_independent() {
    const THREADS: usize = 4;
    const SPANS_PER_THREAD: usize = 200;

    // The recorder is process-global: hold the cross-test mutex while this
    // test resets/enables it.
    let _guard = hibd_alloctrack::exclusive();
    hibd_telemetry::reset();
    hibd_telemetry::enable();
    // Each thread also stops into its own local sink; merged, the sinks
    // must hold exactly what the recorder holds (one clock, two views).
    let mut local = Snapshot::empty();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut sink = Snapshot::empty();
                    for i in 0..SPANS_PER_THREAD {
                        let phase = Phase::ALL[(t + i) % NUM_PHASES];
                        let sw = hibd_telemetry::start(phase);
                        std::hint::black_box(i * t);
                        sw.stop(&mut sink);
                        hibd_telemetry::incr(Counter::LanczosIterations, 1);
                    }
                    sink
                })
            })
            .collect();
        for h in handles {
            local.merge(&h.join().expect("recording thread"));
        }
    });
    let snap = hibd_telemetry::snapshot();
    hibd_telemetry::disable();
    assert_eq!(snap.phases, local.phases, "local sinks and the recorder disagree");

    let mut expected = [0u64; NUM_PHASES];
    for t in 0..THREADS {
        for i in 0..SPANS_PER_THREAD {
            expected[(t + i) % NUM_PHASES] += 1;
        }
    }
    for (p, want) in Phase::ALL.iter().zip(expected) {
        assert_eq!(snap.phase(*p).count, want, "span count for {}", p.name());
        let hist_total: u64 = snap.phase(*p).hist.iter().sum();
        assert_eq!(hist_total, want, "histogram mass for {}", p.name());
    }
    assert_eq!(snap.counter(Counter::LanczosIterations), (THREADS * SPANS_PER_THREAD) as u64);
}
