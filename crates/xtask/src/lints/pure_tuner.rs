//! **pure-tuner**: the shape tuners and the performance model read no clock,
//! host or file.
//!
//! `hibd_pme::tune` and `hibd_treecode::tune` decide the operator shape a
//! job runs on, and checkpoints store neither decision: a resume re-tunes,
//! the engine's `ShapeKey` is the tuned parameter bits, and replica ==
//! standalone / kill-and-restart == uninterrupted must hold across hosts
//! and thread counts. That only works while the tuners — and the Section
//! IV-D model `hibd_pme::perf` they price with — are pure functions of their
//! arguments. A `Machine` fitted from a run is fitted from the seconds in a
//! `Snapshot` it is *handed* (`perf::Fit`); the code that takes the
//! measurement lives with the harness that wants it.

use super::source::{find_word, line_of, SourceFile};
use super::Violation;

/// The files that must stay pure (non-test code only).
const PURE_FILES: &[&str] =
    &["crates/pme/src/tuner.rs", "crates/pme/src/perf.rs", "crates/treecode/src/tuner.rs"];

/// Names through which a clock, the environment, the file system or the
/// thread pool gets in.
const IMPURE: &[&str] =
    &["Instant", "SystemTime", "std::env", "std::fs", "available_parallelism", "rayon"];

pub fn run(sf: &SourceFile, out: &mut Vec<Violation>) {
    if !PURE_FILES.contains(&sf.path.as_str()) {
        return;
    }
    for name in IMPURE {
        for pos in find_word(&sf.cleaned, name) {
            if sf.in_cfg_test(pos) {
                continue;
            }
            out.push(Violation {
                file: sf.path.clone(),
                line: line_of(&sf.cleaned, pos),
                lint: "pure-tuner",
                msg: format!(
                    "`{name}` in a tuner / performance-model file: the shape must be a pure \
                     function of its arguments (resume re-tunes; ShapeKey is the tuned bits); \
                     measure in the caller and pass the numbers in"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::source::SourceFile;
    use super::{IMPURE, PURE_FILES};

    fn audit(path: &str, src: &str) -> Vec<super::Violation> {
        let mut out = Vec::new();
        super::run(&SourceFile::parse(path, src), &mut out);
        out
    }

    #[test]
    fn every_impure_name_is_rejected_in_every_pure_file() {
        let src = include_str!("../../fixtures/bad_pure_tuner.rs");
        for path in PURE_FILES {
            let v = audit(path, src);
            for name in IMPURE {
                assert!(
                    v.iter().any(|x| x.lint == "pure-tuner" && x.msg.contains(name)),
                    "{path}: `{name}` not flagged: {v:?}"
                );
            }
            // The `#[cfg(test)]` module of the fixture times freely.
            let test_mod = src.find("mod tests").unwrap();
            let first_test_line = src[..test_mod].lines().count();
            assert!(v.iter().all(|x| x.line < first_test_line), "{v:?}");
        }
    }

    #[test]
    fn a_fit_from_a_handed_snapshot_passes() {
        let src = include_str!("../../fixtures/good_pure_tuner.rs");
        for path in PURE_FILES {
            let v = audit(path, src);
            assert!(v.is_empty(), "{path}: unexpected violations: {v:?}");
        }
    }

    #[test]
    fn other_files_may_measure() {
        let src = include_str!("../../fixtures/bad_pure_tuner.rs");
        assert!(audit("crates/bench/src/lib.rs", src).is_empty());
        assert!(audit("crates/pme/src/operator.rs", src).is_empty());
        assert!(audit("crates/pme/tests/tuner.rs", src).is_empty());
    }
}
