//! **global-state-serialization**: a test that touches process-global
//! toggles must hold a serialization lock while it does.
//!
//! Two pieces of state are process-global by design: the `hibd_simd` scalar
//! override (`ScalarGuard`/`force_scalar`) and the `hibd_telemetry`
//! recorder (`enable`/`disable`/`reset`/`snapshot`/`trace`). Two tests in
//! one binary run on different threads; if one forces the scalar path while
//! the other asserts bitwise SIMD equivalence — or one resets the recorder
//! mid-snapshot — the failure is a nondeterministic CI flake that no local
//! rerun reproduces. The convention (previously comment-only, in
//! `crates/telemetry/src/lib.rs`) is machine-checked here: any function in
//! test code whose body touches one of the toggles must also acquire a
//! serialization guard in that same body — a `Mutex` `.lock()` or
//! `hibd_alloctrack::exclusive()` (itself a process-wide test mutex).
//! Helpers count: a tests-file helper that wraps the toggle and the lock
//! together (like `scalar_then_auto`) satisfies the lint, and its callers
//! don't trigger it.

use super::source::{find_word, line_of, next_token, SourceFile};
use super::Violation;

/// Global-telemetry entry points that mutate or read the process-global
/// recorder.
const TELEMETRY_CALLS: &[&str] = &["enable", "disable", "reset", "snapshot", "trace"];

/// Is the word at `pos` (already boundary-matched) a call — followed by
/// `(` after optional whitespace?
fn is_call(body: &str, pos: usize, word: &str) -> bool {
    matches!(next_token(body, pos + word.len()), Some(("(", _)))
}

/// Is the word at `pos` path-qualified as `telemetry::X` or
/// `hibd_telemetry::X`?
fn telemetry_qualified(body: &str, pos: usize) -> bool {
    let head = &body[..pos];
    let Some(prefix) = head.strip_suffix("::") else { return false };
    prefix.ends_with("telemetry") || prefix.ends_with("hibd_telemetry")
}

/// Is the word at `pos` a bare (unqualified, non-method) call? Used inside
/// the telemetry crate itself, where tests import the API directly.
fn bare_call(body: &str, pos: usize) -> bool {
    let head = body[..pos].trim_end();
    !head.ends_with('.') && !head.ends_with(':')
}

/// First global-state trigger in `body`, as (what, byte offset).
fn find_trigger(body: &str, in_telemetry_crate: bool) -> Option<(String, usize)> {
    let mut best: Option<(String, usize)> = None;
    let mut consider = |what: String, pos: usize| {
        if best.as_ref().is_none_or(|(_, b)| pos < *b) {
            best = Some((what, pos));
        }
    };
    for pos in find_word(body, "ScalarGuard") {
        consider("hibd_simd::ScalarGuard".to_string(), pos);
    }
    for pos in find_word(body, "force_scalar") {
        consider("hibd_simd::force_scalar".to_string(), pos);
    }
    for call in TELEMETRY_CALLS {
        for pos in find_word(body, call) {
            if !is_call(body, pos, call) {
                continue;
            }
            if telemetry_qualified(body, pos) || (in_telemetry_crate && bare_call(body, pos)) {
                consider(format!("hibd_telemetry::{call}"), pos);
            }
        }
    }
    best
}

/// Does `body` acquire a serialization guard? Accepted forms: any
/// `.lock(...)` call (shared `Mutex` convention) or `exclusive()` (the
/// alloctrack process-wide test mutex).
fn holds_serialization(body: &str) -> bool {
    if body.contains(".lock(") {
        return true;
    }
    find_word(body, "exclusive").iter().any(|&pos| is_call(body, pos, "exclusive"))
}

pub fn run(sf: &SourceFile, out: &mut Vec<Violation>) {
    let in_telemetry_crate = sf.path.starts_with("crates/telemetry/");
    for f in sf.fns() {
        let Some(body_range) = f.body.clone() else { continue };
        if !sf.is_test_code(body_range.start) {
            continue;
        }
        // Only the innermost fn owns its text: exclude nested fn bodies so
        // a trigger inside a nested helper isn't charged to the parent.
        let body = &sf.cleaned[body_range.clone()];
        let Some((what, rel)) = find_trigger(body, in_telemetry_crate) else { continue };
        if sf.enclosing_fn(body_range.start + rel).is_some_and(|inner| inner.fn_pos != f.fn_pos) {
            continue;
        }
        if holds_serialization(body) {
            continue;
        }
        out.push(Violation {
            file: sf.path.clone(),
            line: line_of(&sf.cleaned, body_range.start + rel),
            lint: "global-state-serialization",
            msg: format!(
                "test code touches process-global state ({what}) without \
                 serializing: hold a shared Mutex `.lock()` or \
                 hibd_alloctrack::exclusive() for the toggle's lifetime"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::source::SourceFile;

    fn audit(path: &str, src: &str) -> Vec<super::Violation> {
        let mut out = Vec::new();
        super::run(&SourceFile::parse(path, src), &mut out);
        out
    }

    #[test]
    fn unserialized_scalar_guard_test_is_rejected() {
        let src = include_str!("../../fixtures/bad_global_state.rs");
        let v = audit("crates/fft/tests/bad_global_state.rs", src);
        assert!(
            v.iter()
                .any(|x| x.lint == "global-state-serialization" && x.msg.contains("ScalarGuard")),
            "unserialized ScalarGuard not flagged: {v:?}"
        );
        // The lint reports the earliest trigger per fn; in the fixture the
        // telemetry test hits `reset()` first.
        assert!(
            v.iter().any(|x| x.msg.contains("hibd_telemetry::reset")),
            "unserialized telemetry use not flagged: {v:?}"
        );
    }

    #[test]
    fn locked_tests_pass() {
        let src = include_str!("../../fixtures/good_global_state.rs");
        let v = audit("crates/fft/tests/good_global_state.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn non_test_code_is_out_of_scope() {
        // Bench binaries and production drivers toggle freely (one thread,
        // whole-process intent).
        let src = "fn main() { let _g = hibd_simd::ScalarGuard::new(); }\n";
        assert!(audit("crates/bench/src/bin/fig5.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_module_in_src_is_in_scope() {
        let src = "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _g = super::ScalarGuard::new(); }\n}\n";
        let v = audit("crates/simd/src/lib.rs", src);
        assert_eq!(v.len(), 1, "got {v:?}");
    }

    #[test]
    fn bare_telemetry_calls_only_count_inside_the_telemetry_crate() {
        let src = "#[test]\nfn t() { enable(); }\n";
        assert!(audit("crates/cells/tests/x.rs", src).is_empty(), "bare call elsewhere");
        let v = audit("crates/telemetry/tests/x.rs", src);
        assert_eq!(v.len(), 1, "bare call in-crate must trigger: {v:?}");
    }

    #[test]
    fn qualified_snapshot_without_parens_is_not_a_call() {
        // Field access like `s.snapshot.phase(..)` must not trigger.
        let src = "#[test]\nfn t(s: &JobSnapshot) { assert!(s.snapshot.phase(0).count > 0); }\n";
        assert!(audit("crates/engine/tests/x.rs", src).is_empty());
    }

    #[test]
    fn exclusive_guard_counts_as_serialization() {
        let src = "#[test]\nfn t() {\n    let _guard = exclusive();\n    hibd_telemetry::reset();\n    hibd_telemetry::enable();\n}\n";
        assert!(audit("crates/telemetry/tests/alloc.rs", src).is_empty());
    }

    #[test]
    fn locking_helper_absolves_its_callers() {
        // The scalar_then_auto pattern: the helper locks and toggles; the
        // #[test] callers never mention the toggle.
        let src = "fn scalar_then_auto() {\n    let _l = LOCK.lock().unwrap();\n    let _g = hibd_simd::ScalarGuard::new();\n}\n#[test]\nfn t() { scalar_then_auto(); }\n";
        assert!(audit("crates/fft/tests/x.rs", src).is_empty());
    }
}
