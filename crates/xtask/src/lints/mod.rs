//! The lint registry and the suppression grammar.
//!
//! Every lint is a pure function over a parsed [`SourceFile`]; the registry
//! ([`LINTS`]) is the single list the audit driver, the `--json` output,
//! and the suppression validator all read. Adding a lint means adding a
//! module, one [`Lint`] entry, and a positive + negative fixture under
//! `crates/xtask/fixtures/`.
//!
//! # Suppressions
//!
//! A finding can be silenced only by a *justified* allow comment on the
//! flagged line or the line directly above it:
//!
//! ```text
//! // audit:allow(<lint-name>): <non-empty reason>
//! ```
//!
//! An allow naming an unknown lint, or missing the reason, is itself a
//! violation (`audit-allow`) — the grammar makes "why is this exempt?"
//! reviewable instead of tribal.

pub mod env_mutation;
pub mod fma;
pub mod global_state;
pub mod hot;
pub mod iteration;
pub mod pure_tuner;
pub mod simd_dispatch;
pub mod source;
pub mod unsafety;

use source::SourceFile;
use std::fmt;

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub lint: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.msg)
    }
}

/// A registered lint: a stable name (the `audit:allow` key), a one-line
/// description, and the pass itself.
pub struct Lint {
    pub name: &'static str,
    pub desc: &'static str,
    pub run: fn(&SourceFile, &mut Vec<Violation>),
}

/// The ten workspace lints, in reporting order.
pub const LINTS: &[Lint] = &[
    Lint {
        name: "hot-alloc",
        desc: "#[hibd::hot] bodies must not contain heap-allocating constructs",
        run: hot::run_alloc,
    },
    Lint {
        name: "hot-timing",
        desc: "#[hibd::hot] bodies must use hibd_telemetry stopwatches, not raw clocks",
        run: hot::run_timing,
    },
    Lint {
        name: "safety-comment",
        desc: "unsafe blocks/impls/traits need a preceding // SAFETY: comment",
        run: unsafety::run_comment,
    },
    Lint {
        name: "safety-doc",
        desc: "pub unsafe fn needs a `# Safety` rustdoc section",
        run: unsafety::run_doc,
    },
    Lint {
        name: "simd-dispatch",
        desc: "#[target_feature] kernels: unsafe, *_avx2-named, *_scalar twin in-file",
        run: simd_dispatch::run,
    },
    Lint {
        name: "fma-discipline",
        desc: "mul_add only inside *_avx2 kernels; scalar trees stay FMA-free",
        run: fma::run,
    },
    Lint {
        name: "nondeterministic-iteration",
        desc: "no HashMap/HashSet in non-test code of the deterministic crates",
        run: iteration::run,
    },
    Lint {
        name: "global-state-serialization",
        desc: "tests touching process-global toggles must hold a serialization lock",
        run: global_state::run,
    },
    Lint {
        name: "env-mutation",
        desc: "std::env::set_var/remove_var are process-global; forbidden",
        run: env_mutation::run,
    },
    Lint {
        name: "pure-tuner",
        desc: "pme/treecode tuners and pme::perf name no clock, env, fs, host or thread pool",
        run: pure_tuner::run,
    },
];

/// The marker every suppression comment carries.
const ALLOW_MARKER: &str = "audit:allow(";

/// Meta-lint name for malformed suppressions (not registered, so it cannot
/// itself be suppressed).
const ALLOW_LINT: &str = "audit-allow";

/// Parses the file's `audit:allow` comments. Returns the set of suppressed
/// `(lint, line)` pairs (an allow covers its own line and the next one, so
/// both trailing and line-above placement work) plus violations for
/// malformed allows. Only plain `//` comments count: an allow quoted in a
/// string literal or shown in a doc comment is not a suppression.
fn parse_allows(sf: &SourceFile) -> (Vec<(String, usize)>, Vec<Violation>) {
    let mut allowed = Vec::new();
    let mut bad = Vec::new();
    for (lineno, comment) in source::line_comments(&sf.src) {
        let Some(open) = comment.find(ALLOW_MARKER) else { continue };
        let rest = &comment[open + ALLOW_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            bad.push(Violation {
                file: sf.path.clone(),
                line: lineno,
                lint: ALLOW_LINT,
                msg: "malformed audit:allow — missing closing `)`".to_string(),
            });
            continue;
        };
        let name = rest[..close].trim();
        if !LINTS.iter().any(|l| l.name == name) {
            bad.push(Violation {
                file: sf.path.clone(),
                line: lineno,
                lint: ALLOW_LINT,
                msg: format!("audit:allow names unknown lint `{name}`"),
            });
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad.push(Violation {
                file: sf.path.clone(),
                line: lineno,
                lint: ALLOW_LINT,
                msg: format!(
                    "audit:allow({name}) requires a justification: \
                     `// audit:allow({name}): <reason>`"
                ),
            });
            continue;
        }
        allowed.push((name.to_string(), lineno));
        allowed.push((name.to_string(), lineno + 1));
    }
    (allowed, bad)
}

/// Runs every registered lint over one parsed file, applies suppressions,
/// and appends malformed-suppression findings.
pub fn run_all(sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for lint in LINTS {
        (lint.run)(sf, &mut out);
    }
    let (allowed, bad) = parse_allows(sf);
    out.retain(|v| !allowed.iter().any(|(l, line)| l == v.lint && *line == v.line));
    out.extend(bad);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = LINTS.iter().map(|l| l.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(before, 10);
    }

    #[test]
    fn justified_allow_suppresses_one_finding() {
        let src = "// audit:allow(env-mutation): fixture exercises the grammar\n\
                   fn f() { std::env::set_var(\"X\", \"1\"); }\n";
        let v = run_all(&SourceFile::parse("x.rs", src));
        assert!(v.is_empty(), "allow should suppress: {v:?}");
    }

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src =
            "fn f() { std::env::set_var(\"X\", \"1\"); } // audit:allow(env-mutation): test-only\n";
        let v = run_all(&SourceFile::parse("x.rs", src));
        assert!(v.is_empty(), "trailing allow should suppress: {v:?}");
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let src = "// audit:allow(env-mutation)\nfn f() { std::env::set_var(\"X\", \"1\"); }\n";
        let v = run_all(&SourceFile::parse("x.rs", src));
        assert!(v.iter().any(|x| x.lint == "audit-allow" && x.msg.contains("justification")));
        // The unjustified allow does NOT suppress the underlying finding.
        assert!(v.iter().any(|x| x.lint == "env-mutation"), "finding must survive: {v:?}");
    }

    #[test]
    fn allow_with_unknown_lint_is_flagged() {
        let src = "// audit:allow(no-such-lint): because\nfn f() {}\n";
        let v = run_all(&SourceFile::parse("x.rs", src));
        assert!(v.iter().any(|x| x.lint == "audit-allow" && x.msg.contains("no-such-lint")));
    }

    #[test]
    fn allow_does_not_leak_to_other_lines() {
        let src = "// audit:allow(env-mutation): only covers the next line\n\
                   fn ok() {}\n\
                   fn f() { std::env::set_var(\"X\", \"1\"); }\n";
        let v = run_all(&SourceFile::parse("x.rs", src));
        assert!(v.iter().any(|x| x.lint == "env-mutation"), "line 3 not covered: {v:?}");
    }
}
