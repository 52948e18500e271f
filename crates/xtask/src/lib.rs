//! Workspace audit lints (`cargo run -p xtask -- audit`).
//!
//! Ten machine-checked invariants, all lexical (the vendored dependency
//! set has no `syn`, so the scanner is a hand-rolled state machine over a
//! comment/string-blanked copy of each source file — see
//! [`lints::source`]). The lints live in [`lints`], one module each, behind
//! a registry ([`lints::LINTS`]):
//!
//! 1. **hot-alloc** — no heap-allocating constructs in `#[hibd::hot]`
//!    bodies (`Vec::resize` on long-lived scratch is the sanctioned idiom).
//! 2. **hot-timing** — no raw wall clocks in `#[hibd::hot]` bodies; time
//!    with the `hibd_telemetry` stopwatches.
//! 3. **safety-comment** — `// SAFETY:` before every unsafe
//!    block/impl/trait.
//! 4. **safety-doc** — a `# Safety` rustdoc section on every
//!    `pub unsafe fn`.
//! 5. **simd-dispatch** — `#[target_feature]` kernels are `unsafe fn`,
//!    named `*_avx2`, with a `*_scalar` twin in the same file.
//! 6. **fma-discipline** — `mul_add` only inside `*_avx2` kernels; the
//!    scalar expression trees that back every bitwise contract stay
//!    FMA-free.
//! 7. **nondeterministic-iteration** — no `HashMap`/`HashSet` in non-test
//!    code of the deterministic crates (fft/pme/rpy/treecode/engine/core).
//! 8. **global-state-serialization** — tests that toggle
//!    `hibd_simd::ScalarGuard`/`force_scalar` or the global telemetry
//!    recorder hold a serialization lock while they do.
//! 9. **env-mutation** — no `std::env::set_var`/`remove_var` outside the
//!    `hibd-simd` dispatch crate.
//! 10. **pure-tuner** — non-test code of `pme/src/{tuner,perf}.rs` and
//!     `treecode/src/tuner.rs` names no clock, environment, file system,
//!     host probe or thread pool: shapes are pure functions of the inputs.
//!
//! A finding can be suppressed only by a justified
//! `// audit:allow(<lint>): <reason>` comment on the flagged line or the
//! line above; a missing reason or an unknown lint name is itself a
//! violation. Positive/negative fixtures per lint live in
//! `crates/xtask/fixtures/`; the fixture tests run under plain
//! `cargo test`, and `tests/workspace_is_clean.rs` runs the full audit so
//! `cargo test --workspace` is a superset of the CI gate.

pub mod lints;

pub use lints::source::clean_source;
pub use lints::{Lint, Violation, LINTS};

use hibd_telemetry::json::escape;
use lints::source::SourceFile;
use std::path::{Path, PathBuf};

/// Runs every lint over one source file. `file` is used for reporting and
/// for the path-scoped lints (pass workspace-relative, `/`-separated
/// paths).
pub fn audit_source(file: &str, src: &str) -> Vec<Violation> {
    lints::run_all(&SourceFile::parse(file, src))
}

/// Collects every `.rs` file under `root`, skipping build output, VCS
/// internals, archived results, and the audit's own negative fixtures.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results", "vendor"];
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Audits the whole workspace rooted at `root`. Returns (files scanned,
/// violations).
pub fn audit_workspace(root: &Path) -> std::io::Result<(usize, Vec<Violation>)> {
    let files = collect_rs_files(root)?;
    let mut violations = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let display = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        violations.extend(audit_source(&display, &src));
    }
    Ok((files.len(), violations))
}

/// Renders the audit result as a `hibd-audit-v1` JSON document — the
/// machine-readable finding feed CI uploads and turns into annotations.
#[must_use]
pub fn render_json(nfiles: usize, violations: &[Violation]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"hibd-audit-v1\",\n");
    out.push_str(&format!("  \"files\": {nfiles},\n"));
    out.push_str(&format!("  \"lints\": [{}],\n", {
        let names: Vec<String> = LINTS.iter().map(|l| format!("\"{}\"", l.name)).collect();
        names.join(", ")
    }));
    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"msg\": \"{}\"}}",
            escape(&v.file),
            v.line,
            escape(v.lint),
            escape(&v.msg)
        ));
    }
    if violations.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaner_blanks_comments_and_strings_keeps_lines() {
        let src = "let a = \"unsafe { vec![] }\"; // vec! here\nlet b = 1; /* unsafe */\n";
        let c = clean_source(src);
        assert_eq!(c.lines().count(), src.lines().count());
        assert!(!c.contains("vec!"));
        assert!(!c.contains("unsafe"));
        assert!(c.contains("let a ="));
        assert!(c.contains("let b = 1;"));
    }

    #[test]
    fn cleaner_handles_lifetimes_char_literals_raw_strings() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '{'; let s = r#\"vec!{\"#; c }\n";
        let c = clean_source(src);
        assert!(c.contains("<'a>"));
        assert!(!c.contains("vec!"));
        // The blanked char literal must not unbalance brace matching.
        let opens = c.matches('{').count();
        let closes = c.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn hot_fn_with_vec_macro_is_rejected() {
        let src = include_str!("../fixtures/bad_hot_alloc.rs");
        let v = audit_source("bad_hot_alloc.rs", src);
        assert!(
            v.iter().any(|x| x.lint == "hot-alloc" && x.msg.contains("vec!")),
            "expected a hot-alloc violation, got {v:?}"
        );
        assert!(v.iter().any(|x| x.msg.contains(".collect")), "collect not flagged: {v:?}");
        assert!(v.iter().any(|x| x.msg.contains("Box::new")), "Box::new not flagged: {v:?}");
    }

    #[test]
    fn hot_fn_with_raw_clock_is_rejected() {
        let src = include_str!("../fixtures/bad_hot_timing.rs");
        let v = audit_source("bad_hot_timing.rs", src);
        assert!(
            v.iter().any(|x| x.lint == "hot-timing" && x.msg.contains("Instant::now")),
            "Instant::now not flagged: {v:?}"
        );
        assert!(v.iter().any(|x| x.msg.contains(".elapsed")), ".elapsed not flagged: {v:?}");
        assert!(
            v.iter().any(|x| x.msg.contains("SystemTime::now")),
            "SystemTime::now not flagged: {v:?}"
        );
    }

    #[test]
    fn telemetry_stopwatch_in_hot_fn_passes() {
        let src = "use hibd_hot as hibd;\n#[hibd::hot]\nfn f(x: &mut [f64], sink: &mut hibd_telemetry::Snapshot) {\n    let sw = hibd_telemetry::start(hibd_telemetry::Phase::Spreading);\n    x[0] += 1.0;\n    sw.stop(sink);\n}\n";
        let v = audit_source("inline.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn clean_hot_fn_passes() {
        let src = include_str!("../fixtures/good_hot.rs");
        let v = audit_source("good_hot.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn unsafe_without_safety_comment_is_rejected() {
        let src = include_str!("../fixtures/bad_unsafe.rs");
        let v = audit_source("bad_unsafe.rs", src);
        assert!(v.iter().any(|x| x.lint == "safety-comment"), "got {v:?}");
        assert!(v.iter().any(|x| x.lint == "safety-doc"), "got {v:?}");
    }

    #[test]
    fn documented_unsafe_passes() {
        let src = include_str!("../fixtures/good_unsafe.rs");
        let v = audit_source("good_unsafe.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn vec_in_comment_or_string_not_flagged() {
        let src = "use hibd_hot as hibd;\n#[hibd::hot]\nfn f(x: &mut [f64]) {\n    // vec! would be wrong here\n    let _s = \"vec![0.0; 3]\";\n    x[0] += 1.0;\n}\n";
        let v = audit_source("inline.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn simd_kernel_pair_passes() {
        let src = include_str!("../fixtures/good_simd.rs");
        let v = audit_source("good_simd.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn simd_dispatch_violations_are_rejected() {
        let src = include_str!("../fixtures/bad_simd.rs");
        let v = audit_source("bad_simd.rs", src);
        assert!(
            v.iter().any(|x| x.lint == "simd-dispatch" && x.msg.contains("must be `unsafe`")),
            "safe target_feature fn not flagged: {v:?}"
        );
        assert!(
            v.iter().any(|x| x.lint == "simd-dispatch"
                && x.msg.contains("`sum_fast`")
                && x.msg.contains("*_avx2")),
            "mis-named kernel not flagged: {v:?}"
        );
        assert!(
            v.iter().any(|x| x.lint == "simd-dispatch"
                && x.msg.contains("`dot_avx2`")
                && x.msg.contains("fn dot_scalar")),
            "missing scalar fallback not flagged: {v:?}"
        );
        let dispatch = v.iter().filter(|x| x.lint == "simd-dispatch").count();
        assert_eq!(dispatch, 3, "exactly the three seeded violations expected: {v:?}");
    }

    #[test]
    fn cfg_target_feature_mention_is_not_a_kernel() {
        // Only the attribute form defines a kernel; a cfg predicate or a
        // string mention must not trip the lint.
        let src = "#[cfg(all(target_arch = \"x86_64\", target_feature = \"avx2\"))]\nfn f() {}\n";
        let v = audit_source("inline.rs", src);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn resize_is_allowed_in_hot_fn() {
        let src =
            "#[hibd::hot]\nfn f(buf: &mut Vec<f64>, n: usize) {\n    buf.resize(n, 0.0);\n}\n";
        assert!(audit_source("inline.rs", src).is_empty());
    }

    #[test]
    fn suppressed_fixture_is_clean_and_unjustified_fixture_is_not() {
        let good = include_str!("../fixtures/good_allow.rs");
        let v = audit_source("good_allow.rs", good);
        assert!(v.is_empty(), "justified allows must suppress: {v:?}");

        let bad = include_str!("../fixtures/bad_allow.rs");
        let v = audit_source("bad_allow.rs", bad);
        assert!(v.iter().any(|x| x.lint == "audit-allow"), "missing-reason allow: {v:?}");
        assert!(
            v.iter().any(|x| x.lint == "env-mutation"),
            "unjustified allow must not suppress: {v:?}"
        );
    }

    #[test]
    fn json_rendering_is_wellformed_and_escaped() {
        let v = vec![Violation {
            file: "a\\b.rs".to_string(),
            line: 3,
            lint: "hot-alloc",
            msg: "say \"no\"\nplease".to_string(),
        }];
        let doc = render_json(7, &v);
        assert!(doc.contains("\"schema\": \"hibd-audit-v1\""));
        assert!(doc.contains("\"files\": 7"));
        assert!(doc.contains("a\\\\b.rs"));
        assert!(doc.contains("say \\\"no\\\"\\nplease"));
        let empty = render_json(2, &[]);
        assert!(empty.contains("\"violations\": []"));
        // Every registered lint is advertised in the schema.
        for lint in LINTS {
            assert!(empty.contains(lint.name), "missing {} in doc", lint.name);
        }
    }
}
