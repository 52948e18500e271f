//! The audit must pass on the workspace itself — this is the same check CI
//! runs via `cargo run -p xtask -- audit`, kept in the test suite so a
//! plain `cargo test --workspace` catches regressions too.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

#[test]
fn workspace_audit_is_clean() {
    let root = workspace_root();
    let (nfiles, violations) = xtask::audit_workspace(&root).expect("walk workspace");
    assert!(nfiles > 100, "suspiciously few files scanned: {nfiles}");
    assert!(
        violations.is_empty(),
        "workspace audit found {} violations:\n{}",
        violations.len(),
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

/// `hibd-bench` holds the paper-only executors and ablation-only solvers
/// (`hybrid`, `compose`, `chebyshev`). Nothing that ships — the facade, the
/// CLI, the daemon, the ladder — may link it, or that code is back in the
/// product.
#[test]
fn no_crate_depends_on_hibd_bench() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 15, "suspiciously few manifests: {}", manifests.len());
    for manifest in manifests {
        if manifest.parent().is_some_and(|dir| dir.ends_with("crates/bench")) {
            continue;
        }
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let mut section = "";
        for line in text.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']').trim();
            }
            let listed = section == "dependencies.hibd-bench"
                || (section == "dependencies" && line.starts_with("hibd-bench"));
            assert!(!listed, "{} depends on hibd-bench: `{line}`", manifest.display());
        }
    }
}
