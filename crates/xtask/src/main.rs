//! `cargo run -p xtask -- audit [--root <dir>] [--json <path>] [--github]`:
//! run the ten workspace audit lints. `--json` writes a `hibd-audit-v1`
//! findings document (written on success too, with an empty violation
//! list); `--github` prints GitHub Actions workflow commands so findings
//! render as inline PR annotations.
//!
//! `cargo run -p xtask -- validate-profile <path.json>`: check that a
//! `hibd --profile` output document matches the `hibd-profile-v2` schema.
//!
//! `cargo run -p xtask -- validate-status <status.json>`: check that a
//! `hibd serve` status document matches the `hibd-serve-v2` schema.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap()
        .to_path_buf()
}

/// Escapes a GitHub Actions workflow-command property value.
fn gha_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    match args.first().map(String::as_str) {
        Some("audit") => {
            let root = flag_value("--root").map_or_else(workspace_root, PathBuf::from);
            let json_path = flag_value("--json");
            let github = args.iter().any(|a| a == "--github");
            match xtask::audit_workspace(&root) {
                Ok((nfiles, violations)) => {
                    for v in &violations {
                        eprintln!("{v}");
                        if github {
                            println!(
                                "::error file={},line={},title=audit {}::{}",
                                v.file,
                                v.line,
                                v.lint,
                                gha_escape(&v.msg)
                            );
                        }
                    }
                    if let Some(path) = json_path {
                        let doc = xtask::render_json(nfiles, &violations);
                        if let Err(e) = std::fs::write(&path, doc) {
                            eprintln!("audit: cannot write {path}: {e}");
                            std::process::exit(2);
                        }
                        eprintln!("audit findings written to {path}");
                    }
                    if violations.is_empty() {
                        println!("audit OK: {nfiles} files, 0 violations");
                    } else {
                        eprintln!(
                            "audit FAILED: {} violations in {nfiles} files",
                            violations.len()
                        );
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("audit error: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("validate-profile") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: cargo run -p xtask -- validate-profile <path.json>");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("validate-profile: cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            match hibd_cli::profile::validate_profile(&text) {
                Ok(()) => println!("profile OK: {path}"),
                Err(e) => {
                    eprintln!("profile INVALID: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("validate-status") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: cargo run -p xtask -- validate-status <status.json>");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("validate-status: cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            match hibd_serve::validate_status(&text) {
                Ok(()) => println!("status OK: {path}"),
                Err(e) => {
                    eprintln!("status INVALID: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <audit [--root <workspace-dir>] \
                 [--json <out.json>] [--github] | validate-profile <path.json> | \
                 validate-status <status.json>>"
            );
            std::process::exit(2);
        }
    }
}
