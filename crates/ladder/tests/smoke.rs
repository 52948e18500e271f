//! End-to-end self-test of the benchmark harness on tiny shapes: all four
//! workloads timed and traced by `bench_ladder set --smoke`, the document
//! validated, the driver's one-line form checked, and `diff` refusing the
//! smoke document. Needs the `hibd` binary of the same profile, which the
//! test builds (a no-op when it is fresh).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCH: &str = env!("CARGO_BIN_EXE_bench_ladder");

/// Build `hibd` next to `bench_ladder` (same target directory and profile)
/// and return its path. A plain offline build is tried first; where no crate
/// registry is reachable the build goes through the stand-in crates, exactly
/// as `run.sh` does.
fn build_hibd() -> PathBuf {
    let profile_dir = Path::new(BENCH).parent().expect("bench_ladder lives in a profile directory");
    let target_dir = profile_dir.parent().expect("profile directory lives in the target directory");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let hibd = profile_dir.join("hibd");
    let mut errors = String::new();
    for shims in [false, true] {
        let mut cmd = Command::new(&cargo);
        cmd.current_dir(&root).args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "hibd-cli",
            "--bin",
            "hibd",
        ]);
        cmd.arg("--target-dir").arg(target_dir);
        if profile_dir.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        if shims {
            cmd.args(["--config", "crates/ladder/shims/config.toml"]);
        }
        // The first attempt fails by design where there is no registry;
        // its message is only worth showing if both fail.
        match cmd.output() {
            Ok(out) if out.status.success() && hibd.exists() => return hibd,
            Ok(out) => errors.push_str(&String::from_utf8_lossy(&out.stderr)),
            Err(e) => errors.push_str(&e.to_string()),
        }
    }
    panic!("could not build the hibd binary next to {BENCH}:\n{errors}");
}

fn bench(dir: &Path, hibd: &Path, args: &[&str]) -> Output {
    Command::new(BENCH)
        .current_dir(dir)
        .args(args)
        .arg("--hibd")
        .arg(hibd)
        .output()
        .expect("bench_ladder runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn smoke_set_runs_every_workload_check_and_trace_end_to_end() {
    let hibd = build_hibd();
    let dir = std::env::temp_dir().join(format!("hibd_ladder_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // One command: all four workloads, timed and traced, every metric printed.
    let set = bench(&dir, &hibd, &["set", "--smoke", "--seed", "3", "--out", "set.json"]);
    let log = text(&set.stderr);
    assert!(set.status.success(), "set failed:\n{log}");
    for name in ["periodic_run", "pse_run", "open_run", "serve_spool"] {
        assert!(log.contains(&format!("== {name}:")), "{name} missing from the summary:\n{log}");
    }
    for metric in [
        "steps_per_s",
        "jobs_per_hour",
        "setup_s",
        "peak_rss_mib",
        "fft.line_n126.ns",
        "pme.fft_share",
        "krylov.sqrt_identity_err",
        "core.open.step_refresh_ms_p50",
        "engine.ensemble_r4.speedup",
        "serve.speedup_vs_sequential",
        "trace.overhead_share",
    ] {
        assert!(log.contains(metric), "{metric} missing from the summary");
    }
    assert!(!log.contains("FAILED"), "{log}");
    let doc = std::fs::read_to_string(dir.join("set.json")).unwrap();
    assert!(doc.contains("\"schema\": \"hibd-bench-v1\"") && doc.contains("\"smoke\": true"));
    assert!(dir.join("set.spans.periodic_run.json").exists(), "span file missing");
    let spans = std::fs::read_to_string(dir.join("set.spans.periodic_run.json")).unwrap();
    for span in [
        "core.step.refresh",
        "core.step.steady",
        "krylov.apply_multi",
        "pme.spread",
        "core.xyz_frame",
    ] {
        assert!(spans.contains(span), "span `{span}` missing");
    }

    // The document validates; diff refuses it because it is a smoke run.
    let valid = bench(&dir, &hibd, &["validate", "set.json"]);
    assert!(valid.status.success(), "{}", text(&valid.stderr));
    let refused = bench(&dir, &hibd, &["diff", "set.json", "set.json"]);
    assert_eq!(refused.status.code(), Some(2), "{}", text(&refused.stderr));
    assert!(text(&refused.stderr).contains("smoke"));

    // The driver's form: last stdout line is the result object, exit 0.
    for (trace, expect) in [("0", "\"steps_per_s\""), ("1", "\"host.triad_gbs\"")] {
        let run = bench(
            &dir,
            &hibd,
            &[
                "--workload",
                "serve_spool",
                "--seed",
                "4",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
        );
        assert!(run.status.success(), "{}", text(&run.stderr));
        let stdout = text(&run.stdout);
        let last = stdout.trim_end().lines().last().unwrap_or("");
        assert!(last.starts_with("{\"attempted\":") && last.contains("\"correct\":true"), "{last}");
        assert!(
            last.contains("\"failed\":0")
                && last.contains("\"metrics\":{")
                && last.contains(expect),
            "{last}"
        );
    }

    // Broken input is a usage error, not a result.
    let bad = bench(&dir, &hibd, &["--workload", "nope", "--trace", "0", "--smoke"]);
    assert_eq!(bad.status.code(), Some(3));
    assert!(text(&bad.stdout).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
