//! `bench_ladder` — the repository's benchmark.
//!
//! ```text
//! bench_ladder --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! bench_ladder set --out FILE [--seed N] [--seconds S]         all four workloads, timed and traced
//! bench_ladder trace --workload W [--seed N] [--trace-out F]   the traced run of one workload
//! bench_ladder diff OLD.json NEW.json                          verdicts from the benchmark's bounds
//! bench_ladder validate FILE.json                              check a hibd-bench-v1 document
//! bench_ladder manifest [RUN_SECONDS]                          print BENCHMARK.json from the catalogue
//! ```
//!
//! End-to-end runs drive the release `hibd` binary from outside (config
//! files in, wall clock and output files out); the traced run calls the
//! layers' public functions from this crate's own code. Add `--smoke` for
//! tiny shapes (self-test only; `diff` rejects such documents).

mod checks;
mod child;
mod diff;
mod e2e;
mod host;
mod json;
mod schema;
mod spans;
mod stats;
mod trace;
mod workloads;

use e2e::Ctx;
use json::Value;
use schema::WorkloadResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Constants, SERVE_SPOOL, WORKLOADS};

const DEFAULT_SEED: u64 = 2014;
/// `run_seconds` of `BENCHMARK.json`: the timed-measurement budget of one run.
const DEFAULT_SECONDS: f64 = 20.0;
/// Scratch space inside the checkout (git-ignored).
const WORK_ROOT: &str = ".bench_work";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut args = Args { positional: Vec::new(), flags: Vec::new(), smoke: false };
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                args.flags.push((name.to_string(), value));
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("cannot parse `{v}` for --{name}")),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_ladder --workload <{}> --seed N --seconds S --trace <0|1> [--smoke] [--out FILE] \
         [--trace-out FILE] [--hibd PATH]\n       bench_ladder set --out FILE [--seed N] [--seconds S] [--smoke]\n       \
         bench_ladder trace --workload W [--seed N] [--trace-out FILE]\n       bench_ladder diff OLD NEW | validate FILE | manifest [RUN_SECONDS]",
        WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

/// The `hibd` binary: `--hibd`, else the one built beside this executable.
fn locate_hibd(args: &Args) -> Result<PathBuf, String> {
    let path = match args.flag("hibd") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .parent()
            .ok_or("executable has no parent directory")?
            .join("hibd"),
    };
    // Children run in their own directories, so the path must not be relative.
    let path = std::fs::canonicalize(&path).map_err(|e| {
        format!("hibd binary not found at {}: {e} (build it with the same profile)", path.display())
    })?;
    Ok(path)
}

fn context(args: &Args, label: &str) -> Result<Ctx, String> {
    let constants = if args.smoke { Constants::smoke() } else { Constants::frozen() };
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(WORK_ROOT)
        .join(format!("{label}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    Ok(Ctx {
        hibd: locate_hibd(args)?,
        work,
        host: host::Host::detect(),
        constants,
        seed: args.number("seed", DEFAULT_SEED)?,
    })
}

fn measure(
    ctx: &Ctx,
    workload: &str,
    traced: bool,
    seconds: f64,
    trace_out: &Path,
) -> std::io::Result<WorkloadResult> {
    if traced {
        trace::trace_workload(ctx, workload, trace_out)
    } else if workload == SERVE_SPOOL {
        e2e::serve_workload(ctx, seconds)
    } else {
        let shape = *ctx.constants.run_shape(workload).expect("validated workload name");
        e2e::run_workload(ctx, workload, &shape, seconds)
    }
}

/// Every metric by name with its unit, then the checks.
fn print_summary(workload: &str, r: &WorkloadResult) {
    eprintln!("== {workload}: {} attempted, {} failed", r.attempted(), r.failed());
    for (name, m) in r.end_to_end.iter().chain(&r.per_layer) {
        let range = m.range.map_or(String::new(), |(lo, hi)| format!("  [{lo:.6}, {hi:.6}]"));
        let tag = if m.computed { "  (computed)" } else { "" };
        if m.value.abs() < 1e-3 {
            eprintln!("  {name:<44} {:>16.6e} {:<8} n={}{range}{tag}", m.value, m.unit, m.n);
        } else {
            eprintln!("  {name:<44} {:>16.6} {:<8} n={}{range}{tag}", m.value, m.unit, m.n);
        }
    }
    for c in &r.checks {
        if !c.ok || r.checks.len() <= 16 {
            eprintln!(
                "  check {:<28} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }
}

/// The driver's result line.
fn result_line(r: &WorkloadResult, traced: bool) -> String {
    let metrics = if traced { &r.per_layer } else { &r.end_to_end };
    Value::obj([
        ("correct", r.correct().into()),
        ("attempted", r.attempted().into()),
        ("failed", r.failed().into()),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(k, m)| {
                (
                    k.clone(),
                    Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                )
            })),
        ),
    ])
    .to_compact()
}

fn write_doc(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, timed or traced: the form the driver calls.
fn cmd_run(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let workload = args.flag("workload").ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    let ctx = context(args, &format!("{workload}-t{}", u8::from(traced)))?;
    let default_name = |kind: &str| {
        PathBuf::from(WORK_ROOT).join(format!("{kind}_{workload}_trace{}.json", u8::from(traced)))
    };
    let trace_out = args.flag("trace-out").map_or_else(|| default_name("SPANS"), PathBuf::from);
    let outcome = measure(&ctx, workload, traced, seconds, &trace_out);
    std::fs::remove_dir_all(&ctx.work).ok();
    let r = outcome.map_err(|e| format!("{workload}: {e}"))?;
    print_summary(workload, &r);
    let doc = schema::document(&ctx.host, ctx.seed, &ctx.constants, &[(workload, &r)]);
    write_doc(&args.flag("out").map_or_else(|| default_name("BENCH"), PathBuf::from), &doc)?;
    println!("{}", result_line(&r, traced));
    Ok(if r.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// All four workloads, timed then traced, in one document.
fn cmd_set(args: &Args) -> Result<ExitCode, String> {
    let out = PathBuf::from(args.flag("out").ok_or("set needs --out FILE")?);
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    let ctx = context(args, "set")?;
    let measured = (|| {
        let mut results = Vec::new();
        for (workload, _) in WORKLOADS {
            let spans = out.with_extension(format!("spans.{workload}.json"));
            let mut r = measure(&ctx, workload, false, seconds, &spans)
                .map_err(|e| format!("{workload}: {e}"))?;
            r.absorb(
                measure(&ctx, workload, true, seconds, &spans)
                    .map_err(|e| format!("{workload}: {e}"))?,
            );
            print_summary(workload, &r);
            results.push((workload, r));
        }
        Ok::<_, String>(results)
    })();
    std::fs::remove_dir_all(&ctx.work).ok();
    let results = measured?;
    let refs: Vec<(&str, &WorkloadResult)> = results.iter().map(|(w, r)| (*w, r)).collect();
    let doc = schema::document(&ctx.host, ctx.seed, &ctx.constants, &refs);
    write_doc(&out, &doc)?;
    let problems = schema::validate(&doc);
    if !problems.is_empty() {
        return Err(format!("the document just written is invalid: {}", problems.join("; ")));
    }
    let correct = results.iter().all(|(_, r)| r.correct());
    eprintln!(
        "wrote {} ({})",
        out.display(),
        if correct { "every check passed" } else { "CHECKS FAILED" }
    );
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let [_, old, new] = args.positional.as_slice() else { return Ok(usage()) };
    let (old, new) = (read_doc(old)?, read_doc(new)?);
    if let Some(why) = diff::refusal(&old, &new) {
        eprintln!("refusing to compare: {why}");
        return Ok(ExitCode::from(2));
    }
    let report = diff::compare(&old, &new);
    print!("{}", report.text);
    if report.unresolved > 0 {
        eprintln!(
            "{} pairing(s) unresolved: run-to-run spread exceeds the bound",
            report.unresolved
        );
    }
    Ok(if report.worse > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn cmd_validate(args: &Args) -> Result<ExitCode, String> {
    let [_, file] = args.positional.as_slice() else { return Ok(usage()) };
    let problems = schema::validate(&read_doc(file)?);
    for p in &problems {
        eprintln!("{file}: {p}");
    }
    if problems.is_empty() {
        println!("{file}: valid {}", schema::SCHEMA);
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None => match args.flag("trace") {
            Some("0") | None => cmd_run(&args, false),
            Some("1") => cmd_run(&args, true),
            Some(other) => Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        Some("trace") => cmd_run(&args, true),
        Some("set") => cmd_set(&args),
        Some("diff") => cmd_diff(&args),
        Some("validate") => cmd_validate(&args),
        Some("manifest") => {
            let seconds = args
                .positional
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(DEFAULT_SECONDS as usize);
            print!("{}", schema::manifest(seconds).to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => Ok(usage()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}
