//! `hibd` — the command-line Brownian dynamics runner.
//!
//! ```text
//! hibd run <config> [--profile p.json]     run a simulation from a config file
//! hibd ensemble <config> [--profile p.json]  lockstep multi-replica run
//! hibd resume <config> <ckpt> [--profile p.json]  continue from a checkpoint
//! hibd serve <config>               spool-directory batch daemon
//! hibd serve example-config         print an annotated daemon config
//! hibd check <config>               parse + validate a config
//! hibd analyze <traj.xyz> [dt]      diffusion + g(r) from a trajectory
//! hibd example-config               print an annotated example config
//! ```
//!
//! `--profile PATH` enables telemetry recording for the run and writes a
//! `hibd-profile-v2` JSON document (phase spans, workload counters, and the
//! calibrated measured-vs-predicted performance report) to PATH.
//!
//! `run`, `ensemble`, and `serve` install a SIGINT/SIGTERM handler: Ctrl-C
//! finishes the in-flight step, writes a final checkpoint (for `serve`,
//! drains every live job to a committed window boundary), and exits 0.

use hibd_cli::analyze::{analyze_trajectory, render};
use hibd_cli::config::SimSpec;
use hibd_cli::profile;
use hibd_cli::runner::{run_ensemble, run_simulation};
use std::path::Path;
use std::process::ExitCode;

const EXAMPLE: &str = r#"# hibd example configuration
# system
particles       = 500
volume_fraction = 0.2
radius          = 1.0
viscosity       = 1.0
seed            = 2014
#replicas       = 8          # hibd ensemble: lockstep replicas, seeds seed+r
boundary        = periodic   # or: open (free-space RPY: direct sum, treecode or FMM,
                             # chosen by modelled cost from particles and e_p)
#theta          = 0.4        # open only: pin a hierarchy at this MAC parameter

# integrator (Algorithm 2 of Liu & Chow, IPDPS 2014)
algorithm    = matrix-free    # or: dense
displacement = block-krylov   # or: split-ewald
dt          = 0.01
kbt         = 1.0
lambda_rpy  = 16             # mobility reuse interval
e_k         = 1e-2           # Krylov tolerance
e_p         = 1e-3           # PME accuracy target
steps       = 1000

# forces
repulsion  = on              # contact repulsion, k = 125
#gravity   = 0 0 -0.5
#lj_epsilon = 1.0

# output
trajectory          = trajectory.xyz
trajectory_interval = 50
report_interval     = 100
checkpoint          = state.hibd
checkpoint_interval = 500
"#;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hibd <run CONFIG | ensemble CONFIG | resume CONFIG CHECKPOINT | \
         serve CONFIG | check CONFIG | analyze TRAJECTORY [FRAME_DT] | \
         example-config> [--profile PATH]"
    );
    ExitCode::from(2)
}

/// Extract `--profile PATH` from the argument list (removing both tokens).
/// Returns `Err(())` when the flag is present without a path.
fn take_profile_flag(args: &mut Vec<String>) -> Result<Option<String>, ()> {
    match args.iter().position(|a| a == "--profile") {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(());
            }
            let path = args.remove(i + 1);
            args.remove(i);
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

fn load_spec(path: &str) -> Result<SimSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    SimSpec::parse(&text).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Ok(profile_path) = take_profile_flag(&mut args) else { return usage() };
    match args.first().map(String::as_str) {
        Some("example-config") => {
            print!("{EXAMPLE}");
            ExitCode::SUCCESS
        }
        Some("check") => {
            let Some(path) = args.get(1) else { return usage() };
            match load_spec(path) {
                Ok(spec) => {
                    println!("config ok: {spec:#?}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("analyze") => {
            let Some(path) = args.get(1) else { return usage() };
            let frame_dt: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1.0);
            let file = match std::fs::File::open(path) {
                Ok(f) => std::io::BufReader::new(f),
                Err(e) => {
                    eprintln!("error: cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match analyze_trajectory(file, frame_dt) {
                Ok(a) => {
                    print!("{}", render(&a, frame_dt));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("serve") => {
            let Some(path) = args.get(1) else { return usage() };
            if path == "example-config" {
                print!("{}", hibd_serve::ServeSpec::example());
                return ExitCode::SUCCESS;
            }
            let spec = match std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))
                .and_then(|text| hibd_serve::ServeSpec::parse(&text).map_err(|e| e.to_string()))
            {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            hibd_serve::shutdown::install();
            match hibd_serve::serve(&spec, |m| println!("[hibd-serve] {m}")) {
                Ok(r) => {
                    println!(
                        "[hibd-serve] exit: {} done, {} failed, {} cancelled, {} parked{}",
                        r.done,
                        r.failed,
                        r.cancelled,
                        r.parked,
                        if r.interrupted { " (interrupted)" } else { "" }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(cmd @ ("run" | "resume" | "ensemble")) => {
            let Some(path) = args.get(1) else { return usage() };
            let resume = match (cmd, args.get(2)) {
                ("resume", Some(p)) => Some(Path::new(p.as_str())),
                ("resume", None) => return usage(),
                _ => None,
            };
            let spec = match load_spec(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            hibd_serve::shutdown::install();
            if profile_path.is_some() {
                hibd_telemetry::reset();
                hibd_telemetry::enable();
            }
            let log = |m: &str| println!("[hibd] {m}");
            let result = match cmd {
                "ensemble" => run_ensemble(&spec, log),
                _ => run_simulation(&spec, resume, log),
            };
            match result {
                Ok(report) => {
                    let (many, unit) = match report.replicas {
                        1 => (String::new(), "step"),
                        r => (format!("{r} replicas x "), "replica-step"),
                    };
                    println!(
                        "[hibd] {}: {many}{} steps in {:.2} s ({:.2} ms/{unit}, {} Krylov iterations)",
                        if report.interrupted { "interrupted" } else { "done" },
                        report.steps,
                        report.seconds,
                        report.seconds_per_step * 1e3,
                        report.krylov_iterations
                    );
                    if let Some(path) = &profile_path {
                        let snap = hibd_telemetry::snapshot();
                        hibd_telemetry::disable();
                        if let Err(e) =
                            profile::write_profile(Path::new(path.as_str()), &report, &snap)
                        {
                            eprintln!("error: cannot write profile {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("[hibd] profile written to {path}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
