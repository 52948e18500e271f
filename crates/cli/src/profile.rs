//! `--profile <path.json>` output: the run's telemetry snapshot and the
//! Section IV-D model's measured-vs-predicted report, serialized as a single
//! self-describing JSON document.
//!
//! Schema (`"schema": "hibd-profile-v2"`; v1's `report.model` carried a
//! self-fitted `real_cols_n_per_s` instead of `fft_sat_k3`):
//!
//! ```text
//! {
//!   "schema":   "hibd-profile-v2",
//!   "run":      { steps, seconds, seconds_per_step, krylov_iterations },
//!   "shape":    { n, mesh_dim, spline_order, lambda, box_l, r_max } | null,
//!   "phases":   { <phase>: { count, total_s, min_ns, max_ns, mean_ns,
//!                            hist: [u64; 32] }, ... },
//!   "counters": { <counter>: u64, ... },
//!   "jobs":     { <label>: { phases: {...}, counters: {...} }, ... },
//!   "report":   { model: { bandwidth_bytes_per_s, fft_flops_per_s,
//!                          ifft_flops_per_s, fft_sat_k3 },
//!                 rows: [ { phase, measured_s, predicted_s } x 7 ] } | null
//! }
//! ```
//!
//! The `jobs` section holds each replica's own phase account (`r0`, `r1`,
//! ... — the driver's `snapshot()`, so open-boundary jobs list the tree
//! phases) plus, for matrix-free runs, a `shared` entry carrying the
//! plan-cache hit/miss counters.
//!
//! Only phases with at least one recorded span are emitted. The `report`
//! object ([`hibd_pme::perf::Report::to_json`]) is present only for periodic
//! matrix-free runs, where the PME shape is known. Its machine is
//! `Machine::reference()` with bandwidth and FFT asymptotes re-fitted from
//! this run's own spans ([`hibd_pme::perf::Fit`]), so the two FFT rows fit
//! by construction while the three pooled bandwidth rows and the real-space
//! row (the same bandwidth on `real_space_blocks`) are falsifiable.

use crate::runner::RunReport;
use hibd_pme::perf::{real_space_blocks, Fit, Machine, PerfModel};
use hibd_telemetry::json::{expect_num, expect_obj, expect_schema, Value};
use hibd_telemetry::{self as telemetry, Snapshot};
use std::path::Path;

/// The schema tag emitted in (and required of) every profile document.
pub const SCHEMA: &str = "hibd-profile-v2";

/// Render the profile document for a finished run: the [`SCHEMA`]
/// document over the merged (process-global) snapshot, with the report's
/// per-job labeled snapshots in the `"jobs"` section.
#[must_use]
pub fn render_profile(report: &RunReport, snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"run\":{");
    out.push_str(&format!(
        "\"steps\":{},\"seconds\":{:e},\"seconds_per_step\":{:e},\"krylov_iterations\":{}}}",
        report.steps, report.seconds, report.seconds_per_step, report.krylov_iterations
    ));

    out.push_str(",\"shape\":");
    match &report.pme {
        Some(s) => out.push_str(&format!(
            "{{\"n\":{},\"mesh_dim\":{},\"spline_order\":{},\"lambda\":{},\
             \"box_l\":{:e},\"r_max\":{:e}}}",
            s.n, s.mesh_dim, s.spline_order, s.lambda, s.box_l, s.r_max
        )),
        None => out.push_str("null"),
    }

    out.push_str(",\"phases\":");
    out.push_str(&snap.phases_to_json());

    out.push_str(",\"counters\":");
    out.push_str(&snap.counters_to_json());

    if !report.jobs.is_empty() {
        out.push_str(",\"jobs\":{");
        for (i, j) in report.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"phases\":{},\"counters\":{}}}",
                j.label,
                j.snapshot.phases_to_json(),
                j.snapshot.counters_to_json()
            ));
        }
        out.push('}');
    }

    out.push_str(",\"report\":");
    match &report.pme {
        Some(s) => {
            let cols = snap.columns_applied();
            let (k, p) = (s.mesh_dim, s.spline_order);
            let fitted = Fit::new(Machine::reference()).spans(k, p, s.n, cols, snap).machine();
            let blocks = real_space_blocks(s.n, s.box_l, s.r_max);
            let rep = PerfModel::new(fitted, k, p, s.n).report(blocks, cols, snap);
            out.push_str(&rep.to_json());
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Render and write the profile to `path`.
pub fn write_profile(path: &Path, report: &RunReport, snap: &Snapshot) -> std::io::Result<()> {
    std::fs::write(path, render_profile(report, snap))
}

/// Validate a profile document: it must parse as JSON, carry the
/// [`SCHEMA`] tag, contain the `run`/`phases`/`counters` sections, and its
/// `report` (when not `null`) must be the seven-row table of
/// [`hibd_pme::perf::Report`]. Returns a description of the first problem
/// found.
pub fn validate_profile(text: &str) -> Result<(), String> {
    let v = telemetry::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    expect_schema(&v, SCHEMA)?;
    let run = expect_obj(&v, "run", "document")?;
    expect_obj(&v, "phases", "document")?;
    expect_obj(&v, "counters", "document")?;
    for key in ["steps", "seconds", "seconds_per_step", "krylov_iterations"] {
        expect_num(run, key, "run")?;
    }
    if v.get("jobs").is_some() {
        let Value::Obj(map) = expect_obj(&v, "jobs", "document")? else {
            unreachable!("expect_obj returned a non-object")
        };
        for (label, job) in map {
            expect_obj(job, "phases", &format!("jobs.{label}"))?;
            expect_obj(job, "counters", &format!("jobs.{label}"))?;
        }
    }
    match v.get("report") {
        None | Some(Value::Null) => Ok(()),
        Some(rep) => validate_report(rep),
    }
}

/// The `report` section: a `model` object carrying the four machine
/// constants (finite, positive), and the six model phases plus
/// `recip_total`, in order, each with finite non-negative measured and
/// predicted seconds.
fn validate_report(rep: &Value) -> Result<(), String> {
    let model = expect_obj(rep, "model", "report")?;
    for key in ["bandwidth_bytes_per_s", "fft_flops_per_s", "ifft_flops_per_s", "fft_sat_k3"] {
        let x = expect_num(model, key, "report.model")?;
        if !(x.is_finite() && x > 0.0) {
            return Err(format!("report.model.{key} = {x} is not finite and > 0"));
        }
    }
    let rows = rep.get("rows").and_then(Value::as_array).ok_or("report.rows is not an array")?;
    if rows.len() != 7 {
        return Err(format!("report.rows has {} rows, expected 7", rows.len()));
    }
    let names = telemetry::MODEL_PHASES.iter().map(|ph| ph.name()).chain(["recip_total"]);
    for (row, name) in rows.iter().zip(names) {
        if row.get("phase").and_then(Value::as_str) != Some(name) {
            return Err(format!("report.rows: expected a \"{name}\" row"));
        }
        for key in ["measured_s", "predicted_s"] {
            let x = expect_num(row, key, &format!("report.rows.{name}"))?;
            if !(x.is_finite() && x >= 0.0) {
                return Err(format!("report.rows.{name}.{key} = {x} is not finite and >= 0"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PmeShape;
    use hibd_telemetry::{Counter, LabeledSnapshot, Phase};

    fn fake_report(pme: Option<PmeShape>) -> RunReport {
        RunReport {
            replicas: 1,
            steps: 3,
            seconds: 0.6,
            seconds_per_step: 0.2,
            krylov_iterations: 9,
            pme,
            interrupted: false,
            jobs: Vec::new(),
        }
    }

    #[test]
    fn empty_snapshot_renders_valid_schema() {
        let text = render_profile(&fake_report(None), &Snapshot::empty());
        validate_profile(&text).unwrap();
        let v = telemetry::json::parse(&text).unwrap();
        assert!(matches!(v.get("shape"), Some(Value::Null)));
        assert!(matches!(v.get("report"), Some(Value::Null)));
    }

    #[test]
    fn matrix_free_shape_produces_report_rows() {
        let mut snap = Snapshot::empty();
        // Plant one span per model phase and a consistent FFT count.
        for ph in telemetry::MODEL_PHASES {
            snap.phases[ph as usize].record(1_000_000);
        }
        snap.counters[Counter::ForwardFfts as usize] = 3 * 12;
        let shape =
            PmeShape { n: 50, mesh_dim: 16, spline_order: 4, lambda: 4, box_l: 10.0, r_max: 4.0 };
        let text = render_profile(&fake_report(Some(shape)), &snap);
        validate_profile(&text).unwrap();
        let v = telemetry::json::parse(&text).unwrap();
        let rows = v.get("report").and_then(|r| r.get("rows")).and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 7);
        // Fitted from these very spans, the FFT rows read ratio 1; every
        // other row (real space: 12 columns, one apply) is priced.
        for (i, row) in rows.iter().enumerate() {
            let predicted = row.get("predicted_s").and_then(Value::as_f64).unwrap();
            assert!(predicted > 0.0);
            assert!((i != 1 && i != 3) || (predicted - 1e-3).abs() < 1e-12, "{row:?}");
        }
    }

    #[test]
    fn ensemble_profile_carries_a_jobs_section() {
        let mut job = Snapshot::empty();
        job.phases[Phase::Stepping as usize].record(2_000_000);
        job.counters[Counter::LanczosIterations as usize] = 5;
        let er = RunReport {
            replicas: 2,
            jobs: vec![
                LabeledSnapshot { label: "r0".into(), snapshot: job.clone() },
                LabeledSnapshot { label: "r1".into(), snapshot: job },
                LabeledSnapshot { label: "shared".into(), snapshot: Snapshot::empty() },
            ],
            ..fake_report(None)
        };
        let text = render_profile(&er, &Snapshot::empty());
        validate_profile(&text).unwrap();
        let v = telemetry::json::parse(&text).unwrap();
        let jobs = v.get("jobs").unwrap();
        let r0 = jobs.get("r0").unwrap();
        assert!(r0.get("phases").and_then(|p| p.get("stepping")).is_some());
        assert!(
            (r0.get("counters")
                .and_then(|c| c.get("lanczos_iterations"))
                .and_then(Value::as_f64)
                .unwrap()
                - 5.0)
                .abs()
                < 1e-12
        );
        assert!(jobs.get("shared").is_some());
        // A malformed jobs section is rejected.
        assert!(validate_profile(
            "{\"schema\":\"hibd-profile-v2\",\"run\":{\"steps\":1,\"seconds\":1,\
             \"seconds_per_step\":1,\"krylov_iterations\":0},\"phases\":{},\
             \"counters\":{},\"jobs\":[]}"
        )
        .is_err());
    }

    #[test]
    fn validation_rejects_wrong_schema_and_garbage() {
        assert!(validate_profile("not json").is_err());
        assert!(validate_profile("{\"schema\":\"other\"}").is_err());
        assert!(validate_profile("{\"schema\":\"hibd-profile-v1\"}").is_err());
        assert!(validate_profile("{\"schema\":\"hibd-profile-v2\"}").is_err());
    }
}
