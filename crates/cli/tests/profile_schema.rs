//! End-to-end `--profile` schema check: run a small matrix-free simulation
//! with telemetry recording enabled, render the profile document, and
//! validate it the same way `xtask validate-profile` does — and the
//! validator's own negative cases for the `report` section.

use hibd_cli::config::SimSpec;
use hibd_cli::profile::{render_profile, validate_profile, SCHEMA};
use hibd_cli::runner::run_simulation;
use hibd_telemetry as telemetry;
use hibd_telemetry::json::Value;
use std::sync::Mutex;

/// The telemetry recorder is process-global; tests in this binary that
/// touch it serialize here.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn profile_of_a_quick_matrix_free_run_validates() {
    let _l = TELEMETRY_LOCK.lock().unwrap();
    telemetry::reset();
    telemetry::enable();
    let spec = SimSpec { particles: 25, steps: 3, report_interval: 0, ..Default::default() };
    let report = run_simulation(&spec, None, |_| {}).unwrap();
    let snap = telemetry::snapshot();
    telemetry::disable();

    let text = render_profile(&report, &snap);
    validate_profile(&text).unwrap();
    let v = telemetry::json::parse(&text).unwrap();
    assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));

    // The matrix-free run must surface every Section IV-D model phase.
    let phases = v.get("phases").expect("phases section");
    for ph in telemetry::MODEL_PHASES {
        let entry = phases.get(ph.name()).unwrap_or_else(|| panic!("missing phase {}", ph.name()));
        assert!(entry.get("count").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(
            entry.get("hist").and_then(Value::as_array).unwrap().len(),
            telemetry::NUM_BUCKETS
        );
    }

    // Shape comes from the tuner; the report covers 6 phases + recip_total.
    let shape = v.get("shape").expect("shape section");
    assert_eq!(shape.get("n").and_then(Value::as_f64), Some(25.0));
    let rows =
        v.get("report").and_then(|r| r.get("rows")).and_then(Value::as_array).expect("report rows");
    assert_eq!(rows.len(), 7);
    for row in rows {
        assert!(row.get("measured_s").and_then(Value::as_f64).unwrap() >= 0.0);
        assert!(row.get("predicted_s").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    // Workload counters recorded: FFTs in multiples of 3 transforms/column,
    // Lanczos made progress, and the PME scratch gauge is non-zero.
    assert!(snap.columns_applied() >= 1.0);
    assert_eq!(snap.counter(telemetry::Counter::ForwardFfts) % 3, 0);
    assert!(snap.counter(telemetry::Counter::LanczosIterations) >= 1);
    assert!(snap.counter(telemetry::Counter::PmeScratchBytes) > 0);
}

/// `validate_profile` checks the report it is handed, not only that `rows`
/// is an array.
#[test]
fn validation_checks_the_report_it_is_handed() {
    let doc = |report: &str| {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"run\":{{\"steps\":1,\"seconds\":1,\
             \"seconds_per_step\":1,\"krylov_iterations\":0}},\"phases\":{{}},\
             \"counters\":{{}},\"report\":{report}}}"
        )
    };
    let model = "\"model\":{\"bandwidth_bytes_per_s\":1e10,\"fft_flops_per_s\":1e9,\
                 \"ifft_flops_per_s\":1e9,\"fft_sat_k3\":32768}";
    let rows = |names: &[&str], measured: &str| {
        let cells: Vec<String> = names
            .iter()
            .map(|n| {
                format!("{{\"phase\":\"{n}\",\"measured_s\":{measured},\"predicted_s\":1e-3}}")
            })
            .collect();
        format!("\"rows\":[{}]", cells.join(","))
    };
    let good = [
        "spreading",
        "forward_fft",
        "influence",
        "inverse_fft",
        "interpolation",
        "real_space",
        "recip_total",
    ];
    validate_profile(&doc("null")).unwrap();
    validate_profile(&doc(&format!("{{{model},{}}}", rows(&good, "2e-3")))).unwrap();
    // v1's keys under the v2 tag, and a zero rate.
    let v1_model = "\"model\":{\"bandwidth_bytes_per_s\":1e10,\"fft_flops_per_s\":1e9,\
                    \"ifft_flops_per_s\":1e9,\"real_cols_n_per_s\":1e6}";
    let zero_model = model.replace("1e10", "0");
    let rejected = [
        ("{}".to_string(), "missing `model`"),
        (format!("{{\"model\":{{}},{}}}", rows(&good, "2e-3")), "missing `bandwidth_bytes_per_s`"),
        (format!("{{{v1_model},{}}}", rows(&good, "2e-3")), "missing `fft_sat_k3`"),
        (format!("{{{zero_model},{}}}", rows(&good, "2e-3")), "bandwidth_bytes_per_s = 0"),
        (format!("{{{model}}}"), "not an array"),
        (format!("{{{model},\"rows\":{{}}}}"), "not an array"),
        (format!("{{{model},{}}}", rows(&good[..6], "2e-3")), "6 rows"),
        (format!("{{{model},{}}}", rows(&good, "-1")), "measured_s"),
        (format!("{{{model},{}}}", rows(&good, "1e999")), "measured_s"),
        (format!("{{{model},{}}}", rows(&good, "\"x\"")), "not a number"),
    ];
    for (report, why) in rejected {
        let err = validate_profile(&doc(&report)).expect_err(&report);
        assert!(err.contains(why), "{report}: {err}");
    }
    let mut swapped = good;
    swapped.swap(1, 3);
    let err =
        validate_profile(&doc(&format!("{{{model},{}}}", rows(&swapped, "2e-3")))).unwrap_err();
    assert!(err.contains("forward_fft"), "{err}");
}
