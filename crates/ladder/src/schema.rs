//! The `hibd-bench-v1` document: the metric catalogue (names, units, bounds),
//! the one writer every mode uses, and the validator behind
//! `bench_ladder validate`.

use crate::host::Host;
use crate::json::Value;
use crate::workloads::{Constants, OPEN_RUN, PERIODIC_RUN, PSE_RUN, SERVE_SPOOL, WORKLOADS};

pub const SCHEMA: &str = "hibd-bench-v1";
/// Wrapper around several complete sets (`baseline/BENCH_seed.json`).
pub const BASELINE_SCHEMA: &str = "hibd-bench-v1-baseline";

/// An end-to-end metric: what a user of `hibd` sees. `bound` is the share of
/// the base median by which the metric may worsen before it is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports all four. `steps_per_s` counts every BD step the
/// child advanced (all jobs for `serve_spool`); `jobs_per_hour` counts
/// completed jobs (one per `hibd run`). `failed_share` is not listed: it is
/// zero on a healthy run, so it travels as `failed / attempted` instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "steps_per_s", unit: "steps/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "jobs_per_hour", unit: "jobs/h", better: "higher", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.05 },
];

/// A per-layer metric of the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The replayed run workloads and the short name their `core.*` metrics use.
pub const CORE_WORKLOADS: [(&str, &str); 3] =
    [(PERIODIC_RUN, "periodic"), (PSE_RUN, "pse"), (OPEN_RUN, "open")];

/// The per-layer catalogue, in ladder order (bottom rung first).
pub fn per_layer() -> Vec<Layer> {
    const LOWER: &str = "lower";
    const HIGHER: &str = "higher";
    let fixed: [(&str, &str, &str); 58] = [
        ("fft.line_n64.ns", "ns", LOWER),
        ("fft.line_n96.ns", "ns", LOWER),
        ("fft.line_n126.ns", "ns", LOWER),
        ("fft.line_n94_bluestein.ns", "ns", LOWER),
        ("fft.r2c_k64.ms", "ms", LOWER),
        ("fft.c2r_k64.ms", "ms", LOWER),
        ("fft.r2c_k128.ms", "ms", LOWER),
        ("fft.r2c_kref.ms", "ms", LOWER),
        ("fft.c2r_kref.ms", "ms", LOWER),
        ("fft.r2c_k64.gflops", "GF/s", HIGHER),
        ("fft.r2c_batch12_k64.ms_per_mesh", "ms/mesh", LOWER),
        ("fft.roundtrip_batch48_kref.ms_per_mesh", "ms/mesh", LOWER),
        ("pme.plans_build.ms", "ms", LOWER),
        ("pme.operator_build.ms", "ms", LOWER),
        ("pme.spread.ms", "ms", LOWER),
        ("pme.interp.ms", "ms", LOWER),
        ("pme.spread.gbs", "GB/s", HIGHER),
        ("pme.interp.gbs", "GB/s", HIGHER),
        ("pme.real_apply.ms", "ms", LOWER),
        ("pme.real_apply_s16.ms_per_col", "ms/col", LOWER),
        ("pme.apply_s1.ms", "ms", LOWER),
        ("pme.apply_s16.ms_per_col", "ms/col", LOWER),
        ("pme.fft_share", "ratio", LOWER),
        ("pme.model_ratio_spread", "ratio", LOWER),
        ("pme.model_ratio_fft", "ratio", LOWER),
        ("pme.model_ratio_interp", "ratio", LOWER),
        ("pme.rel_err_vs_dense", "ratio", LOWER),
        ("rpy.pairs_free.ns_per_pair", "ns/pair", LOWER),
        ("rpy.pairs_ewald_real.ns_per_pair", "ns/pair", LOWER),
        ("krylov.block_window_s16.ms", "ms", LOWER),
        ("krylov.block_window_s16.iterations", "count", LOWER),
        ("krylov.block_window_s16.self_share", "ratio", LOWER),
        ("krylov.sqrt_identity_err", "ratio", LOWER),
        ("pse.sampler_build.ms", "ms", LOWER),
        ("pse.rebuild.ms", "ms", LOWER),
        ("pse.sample_block_s16.ms", "ms", LOWER),
        ("pse.sample_block_s16.near_iterations", "count", LOWER),
        ("pse.sample_block_s16.mesh_transforms", "count", LOWER),
        ("treecode.build_n2000.ms", "ms", LOWER),
        ("treecode.apply_tree_n2000.ms", "ms", LOWER),
        ("treecode.apply_fmm_n2000.ms", "ms", LOWER),
        ("treecode.apply_tree_n8000.ms", "ms", LOWER),
        ("treecode.apply_fmm_n8000.ms", "ms", LOWER),
        ("treecode.fmm_state_mib_n8000", "MiB", LOWER),
        ("treecode.rel_err_vs_dense", "ratio", LOWER),
        ("core.checkpoint_save.ms", "ms", LOWER),
        ("core.xyz_frame.ms", "ms", LOWER),
        ("core.periodic.speedup_t2", "ratio", HIGHER),
        ("engine.ensemble_r4.replica_steps_per_s", "steps/s", HIGHER),
        ("engine.solo_x4.replica_steps_per_s", "steps/s", HIGHER),
        ("engine.ensemble_r4.speedup", "ratio", HIGHER),
        ("engine.ensemble_r4.mib", "MiB", LOWER),
        ("engine.plan_cache.misses", "count", LOWER),
        ("serve.sequential.jobs_per_hour", "jobs/h", HIGHER),
        ("serve.speedup_vs_sequential", "ratio", HIGHER),
        ("serve.first_job_done_s", "s", LOWER),
        ("serve.drain_tail_s", "s", LOWER),
        ("serve.output_mib", "MiB", LOWER),
    ];
    let mut out: Vec<Layer> = Vec::new();
    let mut push = |name: String, unit, better| out.push(Layer { name, unit, better });
    for (name, unit, better) in fixed {
        if name == "core.checkpoint_save.ms" {
            for (_, w) in CORE_WORKLOADS {
                push(format!("core.{w}.step_steady_ms_p50"), "ms", LOWER);
                push(format!("core.{w}.step_steady_ms_p80"), "ms", LOWER);
                push(format!("core.{w}.step_refresh_ms_p50"), "ms", LOWER);
                push(format!("core.{w}.window_share"), "ratio", LOWER);
                push(format!("core.{w}.forces_ms"), "ms", LOWER);
                push(format!("core.{w}.krylov_iterations"), "count", LOWER);
            }
        }
        push(name.to_string(), unit, better);
    }
    push("host.triad_gbs".to_string(), "GB/s", HIGHER);
    push("host.threads".to_string(), "count", HIGHER);
    push("trace.overhead_share".to_string(), "ratio", LOWER);
    out
}

/// One measured value: `n` is the number of samples it was derived from.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    /// Smallest and largest sample, when the value is a median of several.
    pub range: Option<(f64, f64)>,
    /// First and third quartile of the samples (two or more).
    pub quartiles: Option<(f64, f64)>,
    /// `true` for rates derived from `PerfModel` flop/byte formulas.
    pub computed: bool,
}

impl Metric {
    pub fn new(value: f64, unit: &'static str, n: usize) -> Metric {
        Metric { value, unit, n, range: None, quartiles: None, computed: false }
    }

    /// Median of `samples` with their range and count.
    pub fn median_of(samples: &[f64], unit: &'static str) -> Metric {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Metric {
            value: crate::stats::median(samples),
            unit,
            n: samples.len(),
            range: Some((min, max)),
            quartiles: crate::stats::quartiles(samples),
            computed: false,
        }
    }

    pub fn computed(mut self) -> Metric {
        self.computed = true;
        self
    }

    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(self.unit)),
            ("n", self.n.into()),
        ];
        if let Some((min, max)) = self.range {
            fields.push(("min", Value::Num(min)));
            fields.push(("max", Value::Num(max)));
        }
        if let Some((q1, q3)) = self.quartiles {
            fields.push(("q1", Value::Num(q1)));
            fields.push(("q3", Value::Num(q3)));
        }
        if self.computed {
            fields.push(("computed", true.into()));
        }
        Value::obj(fields)
    }
}

/// One correctness check; a failed check is a failed operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check { name: name.into(), ok, detail: detail.into() }
    }
}

/// Everything one invocation measured on one workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    pub info: Vec<(String, Value)>,
    pub end_to_end: Vec<(String, Metric)>,
    pub per_layer: Vec<(String, Metric)>,
    pub checks: Vec<Check>,
    /// Operations tried and failed, not counting `checks` (added on output).
    pub ops_attempted: usize,
    pub ops_failed: usize,
}

impl WorkloadResult {
    pub fn attempted(&self) -> usize {
        self.ops_attempted + self.checks.len()
    }

    pub fn failed(&self) -> usize {
        self.ops_failed + self.checks.iter().filter(|c| !c.ok).count()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    pub fn info(&mut self, key: &str, value: impl Into<Value>) {
        self.info.push((key.to_string(), value.into()));
    }

    /// Fold in what another invocation measured on the same workload (the
    /// timed and the traced half of a set end up in one entry). Info keys
    /// already present keep their first value.
    pub fn absorb(&mut self, other: WorkloadResult) {
        for (key, value) in other.info {
            if !self.info.iter().any(|(k, _)| *k == key) {
                self.info.push((key, value));
            }
        }
        self.end_to_end.extend(other.end_to_end);
        self.per_layer.extend(other.per_layer);
        self.checks.extend(other.checks);
        self.ops_attempted += other.ops_attempted;
        self.ops_failed += other.ops_failed;
    }

    fn to_json(&self, workload: &str) -> Value {
        let why = WORKLOADS.iter().find(|w| w.0 == workload).map_or("", |w| w.1);
        let metrics = |list: &[(String, Metric)]| {
            Value::obj(list.iter().map(|(k, m)| (k.clone(), m.to_json())))
        };
        let mut fields = vec![
            ("why", Value::str(why)),
            ("info", Value::obj(self.info.iter().cloned())),
            (
                "checks",
                Value::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Value::obj([
                                ("name", Value::str(&c.name)),
                                ("ok", c.ok.into()),
                                ("detail", Value::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("attempted", self.attempted().into()),
            ("failed", self.failed().into()),
            ("correct", self.correct().into()),
        ];
        if !self.end_to_end.is_empty() {
            fields.push(("end_to_end", metrics(&self.end_to_end)));
        }
        if !self.per_layer.is_empty() {
            fields.push(("per_layer", metrics(&self.per_layer)));
        }
        Value::obj(fields)
    }
}

/// Assemble a document from per-workload results.
pub fn document(
    host: &Host,
    seed: u64,
    constants: &Constants,
    results: &[(&str, &WorkloadResult)],
) -> Value {
    Value::obj([
        ("schema", Value::str(SCHEMA)),
        ("smoke", constants.smoke.into()),
        ("seed", Value::Num(seed as f64)),
        ("host", host.to_json()),
        ("constants", constants.to_json()),
        ("workloads", Value::obj(results.iter().map(|(w, r)| (*w, r.to_json(w))))),
    ])
}

/// Resolved-shape fields each workload's `info` must carry.
fn required_info(workload: &str) -> &'static [&'static str] {
    match workload {
        PERIODIC_RUN | PSE_RUN => &["kref", "p", "r_max", "alpha"],
        OPEN_RUN => &["theta", "q"],
        SERVE_SPOOL => &["kref", "p", "r_max", "alpha"],
        _ => &[],
    }
}

fn validate_metric(path: &str, m: &Value, unit: &str, errors: &mut Vec<String>) {
    match m.get("value").and_then(Value::as_f64) {
        Some(v) if v.is_finite() => {}
        _ => errors.push(format!("{path}: `value` is not a finite number")),
    }
    match m.get("unit").and_then(Value::as_str) {
        Some(u) if u == unit => {}
        other => errors.push(format!("{path}: unit is {other:?}, expected `{unit}`")),
    }
    match m.get("n").and_then(Value::as_f64) {
        Some(n) if n >= 1.0 && n == n.trunc() => {}
        _ => errors.push(format!("{path}: sample count `n` missing or below 1")),
    }
}

fn validate_metric_set(
    path: &str,
    got: &Value,
    expected: &[(String, &'static str)],
    errors: &mut Vec<String>,
) {
    let Some(map) = got.as_obj() else {
        errors.push(format!("{path}: not an object"));
        return;
    };
    for (name, unit) in expected {
        match map.get(name) {
            Some(m) => validate_metric(&format!("{path}.{name}"), m, unit, errors),
            None => errors.push(format!("{path}: metric `{name}` is missing")),
        }
    }
    for name in map.keys() {
        if !expected.iter().any(|(n, _)| n == name) {
            errors.push(format!("{path}: unknown metric `{name}`"));
        }
    }
}

/// Check one `hibd-bench-v1` document (or a baseline wrapper of several).
/// Returns every problem found; empty means valid.
pub fn validate(doc: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    if doc.get("schema").and_then(Value::as_str) == Some(BASELINE_SCHEMA) {
        match doc.get("sets").and_then(Value::as_arr) {
            Some(sets) if !sets.is_empty() => {
                for (i, set) in sets.iter().enumerate() {
                    errors.extend(validate(set).into_iter().map(|e| format!("sets[{i}]: {e}")));
                }
            }
            _ => errors.push("baseline has no `sets`".into()),
        }
        if doc.get("legacy").and_then(Value::as_obj).is_none() {
            errors.push("baseline has no `legacy` block".into());
        }
        return errors;
    }
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errors.push(format!("`schema` is not `{SCHEMA}`"));
    }
    if doc.get("smoke").and_then(Value::as_bool).is_none() {
        errors.push("`smoke` flag missing".into());
    }
    if doc.get("seed").and_then(Value::as_f64).is_none() {
        errors.push("`seed` missing".into());
    }
    match doc.get("host") {
        Some(h) if Host::fingerprint(h).is_some() => {}
        _ => errors.push("`host` block missing nproc/threads/simd/llc_bytes".into()),
    }
    if doc.get("constants").and_then(Value::as_obj).is_none_or(std::collections::BTreeMap::is_empty)
    {
        errors.push("`constants` block missing".into());
    }
    let Some(workloads) = doc.get("workloads").and_then(Value::as_obj) else {
        errors.push("`workloads` missing".into());
        return errors;
    };
    if workloads.is_empty() {
        errors.push("`workloads` is empty".into());
    }
    let e2e: Vec<(String, &'static str)> =
        END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect();
    let layers: Vec<(String, &'static str)> =
        per_layer().into_iter().map(|l| (l.name, l.unit)).collect();
    for (name, entry) in workloads {
        if !WORKLOADS.iter().any(|w| w.0 == name) {
            errors.push(format!("unknown workload `{name}`"));
            continue;
        }
        let info = entry.get("info");
        for key in required_info(name) {
            if info.and_then(|i| i.get(key)).is_none() {
                errors.push(format!("{name}.info: resolved shape field `{key}` missing"));
            }
        }
        for key in ["attempted", "failed"] {
            if entry.get(key).and_then(Value::as_f64).is_none() {
                errors.push(format!("{name}: `{key}` missing"));
            }
        }
        if entry.get("checks").and_then(Value::as_arr).is_none() {
            errors.push(format!("{name}: `checks` missing"));
        }
        let (has_e2e, has_layers) = (entry.get("end_to_end"), entry.get("per_layer"));
        if has_e2e.is_none() && has_layers.is_none() {
            errors.push(format!("{name}: neither `end_to_end` nor `per_layer` present"));
        }
        if let Some(m) = has_e2e {
            validate_metric_set(&format!("{name}.end_to_end"), m, &e2e, &mut errors);
        }
        if let Some(m) = has_layers {
            validate_metric_set(&format!("{name}.per_layer"), m, &layers, &mut errors);
        }
    }
    errors
}

/// The `BENCHMARK.json` this catalogue implies (`bench_ladder manifest`);
/// a unit test keeps the committed file equal to it.
pub fn manifest(run_seconds: usize) -> Value {
    Value::obj([
        ("command", Value::Arr(vec![Value::str("bash"), Value::str("crates/ladder/run.sh")])),
        ("paths", Value::Arr(vec![Value::str("crates/ladder")])),
        ("run_seconds", run_seconds.into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|l| {
                        Value::obj([
                            ("name", Value::str(&l.name)),
                            ("unit", Value::str(l.unit)),
                            ("better", Value::str(l.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            threads: 2,
            simd: "Avx2".into(),
            llc_bytes: 1 << 25,
            cpu_model: "test".into(),
        }
    }

    /// A complete, valid result for `workload` with every end-to-end metric
    /// at `scale` times a base value (shared with the `diff` tests).
    pub(crate) fn synthetic_result(workload: &str, scale: f64, traced: bool) -> WorkloadResult {
        let mut r = WorkloadResult::default();
        for key in required_info(workload) {
            r.info(key, 1.0);
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let v = (i + 1) as f64 * 10.0 * scale;
            let metric = Metric { range: Some((v * 0.99, v * 1.01)), ..Metric::new(v, m.unit, 3) };
            r.end_to_end.push((m.name.to_string(), metric));
        }
        if traced {
            for l in per_layer() {
                r.per_layer.push((l.name, Metric::new(1.5, l.unit, 5)));
            }
        }
        r.check("exit_status", true, "");
        r.ops_attempted = 96;
        r
    }

    pub(crate) fn synthetic_doc(scale: f64, constants: &Constants) -> Value {
        let results: Vec<(&str, WorkloadResult)> =
            WORKLOADS.iter().map(|w| (w.0, synthetic_result(w.0, scale, true))).collect();
        let refs: Vec<(&str, &WorkloadResult)> = results.iter().map(|(w, r)| (*w, r)).collect();
        document(&host(), 2014, constants, &refs)
    }

    #[test]
    fn catalogue_has_the_issue_names_once_each_within_the_contract_limits() {
        let layers = per_layer();
        assert_eq!(layers.len(), 79);
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| name_ok(n)));
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(
            layers.iter().all(|l| unit_ok(l.unit)) && END_TO_END.iter().all(|m| unit_ok(m.unit))
        );
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')), "why too long");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
        for expected in [
            "fft.line_n126.ns",
            "fft.roundtrip_batch48_kref.ms_per_mesh",
            "pme.model_ratio_interp",
            "core.pse.step_steady_ms_p80",
            "core.open.krylov_iterations",
            "engine.plan_cache.misses",
            "serve.drain_tail_s",
            "trace.overhead_share",
        ] {
            assert!(layers.iter().any(|l| l.name == expected), "{expected}");
        }
    }

    #[test]
    fn written_documents_validate_and_survive_a_text_round_trip() {
        let doc = synthetic_doc(1.0, &Constants::frozen());
        assert_eq!(validate(&doc), Vec::<String>::new());
        let back = crate::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(validate(&back), Vec::<String>::new());
        let baseline = Value::obj([
            ("schema", Value::str(BASELINE_SCHEMA)),
            ("sets", Value::Arr(vec![doc.clone(), doc])),
            ("legacy", Value::obj([("note", Value::str("x"))])),
        ]);
        assert_eq!(validate(&baseline), Vec::<String>::new());
    }

    #[test]
    fn validator_names_what_is_wrong() {
        let good = synthetic_doc(1.0, &Constants::frozen());
        let broken = |edit: &dyn Fn(&mut std::collections::BTreeMap<String, Value>)| {
            let Value::Obj(mut top) = good.clone() else { unreachable!() };
            edit(&mut top);
            validate(&Value::Obj(top)).join("\n")
        };
        assert!(broken(&|t| drop(t.insert("schema".into(), Value::str("v0")))).contains("schema"));
        assert!(broken(&|t| drop(t.remove("host"))).contains("host"));
        assert!(broken(&|t| drop(t.remove("seed"))).contains("seed"));
        let edit_workload =
            |name: &'static str,
             f: &'static dyn Fn(&mut std::collections::BTreeMap<String, Value>)| {
                broken(&move |t| {
                    let Some(Value::Obj(w)) = t.get_mut("workloads") else { unreachable!() };
                    let Some(Value::Obj(entry)) = w.get_mut(name) else { unreachable!() };
                    f(entry);
                })
            };
        let e = edit_workload(PERIODIC_RUN, &|w| {
            let Some(Value::Obj(m)) = w.get_mut("end_to_end") else { unreachable!() };
            m.remove("setup_s");
            m.insert("latency".into(), Metric::new(1.0, "ms", 1).to_json());
        });
        assert!(
            e.contains("`setup_s` is missing") && e.contains("unknown metric `latency`"),
            "{e}"
        );
        let e = edit_workload(OPEN_RUN, &|w| {
            let Some(Value::Obj(m)) = w.get_mut("per_layer") else { unreachable!() };
            m.insert(
                "fft.line_n64.ns".into(),
                Value::obj([("value", Value::Num(1.0)), ("unit", Value::str("ms"))]),
            );
        });
        assert!(e.contains("expected `ns`") && e.contains("sample count"), "{e}");
        let e = edit_workload(OPEN_RUN, &|w| {
            drop(w.insert("info".into(), Value::obj([("q", Value::Num(3.0))])));
        });
        assert!(e.contains("`theta` missing"), "{e}");
        let e = broken(&|t| {
            let Some(Value::Obj(w)) = t.get_mut("workloads") else { unreachable!() };
            let v = w.remove(SERVE_SPOOL).unwrap();
            w.insert("mystery".into(), v);
        });
        assert!(e.contains("unknown workload `mystery`"), "{e}");
    }

    #[test]
    fn absorb_joins_the_two_halves_of_a_workload() {
        let mut timed = synthetic_result(PSE_RUN, 1.0, false);
        let mut traced = synthetic_result(PSE_RUN, 1.0, true);
        traced.end_to_end.clear();
        traced.ops_failed = 1;
        traced.info("focus", Value::str(PSE_RUN));
        let info_before = timed.info.len();
        timed.absorb(traced);
        assert_eq!(timed.info.len(), info_before + 1, "shared shape fields are not repeated");
        assert_eq!((timed.attempted(), timed.failed(), timed.correct()), (2 * 97, 1, false));
        let doc = document(&host(), 1, &Constants::frozen(), &[(PSE_RUN, &timed)]);
        assert_eq!(validate(&doc), Vec::<String>::new());
        let pse = doc.get("workloads").unwrap().get(PSE_RUN).unwrap();
        assert!(pse.get("end_to_end").is_some() && pse.get("per_layer").is_some());
        assert_eq!(pse.get("checks").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = crate::json::parse(&text).unwrap();
        let run_seconds = committed.get("run_seconds").and_then(Value::as_f64).unwrap() as usize;
        assert_eq!(committed, manifest(run_seconds), "regenerate with `bench_ladder manifest`");
        assert!((1..=60).contains(&run_seconds));
        assert!(text.len() <= 64 * 1024);
    }
}
