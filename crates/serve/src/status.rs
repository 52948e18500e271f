//! The shared service registry and the `status.json` document.
//!
//! Workers publish per-job and per-worker views into a [`ServiceState`]
//! behind one mutex; the server thread periodically renders the
//! `hibd-serve-v2` JSON document and rewrites the status file atomically.
//! [`validate_status`] closes the loop (schema checks in tests and
//! `xtask validate-status`), mirroring the `hibd-profile-v2` tooling.

use crate::job::JobState;
use hibd_telemetry::json::{self, expect_num, expect_obj, expect_schema, Value};
use hibd_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Registry entry for one job (spooled, running, or terminal).
#[derive(Clone, Debug)]
pub struct JobView {
    pub state: JobState,
    /// Completed (global) steps.
    pub step: u64,
    /// Configured step budget.
    pub steps: u64,
    /// Owning worker index once admitted.
    pub worker: Option<usize>,
    /// Failure/cancellation detail.
    pub error: Option<String>,
    /// The job's phase account (its driver's `snapshot()`).
    pub snapshot: Snapshot,
}

impl JobView {
    /// A freshly spooled, not-yet-admitted job.
    #[must_use]
    pub fn queued(steps: u64) -> JobView {
        JobView {
            state: JobState::Queued,
            step: 0,
            steps,
            worker: None,
            error: None,
            snapshot: Snapshot::empty(),
        }
    }
}

/// Published view of one worker's runner.
#[derive(Clone, Debug, Default)]
pub struct WorkerView {
    /// Live jobs in the runner.
    pub jobs: usize,
    /// Plan-cache resident shapes / hits / misses / evictions / capacity.
    pub cache_shapes: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_capacity: Option<usize>,
    /// Bytes held by resident plans.
    pub plan_bytes: usize,
}

/// Everything the status document is rendered from, shared between the
/// server thread and the workers under one mutex.
#[derive(Debug, Default)]
pub struct ServiceState {
    pub jobs: BTreeMap<String, JobView>,
    pub workers: Vec<WorkerView>,
    pub draining: bool,
    /// Worker log lines, drained by the server thread.
    pub log: Vec<String>,
}

impl ServiceState {
    /// Jobs currently counted against the admission bound.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.jobs.values().filter(|j| j.state == JobState::Running).count()
    }

    /// Count of jobs in `state`.
    #[must_use]
    pub fn count(&self, state: JobState) -> usize {
        self.jobs.values().filter(|j| j.state == state).count()
    }
}

/// Render the `hibd-serve-v2` status document.
#[must_use]
pub fn render_status(state: &ServiceState, queue_capacity: usize, uptime_seconds: f64) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"hibd-serve-v2\",\n");
    let _ = writeln!(
        out,
        "  \"daemon\": {{\"workers\": {}, \"queue_capacity\": {queue_capacity}, \
         \"uptime_seconds\": {uptime_seconds:e}, \"draining\": {}}},",
        state.workers.len(),
        state.draining
    );
    let _ = writeln!(
        out,
        "  \"queue\": {{\"queued\": {}, \"running\": {}, \"done\": {}, \"failed\": {}, \
         \"cancelled\": {}}},",
        state.count(JobState::Queued),
        state.count(JobState::Running),
        state.count(JobState::Done),
        state.count(JobState::Failed),
        state.count(JobState::Cancelled)
    );

    // Aggregate plan-cache health over the workers.
    let (mut shapes, mut hits, mut misses, mut evictions) = (0usize, 0u64, 0u64, 0u64);
    for w in &state.workers {
        shapes += w.cache_shapes;
        hits += w.cache_hits;
        misses += w.cache_misses;
        evictions += w.cache_evictions;
    }
    let _ = writeln!(
        out,
        "  \"plan_cache\": {{\"shapes\": {shapes}, \"hits\": {hits}, \"misses\": {misses}, \
         \"evictions\": {evictions}}},"
    );

    out.push_str("  \"workers\": [");
    for (i, w) in state.workers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let capacity = w.cache_capacity.map_or_else(|| "null".to_string(), |c| c.to_string());
        let _ = write!(
            out,
            "{{\"jobs\": {}, \"cache\": {{\"shapes\": {}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"capacity\": {capacity}, \"plan_bytes\": {}}}}}",
            w.jobs, w.cache_shapes, w.cache_hits, w.cache_misses, w.cache_evictions, w.plan_bytes
        );
    }
    out.push_str("],\n");

    out.push_str("  \"jobs\": {\n");
    for (i, (name, job)) in state.jobs.iter().enumerate() {
        let worker = job.worker.map_or_else(|| "null".to_string(), |w| w.to_string());
        let error = match &job.error {
            Some(e) => format!("\"{}\"", json::escape(e)),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "    \"{}\": {{\"state\": \"{}\", \"step\": {}, \"steps\": {}, \"worker\": {worker}, \
             \"error\": {error}, \"phases\": {}, \"counters\": {}}}",
            json::escape(name),
            job.state.name(),
            job.step,
            job.steps,
            job.snapshot.phases_to_json(),
            job.snapshot.counters_to_json()
        );
        out.push_str(if i + 1 < state.jobs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Validate an `hibd-serve-v2` status document (parse + schema checks).
pub fn validate_status(src: &str) -> Result<(), String> {
    let v = json::parse(src)?;
    expect_schema(&v, "hibd-serve-v2")?;
    let daemon = expect_obj(&v, "daemon", "document")?;
    let workers = expect_num(daemon, "workers", "daemon")?;
    expect_num(daemon, "queue_capacity", "daemon")?;
    match daemon.get("draining") {
        Some(Value::Bool(_)) => {}
        _ => return Err("daemon.draining is not a boolean".into()),
    }

    let queue = expect_obj(&v, "queue", "document")?;
    for key in ["queued", "running", "done", "failed", "cancelled"] {
        expect_num(queue, key, "queue")?;
    }

    let cache = expect_obj(&v, "plan_cache", "document")?;
    for key in ["shapes", "hits", "misses", "evictions"] {
        expect_num(cache, key, "plan_cache")?;
    }

    let worker_list = v
        .get("workers")
        .and_then(Value::as_array)
        .ok_or("document is missing the `workers` array")?;
    if worker_list.len() != workers as usize {
        return Err(format!(
            "daemon.workers = {workers} but the workers array has {} entries",
            worker_list.len()
        ));
    }
    for (i, w) in worker_list.iter().enumerate() {
        let ctx = format!("workers[{i}]");
        expect_num(w, "jobs", &ctx)?;
        expect_obj(w, "cache", &ctx)?;
    }

    let jobs = expect_obj(&v, "jobs", "document")?;
    let Value::Obj(fields) = jobs else { unreachable!("expect_obj returned a non-object") };
    for (name, job) in fields {
        let ctx = format!("jobs.{name}");
        let state = job
            .get("state")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx} is missing `state`"))?;
        if JobState::from_name(state).is_none() {
            return Err(format!("{ctx} has unknown state `{state}`"));
        }
        let step = expect_num(job, "step", &ctx)?;
        let steps = expect_num(job, "steps", &ctx)?;
        if step > steps {
            return Err(format!("{ctx}: step {step} exceeds budget {steps}"));
        }
        expect_obj(job, "phases", &ctx)?;
        expect_obj(job, "counters", &ctx)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ServiceState {
        let workers = vec![
            WorkerView {
                jobs: 2,
                cache_shapes: 1,
                cache_hits: 1,
                cache_misses: 1,
                cache_evictions: 0,
                cache_capacity: Some(4),
                plan_bytes: 1024,
            },
            WorkerView::default(),
        ];
        let mut state = ServiceState { workers, ..ServiceState::default() };
        let mut running = JobView::queued(400);
        running.state = JobState::Running;
        running.step = 128;
        running.worker = Some(0);
        state.jobs.insert("a".to_string(), running.clone());
        state.jobs.insert("b".to_string(), running);
        let mut failed = JobView::queued(100);
        failed.state = JobState::Failed;
        failed.error = Some("deadline \"exceeded\"".to_string());
        state.jobs.insert("c".to_string(), failed);
        state
    }

    #[test]
    fn rendered_status_validates() {
        let state = sample_state();
        let doc = render_status(&state, 8, 1.25);
        validate_status(&doc).unwrap();
        assert_eq!(state.in_flight(), 2);
        assert_eq!(state.count(JobState::Failed), 1);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_status("{}").is_err());
        assert!(validate_status("not json").is_err());
        let doc = render_status(&sample_state(), 8, 0.0);
        let wrong = doc.replace("hibd-serve-v2", "hibd-serve-v1");
        assert!(validate_status(&wrong).is_err());
        let wrong = doc.replace("\"step\": 128", "\"step\": 1000000");
        assert!(validate_status(&wrong).unwrap_err().contains("exceeds budget"));
        let wrong = doc.replace("\"state\": \"running\"", "\"state\": \"jogging\"");
        assert!(validate_status(&wrong).unwrap_err().contains("unknown state"));
    }

    #[test]
    fn empty_service_renders_a_valid_document() {
        let doc = render_status(&ServiceState::default(), 1, 0.0);
        validate_status(&doc).unwrap();
    }
}
