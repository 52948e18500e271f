//! Per-job lifecycle state and the `meta.json` commit protocol.
//!
//! Each job owns a directory `<output>/<name>/` containing
//!
//! * `trajectory.xyz` — the streamed frames (byte-identical to the file a
//!   standalone `hibd run` of the same config would write);
//! * `ckpt-<step>.hibd` — the most recent checkpoint;
//! * `meta.json` — the **commit point** (schema `hibd-job-v1`): state,
//!   completed steps, the checkpoint file name, and the committed
//!   trajectory byte count.
//!
//! The write order at a checkpoint is trajectory flush → checkpoint
//! (atomic) → `meta.json` (atomic) → old checkpoint unlink. A daemon killed
//! anywhere in that sequence restarts from a consistent pair: `meta.json`
//! always names a checkpoint that exists, and resume truncates the
//! trajectory to the committed byte count before replaying. Non-terminal
//! checkpoints are taken only at `lambda_RPY` window boundaries, where the
//! window-seeded RNG makes the replay bitwise.

use crate::output::atomic_write;
use hibd_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};

/// Job lifecycle states reported in `meta.json` and `status.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Spooled, waiting for admission (queue bound reached).
    Queued,
    /// Admitted to a worker and stepping.
    Running,
    /// Reached its configured step budget.
    Done,
    /// Failed (setup error, step fault, panic, or deadline).
    Failed,
    /// Cancelled through a `.cancel` spool sentinel.
    Cancelled,
}

impl JobState {
    /// The state's `meta.json` / `status.json` string.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a `meta.json` state string.
    #[must_use]
    pub fn from_name(name: &str) -> Option<JobState> {
        match name {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Terminal states never re-admit on restart.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// The committed job record (`meta.json`, schema `hibd-job-v1`).
#[derive(Clone, Debug, PartialEq)]
pub struct JobMeta {
    pub name: String,
    pub state: JobState,
    /// Completed (global) steps at the commit.
    pub step: u64,
    /// Configured step budget.
    pub steps: u64,
    /// File name (relative to the job directory) of the checkpoint backing
    /// `step`; `None` before the first checkpoint (resume restarts fresh).
    pub checkpoint: Option<String>,
    /// Committed trajectory length in bytes.
    pub trajectory_bytes: u64,
    /// Failure/cancellation detail.
    pub error: Option<String>,
}

impl JobMeta {
    /// Render the `hibd-job-v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ckpt = match &self.checkpoint {
            Some(c) => format!("\"{}\"", json::escape(c)),
            None => "null".to_string(),
        };
        let error = match &self.error {
            Some(e) => format!("\"{}\"", json::escape(e)),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"schema\": \"hibd-job-v1\",\n  \"name\": \"{}\",\n  \"state\": \"{}\",\n  \
             \"step\": {},\n  \"steps\": {},\n  \"checkpoint\": {},\n  \
             \"trajectory_bytes\": {},\n  \"error\": {}\n}}\n",
            json::escape(&self.name),
            self.state.name(),
            self.step,
            self.steps,
            ckpt,
            self.trajectory_bytes,
            error
        )
    }

    /// Parse a `meta.json` document.
    pub fn from_json(src: &str) -> Result<JobMeta, String> {
        let v = json::parse(src)?;
        json::expect_schema(&v, "hibd-job-v1")?;
        let field_u64 = |key: &str| json::expect_num(&v, key, "meta.json").map(|x| x as u64);
        let state_name =
            v.get("state").and_then(Value::as_str).ok_or_else(|| "missing `state`".to_string())?;
        Ok(JobMeta {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| "missing `name`".to_string())?
                .to_string(),
            state: JobState::from_name(state_name)
                .ok_or_else(|| format!("unknown state `{state_name}`"))?,
            step: field_u64("step")?,
            steps: field_u64("steps")?,
            checkpoint: v.get("checkpoint").and_then(Value::as_str).map(str::to_string),
            trajectory_bytes: field_u64("trajectory_bytes")?,
            error: v.get("error").and_then(Value::as_str).map(str::to_string),
        })
    }

    /// Atomically commit this record to `dir/meta.json`.
    pub fn commit(&self, dir: &Path) -> std::io::Result<()> {
        atomic_write(&dir.join("meta.json"), self.to_json().as_bytes())
    }

    /// Load the committed record from `dir/meta.json` (`Ok(None)` when no
    /// commit exists yet; a corrupt file is an error).
    pub fn load(dir: &Path) -> Result<Option<JobMeta>, String> {
        let path = dir.join("meta.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => JobMeta::from_json(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

/// Checkpoint file name for a committed step.
#[must_use]
pub fn checkpoint_name(step: u64) -> String {
    format!("ckpt-{step}.hibd")
}

/// The job's trajectory path.
#[must_use]
pub fn trajectory_path(dir: &Path) -> PathBuf {
    dir.join("trajectory.xyz")
}

/// Round a checkpoint interval up to a `lambda_RPY` window multiple: only
/// window-boundary checkpoints resume bitwise, so the daemon aligns every
/// non-terminal commit. `interval = 0` (config default "no checkpoints")
/// falls back to four windows — the service always checkpoints.
#[must_use]
pub fn aligned_checkpoint_interval(interval: usize, lambda: usize) -> u64 {
    let lambda = lambda.max(1) as u64;
    let base = if interval == 0 { 4 * lambda } else { interval as u64 };
    base.div_ceil(lambda) * lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrips_through_json() {
        let meta = JobMeta {
            name: "job \"a\"".to_string(),
            state: JobState::Running,
            step: 128,
            steps: 400,
            checkpoint: Some(checkpoint_name(128)),
            trajectory_bytes: 90210,
            error: None,
        };
        assert_eq!(JobMeta::from_json(&meta.to_json()).unwrap(), meta);

        let terminal = JobMeta {
            state: JobState::Failed,
            checkpoint: None,
            error: Some("deadline exceeded".to_string()),
            ..meta
        };
        let back = JobMeta::from_json(&terminal.to_json()).unwrap();
        assert_eq!(back, terminal);
        assert!(back.state.is_terminal());
    }

    #[test]
    fn commit_and_load_are_inverse() {
        let dir = std::env::temp_dir().join("hibd_serve_meta_test");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(JobMeta::load(&dir).unwrap(), None);
        let meta = JobMeta {
            name: "j".to_string(),
            state: JobState::Done,
            step: 8,
            steps: 8,
            checkpoint: Some(checkpoint_name(8)),
            trajectory_bytes: 42,
            error: None,
        };
        meta.commit(&dir).unwrap();
        assert_eq!(JobMeta::load(&dir).unwrap(), Some(meta));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_intervals_align_to_windows() {
        assert_eq!(aligned_checkpoint_interval(0, 8), 32);
        assert_eq!(aligned_checkpoint_interval(5, 8), 8);
        assert_eq!(aligned_checkpoint_interval(8, 8), 8);
        assert_eq!(aligned_checkpoint_interval(9, 8), 16);
        assert_eq!(aligned_checkpoint_interval(3, 1), 3);
    }

    #[test]
    fn states_roundtrip_by_name() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_name(s.name()), Some(s));
        }
        assert_eq!(JobState::from_name("nope"), None);
    }
}
