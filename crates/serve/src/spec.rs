//! Service configuration: the `hibd serve` daemon spec.
//!
//! Same dependency-free `key = value` format as the simulation configs
//! (comments with `#`, case-insensitive keys), parsed into a [`ServeSpec`].
//! Job files dropped into the spool directory are ordinary `hibd run`
//! configs ([`hibd_core::config::SimSpec`]); this spec only describes the
//! daemon around them.

use hibd_core::config::{parse_bool, parse_num, scan_key_values, ConfigError};
use std::path::{Path, PathBuf};

/// Daemon configuration for `hibd serve`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSpec {
    /// Directory watched for job files (`<name>.conf`) and cancellation
    /// sentinels (`<name>.cancel`).
    pub spool: String,
    /// Output root: each job writes under `<output>/<name>/`.
    pub output: String,
    /// Worker threads; each owns one [`hibd_engine::EnsembleRunner`].
    pub workers: usize,
    /// Admission bound: at most this many jobs in flight at once; excess
    /// spool files wait in `queued` state.
    pub queue: usize,
    /// Spool scan interval in milliseconds.
    pub poll_ms: u64,
    /// Status file path (default `<output>/status.json`).
    pub status: Option<String>,
    /// Status rewrite interval in milliseconds.
    pub status_ms: u64,
    /// Optional sleep between worker stepping rounds (politeness on shared
    /// hosts); `0` steps flat out.
    pub throttle_ms: u64,
    /// Plan-cache capacity per worker (resident shapes); `0` = unbounded.
    pub plan_cache: usize,
    /// Exit once every spooled job is terminal and the spool stops growing
    /// (CI smoke runs and tests; a production daemon keeps watching).
    pub exit_when_idle: bool,
}

impl Default for ServeSpec {
    fn default() -> ServeSpec {
        ServeSpec {
            spool: "spool".to_string(),
            output: "out".to_string(),
            workers: 1,
            queue: 8,
            poll_ms: 50,
            status: None,
            status_ms: 500,
            throttle_ms: 0,
            plan_cache: 0,
            exit_when_idle: false,
        }
    }
}

impl ServeSpec {
    /// Parse the daemon configuration text.
    pub fn parse(text: &str) -> Result<ServeSpec, ConfigError> {
        let mut spec = ServeSpec::default();
        for (key, (line, value)) in &scan_key_values(text)? {
            match key.as_str() {
                "spool" => spec.spool = value.clone(),
                "output" => spec.output = value.clone(),
                "workers" => spec.workers = parse_num(*line, key, value)?,
                "queue" => spec.queue = parse_num(*line, key, value)?,
                "poll_ms" => spec.poll_ms = parse_num(*line, key, value)?,
                "status" => spec.status = Some(value.clone()),
                "status_ms" => spec.status_ms = parse_num(*line, key, value)?,
                "throttle_ms" => spec.throttle_ms = parse_num(*line, key, value)?,
                "plan_cache" => spec.plan_cache = parse_num(*line, key, value)?,
                "exit_when_idle" => spec.exit_when_idle = parse_bool(*line, key, value)?,
                other => {
                    return Err(ConfigError {
                        line: *line,
                        message: format!("unknown key `{other}`"),
                    })
                }
            }
        }
        spec.validate().map_err(|message| ConfigError { line: 0, message })?;
        Ok(spec)
    }

    /// Cross-field validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.spool.is_empty() {
            return Err("spool directory must be set".into());
        }
        if self.output.is_empty() {
            return Err("output directory must be set".into());
        }
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.queue == 0 {
            return Err("queue must be at least 1".into());
        }
        if self.poll_ms == 0 {
            return Err("poll_ms must be positive".into());
        }
        if self.status_ms == 0 {
            return Err("status_ms must be positive".into());
        }
        Ok(())
    }

    /// Resolved status file path.
    #[must_use]
    pub fn status_path(&self) -> PathBuf {
        match &self.status {
            Some(p) => PathBuf::from(p),
            None => Path::new(&self.output).join("status.json"),
        }
    }

    /// An annotated example daemon configuration.
    #[must_use]
    pub fn example() -> String {
        "\
# hibd serve daemon configuration.
spool = spool              # watched for <name>.conf job files
output = out               # per-job output under <output>/<name>/
workers = 2                # worker threads (one EnsembleRunner each)
queue = 8                  # max jobs in flight; excess spool files wait
poll_ms = 50               # spool scan interval
status_ms = 500            # status.json rewrite interval
plan_cache = 4             # resident shapes per worker (0 = unbounded)
# status = out/status.json # explicit status path
# throttle_ms = 5          # sleep between stepping rounds
# exit_when_idle = true    # exit when every spooled job is terminal
"
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_example() {
        let spec = ServeSpec::parse(&ServeSpec::example()).unwrap();
        assert_eq!(spec.workers, 2);
        assert_eq!(spec.queue, 8);
        assert_eq!(spec.plan_cache, 4);
        assert!(!spec.exit_when_idle);
        assert_eq!(spec.status_path(), Path::new("out").join("status.json"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(ServeSpec::parse("workers = 0").is_err());
        assert!(ServeSpec::parse("queue = 0").is_err());
        assert!(ServeSpec::parse("poll_ms = nope").is_err());
        assert!(ServeSpec::parse("mystery = 1").is_err());
        assert!(ServeSpec::parse("workers = ").is_err());
    }

    #[test]
    fn status_key_overrides_the_default_path() {
        let spec = ServeSpec::parse("status = /tmp/s.json").unwrap();
        assert_eq!(spec.status_path(), Path::new("/tmp/s.json"));
    }
}
