//! The hibd configuration format.
//!
//! A deliberately tiny, dependency-free `key = value` format with `#`
//! comments — enough to describe every knob the drivers expose without
//! pulling a serialization stack into the build:
//!
//! ```text
//! # suspension
//! particles      = 1000
//! volume_fraction = 0.2
//! seed           = 7
//!
//! # integrator
//! algorithm   = matrix-free      # or: dense
//! dt          = 0.01
//! kbt         = 1.0
//! lambda_rpy  = 16
//! e_k         = 1e-2
//! e_p         = 1e-3
//! steps       = 1000
//!
//! # forces
//! repulsion   = on
//! gravity     = 0 0 -0.5
//! lj_epsilon  = 0.0
//!
//! # output
//! trajectory          = out.xyz
//! trajectory_interval = 50
//! report_interval     = 100
//! checkpoint          = state.hibd
//! checkpoint_interval = 500
//! ```

use crate::forces::{ConstantForce, Force, LennardJones, RepulsiveHarmonic};
use crate::mf_bd::MatrixFreeConfig;
use crate::system::{Boundary, ParticleSystem};
use hibd_mathx::Vec3;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;

/// Which propagation algorithm to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 2: PME + block Krylov.
    #[default]
    MatrixFree,
    /// Algorithm 1: dense Ewald + Cholesky (baseline; small systems only).
    Dense,
}

/// Brownian displacement solver for the matrix-free algorithm (the
/// driver's own enum under its config-file name).
pub use crate::mf_bd::DisplacementMode as Displacement;

/// A fully parsed simulation specification.
#[derive(Clone, Debug)]
pub struct SimSpec {
    pub particles: usize,
    pub volume_fraction: f64,
    pub radius: f64,
    pub viscosity: f64,
    pub seed: u64,
    /// Number of replicas stepped in lockstep by `hibd ensemble`. Replica
    /// `r` uses seed `seed + r`; `hibd run` requires `replicas = 1`.
    pub replicas: usize,
    /// Boundary condition: periodic box (PME mobility) or open/free-space
    /// cluster (treecode mobility).
    pub boundary: Boundary,
    /// Explicit MAC parameter for open-boundary runs: pins a hierarchical
    /// evaluation at this `theta` (tree vs FMM and the leaf capacity are
    /// still chosen by cost). `None` leaves everything — the exact direct
    /// sum included — to `hibd_treecode::tune`.
    pub theta: Option<f64>,
    pub algorithm: Algorithm,
    pub displacement: Displacement,
    pub dt: f64,
    pub kbt: f64,
    pub lambda_rpy: usize,
    pub e_k: f64,
    pub e_p: f64,
    pub steps: usize,
    pub repulsion: bool,
    pub gravity: Option<Vec3>,
    pub lj_epsilon: f64,
    pub trajectory: Option<String>,
    pub trajectory_interval: usize,
    pub report_interval: usize,
    pub checkpoint: Option<String>,
    pub checkpoint_interval: usize,
    /// Wall-clock budget enforced by `hibd serve`: a job still running
    /// after this many seconds is checkpointed and failed as expired.
    /// `None` (the default) means no deadline; `hibd run` ignores it.
    pub deadline_seconds: Option<f64>,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            particles: 100,
            volume_fraction: 0.2,
            radius: 1.0,
            viscosity: 1.0,
            seed: 2014,
            replicas: 1,
            boundary: Boundary::Periodic,
            theta: None,
            algorithm: Algorithm::MatrixFree,
            displacement: Displacement::BlockKrylov,
            dt: 0.01,
            kbt: 1.0,
            lambda_rpy: 16,
            e_k: 1e-2,
            e_p: 1e-3,
            steps: 100,
            repulsion: true,
            gravity: None,
            lj_epsilon: 0.0,
            trajectory: None,
            trajectory_interval: 50,
            report_interval: 100,
            checkpoint: None,
            checkpoint_interval: 0,
            deadline_seconds: None,
        }
    }
}

/// Parse error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

/// Scan `key = value` lines (`#` comments, case-insensitive keys) into a
/// map of `key -> (line number, value)`; a line without `=`, an empty
/// value and a duplicate key are errors. The one scanner behind
/// [`SimSpec::parse`] and the `hibd serve` daemon spec.
pub fn scan_key_values(text: &str) -> Result<BTreeMap<String, (usize, String)>, ConfigError> {
    let mut kv = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("expected `key = value`, got `{line}`")))?;
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if value.is_empty() {
            return Err(err(line_no, format!("empty value for `{key}`")));
        }
        if kv.insert(key.clone(), (line_no, value)).is_some() {
            return Err(err(line_no, format!("duplicate key `{key}`")));
        }
    }
    Ok(kv)
}

impl SimSpec {
    /// Parse the configuration text.
    pub fn parse(text: &str) -> Result<SimSpec, ConfigError> {
        let mut spec = SimSpec::default();
        for (key, (line, value)) in &scan_key_values(text)? {
            match key.as_str() {
                "particles" => spec.particles = parse_num(*line, key, value)?,
                "volume_fraction" => spec.volume_fraction = parse_num(*line, key, value)?,
                "radius" => spec.radius = parse_num(*line, key, value)?,
                "viscosity" => spec.viscosity = parse_num(*line, key, value)?,
                "seed" => spec.seed = parse_num(*line, key, value)?,
                "replicas" => spec.replicas = parse_num(*line, key, value)?,
                "boundary" => {
                    spec.boundary = match value.to_ascii_lowercase().as_str() {
                        "periodic" | "pbc" => Boundary::Periodic,
                        "open" | "free" | "free-space" => Boundary::Open,
                        other => {
                            return Err(err(
                                *line,
                                format!("unknown boundary `{other}` (periodic | open)"),
                            ))
                        }
                    }
                }
                "theta" => spec.theta = Some(parse_num(*line, key, value)?),
                "eval" => {
                    return Err(err(
                        *line,
                        format!(
                            "unknown key `eval` (value `{value}`): the open-boundary \
                             evaluation (direct | tree | fmm) is chosen by \
                             hibd_treecode::tune from (particles, e_p); delete the line"
                        ),
                    ))
                }
                "algorithm" => {
                    spec.algorithm = match value.to_ascii_lowercase().as_str() {
                        "matrix-free" | "matrixfree" | "pme" => Algorithm::MatrixFree,
                        "dense" | "ewald" | "cholesky" => Algorithm::Dense,
                        other => {
                            return Err(err(
                                *line,
                                format!("unknown algorithm `{other}` (matrix-free | dense)"),
                            ))
                        }
                    }
                }
                "displacement" => {
                    spec.displacement = match value.to_ascii_lowercase().as_str() {
                        "block-krylov" | "block" => Displacement::BlockKrylov,
                        "split-ewald" | "pse" => Displacement::SplitEwald,
                        other => {
                            return Err(err(
                                *line,
                                format!(
                                    "unknown displacement `{other}` (block-krylov | split-ewald)"
                                ),
                            ))
                        }
                    }
                }
                "dt" => spec.dt = parse_num(*line, key, value)?,
                "kbt" => spec.kbt = parse_num(*line, key, value)?,
                "lambda_rpy" => spec.lambda_rpy = parse_num(*line, key, value)?,
                "e_k" => spec.e_k = parse_num(*line, key, value)?,
                "e_p" => spec.e_p = parse_num(*line, key, value)?,
                "steps" => spec.steps = parse_num(*line, key, value)?,
                "repulsion" => spec.repulsion = parse_bool(*line, key, value)?,
                "gravity" => {
                    let parts: Vec<&str> = value.split_whitespace().collect();
                    if parts.len() != 3 {
                        return Err(err(*line, "gravity needs three components"));
                    }
                    let mut g = [0.0; 3];
                    for (i, p) in parts.iter().enumerate() {
                        g[i] = p
                            .parse()
                            .map_err(|_| err(*line, format!("bad gravity component `{p}`")))?;
                    }
                    spec.gravity = Some(Vec3::new(g[0], g[1], g[2]));
                }
                "lj_epsilon" => spec.lj_epsilon = parse_num(*line, key, value)?,
                "trajectory" => spec.trajectory = Some(value.clone()),
                "trajectory_interval" => spec.trajectory_interval = parse_num(*line, key, value)?,
                "report_interval" => spec.report_interval = parse_num(*line, key, value)?,
                "checkpoint" => spec.checkpoint = Some(value.clone()),
                "checkpoint_interval" => spec.checkpoint_interval = parse_num(*line, key, value)?,
                "deadline_seconds" => spec.deadline_seconds = Some(parse_num(*line, key, value)?),
                other => return Err(err(*line, format!("unknown key `{other}`"))),
            }
        }
        spec.validate().map_err(|m| err(0, m))?;
        Ok(spec)
    }

    /// Cross-field validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.particles == 0 {
            return Err("particles must be positive".into());
        }
        if self.replicas == 0 {
            return Err("replicas must be at least 1".into());
        }
        if self.replicas > 1 && self.algorithm != Algorithm::MatrixFree {
            return Err("ensemble stepping shares matrix-free operator plans; replicas > 1 \
                 needs algorithm = matrix-free"
                .into());
        }
        if !(0.0..0.52).contains(&self.volume_fraction) || self.volume_fraction <= 0.0 {
            return Err(format!(
                "volume_fraction {} outside supported (0, 0.52)",
                self.volume_fraction
            ));
        }
        // `!(x > 0.0)` rather than `x <= 0.0`: NaN must fail too.
        for (key, x) in [("radius", self.radius), ("viscosity", self.viscosity), ("dt", self.dt)] {
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("{key} {x} must be positive and finite"));
            }
        }
        for (key, x) in [("kbt", self.kbt), ("lj_epsilon", self.lj_epsilon)] {
            if !(x.is_finite() && x >= 0.0) {
                return Err(format!("{key} {x} must be nonnegative and finite"));
            }
        }
        if let Some(g) = self.gravity {
            if !(g.x.is_finite() && g.y.is_finite() && g.z.is_finite()) {
                return Err(format!("gravity {} {} {} must be finite", g.x, g.y, g.z));
            }
        }
        if self.lambda_rpy == 0 {
            return Err("lambda_rpy must be at least 1".into());
        }
        if !(self.e_k > 0.0 && self.e_k < 1.0) {
            return Err(format!("e_k {} outside (0, 1)", self.e_k));
        }
        if !(self.e_p > 0.0 && self.e_p < 0.5) {
            return Err(format!("e_p {} outside (0, 0.5)", self.e_p));
        }
        if let Some(theta) = self.theta {
            if !(theta > 0.0 && theta < 1.0) {
                return Err(format!("theta {theta} outside (0, 1)"));
            }
            if self.boundary != Boundary::Open {
                return Err("theta tunes the open-boundary treecode; set boundary = open".into());
            }
        }
        if self.boundary == Boundary::Open {
            if self.algorithm == Algorithm::Dense {
                return Err("the dense Ewald baseline is periodic-only; open boundaries need \
                     algorithm = matrix-free"
                    .into());
            }
            if self.displacement == Displacement::SplitEwald {
                return Err("split-ewald sampling is wave-space (periodic-only); open \
                     boundaries need an M*v displacement mode"
                    .into());
            }
        }
        if self.algorithm == Algorithm::Dense && self.displacement != Displacement::BlockKrylov {
            return Err("displacement selects the matrix-free solver; it has no effect with \
                 algorithm = dense"
                .into());
        }
        if self.algorithm == Algorithm::Dense && self.particles > 5000 {
            return Err(format!(
                "dense algorithm at n = {} would need {:.1} GiB for the mobility matrix; \
                 use matrix-free",
                self.particles,
                (3.0 * self.particles as f64).powi(2) * 8.0 / 1024f64.powi(3)
            ));
        }
        if self.trajectory.is_some() && self.trajectory_interval == 0 {
            return Err("trajectory_interval must be positive when trajectory is set".into());
        }
        if self.checkpoint.is_some() && self.checkpoint_interval == 0 {
            return Err("checkpoint_interval must be positive when checkpoint is set".into());
        }
        if let Some(d) = self.deadline_seconds {
            // The daemon turns it into a `Duration`: negative, NaN and
            // infinite are not one, and neither is a finite, positive 1e30.
            if d == 0.0 || std::time::Duration::try_from_secs_f64(d).is_err() {
                return Err(format!(
                    "deadline_seconds {d} must be positive and representable as a duration"
                ));
            }
        }
        Ok(())
    }

    /// The [`MatrixFreeConfig`] this spec resolves to (shared by `hibd
    /// run`, `hibd ensemble`, and `hibd serve`).
    #[must_use]
    pub fn matrix_free_config(&self) -> MatrixFreeConfig {
        MatrixFreeConfig {
            dt: self.dt,
            kbt: self.kbt,
            lambda_rpy: self.lambda_rpy,
            e_k: self.e_k,
            target_ep: self.e_p,
            displacement_mode: self.displacement,
            tree: self.theta.map(|theta| {
                hibd_treecode::tune_at_theta(
                    self.particles,
                    theta,
                    self.e_p,
                    self.radius,
                    self.viscosity,
                )
            }),
            ..Default::default()
        }
    }

    /// Generate the initial configuration for `seed` (replica `r` of an
    /// ensemble passes `spec.seed + r`).
    #[must_use]
    pub fn build_system(&self, seed: u64) -> ParticleSystem {
        let mut rng = StdRng::seed_from_u64(seed);
        match self.boundary {
            Boundary::Periodic => ParticleSystem::random_suspension_with(
                self.particles,
                self.volume_fraction,
                self.radius,
                self.viscosity,
                &mut rng,
            ),
            Boundary::Open => ParticleSystem::random_cluster_with(
                self.particles,
                self.volume_fraction,
                self.radius,
                self.viscosity,
                &mut rng,
            ),
        }
    }

    /// The deterministic forces this spec turns on, ready to attach to a
    /// driver in a fixed order (repulsion, gravity, LJ).
    #[must_use]
    pub fn forces(&self) -> Vec<Box<dyn Force>> {
        let mut out: Vec<Box<dyn Force>> = Vec::new();
        if self.repulsion {
            out.push(Box::new(RepulsiveHarmonic::default()));
        }
        if let Some(g) = self.gravity {
            out.push(Box::new(ConstantForce(g)));
        }
        if self.lj_epsilon > 0.0 {
            out.push(Box::new(LennardJones::wca(self.lj_epsilon, 2.0 * self.radius)));
        }
        out
    }
}

impl SimSpec {
    /// Serialize back to the config text format (inverse of [`parse`](Self::parse)).
    pub fn to_config_text(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write;
        writeln!(out, "particles = {}", self.particles).unwrap();
        writeln!(out, "volume_fraction = {}", self.volume_fraction).unwrap();
        writeln!(out, "radius = {}", self.radius).unwrap();
        writeln!(out, "viscosity = {}", self.viscosity).unwrap();
        writeln!(out, "seed = {}", self.seed).unwrap();
        writeln!(out, "replicas = {}", self.replicas).unwrap();
        let boundary = match self.boundary {
            Boundary::Periodic => "periodic",
            Boundary::Open => "open",
        };
        writeln!(out, "boundary = {boundary}").unwrap();
        if let Some(theta) = self.theta {
            writeln!(out, "theta = {theta}").unwrap();
        }
        let alg = match self.algorithm {
            Algorithm::MatrixFree => "matrix-free",
            Algorithm::Dense => "dense",
        };
        writeln!(out, "algorithm = {alg}").unwrap();
        let disp = match self.displacement {
            Displacement::BlockKrylov => "block-krylov",
            Displacement::SplitEwald => "split-ewald",
        };
        writeln!(out, "displacement = {disp}").unwrap();
        writeln!(out, "dt = {}", self.dt).unwrap();
        writeln!(out, "kbt = {}", self.kbt).unwrap();
        writeln!(out, "lambda_rpy = {}", self.lambda_rpy).unwrap();
        writeln!(out, "e_k = {}", self.e_k).unwrap();
        writeln!(out, "e_p = {}", self.e_p).unwrap();
        writeln!(out, "steps = {}", self.steps).unwrap();
        writeln!(out, "repulsion = {}", if self.repulsion { "on" } else { "off" }).unwrap();
        if let Some(g) = self.gravity {
            writeln!(out, "gravity = {} {} {}", g.x, g.y, g.z).unwrap();
        }
        writeln!(out, "lj_epsilon = {}", self.lj_epsilon).unwrap();
        if let Some(t) = &self.trajectory {
            writeln!(out, "trajectory = {t}").unwrap();
        }
        writeln!(out, "trajectory_interval = {}", self.trajectory_interval).unwrap();
        writeln!(out, "report_interval = {}", self.report_interval).unwrap();
        if let Some(c) = &self.checkpoint {
            writeln!(out, "checkpoint = {c}").unwrap();
        }
        writeln!(out, "checkpoint_interval = {}", self.checkpoint_interval).unwrap();
        if let Some(d) = self.deadline_seconds {
            writeln!(out, "deadline_seconds = {d}").unwrap();
        }
        out
    }
}

/// Parse a numeric config value, naming the key and line on failure.
pub fn parse_num<T: std::str::FromStr>(
    line: usize,
    key: &str,
    value: &str,
) -> Result<T, ConfigError> {
    value.parse().map_err(|_| err(line, format!("cannot parse `{value}` for `{key}`")))
}

/// Parse an `on/off`, `true/false`, `yes/no`, `1/0` config value.
pub fn parse_bool(line: usize, key: &str, value: &str) -> Result<bool, ConfigError> {
    match value.to_ascii_lowercase().as_str() {
        "on" | "true" | "yes" | "1" => Ok(true),
        "off" | "false" | "no" | "0" => Ok(false),
        other => Err(err(line, format!("cannot parse `{other}` as boolean for `{key}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = r#"
            # system
            particles = 500
            volume_fraction = 0.3
            seed = 99
            algorithm = dense
            dt = 0.005
            kbt = 0.5       # cool
            lambda_rpy = 8
            e_k = 1e-3
            e_p = 1e-4
            steps = 250
            repulsion = off
            gravity = 0 0 -9.8
            lj_epsilon = 1.5
            trajectory = out.xyz
            trajectory_interval = 10
            report_interval = 50
            checkpoint = state.bin
            checkpoint_interval = 100
        "#;
        let s = SimSpec::parse(text).unwrap();
        assert_eq!(s.particles, 500);
        assert_eq!(s.volume_fraction, 0.3);
        assert_eq!(s.algorithm, Algorithm::Dense);
        assert_eq!(s.dt, 0.005);
        assert_eq!(s.lambda_rpy, 8);
        assert!(!s.repulsion);
        assert_eq!(s.gravity.unwrap().z, -9.8);
        assert_eq!(s.lj_epsilon, 1.5);
        assert_eq!(s.trajectory.as_deref(), Some("out.xyz"));
        assert_eq!(s.checkpoint_interval, 100);
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let s = SimSpec::parse("particles = 64\n").unwrap();
        assert_eq!(s.particles, 64);
        assert_eq!(s.algorithm, Algorithm::MatrixFree);
        assert_eq!(s.lambda_rpy, 16);
        assert!(s.repulsion);
        assert!(s.gravity.is_none());
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        let e = SimSpec::parse("particles = 10\nbogus = 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn rejects_duplicates_and_syntax_errors() {
        assert!(SimSpec::parse("dt = 0.01\ndt = 0.02\n")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(SimSpec::parse("just a line\n").unwrap_err().message.contains("key = value"));
        assert!(SimSpec::parse("dt =\n").unwrap_err().message.contains("empty value"));
        assert!(SimSpec::parse("dt = fast\n").unwrap_err().message.contains("cannot parse"));
    }

    #[test]
    fn validation_catches_physical_nonsense() {
        assert!(SimSpec::parse("particles = 0\n").is_err());
        assert!(SimSpec::parse("volume_fraction = 0.9\n").is_err());
        assert!(SimSpec::parse("dt = -1\n").is_err());
        assert!(SimSpec::parse("e_k = 2\n").is_err());
        assert!(SimSpec::parse("algorithm = dense\nparticles = 100000\n").is_err());
        assert!(SimSpec::parse("trajectory = a.xyz\ntrajectory_interval = 0\n").is_err());
    }

    #[test]
    fn validation_rejects_every_non_finite_or_non_positive_scalar() {
        // (config line, word the message must carry). Each of these used to
        // parse and validate; `deadline_seconds = 1e30` then panicked the
        // daemon's worker thread in `Duration::from_secs_f64`.
        let rejected = [
            ("dt = nan", "dt"),
            ("dt = inf", "dt"),
            ("dt = 0", "dt"),
            ("kbt = nan", "kbt"),
            ("kbt = -1", "kbt"),
            ("kbt = inf", "kbt"),
            ("radius = 0", "radius"),
            ("radius = -1", "radius"),
            ("radius = nan", "radius"),
            ("radius = inf", "radius"),
            ("viscosity = 0", "viscosity"),
            ("viscosity = -2", "viscosity"),
            ("viscosity = nan", "viscosity"),
            ("viscosity = inf", "viscosity"),
            ("lj_epsilon = nan", "lj_epsilon"),
            ("lj_epsilon = inf", "lj_epsilon"),
            ("lj_epsilon = -1", "lj_epsilon"),
            ("gravity = nan 0 0", "gravity"),
            ("gravity = 0 -inf 0", "gravity"),
            ("volume_fraction = nan", "volume_fraction"),
            ("e_k = nan", "e_k"),
            ("e_p = nan", "e_p"),
            ("boundary = open\ntheta = nan", "theta"),
            ("deadline_seconds = 1e30", "deadline_seconds"),
            ("deadline_seconds = inf", "deadline_seconds"),
            ("deadline_seconds = nan", "deadline_seconds"),
            ("deadline_seconds = -1", "deadline_seconds"),
        ];
        for (text, key) in rejected {
            let e = SimSpec::parse(text).expect_err(text);
            assert!(e.message.contains(key), "`{text}`: {}", e.message);
        }
        // The edges that stay legal.
        for text in ["kbt = 0", "lj_epsilon = 0", "gravity = 0 0 -9.8", "deadline_seconds = 1e9"] {
            SimSpec::parse(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        }
    }

    #[test]
    fn displacement_modes_parse_with_aliases() {
        for (text, want) in [
            ("displacement = block-krylov\n", Displacement::BlockKrylov),
            ("displacement = block\n", Displacement::BlockKrylov),
            ("displacement = split-ewald\n", Displacement::SplitEwald),
            ("displacement = PSE\n", Displacement::SplitEwald),
        ] {
            assert_eq!(SimSpec::parse(text).unwrap().displacement, want, "{text}");
        }
        // The ablation-only single-vector and Chebyshev modes are gone: a
        // typed error that lists the two remaining values, never a panic.
        for gone in ["single-krylov", "single", "qr", "chebyshev"] {
            let e = SimSpec::parse(&format!("displacement = {gone}\n")).unwrap_err();
            assert!(e.message.contains("unknown displacement"), "{gone}: {}", e.message);
            assert!(e.message.contains("(block-krylov | split-ewald)"), "{gone}");
        }
        // Dense Cholesky has no displacement solver to select.
        assert!(SimSpec::parse("algorithm = dense\ndisplacement = pse\n")
            .unwrap_err()
            .message
            .contains("no effect"));
    }

    #[test]
    fn boundary_and_theta_parse_and_validate() {
        let s = SimSpec::parse("boundary = open\ntheta = 0.5\n").unwrap();
        assert_eq!(s.boundary, Boundary::Open);
        assert_eq!(s.theta, Some(0.5));
        let s = SimSpec::parse("boundary = periodic\n").unwrap();
        assert_eq!(s.boundary, Boundary::Periodic);
        assert!(s.theta.is_none());
        assert!(SimSpec::parse("boundary = torus\n")
            .unwrap_err()
            .message
            .contains("unknown boundary"));
        // theta without open boundary, theta out of range.
        assert!(SimSpec::parse("theta = 0.5\n").unwrap_err().message.contains("boundary = open"));
        assert!(SimSpec::parse("boundary = open\ntheta = 1.5\n")
            .unwrap_err()
            .message
            .contains("outside (0, 1)"));
        // Open boundaries exclude the periodic-only machinery.
        assert!(SimSpec::parse("boundary = open\nalgorithm = dense\n")
            .unwrap_err()
            .message
            .contains("periodic-only"));
        assert!(SimSpec::parse("boundary = open\ndisplacement = split-ewald\n")
            .unwrap_err()
            .message
            .contains("periodic-only"));
    }

    #[test]
    fn config_text_roundtrips_boundary_and_theta() {
        let spec = SimSpec { boundary: Boundary::Open, theta: Some(0.45), ..SimSpec::default() };
        let back = SimSpec::parse(&spec.to_config_text()).unwrap();
        assert_eq!(back.boundary, Boundary::Open);
        assert_eq!(back.theta, Some(0.45));
    }

    #[test]
    fn the_eval_key_is_gone_with_a_typed_error_naming_the_tuner() {
        // The evaluation is a tuner output since PR 23: every old spelling
        // is a parse error that says who decides now, never a panic and
        // never silently ignored.
        for text in ["boundary = open\neval = fmm\n", "eval = tree\n", "EVAL = direct\n"] {
            let e = SimSpec::parse(text).unwrap_err();
            assert!(e.line > 0 && e.message.contains("unknown key `eval`"), "{text}: {e}");
            assert!(e.message.contains("chosen by hibd_treecode::tune"), "{text}: {e}");
        }
        let spec = SimSpec { boundary: Boundary::Open, theta: Some(0.45), ..SimSpec::default() };
        assert!(!spec.to_config_text().contains("eval"));
    }

    #[test]
    fn theta_pins_a_hierarchical_evaluation_chosen_by_cost() {
        let spec = SimSpec::parse("boundary = open\nparticles = 300\ntheta = 0.45\n").unwrap();
        let t = spec.matrix_free_config().tree.expect("theta resolves explicit parameters");
        assert_eq!(t.theta, 0.45);
        assert_ne!(t.eval, hibd_treecode::TreeEval::Direct, "theta asks for a hierarchy");
        assert_eq!(t, hibd_treecode::tune_at_theta(300, 0.45, spec.e_p, 1.0, 1.0));
        // Without it the whole choice is the tuner's, made in `resolve_shape`.
        assert!(SimSpec::parse("boundary = open\n").unwrap().matrix_free_config().tree.is_none());
    }

    #[test]
    fn config_text_roundtrips_displacement() {
        let spec = SimSpec { displacement: Displacement::SplitEwald, ..SimSpec::default() };
        let back = SimSpec::parse(&spec.to_config_text()).unwrap();
        assert_eq!(back.displacement, Displacement::SplitEwald);
    }

    #[test]
    fn replicas_parse_validate_and_roundtrip() {
        assert_eq!(SimSpec::parse("particles = 8\n").unwrap().replicas, 1);
        let s = SimSpec::parse("replicas = 4\n").unwrap();
        assert_eq!(s.replicas, 4);
        assert!(SimSpec::parse("replicas = 0\n").unwrap_err().message.contains("at least 1"));
        assert!(SimSpec::parse("replicas = 3\nalgorithm = dense\n")
            .unwrap_err()
            .message
            .contains("matrix-free"));
        let spec = SimSpec { replicas: 6, ..SimSpec::default() };
        assert_eq!(SimSpec::parse(&spec.to_config_text()).unwrap().replicas, 6);
    }

    #[test]
    fn gravity_parsing_edge_cases() {
        assert!(SimSpec::parse("gravity = 1 2\n").unwrap_err().message.contains("three"));
        assert!(SimSpec::parse("gravity = a b c\n").is_err());
        let s = SimSpec::parse("gravity = -1.5 0 2e-3\n").unwrap();
        let g = s.gravity.unwrap();
        assert_eq!((g.x, g.y, g.z), (-1.5, 0.0, 2e-3));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = SimSpec::parse("\n# full line comment\n  \nparticles = 7 # trailing\n").unwrap();
        assert_eq!(s.particles, 7);
    }

    #[test]
    fn deadline_parses_validates_and_roundtrips() {
        assert!(SimSpec::parse("particles = 8\n").unwrap().deadline_seconds.is_none());
        let s = SimSpec::parse("deadline_seconds = 2.5\n").unwrap();
        assert_eq!(s.deadline_seconds, Some(2.5));
        assert!(SimSpec::parse("deadline_seconds = 0\n").unwrap_err().message.contains("positive"));
        assert!(SimSpec::parse("deadline_seconds = -3\n").is_err());
        let spec = SimSpec { deadline_seconds: Some(30.0), ..SimSpec::default() };
        assert_eq!(SimSpec::parse(&spec.to_config_text()).unwrap().deadline_seconds, Some(30.0));
    }

    #[test]
    fn spec_builders_match_the_boundary() {
        let spec = SimSpec { particles: 9, ..SimSpec::default() };
        let sys = spec.build_system(3);
        assert_eq!((sys.len(), sys.boundary()), (9, Boundary::Periodic));
        let open = SimSpec { particles: 9, boundary: Boundary::Open, ..SimSpec::default() };
        assert_eq!(open.build_system(3).boundary(), Boundary::Open);
        // build_system is a pure function of (spec, seed).
        let again = spec.build_system(3);
        assert_eq!(sys.positions(), again.positions());

        let cfg = spec.matrix_free_config();
        assert_eq!(cfg.lambda_rpy, spec.lambda_rpy);
        assert_eq!(spec.forces().len(), 1, "default spec turns on repulsion only");
        let heavy = SimSpec { gravity: Some(Vec3::new(0.0, 0.0, -1.0)), ..spec };
        assert_eq!(heavy.forces().len(), 2);
    }
}
