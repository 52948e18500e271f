//! The ensemble correctness contract, end to end: every replica stepped by
//! [`EnsembleRunner`] must reproduce the trajectory of a standalone
//! [`MatrixFreeBd`] with the same system, config, and seed — bit for bit —
//! even though the drift FFTs of same-shape replicas run batched.

use hibd_core::forces::RepulsiveHarmonic;
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_core::system::ParticleSystem;
use hibd_engine::EnsembleRunner;
use hibd_telemetry::{Counter, Phase};
use hibd_treecode::TreeParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn periodic_system(n: usize, phi: f64, seed: u64) -> ParticleSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    ParticleSystem::random_suspension(n, phi, &mut rng)
}

fn open_system(n: usize, phi: f64, seed: u64) -> ParticleSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    ParticleSystem::random_cluster_with(n, phi, 1.0, 1.0, &mut rng)
}

fn standalone_trajectory(
    sys: ParticleSystem,
    cfg: MatrixFreeConfig,
    seed: u64,
    steps: usize,
) -> Vec<[u64; 3]> {
    let mut bd = MatrixFreeBd::new(sys, cfg, seed).unwrap();
    bd.add_force(RepulsiveHarmonic::default());
    bd.run(steps).unwrap();
    bd.system()
        .positions()
        .iter()
        .map(|p| [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
        .collect()
}

#[test]
fn periodic_replicas_match_standalone_runs_bitwise() {
    const R: usize = 3;
    const STEPS: usize = 6;
    let cfg = MatrixFreeConfig { lambda_rpy: 4, ..Default::default() };
    let base = periodic_system(18, 0.1, 7);

    let jobs: Vec<_> = (0..R as u64).map(|r| (base.clone(), 90 + r)).collect();
    let mut runner = EnsembleRunner::new(cfg, jobs).unwrap();
    assert_eq!(runner.cache().misses(), 1, "one shape, one plan build");
    assert_eq!(runner.cache().hits(), R as u64 - 1);
    for r in 0..R {
        runner.replica_mut(r).add_force(RepulsiveHarmonic::default());
    }
    runner.run(STEPS).unwrap();

    for r in 0..R {
        let want = standalone_trajectory(base.clone(), cfg, 90 + r as u64, STEPS);
        let got: Vec<[u64; 3]> = runner
            .replica(r)
            .system()
            .positions()
            .iter()
            .map(|p| [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
            .collect();
        assert_eq!(got, want, "replica {r} trajectory diverged from its standalone run");
    }
}

#[test]
fn open_replicas_match_standalone_runs_bitwise() {
    const R: usize = 2;
    const STEPS: usize = 4;
    // Pin tree params: the measured tuner would otherwise re-run per job.
    let cfg =
        MatrixFreeConfig { lambda_rpy: 2, tree: Some(TreeParams::default()), ..Default::default() };
    let base = open_system(14, 0.1, 31);

    let jobs: Vec<_> = (0..R as u64).map(|r| (base.clone(), 400 + r)).collect();
    let mut runner = EnsembleRunner::new(cfg, jobs).unwrap();
    for r in 0..R {
        runner.replica_mut(r).add_force(RepulsiveHarmonic::default());
    }
    runner.run(STEPS).unwrap();

    // The job snapshot is the driver's own account, so the tree phases
    // reach per-job status/profile output without the engine's help.
    let snap = runner.job_snapshot(0);
    assert_eq!(snap.phase(Phase::TreeBuild).count, 2, "one operator per window (plans are shared)");
    assert!(snap.phase(Phase::NearField).count >= STEPS as u64);
    assert_eq!(snap.phase(Phase::Upward).count, snap.phase(Phase::NearField).count);
    assert_eq!(snap.phase(Phase::Spreading).count, 0, "no PME on an open job");

    for r in 0..R {
        let want = standalone_trajectory(base.clone(), cfg, 400 + r as u64, STEPS);
        let got: Vec<[u64; 3]> = runner
            .replica(r)
            .system()
            .positions()
            .iter()
            .map(|p| [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
            .collect();
        assert_eq!(got, want, "open replica {r} diverged from its standalone run");
    }
}

#[test]
fn ensemble_memory_undercuts_standalone_sum() {
    const R: usize = 4;
    let cfg = MatrixFreeConfig { lambda_rpy: 4, ..Default::default() };
    let base = periodic_system(20, 0.1, 3);

    let mut standalone_sum = 0;
    for r in 0..R as u64 {
        let mut bd = MatrixFreeBd::new(base.clone(), cfg, 60 + r).unwrap();
        bd.step().unwrap();
        standalone_sum += bd.operator_memory_bytes();
    }

    let jobs: Vec<_> = (0..R as u64).map(|r| (base.clone(), 60 + r)).collect();
    let mut runner = EnsembleRunner::new(cfg, jobs).unwrap();
    runner.step().unwrap();
    let ensemble_total = runner.memory_bytes();
    assert!(
        ensemble_total < standalone_sum,
        "{R} plan-sharing replicas ({ensemble_total} B) must undercut \
         {R} standalone operators ({standalone_sum} B)"
    );
}

#[test]
fn job_snapshots_attribute_per_replica_work() {
    const R: usize = 2;
    const STEPS: usize = 3;
    let cfg = MatrixFreeConfig { lambda_rpy: 2, ..Default::default() };
    let base = periodic_system(12, 0.1, 17);
    let jobs: Vec<_> = (0..R as u64).map(|r| (base.clone(), 5 + r)).collect();
    let mut runner = EnsembleRunner::new(cfg, jobs).unwrap();
    runner.run(STEPS).unwrap();

    let snaps = runner.job_snapshots();
    assert_eq!(snaps.len(), R + 1);
    let labels: Vec<&str> = snaps.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, ["r0", "r1", "shared"]);

    for s in &snaps[..R] {
        assert_eq!(s.snapshot.phase(Phase::Stepping).count, STEPS as u64, "{}", s.label);
        assert!(s.snapshot.phase(Phase::Displacements).count > 0, "{}", s.label);
        assert!(s.snapshot.phase(Phase::Influence).count > 0, "{}", s.label);
        // The operator's own phases: per-step drift stages plus the Krylov
        // applies of both windows (the first window's operator is retired).
        for ph in [Phase::Spreading, Phase::RealSpace, Phase::Interpolation] {
            assert!(s.snapshot.phase(ph).count > STEPS as u64, "{} {}", s.label, ph.name());
        }
        assert_eq!(s.snapshot.phase(Phase::TreeBuild).count, 0, "{}", s.label);
        assert!(s.snapshot.counter(Counter::LanczosIterations) > 0, "{}", s.label);
    }
    let shared = &snaps[R].snapshot;
    assert_eq!(shared.phase(Phase::ForwardFft).count, STEPS as u64);
    assert_eq!(shared.phase(Phase::InverseFft).count, STEPS as u64);
    assert_eq!(shared.counter(Counter::PlanCacheMisses), 1);
    assert_eq!(shared.counter(Counter::PlanCacheHits), R as u64 - 1);
}
