//! The ensemble correctness contract, end to end: every replica stepped by
//! [`EnsembleRunner`] must reproduce the trajectory of a standalone
//! [`MatrixFreeBd`] with the same system, config, and seed — bit for bit,
//! and span for span — while same-shape replicas share one set of plans.

use hibd_core::forces::RepulsiveHarmonic;
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_core::system::ParticleSystem;
use hibd_engine::EnsembleRunner;
use hibd_telemetry::{Counter, Phase};
use hibd_treecode::TreeEval;
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
    let cfg = MatrixFreeConfig { lambda_rpy: 2, ..Default::default() };
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
    // The tuned parameters: at n = 14 the exact direct sum, one pass per tile.
    let tuned = runner.replica(0).shape().tree.expect("open shape");
    assert_eq!(tuned, hibd_treecode::tune(14, cfg.target_ep, 1.0, 1.0));
    assert_eq!(tuned.eval, TreeEval::Direct);
    assert_eq!(snap.phase(Phase::Upward).count, 0, "the direct sum has no upward pass");
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

    // A replica's account is the standalone driver's, span for span: drift
    // FFTs and `Stepping` included, both windows' Krylov applies included.
    for (r, s) in snaps[..R].iter().enumerate() {
        let mut alone = MatrixFreeBd::new(base.clone(), cfg, 5 + r as u64).unwrap();
        alone.run(STEPS).unwrap();
        let want = alone.snapshot();
        assert_eq!(runner.job_snapshot(r).phases, s.snapshot.phases, "{}", s.label);
        for ph in Phase::ALL {
            // The standalone driver built its own plans; the replica's came
            // from the cache.
            let own_plans = u64::from(ph == Phase::PmeSetup);
            let (got, want) = (s.snapshot.phase(ph).count, want.phase(ph).count - own_plans);
            assert_eq!(got, want, "{} {}", s.label, ph.name());
        }
        assert_eq!(s.snapshot.phase(Phase::Stepping).count, STEPS as u64, "{}", s.label);
        assert!(s.snapshot.phase(Phase::ForwardFft).count > STEPS as u64, "{}", s.label);
        let iterations = s.snapshot.counter(Counter::LanczosIterations);
        assert!(iterations > 0, "{}", s.label);
        assert_eq!(iterations, want.counter(Counter::LanczosIterations), "{}", s.label);
    }
    // No work is shared: `shared` carries the plan-cache counters only
    // (no evictions in an unbounded cache).
    let shared = &snaps[R].snapshot;
    assert!(Phase::ALL.iter().all(|&ph| shared.phase(ph).count == 0));
    for c in Counter::ALL {
        let want = match c {
            Counter::PlanCacheMisses => 1,
            Counter::PlanCacheHits => R as u64 - 1,
            _ => 0,
        };
        assert_eq!(shared.counter(c), want, "shared {c:?}");
    }
}
