//! Dynamic membership and fault isolation: jobs admitted mid-run start
//! stepping at the next step boundary on the plans their shape already has,
//! retired jobs leave without perturbing the rest, and a panicking job
//! fails alone — all without breaking the replica-vs-standalone bitwise
//! contract.

use hibd_core::ewald_bd::BdError;
use hibd_core::forces::{Force, RepulsiveHarmonic};
use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_core::system::ParticleSystem;
use hibd_engine::{EnsembleRunner, JobFault, PlanCache};
use hibd_treecode::TreeParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn periodic_system(n: usize, phi: f64, seed: u64) -> ParticleSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    ParticleSystem::random_suspension(n, phi, &mut rng)
}

fn positions_bits(bd: &MatrixFreeBd) -> Vec<[u64; 3]> {
    bd.system()
        .positions()
        .iter()
        .map(|p| [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
        .collect()
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
    positions_bits(&bd)
}

#[test]
fn admit_mid_run_and_retire_early_stay_bitwise() {
    const STEPS_A: usize = 6;
    const STEPS_B: usize = 4;
    const JOIN_AT: usize = 2;
    let cfg = MatrixFreeConfig { lambda_rpy: 2, ..Default::default() };
    let base = periodic_system(16, 0.1, 11);

    let mut runner = EnsembleRunner::with_cache(PlanCache::new());
    let a = runner.admit(base.clone(), cfg, 100).unwrap();
    runner.replica_mut(a).add_force(RepulsiveHarmonic::default());
    runner.run(JOIN_AT).unwrap();

    // b joins mid-run on a's plans; from here the pair steps together.
    let b = runner.admit(base.clone(), cfg, 200).unwrap();
    runner.replica_mut(b).add_force(RepulsiveHarmonic::default());
    assert_eq!(runner.cache().hits(), 1, "the second admit reuses the plans");
    assert_eq!(runner.cache().misses(), 1, "same shape jobs share one plan build");
    runner.run(STEPS_B).unwrap();

    // b finishes first and retires; a keeps going alone.
    let done_b = runner.retire(b).expect("b was live");
    assert_eq!(done_b.completed_steps(), STEPS_B as u64);
    assert_eq!(runner.live_slots(), vec![a]);
    runner.run(STEPS_A - JOIN_AT - STEPS_B).unwrap();

    let want_a = standalone_trajectory(base.clone(), cfg, 100, STEPS_A);
    let want_b = standalone_trajectory(base, cfg, 200, STEPS_B);
    assert_eq!(positions_bits(runner.replica(a)), want_a, "job a diverged");
    assert_eq!(positions_bits(&done_b), want_b, "job b diverged");
}

#[test]
fn retired_slots_are_reused() {
    let cfg = MatrixFreeConfig { lambda_rpy: 2, ..Default::default() };
    let base = periodic_system(12, 0.1, 5);
    let mut runner = EnsembleRunner::with_cache(PlanCache::new());
    let a = runner.admit(base.clone(), cfg, 1).unwrap();
    let b = runner.admit(base.clone(), cfg, 2).unwrap();
    assert_eq!((a, b), (0, 1));
    runner.retire(a);
    assert_eq!(runner.len(), 1);
    assert_eq!(runner.live_slots(), vec![1]);
    let c = runner.admit(base, cfg, 3).unwrap();
    assert_eq!(c, 0, "freed slot 0 is recycled");
    assert_eq!(runner.len(), 2);
    assert!(runner.retire(5).is_none(), "out-of-range retire is a no-op");
    assert!(runner.retire(c).is_some());
    assert!(runner.retire(c).is_none(), "double retire is a no-op");
}

/// A force that panics once the step counter reaches a trigger value —
/// the poison pill for the isolation tests.
struct PanicAt {
    calls: usize,
    trigger: usize,
}

impl Force for PanicAt {
    fn accumulate(&mut self, _system: &ParticleSystem, _f: &mut [f64]) {
        self.calls += 1;
        assert!(self.calls < self.trigger, "poison pill");
    }

    fn name(&self) -> &'static str {
        "panic-at"
    }
}

/// Three same-shape jobs, the middle one poisoned at `POISON_STEP`.
fn poisoned_runner(base: &ParticleSystem, cfg: MatrixFreeConfig) -> (EnsembleRunner, [usize; 3]) {
    let mut runner = EnsembleRunner::with_cache(PlanCache::new());
    let good0 = runner.admit(base.clone(), cfg, 300).unwrap();
    let bad = runner.admit(base.clone(), cfg, 999).unwrap();
    let good1 = runner.admit(base.clone(), cfg, 301).unwrap();
    runner.replica_mut(good0).add_force(RepulsiveHarmonic::default());
    runner.replica_mut(bad).add_force(PanicAt { calls: 0, trigger: POISON_STEP });
    runner.replica_mut(good1).add_force(RepulsiveHarmonic::default());
    (runner, [good0, bad, good1])
}

const STEPS: usize = 5;
const POISON_STEP: usize = 3;

/// `step()` and `step_isolated()` are one body: the poisoned job is a typed
/// failure naming its slot under both (no unwind through the engine), and
/// the survivors' trajectories never see it.
#[test]
fn panicking_job_fails_alone_and_bitwise() {
    let cfg = MatrixFreeConfig { lambda_rpy: 2, ..Default::default() };
    let base = periodic_system(14, 0.1, 23);
    let (mut isolated, [good0, bad, good1]) = poisoned_runner(&base, cfg);
    let (mut plain, _) = poisoned_runner(&base, cfg);

    // Silence the default panic hook for the expected poison-pill panics.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failed = Vec::new();
    let mut errors = Vec::new();
    for _ in 0..STEPS {
        for failure in isolated.step_isolated() {
            failed.push(failure.slot);
            assert!(
                matches!(failure.fault, JobFault::Panic(ref m) if m.contains("poison pill")),
                "unexpected fault: {}",
                failure.fault
            );
            isolated.retire(failure.slot);
        }
        if let Err(failure) = plain.step() {
            assert!(matches!(failure.fault, JobFault::Panic(_)), "{failure}");
            errors.push(failure.to_string());
            plain.retire(failure.slot);
        }
    }
    std::panic::set_hook(hook);

    assert_eq!(failed, vec![bad], "exactly the poisoned job fails");
    assert_eq!(errors, [format!("job in slot {bad}: panic: poison pill")]);
    assert_eq!(isolated.len(), 2, "survivors keep running");

    // The survivors' trajectories never saw the poisoned neighbor.
    let want0 = standalone_trajectory(base.clone(), cfg, 300, STEPS);
    let want1 = standalone_trajectory(base, cfg, 301, STEPS);
    for (runner, tag) in [(&isolated, "step_isolated"), (&plain, "step")] {
        assert_eq!(positions_bits(runner.replica(good0)), want0, "good0 diverged under {tag}");
        assert_eq!(positions_bits(runner.replica(good1)), want1, "good1 diverged under {tag}");
    }
}

/// A job whose explicit open-boundary parameters are invalid is refused at
/// admission with a typed setup error naming the field — the faulty job
/// fails alone: nothing is admitted for it, nothing panics, and the jobs
/// already running (and the ones admitted after it) never notice.
#[test]
fn bad_tree_params_fail_their_own_admission_only() {
    let open = {
        let mut rng = StdRng::seed_from_u64(41);
        ParticleSystem::random_cluster_with(12, 0.1, 1.0, 1.0, &mut rng)
    };
    let cfg = MatrixFreeConfig { lambda_rpy: 2, ..Default::default() };
    let ok = TreeParams::default();
    let mut runner = EnsembleRunner::with_cache(PlanCache::new());
    let good0 = runner.admit(open.clone(), cfg, 70).unwrap();
    runner.replica_mut(good0).add_force(RepulsiveHarmonic::default());
    runner.step().unwrap();
    for (bad, field) in [
        (TreeParams { theta: 0.0, ..ok }, "theta 0"),
        (TreeParams { leaf_capacity: 0, ..ok }, "leaf_capacity 0"),
        (TreeParams { cheb_order: 12, ..ok }, "cheb_order 12"),
    ] {
        let faulty = MatrixFreeConfig { tree: Some(bad), ..cfg };
        match runner.admit(open.clone(), faulty, 71) {
            Err(BdError::Setup(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
            Err(e) => panic!("{field}: wrong error {e}"),
            Ok(slot) => panic!("{field}: admitted in slot {slot}"),
        }
        assert_eq!(runner.len(), 1, "{field}: nothing was admitted");
    }
    let good1 = runner.admit(open.clone(), cfg, 72).unwrap();
    runner.replica_mut(good1).add_force(RepulsiveHarmonic::default());
    for _ in 0..3 {
        runner.step().unwrap();
    }
    // good0 ran 4 steps, good1 the last 3: both are their standalone runs.
    assert_eq!(
        positions_bits(runner.replica(good0)),
        standalone_trajectory(open.clone(), cfg, 70, 4)
    );
    assert_eq!(positions_bits(runner.replica(good1)), standalone_trajectory(open, cfg, 72, 3));
}
