//! One clock, one sink: a driver's `snapshot()` is the job's whole phase
//! account. Every span is stopped into a local `Snapshot` *and* (when
//! enabled) the global recorder by the same `Stopwatch::stop`, so with one
//! driver alone in the process the two must agree exactly — across window
//! refreshes, i.e. including the operators the driver has already dropped.

use hibd_core::mf_bd::{MatrixFreeBd, MatrixFreeConfig};
use hibd_core::system::ParticleSystem;
use hibd_telemetry::{self as telemetry, Counter, Phase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// The recorder is process-global; the tests of this file share it.
static RECORDER: Mutex<()> = Mutex::new(());

const LAMBDA: usize = 3;

/// Run two full windows with the recorder on; return the driver's
/// account and the recorder's.
fn run_recorded(system: ParticleSystem, cfg: MatrixFreeConfig) -> [telemetry::Snapshot; 2] {
    let _guard = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::reset();
    telemetry::enable();
    let mut bd = MatrixFreeBd::new(system, cfg, 17).unwrap();
    bd.run(2 * LAMBDA).unwrap();
    let global = telemetry::snapshot();
    telemetry::disable();
    [bd.snapshot(), global]
}

#[test]
fn periodic_account_equals_the_recorder_across_windows() {
    let mut rng = StdRng::seed_from_u64(3);
    let system = ParticleSystem::random_suspension(20, 0.1, &mut rng);
    let cfg = MatrixFreeConfig { lambda_rpy: LAMBDA, ..Default::default() };
    let [job, global] = run_recorded(system, cfg);

    assert_eq!(job.phases, global.phases, "driver account and recorder disagree");
    assert_eq!(job.phase(Phase::PmeSetup).count, 3, "plans + two windows");
    assert_eq!(job.phase(Phase::Displacements).count, 2);
    assert!(job.phase(Phase::Spreading).count > 2 * LAMBDA as u64, "Krylov applies are counted");
    // The solver reports its iterations to the recorder; the driver adds up
    // what `block_lanczos_sqrt` returned. Same number.
    assert!(job.counter(Counter::LanczosIterations) > 0);
    assert_eq!(job.counter(Counter::LanczosIterations), global.counter(Counter::LanczosIterations));
}

#[test]
fn open_account_carries_the_tree_phases() {
    let mut rng = StdRng::seed_from_u64(5);
    let system = ParticleSystem::random_cluster_with(16, 0.1, 1.0, 1.0, &mut rng);
    let cfg = MatrixFreeConfig { lambda_rpy: LAMBDA, ..Default::default() };
    let [job, global] = run_recorded(system, cfg);

    assert_eq!(job.phases, global.phases, "driver account and recorder disagree");
    assert_eq!(job.phase(Phase::TreeBuild).count, 3, "plans + two windows");
    assert!(job.phase(Phase::NearField).count > 2 * LAMBDA as u64);
    // Sixteen particles tune to the exact direct sum: one pass per tile, no
    // upward sweep, no far field.
    for ph in [Phase::Upward, Phase::FarField, Phase::M2l, Phase::Downward] {
        assert_eq!(job.phase(ph).count, 0, "{}", ph.name());
    }
    assert_eq!(job.counter(Counter::LanczosIterations), global.counter(Counter::LanczosIterations));
}
