//! Allocation regression for the ensemble runner: engine steps inside an
//! operator window must not grow the heap. The runner owns no scratch of
//! its own; each driver's operator and step buffers are grown on its first
//! step and reused. The one transient is `MatrixFreeBd::step`'s force
//! vector (freed within the step), so the invariant is zero *net* growth.

use hibd_alloctrack::{exclusive, measure};
use hibd_core::mf_bd::MatrixFreeConfig;
use hibd_core::system::ParticleSystem;
use hibd_engine::EnsembleRunner;
use rand::rngs::StdRng;
use rand::SeedableRng;

hibd_alloctrack::install!();

const TOL: isize = 16 * 1024;

#[test]
fn lockstep_steps_within_a_window_do_not_grow_the_heap() {
    let _guard = exclusive();
    let mut rng = StdRng::seed_from_u64(9);
    let base = ParticleSystem::random_suspension(20, 0.1, &mut rng);
    let cfg = MatrixFreeConfig { lambda_rpy: 8, ..Default::default() };
    let jobs: Vec<_> = (0..3u64).map(|r| (base.clone(), 70 + r)).collect();
    let mut runner = EnsembleRunner::new(cfg, jobs).unwrap();

    // Step 1 refreshes every window and grows each driver's scratch; steps
    // 2..6 stay inside the windows.
    runner.step().unwrap();
    let mem = runner.memory_bytes();
    let (m, ()) = measure(|| {
        for _ in 0..5 {
            runner.step().unwrap();
        }
    });
    assert!(m.net_bytes.abs() <= TOL, "5 engine steps leaked {} net bytes", m.net_bytes);
    assert_eq!(runner.memory_bytes(), mem, "ensemble scratch grew inside the window");
}
