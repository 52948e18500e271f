//! Property: any valid SimSpec survives a serialize -> parse roundtrip.

use hibd_cli::config::{Algorithm, Displacement, SimSpec};
use hibd_core::system::Boundary;
use hibd_mathx::Vec3;
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = SimSpec> {
    (
        (1usize..3000, 0.01f64..0.5, 0.1f64..3.0, 0.1f64..5.0, any::<u64>()),
        (0u8..3, 1e-4f64..0.1, 0.0f64..4.0, 1usize..64),
        (1e-6f64..0.9, 1e-6f64..0.4, 1usize..5000, prop::bool::ANY),
        (
            prop::option::of((-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0)),
            0.0f64..3.0,
            prop::option::of("[a-z]{1,8}\\.xyz"),
            1usize..100,
        ),
        (
            prop::bool::ANY,
            prop::option::of(0.05f64..0.95),
            1usize..9,
            prop::option::of(0.5f64..7200.0),
        ),
    )
        .prop_map(
            |(
                (particles, volume_fraction, radius, viscosity, seed),
                (solver, dt, kbt, lambda_rpy),
                (e_k, e_p, steps, repulsion),
                (gravity, lj_epsilon, trajectory, interval),
                (open, theta, replicas, deadline),
            )| {
                // solver 0 = dense, 1..=2 = matrix-free displacement modes.
                SimSpec {
                    particles,
                    volume_fraction,
                    radius,
                    viscosity,
                    seed,
                    algorithm: if solver == 0 && particles <= 5000 {
                        Algorithm::Dense
                    } else {
                        Algorithm::MatrixFree
                    },
                    displacement: match solver {
                        0 | 1 => Displacement::BlockKrylov,
                        _ => Displacement::SplitEwald,
                    },
                    dt,
                    kbt,
                    lambda_rpy,
                    e_k,
                    e_p,
                    steps,
                    repulsion,
                    gravity: gravity.map(|(x, y, z)| Vec3::new(x, y, z)),
                    lj_epsilon,
                    trajectory,
                    trajectory_interval: interval,
                    report_interval: interval,
                    checkpoint: None,
                    checkpoint_interval: 0,
                    boundary: if open { Boundary::Open } else { Boundary::Periodic },
                    // theta only tunes the open-boundary operator;
                    // validate() rejects it for periodic specs.
                    theta: if open { theta } else { None },
                    replicas,
                    deadline_seconds: deadline,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_preserves_spec(spec in spec_strategy()) {
        prop_assume!(spec.validate().is_ok());
        let text = spec.to_config_text();
        let parsed = SimSpec::parse(&text).unwrap();
        prop_assert_eq!(parsed.particles, spec.particles);
        prop_assert_eq!(parsed.algorithm, spec.algorithm);
        prop_assert_eq!(parsed.displacement, spec.displacement);
        prop_assert!((parsed.volume_fraction - spec.volume_fraction).abs() < 1e-15);
        prop_assert!((parsed.dt - spec.dt).abs() < 1e-18);
        prop_assert!((parsed.e_k - spec.e_k).abs() < 1e-18);
        prop_assert!((parsed.e_p - spec.e_p).abs() < 1e-18);
        prop_assert_eq!(parsed.lambda_rpy, spec.lambda_rpy);
        prop_assert_eq!(parsed.steps, spec.steps);
        prop_assert_eq!(parsed.repulsion, spec.repulsion);
        prop_assert_eq!(parsed.gravity.is_some(), spec.gravity.is_some());
        if let (Some(a), Some(b)) = (parsed.gravity, spec.gravity) {
            prop_assert!((a - b).norm() < 1e-12);
        }
        prop_assert_eq!(&parsed.trajectory, &spec.trajectory);
        prop_assert_eq!(parsed.seed, spec.seed);
        prop_assert_eq!(parsed.replicas, spec.replicas);
        prop_assert_eq!(parsed.boundary, spec.boundary);
        prop_assert_eq!(parsed.theta.is_some(), spec.theta.is_some());
        if let (Some(a), Some(b)) = (parsed.theta, spec.theta) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
