//! Property-based tests of the PME building blocks.

use hibd_mathx::Vec3;
use hibd_pme::pmat::build_interp_matrix;
use hibd_pme::spread::{interpolate, interpolate_multi, SpreadPlan};
use hibd_pme::{PmeOperator, PmeParams};
use proptest::prelude::*;

fn particles(max_n: usize, box_l: f64) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (0.0..box_l, 0.0..box_l, 0.0..box_l).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interpolation_matrix_rows_are_a_partition_of_unity(
        (pos, k, p) in (prop::sample::select(vec![12usize, 16, 20, 24]),
                        prop::sample::select(vec![4usize, 6]))
            .prop_flat_map(|(k, p)| (particles(30, 10.0), Just(k), Just(p)))
    ) {
        let pm = build_interp_matrix(&pos, 10.0, k, p);
        for r in 0..pos.len() {
            let (cols, vals) = pm.mat.row(r);
            let s: f64 = vals.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-11, "row {} sums to {}", r, s);
            prop_assert!(vals.iter().all(|&v| v >= -1e-15));
            prop_assert!(cols.iter().all(|&c| (c as usize) < k * k * k));
        }
    }

    #[test]
    fn parallel_spreading_equals_serial(
        (pos, forces, k, p) in (prop::sample::select(vec![16usize, 20, 24]),
                                prop::sample::select(vec![4usize]))
            .prop_flat_map(|(k, p)| {
                particles(40, 10.0).prop_flat_map(move |pos| {
                    let n = pos.len();
                    (Just(pos), prop::collection::vec(-1.0f64..1.0, 3 * n), Just(k), Just(p))
                })
            })
    ) {
        let pm = build_interp_matrix(&pos, 10.0, k, p);
        let plan = SpreadPlan::new(&pm.scaled, k, p);
        let k3 = k * k * k;
        let mut par = vec![0.0; 3 * k3];
        let mut ser = vec![0.0; 3 * k3];
        plan.spread(&pm, &forces, &mut par);
        plan.spread_serial(&pm, &forces, &mut ser);
        let maxd = par.iter().zip(&ser).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        prop_assert!(maxd < 1e-13, "max deviation {}", maxd);
    }

    #[test]
    fn spreading_conserves_each_force_component(
        (pos, forces) in particles(40, 12.0).prop_flat_map(|pos| {
            let n = pos.len();
            (Just(pos), prop::collection::vec(-1.0f64..1.0, 3 * n))
        })
    ) {
        let (k, p) = (18usize, 4usize);
        let pm = build_interp_matrix(&pos, 12.0, k, p);
        let plan = SpreadPlan::new(&pm.scaled, k, p);
        let k3 = k * k * k;
        let mut mesh = vec![0.0; 3 * k3];
        plan.spread(&pm, &forces, &mut mesh);
        for theta in 0..3 {
            let mesh_total: f64 = mesh[theta * k3..(theta + 1) * k3].iter().sum();
            let force_total: f64 = forces.iter().skip(theta).step_by(3).sum();
            prop_assert!((mesh_total - force_total).abs() < 1e-10,
                "component {}: {} vs {}", theta, mesh_total, force_total);
        }
    }

    #[test]
    fn spread_interpolate_adjointness(
        (pos, f, g) in particles(30, 8.0).prop_flat_map(|pos| {
            let n = pos.len();
            (
                Just(pos),
                prop::collection::vec(-1.0f64..1.0, 3 * n),
                prop::collection::vec(-1.0f64..1.0, 3 * 16 * 16 * 16),
            )
        })
    ) {
        // <P^T f, g>_mesh == <f, P g>_particles for the 3-component kernels.
        let (k, p) = (16usize, 4usize);
        let pm = build_interp_matrix(&pos, 8.0, k, p);
        let plan = SpreadPlan::new(&pm.scaled, k, p);
        let k3 = k * k * k;
        let mut mesh = vec![0.0; 3 * k3];
        plan.spread(&pm, &f, &mut mesh);
        let lhs: f64 = mesh.iter().zip(&g).map(|(a, b)| a * b).sum();
        let mut u = vec![0.0; f.len()];
        interpolate(&pm, &g, &mut u);
        let rhs: f64 = f.iter().zip(&u).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    #[test]
    fn batched_spread_and_interpolate_match_columnwise(
        (pos, f, k, s) in (prop::sample::select(vec![15usize, 16, 18, 21]),
                           prop::sample::select(vec![1usize, 2, 3, 7, 8]))
            .prop_flat_map(|(k, s)| {
                particles(30, 10.0).prop_flat_map(move |pos| {
                    let n = pos.len();
                    (Just(pos), prop::collection::vec(-1.0f64..1.0, 3 * n * s), Just(k), Just(s))
                })
            })
    ) {
        // Odd and even mesh dims: the spread/interpolate stages have no
        // FFT evenness constraint, so both parities must agree with the
        // single-RHS kernels columnwise.
        let p = 4usize;
        let n = pos.len();
        let pm = build_interp_matrix(&pos, 10.0, k, p);
        let plan = SpreadPlan::new(&pm.scaled, k, p);
        let k3 = k * k * k;

        let mut batch = vec![0.0; 3 * s * k3];
        plan.spread_multi(&pm, &f, s, 0, s, &mut batch);

        // interpolate_multi accumulates: prime the output with a marker.
        let mut u_multi = vec![0.5; 3 * n * s];
        interpolate_multi(&pm, &batch, s, 0, s, &mut u_multi);

        for j in 0..s {
            let fc: Vec<f64> = (0..3 * n).map(|i| f[i * s + j]).collect();
            let mut mesh = vec![0.0; 3 * k3];
            plan.spread(&pm, &fc, &mut mesh);
            for theta in 0..3 {
                let b = &batch[(theta * s + j) * k3..(theta * s + j + 1) * k3];
                let m = &mesh[theta * k3..(theta + 1) * k3];
                let maxd = b.iter().zip(m).map(|(a, c)| (a - c).abs()).fold(0.0f64, f64::max);
                prop_assert!(maxd < 1e-12, "spread k={} s={} col={} theta={}: {}", k, s, j, theta, maxd);
            }
            let mut uc = vec![0.0; 3 * n];
            interpolate(&pm, &mesh, &mut uc);
            for i in 0..3 * n {
                let got = u_multi[i * s + j] - 0.5;
                prop_assert!((got - uc[i]).abs() < 1e-12,
                    "interp k={} s={} col={} i={}: {} vs {}", k, s, j, i, got, uc[i]);
            }
        }
    }

    #[test]
    fn batched_reciprocal_pipeline_matches_columnwise(
        (pos, x, k, s) in (prop::sample::select(vec![16usize, 20, 24]),
                           prop::sample::select(vec![1usize, 2, 3, 7, 8]))
            .prop_flat_map(|(k, s)| {
                particles(16, 10.0).prop_flat_map(move |pos| {
                    let n = pos.len();
                    (Just(pos), prop::collection::vec(-1.0f64..1.0, 3 * n * s), Just(k), Just(s))
                })
            })
    ) {
        // Full batched spread -> forward_batch -> influence -> inverse_batch
        // -> interpolate pipeline vs the single-RHS pipeline per column.
        let params = PmeParams { mesh_dim: k, box_l: 10.0, r_max: 4.0, ..PmeParams::default() };
        let n = pos.len();
        let mut op = PmeOperator::new(&pos, params).unwrap();
        let mut y_batched = vec![0.0; 3 * n * s];
        op.recip_apply_add_multi(&x, &mut y_batched, s);
        for col in 0..s {
            let xc: Vec<f64> = (0..3 * n).map(|i| x[i * s + col]).collect();
            let mut yc = vec![0.0; 3 * n];
            op.recip_apply_add(&xc, &mut yc);
            for i in 0..3 * n {
                prop_assert!((y_batched[i * s + col] - yc[i]).abs() < 1e-12,
                    "k={} s={} col={} i={}: {} vs {}", k, s, col, i, y_batched[i * s + col], yc[i]);
            }
        }
    }
}
