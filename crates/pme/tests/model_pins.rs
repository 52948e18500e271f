//! Pins for the Section IV-D model.
//!
//! Bit pins for everything the tuner's decision rests on: the pinned
//! reference machine and `tune` + `split_cost` at the ladder's periodic
//! shapes. Values recorded at commit f460fc5 (PR 21), before the model moved
//! into `hibd_pme::perf` whole — a PR that edits `perf.rs` without meaning to
//! move a split fails here.
//!
//! And the fit -> predict round trip: a machine fitted from a transform
//! timing hands that timing back (the test that would have caught Fig. 5's
//! archived 2.25x).

use hibd_pme::perf::{Fit, Machine, PerfModel};
use hibd_pme::tuner::{split_cost, tune};

#[test]
fn reference_machine_constants_are_frozen() {
    let m = Machine::reference();
    assert_eq!(m.bandwidth.to_bits(), 0x4213_ee28_5800_0000, "bandwidth {}", m.bandwidth);
    assert_eq!(m.fft_flops.to_bits(), 0x41fb_31d2_9000_0000, "fft_flops {}", m.fft_flops);
    assert_eq!(m.ifft_flops.to_bits(), 0x41fb_31d2_9000_0000, "ifft_flops {}", m.ifft_flops);
    assert_eq!(m.fft_sat_k3.to_bits(), 0x40e0_0000_0000_0000, "fft_sat_k3 {}", m.fft_sat_k3);
    assert_eq!(m.peak_flops.to_bits(), 0x422f_4add_4000_0000, "peak_flops {}", m.peak_flops);
    assert_eq!(m.assembly_rate.to_bits(), 0x4146_e360_0000_0000, "assembly {}", m.assembly_rate);
}

#[test]
fn ladder_shapes_tune_to_the_parent_commits_bits() {
    // (n, K, p, alpha, r_max, split_cost.real, split_cost.recip) at
    // phi = 0.2, a = eta = 1, e_p = 1e-3: `serve_spool`'s three shapes and
    // `periodic_run` / `pse_run`'s.
    type Pin = (usize, usize, usize, u64, u64, u64, u64);
    const PINS: [Pin; 4] = [
        (
            80,
            30,
            6,
            0x3fe3_37e3_cdb9_6e08,
            0x4017_c127_fee9_03bf,
            0x3ef7_1ff8_9e5f_2dce,
            0x3f60_125f_84c1_ffb6,
        ),
        (
            120,
            30,
            6,
            0x3fe0_efe7_49a8_7448,
            0x401a_8871_2f1d_78b2,
            0x3f08_1d11_be88_448f,
            0x3f60_4f55_e788_4a20,
        ),
        (
            160,
            28,
            6,
            0x3fde_4e3d_7442_abee,
            0x401d_40aa_dd8b_5f4f,
            0x3f15_82cf_b44f_3b0e,
            0x3f5d_c024_e660_11c5,
        ),
        (
            200,
            28,
            6,
            0x3fdb_217f_3532_528e,
            0x4020_1eb3_0c07_28a2,
            0x3f21_fa66_1725_10d0,
            0x3f5e_3a11_abec_a699,
        ),
    ];
    for (n, k, p, alpha, r_max, real, recip) in PINS {
        let params = tune(n, 0.2, 1.0, 1.0, 1e-3).params;
        assert_eq!((params.mesh_dim, params.spline_order), (k, p), "n = {n}");
        assert_eq!(params.alpha.to_bits(), alpha, "n = {n}: alpha {}", params.alpha);
        assert_eq!(params.r_max.to_bits(), r_max, "n = {n}: r_max {}", params.r_max);
        let cost = split_cost(n, &params);
        assert_eq!(cost.real.to_bits(), real, "n = {n}: real {:e}", cost.real);
        assert_eq!(cost.recip.to_bits(), recip, "n = {n}: recip {:e}", cost.recip);
    }
}

#[test]
fn a_fitted_machine_predicts_the_transforms_it_was_fitted_on() {
    // One r2c and one c2r timing per mesh, as `calibrate_host` takes
    // them: below and above the saturation knee the model must hand the
    // measurement back (three transforms per column each way).
    for (k, fwd, inv) in [(32usize, 0.21e-3, 0.26e-3), (128, 15.3e-3, 17.9e-3)] {
        let host = Fit::new(Machine::reference()).transforms(k, 1.0, fwd, inv).machine();
        let model = PerfModel::new(host, k, 6, 1000);
        assert!((model.t_fft() - 3.0 * fwd).abs() < 1e-12 * fwd, "K = {k}: {}", model.t_fft());
        assert!((model.t_ifft() - 3.0 * inv).abs() < 1e-12 * inv, "K = {k}: {}", model.t_ifft());
        // Nothing streamed: the bandwidth stays the base machine's.
        assert_eq!(host.bandwidth, Machine::reference().bandwidth);
    }
    let triad = Fit::new(Machine::reference()).stream(3.0e9, 0.25).machine();
    assert_eq!(triad.bandwidth, 12.0e9);
    assert_eq!(triad.fft_flops, Machine::reference().fft_flops);
}
