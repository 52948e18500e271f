//! Pins for the open-boundary cost model.
//!
//! Everything `hibd_treecode::tune`'s decision rests on, frozen: the pinned
//! per-operation costs, the per-tier crossovers, and what the ladder's open
//! shape and its neighbours tune to at `e_p = 1e-3`. A PR that edits
//! `tuner.rs` without meaning to move an open-boundary shape — and with it
//! every open `trajectory_fnv1a` — fails here. Values recorded when the cost
//! tuner landed (PR 23).

use hibd_treecode::tuner::{cost, KernelCosts, CROSSOVER, HIERARCHY_MARGIN, LEAF_CAPACITIES};
use hibd_treecode::{tune, tune_at_theta, TreeEval, TreeParams, SCHEDULE};

#[test]
fn reference_costs_and_crossovers_are_frozen() {
    assert_eq!(
        KernelCosts::reference(),
        KernelCosts {
            pair_call: 4.7e-9,
            pair_call_col: 4.8e-9,
            pair_group: 4.85e-9,
            pair_group_col: 0.86e-9,
            proxy: 2.4e-9,
            proxy_col: 0.19e-9,
            m2l: 1.25e-9,
            m2l_col: 0.21e-9,
        }
    );
    assert_eq!(HIERARCHY_MARGIN, 0.9);
    assert_eq!(LEAF_CAPACITIES, [32, 64, 128, 256]);
    assert_eq!(CROSSOVER, [1547, 2797, 26_605, 40_782]);
    assert_eq!(SCHEDULE, [(1e-2, 0.7, 3), (1e-3, 0.4, 3), (1e-4, 0.4, 4), (1e-5, 0.4, 5)]);
}

#[test]
fn reference_sizes_tune_to_the_recorded_points() {
    // (n, eval, leaf capacity, q, modelled ms per column of direct : tree :
    // fmm at those parameters) at e_p = 1e-3, a = eta = 1. n = 2000 is the
    // ladder's `open_run`; 8000 its `treecode.apply_*_n8000` rungs' size,
    // which run `TreeParams { eval: Tree | Fmm, ..tuned(2000) }`. At 1e5
    // every FMM candidate is deeper than the FMM holds the 1e-3 tier for,
    // and the cheapest valid point is the FMM one tier up.
    const PINS: [(usize, TreeEval, usize, usize, [f64; 3]); 4] = [
        (250, TreeEval::Direct, 256, 3, [0.03827562500000001; 3]),
        (2000, TreeEval::Direct, 64, 3, [2.397003125, 2.594701889824664, 2.24283627594061]),
        (8000, TreeEval::Fmm, 256, 3, [38.275625, 29.95087923828125, 27.233513007031252]),
        (100_000, TreeEval::Fmm, 256, 4, [5980.56640625, 2103.7760239943586, 1140.837922155317]),
    ];
    for (n, eval, leaf_capacity, cheb_order, ms) in PINS {
        let tuned = tune(n, 1e-3, 1.0, 1.0);
        let want = TreeParams { theta: 0.4, leaf_capacity, cheb_order, a: 1.0, eta: 1.0, eval };
        assert_eq!(tuned, want, "n = {n}");
        // Costs to 1e-9: the occupancy blend calls `exp`, whose last bit is
        // the platform's; the discrete choice above is what must not move.
        let evals = [TreeEval::Direct, TreeEval::Tree, TreeEval::Fmm];
        let got = evals.map(|eval| 1e3 * cost(n, &TreeParams { eval, ..tuned }));
        for (g, w) in got.iter().zip(ms) {
            assert!((g - w).abs() <= 1e-9 * w, "n = {n}: modelled {got:?} ms/col, pinned {ms:?}");
        }
        // An explicit theta never moves a tier: it pins `q` of the
        // tolerance's own.
        let pinned = tune_at_theta(n, 0.4, 1e-3, 1.0, 1.0);
        assert_eq!((pinned.theta, pinned.cheb_order), (0.4, 3), "n = {n}");
        assert_ne!(pinned.eval, TreeEval::Direct, "n = {n}");
    }
}
