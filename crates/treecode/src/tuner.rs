//! Cost tuner: pick the open-boundary evaluation and its parameters for a
//! target matvec error — the open-boundary twin of `hibd_pme::tune`.
//!
//! **Accuracy is a lookup.** The Chebyshev far field converges geometrically
//! in the order `q` with a rate set by the MAC parameter `theta` (smaller
//! `theta` pushes source cubes further away relative to their size). Rather
//! than trusting an asymptotic error model, the tolerances are *measured*:
//! [`SCHEDULE`] is an escalating list of `(theta, q)` pairs, each pinned by
//! `tests/accuracy.rs` to a worst-case relative error against the dense
//! free-space RPY matrix, for both hierarchical strategies and every leaf
//! capacity in [`LEAF_CAPACITIES`], on depth-2 trees. The exact direct sum
//! meets every tolerance. [`measured_rel_error`] is the measurement itself, for tests
//! and accuracy gates.
//!
//! **Everything else is chosen by modelled cost.** [`tune`] prices
//! `{Direct, Tree, Fmm}` x [`LEAF_CAPACITIES`] with [`cost`] — each
//! hierarchical candidate at the tier's `(theta, q)`, or the next tier's
//! when its tree is deeper than the tier is measured for (`valid_depth`,
//! [`candidates`]) — and keeps the cheapest. RPYFMM (Guan et al., arXiv
//! 1711.02976) is explicit that an adaptive RPY FMM pays only above a
//! leaf-size-dependent crossover; below it the `n^2` pair sum through the
//! vectorised near-field kernel wins, with no tree, no proxies and no error.
//! The model prices, per applied column:
//!
//! * *pair evaluations* — the near field's, or all `n^2` of the direct sum.
//!   One target against a source tile of `L <= PAIR_TILE` particles is one
//!   kernel call: `floor(L / 4)` four-lane groups plus `L mod 4` scalar
//!   lanes, and a scalar lane costs what a whole group does (8.0 vs 9.2 ns
//!   at width 1). That is the `len % 4` tail penalty: a leaf of 8.6
//!   particles pays 3.3 group-times for 8.6 pairs where a full tile pays 8
//!   for 32;
//! * *proxy evaluations* — the treecode's particle-against-`q^3`-proxies far
//!   field, per (target leaf, accepted source node);
//! * *M2L multiply-adds* — `q^6` table entries per accepted node pair.
//!
//! Upward / downward passes stay under 3 % of every measured apply and are
//! not priced. Each term has a width-1 price and a price per extra column of
//! a tile (pair scalars and table entries are evaluated once per tile).
//!
//! **Geometry alone.** The list sizes come from the operator's *own* dual
//! traversal run over a particle-free complete octree
//! (`Octree::full`, `count_lists`); they depend on `(depth, theta)` only
//! and are pinned in `PINNED_LISTS` for the [`SCHEDULE`] thetas (a test
//! re-counts them), so a tuned shape costs microseconds to resolve. A cloud
//! of `n` particles maps to depths by occupancy: a level-`k` cell holds
//! `m_k = n / 8^k` particles on average and splits with the Poisson
//! probability of exceeding the leaf capacity, so the model blends the
//! clean-depth costs by the fraction of space that bottoms out at each
//! level — which is what makes `n / 8^k` just under the capacity (n = 2000
//! at capacity 32: 24 of 64 level-2 cells split into leaves of four) price
//! as the bad point it measures as.
//!
//! **Pinned constants.** [`KernelCosts::reference`] is read off the phase
//! spans of `results/ablation_treecode.txt` (this PR's run; 2 vCPU Xeon
//! 2.1 GHz, AVX2, two threads — the host of `results/BENCH_pr23.json`) and
//! frozen in source like `hibd_pme::perf::Machine::reference`. Nothing here
//! reads a clock, the host, the thread count, an env var or a file
//! (`xtask audit`'s `pure-tuner` lint): checkpoints do not store
//! `TreeParams` (resume re-tunes), the engine's `ShapeKey` is the tuned
//! parameter bits, and replica == standalone / kill-and-restart ==
//! uninterrupted must hold across hosts. A host whose balance differs runs a
//! choice that is off its own optimum by the flatness of the cost curve,
//! never a wrong answer.

use crate::operator::{dual_traverse, Settled, TreeEval, TreeOperator, TreeParams};
use crate::tree::Octree;
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_rpy::{dense_rpy_free, COL_TILE, PAIR_TILE};

/// The escalation schedule: `(guaranteed_tol, theta, cheb_order)`, loosest
/// first. Tolerances are conservative relative to measured errors on random
/// clouds for *both* hierarchical strategies — the FMM's extra target-side
/// interpolation converges at the same geometric rate under the two-sided
/// MAC — at every leaf capacity the tuner may return, on trees no deeper
/// than `valid_depth`; `tests/accuracy.rs` pins each tier against
/// `dense_rpy_free` and the direct sum.
pub const SCHEDULE: [(f64, f64, usize); 4] =
    [(1e-2, 0.7, 3), (1e-3, 0.4, 3), (1e-4, 0.4, 4), (1e-5, 0.4, 5)];

/// Deepest tree on which the treecode and the FMM hold a tier's tolerance.
/// The far field's share of the sum, and the number of interpolation levels
/// a contribution crosses, grow with depth, and so does the error: at
/// `(0.4, 3)` against the direct sum (`results/ablation_treecode.txt`,
/// n = 4000 … 32000) the treecode measures 3.5–4.9e-4 at depth 2, 6.2–8.4e-4
/// at depth 3 and 0.9–1.0e-3 at depth 4; the FMM — which interpolates on the
/// target side too — 5.0–6.3e-4, 0.94–1.1e-3 and 1.2–1.4e-3. The other tiers
/// scale alike (`(0.4, 4)`: FMM 1.0e-4 at depth 3).
const fn valid_depth(eval: TreeEval) -> u32 {
    match eval {
        TreeEval::Fmm => 2,
        _ => 3,
    }
}

/// The leaf capacities [`tune`] weighs. A factor of two apart on an octree
/// whose levels are a factor of eight apart: some candidate always sits
/// mid-level, clear of the mixed-depth trees the occupancy blend penalises.
pub const LEAF_CAPACITIES: [usize; 4] = [32, 64, 128, 256];

/// Block columns applied per single-column apply over a Brownian window: a
/// BD step is one `s = 1` drift apply plus its share of the window's block
/// Lanczos solve, about seven iterations (7 at the ladder's open shape,
/// 6 and 4 on the periodic ones) of one column each.
pub const BLOCK_COLUMNS_PER_STEP: f64 = 7.0;

/// A hierarchy replaces the direct sum only when modelled at least this much
/// cheaper per column. What it also costs is not in the per-column price: a
/// tree and (FMM) table build every window, megabytes of per-node state
/// (4.4 MB against 0.8 MB at n = 2000), and an approximation error where the
/// direct sum has none. At the crossover the two measure within noise of
/// each other.
pub const HIERARCHY_MARGIN: f64 = 0.9;

/// Per [`SCHEDULE`] tier, the particle count from which [`tune`] runs a
/// hierarchy: the smallest `n` from which the cheapest hierarchical
/// candidate stays under [`HIERARCHY_MARGIN`] of the direct sum's [`cost`]
/// at every larger size. One threshold per tier makes the choice monotone
/// in `n` by construction — the model itself is not (a hierarchy's cost
/// steps up 8x in M2L work with every new level while the direct sum grows
/// smoothly, so at `q = 4, 5` the direct sum wins again for a stretch after
/// each level opens). A memo of [`cost`]:
/// `crossovers_are_where_the_model_last_prefers_direct` re-derives it.
pub const CROSSOVER: [usize; SCHEDULE.len()] = [1547, 2797, 26_605, 40_782];

/// Deepest synthetic tree the model walks. Deeper clouds are priced as
/// `8^(k - MODEL_DEPTH)` copies of this geometry: by then the direct sum is
/// out by orders of magnitude and only the hierarchical candidates compete,
/// all under the same approximation.
const MODEL_DEPTH: u32 = 4;

/// Seconds per modelled operation on the reference host — wall time at two
/// threads, every pass of an apply being parallel. `x` is the width-1 price,
/// `x_col` the price of each further column of a tile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCosts {
    /// One pair-kernel call (a target against a staged source tile): call
    /// overhead, accumulator reduction and the `mu0`-scaled output update.
    pub pair_call: f64,
    pub pair_call_col: f64,
    /// One four-lane group of pairs — or one scalar tail lane.
    pub pair_group: f64,
    pub pair_group_col: f64,
    /// One particle-proxy far-field evaluation (treecode).
    pub proxy: f64,
    pub proxy_col: f64,
    /// One M2L table entry (FMM).
    pub m2l: f64,
    pub m2l_col: f64,
}

impl KernelCosts {
    /// The pinned constants [`cost`] prices with (see the module docs).
    /// Behind each, from `results/ablation_treecode.txt`:
    ///
    /// | field | ns | measured |
    /// |---|---|---|
    /// | `pair_call`, `pair_group` | 4.7, 4.85 | pair kernel alone, one thread: 9.0 ns + 9.2 ns per group of four + 8.0 ns per tail lane; direct n = 2000 `apply` 5.3 ms = 43 ns per 32-source call at two threads (x 1.9) |
    /// | `pair_call_col`, `pair_group_col` | 4.8, 0.86 | direct n = 2000 `s16` tile 15.6 ms = 125 ns per call and eight columns: kernel 18 + 19.4 per group, plus ~54 ns of per-call output update, / 1.9 |
    /// | `proxy`, `proxy_col` | 2.4, 0.19 | far-field spans: 2.37–2.43 ns per evaluation at width 1, 0.46–0.47 per column of a full tile |
    /// | `m2l`, `m2l_col` | 1.25, 0.21 | M2L spans: 1.13–1.31 ns per entry at width 1, 0.31–0.38 per column of a full tile |
    #[must_use]
    pub const fn reference() -> KernelCosts {
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
    }

    /// One target against exactly `len` sources in full tiles, at tile
    /// width `w`: the direct sum's row, or the root's when it is the only
    /// leaf. The whole row ends in one `len mod 4` tail.
    fn row(&self, len: usize, w: f64) -> f64 {
        len.div_ceil(PAIR_TILE) as f64 * (self.pair_call + (w - 1.0) * self.pair_call_col)
            + (len / 4 + len % 4) as f64 * (self.pair_group + (w - 1.0) * self.pair_group_col)
    }

    /// One target against a source leaf of mean occupancy `len >= 4`: the
    /// leaf's last tile ends in `len mod 4` scalar lanes — 1.5 on average
    /// over leaves — each at a group's price.
    fn leaf(&self, len: f64, w: f64) -> f64 {
        let tail = 1.5;
        (len / PAIR_TILE as f64).ceil() * (self.pair_call + (w - 1.0) * self.pair_call_col)
            + ((len - tail) / 4.0 + tail) * (self.pair_group + (w - 1.0) * self.pair_group_col)
    }
}

/// Interaction-list sizes of the dual traversal on a complete octree — the
/// geometry half of the cost model, a function of `(depth, theta)` alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ListCounts {
    /// Ordered (target leaf, source leaf) near pairs, self pairs included.
    near_leaf_pairs: u64,
    /// Ordered (target leaf, accepted source node) incidences: the
    /// treecode's per-leaf far lists, summed.
    far_leaf_lists: u64,
    /// Ordered MAC-accepted node pairs: the FMM's M2L translations.
    m2l_pairs: u64,
}

/// [`count_lists`] at every model depth for the two [`SCHEDULE`] thetas:
/// `(theta, [depth 0, 1, ..., MODEL_DEPTH])`. A memo of a pure function —
/// `pinned_lists_are_the_traversals` re-counts every entry.
const PINNED_LISTS: [(f64, [ListCounts; MODEL_DEPTH as usize + 1]); 2] = [
    (
        0.7,
        [
            ListCounts { near_leaf_pairs: 1, far_leaf_lists: 0, m2l_pairs: 0 },
            ListCounts { near_leaf_pairs: 64, far_leaf_lists: 0, m2l_pairs: 0 },
            ListCounts { near_leaf_pairs: 1192, far_leaf_lists: 2624, m2l_pairs: 2344 },
            ListCounts { near_leaf_pairs: 12952, far_leaf_lists: 72904, m2l_pairs: 42832 },
            ListCounts { near_leaf_pairs: 118840, far_leaf_lists: 1157464, m2l_pairs: 481208 },
        ],
    ),
    (
        0.4,
        [
            ListCounts { near_leaf_pairs: 1, far_leaf_lists: 0, m2l_pairs: 0 },
            ListCounts { near_leaf_pairs: 64, far_leaf_lists: 0, m2l_pairs: 0 },
            ListCounts { near_leaf_pairs: 2776, far_leaf_lists: 1320, m2l_pairs: 1320 },
            ListCounts { near_leaf_pairs: 39496, far_leaf_lists: 130416, m2l_pairs: 102864 },
            ListCounts { near_leaf_pairs: 403240, far_leaf_lists: 2819232, m2l_pairs: 1530168 },
        ],
    ),
];

/// Run the operator's dual traversal over the complete octree of `depth`
/// and count what it emits. No particle radius enters: the `2a` clause of
/// the MAC binds only for cells of a few radii, denser than any leaf the
/// capacities above produce.
fn count_lists(depth: u32, theta: f64) -> ListCounts {
    let tree = Octree::full(depth);
    let mut counts = ListCounts { near_leaf_pairs: 0, far_leaf_lists: 0, m2l_pairs: 0 };
    dual_traverse(&tree, 0, 0, theta, 0.0, &mut |settled, a, b| match settled {
        Settled::Near => counts.near_leaf_pairs += if a == b { 1 } else { 2 },
        Settled::Far => {
            counts.m2l_pairs += 2;
            // Each side's leaves all list the other node.
            let leaves_under = |ni: usize| 8u64.pow(depth - u32::from(tree.nodes[ni].level));
            counts.far_leaf_lists += leaves_under(a) + leaves_under(b);
        }
    });
    counts
}

/// [`count_lists`] at one `theta`, by depth: the pinned table where it has
/// the answer, else a live traversal per depth, made once — one `Lists`
/// serves every candidate [`cheapest`] prices at that `theta`.
struct Lists {
    theta: f64,
    by_depth: [Option<ListCounts>; MODEL_DEPTH as usize + 1],
}

impl Lists {
    fn at(theta: f64) -> Lists {
        let pinned = PINNED_LISTS.iter().find(|(t, _)| *t == theta);
        Lists { theta, by_depth: std::array::from_fn(|d| pinned.map(|(_, by_depth)| by_depth[d])) }
    }

    fn get(&mut self, depth: u32) -> ListCounts {
        *self.by_depth[depth as usize].get_or_insert_with(|| count_lists(depth, self.theta))
    }
}

/// `P(X > cap)` for `X ~ Poisson(mean)`: the chance a cell of that mean
/// occupancy splits.
fn split_probability(mean: f64, cap: usize) -> f64 {
    let mut term = (-mean).exp();
    let mut cdf = term;
    for k in 1..=cap {
        term *= mean / k as f64;
        cdf += term;
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

/// Modelled seconds of one `w`-column tile of `params`' evaluation over `n`
/// particles on the reference host ([`KernelCosts::reference`]): `w = 1` is
/// an `apply`, `w = COL_TILE` a full tile of a block apply.
#[must_use]
pub fn tile_cost(n: usize, params: &TreeParams, w: usize) -> f64 {
    tile_cost_in(&mut Lists::at(params.theta), n, params, w)
}

fn tile_cost_in(lists: &mut Lists, n: usize, params: &TreeParams, w: usize) -> f64 {
    let k = KernelCosts::reference();
    let (nf, wf) = (n as f64, w as f64);
    // The root as the only leaf does the direct sum's pair work (on one
    // thread, which the margin in `tune` more than covers).
    if params.eval == TreeEval::Direct || n <= params.leaf_capacity {
        return nf * k.row(n, wf);
    }
    let q3 = params.cheb_order.pow(3) as f64;
    // Walk the levels below the root: `reach` is the fraction of space whose
    // cells split all the way down to level `depth`; `stop` of it bottoms
    // out there. Every capacity is at least 32, so `m >= 4` wherever a
    // non-negligible share stops.
    let mut total = 0.0;
    let mut reach = 1.0;
    for depth in 1..=crate::morton::MORTON_BITS {
        let m = nf / 8f64.powi(depth as i32);
        let split = split_probability(m, params.leaf_capacity);
        let stop = reach * (1.0 - split);
        if stop > 1e-3 {
            let at = depth.min(MODEL_DEPTH);
            let c = lists.get(at);
            let copies = 8f64.powi((depth - at) as i32);
            let near = c.near_leaf_pairs as f64 * m * k.leaf(m, wf);
            let far = match params.eval {
                TreeEval::Fmm => c.m2l_pairs as f64 * q3 * q3 * (k.m2l + (wf - 1.0) * k.m2l_col),
                _ => c.far_leaf_lists as f64 * m * q3 * (k.proxy + (wf - 1.0) * k.proxy_col),
            };
            total += stop * copies * (near + far);
        }
        reach *= split;
        if reach <= 1e-3 {
            break;
        }
    }
    total
}

/// What [`tune`] minimises: modelled seconds per applied column over a BD
/// run's mix — one single-column apply to every
/// [`BLOCK_COLUMNS_PER_STEP`] columns of full block tiles.
#[must_use]
pub fn cost(n: usize, params: &TreeParams) -> f64 {
    cost_in(&mut Lists::at(params.theta), n, params)
}

fn cost_in(lists: &mut Lists, n: usize, params: &TreeParams) -> f64 {
    let single = tile_cost_in(lists, n, params, 1);
    let block_column = tile_cost_in(lists, n, params, COL_TILE) / COL_TILE as f64;
    (single + BLOCK_COLUMNS_PER_STEP * block_column) / (1.0 + BLOCK_COLUMNS_PER_STEP)
}

/// Measure the worst relative error `max_t ||(M_tree - M_dense) x_t|| /
/// ||M_dense x_t||` over `trials` deterministic pseudo-random unit vectors.
pub fn measured_rel_error(positions: &[Vec3], params: TreeParams, trials: usize) -> f64 {
    assert!(!positions.is_empty() && trials > 0);
    let n = positions.len();
    let dense = dense_rpy_free(positions, params.a, params.eta);
    let mut tree = TreeOperator::new(positions, params);
    let mut x = vec![0.0; 3 * n];
    let mut yt = vec![0.0; 3 * n];
    let mut yd = vec![0.0; 3 * n];
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut worst = 0.0f64;
    for _ in 0..trials {
        for v in &mut x {
            // SplitMix64 into [-1, 1).
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            *v = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        }
        tree.apply(&x, &mut yt);
        dense.mul_vec(&x, &mut yd);
        let (mut err2, mut ref2) = (0.0, 0.0);
        for (t, d) in yt.iter().zip(&yd) {
            err2 += (t - d) * (t - d);
            ref2 += d * d;
        }
        worst = worst.max((err2 / ref2.max(f64::MIN_POSITIVE)).sqrt());
    }
    worst
}

/// The cheapest of `candidates` by [`cost`]; ties go to the earlier one
/// (smaller capacity, tree before FMM).
fn cheapest(n: usize, candidates: impl Iterator<Item = TreeParams>) -> TreeParams {
    let mut lists: Option<Lists> = None;
    let mut best: Option<(f64, TreeParams)> = None;
    for params in candidates {
        let lists = match &mut lists {
            Some(l) if l.theta == params.theta => l,
            stale => stale.insert(Lists::at(params.theta)),
        };
        let c = cost_in(lists, n, &params);
        if best.is_none_or(|(least, _)| c < least) {
            best = Some((c, params));
        }
    }
    best.expect("the capacity ladder is not empty").1
}

/// Index of the [`SCHEDULE`] tier for `rel_tol`: the first (loosest) that
/// guarantees it, the strictest when none does.
fn tier(rel_tol: f64) -> usize {
    assert!(rel_tol > 0.0);
    SCHEDULE.iter().position(|&(tol, ..)| tol <= rel_tol).unwrap_or(SCHEDULE.len() - 1)
}

/// `{Tree, Fmm}` x [`LEAF_CAPACITIES`] with a `(theta, cheb_order)` per
/// candidate.
fn hierarchies(
    a: f64,
    eta: f64,
    accuracy: impl Fn(TreeEval, usize) -> (f64, usize),
) -> impl Iterator<Item = TreeParams> {
    LEAF_CAPACITIES.into_iter().flat_map(move |leaf_capacity| {
        [TreeEval::Tree, TreeEval::Fmm].map(|eval| {
            let (theta, cheb_order) = accuracy(eval, leaf_capacity);
            TreeParams { theta, leaf_capacity, cheb_order, a, eta, eval }
        })
    })
}

/// The hierarchical candidates [`tune`] weighs for `n` particles at
/// `rel_tol`, each at the [`SCHEDULE`] tier that guarantees the tolerance
/// *on the tree it builds*: the tolerance's own tier down to
/// `valid_depth`, one tier stricter (where there is one) for a candidate
/// whose tree goes deeper on more than a thousandth of the cloud.
pub fn candidates(n: usize, rel_tol: f64, a: f64, eta: f64) -> impl Iterator<Item = TreeParams> {
    let tier = tier(rel_tol);
    hierarchies(a, eta, move |eval, leaf_capacity| {
        let cell = n as f64 / 8f64.powi(valid_depth(eval) as i32);
        let deeper = split_probability(cell, leaf_capacity) > 1e-3;
        let (_, theta, cheb_order) = SCHEDULE[(tier + usize::from(deeper)).min(SCHEDULE.len() - 1)];
        (theta, cheb_order)
    })
}

/// Parameters for `n` particles at relative accuracy `rel_tol`: the exact
/// direct sum below the tolerance's [`CROSSOVER`], above it the cheapest of
/// [`candidates`] by [`cost`]. Whatever `eval` comes out, the result carries
/// that cheapest hierarchy's `(theta, cheb_order)` — a [`SCHEDULE`] tier —
/// and leaf capacity, so `TreeParams { eval: Tree | Fmm, ..tuned }` is
/// always a valid operator.
///
/// A pure function of its arguments — it never sees positions, so a resumed
/// or re-resolved job lands on the parameters it started with whatever its
/// particles have done since (module docs).
#[must_use]
pub fn tune(n: usize, rel_tol: f64, a: f64, eta: f64) -> TreeParams {
    let tree = cheapest(n, candidates(n, rel_tol, a, eta));
    if n < CROSSOVER[tier(rel_tol)] {
        TreeParams { eval: TreeEval::Direct, ..tree }
    } else {
        tree
    }
}

/// [`tune`] under an explicit accuracy override: a hierarchical evaluation
/// at the caller's `theta` (with the tolerance's tier's `cheb_order`), tree
/// vs FMM and the leaf capacity still chosen by cost. Asking for a MAC
/// parameter is asking for a hierarchy, so the direct sum is not a
/// candidate. A `theta` outside [`SCHEDULE`] is priced by a live traversal
/// of a complete octree per depth.
#[must_use]
pub fn tune_at_theta(n: usize, theta: f64, rel_tol: f64, a: f64, eta: f64) -> TreeParams {
    let (_, _, cheb_order) = SCHEDULE[tier(rel_tol)];
    cheapest(n, hierarchies(a, eta, |_, _| (theta, cheb_order)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * spread
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    /// A geometric ladder of sizes, 1 % apart, across every regime.
    fn sizes() -> impl Iterator<Item = usize> {
        std::iter::successors(Some(1usize), |&n| Some(n + (n / 100).max(1)))
            .take_while(|&n| n <= 300_000)
    }

    #[test]
    #[cfg_attr(miri, ignore = "millions of traversal visits: too slow to interpret")]
    fn pinned_lists_are_the_traversals() {
        for (theta, by_depth) in PINNED_LISTS {
            assert!(SCHEDULE.iter().any(|&(_, t, _)| t == theta), "{theta} is not a tier's");
            for (depth, pinned) in by_depth.into_iter().enumerate() {
                assert_eq!(
                    count_lists(depth as u32, theta),
                    pinned,
                    "theta {theta}, depth {depth}"
                );
            }
        }
        for (_, theta, _) in SCHEDULE {
            assert!(PINNED_LISTS.iter().any(|(t, _)| *t == theta), "tier theta {theta} unpinned");
        }
    }

    #[test]
    fn counted_lists_are_the_operators_lists_on_a_filled_tree() {
        // One particle per finest cell: the real operator's tree is the
        // complete octree, and its interaction counts are the model's.
        let side = 4;
        let mut pos = Vec::new();
        for i in 0..side {
            for j in 0..side {
                for k in 0..side {
                    pos.push(Vec3::new(
                        (f64::from(i) + 0.5) * 100.0,
                        (f64::from(j) + 0.5) * 100.0,
                        (f64::from(k) + 0.5) * 100.0,
                    ));
                }
            }
        }
        // Pin the bounding cube to the lattice's.
        pos.push(Vec3::ZERO);
        pos.push(Vec3::splat(100.0 * f64::from(side)));
        let counts = count_lists(2, 0.4);
        let fmm = TreeOperator::new(
            &pos,
            TreeParams { leaf_capacity: 2, eval: TreeEval::Fmm, ..TreeParams::default() },
        );
        assert_eq!(fmm.max_depth(), 2);
        assert_eq!(fmm.fmm_stats().unwrap().0 as u64, counts.m2l_pairs);
    }

    #[test]
    fn tune_returns_a_schedule_tier_whatever_it_chooses() {
        for (tol, base) in [
            (0.5, 0),
            (1e-2, 0),
            (5e-3, 1),
            // `e_p = 1e-3`, the default.
            (1e-3, 1),
            (1e-4, 2),
            (1e-5, 3),
            // Tighter than the table: the strictest tier.
            (1e-9, 3),
        ] {
            for n in [1, 40, 250, 2000, 8000, 100_000] {
                let p = tune(n, tol, 1.5, 2.0);
                let tier = SCHEDULE
                    .iter()
                    .position(|&(_, theta, q)| (theta, q) == (p.theta, p.cheb_order))
                    .unwrap_or_else(|| panic!("tol {tol}, n {n}: {p:?} is no tier"));
                // The tolerance's own tier, or the next on a deep tree.
                assert!(tier == base || tier == base + 1, "tol {tol}, n {n}: {p:?}");
                assert!(n > 4000 || tier == base, "tol {tol}, n {n}: shallow trees keep the tier");
                assert_eq!((p.a, p.eta), (1.5, 2.0));
                assert!(LEAF_CAPACITIES.contains(&p.leaf_capacity), "tol {tol}, n {n}: {p:?}");
                assert!(p.check().is_ok());
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "thousands of model evaluations: too slow to interpret")]
    fn crossovers_are_where_the_model_last_prefers_direct() {
        let ladder: Vec<usize> = sizes().collect();
        for (tier, (tol, ..)) in SCHEDULE.into_iter().enumerate() {
            // From the top of the ladder down: the stretch over which the
            // hierarchy holds its margin without interruption.
            let holds = ladder.iter().rev().take_while(|&&n| {
                let tree = cheapest(n, candidates(n, tol, 1.0, 1.0));
                let direct = TreeParams { eval: TreeEval::Direct, ..tree };
                cost(n, &tree) < HIERARCHY_MARGIN * cost(n, &direct)
            });
            assert_eq!(holds.last(), Some(&CROSSOVER[tier]), "tier {tol}");
            // The choice is monotone: direct, then never again.
            for &n in &ladder {
                let direct = tune(n, tol, 1.0, 1.0).eval == TreeEval::Direct;
                assert_eq!(direct, n < CROSSOVER[tier], "tier {tol}, n {n}");
            }
        }
        // RPYFMM's point: small systems are below the crossover, the
        // paper's large ones far above it.
        assert!(CROSSOVER.iter().all(|&n| (500..100_000).contains(&n)));
        assert_ne!(tune(100_000, 1e-3, 1.0, 1.0).eval, TreeEval::Direct);
    }

    #[test]
    fn the_carried_hierarchy_is_the_cheapest_candidate() {
        for n in [300, 2000, 5000, 40_000] {
            let tuned = tune(n, 1e-3, 1.0, 1.0);
            let tree = cheapest(n, candidates(n, 1e-3, 1.0, 1.0));
            assert_eq!(TreeParams { eval: tree.eval, ..tuned }, tree, "n {n}");
            for other in candidates(n, 1e-3, 1.0, 1.0) {
                assert!(cost(n, &tree) <= cost(n, &other), "n {n}: {tree:?} vs {other:?}");
            }
        }
    }

    #[test]
    fn trees_deeper_than_measured_run_one_tier_stricter() {
        let at = |n, tol, eval, leaf_capacity| {
            let p = candidates(n, tol, 1.0, 1.0)
                .find(|p| p.eval == eval && p.leaf_capacity == leaf_capacity)
                .expect("every (eval, capacity) is a candidate");
            (p.theta, p.cheb_order)
        };
        // n = 8000: capacity 256 stops at depth 2 (125 per level-2 cell),
        // capacity 64 goes to depth 3 — one level past where the FMM holds
        // a tolerance (1.07e-3 measured at (0.4, 3)), still fine for the
        // treecode (7.7e-4).
        assert_eq!(at(8000, 1e-3, TreeEval::Fmm, 256), (0.4, 3));
        assert_eq!(at(8000, 1e-3, TreeEval::Fmm, 64), (0.4, 4));
        assert_eq!(at(8000, 1e-3, TreeEval::Tree, 64), (0.4, 3));
        assert_eq!(at(8000, 1e-2, TreeEval::Fmm, 64), (0.4, 3));
        // n = 200 000: every capacity is at depth 4 or below.
        for leaf_capacity in LEAF_CAPACITIES {
            assert_eq!(at(200_000, 1e-3, TreeEval::Tree, leaf_capacity), (0.4, 4));
            // The strictest tier has nowhere to go.
            assert_eq!(at(200_000, 1e-5, TreeEval::Fmm, leaf_capacity), (0.4, 5));
        }
        // The ladder's open shape sits at depth 2 whatever the capacity
        // above 32: nothing moves there.
        assert_eq!(at(2000, 1e-3, TreeEval::Fmm, 64), (0.4, 3));
        // An explicit theta is the caller's accuracy statement: no tier
        // moves under it.
        let pinned = tune_at_theta(200_000, 0.45, 1e-3, 1.0, 1.0);
        assert_eq!((pinned.theta, pinned.cheb_order), (0.45, 3));
    }

    #[test]
    fn an_explicit_theta_pins_a_hierarchy_chosen_by_cost() {
        for n in [10, 2000, 30_000] {
            // A tier's theta is priced from the table, any other by a live
            // traversal: same machinery, same kind of answer.
            for theta in [0.4, 0.55] {
                let p = tune_at_theta(n, theta, 1e-3, 1.0, 1.0);
                assert_eq!((p.theta, p.cheb_order), (theta, 3));
                assert_ne!(p.eval, TreeEval::Direct, "n {n}");
                assert!(LEAF_CAPACITIES.contains(&p.leaf_capacity));
            }
        }
        // At a tier's own theta, on a tree no deeper than that tier is
        // measured for, it is the hierarchy `tune` weighs against the direct
        // sum.
        let tuned = tune(8000, 1e-3, 1.0, 1.0);
        assert_eq!(tune_at_theta(8000, 0.4, 1e-3, 1.0, 1.0), tuned);
    }

    #[test]
    fn mixed_depth_trees_price_as_the_bad_points_they_are() {
        // n = 2000 at capacity 32 sits just under a level boundary (31
        // particles per level-2 cell, 40 % of them split): more than twice
        // the clean depth-2 tree of capacity 64, as measured.
        let at = |leaf_capacity| cost(2000, &TreeParams { leaf_capacity, ..TreeParams::default() });
        assert!(at(32) > 2.0 * at(64), "{} vs {}", at(32), at(64));
        assert!((split_probability(31.25, 32) - 0.40).abs() < 0.02);
        assert!(split_probability(250.0, 32) > 0.999 && split_probability(4.0, 32) < 1e-9);
    }

    #[test]
    #[cfg_attr(miri, ignore = "a dense n = 1000 reference: too slow to interpret")]
    fn tuned_params_meet_their_target() {
        // Each distinct point the tuner returns across the regimes, on a
        // cloud small enough for the dense reference and deep enough for a
        // far field at the smaller capacities.
        let pos = cloud(1000, 32.0, 8);
        for tol in [1e-2, 1e-3] {
            let mut seen: Vec<(TreeEval, usize)> = Vec::new();
            for n in [250, 2000, 8000, 100_000] {
                let params = tune(n, tol, 1.0, 1.0);
                if seen.contains(&(params.eval, params.leaf_capacity)) {
                    continue;
                }
                seen.push((params.eval, params.leaf_capacity));
                let err = measured_rel_error(&pos, params, 2);
                assert!(err <= tol, "tol {tol}, tuned for n = {n}: {params:?} measured {err}");
                if params.eval == TreeEval::Direct {
                    assert!(err < 1e-13, "the direct sum is exact: {err}");
                }
            }
            assert!(seen.iter().any(|&(e, _)| e == TreeEval::Direct));
            assert!(seen.iter().any(|&(e, _)| e != TreeEval::Direct));
        }
    }
}
