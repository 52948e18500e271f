//! The hierarchical free-space RPY mobility operator.
//!
//! `TreeOperator` approximates `Y = M X` for the free-space RPY tensor over
//! a fixed particle cloud in `O(n log n)` per column:
//!
//! 1. **Upward pass** ([`hibd_telemetry::Phase::Upward`]): particle source
//!    strengths (3-vectors) are anterpolated onto each leaf's `q^3`
//!    Chebyshev proxy grid (P2M), then merged up the tree through the eight
//!    universal child→parent transfer matrices (M2M).
//! 2. **Far field** ([`hibd_telemetry::Phase::FarField`]): for every
//!    (target-leaf, source-node) pair accepted by the multipole acceptance
//!    criterion, each target particle sums the far-branch RPY kernel against
//!    the source node's proxy weights. The MAC — `r_s < theta (d - r_t)` in
//!    both directions *and* `d - r_t - r_s >= 2a`, with `r = sqrt(3) half`
//!    the circumscribed radius — bounds each side's proxy spread over the
//!    other's nearest evaluation distance and guarantees every
//!    particle-proxy distance is at least `2a`, so the smooth far branch is
//!    exact there.
//! 3. **Near field** ([`hibd_telemetry::Phase::NearField`]): every pair the
//!    traversal could not separate is evaluated directly with the two-branch
//!    RPY tensor (Yamakawa overlap regularization included), plus the
//!    `mu0 I` diagonal.
//!
//! The dual tree traversal and its flattening into per-leaf interaction
//! lists happen once at construction ([`hibd_telemetry::Phase::TreeBuild`]);
//! applies are allocation-free at steady state (operator-owned scratch only)
//! and parallelize over leaves, whose Morton ranges partition the output;
//! the upward pass (and the FMM's L2L) parallelizes over sibling subtrees,
//! whose preorder ranges partition the per-node grids (`par_sweep`). No
//! stage of an apply is serial: at [`COL_TILE`] columns a serial upward pass
//! is ~2 ms at n = 2000, which is how long an idle pool thread spins before
//! it sleeps, so whether the far field started with a sleeping helper
//! depended on timing (26 of a run's 28 block tiles did).
//!
//! With [`TreeEval::Fmm`] the far field runs as a true kernel-independent
//! FMM instead: the MAC-accepted pairs stay at the *node* level and are
//! translated multipole-to-local ([`hibd_telemetry::Phase::M2l`]), locals
//! are pushed down by the transposed octant matrices and interpolated once
//! per particle ([`hibd_telemetry::Phase::Downward`]) — `O(n)` far-field
//! work, level-independent per particle. See the [`crate::fmm`] module docs
//! for the table construction and the determinism argument.
//!
//! With [`TreeEval::Direct`] there is no hierarchy at all: the root is the
//! only leaf, there is no proxy grid (`q = 0`, so every per-node buffer has
//! length zero) and an apply is one `NearField` pass — `par_direct` cuts
//! the Morton target range into chunks that recurse under `rayon::join`
//! like the leaf passes, each chunk against all `n` sources in full
//! [`PAIR_TILE`] tiles through the near field's own body (`near_block`).
//! Exact, `O(n^2)`, and below the hierarchical crossover the cheapest of the
//! three; [`crate::tune`] decides (see [`crate::tuner`]).
//!
//! # Blocks of vectors
//!
//! The paper's Section III-B argument for PME holds here too: the tree, the
//! interaction lists and every pair's kernel scalars depend on the positions
//! only, so a block of `s` right-hand sides should traverse the structure
//! and evaluate the kernel **once**. There is one apply body,
//! `apply_tile`, generic in the tile width `w`: `apply_multi` cuts its
//! block into column tiles of at most [`COL_TILE`] and `apply` is the
//! `w = 1` tile — there is no second single-column kernel anywhere.
//!
//! *Layouts.* A tile is gathered into Morton order as `[particle][comp][w]`
//! (`xr`; the result `yr` likewise), proxy weights and FMM locals are
//! `[node][comp][m][w]` with `m` the proxy-grid index: the `w` columns of
//! one scalar are always contiguous.
//!
//! *Far field, upward and downward passes: lanes over columns.* Each
//! particle–proxy (or M2L grid–grid) pair's `fi`, `g = frr / r^2` and
//! displacement `d` are computed once and broadcast against the `w`
//! contiguous weights through one micro-kernel, `far_columns`
//! (`o += fi w + g (d·w) d`); P2M/M2M/L2L/L2P broadcast one interpolation
//! coefficient the same way. Per column this is the historical scalar
//! expression tree, operation for operation — plain mul/add, never
//! `mul_add` — so column `j` of a block equals `apply` on that column by
//! `to_bits`, and `apply` kept the bits it had before blocks existed. The
//! body is compiled twice (`kernel_scalar`, and `kernel_avx2` = the same
//! source with 256-bit registers; no FMA contraction either way), with the
//! widths `1` and [`COL_TILE`] constant-propagated so their column loops
//! unroll into registers.
//!
//! *Near field: lanes over pairs.* [`hibd_rpy::rpy_pairs_accumulate_multi`]
//! keeps its four SIMD lanes on four source particles and loops the columns
//! inside (its module docs say why); the leaf stages each source tile's
//! columns once, transposed to `[col][comp][source]`.
//!
//! *The tile width is a memory bound.* The tile scratch is
//! `(6 n + 3 q^3 nodes) w` doubles (plus `3 q^3 nodes w` FMM locals; `6 n w`
//! for the direct sum); it is
//! sized for width 1 at build and grows to the widest tile applied, never
//! back — `apply`-only users keep the single-column footprint, and
//! `state_memory_bytes` counts whatever is resident. [`COL_TILE`] `= 8` is
//! what the ladder's 5 % peak-RSS gate leaves room for on its n = 2000
//! open workload (measurements beside the constant in `hibd_rpy`).

use crate::cheb;
use crate::fmm;
use crate::tree::{Node, Octree, NO_CHILD};
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_rpy::{rpy_pairs_accumulate_multi, rpy_self_mobility, COL_TILE, PAIR_TILE};
use hibd_telemetry::{Counter, Phase, Snapshot};
use std::sync::Arc;

use hibd_hot as hibd;

/// Largest supported Chebyshev order (stack buffers in the hot kernels).
pub const MAX_CHEB_ORDER: usize = 8;

/// Largest proxy-grid size (`MAX_CHEB_ORDER^3`), for hot-kernel stack buffers.
const MAX_Q3: usize = MAX_CHEB_ORDER * MAX_CHEB_ORDER * MAX_CHEB_ORDER;

/// Treecode accuracy/geometry parameters.
///
/// Convention: the MAC accepts a pair when `r_s < theta * (d - r_t)` in both
/// directions (with `r = sqrt(3) * half`), so *smaller* `theta` means
/// stricter acceptance and higher accuracy; `cheb_order` is the number of
/// proxy points per dimension
/// (`q^3` per node). The defaults keep the relative matvec error below
/// `1e-3` with roughly a 2x margin against the dense free-space RPY matrix
/// on uniform clouds up to `n ~ 10^4` (see `tuner`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeParams {
    /// Multipole acceptance parameter in `(0, 1)`.
    pub theta: f64,
    /// Maximum particles per leaf.
    pub leaf_capacity: usize,
    /// Chebyshev points per dimension (`2..=MAX_CHEB_ORDER`).
    pub cheb_order: usize,
    /// Particle radius.
    pub a: f64,
    /// Fluid viscosity.
    pub eta: f64,
    /// Far-field evaluation strategy.
    pub eval: TreeEval,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            theta: 0.4,
            leaf_capacity: 32,
            cheb_order: 3,
            a: 1.0,
            eta: 1.0,
            eval: TreeEval::Tree,
        }
    }
}

impl TreeParams {
    /// Check every precondition [`TreePlans::new`] relies on; the error names
    /// the offending field and its value. Callers holding parameters from
    /// outside the program (an explicit `MatrixFreeConfig::tree`) validate
    /// here and report a typed setup error; `TreePlans::new` panics on the
    /// same message.
    pub fn check(&self) -> Result<(), String> {
        // `!(x > 0.0)` rather than `x <= 0.0`: NaN must fail too.
        if !(self.theta > 0.0 && self.theta < 1.0) {
            return Err(format!("tree theta {} outside (0, 1)", self.theta));
        }
        if self.leaf_capacity == 0 {
            return Err("tree leaf_capacity 0 must be positive".into());
        }
        if !(2..=MAX_CHEB_ORDER).contains(&self.cheb_order) {
            return Err(format!(
                "tree cheb_order {} outside 2..={MAX_CHEB_ORDER}",
                self.cheb_order
            ));
        }
        for (field, x) in [("a", self.a), ("eta", self.eta)] {
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("tree {field} {x} must be positive and finite"));
            }
        }
        Ok(())
    }
}

/// Evaluation strategy of the open-boundary operator — an output of
/// [`crate::tune`], not a user choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TreeEval {
    /// Node-to-particle treecode: each target particle sums every accepted
    /// source node's proxies directly — `O(n log n)`, no downward pass.
    #[default]
    Tree,
    /// Kernel-independent FMM: M2L translations between proxy grids, L2L
    /// child shifts, one L2P interpolation per particle — `O(n)` far field.
    Fmm,
    /// The exact `O(n^2)` sum: every target against every source through
    /// the near-field pair kernel. No tree, no MAC, no proxies — error at
    /// rounding level; the cheapest evaluation below the hierarchical
    /// crossover (`theta` and `cheb_order` are carried but unused).
    Direct,
}

/// Position-independent treecode setup artifacts, shareable across
/// operators: the validated parameters, the 1-D Chebyshev node set, and the
/// eight universal child→parent (M2M) transfer matrices. All of it is a
/// pure function of [`TreeParams`] (only `cheb_order` matters numerically),
/// so one `Arc<TreePlans>` serves every rebuild of one trajectory and every
/// replica of an ensemble.
pub struct TreePlans {
    params: TreeParams,
    /// 1-D Chebyshev nodes (length `q`).
    cheb_t: Vec<f64>,
    /// Eight `q^3 x q^3` octant M2M matrices.
    m2m: Vec<Vec<f64>>,
    /// The eight transposed octant matrices (parent→child L2L transfers);
    /// built only for [`TreeEval::Fmm`] parameters, empty otherwise.
    l2l: Vec<Vec<f64>>,
}

impl TreePlans {
    /// Validate the parameters and build the shared Chebyshev tables.
    ///
    /// # Panics
    /// If [`TreeParams::check`] rejects the parameters.
    pub fn new(params: TreeParams) -> TreePlans {
        if let Err(e) = params.check() {
            panic!("{e}");
        }
        if params.eval == TreeEval::Direct {
            // The direct sum has no proxies: nothing to share.
            return TreePlans { params, cheb_t: Vec::new(), m2m: Vec::new(), l2l: Vec::new() };
        }
        let cheb_t = cheb::nodes(params.cheb_order);
        let m2m = cheb::m2m_octants(&cheb_t);
        // L2L is interpolation from the parent grid onto a child grid — the
        // transpose of the child→parent anterpolation, octant by octant.
        let l2l = if params.eval == TreeEval::Fmm {
            let q3 = cheb_t.len().pow(3);
            m2m.iter()
                .map(|m| {
                    let mut t = vec![0.0; q3 * q3];
                    for r in 0..q3 {
                        for c in 0..q3 {
                            t[c * q3 + r] = m[r * q3 + c];
                        }
                    }
                    t
                })
                .collect()
        } else {
            Vec::new()
        };
        TreePlans { params, cheb_t, m2m, l2l }
    }

    /// The validated parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Resident bytes of the shared tables.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cheb_t.capacity() * size_of::<f64>()
            + self.m2m.iter().map(|m| m.capacity() * size_of::<f64>()).sum::<usize>()
            + self.m2m.capacity() * size_of::<Vec<f64>>()
            + self.l2l.iter().map(|m| m.capacity() * size_of::<f64>()).sum::<usize>()
            + self.l2l.capacity() * size_of::<Vec<f64>>()
    }
}

/// The matrix-free hierarchical RPY operator (see module docs).
pub struct TreeOperator {
    plans: Arc<TreePlans>,
    tree: Octree,
    n: usize,
    q3: usize,
    /// Per-particle anterpolation weights `[particle][dim][q]` (Morton
    /// order), toward the particle's leaf grid.
    pw: Vec<f64>,
    /// CSR per-leaf far interaction lists (source node ids).
    far_off: Vec<u32>,
    far_src: Vec<u32>,
    /// CSR per-leaf near interaction lists (source *leaf node* ids; a
    /// leaf's own id marks the self block).
    near_off: Vec<u32>,
    near_src: Vec<u32>,
    /// FMM far-field state ([`TreeEval::Fmm`] only): node-level interaction
    /// lists with deduplicated M2L tables, plus the local-expansion scratch
    /// (part of the tile scratch, see `width`).
    fmm: Option<FmmState>,
    /// Interactions per applied column (near particle pairs + far
    /// particle-proxy evaluations; for FMM, `q^6` per M2L translation + `q^3`
    /// per particle L2P), for `Counter::TreeInteractions`.
    interactions: u64,
    /// Widest column tile the scratch below (and the FMM locals) holds:
    /// `1` from construction, then the widest tile applied so far — grown by
    /// `ensure_width`, never shrunk, so steady-state applies stay
    /// allocation-free. A tile of width `w` uses the `w`-strided prefix of
    /// each buffer.
    width: usize,
    /// Morton-ordered input/output tile, `[particle][comp][w]`.
    xr: Vec<f64>,
    yr: Vec<f64>,
    /// Proxy source strengths of the tile, `[node][comp][q^3][w]` (planar
    /// per component: the M2M and far-field inner loops are unit-stride).
    weights: Vec<f64>,
    /// Phase spans of this instance: `TreeBuild` once, then per applied
    /// column tile (one per `apply`, `ceil(s / COL_TILE)` per `apply_multi`)
    /// `Upward`, `NearField` and `FarField` (treecode) or `M2l`/`Downward`
    /// (FMM) — the other mode's phases stay empty.
    snap: Snapshot,
}

/// Per-operator FMM far-field state (see [`TreeOperator::fmm`]).
struct FmmState {
    data: fmm::FmmData,
    /// Local expansions of the tile, `[node][comp][q^3][w]` (sized like
    /// `TreeOperator::weights`).
    locals: Vec<f64>,
}

impl TreeOperator {
    /// Build the octree, traversal lists, and anterpolation tables for a
    /// fixed particle cloud, including its own Chebyshev tables.
    pub fn new(positions: &[Vec3], params: TreeParams) -> TreeOperator {
        Self::with_plans(positions, Arc::new(TreePlans::new(params)))
    }

    /// Build the position-dependent part of the operator (octree, traversal
    /// lists, anterpolation weights, scratch) on top of shared Chebyshev
    /// tables — the per-window / per-replica construction path.
    pub fn with_plans(positions: &[Vec3], plans: Arc<TreePlans>) -> TreeOperator {
        let params = plans.params;
        let sw = hibd_telemetry::start(Phase::TreeBuild);

        let n = positions.len();
        // The direct sum is this operator with the root as its only leaf and
        // no proxy grid (`q = 0`): the traversal below then yields the one
        // near pair (root, root) and every per-node buffer has length zero.
        let direct = params.eval == TreeEval::Direct;
        let cheb_t = &plans.cheb_t;
        let q = cheb_t.len();
        let q3 = q * q * q;
        let tree = Octree::build(positions, if direct { usize::MAX } else { params.leaf_capacity });

        // Per-particle anterpolation weights toward the owning leaf's grid.
        let mut pw = vec![0.0; n * 3 * q];
        for &l in &tree.leaves {
            let node = &tree.nodes[l as usize];
            let h = node.half.max(f64::MIN_POSITIVE);
            for k in node.start..node.end {
                let p = tree.pos[k as usize];
                let base = k as usize * 3 * q;
                cheb::weights_into(cheb_t, (p.x - node.center.x) / h, &mut pw[base..base + q]);
                cheb::weights_into(
                    cheb_t,
                    (p.y - node.center.y) / h,
                    &mut pw[base + q..base + 2 * q],
                );
                cheb::weights_into(
                    cheb_t,
                    (p.z - node.center.z) / h,
                    &mut pw[base + 2 * q..base + 3 * q],
                );
            }
        }

        // Dual traversal -> ordered (target, source) pair lists.
        let (far_pairs, near_pairs) = ordered_pairs(&tree, params.theta, 2.0 * params.a);

        let nleaves = tree.leaves.len();
        let mut leaf_index = vec![u32::MAX; tree.nodes.len()];
        for (li, &l) in tree.leaves.iter().enumerate() {
            leaf_index[l as usize] = li as u32;
        }
        let mut near_by_leaf: Vec<Vec<u32>> = vec![Vec::new(); nleaves];
        for &(t, s) in &near_pairs {
            near_by_leaf[leaf_index[t as usize] as usize].push(s);
        }
        let (near_off, near_src) = csr(&near_by_leaf);

        // Far-field structure: flatten accepted pairs to per-leaf lists
        // (treecode), or keep them at the node level and build the M2L
        // tables (FMM). `far_evals` is the far workload per apply.
        let (far_off, far_src, fmm, far_evals) = match params.eval {
            TreeEval::Tree => {
                let mut far_by_leaf: Vec<Vec<u32>> = vec![Vec::new(); nleaves];
                let mut stack: Vec<u32> = Vec::new();
                for &(t, s) in &far_pairs {
                    stack.push(t);
                    while let Some(ni) = stack.pop() {
                        let node = &tree.nodes[ni as usize];
                        if node.leaf {
                            far_by_leaf[leaf_index[ni as usize] as usize].push(s);
                        } else {
                            stack.extend(node.children.iter().copied().filter(|&c| c != NO_CHILD));
                        }
                    }
                }
                let mut far_evals: u64 = 0;
                for (li, &l) in tree.leaves.iter().enumerate() {
                    let tlen = tree.nodes[l as usize].len() as u64;
                    far_evals += tlen * (far_by_leaf[li].len() as u64) * (q3 as u64);
                }
                let (far_off, far_src) = csr(&far_by_leaf);
                (far_off, far_src, None, far_evals)
            }
            TreeEval::Fmm => {
                let data = fmm::FmmData::build(&tree, &far_pairs, cheb_t, params.a);
                // `q^6` kernel-table entries per M2L translation plus one
                // `q^3` interpolation per particle (L2P): per-particle far
                // work is level-independent.
                let far_evals = (data.num_pairs() as u64) * (q3 as u64) * (q3 as u64)
                    + (n as u64) * (q3 as u64);
                let state = FmmState { data, locals: Vec::new() };
                (vec![0u32; nleaves + 1], Vec::new(), Some(state), far_evals)
            }
            TreeEval::Direct => (vec![0u32; nleaves + 1], Vec::new(), None, 0),
        };

        // Workload per apply: far field plus direct near pairs.
        let mut interactions: u64 = far_evals;
        for (li, &l) in tree.leaves.iter().enumerate() {
            let tlen = tree.nodes[l as usize].len() as u64;
            for &s in &near_by_leaf[li] {
                interactions += tlen * tree.nodes[s as usize].len() as u64;
            }
        }

        let mut op = TreeOperator {
            plans,
            tree,
            n,
            q3,
            pw,
            far_off,
            far_src,
            near_off,
            near_src,
            fmm,
            interactions,
            width: 0,
            xr: Vec::new(),
            yr: Vec::new(),
            weights: Vec::new(),
            snap: Snapshot::empty(),
        };
        op.ensure_width(1);
        sw.stop(&mut op.snap);
        op
    }

    /// The parameters the operator was built with.
    pub fn params(&self) -> &TreeParams {
        &self.plans.params
    }

    /// The shared setup artifacts backing this operator.
    pub fn plans(&self) -> &Arc<TreePlans> {
        &self.plans
    }

    /// Deepest tree level (`0` for a single-leaf or empty tree).
    pub fn max_depth(&self) -> u32 {
        self.tree.max_depth()
    }

    /// `(M2L translations per apply, distinct deduplicated tables)` when
    /// the operator was built with [`TreeEval::Fmm`], `None` otherwise.
    pub fn fmm_stats(&self) -> Option<(usize, usize)> {
        self.fmm.as_ref().map(|st| (st.data.num_pairs(), st.data.num_entries()))
    }

    /// Near + far interaction evaluations per applied column (a block apply
    /// of `s` columns adds `s` times this to `Counter::TreeInteractions`).
    pub fn interactions_per_apply(&self) -> u64 {
        self.interactions
    }

    /// Phase spans accumulated by this operator's build and applies.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// Total bytes of operator-owned storage (tree, tables, lists, scratch),
    /// counting the shared plans in full — the standalone footprint. An
    /// ensemble sums [`TreeOperator::state_memory_bytes`] and counts each
    /// distinct [`TreePlans`] once.
    pub fn memory_bytes(&self) -> usize {
        self.state_memory_bytes() + self.plans.memory_bytes()
    }

    /// Resident bytes of the per-job part only (everything except the
    /// shared [`TreePlans`]).
    pub fn state_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tree.order.capacity() * size_of::<u32>()
            + self.tree.pos.capacity() * size_of::<Vec3>()
            + self.tree.nodes.capacity() * size_of::<Node>()
            + self.tree.leaves.capacity() * size_of::<u32>()
            + self.pw.capacity() * size_of::<f64>()
            + self.weights.capacity() * size_of::<f64>()
            + self.far_off.capacity() * size_of::<u32>()
            + self.far_src.capacity() * size_of::<u32>()
            + self.near_off.capacity() * size_of::<u32>()
            + self.near_src.capacity() * size_of::<u32>()
            + self.xr.capacity() * size_of::<f64>()
            + self.yr.capacity() * size_of::<f64>()
            + match &self.fmm {
                Some(st) => st.data.memory_bytes() + st.locals.capacity() * size_of::<f64>(),
                None => 0,
            }
    }

    /// Grow the tile scratch (and the FMM locals) to hold a `w`-column
    /// tile. Grow-only and exact, so steady-state applies never allocate and
    /// `state_memory_bytes` reports what is resident.
    fn ensure_width(&mut self, w: usize) {
        if w <= self.width {
            return;
        }
        self.width = w;
        let grow = |v: &mut Vec<f64>, len: usize| {
            v.reserve_exact(len - v.len());
            v.resize(len, 0.0);
        };
        let grid = self.tree.nodes.len() * 3 * self.q3 * w;
        grow(&mut self.xr, 3 * self.n * w);
        grow(&mut self.yr, 3 * self.n * w);
        grow(&mut self.weights, grid);
        if let Some(st) = &mut self.fmm {
            grow(&mut st.locals, grid);
        }
    }

    /// The one apply body: columns `col0..col0 + w` of the `s`-column block
    /// `x` (row-major `[dim][s]`) through the whole operator into the same
    /// columns of `y`. `apply` is the `s = w = 1` call.
    fn apply_tile(&mut self, x: &[f64], y: &mut [f64], s: usize, col0: usize, w: usize) {
        debug_assert!((1..=COL_TILE).contains(&w) && col0 + w <= s);
        if self.n == 0 {
            return;
        }
        self.ensure_width(w);
        let tile = 3 * self.n * w;
        let grid = self.tree.nodes.len() * 3 * self.q3 * w;
        let nleaves = self.tree.leaves.len();

        // The buffers a pass writes are moved out so the kernels can borrow
        // `self` shared while writing disjoint slices of them (no
        // allocation: `take` swaps in an empty vec).
        let direct = self.plans.params.eval == TreeEval::Direct;
        let mut sw = hibd_telemetry::start(if direct { Phase::NearField } else { Phase::Upward });
        gather(&self.tree.order, x, s, col0, w, &mut self.xr[..tile]);
        let mut yr = std::mem::take(&mut self.yr);
        let yt = &mut yr[..tile];
        yt.fill(0.0);

        if direct {
            // The whole apply is one pass of the pair kernel: every target
            // chunk against all sources.
            par_direct(self, 0, self.n, w, yt);
        } else {
            let mut weights = std::mem::take(&mut self.weights);
            par_sweep(self, Sweep::Up, 0, w, &mut weights[..grid]);
            self.weights = weights;
            sw.stop(&mut self.snap);

            if self.fmm.is_some() {
                // FMM far field: M2L into the locals (node-parallel, disjoint
                // slices), L2L push-down by subtree, then one L2P pass per
                // leaf. The state is taken out so the M2L pass can borrow
                // `self` shared, and restored before L2P reads the locals
                // through it.
                let mut st = self.fmm.take().expect("checked above");
                let m2l_pairs = st.data.num_pairs() as u64;
                let locals = &mut st.locals[..grid];

                let sw = hibd_telemetry::start(Phase::M2l);
                locals.fill(0.0);
                par_m2l(self, &st.data, 0, self.tree.nodes.len(), w, locals);
                sw.stop(&mut self.snap);

                let sw = hibd_telemetry::start(Phase::Downward);
                par_sweep(self, Sweep::Down, 0, w, locals);
                self.fmm = Some(st);
                par_leaf_pass(self, LeafPass::L2p, 0, nleaves, w, yt);
                sw.stop(&mut self.snap);
                hibd_telemetry::incr(Counter::M2lTranslations, m2l_pairs * w as u64);
            } else {
                let sw = hibd_telemetry::start(Phase::FarField);
                par_leaf_pass(self, LeafPass::Far, 0, nleaves, w, yt);
                sw.stop(&mut self.snap);
            }

            sw = hibd_telemetry::start(Phase::NearField);
            par_leaf_pass(self, LeafPass::Near, 0, nleaves, w, yt);
        }
        sw.stop(&mut self.snap);

        scatter(&self.tree.order, yt, s, col0, w, y);
        self.yr = yr;
        hibd_telemetry::incr(Counter::TreeInteractions, self.interactions * w as u64);
    }
}

/// Gather columns `col0..col0 + w` of `x` (original particle order,
/// row-major `[dim][s]`) into the Morton-ordered tile `[particle][comp][w]`.
#[hibd::hot]
fn gather(order: &[u32], x: &[f64], s: usize, col0: usize, w: usize, xr: &mut [f64]) {
    for (&i, xk) in order.iter().zip(xr.chunks_exact_mut(3 * w)) {
        for (c, xc) in xk.chunks_exact_mut(w).enumerate() {
            let at = (3 * i as usize + c) * s + col0;
            xc.copy_from_slice(&x[at..at + w]);
        }
    }
}

/// Scatter the Morton-ordered result tile back to columns `col0..col0 + w`
/// of `y` in the original order.
#[hibd::hot]
fn scatter(order: &[u32], yr: &[f64], s: usize, col0: usize, w: usize, y: &mut [f64]) {
    for (&i, yk) in order.iter().zip(yr.chunks_exact(3 * w)) {
        for (c, yc) in yk.chunks_exact(w).enumerate() {
            let at = (3 * i as usize + c) * s + col0;
            y[at..at + w].copy_from_slice(yc);
        }
    }
}

/// One unit of width-generic kernel work, for [`run_kernel`].
enum Kernel<'a> {
    /// One node of a [`par_sweep`]; `sub` is the grids of its subtree.
    Node { sweep: Sweep, node: usize, sub: &'a mut [f64] },
    /// One leaf of a [`par_leaf_pass`]; `y` is that leaf's output slice.
    Leaf { pass: LeafPass, ord: usize, y: &'a mut [f64] },
    /// M2L fan-in of target node `node`; `out` is its local expansion.
    M2l { data: &'a fmm::FmmData, node: usize, out: &'a mut [f64] },
    /// One target chunk of a [`par_direct`] pass, starting at Morton index
    /// `first`; `y` is the chunk's output slice.
    Direct { first: usize, y: &'a mut [f64] },
}

/// The single SIMD dispatch point of the apply: every width-generic kernel
/// runs through here, as [`kernel_avx2`] when the host has AVX2 and
/// [`kernel_scalar`] otherwise — one source, identical bits.
#[hibd::hot]
fn run_kernel(op: &TreeOperator, w: usize, work: Kernel) {
    #[cfg(target_arch = "x86_64")]
    if hibd_simd::avx2() {
        // SAFETY: `hibd_simd::avx2()` returns true only after runtime
        // detection of the avx2 target feature on this CPU.
        unsafe { kernel_avx2(op, w, work) };
        return;
    }
    kernel_scalar(op, w, work);
}

/// Width specialization: the tile widths that matter — `1` (`apply`) and a
/// full [`COL_TILE`] — reach the kernels as constants, so their column loops
/// unroll and the per-column accumulators live in registers; tail tiles take
/// the same body with a runtime width.
#[hibd::hot]
#[inline(always)]
fn kernel_scalar(op: &TreeOperator, w: usize, work: Kernel) {
    match w {
        1 => kernel(op, 1, work),
        COL_TILE => kernel(op, COL_TILE, work),
        _ => kernel(op, w, work),
    }
}

/// [`kernel_scalar`] compiled for AVX2 registers: the same body, so plain
/// `mul`/`add` per column lane (the `fma` feature is not enabled and Rust
/// never contracts) and every column is bitwise the scalar loop — a pure
/// speedup, legal under either `HIBD_SIMD` leg. The near field dispatches
/// its own pair kernel inside `hibd_rpy`.
///
/// # Safety
/// The caller must ensure the CPU supports the `avx2` target feature
/// (runtime-detected via `hibd_simd::avx2()`).
#[cfg(target_arch = "x86_64")]
#[hibd::hot]
#[target_feature(enable = "avx2")]
unsafe fn kernel_avx2(op: &TreeOperator, w: usize, work: Kernel) {
    kernel_scalar(op, w, work);
}

/// The kernels themselves, by unit of work, at tile width `w`.
#[hibd::hot]
#[inline(always)]
fn kernel(op: &TreeOperator, w: usize, work: Kernel) {
    match work {
        Kernel::Node { sweep: Sweep::Up, node, sub } => upward_node(op, node, w, sub),
        Kernel::Node { sweep: Sweep::Down, node, sub } => l2l_node(op, node, w, sub),
        Kernel::Leaf { pass, ord, y } => {
            let node = &op.tree.nodes[op.tree.leaves[ord] as usize];
            debug_assert_eq!(y.len(), 3 * w * node.len());
            match pass {
                LeafPass::Far => far_leaf(op, ord, node, w, y),
                LeafPass::Near => near_leaf(op, ord, node, w, y),
                LeafPass::L2p => l2p_leaf(op, ord, node, w, y),
            }
        }
        Kernel::M2l { data, node, out } => m2l_node(op, data, node, w, out),
        Kernel::Direct { first, y } => {
            near_block(op, first..first + y.len() / (3 * w), std::iter::once(0..op.n), w, y);
        }
    }
}

/// Upward pass at one node whose children are done: P2M on a leaf, else the
/// children's M2M merges in octant order. `sub` holds the proxy weights of
/// the node's subtree — preorder, so the node's own grid comes first and
/// child `c` sits `c - ni - 1` grids behind it.
#[hibd::hot]
#[inline(always)]
fn upward_node(op: &TreeOperator, ni: usize, w: usize, sub: &mut [f64]) {
    let q3 = op.q3;
    let stride = 3 * q3 * w;
    let node = &op.tree.nodes[ni];
    let (own, below) = sub.split_at_mut(stride);
    own.fill(0.0);
    if node.leaf {
        p2m_leaf(node, &op.pw, &op.xr, op.plans.params.cheb_order, w, own);
        return;
    }
    for c in node.children {
        if c == NO_CHILD {
            continue;
        }
        let ci = c as usize;
        let child = &below[(ci - ni - 1) * stride..(ci - ni) * stride];
        m2m_accumulate(&op.plans.m2m[op.tree.nodes[ci].octant as usize], child, q3, w, own);
    }
}

/// L2L at one node: push its (final) local expansion onto its children's
/// grids through the transposed octant matrices. `sub` is laid out as in
/// [`upward_node`].
#[hibd::hot]
#[inline(always)]
fn l2l_node(op: &TreeOperator, ni: usize, w: usize, sub: &mut [f64]) {
    let q3 = op.q3;
    let stride = 3 * q3 * w;
    let (own, below) = sub.split_at_mut(stride);
    for c in op.tree.nodes[ni].children {
        if c == NO_CHILD {
            continue;
        }
        let ci = c as usize;
        let child = &mut below[(ci - ni - 1) * stride..(ci - ni) * stride];
        // The transposed-GEMV shape is identical to M2M, so the same
        // kernel serves with the L2L table and the roles of parent/child
        // swapped.
        m2m_accumulate(&op.plans.l2l[op.tree.nodes[ci].octant as usize], own, q3, w, child);
    }
}

/// P2M: anterpolate the leaf's particle strengths (`xr`, `[particle][comp][w]`)
/// onto its proxy grid (`wt`, `[comp][q^3][w]`).
#[hibd::hot]
#[inline(always)]
fn p2m_leaf(node: &Node, pw: &[f64], xr: &[f64], q: usize, w: usize, wt: &mut [f64]) {
    let q3 = q * q * q;
    let (tx, tyz) = wt.split_at_mut(q3 * w);
    let (ty, tz) = tyz.split_at_mut(q3 * w);
    for k in node.start as usize..node.end as usize {
        let base = k * 3 * q;
        let (wx, rest) = pw[base..base + 3 * q].split_at(q);
        let (wy, wz) = rest.split_at(q);
        let (sx, syz) = xr[3 * k * w..3 * (k + 1) * w].split_at(w);
        let (sy, sz) = syz.split_at(w);
        let mut m = 0;
        for &ax in wx {
            for &ay in wy {
                let axy = ax * ay;
                for &az in wz {
                    let s = axy * az;
                    let (cx, cy, cz) = (
                        &mut tx[m * w..(m + 1) * w],
                        &mut ty[m * w..(m + 1) * w],
                        &mut tz[m * w..(m + 1) * w],
                    );
                    for j in 0..w {
                        cx[j] += s * sx[j];
                        cy[j] += s * sy[j];
                        cz[j] += s * sz[j];
                    }
                    m += 1;
                }
            }
        }
    }
}

/// M2M: `parent += T_octant * child`, one unit-stride `q^3 x q^3` GEMV per
/// weight component plane and column (planes are `[q^3][w]`).
#[hibd::hot]
#[inline(always)]
fn m2m_accumulate(mat: &[f64], child: &[f64], q3: usize, w: usize, parent: &mut [f64]) {
    for c in 0..3 {
        let cp = &child[c * q3 * w..(c + 1) * q3 * w];
        let pp = &mut parent[c * q3 * w..(c + 1) * q3 * w];
        for (m, pv) in pp.chunks_exact_mut(w).enumerate() {
            let row = &mat[m * q3..(m + 1) * q3];
            let mut acc = [0.0f64; COL_TILE];
            let acc = &mut acc[..w];
            for (t, x) in row.iter().zip(cp.chunks_exact(w)) {
                for j in 0..w {
                    acc[j] += t * x[j];
                }
            }
            for j in 0..w {
                pv[j] += acc[j];
            }
        }
    }
}

/// The far-field column micro-kernel, shared by the treecode's
/// particle–proxy evaluation and the FMM's M2L: one source point's RPY far
/// tensor `fi I + g d dᵀ` (`g = frr / r^2`, raw displacement `d`) applied to
/// its `w` columns of weights, `o += fi w + g (d·w) d`. The expression tree
/// per column is the historical single-vector one; do not re-associate it
/// and do not use `mul_add`.
#[hibd::hot]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn far_columns(
    fi: f64,
    g: f64,
    d: [f64; 3],
    wx: &[f64],
    wy: &[f64],
    wz: &[f64],
    ox: &mut [f64],
    oy: &mut [f64],
    oz: &mut [f64],
) {
    let [dx, dy, dz] = d;
    for j in 0..ox.len() {
        let dot = dx * wx[j] + dy * wy[j] + dz * wz[j];
        ox[j] += fi * wx[j] + g * dot * dx;
        oy[j] += fi * wy[j] + g * dot * dy;
        oz[j] += fi * wz[j] + g * dot * dz;
    }
}

/// How the dual traversal settled an unordered node pair.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settled {
    /// MAC-accepted: each side's proxy grid serves the other.
    Far,
    /// Two leaves (or one leaf with itself) the MAC could not separate.
    Near,
}

/// Dual tree traversal from the node pair `(a, b)` — `(0, 0)` for the whole
/// tree: `emit` sees every settled *unordered* pair once (a leaf's self pair
/// as `(l, l)`), in a fixed order. The MAC is the two-sided ratio criterion
/// (see inline comment), so an accepted pair is admissible as source *and*
/// as target. The operator turns the pairs into its interaction lists; the
/// tuner's cost model counts them on a synthetic tree.
pub(crate) fn dual_traverse(
    tree: &Octree,
    a: usize,
    b: usize,
    theta: f64,
    two_a: f64,
    emit: &mut impl FnMut(Settled, usize, usize),
) {
    let na = &tree.nodes[a];
    let nb = &tree.nodes[b];
    if a == b {
        if na.leaf {
            emit(Settled::Near, a, a);
            return;
        }
        for (i, &ci) in na.children.iter().enumerate() {
            for &cj in &na.children[i..] {
                if ci != NO_CHILD && cj != NO_CHILD {
                    dual_traverse(tree, ci as usize, cj as usize, theta, two_a, emit);
                }
            }
        }
        return;
    }
    let d = (na.center - nb.center).norm();
    let (ra, rb) = (na.radius(), nb.radius());
    // Ratio MAC, both directions (each side's proxy spread over the other's
    // nearest evaluation distance): distant regions coarsen to few large
    // source nodes instead of many small ones. `theta < 1` makes either
    // clause imply `d > ra + rb`; the `2a` clause keeps the far branch exact.
    if rb < theta * (d - ra) && ra < theta * (d - rb) && d - ra - rb >= two_a {
        emit(Settled::Far, a, b);
        return;
    }
    if na.leaf && nb.leaf {
        emit(Settled::Near, a, b);
        return;
    }
    // Split the internal one; of two internals, the larger (ties: `a`).
    if nb.leaf || (!na.leaf && na.half >= nb.half) {
        for c in na.children {
            if c != NO_CHILD {
                dual_traverse(tree, c as usize, b, theta, two_a, emit);
            }
        }
    } else {
        for c in nb.children {
            if c != NO_CHILD {
                dual_traverse(tree, a, c as usize, theta, two_a, emit);
            }
        }
    }
}

/// Ordered `(target, source)` node pairs.
pub(crate) type PairList = Vec<(u32, u32)>;

/// The whole tree's traversal as ordered pair lists, `(far, near)`: both
/// directions of every settled pair, `(l, l)` once.
pub(crate) fn ordered_pairs(tree: &Octree, theta: f64, two_a: f64) -> (PairList, PairList) {
    let mut far = PairList::new();
    let mut near = PairList::new();
    if !tree.nodes.is_empty() {
        dual_traverse(tree, 0, 0, theta, two_a, &mut |settled, a, b| {
            let list = if settled == Settled::Far { &mut far } else { &mut near };
            list.push((a as u32, b as u32));
            if a != b {
                list.push((b as u32, a as u32));
            }
        });
    }
    (far, near)
}

/// Flatten per-leaf lists into CSR (offsets, indices).
fn csr(by_leaf: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut off = Vec::with_capacity(by_leaf.len() + 1);
    off.push(0u32);
    let total: usize = by_leaf.iter().map(Vec::len).sum();
    let mut idx = Vec::with_capacity(total);
    for list in by_leaf {
        idx.extend_from_slice(list);
        off.push(idx.len() as u32);
    }
    (off, idx)
}

/// Which per-leaf kernel a [`par_leaf_pass`] sweep runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LeafPass {
    /// Treecode far field: particles against accepted source proxy grids.
    Far,
    /// Direct near field (both modes).
    Near,
    /// FMM L2P: interpolate each leaf's local expansion at its particles.
    L2p,
}

/// Recursive leaf-parallel evaluation over the leaf-ordinal range
/// `lo..hi`: the leaves' Morton ranges partition `0..n`, so the output tile
/// is split at leaf boundaries and the two halves recurse under
/// `rayon::join` — every leaf writes a disjoint `yr` slice. `yr` covers
/// exactly the particles of leaves `lo..hi` (`3 w` values each).
fn par_leaf_pass(
    op: &TreeOperator,
    pass: LeafPass,
    lo: usize,
    hi: usize,
    w: usize,
    yr: &mut [f64],
) {
    if lo >= hi {
        return;
    }
    if hi - lo == 1 {
        run_kernel(op, w, Kernel::Leaf { pass, ord: lo, y: yr });
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let first = op.tree.nodes[op.tree.leaves[lo] as usize].start as usize;
    let boundary = op.tree.nodes[op.tree.leaves[mid] as usize].start as usize;
    let (left, right) = yr.split_at_mut(3 * w * (boundary - first));
    rayon::join(
        || par_leaf_pass(op, pass, lo, mid, w, left),
        || par_leaf_pass(op, pass, mid, hi, w, right),
    );
}

/// Targets per unit of [`par_direct`] work: enough that staging a source
/// tile (`3 w` copies per source) is noise beside the chunk's pair
/// evaluations, few enough that n = 500 still splits eight ways. Not a
/// numerical parameter — a target's sum does not depend on its chunk.
const DIRECT_CHUNK: usize = 64;

/// The direct sum over the Morton target range `lo..hi`: split at multiples
/// of [`DIRECT_CHUNK`] under `rayon::join` like [`par_leaf_pass`] (a single
/// root leaf would leave the pool idle), every chunk against all `n`
/// sources in full [`PAIR_TILE`] tiles. `yr` covers exactly targets
/// `lo..hi`. Each target accumulates the source tiles in index order, so
/// the result is bitwise independent of the chunking and the schedule.
fn par_direct(op: &TreeOperator, lo: usize, hi: usize, w: usize, yr: &mut [f64]) {
    let chunks = (hi - lo).div_ceil(DIRECT_CHUNK);
    if chunks <= 1 {
        run_kernel(op, w, Kernel::Direct { first: lo, y: yr });
        return;
    }
    let mid = lo + chunks / 2 * DIRECT_CHUNK;
    let (left, right) = yr.split_at_mut(3 * w * (mid - lo));
    rayon::join(|| par_direct(op, lo, mid, w, left), || par_direct(op, mid, hi, w, right));
}

/// Direction of a [`par_sweep`]: proxy weights up (P2M, M2M) or FMM locals
/// down (L2L).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sweep {
    Up,
    Down,
}

/// Subtree-parallel sweep over node `ni`'s subtree, whose grids (`3 q^3 w`
/// values per node, preorder) are exactly `sub`. A node runs after its
/// children going up and before them going down; the child subtrees are
/// contiguous disjoint slices of `sub` and recurse under `rayon::join`
/// ([`par_children`]). Each grid is written by one node's kernel in a fixed
/// order (children in octant order), so the result is bitwise independent of
/// the rayon schedule. Parallel less for its own time than to keep the
/// pool's threads awake between a tile's passes (module docs).
fn par_sweep(op: &TreeOperator, sweep: Sweep, ni: usize, w: usize, sub: &mut [f64]) {
    if sweep == Sweep::Down {
        run_kernel(op, w, Kernel::Node { sweep, node: ni, sub });
    }
    let mut kids = [NO_CHILD; 8];
    let mut nkids = 0;
    for c in op.tree.nodes[ni].children {
        if c != NO_CHILD {
            kids[nkids] = c;
            nkids += 1;
        }
    }
    par_children(op, sweep, &kids[..nkids], w, &mut sub[3 * op.q3 * w..]);
    if sweep == Sweep::Up {
        run_kernel(op, w, Kernel::Node { sweep, node: ni, sub });
    }
}

/// The sibling subtrees rooted at `kids` (preorder indices, increasing),
/// `sub` covering exactly their nodes: split between two siblings and
/// recurse under `rayon::join`.
fn par_children(op: &TreeOperator, sweep: Sweep, kids: &[u32], w: usize, sub: &mut [f64]) {
    match kids {
        [] => {}
        [k] => par_sweep(op, sweep, *k as usize, w, sub),
        _ => {
            let mid = kids.len() / 2;
            let (left, right) = sub.split_at_mut((kids[mid] - kids[0]) as usize * 3 * op.q3 * w);
            rayon::join(
                || par_children(op, sweep, &kids[..mid], w, left),
                || par_children(op, sweep, &kids[mid..], w, right),
            );
        }
    }
}

/// Recursive node-parallel M2L over the preorder node range `lo..hi`:
/// `locals` covers exactly nodes `lo..hi` (stride `3 q^3 w` each) and splits
/// at node boundaries under `rayon::join`; each target node accumulates its
/// interaction list sequentially, so the result is bitwise independent of
/// the rayon schedule (same structure as [`par_leaf_pass`]).
fn par_m2l(
    op: &TreeOperator,
    data: &fmm::FmmData,
    lo: usize,
    hi: usize,
    w: usize,
    locals: &mut [f64],
) {
    if lo >= hi {
        return;
    }
    if hi - lo == 1 {
        run_kernel(op, w, Kernel::M2l { data, node: lo, out: locals });
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let (left, right) = locals.split_at_mut((mid - lo) * 3 * op.q3 * w);
    rayon::join(|| par_m2l(op, data, lo, mid, w, left), || par_m2l(op, data, mid, hi, w, right));
}

/// M2L for one target node: translate every listed source node's proxy
/// weights into the target's local expansion, in list order.
#[hibd::hot]
#[inline(always)]
fn m2l_node(op: &TreeOperator, data: &fmm::FmmData, ni: usize, w: usize, out: &mut [f64]) {
    let q = op.plans.params.cheb_order;
    let stride = 3 * op.q3 * w;
    let lo = data.m2l_off[ni] as usize;
    let hi = data.m2l_off[ni + 1] as usize;
    for k in lo..hi {
        let s = data.m2l_src[k] as usize;
        let entry = &data.entries[data.pair_entry[k] as usize];
        fmm::m2l_apply(entry, q, w, &op.weights[s * stride..(s + 1) * stride], out);
    }
}

/// L2P for one leaf: interpolate the leaf's local expansion at each of its
/// particles with the same per-particle `pw` weights P2M anterpolates with
/// (interpolation is the transpose of anterpolation), scaled by `mu0` like
/// every far-field contribution.
#[hibd::hot]
#[inline(always)]
fn l2p_leaf(op: &TreeOperator, ord: usize, node: &Node, w: usize, y: &mut [f64]) {
    let q = op.plans.params.cheb_order;
    let q3 = op.q3;
    let mu0 = rpy_self_mobility(op.plans.params.a, op.plans.params.eta);
    let Some(st) = &op.fmm else { return };
    let li = op.tree.leaves[ord] as usize;
    let loc = &st.locals[li * 3 * q3 * w..(li + 1) * 3 * q3 * w];
    let (lx, rest) = loc.split_at(q3 * w);
    let (ly, lz) = rest.split_at(q3 * w);
    for (k, yk) in (node.start as usize..node.end as usize).zip(y.chunks_exact_mut(3 * w)) {
        let base = k * 3 * q;
        let (wx, rest) = op.pw[base..base + 3 * q].split_at(q);
        let (wy, wz) = rest.split_at(q);
        let mut acc = [0.0f64; 3 * COL_TILE];
        let (ox, oyz) = acc[..3 * w].split_at_mut(w);
        let (oy, oz) = oyz.split_at_mut(w);
        let mut m = 0;
        for &ax in wx {
            for &ay in wy {
                let axy = ax * ay;
                for &az in wz {
                    let s = axy * az;
                    let (cx, cy, cz) =
                        (&lx[m * w..(m + 1) * w], &ly[m * w..(m + 1) * w], &lz[m * w..(m + 1) * w]);
                    for j in 0..w {
                        ox[j] += s * cx[j];
                        oy[j] += s * cy[j];
                        oz[j] += s * cz[j];
                    }
                    m += 1;
                }
            }
        }
        for (yv, o) in yk.iter_mut().zip(&acc[..3 * w]) {
            *yv += mu0 * o;
        }
    }
}

/// Far field for one target leaf: particles against accepted source-node
/// proxy grids, far-branch RPY only (the MAC guarantees `r >= 2a`).
///
/// Per particle and source node the `q^3` displacements and kernel scalars
/// are staged through stack buffers — a straight unit-stride `sqrt`/`div`
/// loop the compiler vectorizes over the proxies — and then applied to the
/// tile's `w` columns by [`far_columns`], lanes over columns. `frr` is
/// folded as `frr / r^2` so the raw displacement replaces the normalized
/// `r_hat` (no per-proxy division).
#[hibd::hot]
#[inline(always)]
fn far_leaf(op: &TreeOperator, ord: usize, node: &Node, w: usize, y: &mut [f64]) {
    let q = op.plans.params.cheb_order;
    let q3 = op.q3;
    let mu0 = rpy_self_mobility(op.plans.params.a, op.plans.params.eta);
    let a = op.plans.params.a;
    let srcs = &op.far_src[op.far_off[ord] as usize..op.far_off[ord + 1] as usize];
    let mut px = [0.0f64; MAX_CHEB_ORDER];
    let mut py = [0.0f64; MAX_CHEB_ORDER];
    let mut pz = [0.0f64; MAX_CHEB_ORDER];
    let mut db = [[0.0f64; 3]; MAX_Q3];
    let mut fib = [0.0f64; MAX_Q3];
    let mut gb = [0.0f64; MAX_Q3];
    for &s in srcs {
        let sn = &op.tree.nodes[s as usize];
        for m in 0..q {
            px[m] = sn.center.x + sn.half * op.plans.cheb_t[m];
            py[m] = sn.center.y + sn.half * op.plans.cheb_t[m];
            pz[m] = sn.center.z + sn.half * op.plans.cheb_t[m];
        }
        let ws = &op.weights[s as usize * 3 * q3 * w..(s as usize + 1) * 3 * q3 * w];
        let (wx, wyz) = ws.split_at(q3 * w);
        let (wy, wz) = wyz.split_at(q3 * w);
        for (k, yk) in (node.start as usize..node.end as usize).zip(y.chunks_exact_mut(3 * w)) {
            let p = op.tree.pos[k];
            let mut m = 0;
            for &cx in &px[..q] {
                let dx = p.x - cx;
                let dx2 = dx * dx;
                for &cy in &py[..q] {
                    let dy = p.y - cy;
                    let dxy2 = dx2 + dy * dy;
                    for &cz in &pz[..q] {
                        let dz = p.z - cz;
                        db[m] = [dx, dy, dz];
                        gb[m] = dxy2 + dz * dz;
                        m += 1;
                    }
                }
            }
            // Far branch of RPY (guaranteed r >= 2a by the MAC); `gb` holds
            // `r^2` on entry and `frr / r^2` on exit.
            for (fi, g) in fib[..q3].iter_mut().zip(&mut gb[..q3]) {
                let ir = 1.0 / g.sqrt();
                let ar = a * ir;
                let ar3 = ar * ar * ar;
                *fi = 0.75 * ar + 0.5 * ar3;
                *g = (0.75 * ar - 1.5 * ar3) * (ir * ir);
            }
            let mut acc = [0.0f64; 3 * COL_TILE];
            let (ox, oyz) = acc[..3 * w].split_at_mut(w);
            let (oy, oz) = oyz.split_at_mut(w);
            let scalars = fib[..q3].iter().zip(&gb[..q3]).zip(&db[..q3]);
            let cols = wx.chunks_exact(w).zip(wy.chunks_exact(w)).zip(wz.chunks_exact(w));
            for (((&fi, &g), &d), ((cx, cy), cz)) in scalars.zip(cols) {
                far_columns(fi, g, d, cx, cy, cz, ox, oy, oz);
            }
            for (yv, o) in yk.iter_mut().zip(&acc[..3 * w]) {
                *yv += mu0 * o;
            }
        }
    }
}

/// Near field for one target leaf: direct two-branch RPY against every
/// source leaf in the near list. The self block needs no special casing: the
/// kernel's coincident (`r = 0`) lanes contribute exactly the `mu0 I`
/// diagonal.
#[hibd::hot]
#[inline(always)]
fn near_leaf(op: &TreeOperator, ord: usize, node: &Node, w: usize, y: &mut [f64]) {
    let srcs = &op.near_src[op.near_off[ord] as usize..op.near_off[ord + 1] as usize];
    let ranges = srcs.iter().map(|&s| {
        let sn = &op.tree.nodes[s as usize];
        sn.start as usize..sn.end as usize
    });
    near_block(op, node.start as usize..node.end as usize, ranges, w, y);
}

/// The pair-kernel pass both the near field and the direct sum run: the
/// Morton range `targets` against each source range of `srcs`, in order, via
/// the batched pair kernel ([`hibd_rpy::rpy_pairs_accumulate_multi`]: four
/// pairs per AVX2 iteration, pair scalars shared by the tile's columns).
/// Sources are staged once per SoA tile of at most [`PAIR_TILE`] — positions,
/// and the `w` columns transposed to `[col][comp][source]` — and reused by
/// every target of the block. A target's sum runs over the source tiles in
/// the order given, whatever `targets` it was grouped with.
#[hibd::hot]
#[inline(always)]
fn near_block(
    op: &TreeOperator,
    targets: std::ops::Range<usize>,
    srcs: impl Iterator<Item = std::ops::Range<usize>>,
    w: usize,
    y: &mut [f64],
) {
    let mu0 = rpy_self_mobility(op.plans.params.a, op.plans.params.eta);
    let a = op.plans.params.a;
    let mut sx = [0.0f64; PAIR_TILE];
    let mut sy = [0.0f64; PAIR_TILE];
    let mut sz = [0.0f64; PAIR_TILE];
    let mut v = [[[0.0f64; PAIR_TILE]; 3]; COL_TILE];
    for src in srcs {
        let mut j0 = src.start;
        while j0 < src.end {
            let l = (src.end - j0).min(PAIR_TILE);
            for (t, xj) in op.xr[3 * w * j0..3 * w * (j0 + l)].chunks_exact(3 * w).enumerate() {
                let pj = op.tree.pos[j0 + t];
                sx[t] = pj.x;
                sy[t] = pj.y;
                sz[t] = pj.z;
                for (c, xc) in xj.chunks_exact(w).enumerate() {
                    for (col, &x) in v.iter_mut().zip(xc) {
                        col[c][t] = x;
                    }
                }
            }
            let cols: [[&[f64]; 3]; COL_TILE] =
                std::array::from_fn(|j| v[j].each_ref().map(|c| &c[..l]));
            for (k, yk) in targets.clone().zip(y.chunks_exact_mut(3 * w)) {
                let p = op.tree.pos[k];
                let mut acc = [[0.0f64; 3]; COL_TILE];
                rpy_pairs_accumulate_multi(
                    a,
                    p.x,
                    p.y,
                    p.z,
                    &sx[..l],
                    &sy[..l],
                    &sz[..l],
                    &cols[..w],
                    &mut acc[..w],
                );
                for (c, yc) in yk.chunks_exact_mut(w).enumerate() {
                    for (yv, o) in yc.iter_mut().zip(&acc) {
                        *yv += mu0 * o[c];
                    }
                }
            }
            j0 += l;
        }
    }
}

impl LinearOperator for TreeOperator {
    fn dim(&self) -> usize {
        3 * self.n
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), 3 * self.n);
        assert_eq!(y.len(), 3 * self.n);
        self.apply_tile(x, y, 1, 0, 1);
    }

    /// One tree walk per column tile of at most [`COL_TILE`]: column `j` of
    /// the result is `apply` on column `j`, bit for bit.
    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        assert_eq!(x.len(), 3 * self.n * s);
        assert_eq!(y.len(), 3 * self.n * s);
        for col0 in (0..s).step_by(COL_TILE) {
            self.apply_tile(x, y, s, col0, COL_TILE.min(s - col0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hibd_rpy::{dense_rpy_free, rpy_pair_scalars};

    fn cloud(n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * spread
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    fn test_vec(dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..dim)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    fn rel_err(got: &[f64], want: &[f64]) -> f64 {
        let err2: f64 = got.iter().zip(want).map(|(g, w)| (g - w) * (g - w)).sum();
        let ref2: f64 = want.iter().map(|w| w * w).sum();
        (err2 / ref2.max(f64::MIN_POSITIVE)).sqrt()
    }

    #[test]
    fn apply_matches_dense_on_a_small_cloud() {
        let pos = cloud(60, 12.0, 17);
        let dense = dense_rpy_free(&pos, 1.0, 1.0);
        // Tiny leaves force real traversal structure even at this size.
        let params = TreeParams { leaf_capacity: 4, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        assert_eq!(op.dim(), 180);
        let x = test_vec(180, 3);
        let mut yt = vec![0.0; 180];
        let mut yd = vec![0.0; 180];
        op.apply(&x, &mut yt);
        dense.mul_vec(&x, &mut yd);
        let err = rel_err(&yt, &yd);
        assert!(err <= 1e-3, "rel err {err}");
        assert!(op.interactions_per_apply() > 0);
        assert!(op.memory_bytes() > 0);
        assert_eq!(op.snapshot().phase(Phase::TreeBuild).count, 1);
        for ph in [Phase::Upward, Phase::FarField, Phase::NearField] {
            assert_eq!(op.snapshot().phase(ph).count, 1, "{}", ph.name());
        }
    }

    #[test]
    fn dense_comparable_cloud_with_overlaps() {
        // Dense cluster: many pairs in the Yamakawa overlap branch go
        // through the near field; the tree must still match the dense
        // two-branch matrix.
        let pos = cloud(50, 4.0, 23);
        let dense = dense_rpy_free(&pos, 1.0, 1.0);
        let params = TreeParams { leaf_capacity: 8, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let x = test_vec(150, 5);
        let mut yt = vec![0.0; 150];
        let mut yd = vec![0.0; 150];
        op.apply(&x, &mut yt);
        dense.mul_vec(&x, &mut yd);
        let err = rel_err(&yt, &yd);
        assert!(err <= 1e-3, "rel err {err}");
    }

    #[test]
    fn single_particle_is_self_mobility() {
        let pos = vec![Vec3::new(1.0, -2.0, 0.5)];
        let mut op = TreeOperator::new(&pos, TreeParams::default());
        let mu0 = rpy_self_mobility(1.0, 1.0);
        let x = [1.0, 2.0, -3.0];
        let mut y = [0.0; 3];
        op.apply(&x, &mut y);
        for (g, w) in y.iter().zip(&x) {
            assert!((g - mu0 * w).abs() < 1e-14);
        }
    }

    #[test]
    fn coincident_particles_use_the_regularized_limit() {
        let p = Vec3::new(0.3, 0.3, 0.3);
        let pos = vec![p, p, p + Vec3::new(5.0, 0.0, 0.0)];
        let dense_ref = {
            // r -> 0 overlap limit is mu0 I; build the expected matrix by
            // hand from the pair tensor where defined.
            let mu0 = rpy_self_mobility(1.0, 1.0);
            let pos = &pos;
            move |x: &[f64], y: &mut [f64]| {
                y.iter_mut().for_each(|v| *v = 0.0);
                for i in 0..3 {
                    for j in 0..3 {
                        let (fi, frr, rh) = if i == j {
                            (1.0, 0.0, Vec3::ZERO)
                        } else {
                            let dr = pos[i] - pos[j];
                            let r2 = dr.norm2();
                            if r2 == 0.0 {
                                (1.0, 0.0, Vec3::ZERO)
                            } else {
                                let r = r2.sqrt();
                                let (fi, frr) = rpy_pair_scalars(r, 1.0);
                                (fi, frr, dr / r)
                            }
                        };
                        let xj = Vec3::new(x[3 * j], x[3 * j + 1], x[3 * j + 2]);
                        let dot = rh.dot(xj);
                        y[3 * i] += mu0 * (fi * xj.x + frr * dot * rh.x);
                        y[3 * i + 1] += mu0 * (fi * xj.y + frr * dot * rh.y);
                        y[3 * i + 2] += mu0 * (fi * xj.z + frr * dot * rh.z);
                    }
                }
            }
        };
        let x = test_vec(9, 7);
        let mut yt = vec![0.0; 9];
        let mut yd = vec![0.0; 9];
        dense_ref(&x, &mut yd);
        for (eval, tol) in [(TreeEval::Tree, 1e-3), (TreeEval::Direct, 1e-14)] {
            let mut op = TreeOperator::new(&pos, TreeParams { eval, ..TreeParams::default() });
            op.apply(&x, &mut yt);
            assert!(rel_err(&yt, &yd) < tol, "{eval:?}: {}", rel_err(&yt, &yd));
        }
    }

    /// The SIMD override is process-global; the tests that flip it serialize.
    static SIMD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A cloud with real traversal structure (depth 5 at leaf capacity 6,
    /// MAC-accepted pairs at several levels), a dense cluster (Yamakawa
    /// overlaps in the near field) and two coincident pairs.
    fn structured_cloud() -> Vec<Vec3> {
        let mut pos = cloud(300, 24.0, 71);
        pos.extend(cloud(40, 3.0, 73).into_iter().map(|p| p + Vec3::new(9.0, 11.0, 5.0)));
        pos.push(pos[17]);
        pos.push(pos[310]);
        pos
    }

    fn structured_op(eval: TreeEval) -> TreeOperator {
        let params = TreeParams { leaf_capacity: 6, eval, ..TreeParams::default() };
        TreeOperator::new(&structured_cloud(), params)
    }

    fn fnv1a(v: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for x in v {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Column `j` of `apply_multi` == `apply` on column `j` by `to_bits`,
    /// on both dispatch legs. Widths straddle the column tile (one tile,
    /// tile + tail, two tiles, two tiles + tail) and hit every kernel
    /// instance: the constant widths 1 and COL_TILE and the runtime-width
    /// tails.
    fn assert_block_columns_are_applies(eval: TreeEval) {
        let _l = SIMD_LOCK.lock().unwrap();
        for scalar in [false, true] {
            let _g = scalar.then(hibd_simd::ScalarGuard::new);
            let mut op = structured_op(eval);
            let hierarchical = eval != TreeEval::Direct;
            assert!(op.max_depth() >= 3 || !hierarchical);
            assert!(op.interactions_per_apply() > 0);
            let dim = op.dim();
            let mut x = vec![0.0; dim];
            let mut y = vec![0.0; dim];
            for s in [1, 2, 3, 7, 8, 9, 16, 17] {
                let xm = test_vec(dim * s, 11 + s as u64);
                let mut ym = vec![0.0; dim * s];
                op.apply_multi(&xm, &mut ym, s);
                for col in 0..s {
                    for i in 0..dim {
                        x[i] = xm[i * s + col];
                    }
                    op.apply(&x, &mut y);
                    for i in 0..dim {
                        assert!(
                            ym[i * s + col].to_bits() == y[i].to_bits(),
                            "{eval:?}, scalar leg forced: {scalar}, s = {s}, column {col}, \
                             row {i}: {:e} vs {:e}",
                            ym[i * s + col],
                            y[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of applies: too slow to interpret")]
    fn apply_multi_matches_column_by_column_apply() {
        assert_block_columns_are_applies(TreeEval::Tree);
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of applies: too slow to interpret")]
    fn fmm_apply_multi_matches_column_by_column_apply() {
        assert_block_columns_are_applies(TreeEval::Fmm);
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of applies: too slow to interpret")]
    fn direct_apply_multi_matches_column_by_column_apply() {
        assert_block_columns_are_applies(TreeEval::Direct);
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of applies: too slow to interpret")]
    fn apply_and_block_apply_keep_their_recorded_bits() {
        // FNV-1a over the `to_bits` of `apply` and of `apply_multi(s = 16)`,
        // recorded at the commit before `apply` became the width-1 instance
        // of the block body (PR 18), whose `apply_multi` was `apply` per
        // column: `(eval, [avx2 leg, scalar leg])`, each leg `(apply, s16)`.
        // The legs differ through the near-field pair kernel only. CI runs
        // this at RAYON_NUM_THREADS = 1 and 3, so it also pins serial ==
        // rayon against one absolute value. The `Direct` row was recorded
        // when the direct sum landed (PR 23); the other two did not move.
        const GOLDEN: [(TreeEval, [(u64, u64); 2]); 3] = [
            (
                TreeEval::Tree,
                [
                    (0x0b78_1ae9_0688_db58, 0x7664_c8cf_5d47_8ef0),
                    (0x0fc3_009b_6a1e_bb21, 0x3f95_192d_3a0b_e7d5),
                ],
            ),
            (
                TreeEval::Fmm,
                [
                    (0xa2bb_d2c8_b7f0_9dd6, 0x8370_db4d_4853_1983),
                    (0x57dd_f7ad_7363_eaf4, 0xe518_28bc_767d_5b83),
                ],
            ),
            (
                TreeEval::Direct,
                [
                    (0xd181_e34c_f713_c506, 0xed9f_fa65_2c16_fcb3),
                    (0x3b25_1a14_db8c_4b1f, 0x9955_e280_d690_641f),
                ],
            ),
        ];
        let _l = SIMD_LOCK.lock().unwrap();
        for (eval, legs) in GOLDEN {
            for scalar in [false, true] {
                let _g = scalar.then(hibd_simd::ScalarGuard::new);
                let want = legs[usize::from(!hibd_simd::avx2())];
                let mut op = structured_op(eval);
                let dim = op.dim();
                let x = test_vec(dim, 5);
                let mut y = vec![0.0; dim];
                op.apply(&x, &mut y);
                let xm = test_vec(dim * 16, 6);
                let mut ym = vec![0.0; dim * 16];
                op.apply_multi(&xm, &mut ym, 16);
                assert_eq!(
                    (fnv1a(&y), fnv1a(&ym)),
                    want,
                    "{eval:?}, scalar leg forced: {scalar}: got {:#018x} / {:#018x}",
                    fnv1a(&y),
                    fnv1a(&ym)
                );
            }
        }
    }

    #[test]
    fn block_applies_account_per_tile_and_grow_scratch_once() {
        let mut op = structured_op(TreeEval::Fmm);
        let dim = op.dim();
        let built = op.state_memory_bytes();
        let mut y = vec![0.0; dim * 17];
        op.apply(&test_vec(dim, 1), &mut y[..dim]);
        assert_eq!(op.state_memory_bytes(), built, "width-1 scratch is sized at build");
        op.apply_multi(&test_vec(dim * 17, 2), &mut y, 17);
        let wide = op.state_memory_bytes();
        assert!(wide > built, "a wide tile grows the scratch, and the report shows it");
        op.apply_multi(&test_vec(dim * 3, 3), &mut y[..dim * 3], 3);
        assert_eq!(op.state_memory_bytes(), wide, "narrower tiles reuse it");
        // 1 + ceil(17 / 8) + 1 tiles, one span each.
        for ph in [Phase::Upward, Phase::M2l, Phase::Downward, Phase::NearField] {
            assert_eq!(op.snapshot().phase(ph).count, 5, "{}", ph.name());
        }
    }

    #[test]
    fn operator_is_numerically_symmetric_to_mac_accuracy() {
        // M is exactly symmetric; the treecode is symmetric up to the far
        // field approximation error, which block Lanczos tolerates.
        let pos = cloud(40, 10.0, 41);
        let params = TreeParams { leaf_capacity: 4, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let u = test_vec(120, 1);
        let v = test_vec(120, 2);
        let mut mu = vec![0.0; 120];
        let mut mv = vec![0.0; 120];
        op.apply(&u, &mut mu);
        op.apply(&v, &mut mv);
        let vmu: f64 = v.iter().zip(&mu).map(|(a, b)| a * b).sum();
        let umv: f64 = u.iter().zip(&mv).map(|(a, b)| a * b).sum();
        let scale: f64 = mu.iter().map(|a| a * a).sum::<f64>().sqrt()
            * v.iter().map(|a| a * a).sum::<f64>().sqrt();
        assert!((vmu - umv).abs() <= 1e-3 * scale, "asymmetry {}", (vmu - umv).abs() / scale);
    }

    #[test]
    fn empty_operator_is_a_no_op() {
        let mut op = TreeOperator::new(&[], TreeParams::default());
        assert_eq!(op.dim(), 0);
        op.apply(&[], &mut []);
        assert_eq!(op.interactions_per_apply(), 0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        let _ =
            TreeOperator::new(&[Vec3::ZERO], TreeParams { theta: 1.5, ..TreeParams::default() });
    }

    #[test]
    fn fmm_apply_matches_dense_on_a_small_cloud() {
        let pos = cloud(120, 16.0, 19);
        let dense = dense_rpy_free(&pos, 1.0, 1.0);
        let params = TreeParams { leaf_capacity: 4, eval: TreeEval::Fmm, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let x = test_vec(360, 3);
        let mut yf = vec![0.0; 360];
        let mut yd = vec![0.0; 360];
        op.apply(&x, &mut yf);
        dense.mul_vec(&x, &mut yd);
        let err = rel_err(&yf, &yd);
        assert!(err <= 1e-3, "rel err {err}");
        let (pairs, entries) = op.fmm_stats().expect("FMM mode carries stats");
        assert!(pairs > 0, "traversal must accept far pairs at this size");
        assert!(entries <= pairs, "dedup cannot grow the table set");
        assert!(op.memory_bytes() > op.state_memory_bytes());
        let snap = op.snapshot();
        assert_eq!((snap.phase(Phase::M2l).count, snap.phase(Phase::Downward).count), (1, 1));
        assert_eq!(snap.phase(Phase::FarField).count, 0, "FMM mode never runs far_leaf");
    }

    #[test]
    fn fmm_and_treecode_agree_on_the_same_cloud() {
        // Same MAC, same upward pass: the two far-field evaluations differ
        // only by the target-side interpolation, which the two-sided MAC
        // bounds at the same order as the source-side one.
        let pos = cloud(200, 20.0, 29);
        let base = TreeParams { leaf_capacity: 8, ..TreeParams::default() };
        let mut tree_op = TreeOperator::new(&pos, base);
        let mut fmm_op = TreeOperator::new(&pos, TreeParams { eval: TreeEval::Fmm, ..base });
        let x = test_vec(600, 13);
        let mut yt = vec![0.0; 600];
        let mut yf = vec![0.0; 600];
        tree_op.apply(&x, &mut yt);
        fmm_op.apply(&x, &mut yf);
        assert!(rel_err(&yf, &yt) <= 2e-3, "rel err {}", rel_err(&yf, &yt));
    }

    #[test]
    fn fmm_empty_and_single_particle_degenerate_cases() {
        let params = TreeParams { eval: TreeEval::Fmm, ..TreeParams::default() };
        let mut empty = TreeOperator::new(&[], params);
        empty.apply(&[], &mut []);
        let pos = vec![Vec3::new(1.0, -2.0, 0.5)];
        let mut op = TreeOperator::new(&pos, params);
        let mu0 = rpy_self_mobility(1.0, 1.0);
        let x = [1.0, 2.0, -3.0];
        let mut y = [0.0; 3];
        op.apply(&x, &mut y);
        for (g, w) in y.iter().zip(&x) {
            assert!((g - mu0 * w).abs() < 1e-14);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "dense references up to n = 340: too slow to interpret")]
    fn direct_sum_is_the_dense_matrix_to_rounding() {
        // Overlapping pairs (Yamakawa branch) included — the dense builder
        // has no coincident limit, `coincident_particles_...` covers that —
        // a block of columns, sizes on both sides of the chunk and tile
        // boundaries; `theta`, `q` and the leaf capacity are carried, not used.
        let params =
            TreeParams { eval: TreeEval::Direct, leaf_capacity: 4, ..TreeParams::default() };
        let overlapping = structured_cloud()[..340].to_vec();
        for pos in [overlapping, cloud(1, 5.0, 3), cloud(33, 6.0, 5), cloud(130, 9.0, 7)] {
            let dim = 3 * pos.len();
            let dense = dense_rpy_free(&pos, 1.0, 1.0);
            let mut op = TreeOperator::new(&pos, params);
            assert_eq!((op.max_depth(), op.fmm_stats()), (0, None));
            assert_eq!(op.interactions_per_apply(), (pos.len() * pos.len()) as u64);
            let s = 9;
            let xm = test_vec(dim * s, 21);
            let mut ym = vec![0.0; dim * s];
            op.apply_multi(&xm, &mut ym, s);
            let (mut x, mut yd) = (vec![0.0; dim], vec![0.0; dim]);
            for col in 0..s {
                for i in 0..dim {
                    x[i] = xm[i * s + col];
                }
                dense.mul_vec(&x, &mut yd);
                let got: Vec<f64> = (0..dim).map(|i| ym[i * s + col]).collect();
                let err = rel_err(&got, &yd);
                assert!(err <= 1e-13, "n = {}, column {col}: rel err {err}", pos.len());
            }
            let snap = op.snapshot();
            assert_eq!(snap.phase(Phase::NearField).count, 2, "one span per column tile");
            for ph in [Phase::Upward, Phase::FarField, Phase::M2l, Phase::Downward] {
                assert_eq!(snap.phase(ph).count, 0, "{}", ph.name());
            }
        }
        let mut empty = TreeOperator::new(&[], params);
        empty.apply(&[], &mut []);
        assert_eq!(empty.interactions_per_apply(), 0);
    }

    #[test]
    fn setup_errors_name_the_field_and_value() {
        let ok = TreeParams::default();
        assert!(ok.check().is_ok());
        for (bad, field) in [
            (TreeParams { theta: 0.0, ..ok }, "theta 0"),
            (TreeParams { theta: 1.0, ..ok }, "theta 1"),
            (TreeParams { theta: f64::NAN, ..ok }, "theta NaN"),
            (TreeParams { leaf_capacity: 0, ..ok }, "leaf_capacity 0"),
            (TreeParams { cheb_order: 1, ..ok }, "cheb_order 1"),
            (TreeParams { cheb_order: MAX_CHEB_ORDER + 1, ..ok }, "cheb_order 9"),
            (TreeParams { a: 0.0, ..ok }, "a 0"),
            (TreeParams { a: f64::INFINITY, ..ok }, "a inf"),
            (TreeParams { eta: -1.0, ..ok }, "eta -1"),
        ] {
            // The direct sum carries the same fields under the same rules.
            for eval in [TreeEval::Tree, TreeEval::Direct] {
                let e = TreeParams { eval, ..bad }.check().unwrap_err();
                assert!(e.contains(field), "{field}: {e}");
            }
        }
    }

    #[test]
    fn fmm_interactions_count_m2l_and_l2p_work() {
        let pos = cloud(500, 24.0, 43);
        let params = TreeParams { leaf_capacity: 8, eval: TreeEval::Fmm, ..TreeParams::default() };
        let op = TreeOperator::new(&pos, params);
        let (pairs, _) = op.fmm_stats().unwrap();
        let q3 = 27u64; // default cheb_order = 3
        let far = pairs as u64 * q3 * q3 + 500 * q3;
        assert!(op.interactions_per_apply() >= far, "near work must only add");
        assert!(op.max_depth() >= 2);
    }
}
