//! The hierarchical free-space RPY mobility operator.
//!
//! `TreeOperator` approximates `y = M x` for the free-space RPY tensor over
//! a fixed particle cloud in `O(n log n)`:
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
//! `apply` is allocation-free at steady state (operator-owned scratch only)
//! and parallelizes over leaves, whose Morton ranges partition the output.
//!
//! With [`TreeEval::Fmm`] the far field runs as a true kernel-independent
//! FMM instead: the MAC-accepted pairs stay at the *node* level and are
//! translated multipole-to-local ([`hibd_telemetry::Phase::M2l`]), locals
//! are pushed down by the transposed octant matrices and interpolated once
//! per particle ([`hibd_telemetry::Phase::Downward`]) — `O(n)` far-field
//! work, level-independent per particle. See the [`crate::fmm`] module docs
//! for the table construction and the determinism argument.

use crate::cheb;
use crate::fmm;
use crate::tree::{Node, Octree, NO_CHILD};
use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_rpy::{rpy_pairs_accumulate, rpy_self_mobility, PAIR_TILE};
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

/// Far-field evaluation strategy of the hierarchical operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TreeEval {
    /// Node-to-particle treecode: each target particle sums every accepted
    /// source node's proxies directly — `O(n log n)`, no downward pass.
    #[default]
    Tree,
    /// Kernel-independent FMM: M2L translations between proxy grids, L2L
    /// child shifts, one L2P interpolation per particle — `O(n)` far field.
    Fmm,
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
    pub fn new(params: TreeParams) -> TreePlans {
        assert!(params.theta > 0.0 && params.theta < 1.0, "theta must be in (0, 1)");
        assert!(params.leaf_capacity >= 1, "leaf capacity must be positive");
        assert!(
            (2..=MAX_CHEB_ORDER).contains(&params.cheb_order),
            "cheb_order must be in 2..={MAX_CHEB_ORDER}"
        );
        assert!(params.a > 0.0 && params.eta > 0.0);
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
    /// Proxy source strengths, planar per node: `[node][comp][q^3]` (the
    /// planar layout keeps the M2M and far-field inner loops unit-stride).
    weights: Vec<f64>,
    /// CSR per-leaf far interaction lists (source node ids).
    far_off: Vec<u32>,
    far_src: Vec<u32>,
    /// CSR per-leaf near interaction lists (source *leaf node* ids; a
    /// leaf's own id marks the self block).
    near_off: Vec<u32>,
    near_src: Vec<u32>,
    /// FMM far-field state ([`TreeEval::Fmm`] only): node-level interaction
    /// lists with deduplicated M2L tables, plus the local-expansion scratch
    /// (grown once at build, never shrunk — applies stay allocation-free).
    fmm: Option<FmmState>,
    /// Interactions per apply (near particle pairs + far particle-proxy
    /// evaluations; for FMM, `q^6` per M2L translation + `q^3` per particle
    /// L2P), for `Counter::TreeInteractions`.
    interactions: u64,
    /// Morton-ordered input/output scratch (length `3n`).
    xr: Vec<f64>,
    yr: Vec<f64>,
    /// Column scratch for `apply_multi`.
    xcol: Vec<f64>,
    ycol: Vec<f64>,
    /// Phase spans of this instance: `TreeBuild` once, then per apply
    /// `Upward`, `NearField` and `FarField` (treecode) or `M2l`/`Downward`
    /// (FMM) — the other mode's phases stay empty.
    snap: Snapshot,
}

/// Per-operator FMM far-field state (see [`TreeOperator::fmm`]).
struct FmmState {
    data: fmm::FmmData,
    /// Local expansions, planar per node: `[node][comp][q^3]`.
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
        let q = params.cheb_order;
        let q3 = q * q * q;
        let tree = Octree::build(positions, params.leaf_capacity);
        let cheb_t = &plans.cheb_t;

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
        let mut far_pairs: Vec<(u32, u32)> = Vec::new();
        let mut near_pairs: Vec<(u32, u32)> = Vec::new();
        if !tree.nodes.is_empty() {
            dual_traverse(
                &tree,
                0,
                0,
                params.theta,
                2.0 * params.a,
                &mut far_pairs,
                &mut near_pairs,
            );
        }

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
                let locals = vec![0.0; tree.nodes.len() * q3 * 3];
                (vec![0u32; nleaves + 1], Vec::new(), Some(FmmState { data, locals }), far_evals)
            }
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
            weights: Vec::new(),
            far_off,
            far_src,
            near_off,
            near_src,
            fmm,
            interactions,
            xr: Vec::new(),
            yr: Vec::new(),
            xcol: Vec::new(),
            ycol: Vec::new(),
            snap: Snapshot::empty(),
        };
        op.weights.resize(op.tree.nodes.len() * q3 * 3, 0.0);
        op.xr.resize(3 * n, 0.0);
        op.yr.resize(3 * n, 0.0);
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

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.tree.nodes.len()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.tree.leaves.len()
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

    /// Near + far interaction evaluations per apply (the value added to
    /// `Counter::TreeInteractions`).
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
            + self.xcol.capacity() * size_of::<f64>()
            + self.ycol.capacity() * size_of::<f64>()
            + match &self.fmm {
                Some(st) => st.data.memory_bytes() + st.locals.capacity() * size_of::<f64>(),
                None => 0,
            }
    }

    /// One full tree apply into the Morton scratch, then scatter to `y`.
    fn apply_inner(&mut self, x: &[f64], y: &mut [f64]) {
        if self.n == 0 {
            return;
        }
        let sw = hibd_telemetry::start(Phase::Upward);
        gather(&self.tree.order, x, &mut self.xr);
        self.upward();
        sw.stop(&mut self.snap);

        // Move the output scratch out so the leaf passes can borrow `self`
        // shared while writing disjoint slices of it (no allocation: `take`
        // swaps in an empty vec).
        let mut yr = std::mem::take(&mut self.yr);
        let nleaves = self.tree.leaves.len();
        yr.iter_mut().for_each(|v| *v = 0.0);

        if self.fmm.is_some() {
            // FMM far field: M2L into the locals (node-parallel, disjoint
            // slices), serial L2L push-down, then one L2P pass per leaf.
            // The state is taken out so the M2L pass can borrow `self`
            // shared, and restored before L2P reads the locals through it.
            let mut st = self.fmm.take().expect("checked above");
            let m2l_pairs = st.data.num_pairs() as u64;

            let sw = hibd_telemetry::start(Phase::M2l);
            st.locals.iter_mut().for_each(|v| *v = 0.0);
            par_m2l(self, &st.data, 0, self.tree.nodes.len(), &mut st.locals);
            sw.stop(&mut self.snap);

            let sw = hibd_telemetry::start(Phase::Downward);
            self.l2l(&mut st.locals);
            self.fmm = Some(st);
            par_leaf_pass(self, LeafPass::L2p, 0, nleaves, &mut yr);
            sw.stop(&mut self.snap);
            hibd_telemetry::incr(Counter::M2lTranslations, m2l_pairs);
        } else {
            let sw = hibd_telemetry::start(Phase::FarField);
            par_leaf_pass(self, LeafPass::Far, 0, nleaves, &mut yr);
            sw.stop(&mut self.snap);
        }

        let sw = hibd_telemetry::start(Phase::NearField);
        par_leaf_pass(self, LeafPass::Near, 0, nleaves, &mut yr);
        sw.stop(&mut self.snap);

        scatter(&self.tree.order, &yr, y);
        self.yr = yr;
        hibd_telemetry::incr(Counter::TreeInteractions, self.interactions);
    }

    /// Upward pass: P2M on the leaves, then child→parent M2M merges in
    /// reverse preorder (children precede parents in that order).
    fn upward(&mut self) {
        self.weights.iter_mut().for_each(|v| *v = 0.0);
        let q = self.plans.params.cheb_order;
        let q3 = self.q3;
        let stride = q3 * 3;
        for &l in &self.tree.leaves {
            let node = &self.tree.nodes[l as usize];
            let w = &mut self.weights[l as usize * stride..(l as usize + 1) * stride];
            p2m_leaf(node, &self.pw, &self.xr, q, w);
        }
        for ni in (0..self.tree.nodes.len()).rev() {
            if self.tree.nodes[ni].leaf {
                continue;
            }
            for c in self.tree.nodes[ni].children {
                if c == NO_CHILD {
                    continue;
                }
                let ci = c as usize;
                let (head, tail) = self.weights.split_at_mut(ci * stride);
                let parent = &mut head[ni * stride..(ni + 1) * stride];
                let child = &tail[..stride];
                m2m_accumulate(
                    &self.plans.m2m[self.tree.nodes[ci].octant as usize],
                    child,
                    q3,
                    parent,
                );
            }
        }
    }

    /// L2L: push each node's local expansion onto its children's grids
    /// through the transposed octant matrices, in preorder (parents are
    /// final before any child reads them). A serial sweep — `O(nodes q^6)`
    /// is negligible next to M2L, and serial order keeps the downward pass
    /// trivially deterministic.
    fn l2l(&self, locals: &mut [f64]) {
        let q3 = self.q3;
        let stride = q3 * 3;
        for ni in 0..self.tree.nodes.len() {
            if self.tree.nodes[ni].leaf {
                continue;
            }
            for c in self.tree.nodes[ni].children {
                if c == NO_CHILD {
                    continue;
                }
                let ci = c as usize;
                let (head, tail) = locals.split_at_mut(ci * stride);
                let parent = &head[ni * stride..(ni + 1) * stride];
                let child = &mut tail[..stride];
                // The transposed-GEMV shape is identical to M2M, so the
                // same kernel serves with the L2L table and the roles of
                // parent/child swapped.
                m2m_accumulate(
                    &self.plans.l2l[self.tree.nodes[ci].octant as usize],
                    parent,
                    q3,
                    child,
                );
            }
        }
    }
}

/// Gather `x` (original particle order) into Morton order.
#[hibd::hot]
fn gather(order: &[u32], x: &[f64], xr: &mut [f64]) {
    for (k, &i) in order.iter().enumerate() {
        let i = i as usize;
        xr[3 * k] = x[3 * i];
        xr[3 * k + 1] = x[3 * i + 1];
        xr[3 * k + 2] = x[3 * i + 2];
    }
}

/// Scatter the Morton-ordered result back to the original order.
#[hibd::hot]
fn scatter(order: &[u32], yr: &[f64], y: &mut [f64]) {
    for (k, &i) in order.iter().enumerate() {
        let i = i as usize;
        y[3 * i] = yr[3 * k];
        y[3 * i + 1] = yr[3 * k + 1];
        y[3 * i + 2] = yr[3 * k + 2];
    }
}

/// P2M: anterpolate the leaf's particle strengths onto its proxy grid.
#[hibd::hot]
fn p2m_leaf(node: &Node, pw: &[f64], xr: &[f64], q: usize, w: &mut [f64]) {
    for k in node.start as usize..node.end as usize {
        let base = k * 3 * q;
        let (wx, rest) = pw[base..base + 3 * q].split_at(q);
        let (wy, wz) = rest.split_at(q);
        let sx = xr[3 * k];
        let sy = xr[3 * k + 1];
        let sz = xr[3 * k + 2];
        let q3 = q * q * q;
        let mut m = 0;
        for &ax in wx {
            for &ay in wy {
                let axy = ax * ay;
                for &az in wz {
                    let s = axy * az;
                    w[m] += s * sx;
                    w[q3 + m] += s * sy;
                    w[2 * q3 + m] += s * sz;
                    m += 1;
                }
            }
        }
    }
}

/// M2M: `parent += T_octant * child`, one unit-stride `q^3 x q^3` GEMV per
/// weight component plane.
#[hibd::hot]
fn m2m_accumulate(mat: &[f64], child: &[f64], q3: usize, parent: &mut [f64]) {
    for c in 0..3 {
        let cp = &child[c * q3..(c + 1) * q3];
        let pp = &mut parent[c * q3..(c + 1) * q3];
        for (m, pv) in pp.iter_mut().enumerate() {
            let row = &mat[m * q3..(m + 1) * q3];
            let mut acc = 0.0;
            for (t, x) in row.iter().zip(cp) {
                acc += t * x;
            }
            *pv += acc;
        }
    }
}

/// Dual tree traversal emitting ordered far pairs (both directions) and
/// ordered near leaf pairs (both directions; `(l, l)` once). The MAC is the
/// two-sided ratio criterion (see inline comment), so an accepted pair is
/// admissible as source *and* as target.
fn dual_traverse(
    tree: &Octree,
    a: usize,
    b: usize,
    theta: f64,
    two_a: f64,
    far: &mut Vec<(u32, u32)>,
    near: &mut Vec<(u32, u32)>,
) {
    let na = &tree.nodes[a];
    let nb = &tree.nodes[b];
    if a == b {
        if na.leaf {
            near.push((a as u32, a as u32));
            return;
        }
        let kids: Vec<u32> = na.children.iter().copied().filter(|&c| c != NO_CHILD).collect();
        for (i, &ci) in kids.iter().enumerate() {
            for &cj in &kids[i..] {
                dual_traverse(tree, ci as usize, cj as usize, theta, two_a, far, near);
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
        far.push((a as u32, b as u32));
        far.push((b as u32, a as u32));
        return;
    }
    if na.leaf && nb.leaf {
        near.push((a as u32, b as u32));
        near.push((b as u32, a as u32));
        return;
    }
    // Split the internal one; of two internals, the larger (ties: `a`).
    if nb.leaf || (!na.leaf && na.half >= nb.half) {
        for c in na.children {
            if c != NO_CHILD {
                dual_traverse(tree, c as usize, b, theta, two_a, far, near);
            }
        }
    } else {
        for c in nb.children {
            if c != NO_CHILD {
                dual_traverse(tree, a, c as usize, theta, two_a, far, near);
            }
        }
    }
}

/// Test-only handle on the traversal: the `fmm` unit tests build realistic
/// MAC-accepted pair lists without constructing a full operator.
#[cfg(test)]
pub(crate) fn dual_traverse_for_tests(
    tree: &Octree,
    theta: f64,
    two_a: f64,
    far: &mut Vec<(u32, u32)>,
    near: &mut Vec<(u32, u32)>,
) {
    if !tree.nodes.is_empty() {
        dual_traverse(tree, 0, 0, theta, two_a, far, near);
    }
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
/// `lo..hi`: the leaves' Morton ranges partition `0..n`, so the output is
/// split at leaf boundaries and the two halves recurse under `rayon::join`
/// — every leaf writes a disjoint `yr` slice. `yr` covers exactly the
/// particles of leaves `lo..hi`.
fn par_leaf_pass(op: &TreeOperator, pass: LeafPass, lo: usize, hi: usize, yr: &mut [f64]) {
    if lo >= hi {
        return;
    }
    if hi - lo == 1 {
        let node = &op.tree.nodes[op.tree.leaves[lo] as usize];
        debug_assert_eq!(yr.len(), 3 * node.len());
        match pass {
            LeafPass::Far => far_leaf(op, lo, node, yr),
            LeafPass::Near => near_leaf(op, lo, node, yr),
            LeafPass::L2p => l2p_leaf(op, lo, node, yr),
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let first = op.tree.nodes[op.tree.leaves[lo] as usize].start as usize;
    let boundary = op.tree.nodes[op.tree.leaves[mid] as usize].start as usize;
    let (left, right) = yr.split_at_mut(3 * (boundary - first));
    rayon::join(
        || par_leaf_pass(op, pass, lo, mid, left),
        || par_leaf_pass(op, pass, mid, hi, right),
    );
}

/// Recursive node-parallel M2L over the preorder node range `lo..hi`:
/// `locals` covers exactly nodes `lo..hi` (stride `3 q^3` each) and splits
/// at node boundaries under `rayon::join`; each target node accumulates its
/// interaction list sequentially, so the result is bitwise independent of
/// the rayon schedule (same structure as [`par_leaf_pass`]).
fn par_m2l(op: &TreeOperator, data: &fmm::FmmData, lo: usize, hi: usize, locals: &mut [f64]) {
    if lo >= hi {
        return;
    }
    if hi - lo == 1 {
        m2l_node(op, data, lo, locals);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let (left, right) = locals.split_at_mut((mid - lo) * 3 * op.q3);
    rayon::join(|| par_m2l(op, data, lo, mid, left), || par_m2l(op, data, mid, hi, right));
}

/// M2L for one target node: translate every listed source node's proxy
/// weights into the target's local expansion, in list order.
#[hibd::hot]
fn m2l_node(op: &TreeOperator, data: &fmm::FmmData, ni: usize, out: &mut [f64]) {
    let q = op.plans.params.cheb_order;
    let q3 = op.q3;
    let lo = data.m2l_off[ni] as usize;
    let hi = data.m2l_off[ni + 1] as usize;
    for k in lo..hi {
        let s = data.m2l_src[k] as usize;
        let entry = &data.entries[data.pair_entry[k] as usize];
        let w = &op.weights[s * 3 * q3..(s + 1) * 3 * q3];
        fmm::m2l_apply(entry, q, w, out);
    }
}

/// L2P for one leaf: interpolate the leaf's local expansion at each of its
/// particles with the same per-particle `pw` weights P2M anterpolates with
/// (interpolation is the transpose of anterpolation), scaled by `mu0` like
/// every far-field contribution.
#[hibd::hot]
fn l2p_leaf(op: &TreeOperator, ord: usize, node: &Node, y: &mut [f64]) {
    let q = op.plans.params.cheb_order;
    let q3 = op.q3;
    let mu0 = rpy_self_mobility(op.plans.params.a, op.plans.params.eta);
    let Some(st) = &op.fmm else { return };
    let li = op.tree.leaves[ord] as usize;
    let loc = &st.locals[li * 3 * q3..(li + 1) * 3 * q3];
    let (lx, rest) = loc.split_at(q3);
    let (ly, lz) = rest.split_at(q3);
    for k in node.start as usize..node.end as usize {
        let base = k * 3 * q;
        let (wx, rest) = op.pw[base..base + 3 * q].split_at(q);
        let (wy, wz) = rest.split_at(q);
        let (mut ox, mut oy, mut oz) = (0.0f64, 0.0f64, 0.0f64);
        let mut m = 0;
        for &ax in wx {
            for &ay in wy {
                let axy = ax * ay;
                for &az in wz {
                    let s = axy * az;
                    ox += s * lx[m];
                    oy += s * ly[m];
                    oz += s * lz[m];
                    m += 1;
                }
            }
        }
        let o = 3 * (k - node.start as usize);
        y[o] += mu0 * ox;
        y[o + 1] += mu0 * oy;
        y[o + 2] += mu0 * oz;
    }
}

/// Far field for one target leaf: particles against accepted source-node
/// proxy grids, far-branch RPY only (the MAC guarantees `r >= 2a`).
///
/// The per-proxy kernel is staged through stack buffers so the `sqrt`/`div`
/// pass and the accumulation pass are straight unit-stride loops the
/// compiler can vectorize; `frr` is folded as `frr / r^2` so the raw
/// displacement replaces the normalized `r_hat` (no per-proxy division).
#[hibd::hot]
fn far_leaf(op: &TreeOperator, ord: usize, node: &Node, y: &mut [f64]) {
    let q = op.plans.params.cheb_order;
    let q3 = op.q3;
    let mu0 = rpy_self_mobility(op.plans.params.a, op.plans.params.eta);
    let a = op.plans.params.a;
    let srcs = &op.far_src[op.far_off[ord] as usize..op.far_off[ord + 1] as usize];
    let mut px = [0.0f64; MAX_CHEB_ORDER];
    let mut py = [0.0f64; MAX_CHEB_ORDER];
    let mut pz = [0.0f64; MAX_CHEB_ORDER];
    let mut r2b = [0.0f64; MAX_Q3];
    let mut irb = [0.0f64; MAX_Q3];
    for &s in srcs {
        let sn = &op.tree.nodes[s as usize];
        for m in 0..q {
            px[m] = sn.center.x + sn.half * op.plans.cheb_t[m];
            py[m] = sn.center.y + sn.half * op.plans.cheb_t[m];
            pz[m] = sn.center.z + sn.half * op.plans.cheb_t[m];
        }
        let w = &op.weights[s as usize * q3 * 3..(s as usize + 1) * q3 * 3];
        let (wx, wyz) = w.split_at(q3);
        let (wy, wz) = wyz.split_at(q3);
        for k in node.start as usize..node.end as usize {
            let p = op.tree.pos[k];
            let mut m = 0;
            for &cx in &px[..q] {
                let dx2 = (p.x - cx) * (p.x - cx);
                for &cy in &py[..q] {
                    let dxy2 = dx2 + (p.y - cy) * (p.y - cy);
                    for &cz in &pz[..q] {
                        let dz = p.z - cz;
                        r2b[m] = dxy2 + dz * dz;
                        m += 1;
                    }
                }
            }
            for (ir, r2) in irb[..q3].iter_mut().zip(&r2b[..q3]) {
                *ir = 1.0 / r2.sqrt();
            }
            let (mut ox, mut oy, mut oz) = (0.0f64, 0.0f64, 0.0f64);
            let mut m = 0;
            for &cx in &px[..q] {
                let dx = p.x - cx;
                for &cy in &py[..q] {
                    let dy = p.y - cy;
                    for &cz in &pz[..q] {
                        let dz = p.z - cz;
                        // Far branch of RPY (guaranteed r >= 2a by the MAC).
                        let ir = irb[m];
                        let ar = a * ir;
                        let ar3 = ar * ar * ar;
                        let fi = 0.75 * ar + 0.5 * ar3;
                        let fr = (0.75 * ar - 1.5 * ar3) * (ir * ir);
                        let dot = dx * wx[m] + dy * wy[m] + dz * wz[m];
                        ox += fi * wx[m] + fr * dot * dx;
                        oy += fi * wy[m] + fr * dot * dy;
                        oz += fi * wz[m] + fr * dot * dz;
                        m += 1;
                    }
                }
            }
            let o = 3 * (k - node.start as usize);
            y[o] += mu0 * ox;
            y[o + 1] += mu0 * oy;
            y[o + 2] += mu0 * oz;
        }
    }
}

/// Near field for one target leaf: direct two-branch RPY against every
/// source leaf in the near list via the batched pair kernel
/// ([`hibd_rpy::rpy_pairs_accumulate`], four pairs per AVX2 iteration).
/// Sources are staged once per SoA tile and reused by every target of the
/// leaf. The self block needs no special casing: the kernel's coincident
/// (`r = 0`) lanes contribute exactly the `mu0 I` diagonal.
#[hibd::hot]
fn near_leaf(op: &TreeOperator, ord: usize, node: &Node, y: &mut [f64]) {
    let mu0 = rpy_self_mobility(op.plans.params.a, op.plans.params.eta);
    let a = op.plans.params.a;
    let srcs = &op.near_src[op.near_off[ord] as usize..op.near_off[ord + 1] as usize];
    let mut sx = [0.0f64; PAIR_TILE];
    let mut sy = [0.0f64; PAIR_TILE];
    let mut sz = [0.0f64; PAIR_TILE];
    let mut vx = [0.0f64; PAIR_TILE];
    let mut vy = [0.0f64; PAIR_TILE];
    let mut vz = [0.0f64; PAIR_TILE];
    for &s in srcs {
        let sn = &op.tree.nodes[s as usize];
        let mut j0 = sn.start as usize;
        while j0 < sn.end as usize {
            let l = (sn.end as usize - j0).min(PAIR_TILE);
            for (t, j) in (j0..j0 + l).enumerate() {
                let pj = op.tree.pos[j];
                sx[t] = pj.x;
                sy[t] = pj.y;
                sz[t] = pj.z;
                vx[t] = op.xr[3 * j];
                vy[t] = op.xr[3 * j + 1];
                vz[t] = op.xr[3 * j + 2];
            }
            for k in node.start as usize..node.end as usize {
                let p = op.tree.pos[k];
                let mut acc = [0.0f64; 3];
                rpy_pairs_accumulate(
                    a,
                    p.x,
                    p.y,
                    p.z,
                    &sx[..l],
                    &sy[..l],
                    &sz[..l],
                    &vx[..l],
                    &vy[..l],
                    &vz[..l],
                    &mut acc,
                );
                let o = 3 * (k - node.start as usize);
                y[o] += mu0 * acc[0];
                y[o + 1] += mu0 * acc[1];
                y[o + 2] += mu0 * acc[2];
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
        self.apply_inner(x, y);
    }

    fn apply_multi(&mut self, x: &[f64], y: &mut [f64], s: usize) {
        let n = self.dim();
        assert_eq!(x.len(), n * s);
        assert_eq!(y.len(), n * s);
        self.xcol.resize(n, 0.0);
        self.ycol.resize(n, 0.0);
        for col in 0..s {
            for i in 0..n {
                self.xcol[i] = x[i * s + col];
            }
            let xcol = std::mem::take(&mut self.xcol);
            let mut ycol = std::mem::take(&mut self.ycol);
            self.apply_inner(&xcol, &mut ycol);
            for i in 0..n {
                y[i * s + col] = ycol[i];
            }
            self.xcol = xcol;
            self.ycol = ycol;
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
        let mut op = TreeOperator::new(&pos, TreeParams::default());
        let dense_ref = {
            // r -> 0 overlap limit is mu0 I; build the expected matrix by
            // hand from the pair tensor where defined.
            let mu0 = rpy_self_mobility(1.0, 1.0);
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
        op.apply(&x, &mut yt);
        dense_ref(&x, &mut yd);
        assert!(rel_err(&yt, &yd) < 1e-3);
    }

    #[test]
    fn apply_multi_matches_column_by_column_apply() {
        let pos = cloud(30, 8.0, 31);
        let params = TreeParams { leaf_capacity: 4, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let dim = op.dim();
        let s = 3;
        let xm = test_vec(dim * s, 11);
        let mut ym = vec![0.0; dim * s];
        op.apply_multi(&xm, &mut ym, s);
        let mut x = vec![0.0; dim];
        let mut y = vec![0.0; dim];
        for col in 0..s {
            for i in 0..dim {
                x[i] = xm[i * s + col];
            }
            op.apply(&x, &mut y);
            for i in 0..dim {
                assert!((ym[i * s + col] - y[i]).abs() < 1e-12);
            }
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
    fn fmm_apply_multi_matches_column_by_column_apply() {
        let pos = cloud(40, 9.0, 37);
        let params = TreeParams { leaf_capacity: 4, eval: TreeEval::Fmm, ..TreeParams::default() };
        let mut op = TreeOperator::new(&pos, params);
        let dim = op.dim();
        let s = 3;
        let xm = test_vec(dim * s, 11);
        let mut ym = vec![0.0; dim * s];
        op.apply_multi(&xm, &mut ym, s);
        let mut x = vec![0.0; dim];
        let mut y = vec![0.0; dim];
        for col in 0..s {
            for i in 0..dim {
                x[i] = xm[i * s + col];
            }
            op.apply(&x, &mut y);
            for i in 0..dim {
                assert!((ym[i * s + col] - y[i]).abs() < 1e-12);
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
