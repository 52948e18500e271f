//! The FMM downward-pass machinery: M2L interaction lists and translation
//! tables between Chebyshev proxy grids.
//!
//! The treecode evaluates every MAC-accepted (target, source) node pair
//! *node-to-particle*: each particle under the target sums the far-branch
//! RPY kernel over the source's `q^3` proxies, so the far-field work per
//! particle grows with the number of accepted ancestors — one ring of
//! sources per tree level, the `O(n log n)` signature. The FMM keeps the
//! pair at the *node* level instead: a multipole-to-local (M2L) translation
//! maps the source node's proxy weights to field values at the target
//! node's own Chebyshev points (its *local expansion*), locals are pushed
//! to children by L2L interpolation (the transposed M2M octant matrices),
//! and each particle finally interpolates its leaf's local once (L2P). Far
//! work per particle is then a level-independent constant — `O(n)`.
//!
//! **M2L tables.** The translation matrix for a pair depends only on the
//! two cube geometries, and node centers live on the dyadic lattice of the
//! root cube: node `a` at level `l` has integer cell coordinates
//! `c in [0, 2^l)^3` with `center = lo + (2c + 1) * root_half / 2^l`. The
//! relative geometry of a pair is therefore exactly captured by the integer
//! key `(l_a, l_b, 2^(d-l_a)(2c_a+1) - 2^(d-l_b)(2c_b+1))` with
//! `d = max(l_a, l_b)`, and tables are deduplicated on that key — a few
//! hundred distinct configurations serve hundreds of thousands of pairs.
//! Each table is reconstructed *from the key* (not from a representative
//! pair's floating-point centers), so every pair sharing a key uses
//! bit-identical coefficients. Because the RPY kernel is not scale
//! invariant (lengths are measured in particle radii), the tables depend on
//! the absolute root size: they are per-tree state, not shareable plans.
//!
//! **Storage.** A full dense M2L matrix is `(3q^3)^2` entries; the RPY
//! tensor block for a point pair is `fi I + fr d dᵀ` with `d` separable
//! across dimensions, so each table stores only the two scalar coefficient
//! grids (`fi`, `fr`, `q^6` each) plus three 1-D displacement factor tables
//! (`q^2` each) — 4.5x smaller and sqrt-free at apply time.
//!
//! The MAC's `d - r_t - r_s >= 2a` clause bounds every proxy-proxy distance
//! below by `2a`, so the smooth far branch is exact on every table entry.
//!
//! **Blocks of vectors.** Multipoles and locals of a column tile are laid
//! out `[node][comp][m][w]` (`m` the grid index, the `w` columns of the tile
//! contiguous — see the `operator` module docs), so `m2l_apply` reads each
//! table entry once and applies it to all `w` columns through the far
//! field's micro-kernel (`far_columns`), SIMD lanes over the columns. A
//! column's accumulation is the single-vector expression tree in the same
//! order, whatever the width: a block translation is bitwise `w` single
//! ones, and the width-1 instance is the only single-vector M2L there is.

use crate::operator::far_columns;
use crate::tree::Octree;
use hibd_rpy::COL_TILE;
use std::collections::BTreeMap;

use hibd_hot as hibd;

/// Exact integer identity of a pair's relative geometry (see module docs):
/// levels of target and source plus the center offset on the common dyadic
/// lattice `root_half / 2^max(level)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct GeomKey {
    la: u8,
    lb: u8,
    di: [i64; 3],
}

impl GeomKey {
    /// Key for the (target `a`, source `b`) node pair.
    fn of(tree: &Octree, a: usize, b: usize) -> GeomKey {
        let na = &tree.nodes[a];
        let nb = &tree.nodes[b];
        let dmax = na.level.max(nb.level);
        let mut di = [0i64; 3];
        for (c, d) in di.iter_mut().enumerate() {
            let ca = i64::from(2 * na.cell[c] + 1) << (dmax - na.level);
            let cb = i64::from(2 * nb.cell[c] + 1) << (dmax - nb.level);
            *d = ca - cb;
        }
        GeomKey { la: na.level, lb: nb.level, di }
    }
}

/// One deduplicated M2L translation table (target grid × source grid).
///
/// Layout: grid index `i = (i_x q + i_y) q + i_z` on both sides; `fi`/`fr`
/// are row-major `[i * q^3 + j]`; the displacement factors are separable,
/// `dxs[i_x * q + j_x] = x_i - x_j` (likewise `dys`, `dzs`), so the apply
/// kernel reconstructs the rank-one term without any per-entry geometry.
pub struct M2lEntry {
    pub(crate) fi: Vec<f64>,
    pub(crate) fr: Vec<f64>,
    pub(crate) dxs: Vec<f64>,
    pub(crate) dys: Vec<f64>,
    pub(crate) dzs: Vec<f64>,
}

impl M2lEntry {
    /// Build the table for `key` on the tree whose root cube half-side is
    /// `root_half`. A pure function of `(key, root_half, cheb_t, a)`: every
    /// pair sharing the key gets bit-identical coefficients.
    fn build(key: &GeomKey, root_half: f64, cheb_t: &[f64], a: f64) -> M2lEntry {
        let q = cheb_t.len();
        let q3 = q * q * q;
        // Exact dyadic scales: divisions by powers of two are lossless.
        let ha = root_half / f64::from(1u32 << key.la);
        let hb = root_half / f64::from(1u32 << key.lb);
        let unit = root_half / f64::from(1u32 << key.la.max(key.lb));
        let mut dxs = vec![0.0; q * q];
        let mut dys = vec![0.0; q * q];
        let mut dzs = vec![0.0; q * q];
        for (c, out) in [&mut dxs, &mut dys, &mut dzs].into_iter().enumerate() {
            let d = key.di[c] as f64 * unit;
            for m in 0..q {
                for p in 0..q {
                    out[m * q + p] = d + ha * cheb_t[m] - hb * cheb_t[p];
                }
            }
        }
        let mut fi = vec![0.0; q3 * q3];
        let mut fr = vec![0.0; q3 * q3];
        let mut i = 0;
        for mx in 0..q {
            for my in 0..q {
                for mz in 0..q {
                    let row_fi = &mut fi[i * q3..(i + 1) * q3];
                    let row_fr = &mut fr[i * q3..(i + 1) * q3];
                    let mut j = 0;
                    for px in 0..q {
                        let dx2 = dxs[mx * q + px] * dxs[mx * q + px];
                        for py in 0..q {
                            let dy = dys[my * q + py];
                            let dxy2 = dx2 + dy * dy;
                            for pz in 0..q {
                                let dz = dzs[mz * q + pz];
                                let r2 = dxy2 + dz * dz;
                                // Far branch of RPY, mirroring `far_leaf`'s
                                // expression tree; `fr` is folded by `1/r^2`
                                // so the raw displacement replaces the
                                // normalized direction at apply time.
                                let ir = 1.0 / r2.sqrt();
                                let ar = a * ir;
                                let ar3 = ar * ar * ar;
                                row_fi[j] = 0.75 * ar + 0.5 * ar3;
                                row_fr[j] = (0.75 * ar - 1.5 * ar3) * (ir * ir);
                                j += 1;
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
        M2lEntry { fi, fr, dxs, dys, dzs }
    }

    /// Resident bytes of this table.
    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.fi.capacity()
            + self.fr.capacity()
            + self.dxs.capacity()
            + self.dys.capacity()
            + self.dzs.capacity())
            * size_of::<f64>()
    }
}

/// The per-tree FMM far-field data: node-level M2L interaction lists (CSR
/// over the preorder node array, sources in dual-traversal emission order)
/// and the deduplicated translation tables they reference.
pub struct FmmData {
    /// CSR offsets, one row per tree node.
    pub(crate) m2l_off: Vec<u32>,
    /// Source node ids, concatenated per target node.
    pub(crate) m2l_src: Vec<u32>,
    /// Index into `entries` for each listed pair (parallel to `m2l_src`).
    pub(crate) pair_entry: Vec<u32>,
    /// Deduplicated translation tables.
    pub(crate) entries: Vec<M2lEntry>,
}

impl FmmData {
    /// Group the dual-traversal far pairs by target node and build the
    /// deduplicated M2L tables. `far_pairs` is the (target, source) list in
    /// traversal order — grouping preserves that order within each target,
    /// so the per-node accumulation order is deterministic.
    pub fn build(tree: &Octree, far_pairs: &[(u32, u32)], cheb_t: &[f64], a: f64) -> FmmData {
        let nnodes = tree.nodes.len();
        if nnodes == 0 {
            return FmmData {
                m2l_off: vec![0],
                m2l_src: Vec::new(),
                pair_entry: Vec::new(),
                entries: Vec::new(),
            };
        }
        let root_half = tree.nodes[0].half;
        let mut by_node: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nnodes];
        let mut index: BTreeMap<GeomKey, u32> = BTreeMap::new();
        let mut entries: Vec<M2lEntry> = Vec::new();
        for &(t, s) in far_pairs {
            let key = GeomKey::of(tree, t as usize, s as usize);
            let e = *index.entry(key).or_insert_with(|| {
                entries.push(M2lEntry::build(&key, root_half, cheb_t, a));
                (entries.len() - 1) as u32
            });
            by_node[t as usize].push((s, e));
        }
        let total: usize = by_node.iter().map(Vec::len).sum();
        let mut m2l_off = Vec::with_capacity(nnodes + 1);
        let mut m2l_src = Vec::with_capacity(total);
        let mut pair_entry = Vec::with_capacity(total);
        m2l_off.push(0u32);
        for list in &by_node {
            for &(s, e) in list {
                m2l_src.push(s);
                pair_entry.push(e);
            }
            m2l_off.push(m2l_src.len() as u32);
        }
        FmmData { m2l_off, m2l_src, pair_entry, entries }
    }

    /// Number of M2L translations per apply.
    pub fn num_pairs(&self) -> usize {
        self.m2l_src.len()
    }

    /// Number of distinct translation tables backing those pairs.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Resident bytes of the lists and tables.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.m2l_off.capacity() + self.m2l_src.capacity() + self.pair_entry.capacity())
            * size_of::<u32>()
            + self.entries.iter().map(M2lEntry::memory_bytes).sum::<usize>()
            + self.entries.capacity() * size_of::<M2lEntry>()
    }
}

/// M2L: accumulate one source node's proxy weights `src` (`[comp][q^3][w]`,
/// the `w` columns of a tile contiguous) into a target node's local
/// expansion `out` (same layout) through a translation table. Pure table
/// lookups plus the separable rank-one reconstruction — no square roots on
/// the apply path. Each table entry is read once and applied to all `w`
/// columns by the far field's micro-kernel ([`far_columns`], lanes over
/// columns); per column the accumulation is the single-vector expression
/// tree, so a column of a block translation is bitwise its own translation.
#[hibd::hot]
#[inline(always)]
pub(crate) fn m2l_apply(entry: &M2lEntry, q: usize, w: usize, src: &[f64], out: &mut [f64]) {
    let q3 = q * q * q;
    let (wx, wyz) = src.split_at(q3 * w);
    let (wy, wz) = wyz.split_at(q3 * w);
    let (ox, oyz) = out.split_at_mut(q3 * w);
    let (oy, oz) = oyz.split_at_mut(q3 * w);
    let mut i = 0;
    for mx in 0..q {
        for my in 0..q {
            for mz in 0..q {
                let row_fi = &entry.fi[i * q3..(i + 1) * q3];
                let row_fr = &entry.fr[i * q3..(i + 1) * q3];
                let dzs = &entry.dzs[mz * q..(mz + 1) * q];
                let mut acc = [0.0f64; 3 * COL_TILE];
                let (ax, ayz) = acc[..3 * w].split_at_mut(w);
                let (ay, az) = ayz.split_at_mut(w);
                let mut j = 0;
                for px in 0..q {
                    let dx = entry.dxs[mx * q + px];
                    for py in 0..q {
                        let dy = entry.dys[my * q + py];
                        // One `pz` run of the source grid: its `q` table
                        // entries zipped with their column blocks (no
                        // per-entry bounds checks in the hot loop).
                        let run = j * w..(j + q) * w;
                        let cols = wx[run.clone()]
                            .chunks_exact(w)
                            .zip(wy[run.clone()].chunks_exact(w))
                            .zip(wz[run].chunks_exact(w));
                        let scalars = row_fi[j..j + q].iter().zip(&row_fr[j..j + q]).zip(dzs);
                        for (((&fi, &fr), &dz), ((cx, cy), cz)) in scalars.zip(cols) {
                            far_columns(fi, fr, [dx, dy, dz], cx, cy, cz, ax, ay, az);
                        }
                        j += q;
                    }
                }
                let at = i * w..(i + 1) * w;
                for (o, a) in ox[at.clone()].iter_mut().zip(&*ax) {
                    *o += a;
                }
                for (o, a) in oy[at.clone()].iter_mut().zip(&*ay) {
                    *o += a;
                }
                for (o, a) in oz[at].iter_mut().zip(&*az) {
                    *o += a;
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheb;
    use hibd_mathx::Vec3;

    fn cloud(n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * spread
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn geom_key_is_translation_invariant() {
        // Two same-level sibling pairs with the same lattice offset must
        // share a key even though their absolute cells differ.
        let pos = cloud(600, 16.0, 21);
        let tree = Octree::build(&pos, 8);
        let mut seen: BTreeMap<GeomKey, (usize, usize)> = BTreeMap::new();
        let mut shared = 0;
        for a in 0..tree.nodes.len() {
            for b in 0..tree.nodes.len() {
                if a == b || tree.nodes[a].level != 2 || tree.nodes[b].level != 2 {
                    continue;
                }
                let key = GeomKey::of(&tree, a, b);
                if let Some(&(pa, pb)) = seen.get(&key) {
                    // Same key ⇒ identical relative geometry.
                    let d1 = tree.nodes[a].center - tree.nodes[b].center;
                    let d2 = tree.nodes[pa].center - tree.nodes[pb].center;
                    assert!((d1 - d2).norm() < 1e-9, "{key:?}");
                    shared += 1;
                } else {
                    seen.insert(key, (a, b));
                }
            }
        }
        assert!(shared > 0, "a level-2 slice must reuse offsets");
    }

    #[test]
    fn m2l_table_matches_direct_kernel_evaluation() {
        // The table applied to a unit source must equal the far-branch RPY
        // kernel evaluated proxy-to-proxy (same expression tree).
        let pos = cloud(400, 20.0, 5);
        let tree = Octree::build(&pos, 16);
        let q = 3;
        let t = cheb::nodes(q);
        let q3 = q * q * q;
        let a = 1.0;
        // Find one admissible far pair at matching levels.
        let mut pair = None;
        'outer: for ai in 0..tree.nodes.len() {
            for bi in 0..tree.nodes.len() {
                let (na, nb) = (&tree.nodes[ai], &tree.nodes[bi]);
                let d = (na.center - nb.center).norm();
                if ai != bi && d - na.radius() - nb.radius() >= 2.0 * a {
                    pair = Some((ai, bi));
                    break 'outer;
                }
            }
        }
        let (ai, bi) = pair.expect("cloud admits a separated pair");
        let key = GeomKey::of(&tree, ai, bi);
        let entry = M2lEntry::build(&key, tree.nodes[0].half, &t, a);

        let proxy = |node: &crate::tree::Node, g: usize| {
            let gx = g / (q * q);
            let gy = (g / q) % q;
            let gz = g % q;
            Vec3::new(
                node.center.x + node.half * t[gx],
                node.center.y + node.half * t[gy],
                node.center.z + node.half * t[gz],
            )
        };
        let mut w = vec![0.0; 3 * q3];
        let mut out = vec![0.0; 3 * q3];
        for j in 0..q3 {
            for comp in 0..3 {
                w.iter_mut().for_each(|v| *v = 0.0);
                out.iter_mut().for_each(|v| *v = 0.0);
                w[comp * q3 + j] = 1.0;
                m2l_apply(&entry, q, 1, &w, &mut out);
                let src = proxy(&tree.nodes[bi], j);
                for i in 0..q3 {
                    let tgt = proxy(&tree.nodes[ai], i);
                    let dr = tgt - src;
                    let r = dr.norm();
                    let ar = a / r;
                    let ar3 = ar * ar * ar;
                    let fi = 0.75 * ar + 0.5 * ar3;
                    let frr = (0.75 * ar - 1.5 * ar3) / (r * r);
                    let mut want = [0.0; 3];
                    let e = [dr.x, dr.y, dr.z];
                    for (c, wv) in want.iter_mut().enumerate() {
                        *wv = frr * e[c] * e[comp];
                        if c == comp {
                            *wv += fi;
                        }
                    }
                    for (c, wv) in want.iter().enumerate() {
                        let got = out[c * q3 + i];
                        assert!(
                            (got - wv).abs() <= 1e-12 * (1.0 + wv.abs()),
                            "i={i} j={j} comp={comp} c={c}: {got} vs {wv}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tables_deduplicate_across_pairs() {
        let pos = cloud(2000, 30.0, 9);
        let tree = Octree::build(&pos, 16);
        let t = cheb::nodes(3);
        // Reuse the operator's traversal to get realistic far pairs.
        let (far, _near) = crate::operator::ordered_pairs(&tree, 0.4, 2.0);
        let data = FmmData::build(&tree, &far, &t, 1.0);
        assert_eq!(data.num_pairs(), far.len());
        assert!(
            data.num_entries() < data.num_pairs() / 4,
            "dedup must compress: {} entries for {} pairs",
            data.num_entries(),
            data.num_pairs()
        );
        assert!(data.memory_bytes() > 0);
    }
}
