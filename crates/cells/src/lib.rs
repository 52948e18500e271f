//! `hibd-cells`: periodic and open-boundary Verlet cell lists.
//!
//! Short-range pair interactions — the real-space Ewald sum (cutoff `r_max`)
//! and the repulsive contact force (cutoff `2a`) — are found in linear time
//! by binning particles into cells of side `>= cutoff` and scanning only the
//! 27-cell neighborhoods (paper Section IV-C, ref. \[27\]).
//!
//! Pairs are visited once (unordered) through a half stencil of 13 forward
//! neighbor cells plus the intra-cell pairs. When the box is too small to
//! hold 3 cells per dimension the structure transparently falls back to a
//! brute-force `O(n^2)` minimum-image scan, which is both correct and fast at
//! such sizes.
//!
//! Two constructions share the same iteration interface:
//!
//! * [`CellList::new`] — cubic periodic box, minimum-image displacements;
//! * [`CellList::new_open`] — open (free-space) boundary: the domain is the
//!   bounding box of the particle cloud, nothing wraps, and `dr` is the raw
//!   difference `r_i - r_j`. This is what the treecode near field and the
//!   contact-force path of open-boundary BD must use — a periodic list would
//!   silently pair particles across the bounding-box seam.

pub mod verlet;

pub use verlet::VerletList;

use hibd_mathx::Vec3;

/// A cubic-box periodic cell list.
///
/// ```
/// use hibd_cells::CellList;
/// use hibd_mathx::Vec3;
///
/// // Two particles straddling the periodic boundary are neighbors.
/// let pos = vec![Vec3::new(0.3, 5.0, 5.0), Vec3::new(9.8, 5.0, 5.0)];
/// let cl = CellList::new(&pos, 10.0, 1.0);
/// let mut found = Vec::new();
/// cl.for_each_pair(|i, j, _dr, r2| found.push((i, j, r2)));
/// assert_eq!(found.len(), 1);
/// assert!((found[0].2 - 0.25).abs() < 1e-12); // min-image distance 0.5
/// ```
#[derive(Clone, Debug)]
pub struct CellList {
    box_l: f64,
    cutoff: f64,
    ncell: usize,
    /// Particle indices grouped by cell: `order[start[c]..start[c+1]]`.
    start: Vec<usize>,
    order: Vec<u32>,
    /// Wrapped (periodic) or raw (open) positions, indexable by original
    /// particle id.
    pos: Vec<Vec3>,
    brute_force: bool,
    /// Periodic lists wrap cell neighborhoods and minimum-image `dr`;
    /// open lists do neither.
    periodic: bool,
}

/// The 13 forward neighbor offsets of the half stencil (plus the cell
/// itself handled separately): all `(dx,dy,dz)` that are lexicographically
/// positive.
const FORWARD_OFFSETS: [(i32, i32, i32); 13] = [
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
    (-1, 1, 1),
    (1, -1, 1),
    (0, -1, 1),
    (-1, -1, 1),
    (0, 0, 1),
    (-1, 0, 1),
];

impl CellList {
    /// Build a cell list for `positions` in a cubic box of side `box_l` with
    /// interaction `cutoff`. Positions may lie outside the primary box; they
    /// are wrapped.
    pub fn new(positions: &[Vec3], box_l: f64, cutoff: f64) -> CellList {
        assert!(box_l > 0.0, "box length must be positive");
        assert!(cutoff > 0.0, "cutoff must be positive");
        hibd_telemetry::incr(hibd_telemetry::Counter::NeighborRebuilds, 1);
        let pos: Vec<Vec3> = positions.iter().map(|p| p.wrap_into_box(box_l)).collect();
        let ncell = (box_l / cutoff).floor() as usize;
        if ncell < 3 {
            return Self::brute(pos, box_l, cutoff, true);
        }
        Self::binned(pos, box_l, cutoff, ncell, true, Vec3::ZERO)
    }

    /// Build an open-boundary (free-space) cell list: the binning domain is
    /// the axis-aligned bounding cube of the particle cloud, neighborhoods
    /// never wrap, and pair displacements are the raw `r_i - r_j`.
    pub fn new_open(positions: &[Vec3], cutoff: f64) -> CellList {
        assert!(cutoff > 0.0, "cutoff must be positive");
        hibd_telemetry::incr(hibd_telemetry::Counter::NeighborRebuilds, 1);
        let pos: Vec<Vec3> = positions.to_vec();
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for p in &pos {
            for c in 0..3 {
                lo[c] = lo[c].min(p[c]);
                hi[c] = hi[c].max(p[c]);
            }
        }
        let side =
            if pos.is_empty() { 0.0 } else { (hi.x - lo.x).max(hi.y - lo.y).max(hi.z - lo.z) };
        let ncell = if side > 0.0 { (side / cutoff).floor() as usize } else { 0 };
        if ncell < 2 {
            return Self::brute(pos, side.max(cutoff), cutoff, false);
        }
        Self::binned(pos, side, cutoff, ncell, false, lo)
    }

    fn brute(pos: Vec<Vec3>, box_l: f64, cutoff: f64, periodic: bool) -> CellList {
        CellList {
            box_l,
            cutoff,
            ncell: 1,
            start: vec![0, pos.len()],
            order: (0..pos.len() as u32).collect(),
            pos,
            brute_force: true,
            periodic,
        }
    }

    fn binned(
        pos: Vec<Vec3>,
        box_l: f64,
        cutoff: f64,
        ncell: usize,
        periodic: bool,
        origin: Vec3,
    ) -> CellList {
        let ncell3 = ncell * ncell * ncell;
        let cell_of = |p: Vec3| -> usize {
            let f = |v: f64| -> usize {
                let c = ((v / box_l * ncell as f64).max(0.0)) as usize;
                c.min(ncell - 1)
            };
            (f(p.x - origin.x) * ncell + f(p.y - origin.y)) * ncell + f(p.z - origin.z)
        };
        // Counting sort into cells.
        let mut count = vec![0usize; ncell3 + 1];
        for p in &pos {
            count[cell_of(*p) + 1] += 1;
        }
        for c in 0..ncell3 {
            count[c + 1] += count[c];
        }
        let start = count.clone();
        let mut cursor = count;
        let mut order = vec![0u32; pos.len()];
        for (i, p) in pos.iter().enumerate() {
            let c = cell_of(*p);
            order[cursor[c]] = i as u32;
            cursor[c] += 1;
        }
        CellList { box_l, cutoff, ncell, start, order, pos, brute_force: false, periodic }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Total number of cells; callers may parallelize over `0..num_cells()`
    /// with [`for_each_pair_in_cell`](Self::for_each_pair_in_cell), since the
    /// half stencil visits every pair exactly once.
    pub fn num_cells(&self) -> usize {
        if self.brute_force {
            1
        } else {
            self.ncell * self.ncell * self.ncell
        }
    }

    /// Whether the brute-force fallback is active.
    pub fn is_brute_force(&self) -> bool {
        self.brute_force
    }

    /// Whether this list wraps (periodic construction) or not (open).
    pub fn is_periodic(&self) -> bool {
        self.periodic
    }

    /// Visit every unordered pair `(i, j)` with `|r_i - r_j| <= cutoff`
    /// exactly once. `dr` is the displacement `r_i - r_j` (minimum-image for
    /// periodic lists, raw for open lists) and `r2 = |dr|^2`. Pairs at
    /// exactly zero distance are skipped (the RPY tensor is singular there
    /// and coincident points are a setup error).
    pub fn for_each_pair(&self, mut f: impl FnMut(usize, usize, Vec3, f64)) {
        for c in 0..self.num_cells() {
            self.for_each_pair_in_cell(c, &mut f);
        }
    }

    /// Visit the pairs owned by cell `c`: intra-cell pairs and pairs between
    /// `c` and its 13 forward neighbors. Used for cell-parallel assembly.
    pub fn for_each_pair_in_cell(&self, c: usize, f: &mut impl FnMut(usize, usize, Vec3, f64)) {
        let rc2 = self.cutoff * self.cutoff;
        if self.brute_force {
            debug_assert_eq!(c, 0);
            for a in 0..self.pos.len() {
                for b in a + 1..self.pos.len() {
                    self.emit(a, b, rc2, &mut *f);
                }
            }
            return;
        }
        let n = self.ncell;
        let cz = c % n;
        let cy = (c / n) % n;
        let cx = c / (n * n);
        let own = self.cell_slice(c);
        // Intra-cell pairs.
        for (u, &a) in own.iter().enumerate() {
            for &b in &own[u + 1..] {
                self.emit(a as usize, b as usize, rc2, &mut *f);
            }
        }
        // Forward neighbors: wrapped for periodic lists, clipped to the
        // domain for open lists.
        for (dx, dy, dz) in FORWARD_OFFSETS {
            let (nx, ny, nz) = if self.periodic {
                (wrap(cx as i32 + dx, n), wrap(cy as i32 + dy, n), wrap(cz as i32 + dz, n))
            } else {
                let (ix, iy, iz) = (cx as i32 + dx, cy as i32 + dy, cz as i32 + dz);
                let lim = n as i32;
                if ix < 0 || iy < 0 || iz < 0 || ix >= lim || iy >= lim || iz >= lim {
                    continue;
                }
                (ix as usize, iy as usize, iz as usize)
            };
            let nb = (nx * n + ny) * n + nz;
            let other = self.cell_slice(nb);
            for &a in own {
                for &b in other {
                    self.emit(a as usize, b as usize, rc2, &mut *f);
                }
            }
        }
    }

    /// Collect all pairs into a vector (convenience; testing and assembly).
    pub fn pairs(&self) -> Vec<(u32, u32, Vec3, f64)> {
        let mut out = Vec::new();
        self.for_each_pair(|i, j, dr, r2| out.push((i as u32, j as u32, dr, r2)));
        out
    }

    /// The wrapped position of particle `i`.
    pub fn position(&self, i: usize) -> Vec3 {
        self.pos[i]
    }

    #[inline]
    fn cell_slice(&self, c: usize) -> &[u32] {
        &self.order[self.start[c]..self.start[c + 1]]
    }

    #[inline]
    fn emit(&self, a: usize, b: usize, rc2: f64, f: &mut impl FnMut(usize, usize, Vec3, f64)) {
        let raw = self.pos[a] - self.pos[b];
        let dr = if self.periodic { raw.min_image(self.box_l) } else { raw };
        let r2 = dr.norm2();
        if r2 <= rc2 && r2 > 0.0 {
            f(a, b, dr, r2);
        }
    }
}

#[inline]
fn wrap(v: i32, n: usize) -> usize {
    let n = n as i32;
    (((v % n) + n) % n) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn lcg_positions(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * box_l
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    fn brute_force_pairs(pos: &[Vec3], box_l: f64, rc: f64) -> HashSet<(u32, u32)> {
        let rc2 = rc * rc;
        let mut set = HashSet::new();
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                let dr = (pos[i] - pos[j]).min_image(box_l);
                if dr.norm2() <= rc2 && dr.norm2() > 0.0 {
                    set.insert((i as u32, j as u32));
                }
            }
        }
        set
    }

    fn normalize(p: (u32, u32)) -> (u32, u32) {
        if p.0 < p.1 {
            p
        } else {
            (p.1, p.0)
        }
    }

    #[test]
    fn matches_brute_force_various_sizes() {
        for (n, box_l, rc) in [
            (50usize, 10.0, 2.0),
            (200, 12.0, 2.5),
            (100, 30.0, 3.0),
            (64, 8.0, 1.1),
            (30, 5.0, 2.4), // exactly 2 cells/dim -> brute-force fallback
            (20, 4.0, 3.0), // 1 cell/dim -> brute-force fallback
        ] {
            let pos = lcg_positions(n, box_l, (n as u64) * 31 + 7);
            let cl = CellList::new(&pos, box_l, rc);
            let got: HashSet<(u32, u32)> =
                cl.pairs().into_iter().map(|(i, j, _, _)| normalize((i, j))).collect();
            let want = brute_force_pairs(&pos, box_l, rc);
            assert_eq!(got.len(), cl.pairs().len(), "no duplicate pairs (n={n})");
            assert_eq!(got, want, "n={n} box={box_l} rc={rc}");
        }
    }

    #[test]
    fn pair_geometry_is_min_image() {
        let box_l = 10.0;
        // Two particles straddling the periodic boundary.
        let pos = vec![Vec3::new(0.2, 5.0, 5.0), Vec3::new(9.9, 5.0, 5.0)];
        let cl = CellList::new(&pos, box_l, 1.0);
        let pairs = cl.pairs();
        assert_eq!(pairs.len(), 1);
        let (i, j, dr, r2) = pairs[0];
        assert!((r2 - 0.09).abs() < 1e-12);
        // dr = r_i - r_j, min-imaged.
        let want = (pos[i as usize] - pos[j as usize]).min_image(box_l);
        assert!((dr - want).norm() < 1e-12);
    }

    #[test]
    fn positions_outside_box_are_wrapped() {
        let box_l = 10.0;
        let pos = vec![Vec3::new(-0.5, 3.0, 3.0), Vec3::new(10.2, 3.0, 3.0)];
        let cl = CellList::new(&pos, box_l, 2.0);
        let pairs = cl.pairs();
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].3 - 0.49).abs() < 1e-9);
    }

    #[test]
    fn no_pairs_beyond_cutoff() {
        let pos = lcg_positions(300, 20.0, 5);
        let rc = 2.2;
        let cl = CellList::new(&pos, 20.0, rc);
        cl.for_each_pair(|_, _, dr, r2| {
            assert!(r2 <= rc * rc + 1e-12);
            assert!((dr.norm2() - r2).abs() < 1e-12);
        });
    }

    #[test]
    fn cell_parallel_decomposition_covers_all_pairs() {
        let pos = lcg_positions(150, 15.0, 99);
        let cl = CellList::new(&pos, 15.0, 2.0);
        let mut by_cell = Vec::new();
        for c in 0..cl.num_cells() {
            cl.for_each_pair_in_cell(c, &mut |i, j, _, _| {
                by_cell.push(normalize((i as u32, j as u32)));
            });
        }
        let whole: Vec<(u32, u32)> =
            cl.pairs().into_iter().map(|(i, j, _, _)| normalize((i, j))).collect();
        let s1: HashSet<_> = by_cell.iter().copied().collect();
        let s2: HashSet<_> = whole.iter().copied().collect();
        assert_eq!(by_cell.len(), whole.len());
        assert_eq!(s1, s2);
    }

    #[test]
    fn empty_and_single_particle() {
        let cl = CellList::new(&[], 10.0, 1.0);
        assert!(cl.is_empty());
        assert!(cl.pairs().is_empty());
        let cl = CellList::new(&[Vec3::new(1.0, 1.0, 1.0)], 10.0, 1.0);
        assert_eq!(cl.len(), 1);
        assert!(cl.pairs().is_empty());
    }

    #[test]
    fn coincident_particles_are_skipped() {
        let p = Vec3::new(2.0, 2.0, 2.0);
        let cl = CellList::new(&[p, p], 10.0, 1.0);
        assert!(cl.pairs().is_empty());
    }

    fn brute_force_pairs_open(pos: &[Vec3], rc: f64) -> HashSet<(u32, u32)> {
        let rc2 = rc * rc;
        let mut set = HashSet::new();
        for i in 0..pos.len() {
            for j in i + 1..pos.len() {
                let d2 = (pos[i] - pos[j]).norm2();
                if d2 <= rc2 && d2 > 0.0 {
                    set.insert((i as u32, j as u32));
                }
            }
        }
        set
    }

    #[test]
    fn open_matches_brute_force_various_sizes() {
        for (n, spread, rc) in [
            (50usize, 10.0, 2.0),
            (200, 12.0, 2.5),
            (100, 30.0, 3.0),
            (64, 8.0, 1.1),
            (20, 2.0, 3.0),
        ] {
            let pos = lcg_positions(n, spread, (n as u64) * 17 + 3);
            let cl = CellList::new_open(&pos, rc);
            assert!(!cl.is_periodic());
            let got: HashSet<(u32, u32)> =
                cl.pairs().into_iter().map(|(i, j, _, _)| normalize((i, j))).collect();
            assert_eq!(got.len(), cl.pairs().len(), "no duplicate pairs (n={n})");
            assert_eq!(got, brute_force_pairs_open(&pos, rc), "n={n} spread={spread} rc={rc}");
        }
    }

    #[test]
    fn open_list_never_pairs_across_the_seam() {
        // Two particles at opposite corners of the bounding box: a periodic
        // list over the same extent would wrap them together.
        let pos = vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(9.9, 0.0, 0.0)];
        let cl = CellList::new_open(&pos, 1.0);
        assert!(cl.pairs().is_empty());
        let cl = CellList::new(&pos, 10.0, 1.0);
        assert_eq!(cl.pairs().len(), 1, "sanity: the periodic list does wrap");
    }

    #[test]
    fn open_pair_geometry_is_raw() {
        let pos = vec![Vec3::new(-3.0, 7.0, 1.0), Vec3::new(-2.4, 7.0, 1.0)];
        let cl = CellList::new_open(&pos, 1.0);
        let pairs = cl.pairs();
        assert_eq!(pairs.len(), 1);
        let (i, j, dr, r2) = pairs[0];
        let want = pos[i as usize] - pos[j as usize];
        assert!((dr - want).norm() < 1e-12);
        assert!((r2 - 0.36).abs() < 1e-12);
    }

    #[test]
    fn open_empty_and_coincident() {
        let cl = CellList::new_open(&[], 1.0);
        assert!(cl.is_empty());
        assert!(cl.pairs().is_empty());
        let p = Vec3::new(2.0, 2.0, 2.0);
        let cl = CellList::new_open(&[p, p], 1.0);
        assert!(cl.pairs().is_empty());
    }

    #[test]
    fn open_cell_decomposition_covers_all_pairs() {
        let pos = lcg_positions(150, 15.0, 42);
        let cl = CellList::new_open(&pos, 2.0);
        assert!(!cl.is_brute_force(), "15/2 cells per dim must bin");
        let mut by_cell = Vec::new();
        for c in 0..cl.num_cells() {
            cl.for_each_pair_in_cell(c, &mut |i, j, _, _| {
                by_cell.push(normalize((i as u32, j as u32)));
            });
        }
        let s1: HashSet<_> = by_cell.iter().copied().collect();
        assert_eq!(by_cell.len(), s1.len());
        assert_eq!(s1, brute_force_pairs_open(&pos, 2.0));
    }

    #[test]
    fn dense_cluster_counts() {
        // All particles within cutoff of each other: n*(n-1)/2 pairs.
        let n = 12;
        let pos: Vec<Vec3> = (0..n).map(|i| Vec3::new(5.0 + 0.01 * i as f64, 5.0, 5.0)).collect();
        let cl = CellList::new(&pos, 20.0, 1.0);
        assert_eq!(cl.pairs().len(), n * (n - 1) / 2);
    }
}
