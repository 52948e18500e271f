//! Parallel spreading via independent sets (paper Section IV-B2, Figure 2).
//!
//! Spreading is `F_theta = P^T f_theta`: a scatter with write conflicts when
//! two particles' stencils overlap. The paper's solution: partition the mesh
//! into blocks of side `>= p`, group blocks into 8 parity classes ("independent
//! sets") such that no two blocks in a class are adjacent (including across
//! the periodic seam), and run the classes sequentially with all blocks of a
//! class scattering in parallel — race-free by construction, no atomics.
//!
//! Disjointness argument: a particle binned in block `b` (by the cell
//! `floor(u)`) writes mesh cells in `[b_start - p + 1, b_end - 1]` per
//! dimension. Two same-parity blocks are separated by at least one full
//! block of side `>= p > p - 2`, so their write footprints cannot meet; with
//! an even block count per dimension the parity classes remain proper around
//! the periodic ring.

use crate::pmat::InterpMatrix;
use hibd_hot as hibd;
use hibd_mathx::Vec3;
use rayon::prelude::*;

/// Column-tile width of the batched scatter/gather kernels: the per-block
/// working set lives in a stack array of `3 * COL_TILE` lanes (no heap), and
/// widths beyond the tile loop over tiles, re-reading the P row once per
/// tile. Typical block widths (`s <= 16`) take a single pass.
pub(crate) const COL_TILE: usize = 16;

/// Block decomposition of the mesh with particles binned per block.
#[derive(Clone, Debug)]
pub struct SpreadPlan {
    /// Mesh dimension.
    k: usize,
    /// Blocks per dimension (even), or 0 in serial-fallback mode.
    nb: usize,
    /// Block side in mesh cells (last block per dim may be larger).
    bs: usize,
    /// Particles grouped by block: CSR over `nb^3` blocks.
    start: Vec<usize>,
    members: Vec<u32>,
    /// Block ids per parity class.
    sets: [Vec<u32>; 8],
    serial: bool,
}

impl SpreadPlan {
    /// Build the plan from the scaled coordinates of the particles.
    pub fn new(scaled: &[Vec3], k: usize, p: usize) -> SpreadPlan {
        let bs = p.max(2);
        let mut nb = k / bs;
        if nb % 2 == 1 {
            nb -= 1;
        }
        if nb < 2 {
            // Mesh too small to guarantee disjoint write sets: serial mode.
            return SpreadPlan {
                k,
                nb: 0,
                bs,
                start: vec![0, scaled.len()],
                members: (0..scaled.len() as u32).collect(),
                sets: Default::default(),
                serial: true,
            };
        }
        let nb3 = nb * nb * nb;
        let block_of_dim = |u: f64| -> usize { ((u as usize) / bs).min(nb - 1) };
        let block_of = |u: &Vec3| -> usize {
            (block_of_dim(u.x) * nb + block_of_dim(u.y)) * nb + block_of_dim(u.z)
        };
        // Counting sort of particles into blocks.
        let mut count = vec![0usize; nb3 + 1];
        for u in scaled {
            count[block_of(u) + 1] += 1;
        }
        for b in 0..nb3 {
            count[b + 1] += count[b];
        }
        let start = count.clone();
        let mut cursor = count;
        let mut members = vec![0u32; scaled.len()];
        for (i, u) in scaled.iter().enumerate() {
            let b = block_of(u);
            members[cursor[b]] = i as u32;
            cursor[b] += 1;
        }
        // Parity classes.
        let mut sets: [Vec<u32>; 8] = Default::default();
        for bx in 0..nb {
            for by in 0..nb {
                for bz in 0..nb {
                    let parity = (bx % 2) * 4 + (by % 2) * 2 + (bz % 2);
                    sets[parity].push(((bx * nb + by) * nb + bz) as u32);
                }
            }
        }
        let plan = SpreadPlan { k, nb, bs, start, members, sets, serial: false };
        debug_assert_eq!(plan.verify(p), Ok(()), "SpreadPlan built an unsafe schedule");
        plan
    }

    /// Machine-check the independent-set schedule for this plan's geometry
    /// at spline order `p`: proves that no two same-parity blocks share a
    /// write footprint and that at least one spare cell separates them (see
    /// [`crate::verify`]). `new` runs this as a debug assertion; release
    /// callers can invoke it explicitly after changing block geometry.
    pub fn verify(&self, p: usize) -> Result<(), crate::verify::ScheduleViolation> {
        if self.serial {
            return Ok(());
        }
        crate::verify::verify_geometry(self.k, p, self.nb, self.bs)
    }

    /// Whether the serial fallback is active (mesh `< 4p` per dimension).
    pub fn is_serial(&self) -> bool {
        self.serial
    }

    /// Blocks per dimension (0 in serial mode).
    pub fn blocks_per_dim(&self) -> usize {
        self.nb
    }

    /// Block side length in mesh cells (the `>= p` guarantee behind the
    /// independent-set disjointness argument).
    pub fn block_side(&self) -> usize {
        self.bs
    }

    /// Spread all three force components: `mesh` is `[F_x | F_y | F_z]`
    /// (each `K^3`, zero-initialized by this call), `f` is the interleaved
    /// force vector `[f_x0, f_y0, f_z0, f_x1, ...]` of length `3n`.
    #[hibd::hot]
    pub fn spread(&self, pm: &InterpMatrix, f: &[f64], mesh: &mut [f64]) {
        let k3 = self.k * self.k * self.k;
        assert_eq!(mesh.len(), 3 * k3);
        assert_eq!(f.len(), 3 * pm.mat.nrows());
        // Paper: "we explicitly set the result F_theta to zero before
        // beginning the spreading operation".
        mesh.par_chunks_mut(8192).for_each(|c| c.fill(0.0));

        if self.serial {
            scatter_rows(&self.members, pm, f, mesh, k3);
            return;
        }

        let ptr = MeshPtr(mesh.as_mut_ptr(), mesh.len());
        let ptr = &ptr; // capture the Sync wrapper, not the raw field
        for set in &self.sets {
            set.par_iter().for_each(|&b| {
                let rows = &self.members[self.start[b as usize]..self.start[b as usize + 1]];
                // SAFETY: blocks within one parity class have disjoint write
                // footprints (see module docs), classes run sequentially.
                let mesh = unsafe { std::slice::from_raw_parts_mut(ptr.0, ptr.1) };
                scatter_rows(rows, pm, f, mesh, k3);
            });
        }
    }

    /// Batched spreading for a chunk of `width` columns out of an `s`-column
    /// multi-RHS force block `f` (row-major `[dim][s]`, length `3n*s`):
    /// one pass over the P nonzeros serves every column. `mesh` holds
    /// `3*width` component meshes laid out `[theta][col]` — the mesh for
    /// component `theta` of chunk column `j` (global column `col0 + j`)
    /// starts at `(theta*width + j) * K^3`. Zero-initializes `mesh`.
    ///
    /// The independent-set schedule is unchanged: per-column write
    /// footprints are identical to the single-RHS case (same stencils, just
    /// `3*width` disjoint accumulator meshes per block), so the
    /// conflict-freedom proof in the module docs carries over verbatim.
    #[hibd::hot]
    pub fn spread_multi(
        &self,
        pm: &InterpMatrix,
        f: &[f64],
        s: usize,
        col0: usize,
        width: usize,
        mesh: &mut [f64],
    ) {
        let k3 = self.k * self.k * self.k;
        assert!(col0 + width <= s && width > 0, "column chunk out of range");
        assert_eq!(mesh.len(), 3 * width * k3);
        assert_eq!(f.len(), 3 * pm.mat.nrows() * s);
        mesh.par_chunks_mut(8192).for_each(|c| c.fill(0.0));

        let mesh_len = mesh.len();
        self.for_each_block_set(
            |rows, ptr| {
                // SAFETY: disjoint write footprints per the schedule above.
                let mesh = unsafe { std::slice::from_raw_parts_mut(ptr, mesh_len) };
                scatter_rows_multi(rows, pm, f, s, col0, width, mesh, k3);
            },
            mesh,
        );
    }

    /// Run `body(rows, mesh_ptr)` over every block, honoring the
    /// independent-set schedule: parity classes sequentially, blocks within
    /// a class in parallel. `body` receives the particle rows of one block
    /// and a raw pointer to the full mesh; it may write only the mesh cells
    /// covered by those rows' stencils (which the schedule guarantees are
    /// disjoint across concurrently running blocks).
    pub(crate) fn for_each_block_set(
        &self,
        body: impl Fn(&[u32], *mut f64) + Sync,
        mesh: &mut [f64],
    ) {
        if self.serial {
            body(&self.members, mesh.as_mut_ptr());
            return;
        }
        let ptr = MeshPtr(mesh.as_mut_ptr(), mesh.len());
        let ptr = &ptr; // capture the Sync wrapper, not the raw field
        for set in &self.sets {
            set.par_iter().for_each(|&b| {
                let rows = &self.members[self.start[b as usize]..self.start[b as usize + 1]];
                body(rows, ptr.0);
            });
        }
    }

    /// Reference serial spreading (used by tests and the correctness oracle).
    pub fn spread_serial(&self, pm: &InterpMatrix, f: &[f64], mesh: &mut [f64]) {
        let k3 = self.k * self.k * self.k;
        assert_eq!(mesh.len(), 3 * k3);
        mesh.fill(0.0);
        let all: Vec<u32> = (0..pm.mat.nrows() as u32).collect();
        scatter_rows(&all, pm, f, mesh, k3);
    }
}

/// Scatter the listed particle rows into the three component meshes.
#[hibd::hot]
fn scatter_rows(rows: &[u32], pm: &InterpMatrix, f: &[f64], mesh: &mut [f64], k3: usize) {
    let (mx, rest) = mesh.split_at_mut(k3);
    let (my, mz) = rest.split_at_mut(k3);
    for &r in rows {
        let r = r as usize;
        let (cols, vals) = pm.mat.row(r);
        let (fx, fy, fz) = (f[3 * r], f[3 * r + 1], f[3 * r + 2]);
        crate::simd::spread_row(pm.p, cols, vals, fx, fy, fz, mx, my, mz);
    }
}

/// Scatter the listed particle rows into `3*width` component meshes at once
/// (`[theta][col]` layout): the P row is read once per particle per column
/// tile and reused for every column in the tile, amortizing the index
/// traffic the per-column loop pays `s` times. The per-call working set is
/// a stack tile (this kernel runs inside the parallel scatter; a heap
/// buffer here would allocate once per block per apply).
#[allow(clippy::too_many_arguments)]
#[hibd::hot]
fn scatter_rows_multi(
    rows: &[u32],
    pm: &InterpMatrix,
    f: &[f64],
    s: usize,
    col0: usize,
    width: usize,
    mesh: &mut [f64],
    k3: usize,
) {
    let mut fvals = [0.0; 3 * COL_TILE];
    let mut j0 = 0;
    while j0 < width {
        let w = (width - j0).min(COL_TILE);
        for &r in rows {
            let r = r as usize;
            let (cols, vals) = pm.mat.row(r);
            for theta in 0..3 {
                let row = &f[(3 * r + theta) * s + col0 + j0..];
                fvals[theta * w..(theta + 1) * w].copy_from_slice(&row[..w]);
            }
            crate::simd::spread_row_multi(
                pm.p,
                cols,
                vals,
                &fvals[..3 * w],
                w,
                width,
                j0,
                k3,
                mesh,
            );
        }
        j0 += w;
    }
}

/// Interpolate the three velocity components back to the particles:
/// `u[3i + theta] = Σ_c P[i, c] mesh[theta * K^3 + c]` (paper Eq. 9).
/// Gather — no write conflicts, parallel over particles.
#[hibd::hot]
pub fn interpolate(pm: &InterpMatrix, mesh: &[f64], u: &mut [f64]) {
    let k3 = pm.k * pm.k * pm.k;
    assert_eq!(mesh.len(), 3 * k3);
    assert_eq!(u.len(), 3 * pm.mat.nrows());
    let (mx, rest) = mesh.split_at(k3);
    let (my, mz) = rest.split_at(k3);
    u.par_chunks_mut(3).enumerate().for_each(|(r, ur)| {
        let (cols, vals) = pm.mat.row(r);
        let [ax, ay, az] = crate::simd::interp_row(pm.p, cols, vals, mx, my, mz);
        ur[0] = ax;
        ur[1] = ay;
        ur[2] = az;
    });
}

/// Batched interpolation for a chunk of `width` columns: gathers from the
/// `3*width` component meshes (`[theta][col]` layout, matching
/// [`SpreadPlan::spread_multi`]) and **accumulates** into the multi-RHS
/// output `u` (row-major `[dim][s]`), i.e. `u[(3i+theta)*s + col0+j] +=
/// Σ_c P[i,c] mesh[(theta*width+j)*K^3 + c]`. Accumulating (instead of the
/// overwrite that single-RHS [`interpolate`] does) lets the reciprocal part
/// land directly on top of the real-space part with no add pass.
///
/// The per-particle accumulator is a stack tile of `3 * COL_TILE` lanes
/// (wider chunks loop over tiles, re-reading the P row per tile), so the
/// gather performs no heap allocation — rayon `for_each_init` scratch would
/// otherwise allocate once per work split on every apply.
#[hibd::hot]
pub fn interpolate_multi(
    pm: &InterpMatrix,
    mesh: &[f64],
    s: usize,
    col0: usize,
    width: usize,
    u: &mut [f64],
) {
    let k3 = pm.k * pm.k * pm.k;
    assert!(col0 + width <= s && width > 0, "column chunk out of range");
    assert_eq!(mesh.len(), 3 * width * k3);
    assert_eq!(u.len(), 3 * pm.mat.nrows() * s);
    u.par_chunks_mut(3 * s).enumerate().for_each(|(r, ur)| {
        let (cols, vals) = pm.mat.row(r);
        let mut acc = [0.0; 3 * COL_TILE];
        let mut j0 = 0;
        while j0 < width {
            let w = (width - j0).min(COL_TILE);
            acc[..3 * w].fill(0.0);
            crate::simd::interp_row_multi(
                pm.p,
                cols,
                vals,
                &mut acc[..3 * w],
                w,
                width,
                j0,
                k3,
                mesh,
            );
            for theta in 0..3 {
                for j in 0..w {
                    ur[theta * s + col0 + j0 + j] += acc[theta * w + j];
                }
            }
            j0 += w;
        }
    });
}

/// Raw mesh pointer made Sync for the independent-set scatter.
struct MeshPtr(*mut f64, usize);
// SAFETY: MeshPtr is only shared between rayon tasks of one parity class,
// whose write footprints are provably disjoint (module docs; machine-checked
// by `verify::verify_geometry` and the schedule proptests), and the classes
// run sequentially with a barrier between them.
unsafe impl Sync for MeshPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmat::build_interp_matrix;

    fn lcg_positions(n: usize, box_l: f64, seed: u64) -> Vec<Vec3> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * box_l
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    fn lcg_forces(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (0..3 * n)
            .map(|_| {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn parallel_spreading_matches_serial() {
        for (n, k, p) in [(200usize, 32usize, 4usize), (100, 24, 6), (50, 16, 4)] {
            let box_l = 10.0;
            let pos = lcg_positions(n, box_l, n as u64);
            let pm = build_interp_matrix(&pos, box_l, k, p);
            let plan = SpreadPlan::new(&pm.scaled, k, p);
            assert!(!plan.is_serial(), "k={k} p={p} should run in parallel mode");
            let f = lcg_forces(n, 7);
            let k3 = k * k * k;
            let mut mesh_par = vec![0.0; 3 * k3];
            let mut mesh_ser = vec![1.0; 3 * k3]; // must be zeroed internally
            plan.spread(&pm, &f, &mut mesh_par);
            plan.spread_serial(&pm, &f, &mut mesh_ser);
            let maxd =
                mesh_par.iter().zip(&mesh_ser).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            assert!(maxd < 1e-14, "(n={n},k={k},p={p}): {maxd}");
        }
    }

    #[test]
    fn serial_fallback_on_small_mesh() {
        let pos = lcg_positions(20, 5.0, 3);
        let pm = build_interp_matrix(&pos, 5.0, 8, 6); // 8 < 4*6
        let plan = SpreadPlan::new(&pm.scaled, 8, 6);
        assert!(plan.is_serial());
        let f = lcg_forces(20, 9);
        let mut a = vec![0.0; 3 * 512];
        let mut b = vec![0.0; 3 * 512];
        plan.spread(&pm, &f, &mut a);
        plan.spread_serial(&pm, &f, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn spreading_conserves_total_force() {
        // Column sums of P^T f equal sum of f per component (partition of
        // unity).
        let n = 80;
        let (k, p, box_l) = (20usize, 4usize, 10.0);
        let pos = lcg_positions(n, box_l, 5);
        let pm = build_interp_matrix(&pos, box_l, k, p);
        let plan = SpreadPlan::new(&pm.scaled, k, p);
        let f = lcg_forces(n, 13);
        let mut mesh = vec![0.0; 3 * k * k * k];
        plan.spread(&pm, &f, &mut mesh);
        let k3 = k * k * k;
        for theta in 0..3 {
            let mesh_total: f64 = mesh[theta * k3..(theta + 1) * k3].iter().sum();
            let force_total: f64 = (0..n).map(|i| f[3 * i + theta]).sum();
            assert!(
                (mesh_total - force_total).abs() < 1e-11,
                "theta={theta}: {mesh_total} vs {force_total}"
            );
        }
    }

    #[test]
    fn interpolation_is_transpose_of_spreading() {
        // <P^T f, g>_mesh == <f, P g>_particles for random f, g.
        let n = 60;
        let (k, p, box_l) = (16usize, 4usize, 8.0);
        let pos = lcg_positions(n, box_l, 11);
        let pm = build_interp_matrix(&pos, box_l, k, p);
        let plan = SpreadPlan::new(&pm.scaled, k, p);
        let f = lcg_forces(n, 17);
        let k3 = k * k * k;
        let g: Vec<f64> = lcg_forces(k3, 19); // 3*k3 values
        let mut mesh = vec![0.0; 3 * k3];
        plan.spread(&pm, &f, &mut mesh);
        let lhs: f64 = mesh.iter().zip(&g).map(|(a, b)| a * b).sum();
        let mut u = vec![0.0; 3 * n];
        interpolate(&pm, &g, &mut u);
        let rhs: f64 = f.iter().zip(&u).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-11 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn plans_verify_their_own_schedule() {
        for (k, p) in [(16usize, 4usize), (24, 6), (32, 8), (17, 4), (30, 4)] {
            let pos = lcg_positions(40, 10.0, (k + p) as u64);
            let pm = build_interp_matrix(&pos, 10.0, k, p);
            let plan = SpreadPlan::new(&pm.scaled, k, p);
            plan.verify(p).unwrap();
        }
    }

    #[test]
    fn multi_column_footprint_equals_single_rhs_footprint() {
        // The MeshPtr safety argument covers `spread_multi` only because
        // every column of a block writes the exact cell set the single-RHS
        // scatter writes. Pin that claim: scatter the same rows with unit
        // forces through both kernels and compare the nonzero cell sets of
        // every per-column component mesh against the single-RHS one.
        let (n, k, p, box_l, s) = (40usize, 16usize, 4usize, 8.0, 5usize);
        let pos = lcg_positions(n, box_l, 31);
        let pm = build_interp_matrix(&pos, box_l, k, p);
        let k3 = k * k * k;
        let rows: Vec<u32> = (0..n as u32).collect();
        let f1 = vec![1.0; 3 * n];
        let mut mesh1 = vec![0.0; 3 * k3];
        scatter_rows(&rows, &pm, &f1, &mut mesh1, k3);
        let fs = vec![1.0; 3 * n * s];
        let mut meshs = vec![0.0; 3 * s * k3];
        scatter_rows_multi(&rows, &pm, &fs, s, 0, s, &mut meshs, k3);
        for theta in 0..3 {
            let single = &mesh1[theta * k3..(theta + 1) * k3];
            for j in 0..s {
                let multi = &meshs[(theta * s + j) * k3..(theta * s + j + 1) * k3];
                for (c, (a, b)) in single.iter().zip(multi).enumerate() {
                    assert_eq!(
                        *a != 0.0,
                        *b != 0.0,
                        "footprints differ at theta={theta} col={j} cell={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn interpolation_of_constant_field_returns_constant() {
        let n = 30;
        let (k, p, box_l) = (16usize, 6usize, 12.0);
        let pos = lcg_positions(n, box_l, 23);
        let pm = build_interp_matrix(&pos, box_l, k, p);
        let k3 = k * k * k;
        let mut mesh = vec![0.0; 3 * k3];
        mesh[..k3].fill(2.5); // x component constant
        mesh[2 * k3..].fill(-1.0); // z component constant
        let mut u = vec![0.0; 3 * n];
        interpolate(&pm, &mesh, &mut u);
        for i in 0..n {
            assert!((u[3 * i] - 2.5).abs() < 1e-12);
            assert!(u[3 * i + 1].abs() < 1e-12);
            assert!((u[3 * i + 2] + 1.0).abs() < 1e-12);
        }
    }
}
