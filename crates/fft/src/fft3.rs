//! 3D real-to-complex / complex-to-real FFT.
//!
//! Layout: a real array with dims `[n0][n1][n2]`, `n2` fastest (row-major,
//! matching the paper's `F_theta(k1, k2, k3)` mesh with `k3` fastest). The
//! half spectrum has dims `[n0][n1][nc]` with `nc = n2/2 + 1`.
//!
//! Axis `n2` uses the packed real transform; axes `n1` and `n0` are complex
//! transforms over strided lines, processed by gathering each line into a
//! contiguous buffer. There is one body per pass, generic over the `Lane`
//! type of a line bundle (`lanes.rs`), and one bundling rule: the lines of a
//! pass, in the order the pass enumerates them, move through the 1D kernels
//! `L::LANES` at a time — four consecutive rows for r2c/c2r, four
//! neighbouring `k2` columns (one 64-byte cache line of the spectrum per
//! element) for the strided axes — so at most the last bundle of a pass is
//! partial. Every mesh is transformed alone, which makes a batch `batch`
//! single transforms by construction. A mesh with a Bluestein axis runs the
//! same passes one line per bundle (`Complex64`).
//!
//! Meshes are the parallel work, each serial on its own scratch — unless the
//! thread count does not divide the mesh count, when the units inside a mesh
//! (groups of `i0`-planes for the `n2`/`n1` passes, the gathered lines of a
//! slab for the `n0` pass) become nested parallel work for the threads that
//! whole meshes would leave idle (a lone mesh, a drift triple on two threads).

use crate::complex::Complex64;
use crate::lanes::{Lane, C4};
use crate::plan::{Direction, FftError, FftPlan};
use crate::real::RealFftPlan;
use hibd_telemetry::Counter;
use rayon::prelude::*;

/// Reusable 3D r2c/c2r transform for fixed dims.
#[derive(Debug)]
pub struct Fft3 {
    dims: [usize; 3],
    rplan: RealFftPlan,
    plan1: FftPlan,
    plan0: FftPlan,
}

/// One worker's line buffers: a line bundle (the r2c/c2r row, then the
/// axis-1 line) and 1D-plan scratch sized for the largest of the three plans.
struct Scratch<L> {
    line: Vec<L>,
    fft: Vec<L>,
}

/// Whether `meshes` whole meshes cannot keep every thread busy to the end —
/// the one rule that turns the work inside a mesh into nested parallel work
/// (48 meshes on 2 threads: no; 1 mesh, or 3 on 2 threads: yes).
fn leaves_threads_idle(meshes: usize) -> bool {
    !meshes.is_multiple_of(rayon::current_num_threads())
}

impl Fft3 {
    /// Build a transform for real dims `[n0, n1, n2]` (`n2` even).
    pub fn new(dims: [usize; 3]) -> Result<Fft3, FftError> {
        let [n0, n1, n2] = dims;
        Ok(Fft3 {
            dims,
            rplan: RealFftPlan::new(n2)?,
            plan1: FftPlan::new(n1)?,
            plan0: FftPlan::new(n0)?,
        })
    }

    /// Real-array dims `[n0, n1, n2]`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Real array length `n0 * n1 * n2`.
    pub fn real_len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Half-spectrum length `n0 * n1 * (n2/2 + 1)`.
    pub fn spectrum_len(&self) -> usize {
        self.dims[0] * self.dims[1] * (self.dims[2] / 2 + 1)
    }

    /// Number of complex coefficients along the fastest axis, `n2/2 + 1`.
    pub fn nc(&self) -> usize {
        self.dims[2] / 2 + 1
    }

    /// Forward r2c transform (unnormalized, `e^{-2 pi i}`).
    ///
    /// `spectrum[(k0*n1 + k1)*nc + k2] = Σ_j real[j] e^{-2 pi i (j·k)/(n)}`
    /// for `k2 in 0..=n2/2`; the missing `k2` follow from the Hermitian
    /// symmetry of a real signal.
    pub fn forward(&self, real: &[f64], spectrum: &mut [Complex64]) {
        self.forward_batch(real, spectrum, 1);
    }

    /// Inverse c2r transform (unnormalized, `e^{+2 pi i}`):
    /// `inverse(forward(x)) = n0*n1*n2 * x`. Destroys `spectrum`.
    pub fn inverse(&self, spectrum: &mut [Complex64], real: &mut [f64]) {
        self.inverse_batch(spectrum, real, 1);
    }

    /// Forward r2c transforms of `batch` concatenated meshes through this
    /// one plan (shared twiddles) — the "3D FFTs for blocks of vectors" the
    /// paper notes no library provides (Sec. III-B). Each mesh goes through
    /// the code of [`Fft3::forward`] on its own `real_len()` /
    /// `spectrum_len()` chunk, so the results are *bitwise* those of `batch`
    /// single calls; the batch only supplies the parallel work.
    pub fn forward_batch(&self, reals: &[f64], spectra: &mut [Complex64], batch: usize) {
        self.check_batch(reals.len(), spectra.len(), batch);
        hibd_telemetry::incr(Counter::ForwardFfts, batch as u64);
        if self.has_bluestein_axis() {
            self.forward_meshes::<Complex64>(reals, spectra);
        } else {
            self.forward_meshes::<C4>(reals, spectra);
        }
    }

    /// Inverse c2r transforms of `batch` concatenated half spectra (same
    /// unnormalized convention as [`Fft3::inverse`]:
    /// `inverse_batch(forward_batch(x)) = n0*n1*n2 * x`). Destroys `spectra`.
    /// Bitwise identical to per-mesh [`Fft3::inverse`] calls, like
    /// [`Fft3::forward_batch`].
    pub fn inverse_batch(&self, spectra: &mut [Complex64], reals: &mut [f64], batch: usize) {
        self.check_batch(reals.len(), spectra.len(), batch);
        hibd_telemetry::incr(Counter::InverseFfts, batch as u64);
        if self.has_bluestein_axis() {
            self.inverse_meshes::<Complex64>(spectra, reals);
        } else {
            self.inverse_meshes::<C4>(spectra, reals);
        }
    }

    fn check_batch(&self, reals: usize, spectra: usize, batch: usize) {
        assert_eq!(reals, batch * self.real_len(), "batched real length mismatch");
        assert_eq!(spectra, batch * self.spectrum_len(), "batched spectrum length mismatch");
    }

    /// The Bluestein fallback is one-lane only, and the lane type is chosen
    /// per mesh, not per pass.
    fn has_bluestein_axis(&self) -> bool {
        !self.rplan.is_mixed_radix() || self.plan1.is_bluestein() || self.plan0.is_bluestein()
    }

    fn scratch<L: Lane>(&self) -> Scratch<L> {
        let fft =
            self.rplan.scratch_len().max(self.plan1.scratch_len()).max(self.plan0.scratch_len());
        Scratch { line: vec![L::ZERO; self.dims[1].max(self.nc())], fft: vec![L::ZERO; fft] }
    }

    /// Runs `f` on every `per`-sized chunk of `units` and its index: in order
    /// on the mesh's `own` scratch, or when `nested` as parallel work on one
    /// scratch per worker.
    fn for_chunks<L: Lane, T: Send>(
        &self,
        nested: bool,
        own: &mut Scratch<L>,
        units: &mut [T],
        per: usize,
        f: impl Fn(&mut Scratch<L>, usize, &mut [T]) + Sync,
    ) {
        if nested {
            let units = units.par_chunks_mut(per).enumerate();
            units.for_each_init(|| self.scratch(), |s, (i, unit)| f(s, i, unit));
        } else {
            units.chunks_mut(per).enumerate().for_each(|(i, unit)| f(own, i, unit));
        }
    }

    /// Forward transforms of consecutive meshes. Meshes are the parallel
    /// work; the units inside a mesh (see `for_chunks`) are nested parallel
    /// work only when whole meshes would leave threads idle. The units of the
    /// `n2`/`n1` passes are `L::LANES` whole `i0`-planes, a whole number of
    /// bundles in either pass.
    fn forward_meshes<L: Lane>(&self, reals: &[f64], spectra: &mut [Complex64]) {
        let [n0, n1, n2] = self.dims;
        let nc = self.nc();
        let rows = L::LANES * n1;
        let nested = leaves_threads_idle(reals.len() / self.real_len());
        let meshes =
            spectra.par_chunks_mut(self.spectrum_len()).zip(reals.par_chunks(self.real_len()));
        meshes.for_each_init(
            || (self.scratch::<L>(), vec![L::ZERO; n0 * nc]),
            |(own, slab), (spec, real)| {
                self.for_chunks(nested, own, spec, rows * nc, |s, i, unit| {
                    self.unit_r2c(&real[i * rows * n2..], unit, s);
                });
                self.for_chunks(nested, own, spec, rows * nc, |s, _, unit| {
                    self.unit_axis1(unit, s, Direction::Forward);
                });
                self.pass_axis0(spec, slab, own, nested, Direction::Forward);
            },
        );
    }

    /// Inverse transforms of consecutive meshes (reverse pass order, split
    /// like [`forward_meshes`](Self::forward_meshes)). Destroys `spectra`.
    fn inverse_meshes<L: Lane>(&self, spectra: &mut [Complex64], reals: &mut [f64]) {
        let [n0, n1, n2] = self.dims;
        let nc = self.nc();
        let rows = L::LANES * n1;
        let nested = leaves_threads_idle(reals.len() / self.real_len());
        let meshes =
            spectra.par_chunks_mut(self.spectrum_len()).zip(reals.par_chunks_mut(self.real_len()));
        meshes.for_each_init(
            || (self.scratch::<L>(), vec![L::ZERO; n0 * nc]),
            |(own, slab), (spec, real)| {
                self.pass_axis0(spec, slab, own, nested, Direction::Inverse);
                self.for_chunks(nested, own, spec, rows * nc, |s, _, unit| {
                    self.unit_axis1(unit, s, Direction::Inverse);
                });
                let spec = &*spec;
                self.for_chunks(nested, own, real, rows * n2, |s, i, unit| {
                    self.unit_c2r(&spec[i * rows * nc..], unit, s);
                });
            },
        );
    }

    /// r2c transform along axis 2 (contiguous rows) of one unit: `unit` is
    /// its spectrum rows, `real` starts at its first real row.
    fn unit_r2c<L: Lane>(&self, real: &[f64], unit: &mut [Complex64], s: &mut Scratch<L>) {
        let n2 = self.dims[2];
        let nc = self.nc();
        let line = &mut s.line[..nc];
        for (rows, reals) in unit.chunks_mut(L::LANES * nc).zip(real.chunks(L::LANES * n2)) {
            self.rplan.forward_lanes(reals.chunks(n2), line, &mut s.fft);
            for (l, row) in rows.chunks_mut(nc).enumerate() {
                row.iter_mut().zip(line.iter()).for_each(|(c, v)| *c = v.lane(l));
            }
        }
    }

    /// c2r transform along axis 2 of one unit, the reverse of
    /// [`unit_r2c`](Self::unit_r2c): `unit` is its real rows, `spec` starts
    /// at its first spectrum row.
    fn unit_c2r<L: Lane>(&self, spec: &[Complex64], unit: &mut [f64], s: &mut Scratch<L>) {
        let n2 = self.dims[2];
        let nc = self.nc();
        let line = &mut s.line[..nc];
        for (reals, rows) in unit.chunks_mut(L::LANES * n2).zip(spec.chunks(L::LANES * nc)) {
            for (l, row) in rows.chunks(nc).enumerate() {
                line.iter_mut().zip(row).for_each(|(v, c)| v.set_lane(l, *c));
            }
            self.rplan.inverse_lanes(line, reals.chunks_mut(n2), &mut s.fft);
        }
    }

    /// Complex transform along axis 1 of one unit of whole `i0`-planes. Line
    /// `u = i0*nc + k2` has stride `nc` inside its plane; a bundle is the
    /// next `L::LANES` lines in that order, wrapping into the next plane.
    fn unit_axis1<L: Lane>(&self, unit: &mut [Complex64], s: &mut Scratch<L>, dir: Direction) {
        let n1 = self.dims[1];
        let nc = self.nc();
        if n1 == 1 {
            return;
        }
        let line = &mut s.line[..n1];
        let lines = unit.len() / n1;
        for u in (0..lines).step_by(L::LANES) {
            let starts = (u..lines.min(u + L::LANES)).map(|u| u / nc * n1 * nc + u % nc);
            for (l, start) in starts.clone().enumerate() {
                let column = unit[start..].iter().step_by(nc);
                line.iter_mut().zip(column).for_each(|(v, c)| v.set_lane(l, *c));
            }
            self.plan1.process(line, &mut s.fft, dir);
            for (l, start) in starts.enumerate() {
                let column = unit[start..].iter_mut().step_by(nc);
                line.iter().zip(column).for_each(|(v, c)| *c = v.lane(l));
            }
        }
    }

    /// Complex transform of one mesh along axis 0. Line `u = i1*nc + k2`
    /// starts at element `u` and has stride `n1*nc`, so lines interleave in
    /// memory: they are walked `L::LANES * nc` at a time, each such tile
    /// gathered row by row into `slab[bundle*n0 + i0]`, whose bundles are
    /// then the units of work.
    fn pass_axis0<L: Lane>(
        &self,
        spec: &mut [Complex64],
        slab: &mut [L],
        own: &mut Scratch<L>,
        nested: bool,
        dir: Direction,
    ) {
        let [n0, n1, _] = self.dims;
        let per_tile = L::LANES * self.nc();
        let plane = n1 * self.nc();
        if n0 == 1 {
            return;
        }
        for u in (0..plane).step_by(per_tile) {
            let width = per_tile.min(plane - u);
            let tile = &mut slab[..width.div_ceil(L::LANES) * n0];
            for (i0, row) in spec.chunks(plane).enumerate() {
                for (v, bundle) in
                    tile[i0..].iter_mut().step_by(n0).zip(row[u..u + width].chunks(L::LANES))
                {
                    bundle.iter().enumerate().for_each(|(l, c)| v.set_lane(l, *c));
                }
            }
            self.for_chunks(nested, own, tile, n0, |s, _, line| {
                self.plan0.process(line, &mut s.fft, dir);
            });
            for (i0, row) in spec.chunks_mut(plane).enumerate() {
                for (v, bundle) in
                    tile[i0..].iter().step_by(n0).zip(row[u..u + width].chunks_mut(L::LANES))
                {
                    bundle.iter_mut().enumerate().for_each(|(l, c)| *c = v.lane(l));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft3_forward_real;

    fn random_real(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn forward_matches_naive_3d_dft() {
        // `[3, 5, 4]` ends every pass on a partial bundle.
        for dims in [[4usize, 6, 8], [3, 5, 4], [2, 2, 2], [1, 4, 6], [5, 1, 10], [8, 8, 8]] {
            let [n0, n1, n2] = dims;
            let fft = Fft3::new(dims).unwrap();
            let x = random_real(n0 * n1 * n2, (n0 * 100 + n1 * 10 + n2) as u64);
            let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
            fft.forward(&x, &mut spec);
            let want = dft3_forward_real(&x, dims);
            let nc = n2 / 2 + 1;
            for k0 in 0..n0 {
                for k1 in 0..n1 {
                    for k2 in 0..nc {
                        let got = spec[(k0 * n1 + k1) * nc + k2];
                        let w = want[(k0 * n1 + k1) * n2 + k2];
                        assert!(
                            (got - w).abs() < 1e-10,
                            "dims {dims:?} k=({k0},{k1},{k2}): {got:?} vs {w:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_scales_by_total_size() {
        for dims in [[4usize, 4, 4], [6, 5, 8], [2, 3, 10], [16, 16, 16], [10, 10, 10]] {
            let [n0, n1, n2] = dims;
            let total = (n0 * n1 * n2) as f64;
            let fft = Fft3::new(dims).unwrap();
            let x = random_real(n0 * n1 * n2, 42);
            let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
            fft.forward(&x, &mut spec);
            let mut y = vec![0.0; x.len()];
            fft.inverse(&mut spec, &mut y);
            for (a, b) in x.iter().zip(&y) {
                assert!((b / total - a).abs() < 1e-11, "dims {dims:?}");
            }
        }
    }

    #[test]
    fn inverse_batch_roundtrip_scales_by_total_size() {
        // Same unnormalized convention as the single-mesh transforms:
        // inverse_batch(forward_batch(x)) = n0*n1*n2 * x per mesh.
        for (dims, batch) in [([4usize, 4, 4], 6usize), ([6, 5, 8], 2), ([2, 3, 10], 7)] {
            let [n0, n1, n2] = dims;
            let total = (n0 * n1 * n2) as f64;
            let fft = Fft3::new(dims).unwrap();
            let rl = n0 * n1 * n2;
            let x = random_real(batch * rl, 1234 + batch as u64);
            let mut spec = vec![Complex64::ZERO; batch * fft.spectrum_len()];
            fft.forward_batch(&x, &mut spec, batch);
            let mut y = vec![0.0; batch * rl];
            fft.inverse_batch(&mut spec, &mut y, batch);
            for (i, (a, b)) in x.iter().zip(&y).enumerate() {
                assert!(
                    (b / total - a).abs() < 1e-11,
                    "dims {dims:?} flat idx {i}: {a} vs {}",
                    b / total
                );
            }
        }
    }

    /// Forward + inverse batch must be *bitwise* equal to per-mesh
    /// transforms: a width-1 PME apply and a column of a block apply must
    /// see the same transform.
    fn assert_batch_bitwise(dims: [usize; 3], batch: usize) {
        let [n0, n1, n2] = dims;
        let fft = Fft3::new(dims).unwrap();
        let rl = n0 * n1 * n2;
        let sl = fft.spectrum_len();
        let x = random_real(batch * rl, (n0 * 997 + n1 * 131 + n2 * 13 + batch) as u64);
        let mut spec_batch = vec![Complex64::ZERO; batch * sl];
        fft.forward_batch(&x, &mut spec_batch, batch);
        let mut real_batch = vec![0.0; batch * rl];
        let mut spec_copy = spec_batch.clone();
        fft.inverse_batch(&mut spec_copy, &mut real_batch, batch);
        for b in 0..batch {
            let mut spec_one = vec![Complex64::ZERO; sl];
            fft.forward(&x[b * rl..(b + 1) * rl], &mut spec_one);
            for i in 0..sl {
                let (got, want) = (spec_batch[b * sl + i], spec_one[i]);
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "dims {dims:?} batch {batch} mesh {b} idx {i} (fwd)"
                );
            }
            let mut real_one = vec![0.0; rl];
            fft.inverse(&mut spec_one, &mut real_one);
            for i in 0..rl {
                assert_eq!(
                    real_batch[b * rl + i].to_bits(),
                    real_one[i].to_bits(),
                    "dims {dims:?} batch {batch} mesh {b} idx {i} (inv)"
                );
            }
        }
    }

    #[test]
    fn batch_transforms_are_bitwise_identical_to_single() {
        // Batches on both sides of the nesting rule, generic radices (7, 11,
        // 13) on every axis, n0 == 1 / n1 == 1 early-outs, and a radix-11
        // real axis.
        for (dims, batch) in [
            ([22usize, 6, 8], 4usize),
            ([7, 5, 4], 5),
            ([11, 4, 6], 7),
            ([6, 11, 8], 4),
            ([4, 6, 22], 5),
            ([13, 3, 4], 4),
            ([5, 1, 10], 4),
            ([1, 5, 8], 4),
            ([8, 8, 8], 6),
            ([4, 6, 8], 3),
            ([3, 5, 4], 5),
        ] {
            assert_batch_bitwise(dims, batch);
        }
    }

    #[test]
    fn batch_with_bluestein_axis_skips_lane_path() {
        // 17 is rough: the affected 1D plan falls back to Bluestein, the mesh
        // runs one line per bundle, and the batch must still match per-mesh.
        for (dims, batch) in [([17usize, 4, 6], 4usize), ([4, 17, 6], 5), ([4, 6, 34], 4)] {
            assert_batch_bitwise(dims, batch);
        }
    }

    #[test]
    fn bundle_width_does_not_change_bits() {
        // Which lines share a bundle must not matter: the four-lane passes
        // against the one-lane passes on the same mesh, with every kind of
        // partial bundle (`n0 % 4` planes, `n1 % 4` rows, `nc % 4` columns).
        for dims in [[5usize, 1, 10], [1, 5, 8], [3, 2, 4], [7, 5, 6], [66, 6, 8], [9, 10, 12]] {
            let fft = Fft3::new(dims).unwrap();
            let x = random_real(fft.real_len(), 31 + dims[0] as u64);
            let mut wide = vec![Complex64::ZERO; fft.spectrum_len()];
            let mut narrow = wide.clone();
            fft.forward_meshes::<C4>(&x, &mut wide);
            fft.forward_meshes::<Complex64>(&x, &mut narrow);
            let bits = |v: &[Complex64]| -> Vec<_> {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(bits(&wide), bits(&narrow), "dims {dims:?} (fwd)");
            let (mut y4, mut y1) = (vec![0.0; x.len()], vec![0.0; x.len()]);
            fft.inverse_meshes::<C4>(&mut wide, &mut y4);
            fft.inverse_meshes::<Complex64>(&mut narrow, &mut y1);
            let bits = |v: &[f64]| -> Vec<_> { v.iter().map(|r| r.to_bits()).collect() };
            assert_eq!(bits(&y4), bits(&y1), "dims {dims:?} (inv)");
        }
    }

    #[test]
    fn delta_input_gives_flat_spectrum() {
        let dims = [4usize, 4, 4];
        let fft = Fft3::new(dims).unwrap();
        let mut x = vec![0.0; 64];
        x[0] = 1.0;
        let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
        fft.forward(&x, &mut spec);
        for v in &spec {
            assert!((*v - Complex64::ONE).abs() < 1e-13);
        }
    }

    #[test]
    fn constant_input_concentrates_at_dc() {
        let dims = [4usize, 6, 8];
        let fft = Fft3::new(dims).unwrap();
        let x = vec![2.0; 4 * 6 * 8];
        let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
        fft.forward(&x, &mut spec);
        assert!((spec[0].re - 2.0 * 192.0).abs() < 1e-10);
        assert!(spec[0].im.abs() < 1e-10);
        for v in &spec[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_odd_fastest_dim() {
        assert!(Fft3::new([4, 4, 5]).is_err());
        assert!(Fft3::new([5, 5, 4]).is_ok());
    }

    #[test]
    fn parseval_3d() {
        // For a real signal: sum x^2 = (1/N) [ |X|^2 over full spectrum ].
        // Reconstruct the full-spectrum energy from the half spectrum.
        let dims = [6usize, 4, 8];
        let [n0, n1, n2] = dims;
        let nc = n2 / 2 + 1;
        let fft = Fft3::new(dims).unwrap();
        let x = random_real(n0 * n1 * n2, 7);
        let mut spec = vec![Complex64::ZERO; fft.spectrum_len()];
        fft.forward(&x, &mut spec);
        let mut freq_energy = 0.0;
        for k0 in 0..n0 {
            for k1 in 0..n1 {
                for k2 in 0..nc {
                    let e = spec[(k0 * n1 + k1) * nc + k2].norm2();
                    // Interior k2 represent two conjugate coefficients.
                    let w = if k2 == 0 || k2 == n2 / 2 { 1.0 } else { 2.0 };
                    freq_energy += w * e;
                }
            }
        }
        freq_energy /= (n0 * n1 * n2) as f64;
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        assert!((time_energy - freq_energy).abs() < 1e-10 * time_energy);
    }
}
