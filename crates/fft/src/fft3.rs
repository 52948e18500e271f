//! 3D real-to-complex / complex-to-real FFT.
//!
//! Layout: a real array with dims `[n0][n1][n2]`, `n2` fastest (row-major,
//! matching the paper's `F_theta(k1, k2, k3)` mesh with `k3` fastest). The
//! half spectrum has dims `[n0][n1][nc]` with `nc = n2/2 + 1`.
//!
//! Axis `n2` uses the packed real transform; axes `n1` and `n0` are complex
//! transforms over strided lines, processed by gathering each line into a
//! contiguous buffer. There is one body per pass, generic over the `Lane`
//! type of a line (`lanes.rs`): a batch runs as groups of four meshes whose
//! lines move through the 1D kernels together as `C4` bundles, then the
//! `batch % 4` tail as one-lane (`Complex64`) groups; a single mesh is the
//! `batch = 1` call. Work is split by one rule at every lane width: groups
//! run in parallel, each serially on its own scratch — unless the thread
//! count does not divide the group count, when the `i0`-planes of the
//! `n2`/`n1` passes and the lines of each gathered `i1`-slab of the `n0`
//! pass become nested parallel work for the threads that whole groups would
//! leave idle (a lone mesh, three tail meshes on two threads).

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

/// Whether `groups` whole lane groups cannot keep every thread busy to the
/// end — the one rule that turns the work inside a group into nested
/// parallel work (12 quads on 2 threads: no; 1 mesh, or 3 on 2 threads: yes).
fn leaves_threads_idle(groups: usize) -> bool {
    !groups.is_multiple_of(rayon::current_num_threads())
}

/// Transposes the chunks of one lane group — `per_mesh` consecutive chunks
/// for each of its meshes — from `[lane][pos]` to `[pos][lane]` order, so
/// that every `lanes`-sized chunk of the result holds the disjoint slices of
/// one position, one per lane.
fn by_lane<S>(chunks: impl Iterator<Item = S>, per_mesh: usize) -> Vec<S> {
    let mut chunks: Vec<Option<S>> = chunks.map(Some).collect();
    let lanes = chunks.len() / per_mesh;
    (0..chunks.len())
        .map(|u| chunks[u % lanes * per_mesh + u / lanes].take().expect("a permutation"))
        .collect()
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
    /// one plan (shared twiddles). *Bitwise* identical to `batch` calls of
    /// [`Fft3::forward`] on consecutive `real_len()` / `spectrum_len()`
    /// chunks, but groups of four meshes move through every 1D line
    /// transform together in lane-bundled form (see `lanes.rs`) — the
    /// "3D FFTs for blocks of vectors" the paper notes no library provides
    /// (Sec. III-B). The `batch % 4` remainder (or the whole batch when a
    /// dimension needs the Bluestein fallback) runs as one-lane groups.
    pub fn forward_batch(&self, reals: &[f64], spectra: &mut [Complex64], batch: usize) {
        let bundled = self.check_batch(reals.len(), spectra.len(), batch);
        hibd_telemetry::incr(Counter::ForwardFfts, batch as u64);
        let (reals4, reals1) = reals.split_at(bundled * self.real_len());
        let (spectra4, spectra1) = spectra.split_at_mut(bundled * self.spectrum_len());
        self.forward_groups::<C4>(reals4, spectra4);
        self.forward_groups::<Complex64>(reals1, spectra1);
    }

    /// Inverse c2r transforms of `batch` concatenated half spectra (same
    /// unnormalized convention as [`Fft3::inverse`]:
    /// `inverse_batch(forward_batch(x)) = n0*n1*n2 * x`). Destroys `spectra`.
    /// Bitwise identical to per-mesh [`Fft3::inverse`] calls, with groups of
    /// four meshes lane-bundled exactly like [`Fft3::forward_batch`].
    pub fn inverse_batch(&self, spectra: &mut [Complex64], reals: &mut [f64], batch: usize) {
        let bundled = self.check_batch(reals.len(), spectra.len(), batch);
        hibd_telemetry::incr(Counter::InverseFfts, batch as u64);
        let (reals4, reals1) = reals.split_at_mut(bundled * self.real_len());
        let (spectra4, spectra1) = spectra.split_at_mut(bundled * self.spectrum_len());
        self.inverse_groups::<C4>(spectra4, reals4);
        self.inverse_groups::<Complex64>(spectra1, reals1);
    }

    /// Checks the batched buffer lengths; returns how many leading meshes
    /// run as `C4` groups. Every 1D plan must be mixed-radix for that: the
    /// Bluestein fallback is one-lane only.
    fn check_batch(&self, reals: usize, spectra: usize, batch: usize) -> usize {
        assert_eq!(reals, batch * self.real_len(), "batched real length mismatch");
        assert_eq!(spectra, batch * self.spectrum_len(), "batched spectrum length mismatch");
        let lanes_supported =
            self.rplan.is_mixed_radix() && !self.plan1.is_bluestein() && !self.plan0.is_bluestein();
        if lanes_supported {
            batch - batch % C4::LANES
        } else {
            0
        }
    }

    fn scratch<L: Lane>(&self) -> Scratch<L> {
        let fft =
            self.rplan.scratch_len().max(self.plan1.scratch_len()).max(self.plan0.scratch_len());
        Scratch { line: vec![L::ZERO; self.dims[1].max(self.nc())], fft: vec![L::ZERO; fft] }
    }

    /// Runs `f` on every `per`-sized chunk of `units`: in order on the
    /// group's `own` scratch, or when `nested` as parallel work on one
    /// scratch per worker.
    fn for_chunks<L: Lane, T: Send>(
        &self,
        nested: bool,
        own: &mut Scratch<L>,
        units: &mut [T],
        per: usize,
        f: impl Fn(&mut Scratch<L>, &mut [T]) + Sync,
    ) {
        if nested {
            units.par_chunks_mut(per).for_each_init(|| self.scratch(), |s, unit| f(s, unit));
        } else {
            units.chunks_mut(per).for_each(|unit| f(own, unit));
        }
    }

    /// Forward transforms of consecutive groups of `L::LANES` meshes. Groups
    /// are the parallel work; the units inside a group (see `for_chunks`) are
    /// nested parallel work only when whole groups would leave threads idle.
    fn forward_groups<L: Lane>(&self, reals: &[f64], spectra: &mut [Complex64]) {
        let [n0, n1, n2] = self.dims;
        let nc = self.nc();
        let (rl, sl) = (L::LANES * self.real_len(), L::LANES * self.spectrum_len());
        let nested = leaves_threads_idle(reals.len() / rl);
        spectra.par_chunks_mut(sl).zip(reals.par_chunks(rl)).for_each_init(
            || (self.scratch::<L>(), vec![L::ZERO; n0 * nc]),
            |(own, slab), (group, reals)| {
                let planes = group.chunks_mut(n1 * nc).zip(reals.chunks(n1 * n2));
                let planes = &mut by_lane(planes, n0)[..];
                self.for_chunks(nested, own, planes, L::LANES, |s, p| self.plane_r2c(p, s));
                self.for_chunks(nested, own, planes, L::LANES, |s, p| {
                    self.plane_axis1(p, s, Direction::Forward);
                });
                self.pass_axis0(group, slab, own, nested, Direction::Forward);
            },
        );
    }

    /// Inverse transforms of consecutive groups of `L::LANES` meshes (reverse
    /// pass order, split like [`forward_groups`](Self::forward_groups)).
    /// Destroys `spectra`.
    fn inverse_groups<L: Lane>(&self, spectra: &mut [Complex64], reals: &mut [f64]) {
        let [n0, n1, n2] = self.dims;
        let nc = self.nc();
        let (rl, sl) = (L::LANES * self.real_len(), L::LANES * self.spectrum_len());
        let nested = leaves_threads_idle(reals.len() / rl);
        reals.par_chunks_mut(rl).zip(spectra.par_chunks_mut(sl)).for_each_init(
            || (self.scratch::<L>(), vec![L::ZERO; n0 * nc]),
            |(own, slab), (reals, group)| {
                self.pass_axis0(group, slab, own, nested, Direction::Inverse);
                let planes = group.chunks_mut(n1 * nc).zip(reals.chunks_mut(n1 * n2));
                let planes = &mut by_lane(planes, n0)[..];
                self.for_chunks(nested, own, planes, L::LANES, |s, p| {
                    self.plane_axis1(p, s, Direction::Inverse);
                });
                self.for_chunks(nested, own, planes, L::LANES, |s, p| self.plane_c2r(p, s));
            },
        );
    }

    /// r2c transform along axis 2 (contiguous rows) of one `i0`-plane of a
    /// group: `planes[l]` is the plane's spectrum and real chunk in mesh `l`.
    fn plane_r2c<L: Lane>(&self, planes: &mut [(&mut [Complex64], &[f64])], s: &mut Scratch<L>) {
        let [_, n1, n2] = self.dims;
        let nc = self.nc();
        let line = &mut s.line[..nc];
        for i1 in 0..n1 {
            let rows = planes.iter().map(|(_, real)| &real[i1 * n2..(i1 + 1) * n2]);
            self.rplan.forward_lanes(rows, line, &mut s.fft);
            for (l, (plane, _)) in planes.iter_mut().enumerate() {
                let row = plane[i1 * nc..(i1 + 1) * nc].iter_mut();
                row.zip(line.iter()).for_each(|(c, v)| *c = v.lane(l));
            }
        }
    }

    /// c2r transform along axis 2 of one `i0`-plane, the reverse of
    /// [`plane_r2c`](Self::plane_r2c).
    fn plane_c2r<L: Lane>(
        &self,
        planes: &mut [(&mut [Complex64], &mut [f64])],
        s: &mut Scratch<L>,
    ) {
        let [_, n1, n2] = self.dims;
        let nc = self.nc();
        let line = &mut s.line[..nc];
        for i1 in 0..n1 {
            for (l, (plane, _)) in planes.iter().enumerate() {
                let row = &plane[i1 * nc..(i1 + 1) * nc];
                line.iter_mut().zip(row).for_each(|(v, c)| v.set_lane(l, *c));
            }
            let rows = planes.iter_mut().map(|(_, real)| &mut real[i1 * n2..(i1 + 1) * n2]);
            self.rplan.inverse_lanes(line, rows, &mut s.fft);
        }
    }

    /// Complex transform along axis 1 of one `i0`-plane of a group; lines
    /// have stride `nc` inside the plane.
    fn plane_axis1<L: Lane, R>(
        &self,
        planes: &mut [(&mut [Complex64], R)],
        s: &mut Scratch<L>,
        dir: Direction,
    ) {
        let n1 = self.dims[1];
        let nc = self.nc();
        if n1 == 1 {
            return;
        }
        let line = &mut s.line[..n1];
        for k2 in 0..nc {
            for (l, (plane, _)) in planes.iter().enumerate() {
                let column = plane[k2..].iter().step_by(nc);
                line.iter_mut().zip(column).for_each(|(v, c)| v.set_lane(l, *c));
            }
            self.plan1.process(line, &mut s.fft, dir);
            for (l, (plane, _)) in planes.iter_mut().enumerate() {
                let column = plane[k2..].iter_mut().step_by(nc);
                column.zip(line.iter()).for_each(|(c, v)| *c = v.lane(l));
            }
        }
    }

    /// Complex transform of one group along axis 0. Lines have stride
    /// `n1*nc`, so the elements of different `i1`-slabs interleave in
    /// memory: the slabs are walked in order, each gathered into
    /// `slab[k2*n0 + i0]`, whose `nc` lines are then the units of work.
    fn pass_axis0<L: Lane>(
        &self,
        group: &mut [Complex64],
        slab: &mut [L],
        own: &mut Scratch<L>,
        nested: bool,
        dir: Direction,
    ) {
        let [n0, n1, _] = self.dims;
        let nc = self.nc();
        if n0 == 1 {
            return;
        }
        let mesh = n0 * n1 * nc;
        for i1 in 0..n1 {
            // One whole slab element (every lane) per step, rows in order.
            for i0 in 0..n0 {
                let row = (i0 * n1 + i1) * nc;
                for (k2, v) in slab[i0..].iter_mut().step_by(n0).enumerate() {
                    for l in 0..L::LANES {
                        v.set_lane(l, group[l * mesh + row + k2]);
                    }
                }
            }
            self.for_chunks(nested, own, slab, n0, |s, line| {
                self.plan0.process(line, &mut s.fft, dir);
            });
            for i0 in 0..n0 {
                let row = (i0 * n1 + i1) * nc;
                for (k2, v) in slab[i0..].iter().step_by(n0).enumerate() {
                    for l in 0..L::LANES {
                        group[l * mesh + row + k2] = v.lane(l);
                    }
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
    fn forward_batch_matches_per_mesh_loop() {
        // Odd and even slow dims, batch sizes straddling the plan count.
        for (dims, batch) in
            [([4usize, 6, 8], 3usize), ([3, 5, 4], 5), ([8, 8, 8], 1), ([5, 1, 10], 4)]
        {
            let [n0, n1, n2] = dims;
            let fft = Fft3::new(dims).unwrap();
            let rl = n0 * n1 * n2;
            let sl = fft.spectrum_len();
            let x = random_real(batch * rl, (n0 * 1000 + batch) as u64);
            let mut spec_batch = vec![Complex64::ZERO; batch * sl];
            fft.forward_batch(&x, &mut spec_batch, batch);
            for b in 0..batch {
                let mut spec_one = vec![Complex64::ZERO; sl];
                fft.forward(&x[b * rl..(b + 1) * rl], &mut spec_one);
                for i in 0..sl {
                    assert!(
                        (spec_batch[b * sl + i] - spec_one[i]).abs() < 1e-12,
                        "dims {dims:?} mesh {b} idx {i}"
                    );
                }
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
    /// transforms: the ensemble engine's replicas are compared bitwise
    /// against standalone runs, and the `C4` lane groups must not perturb a
    /// single ulp.
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
        // Lane groups plus tails, generic radices (7, 11, 13) on every axis,
        // n0 == 1 / n1 == 1 early-outs, and a radix-11 real axis.
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
        ] {
            assert_batch_bitwise(dims, batch);
        }
    }

    #[test]
    fn batch_with_bluestein_axis_skips_lane_path() {
        // 17 is rough: the affected 1D plan falls back to Bluestein, the
        // `C4` groups are gated off, and the batch must still match per-mesh.
        for (dims, batch) in [([17usize, 4, 6], 4usize), ([4, 17, 6], 5), ([4, 6, 34], 4)] {
            assert_batch_bitwise(dims, batch);
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
