//! The paper's performance model (Section IV-D) and machine descriptions
//! (Table I).
//!
//! Each reciprocal-space phase is modeled either as memory-bandwidth-bound
//! (spreading, influence application, interpolation) or flop-bound at the
//! machine's achievable FFT rate (the two transform phases):
//!
//! * `T_spreading     = (24 K^3 + 36 p^3 n) / B`
//! * `T_fft / T_ifft  = 3 * 2.5 K^3 log2(K^3) / P_fft(K)`
//! * `T_influence     = 52 K^3 / B`
//! * `T_interpolation = 36 p^3 n / B`
//!
//! summing to the paper's Eq. 10, with the memory requirement of Eq. 11.
//! `P_fft(K)` uses a saturation curve: wide-SIMD machines (KNC) only reach
//! their asymptotic FFT rate on large meshes, which reproduces the Figure 6
//! crossover (KNC no faster than the CPU for small problems, up to ~1.6x
//! faster for large ones).
//!
//! The real-space half is modeled here too, so the tuner and the hybrid
//! harness share one definition of it. For `B_r` stored 3x3 blocks
//! ([`real_space_blocks`]) and `s` right-hand sides:
//!
//! * `T_real     = (76 B_r + 48 n s) / B` — one pass over the BCSR matrix
//!   (72 B block + 4 B column index) plus the in/out vectors;
//! * `T_assembly = B_r / R_asm` — the once-per-window build of that matrix
//!   (neighbor search, Beenakker pair kernel, BCSR insertion), which at a
//!   cost-balanced split is as large as the products it is amortized over.
//!
//! **Constants come from a [`Machine`] and nowhere else**: pinned in source
//! ([`Machine::westmere`], [`Machine::knc`], [`Machine::reference`]) or
//! fitted from measured seconds by [`Fit`]. [`PerfModel::report`] sets a
//! run's measured phase seconds beside what a machine predicts for them;
//! every predicted cell is one of the `t_*` methods below, real space
//! included.
//!
//! **Hardware substitution note.** This host has neither a Westmere-EP pair
//! nor Xeon Phi cards; [`Machine::westmere`] and [`Machine::knc`] encode
//! Table I plus canonical MKL FFT efficiencies, and the hybrid scheduler
//! consumes the *model*, exactly as the paper's static partitioner does. See
//! DESIGN.md.
//!
//! **The pinned reference machine.** [`Machine::reference`] is the one
//! machine [`crate::tuner::tune`] prices an Ewald split on. Its constants
//! are read off named rungs of `results/BENCH_pr16.json` (workload
//! `periodic_run`; 2 vCPU Xeon 2.1 GHz, AVX2, 2 threads) and then frozen in
//! source:
//!
//! | field | value | rung |
//! |---|---|---|
//! | `bandwidth` | 21.4 GB/s | `host.triad_gbs` 21.36 |
//! | `fft_flops`, `ifft_flops` | 7.3 GF/s | `fft.r2c_k128.ms` 15.30 → `2.5·128³·21 / t` = 7.20 GF/s, lifted through the saturation curve (`·(1 + 32³/128³)`) as the ladder does; there is no inverse K = 128 rung, and `fft.c2r_k64.ms` 1.73 vs `fft.r2c_k64.ms` 1.59 says the two directions agree to 10 % |
//! | `fft_sat_k3` | 32³ | Westmere's; `pme.model_ratio_fft` reads 0.99 at K = 66 with it |
//! | `assembly_rate` | 3.0 M blocks/s | `rpy.pairs_ewald_real.ns_per_pair` 166, doubled and charged per stored *block* (0.33 µs): the rung times the pair kernel alone at the old split's `alpha`; at a cost-balanced `alpha` the kernel's `erfc` continued fraction runs deeper (313 ns/pair, two blocks), and the neighbor search over a cutoff near `L/2`, the pushes and the BCSR sort add as much again — whole `assemble_real_space` calls measure 0.22 / 0.35 / 0.54 µs per block at n = 200 / 1000 / 5000 |
//!
//! It is deliberately **not** calibrated on the running host: checkpoints do
//! not store `PmeParams` (resume re-tunes), the engine's `ShapeKey` is the
//! tuned parameter bits, and replica == standalone / kill-and-restart ==
//! uninterrupted must hold across hosts, so the split has to be a pure
//! function of the physical inputs. A host whose balance differs from the
//! reference runs a split that is off its own optimum by the flatness of the
//! cost curve (EXPERIMENTS.md, Table III), never a wrong one.

use hibd_telemetry::{Phase, Snapshot, MODEL_PHASES};

/// A machine description for the performance model.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    pub name: &'static str,
    /// STREAM memory bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Asymptotic achievable forward 3D-FFT rate, flop/s.
    pub fft_flops: f64,
    /// Asymptotic achievable inverse 3D-FFT rate, flop/s.
    pub ifft_flops: f64,
    /// Mesh size `K^3` at which the FFT rate reaches half its asymptote
    /// (efficiency saturation scale).
    pub fft_sat_k3: f64,
    /// Peak double-precision flop rate (Table I), for reporting.
    pub peak_flops: f64,
    /// Real-space assembly rate, stored 3x3 blocks per second (neighbor
    /// search + Beenakker pair kernel + BCSR insertion).
    pub assembly_rate: f64,
}

impl Machine {
    /// Dual-socket Intel Xeon X5680 (Westmere-EP), Table I column 1.
    pub fn westmere() -> Machine {
        Machine {
            name: "2x Xeon X5680 (Westmere-EP)",
            bandwidth: 41.6e9,
            fft_flops: 24.0e9,
            ifft_flops: 24.0e9,
            fft_sat_k3: 32.0 * 32.0 * 32.0,
            peak_flops: 160.0e9,
            // Compute-bound (`erfc`/`exp` per pair): the reference host's
            // measured rate scaled by peak flops.
            assembly_rate: 7.0e6,
        }
    }

    /// Intel Xeon Phi (Knights Corner), Table I column 2. The inverse FFT
    /// rate is depressed, reflecting the paper's observation that MKL's 3D
    /// inverse FFT was inefficient on KNC at the time.
    pub fn knc() -> Machine {
        Machine {
            name: "Intel Xeon Phi (KNC)",
            bandwidth: 160.0e9,
            fft_flops: 55.0e9,
            ifft_flops: 30.0e9,
            fft_sat_k3: 128.0 * 128.0 * 128.0,
            peak_flops: 1074.0e9,
            // The hybrid scheme never assembles on the accelerator; scaled
            // like Westmere's for completeness.
            assembly_rate: 48.0e6,
        }
    }

    /// The pinned machine the tuner prices an Ewald split on: the ladder's
    /// reference host as archived in `results/BENCH_pr16.json` (see the
    /// module docs for the rung behind each constant). Frozen in source —
    /// never probed, so [`crate::tuner::tune`] stays a pure function.
    pub fn reference() -> Machine {
        Machine {
            name: "ladder reference host (2 vCPU Xeon 2.1 GHz, AVX2)",
            bandwidth: 21.4e9,
            fft_flops: 7.3e9,
            ifft_flops: 7.3e9,
            fft_sat_k3: 32.0 * 32.0 * 32.0,
            peak_flops: 67.2e9,
            assembly_rate: 3.0e6,
        }
    }

    /// Achievable forward-FFT rate on a `K^3` mesh.
    pub fn p_fft(&self, k: usize) -> f64 {
        let k3 = (k * k * k) as f64;
        self.fft_flops * k3 / (k3 + self.fft_sat_k3)
    }

    /// Achievable inverse-FFT rate on a `K^3` mesh.
    pub fn p_ifft(&self, k: usize) -> f64 {
        let k3 = (k * k * k) as f64;
        self.ifft_flops * k3 / (k3 + self.fft_sat_k3)
    }
}

/// Measured seconds on their way to a [`Machine`]: per constant, total model
/// work over total measured time (least squares through the origin), on a
/// base machine that supplies what is not measured (`fft_sat_k3`,
/// `peak_flops`, `assembly_rate`) and any constant that saw no work. The one
/// place where seconds become rates; it reads the numbers it is handed,
/// never a clock.
#[derive(Clone, Copy, Debug)]
pub struct Fit {
    base: Machine,
    /// Work (bytes; flops at the asymptote) and seconds behind
    /// `[bandwidth, fft_flops, ifft_flops]`.
    work: [f64; 3],
    secs: [f64; 3],
}

impl Fit {
    pub fn new(base: Machine) -> Fit {
        Fit { base, work: [0.0; 3], secs: [0.0; 3] }
    }

    fn add(mut self, constant: usize, work: f64, secs: f64) -> Fit {
        self.work[constant] += work;
        self.secs[constant] += secs;
        self
    }

    /// A bandwidth-bound kernel moved `bytes` in `secs` (a STREAM triad, or
    /// the spreading / influence / interpolation phases).
    pub fn stream(self, bytes: f64, secs: f64) -> Fit {
        self.add(0, bytes, secs)
    }

    /// `meshes` forward and as many inverse `K^3` transforms took
    /// `forward_secs` / `inverse_secs`. The flops are credited at the
    /// *asymptote* — scaled by `fft_flops / p_fft(K)` of the base machine —
    /// so the fitted machine's own `p_fft(K)` gives the measured rate back.
    pub fn transforms(self, k: usize, meshes: f64, forward_secs: f64, inverse_secs: f64) -> Fit {
        let base = self.base;
        let flops = meshes * PerfModel::new(base, k, 0, 0).fft_flops() / 3.0;
        let (lift, ilift) = (base.fft_flops / base.p_fft(k), base.ifft_flops / base.p_ifft(k));
        self.add(1, flops * lift, forward_secs).add(2, flops * ilift, inverse_secs)
    }

    /// The five reciprocal phases of `snap`, recorded while `cols` mobility
    /// columns went through the pipeline on a `K^3` mesh with order-`p`
    /// splines and `n` particles.
    pub fn spans(self, k: usize, p: usize, n: usize, cols: f64, snap: &Snapshot) -> Fit {
        let shape = PerfModel::new(self.base, k, p, n);
        let secs = |ph: Phase| snap.phase(ph).total_secs();
        let bytes = shape.spreading_bytes() + shape.influence_bytes() + shape.interpolation_bytes();
        self.stream(
            cols * bytes,
            secs(Phase::Spreading) + secs(Phase::Influence) + secs(Phase::Interpolation),
        )
        .transforms(k, 3.0 * cols, secs(Phase::ForwardFft), secs(Phase::InverseFft))
    }

    pub fn machine(&self) -> Machine {
        let rate = |i: usize, prior: f64| {
            let (work, secs) = (self.work[i], self.secs[i]);
            if work > 0.0 && secs > 0.0 {
                work / secs
            } else {
                prior
            }
        };
        Machine {
            name: "fitted from measured seconds",
            bandwidth: rate(0, self.base.bandwidth),
            fft_flops: rate(1, self.base.fft_flops),
            ifft_flops: rate(2, self.base.ifft_flops),
            ..self.base
        }
    }
}

/// Expected number of stored 3x3 blocks of the real-space matrix at uniform
/// density: `n · (n / L^3) · (4/3) pi r_max^3` (each of the `n` particles
/// sees the particles inside its cutoff sphere).
pub fn real_space_blocks(n: usize, box_l: f64, r_max: f64) -> f64 {
    let density = n as f64 / box_l.powi(3);
    n as f64 * density * 4.0 / 3.0 * std::f64::consts::PI * r_max.powi(3)
}

/// Performance model for one PME configuration on one machine.
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    pub machine: Machine,
    /// Mesh dimension `K`.
    pub k: usize,
    /// Spline order `p`.
    pub p: usize,
    /// Number of particles.
    pub n: usize,
}

impl PerfModel {
    pub fn new(machine: Machine, k: usize, p: usize, n: usize) -> PerfModel {
        PerfModel { machine, k, p, n }
    }

    fn k3(&self) -> f64 {
        (self.k * self.k * self.k) as f64
    }

    fn p3n(&self) -> f64 {
        (self.p * self.p * self.p * self.n) as f64
    }

    /// Spreading bytes: mesh init `3*8*K^3` + P footprint `12 p^3 n`
    /// + scattered writes `3*8*p^3 n`.
    pub fn spreading_bytes(&self) -> f64 {
        24.0 * self.k3() + 36.0 * self.p3n()
    }

    pub fn t_spreading(&self) -> f64 {
        self.spreading_bytes() / self.machine.bandwidth
    }

    /// Forward FFT flops: three r2c transforms at `2.5 K^3 log2(K^3)` each.
    pub fn fft_flops(&self) -> f64 {
        3.0 * 2.5 * self.k3() * self.k3().log2()
    }

    pub fn t_fft(&self) -> f64 {
        self.fft_flops() / self.machine.p_fft(self.k)
    }

    pub fn t_ifft(&self) -> f64 {
        self.fft_flops() / self.machine.p_ifft(self.k)
    }

    /// Influence bytes: scalar table `8*K^3/2` + read `C` and write `D`
    /// (three complex components over the half spectrum each way).
    pub fn influence_bytes(&self) -> f64 {
        (8.0 + 2.0 * 48.0) * self.k3() / 2.0
    }

    pub fn t_influence(&self) -> f64 {
        self.influence_bytes() / self.machine.bandwidth
    }

    /// Interpolation bytes: P footprint + gathered reads.
    pub fn interpolation_bytes(&self) -> f64 {
        36.0 * self.p3n()
    }

    pub fn t_interpolation(&self) -> f64 {
        self.interpolation_bytes() / self.machine.bandwidth
    }

    /// Total reciprocal-space time (paper Eq. 10).
    pub fn t_recip(&self) -> f64 {
        self.t_spreading()
            + self.t_fft()
            + self.t_influence()
            + self.t_ifft()
            + self.t_interpolation()
    }

    /// Real-space SpMM time for `blocks` stored 3x3 blocks and `s`
    /// right-hand sides, bandwidth-bound: the matrix (72 B block + 4 B column
    /// index) streams **once** regardless of `s` (the paper's ref. \[24\]
    /// benefit); only the in/out vector traffic scales.
    pub fn t_real(&self, blocks: f64, s: usize) -> f64 {
        (76.0 * blocks + 2.0 * (3 * self.n * 8 * s) as f64) / self.machine.bandwidth
    }

    /// Time to assemble the real-space matrix once (per operator window).
    pub fn t_assembly(&self, blocks: f64) -> f64 {
        blocks / self.machine.assembly_rate
    }

    /// Reciprocal-space memory (paper Eq. 11): meshes + P + influence.
    pub fn m_pme_bytes(&self) -> f64 {
        24.0 * self.k3() + 12.0 * self.p3n() + 8.0 * self.k3() / 2.0
    }

    /// Measured against predicted seconds for a recorded run: `cols` columns
    /// went through an operator of this shape with `blocks` stored real-space
    /// blocks, and `snap` holds the spans. `t_real` is affine in the block
    /// width, so a run that mixes widths is priced exactly: the matrix
    /// streams once per apply (one `RealSpace` span each), the vectors once
    /// per column.
    pub fn report(&self, blocks: f64, cols: f64, snap: &Snapshot) -> Report {
        let applies = snap.phase(Phase::RealSpace).count as f64;
        let predicted = [
            cols * self.t_spreading(),
            cols * self.t_fft(),
            cols * self.t_influence(),
            cols * self.t_ifft(),
            cols * self.t_interpolation(),
            applies * self.t_real(blocks, 0) + cols * self.t_real(0.0, 1),
        ];
        let mut rows = [ReportRow { name: "recip_total", measured_s: 0.0, predicted_s: 0.0 }; 7];
        for (i, ph) in MODEL_PHASES.into_iter().enumerate() {
            let measured_s = snap.phase(ph).total_secs();
            rows[i] = ReportRow { name: ph.name(), measured_s, predicted_s: predicted[i] };
            if ph != Phase::RealSpace {
                rows[6].measured_s += measured_s;
                rows[6].predicted_s += predicted[i];
            }
        }
        Report { machine: self.machine, rows }
    }
}

/// One row of a [`Report`]: a phase (or the synthesized `recip_total`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReportRow {
    pub name: &'static str,
    pub measured_s: f64,
    pub predicted_s: f64,
}

/// [`PerfModel::report`]: the six [`MODEL_PHASES`] rows plus `recip_total`,
/// and the machine whose constants priced them.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    pub machine: Machine,
    pub rows: [ReportRow; 7],
}

impl Report {
    /// Human-readable aligned table; `ratio` is measured / predicted.
    pub fn to_text(&self) -> String {
        let m = &self.machine;
        let mut out = format!(
            "machine: bandwidth {:.2} GB/s, fft {:.2} GF/s, ifft {:.2} GF/s (asymptotes; half \
             rate at K^3 = {})\n{:<14} {:>12} {:>12} {:>8}\n",
            m.bandwidth * 1e-9,
            m.fft_flops * 1e-9,
            m.ifft_flops * 1e-9,
            m.fft_sat_k3,
            "phase",
            "measured",
            "predicted",
            "ratio"
        );
        for r in &self.rows {
            let (ms, pred_ms) = (r.measured_s * 1e3, r.predicted_s * 1e3);
            let ratio = r.measured_s / r.predicted_s;
            out += &format!("{:<14} {ms:>10.4}ms {pred_ms:>10.4}ms {ratio:>8.3}\n", r.name);
        }
        out
    }

    /// JSON object `{"model": {...}, "rows": [{...}, ...]}` (the `report`
    /// section of a `hibd-profile-v2` document).
    pub fn to_json(&self) -> String {
        let m = &self.machine;
        let row = |r: &ReportRow| {
            format!(
                "{{\"phase\":\"{}\",\"measured_s\":{:e},\"predicted_s\":{:e}}}",
                r.name, r.measured_s, r.predicted_s
            )
        };
        format!(
            "{{\"model\":{{\"bandwidth_bytes_per_s\":{:e},\"fft_flops_per_s\":{:e},\
             \"ifft_flops_per_s\":{:e},\"fft_sat_k3\":{:e}}},\"rows\":[{}]}}",
            m.bandwidth,
            m.fft_flops,
            m.ifft_flops,
            m.fft_sat_k3,
            self.rows.iter().map(row).collect::<Vec<_>>().join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_10_terms_recompose() {
        // The sum of the bandwidth-bound terms must equal the paper's
        // (72 p^3 n + 76 K^3)/B.
        let m = PerfModel::new(Machine::westmere(), 64, 4, 5000);
        let bw_terms = m.t_spreading() + m.t_influence() + m.t_interpolation();
        let k3 = (64.0f64).powi(3);
        let p3n = 64.0 * 5000.0;
        let want = (72.0 * p3n + 76.0 * k3) / m.machine.bandwidth;
        assert!((bw_terms - want).abs() < 1e-12 * want, "{bw_terms} vs {want}");
    }

    #[test]
    fn equation_11_memory() {
        let m = PerfModel::new(Machine::westmere(), 128, 6, 80000);
        let k3 = (128.0f64).powi(3);
        let p3n = 216.0 * 80000.0;
        let want = 24.0 * k3 + 12.0 * p3n + 4.0 * k3;
        assert!((m.m_pme_bytes() - want).abs() < 1.0);
    }

    #[test]
    fn fft_dominates_at_small_n_bandwidth_at_large_n() {
        // Paper Fig. 5a: FFT dominates for few particles; spreading /
        // interpolation overtake as n grows at fixed K.
        let small = PerfModel::new(Machine::westmere(), 256, 6, 1000);
        assert!(small.t_fft() > small.t_spreading());
        let large = PerfModel::new(Machine::westmere(), 256, 6, 2_000_000);
        assert!(large.t_spreading() > large.t_fft());
    }

    #[test]
    fn knc_slower_on_small_meshes_faster_on_large() {
        // The Figure 6 crossover.
        let small_w = PerfModel::new(Machine::westmere(), 32, 4, 500).t_recip();
        let small_k = PerfModel::new(Machine::knc(), 32, 4, 500).t_recip();
        assert!(small_k > small_w * 0.8, "KNC not much faster on tiny meshes");
        let large_w = PerfModel::new(Machine::westmere(), 256, 6, 200_000).t_recip();
        let large_k = PerfModel::new(Machine::knc(), 256, 6, 200_000).t_recip();
        assert!(large_w / large_k > 1.3, "KNC {large_k} vs Westmere {large_w}");
        assert!(large_w / large_k < 2.5);
    }

    #[test]
    fn real_space_terms_scale_with_the_cutoff_volume() {
        let m = PerfModel::new(Machine::reference(), 32, 6, 1000);
        let (b1, b2) = (real_space_blocks(1000, 27.6, 4.0), real_space_blocks(1000, 27.6, 8.0));
        assert!((b2 / b1 - 8.0).abs() < 1e-12);
        // ~12.8 neighbors per particle at phi = 0.2, r_max = 4a.
        assert!((b1 / 1000.0 - 12.75).abs() < 0.1, "{}", b1 / 1000.0);
        assert!((m.t_assembly(b2) / m.t_assembly(b1) - 8.0).abs() < 1e-12);
        // The matrix streams once per block product; vectors scale with s.
        let want = (76.0 * b1 + 16.0 * 48.0 * 1000.0) / m.machine.bandwidth;
        assert!((m.t_real(b1, 16) - want).abs() < 1e-15);
    }

    /// The seconds `truth` predicts for `cols` columns, one span per
    /// reciprocal phase (large `cols` keep the nanosecond rounding small).
    fn planted(truth: &PerfModel, cols: f64) -> Snapshot {
        let secs = [
            truth.t_spreading(),
            truth.t_fft(),
            truth.t_influence(),
            truth.t_ifft(),
            truth.t_interpolation(),
        ];
        let mut snap = Snapshot::empty();
        for (ph, t) in MODEL_PHASES.into_iter().zip(secs) {
            snap.phases[ph as usize].record((cols * t * 1e9).round() as u64);
        }
        snap
    }

    #[test]
    fn fit_recovers_planted_constants_through_the_saturation_curve() {
        // Pooled over two shapes on either side of the half-rate mesh (48^3):
        // a fit that took the measured rate for the asymptote would land at
        // 0.23x - 0.70x of the truth.
        let sat = 48.0 * 48.0 * 48.0;
        let base = Machine { fft_sat_k3: sat, ..Machine::reference() };
        let truth = Machine { bandwidth: 12.5e9, fft_flops: 40.0e9, ifft_flops: 35.0e9, ..base };
        let mut fit = Fit::new(base);
        for (n, k, p, cols) in [(500, 32, 4, 64.0e6), (2000, 64, 6, 16.0e6)] {
            let shape = PerfModel::new(truth, k, p, n);
            fit = fit.spans(k, p, n, cols, &planted(&shape, cols));
        }
        let got = fit.machine();
        for (got, want) in [
            (got.bandwidth, truth.bandwidth),
            (got.fft_flops, truth.fft_flops),
            (got.ifft_flops, truth.ifft_flops),
        ] {
            assert!((got - want).abs() < 1e-10 * want, "{got:e} vs {want:e}");
        }
        assert_eq!((got.fft_sat_k3, got.assembly_rate), (sat, base.assembly_rate));
    }

    #[test]
    fn report_prices_every_row_with_the_models_own_terms() {
        let model = PerfModel::new(Machine::reference(), 32, 4, 100);
        let blocks = real_space_blocks(100, 12.8, 4.0);
        let mut snap = planted(&model, 10.0);
        // Two real-space applies: one 9-column block and one vector.
        snap.phases[Phase::RealSpace as usize].record(40_000);
        snap.phases[Phase::RealSpace as usize].record(10_000);
        let rep = model.report(blocks, 10.0, &snap);
        let names = MODEL_PHASES.iter().map(|ph| ph.name()).chain(["recip_total"]);
        assert!(rep.rows.iter().map(|r| r.name).eq(names));
        // Planted from the same machine: reciprocal rows read ratio 1.
        for row in &rep.rows[..5] {
            assert!((row.measured_s / row.predicted_s - 1.0).abs() < 1e-3, "{row:?}");
        }
        assert!((rep.rows[6].predicted_s - 10.0 * model.t_recip()).abs() < 1e-15);
        let real = model.t_real(blocks, 9) + model.t_real(blocks, 1);
        assert!((rep.rows[5].predicted_s - real).abs() < 1e-12 * real);
        assert!((rep.rows[5].measured_s - 50e-6).abs() < 1e-15);

        assert!(rep.rows.iter().all(|r| rep.to_text().contains(r.name)));
        let json = hibd_telemetry::json::parse(&rep.to_json()).expect("report JSON parses");
        assert_eq!(json.get("rows").and_then(|r| r.as_array()).unwrap().len(), 7);
        assert!(json.get("model").and_then(|m| m.get("fft_sat_k3")).is_some());
        // An empty snapshot is still a finite, renderable report.
        let empty = model.report(blocks, 0.0, &Snapshot::empty());
        assert!(empty.rows.iter().all(|r| r.measured_s == 0.0 && r.predicted_s == 0.0));
        assert!(hibd_telemetry::json::parse(&empty.to_json()).is_ok());
    }

    #[test]
    fn recip_time_scales_superlinearly_with_mesh() {
        let t64 = PerfModel::new(Machine::westmere(), 64, 4, 5000).t_recip();
        let t128 = PerfModel::new(Machine::westmere(), 128, 4, 5000).t_recip();
        assert!(t128 > 7.0 * t64, "K doubling costs ~8x: {t128} vs {t64}");
    }
}
