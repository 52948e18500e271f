//! Hybrid CPU + coprocessor execution (paper Section IV-E).
//!
//! The paper splits each PME application: the irregular real-space SpMV
//! stays on the CPU while the regular, bandwidth-hungry reciprocal pipeline
//! is offloaded to Xeon Phi coprocessors. Two mechanisms provide load
//! balance:
//!
//! 1. **`alpha` tuning** — the Ewald parameter shifts work between the real
//!    sum (CPU) and the reciprocal sum (accelerator) until the two sides
//!    predict equal time under the Section IV-D performance model;
//! 2. **static partitioning** — for the *block* PME application of
//!    Algorithm 2 line 6, contiguous **column chunks** of the Krylov block
//!    are assigned to devices (CPUs included) proportionally to their
//!    modeled throughput; each device runs its gathered chunk through the
//!    batched reciprocal pipeline ([`PmeOperator::recip_apply_add_multi`]),
//!    so a device with `c` columns pays one batched spread/FFT trip, not
//!    `c` single-RHS trips.
//!
//! **Hardware substitution.** This host has no Xeon Phi; accelerator
//! devices are *modeled* with the Table I machine descriptions (see
//! DESIGN.md). The partitioning/balancing logic is identical to what would
//! drive real offload, the real/reciprocal *overlap* is genuinely executed
//! (see [`crate::compose::apply_overlapped`]), and all timing predictions
//! come from the same performance model the paper's scheduler uses. None of
//! this is production code, which is why it lives with the harnesses.

use hibd_pme::perf::{real_space_blocks, Machine, PerfModel};
use hibd_pme::{PmeOperator, PmeParams};

/// PCIe transfer model for offloading one vector each way (bytes/s and
/// fixed latency per offload region). Canonical Gen2 x16 numbers.
#[derive(Clone, Copy, Debug)]
pub struct Interconnect {
    pub bandwidth: f64,
    pub latency: f64,
}

impl Default for Interconnect {
    fn default() -> Self {
        Interconnect { bandwidth: 6.0e9, latency: 50e-6 }
    }
}

impl Interconnect {
    /// Time to ship a `3n` force vector down and a `3n` velocity vector back.
    pub fn roundtrip(&self, n: usize) -> f64 {
        self.latency + 2.0 * (3 * n * 8) as f64 / self.bandwidth
    }
}

/// A compute device for the static partitioner.
#[derive(Clone, Copy, Debug)]
pub struct Device {
    pub machine: Machine,
    /// Whether offload transfers apply (false for the host CPU).
    pub offload: bool,
}

/// The hybrid execution plan for one PME configuration.
#[derive(Clone, Debug)]
pub struct HybridModel {
    pub params: PmeParams,
    pub n: usize,
    pub cpu: Device,
    pub accels: Vec<Device>,
    pub link: Interconnect,
    /// Expected stored real-space blocks (from `r_max` and density).
    pub real_blocks: f64,
}

impl HybridModel {
    /// Build the model from PME parameters; the real-space block count is
    /// the uniform-density estimate [`real_space_blocks`]. `cpu` is any
    /// [`Machine`] — a Table I description, or this host's fitted from
    /// measured spans (`hibd_pme::perf::Fit`); accelerators stay modeled.
    pub fn new(params: PmeParams, n: usize, cpu: Machine, accels: Vec<Machine>) -> HybridModel {
        HybridModel {
            params,
            n,
            cpu: Device { machine: cpu, offload: false },
            accels: accels.into_iter().map(|m| Device { machine: m, offload: true }).collect(),
            link: Interconnect::default(),
            real_blocks: real_space_blocks(n, params.box_l, params.r_max),
        }
    }

    /// Modeled real-space SpMV time on the CPU ([`PerfModel::t_real`]).
    pub fn t_real(&self) -> f64 {
        self.t_real_block(1)
    }

    /// Modeled multi-RHS real-space SpMM for `s` columns: the matrix
    /// streams **once** regardless of `s`; only the vector traffic scales.
    pub fn t_real_block(&self, s: usize) -> f64 {
        self.model_on(&self.cpu).t_real(self.real_blocks, s)
    }

    fn model_on(&self, dev: &Device) -> PerfModel {
        PerfModel::new(dev.machine, self.params.mesh_dim, self.params.spline_order, self.n)
    }

    /// Modeled reciprocal time on a device: its machine description, plus
    /// the offload round-trip for an accelerator.
    pub fn t_recip_on(&self, dev: &Device) -> f64 {
        let transfer = if dev.offload { self.link.roundtrip(self.n) } else { 0.0 };
        self.model_on(dev).t_recip() + transfer
    }

    /// CPU-only single application: real + reciprocal sequentially.
    pub fn t_apply_cpu_only(&self) -> f64 {
        self.t_real() + self.t_recip_on(&self.cpu)
    }

    /// Hybrid single application (Algorithm 2 line 9): the real sum on the
    /// CPU runs concurrently with the reciprocal sum on the fastest
    /// accelerator. For small systems where the offload round-trip exceeds
    /// the local reciprocal time, the scheduler keeps everything on the CPU
    /// (the paper's "for small configurations ... the advantage is
    /// marginal").
    pub fn t_apply_hybrid(&self) -> f64 {
        let best_accel =
            self.accels.iter().map(|d| self.t_recip_on(d)).fold(f64::INFINITY, f64::min);
        let cpu_only = self.t_apply_cpu_only();
        if best_accel.is_infinite() {
            return cpu_only;
        }
        self.t_real().max(best_accel).min(cpu_only)
    }

    /// Partition `s` block columns over all devices (CPU last) so the
    /// makespan is minimized, CPU's real-space SpMM included in its load.
    /// Returns (columns per device in `[accels..., cpu]` order, makespan).
    pub fn partition_block(&self, s: usize) -> (Vec<usize>, f64) {
        let t_real_block = self.t_real_block(s);
        let mut per_col: Vec<f64> = self.accels.iter().map(|d| self.t_recip_on(d)).collect();
        per_col.push(self.t_recip_on(&self.cpu));
        let base: Vec<f64> = per_col
            .iter()
            .enumerate()
            .map(|(i, _)| if i == per_col.len() - 1 { t_real_block } else { 0.0 })
            .collect();
        // Greedy list scheduling (optimal enough for identical columns).
        let mut load = base.clone();
        let mut cols = vec![0usize; per_col.len()];
        for _ in 0..s {
            let (best, _) = load
                .iter()
                .enumerate()
                .map(|(i, l)| (i, l + per_col[i]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("at least one device");
            load[best] += per_col[best];
            cols[best] += 1;
        }
        let makespan = load.iter().copied().fold(0.0, f64::max);
        (cols, makespan)
    }

    /// CPU-only block application time.
    pub fn t_block_cpu_only(&self, s: usize) -> f64 {
        self.t_real_block(s) + self.t_recip_on(&self.cpu) * s as f64
    }

    /// Modeled whole-BD-step times `(cpu_only, hybrid)` given the Krylov
    /// iteration count per operator refresh: per `lambda` steps the cost is
    /// `iters` block applications (width `lambda`) plus `lambda` single
    /// applications.
    pub fn step_times(&self, lambda: usize, krylov_iters: usize) -> (f64, f64) {
        let cpu_only = (krylov_iters as f64 * self.t_block_cpu_only(lambda)
            + lambda as f64 * self.t_apply_cpu_only())
            / lambda as f64;
        let (_, block_makespan) = self.partition_block(lambda);
        let hybrid = (krylov_iters as f64 * block_makespan + lambda as f64 * self.t_apply_hybrid())
            / lambda as f64;
        (cpu_only, hybrid)
    }
}

/// Search for the `alpha` that balances modeled CPU real-space time against
/// the modeled accelerator reciprocal time (the Section IV-E tuning), by
/// scanning the tuner's own candidate splits.
///
/// Returns the chosen parameters and the resulting `(t_real, t_recip)`.
pub fn balance_alpha(
    n: usize,
    phi: f64,
    a: f64,
    eta: f64,
    target_ep: f64,
    cpu: Machine,
    accel: Machine,
) -> (PmeParams, f64, f64) {
    let mut best: Option<(PmeParams, f64, f64, f64)> = None;
    for cfg in hibd_pme::tuner::candidate_splits(n, phi, a, eta, target_ep) {
        let model = HybridModel::new(cfg.params, n, cpu, vec![accel]);
        let tr = model.t_real();
        let tk = model.t_recip_on(&model.accels[0]);
        let makespan = tr.max(tk);
        if best.as_ref().map(|b| makespan < b.3).unwrap_or(true) {
            best = Some((cfg.params, tr, tk, makespan));
        }
    }
    let (params, tr, tk, _) = best.expect("non-empty candidate set");
    (params, tr, tk)
}

/// Execute one block application `Y = M X` with the static column
/// partitioning of Algorithm 2 line 6: the real-space SpMM runs once over
/// the whole block, then each device's contiguous column chunk goes through
/// the batched reciprocal pipeline. `chunks` holds the per-device column
/// counts from [`HybridModel::partition_block`] (zeros allowed); on this
/// host the chunks execute sequentially, standing in for the per-device
/// offload regions, and each chunk is gathered into the contiguous
/// `[dim][width]` block a device would be shipped.
pub fn apply_block_partitioned(
    op: &mut PmeOperator,
    x: &[f64],
    y: &mut [f64],
    s: usize,
    chunks: &[usize],
) {
    assert_eq!(chunks.iter().sum::<usize>(), s, "chunks must cover all {s} columns");
    op.real_apply_multi(x, y, s);
    let mut col0 = 0;
    for &width in chunks {
        if width == 0 {
            continue;
        }
        crate::compose::recip_on_gathered_cols(x, y, s, col0, width, |xc, yc| {
            op.recip_apply_add_multi(xc, yc, width);
        });
        col0 += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize) -> HybridModel {
        let params = hibd_pme::tune(n, 0.2, 1.0, 1.0, 1e-3).params;
        HybridModel::new(params, n, Machine::westmere(), vec![Machine::knc(), Machine::knc()])
    }

    #[test]
    fn hybrid_single_apply_never_slower_than_cpu_only() {
        for n in [1000usize, 10_000, 100_000] {
            let m = model(n);
            assert!(m.t_apply_hybrid() <= m.t_apply_cpu_only() + 1e-12, "n={n}");
        }
    }

    #[test]
    fn speedup_grows_with_system_size() {
        // Figure 9 shape: marginal gains for small systems, > 2x for large.
        let small = model(1000);
        let (c_s, h_s) = small.step_times(16, 20);
        let large = model(200_000);
        let (c_l, h_l) = large.step_times(16, 20);
        let speedup_small = c_s / h_s;
        let speedup_large = c_l / h_l;
        assert!(speedup_large > speedup_small, "{speedup_small} vs {speedup_large}");
        assert!(speedup_large > 2.0, "large-system speedup {speedup_large}");
        assert!(speedup_small >= 1.0);
    }

    #[test]
    fn partition_assigns_all_columns() {
        let m = model(50_000);
        let s = 16;
        let (cols, makespan) = m.partition_block(s);
        assert_eq!(cols.iter().sum::<usize>(), s);
        assert_eq!(cols.len(), 3); // 2 accels + cpu
        assert!(makespan > 0.0);
        // Accelerators (faster for large meshes) get at least as many
        // columns as the CPU, which also carries the real-space SpMM.
        assert!(cols[0] + cols[1] >= cols[2]);
    }

    #[test]
    fn partition_makespan_beats_cpu_only() {
        let m = model(100_000);
        let (_, makespan) = m.partition_block(16);
        assert!(makespan < m.t_block_cpu_only(16));
    }

    #[test]
    fn no_accelerators_degrades_gracefully() {
        let params = hibd_pme::tune(5000, 0.2, 1.0, 1.0, 1e-3).params;
        let m = HybridModel::new(params, 5000, Machine::westmere(), vec![]);
        assert_eq!(m.t_apply_hybrid(), m.t_apply_cpu_only());
        let (cols, _) = m.partition_block(8);
        assert_eq!(cols, vec![8]);
    }

    #[test]
    fn balance_alpha_produces_balanced_sides() {
        let (params, tr, tk) =
            balance_alpha(20_000, 0.2, 1.0, 1.0, 1e-3, Machine::westmere(), Machine::knc());
        assert!(params.r_max <= params.box_l / 2.0);
        // Balanced within a factor ~3 (discrete r_max grid).
        let ratio = tr.max(tk) / tr.min(tk).max(1e-12);
        assert!(ratio < 3.0, "t_real {tr:e} vs t_recip {tk:e}");
    }

    #[test]
    fn partitioned_block_apply_matches_apply_multi() {
        use hibd_linalg::LinearOperator;
        use hibd_mathx::Vec3;

        let n = 10;
        let s = 6;
        let params = PmeParams::default();
        // Deterministic scattered positions and forces.
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(next() * params.box_l, next() * params.box_l, next() * params.box_l))
            .collect();
        let x: Vec<f64> = (0..3 * n * s).map(|_| next() - 0.5).collect();
        let mut op = PmeOperator::new(&pos, params).unwrap();
        let mut y_ref = vec![0.0; 3 * n * s];
        op.apply_multi(&x, &mut y_ref, s);
        // A partition like partition_block would emit: uneven chunks + a
        // zero-column device.
        let mut y_part = vec![0.0; 3 * n * s];
        apply_block_partitioned(&mut op, &x, &mut y_part, s, &[3, 0, 2, 1]);
        for i in 0..3 * n * s {
            assert!((y_ref[i] - y_part[i]).abs() < 1e-13, "i={i}: {} vs {}", y_ref[i], y_part[i]);
        }
    }

    #[test]
    fn a_faster_cpu_machine_steers_the_partition() {
        let m = model(50_000);
        let s = 16;
        let (base_cols, _) = m.partition_block(s);
        // A host far faster than its Table I description (as a fit from
        // measured spans would report it) pulls columns off the
        // accelerators and onto the CPU.
        let fast = Machine { bandwidth: 1e13, fft_flops: 1e14, ifft_flops: 1e14, ..m.cpu.machine };
        let cal = HybridModel::new(m.params, m.n, fast, vec![Machine::knc(), Machine::knc()]);
        assert!(cal.t_recip_on(&cal.cpu) < m.t_recip_on(&m.cpu));
        let (cal_cols, _) = cal.partition_block(s);
        assert_eq!(cal_cols.iter().sum::<usize>(), s);
        assert!(cal_cols[2] > base_cols[2], "{base_cols:?} vs {cal_cols:?}");
        // Accelerator predictions do not depend on the CPU's machine.
        assert_eq!(cal.t_recip_on(&cal.accels[0]), m.t_recip_on(&m.accels[0]));
    }

    #[test]
    fn interconnect_roundtrip_scales_with_n() {
        let link = Interconnect::default();
        let t1 = link.roundtrip(1000);
        let t2 = link.roundtrip(100_000);
        assert!(t2 > t1);
        assert!(t1 > link.latency);
    }
}
