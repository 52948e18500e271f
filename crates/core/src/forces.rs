//! Deterministic forces `f(r)` for the BD propagation (paper Eq. 1).
//!
//! The evaluation model of Section V-A uses only the repulsive harmonic
//! contact force; the example applications additionally use constant body
//! forces (sedimentation) and harmonic bonds (bead-spring polymers).

use crate::system::{Boundary, ParticleSystem};
use hibd_cells::{CellList, VerletList};
use hibd_mathx::Vec3;

/// A deterministic force field: adds its contribution into a flat `3n`
/// force vector. Takes `&mut self` so implementations can cache state
/// across calls (the contact force keeps a skinned Verlet list).
pub trait Force: Send {
    /// Accumulate forces for the current configuration into `f` (`+=`).
    fn accumulate(&mut self, system: &ParticleSystem, f: &mut [f64]);

    /// Display name for logs.
    fn name(&self) -> &'static str {
        "force"
    }
}

/// The paper's contact repulsion (Section V-A):
/// `f_ij = k (2a - r) r̂` on particle `i`, pushing overlapping pairs apart,
/// zero beyond contact (`r > 2a`). The paper's constant is `k = 125`.
///
/// Neighbor search goes through a skinned [`VerletList`] (ref. \[27\]) that is
/// reused across BD steps while no particle has moved more than half the
/// skin.
#[derive(Clone, Debug)]
pub struct RepulsiveHarmonic {
    /// Spring constant (paper: 125).
    pub k: f64,
    /// Verlet skin radius (in units of `a`), default 0.3.
    pub skin: f64,
    list: Option<VerletList>,
}

impl RepulsiveHarmonic {
    pub fn new(k: f64) -> RepulsiveHarmonic {
        RepulsiveHarmonic { k, skin: 0.3, list: None }
    }
}

impl Default for RepulsiveHarmonic {
    fn default() -> Self {
        RepulsiveHarmonic::new(125.0)
    }
}

impl Force for RepulsiveHarmonic {
    fn accumulate(&mut self, system: &ParticleSystem, f: &mut [f64]) {
        let contact = 2.0 * system.a;
        let list = self.list.get_or_insert_with(|| match system.boundary() {
            Boundary::Periodic => {
                VerletList::new(system.positions(), system.box_l, contact, self.skin * system.a)
            }
            Boundary::Open => {
                VerletList::new_open(system.positions(), contact, self.skin * system.a)
            }
        });
        let k = self.k;
        list.for_each_pair(system.positions(), |i, j, dr, r2| {
            let r = r2.sqrt();
            if r >= contact {
                return;
            }
            // dr = r_i - r_j; push i along +dr, j along -dr.
            let mag = k * (contact - r) / r;
            let fx = mag * dr.x;
            let fy = mag * dr.y;
            let fz = mag * dr.z;
            f[3 * i] += fx;
            f[3 * i + 1] += fy;
            f[3 * i + 2] += fz;
            f[3 * j] -= fx;
            f[3 * j + 1] -= fy;
            f[3 * j + 2] -= fz;
        });
    }

    fn name(&self) -> &'static str {
        "repulsive-harmonic"
    }
}

/// A constant body force per particle (e.g. gravity for sedimentation).
#[derive(Clone, Copy, Debug)]
pub struct ConstantForce(pub Vec3);

impl Force for ConstantForce {
    fn accumulate(&mut self, _system: &ParticleSystem, f: &mut [f64]) {
        for chunk in f.chunks_exact_mut(3) {
            chunk[0] += self.0.x;
            chunk[1] += self.0.y;
            chunk[2] += self.0.z;
        }
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

/// Harmonic springs between explicit particle pairs (bead-spring chains):
/// `U = (k/2)(r - r0)^2` per bond, with boundary-appropriate displacements
/// (minimum image in a periodic box, raw in open solvent).
#[derive(Clone, Debug)]
pub struct HarmonicBond {
    pub pairs: Vec<(u32, u32)>,
    pub k: f64,
    pub r0: f64,
}

impl HarmonicBond {
    /// Bonds forming a linear chain over particles `first..first+len`.
    pub fn chain(first: u32, len: u32, k: f64, r0: f64) -> HarmonicBond {
        let pairs = (0..len.saturating_sub(1)).map(|i| (first + i, first + i + 1)).collect();
        HarmonicBond { pairs, k, r0 }
    }
}

impl Force for HarmonicBond {
    fn accumulate(&mut self, system: &ParticleSystem, f: &mut [f64]) {
        for &(i, j) in &self.pairs {
            let (i, j) = (i as usize, j as usize);
            let dr = system.pair_dr(i, j);
            let r = dr.norm();
            if r < 1e-12 {
                continue;
            }
            // Force on i: -k (r - r0) r̂  (restoring).
            let mag = -self.k * (r - self.r0) / r;
            let fv = dr * mag;
            f[3 * i] += fv.x;
            f[3 * i + 1] += fv.y;
            f[3 * i + 2] += fv.z;
            f[3 * j] -= fv.x;
            f[3 * j + 1] -= fv.y;
            f[3 * j + 2] -= fv.z;
        }
    }

    fn name(&self) -> &'static str {
        "harmonic-bond"
    }
}

/// Truncated-and-shifted Lennard-Jones force (WCA when `cutoff = 2^{1/6}
/// sigma`): the generic short-range interaction of colloid/macromolecule
/// models beyond the paper's minimal contact repulsion.
#[derive(Clone, Copy, Debug)]
pub struct LennardJones {
    /// Well depth.
    pub epsilon: f64,
    /// Zero-crossing distance of the potential.
    pub sigma: f64,
    /// Interaction cutoff (force is truncated, not smoothed, beyond it).
    pub cutoff: f64,
}

impl LennardJones {
    /// Purely repulsive WCA parameterization: cutoff at the potential
    /// minimum `2^{1/6} sigma`.
    pub fn wca(epsilon: f64, sigma: f64) -> LennardJones {
        LennardJones { epsilon, sigma, cutoff: sigma * 2.0f64.powf(1.0 / 6.0) }
    }
}

impl Force for LennardJones {
    fn accumulate(&mut self, system: &ParticleSystem, f: &mut [f64]) {
        let cl = match system.boundary() {
            Boundary::Periodic => CellList::new(system.positions(), system.box_l, self.cutoff),
            Boundary::Open => CellList::new_open(system.positions(), self.cutoff),
        };
        let s2 = self.sigma * self.sigma;
        cl.for_each_pair(|i, j, dr, r2| {
            if r2 > self.cutoff * self.cutoff {
                return;
            }
            // F(r) = 24 eps (2 (sigma/r)^12 - (sigma/r)^6) / r along r̂,
            // i.e. coefficient 24 eps (2 x^12 - x^6) / r^2 on dr.
            let x2 = s2 / r2;
            let x6 = x2 * x2 * x2;
            let x12 = x6 * x6;
            let coeff = 24.0 * self.epsilon * (2.0 * x12 - x6) / r2;
            f[3 * i] += coeff * dr.x;
            f[3 * i + 1] += coeff * dr.y;
            f[3 * i + 2] += coeff * dr.z;
            f[3 * j] -= coeff * dr.x;
            f[3 * j + 1] -= coeff * dr.y;
            f[3 * j + 2] -= coeff * dr.z;
        });
    }

    fn name(&self) -> &'static str {
        "lennard-jones"
    }
}

/// Evaluate a set of forces into a fresh force vector.
pub fn total_force(forces: &mut [Box<dyn Force>], system: &ParticleSystem) -> Vec<f64> {
    let mut f = vec![0.0; 3 * system.len()];
    for force in forces.iter_mut() {
        force.accumulate(system, &mut f);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_particle_system(r: f64) -> ParticleSystem {
        ParticleSystem::new(
            vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(5.0 + r, 5.0, 5.0)],
            20.0,
            1.0,
            1.0,
        )
    }

    #[test]
    fn repulsion_pushes_overlapping_pair_apart() {
        let sys = two_particle_system(1.5); // r < 2a
        let mut f = vec![0.0; 6];
        RepulsiveHarmonic::default().accumulate(&sys, &mut f);
        // Particle 0 sits at lower x: force must be -x; particle 1 +x.
        assert!(f[0] < 0.0);
        assert!(f[3] > 0.0);
        assert_eq!(f[0], -f[3]);
        // Magnitude: 125 * (2 - 1.5) = 62.5.
        assert!((f[3] - 62.5).abs() < 1e-12);
        // No transverse components.
        for idx in [1, 2, 4, 5] {
            assert_eq!(f[idx], 0.0);
        }
    }

    #[test]
    fn repulsion_vanishes_beyond_contact() {
        let sys = two_particle_system(2.5);
        let mut f = vec![0.0; 6];
        RepulsiveHarmonic::default().accumulate(&sys, &mut f);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn repulsion_conserves_momentum() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let sys = ParticleSystem::random_suspension(100, 0.35, &mut rng);
        let mut f = vec![0.0; 300];
        RepulsiveHarmonic::default().accumulate(&sys, &mut f);
        for theta in 0..3 {
            let total: f64 = (0..100).map(|i| f[3 * i + theta]).sum();
            assert!(total.abs() < 1e-10, "component {theta}: {total}");
        }
    }

    #[test]
    fn constant_force_applies_everywhere() {
        let sys = two_particle_system(3.0);
        let mut f = vec![0.0; 6];
        let mut g = ConstantForce(Vec3::new(0.0, 0.0, -9.8));
        g.accumulate(&sys, &mut f);
        assert_eq!(f, vec![0.0, 0.0, -9.8, 0.0, 0.0, -9.8]);
    }

    #[test]
    fn bond_restores_to_rest_length() {
        let sys = two_particle_system(3.0);
        let mut bond = HarmonicBond { pairs: vec![(0, 1)], k: 10.0, r0: 2.0 };
        let mut f = vec![0.0; 6];
        bond.accumulate(&sys, &mut f);
        // Stretched past r0: attraction. Particle 0 pulled +x.
        assert!((f[0] - 10.0).abs() < 1e-12);
        assert!((f[3] + 10.0).abs() < 1e-12);

        let sys2 = two_particle_system(1.0);
        let mut f2 = vec![0.0; 6];
        bond.accumulate(&sys2, &mut f2);
        // Compressed: repulsion. Particle 0 pushed -x.
        assert!((f2[0] + 10.0).abs() < 1e-12);
    }

    #[test]
    fn chain_builder_links_consecutive_beads() {
        let b = HarmonicBond::chain(3, 4, 1.0, 2.0);
        assert_eq!(b.pairs, vec![(3, 4), (4, 5), (5, 6)]);
        let empty = HarmonicBond::chain(0, 1, 1.0, 2.0);
        assert!(empty.pairs.is_empty());
    }

    #[test]
    fn bond_respects_periodicity() {
        // Pair straddling the seam: min-image distance 2, at rest.
        let sys = ParticleSystem::new(
            vec![Vec3::new(0.5, 5.0, 5.0), Vec3::new(18.5, 5.0, 5.0)],
            20.0,
            1.0,
            1.0,
        );
        let mut bond = HarmonicBond { pairs: vec![(0, 1)], k: 10.0, r0: 2.0 };
        let mut f = vec![0.0; 6];
        bond.accumulate(&sys, &mut f);
        assert!(f.iter().all(|&v| v.abs() < 1e-12), "{f:?}");
    }

    #[test]
    fn open_forces_do_not_wrap() {
        // Same geometry as `bond_respects_periodicity` but open: the raw
        // separation is 18, so a k=10 r0=2 bond pulls hard.
        let sys = ParticleSystem::new_open(
            vec![Vec3::new(0.5, 5.0, 5.0), Vec3::new(18.5, 5.0, 5.0)],
            1.0,
            1.0,
        );
        let mut bond = HarmonicBond { pairs: vec![(0, 1)], k: 10.0, r0: 2.0 };
        let mut f = vec![0.0; 6];
        bond.accumulate(&sys, &mut f);
        assert!((f[0] - 160.0).abs() < 1e-9, "{f:?}");
        // And the contact repulsion sees no phantom wrapped pair.
        let mut f2 = vec![0.0; 6];
        RepulsiveHarmonic::default().accumulate(&sys, &mut f2);
        assert!(f2.iter().all(|&v| v == 0.0), "{f2:?}");
    }

    #[test]
    fn open_repulsion_matches_periodic_in_the_bulk() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(6);
        let per = ParticleSystem::random_suspension(100, 0.35, &mut rng);
        // An interior cloud far from every face: boundary must not matter.
        let open = ParticleSystem::new_open(per.positions().to_vec(), 1.0, 1.0);
        let mut fp = vec![0.0; 300];
        let mut fo = vec![0.0; 300];
        RepulsiveHarmonic::default().accumulate(&per, &mut fp);
        RepulsiveHarmonic::default().accumulate(&open, &mut fo);
        // Forces differ only on seam pairs; interior contributions agree.
        // Compare pair sets instead: every open pair must appear in the
        // periodic evaluation with identical dr.
        let mut vl_open = VerletList::new_open(open.positions(), 2.0, 0.0);
        vl_open.for_each_pair(open.positions(), |i, j, dr, _| {
            let want = per.pair_dr(i, j);
            assert!((dr - want).norm() < 1e-12, "interior pair ({i},{j}) must agree");
        });
    }

    #[test]
    fn lj_force_zero_at_minimum_and_repulsive_inside() {
        let sigma: f64 = 2.0;
        let eps = 1.5;
        let rmin = sigma * 2.0f64.powf(1.0 / 6.0);
        let mut lj = LennardJones::wca(eps, sigma);
        // At the WCA cutoff (the potential minimum) the force vanishes.
        let sys = two_particle_system(rmin);
        let mut f = vec![0.0; 6];
        lj.accumulate(&sys, &mut f);
        assert!(f[0].abs() < 1e-10, "force at minimum: {}", f[0]);
        // Inside the minimum: repulsion (particle 0 pushed -x).
        let sys2 = two_particle_system(0.9 * rmin);
        let mut f2 = vec![0.0; 6];
        lj.accumulate(&sys2, &mut f2);
        assert!(f2[0] < 0.0);
        assert_eq!(f2[0], -f2[3]);
        // Beyond the cutoff: nothing.
        let sys3 = two_particle_system(1.2 * rmin);
        let mut f3 = vec![0.0; 6];
        lj.accumulate(&sys3, &mut f3);
        assert!(f3.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lj_attractive_branch_with_extended_cutoff() {
        let sigma: f64 = 2.0;
        let mut lj = LennardJones { epsilon: 1.0, sigma, cutoff: 3.0 * sigma };
        let rmin = sigma * 2.0f64.powf(1.0 / 6.0);
        let sys = two_particle_system(1.3 * rmin);
        let mut f = vec![0.0; 6];
        lj.accumulate(&sys, &mut f);
        // Past the minimum the pair attracts: particle 0 pulled +x.
        assert!(f[0] > 0.0, "{}", f[0]);
    }

    #[test]
    fn total_force_combines_contributions() {
        let sys = two_particle_system(1.5);
        let mut forces: Vec<Box<dyn Force>> = vec![
            Box::new(RepulsiveHarmonic::default()),
            Box::new(ConstantForce(Vec3::new(1.0, 0.0, 0.0))),
        ];
        let f = total_force(&mut forces, &sys);
        assert!((f[0] - (1.0 - 62.5)).abs() < 1e-12);
        assert!((f[3] - (1.0 + 62.5)).abs() < 1e-12);
    }
}
