//! Correctness checks on what the program wrote, and the accuracy gates that
//! keep a later change from getting faster by loosening `e_p`.

use hibd_linalg::LinearOperator;
use hibd_mathx::Vec3;
use hibd_pme::{PmeOperator, PmeParams};
use hibd_rpy::{dense_ewald_mobility, RpyEwald};
use hibd_treecode::{measured_rel_error, TreeParams};

/// FNV-1a over the trajectory bytes: repetitions of a workload must agree.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Positions of the last frame of an XYZ trajectory after checking that it
/// holds exactly `frames` frames of `n` particles with finite coordinates,
/// inside `[0, box_l]` when a box is given.
pub fn check_trajectory(
    text: &str,
    n: usize,
    frames: usize,
    box_l: Option<f64>,
) -> Result<Vec<Vec3>, String> {
    let mut lines = text.lines();
    let mut last = Vec::new();
    let mut seen = 0;
    while let Some(count) = lines.next() {
        if count.trim().parse::<usize>() != Ok(n) {
            return Err(format!("frame {seen}: particle count line `{count}` is not {n}"));
        }
        lines.next().ok_or_else(|| format!("frame {seen}: comment line missing"))?;
        last.clear();
        for i in 0..n {
            let line =
                lines.next().ok_or_else(|| format!("frame {seen}: only {i} of {n} particles"))?;
            let mut it = line.split_whitespace().skip(1).map(str::parse::<f64>);
            let (Some(Ok(x)), Some(Ok(y)), Some(Ok(z))) = (it.next(), it.next(), it.next()) else {
                return Err(format!("frame {seen}, particle {i}: cannot parse `{line}`"));
            };
            for c in [x, y, z] {
                if !c.is_finite() {
                    return Err(format!("frame {seen}, particle {i}: non-finite coordinate"));
                }
                // Eight printed decimals can round a wrapped coordinate up to
                // the box edge itself.
                if box_l.is_some_and(|l| !(-1e-6..=l + 1e-6).contains(&c)) {
                    return Err(format!(
                        "frame {seen}, particle {i}: coordinate {c} outside the box"
                    ));
                }
            }
            last.push(Vec3::new(x, y, z));
        }
        seen += 1;
    }
    if seen != frames {
        return Err(format!("{seen} frames, expected {frames}"));
    }
    Ok(last)
}

/// Deterministic probe vector in `[-1, 1)` (SplitMix64 stream `index`).
pub fn probe_vector(len: usize, index: u64) -> Vec<f64> {
    let mut state = 0x243f_6a88_85a3_08d3u64 ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

pub const ACCURACY_PROBES: u64 = 3;

/// `pme.rel_err_vs_dense`: worst `|u_pme - u_dense| / |u_dense|` over three
/// probe vectors, the dense Ewald sum taken at a cost-balanced `xi` (never
/// the PME's own `alpha`; the total is xi-independent).
pub fn pme_rel_err_vs_dense(positions: &[Vec3], params: PmeParams) -> Result<f64, String> {
    let n = positions.len();
    let xi = std::f64::consts::PI.sqrt() * (n as f64).powf(1.0 / 6.0) / params.box_l;
    let ewald = RpyEwald::new(params.a, params.eta, params.box_l, xi, 1e-8);
    let dense = dense_ewald_mobility(positions, &ewald);
    let mut op = PmeOperator::new(positions, params).map_err(|e| e.to_string())?;
    let mut worst = 0.0f64;
    let (mut u, mut r) = (vec![0.0; 3 * n], vec![0.0; 3 * n]);
    for k in 0..ACCURACY_PROBES {
        let f = probe_vector(3 * n, k);
        op.apply(&f, &mut u);
        dense.mul_vec(&f, &mut r);
        let err2: f64 = u.iter().zip(&r).map(|(a, b)| (a - b) * (a - b)).sum();
        let ref2: f64 = r.iter().map(|b| b * b).sum();
        worst = worst.max((err2 / ref2.max(f64::MIN_POSITIVE)).sqrt());
    }
    Ok(worst)
}

/// Largest dense reference the tree gate builds.
pub const TREE_SUBSAMPLE: usize = 250;

/// `treecode.rel_err_vs_dense`: `measured_rel_error` against the dense
/// free-space matrix on an evenly strided subsample of at most 250.
pub fn tree_rel_err_vs_dense(positions: &[Vec3], params: TreeParams) -> f64 {
    let stride = positions.len().div_ceil(TREE_SUBSAMPLE).max(1);
    let sample: Vec<Vec3> = positions.iter().copied().step_by(stride).collect();
    measured_rel_error(&sample, params, ACCURACY_PROBES as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_checker_accepts_good_frames_and_names_bad_ones() {
        let frame = |x: &str| {
            format!(
                "2\nLattice=\"4 0 0 0 4 0 0 0 4\" frame=0 step=1\nC 1.0 2.0 3.0\nC {x} 0.5 0.5\n"
            )
        };
        let good = frame("3.5") + &frame("4.00000000");
        let last = check_trajectory(&good, 2, 2, Some(4.0)).unwrap();
        assert_eq!((last.len(), last[1].x), (2, 4.0));
        assert!(check_trajectory(&good, 2, 3, Some(4.0))
            .unwrap_err()
            .contains("2 frames, expected 3"));
        assert!(check_trajectory(&good, 3, 2, None).unwrap_err().contains("count line"));
        assert!(check_trajectory(&frame("4.5"), 2, 1, Some(4.0))
            .unwrap_err()
            .contains("outside the box"));
        assert!(check_trajectory(&frame("4.5"), 2, 1, None).is_ok());
        assert!(check_trajectory(&frame("NaN"), 2, 1, None).unwrap_err().contains("non-finite"));
        assert!(check_trajectory(&frame("abc"), 2, 1, None).unwrap_err().contains("cannot parse"));
        assert!(check_trajectory("2\ncomment\nC 1 2 3\n", 2, 1, None)
            .unwrap_err()
            .contains("only 1 of 2"));
        assert!(check_trajectory("", 2, 0, None).unwrap().is_empty());
    }

    #[test]
    fn hashes_and_probe_vectors_are_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let a = probe_vector(64, 0);
        assert_eq!(a, probe_vector(64, 0));
        assert_ne!(a, probe_vector(64, 1));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
