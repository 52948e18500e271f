//! Order statistics for timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller times at least one run.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile by the exclusive method, exactly as Python's
/// `statistics.quantiles(samples, n=4)` (which the driver uses for spreads);
/// `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let len = samples.len();
    if len < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest whole percentile that still has at least [`MIN_BEYOND`]
/// samples strictly beyond its nearest-rank position, or `None` when even
/// the median has fewer (under `2 * MIN_BEYOND` samples).
pub fn highest_percentile(n: usize) -> Option<u32> {
    // Nearest rank of p is ceil(p n / 100); samples beyond it: n - rank.
    (50..100u32).rev().find(|&p| n >= MIN_BEYOND + (p as usize * n).div_ceil(100))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 80.0), 48.0);
        assert_eq!(percentile(&v, 100.0), 60.0);
        assert_eq!(percentile(&[7.0], 80.0), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([5.0, 1.0, 3.0], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([2.0, 4.0], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // 60 steady steps: rank(p80) = 48, 12 beyond; rank(p84) = 51, 9 beyond.
        assert_eq!(highest_percentile(60), Some(83));
        assert!(highest_percentile(60).unwrap() >= 80);
        // 30 samples: rank(p66) = 20 leaves exactly 10.
        assert_eq!(highest_percentile(30), Some(66));
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(1000), Some(99));
    }
}
