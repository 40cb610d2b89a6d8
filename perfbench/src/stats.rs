//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p·n/100)`, so
//! `n - rank` samples lie beyond it. A percentile is only worth reporting
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Number of samples beyond the `p`-th percentile of `n` samples.
pub fn beyond(p: u32, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The nearest-rank `p`-th percentile of `samples` (any order); 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// The highest whole percentile with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99).rev().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Whether the `p`-th percentile of `n` samples meets the sample rule.
pub fn meets_rule(p: u32, n: usize) -> bool {
    beyond(p, n) >= MIN_BEYOND
}

/// `"p{p}"`, flagged when fewer than [`MIN_BEYOND`] of `n` samples lie
/// beyond it.
pub fn percentile_note(p: u32, n: usize) -> String {
    if meets_rule(p, n) {
        format!("p{p}")
    } else {
        format!("p{p}, fewer than {MIN_BEYOND} samples beyond it")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(104), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in [11, 20, 57, 100, 104, 999] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND);
            assert!(p == 99 || beyond(p + 1, n) < MIN_BEYOND);
        }
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!meets_rule(90, 99));
        assert!(meets_rule(90, 100));
        assert!(meets_rule(50, 20));
        assert!(!meets_rule(50, 19));
    }
}
