//! Estimator aggregation and error metrics.
//!
//! The paper turns a single unbiased-but-noisy estimator into an
//! (ε, δ)-approximation in two ways:
//!
//! * **Averaging** (Theorem 3.3): keep `r` independent estimators and report
//!   their mean.
//! * **Median-of-means** (Theorem 3.4): group the estimators, average within
//!   each group, and report the median of the group means. This is the
//!   aggregation whose sufficient `r` is governed by the tangle coefficient.
//!
//! The experiment harness additionally needs the error metric reported in
//! §4: the relative error of an estimate against the exact count.

/// Arithmetic mean of a slice. Returns 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of a slice (average of the two middle elements for even lengths).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    // IEEE total order instead of `partial_cmp(...).expect(...)`: NaNs (which
    // estimator aggregation never produces) sort to the ends rather than
    // aborting the process — the library stays panic-free either way.
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median-of-means aggregation (Theorem 3.4): split `values` into `groups`
/// contiguous groups of (nearly) equal size, average each group, and return
/// the median of the group means.
///
/// If `groups` is 0 or 1, or there are fewer values than groups, this
/// degenerates to the plain mean / median of what is available.
pub fn median_of_means(values: &[f64], groups: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    if groups <= 1 || values.len() <= groups {
        return if groups <= 1 {
            mean(values)
        } else {
            median(values)
        };
    }
    let group_size = values.len() / groups;
    let means: Vec<f64> = values.chunks(group_size).take(groups).map(mean).collect();
    median(&means)
}

/// Relative error `|estimate - truth| / truth`. Returns the absolute estimate
/// if the truth is zero (so that a correct zero estimate gives zero error).
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        estimate.abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_means_degenerate_cases() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median_of_means(&v, 0), mean(&v));
        assert_eq!(median_of_means(&v, 1), mean(&v));
        assert_eq!(median_of_means(&[], 4), 0.0);
    }

    #[test]
    fn median_of_means_is_robust_to_outliers() {
        // 29 values near 10 plus one huge outlier: the mean is dragged far
        // away but the median of 6 group means stays close to 10.
        let mut v = vec![10.0; 29];
        v.push(10_000.0);
        let plain = mean(&v);
        let mom = median_of_means(&v, 6);
        assert!(plain > 300.0);
        assert!((mom - 10.0).abs() < 1.0 || mom < plain / 10.0, "mom={mom}");
    }

    #[test]
    fn median_of_means_equals_mean_for_constant_data() {
        let v = vec![7.0; 64];
        assert_eq!(median_of_means(&v, 8), 7.0);
    }

    #[test]
    fn relative_error_handles_zero_truth() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(3.0, 0.0), 3.0);
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
    }
}
