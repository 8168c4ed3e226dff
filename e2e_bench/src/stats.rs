//! Sample summaries: median, the reportable tail percentile, ratio of medians.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample, so a missing timing can never read as 0.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`. A tail read from fewer than ten samples is one
/// outlier's opinion, so below twenty samples (where that percentile would
/// fall under the median) there is no tail to report.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Ratio of two medians; `None` when either side is missing or the base is
/// not positive.
pub fn ratio_of_medians(num: &[f64], den: &[f64]) -> Option<f64> {
    let (n, d) = (median(num)?, median(den)?);
    (d > 0.0).then(|| n / d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            None,
            "19 samples: that percentile is below the median"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(p, 90.0);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn ratio_is_of_medians_not_mean_of_ratios() {
        // medians 2 and 4; the mean of pairwise ratios would be different.
        let num = [1.0, 2.0, 300.0];
        let den = [4.0, 100.0, 1.0];
        assert_eq!(ratio_of_medians(&num, &den), Some(0.5));
        assert_eq!(ratio_of_medians(&num, &[]), None);
        assert_eq!(ratio_of_medians(&num, &[0.0]), None);
    }
}
