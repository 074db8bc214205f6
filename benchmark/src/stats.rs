//! Order statistics for the reported timings.

/// Nearest-rank percentile: the `⌈p·N/100⌉`-th smallest sample. The
/// p99 of 1000 samples is therefore the 990th value, with 10 samples
/// beyond it; below 100 samples the p99 is the maximum.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Multiply before dividing so integral ranks stay exact (99·1000/100).
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even-sized set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_1000_is_the_990th_value() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn p99_of_a_small_sample_is_its_maximum() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 99.0), 3.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
