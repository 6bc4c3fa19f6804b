//! Order statistics over timing samples.

/// Median of `values` (the mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the percentile actually used, its value and
/// the sample count it was taken from.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Percentile {
    /// The nearest-rank percentile reported, in percent.
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The nearest-rank `want`-th percentile of `values`, lowered to the
/// highest rank that still has [`MIN_BEYOND`] samples above it. `None` when
/// there are too few samples for any rank to qualify.
pub fn percentile(values: &[f64], want: f64) -> Option<Percentile> {
    let n = values.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted_rank = ((want / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = wanted_rank.min(n - MIN_BEYOND);
    Some(Percentile {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_when_the_tail_is_deep_enough() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.pct, 99.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(percentile(&values, 50.0).unwrap().value, 500.0);
    }

    #[test]
    fn percentile_backs_off_to_keep_ten_samples_beyond() {
        // 500 samples: p99 has only 5 beyond it, so p98 (10 beyond) is used.
        let values: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let tail = percentile(&values, 99.0).unwrap();
        assert_eq!(tail.value, 490.0);
        assert_eq!(tail.pct, 98.0);
        let beyond = values.iter().filter(|&&v| v > tail.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn percentile_needs_more_than_ten_samples() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), None);
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        let only = percentile(&values, 90.0).unwrap();
        assert_eq!(only.value, 1.0);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
