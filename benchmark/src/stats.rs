//! Order statistics for timing samples.
//!
//! A percentile is reported by nearest rank, and only counts as supported
//! when at least [`MIN_BEYOND`] samples lie beyond it: a p90 over 60 samples
//! is decided by six values and does not repeat.

/// Samples that must lie beyond a percentile above the median for it to be
/// reported as supported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n >= 1` samples. The
/// product is nudged down before rounding up so that binary fractions such
/// as 99.9 % of 10,000 land on 9,990, not 9,991.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0 * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `p` percent of the samples are less than or equal to it.
/// Returns `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Whether `n` samples support percentile `p`: the median always does, a
/// higher percentile needs [`MIN_BEYOND`] samples strictly beyond its rank.
pub fn supported(n: usize, p: f64) -> bool {
    if n == 0 {
        return false;
    }
    if p <= 50.0 {
        return true;
    }
    n - rank(n, p) >= MIN_BEYOND
}

/// A percentile together with the sample count and whether the count
/// supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank value (0 when there are no samples).
    pub value: f64,
    /// Number of samples it was taken over.
    pub n: usize,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond it.
    pub supported: bool,
}

/// Percentile `p` of an ascending slice.
pub fn quantile(sorted: &[f64], p: f64) -> Quantile {
    Quantile {
        value: nearest_rank(sorted, p).unwrap_or(0.0),
        n: sorted.len(),
        supported: supported(sorted.len(), p),
    }
}

/// `samples` in ascending order.
pub fn ascending(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond.
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        // p99 needs 1,000 samples, p99.9 needs 10,000.
        assert!(supported(1_000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(10_000, 99.9));
        // The median is always reportable; nothing is for no samples.
        assert!(supported(1, 50.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn quantile_flags_support() {
        let s = ascending((1..=50).rev().map(f64::from).collect());
        let q = quantile(&s, 90.0);
        assert_eq!(q.value, 45.0);
        assert_eq!(q.n, 50);
        assert!(!q.supported);
        assert_eq!(quantile(&[], 50.0).value, 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
