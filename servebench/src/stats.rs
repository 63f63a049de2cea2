//! Order statistics over latency samples.

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending sample:
/// the value at 1-based rank `⌈p/100 · n⌉`. Returns `NaN` for an empty
/// sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending and returns its nearest-rank median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    nearest_rank(values, 50.0)
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.5), 1.0);
        // 1,000 samples: p99 is rank 990, so ten samples lie beyond it.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 99.0), 990.0);
        assert_eq!(w.iter().filter(|&&x| x > 990.0).count(), 10);
        // Odd and tiny samples.
        assert_eq!(nearest_rank(&[3.0, 7.0, 9.0], 50.0), 7.0);
        assert_eq!(nearest_rank(&[4.0], 99.0), 4.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
    }

    #[test]
    fn median_sorts_first() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
