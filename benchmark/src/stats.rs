//! Exact order statistics over raw samples. The program's own
//! histograms are log-bucketed to 2×; every latency the benchmark
//! reports comes from here instead.

/// The `p`-th percentile (0 < p ≤ 100) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p` % of the
/// samples at or below it. Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (sorts in place; the lower median on even
/// counts, so the result is always a value that was measured).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Median of unsorted integers.
pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The definition, computed the slow way: the smallest sample `v`
    /// such that at least p % of the samples are ≤ v.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let need = p / 100.0 * sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&v| sorted.iter().filter(|&&w| w <= v).count() as f64 >= need)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn percentile_matches_the_sorted_oracle() {
        let mut rng = Rng::new(5);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut samples: Vec<u64> = (0..n).map(|_| rng.below(50) as u64).collect();
            samples.sort_unstable();
            for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&samples, p), oracle(&samples, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_known_values() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 95.0), 95);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&[7u64], 50.0), 7);
    }

    #[test]
    fn medians_return_measured_values() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_u64(&mut [9, 1, 5]), 5);
    }
}
