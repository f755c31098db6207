//! Order statistics over measured samples.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at 1-based rank `⌈q·n⌉`.  It always
//! returns a value that was actually measured, and the number of
//! samples strictly beyond it is `n − ⌈q·n⌉`, which is what the tail
//! rule below counts.

/// The percentiles a tail report may choose from, lowest first.
pub const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    // The tolerance keeps `0.9 × 100` at rank 90 despite binary rounding.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile (`0 < q ≤ 1`) of already sorted samples, or `None`
/// when there are none.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// Sorts a copy of `samples` and returns its `q`-quantile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// The median (nearest-rank, so the lower middle of an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples strictly beyond the `q`-quantile among `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(q, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(q, value)`; `None` when
/// even the median lacks that support.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&q| beyond(q, sorted.len()) >= TAIL_MIN_BEYOND)
        .and_then(|&q| percentile_sorted(sorted, q).map(|v| (q, v)))
}

/// Name of a ladder percentile as printed: `0.999` → `p99.9`.
pub fn percentile_name(q: f64) -> String {
    let pct = format!("{}", (q * 1e4).round() / 1e2);
    format!("p{pct}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let v = ramp(10);
        assert_eq!(percentile_sorted(&v, 0.5), Some(5.0));
        assert_eq!(percentile_sorted(&v, 0.9), Some(9.0));
        assert_eq!(percentile_sorted(&v, 0.91), Some(10.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(10.0));
        assert_eq!(percentile_sorted(&v, 0.01), Some(1.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn beyond_counts_samples_strictly_above_the_rank() {
        assert_eq!(beyond(0.9, 100), 10);
        assert_eq!(beyond(0.99, 100), 1);
        assert_eq!(beyond(0.5, 1), 0);
        assert_eq!(beyond(0.9, 0), 0);
        assert_eq!(beyond(0.999, 10_000), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p50 has 9 beyond, so nothing is supported.
        assert_eq!(supported_tail(&ramp(19)), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        assert_eq!(supported_tail(&ramp(20)), Some((0.5, 10.0)));
        // 100 samples: p90 has 10 beyond, p99 only 1.
        assert_eq!(supported_tail(&ramp(100)), Some((0.9, 90.0)));
        // 999 samples: p99 is rank 990 with 9 beyond, so p90 it is.
        assert_eq!(supported_tail(&ramp(999)), Some((0.9, 900.0)));
        assert_eq!(supported_tail(&ramp(1000)), Some((0.99, 990.0)));
        assert_eq!(supported_tail(&ramp(10_000)), Some((0.999, 9990.0)));
        assert_eq!(supported_tail(&ramp(200_000)), Some((0.9999, 199_980.0)));
    }

    #[test]
    fn percentile_names() {
        assert_eq!(percentile_name(0.5), "p50");
        assert_eq!(percentile_name(0.99), "p99");
        assert_eq!(percentile_name(0.999), "p99.9");
        assert_eq!(percentile_name(0.9999), "p99.99");
    }
}
