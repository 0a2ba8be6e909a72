//! Order statistics shared by every workload.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 · n)`. With
//! fewer than 100 samples the 99th percentile is therefore the maximum.

/// Nearest-rank percentile of an ascending slice; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 0.99 · 1000 from rounding up to rank 991.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes [`percentile`].
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the mean of the two middle samples for an even count; 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How many samples lie strictly above the `p`-th percentile — the tail a
/// reported percentile rests on.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&x| x <= cut)
}

/// The median over fixed-width windows of each window's `p`-th percentile.
/// `samples` are `(timestamp_ns, value)`; windows with fewer than
/// `min_count` samples are skipped. A single stall moves one window, not
/// the reported figure.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    window_ns: u64,
    p: f64,
    min_count: usize,
) -> f64 {
    let mut buckets: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        buckets.entry(t / window_ns).or_default().push(v);
    }
    let per_window: Vec<f64> = buckets
        .values()
        .filter(|b| b.len() >= min_count)
        .map(|b| percentile_of(b, p))
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_indexing() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Few samples: p99 is the maximum, p50 the lower middle.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 99.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_counts_and_medians() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 99.0), 10);
        assert_eq!(beyond(&v, 99.9), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for i in 0..100u64 {
                let v = if w == 2 { 1000.0 } else { (i + 1) as f64 };
                samples.push((w * 1_000 + i, v));
            }
        }
        assert_eq!(windowed_percentile(&samples, 1_000, 99.0, 10), 99.0);
        // Too-small windows are skipped entirely.
        assert_eq!(windowed_percentile(&samples, 1_000, 99.0, 1_000), 0.0);
    }
}
