//! Order statistics used by every workload and by `--agree`.

/// Sorts samples ascending. Timings are never NaN, so `total_cmp` is a
/// plain numeric order here.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it. Empty
/// input reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// [`percentile`] of samples in any order.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values.to_vec()), p)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // `99.9 / 100 * 10_000` is a hair above 9990 in binary floating point;
    // the guard keeps an exact product from rounding up a rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest rank of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentiles a timing may be reported at.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that still has `beyond` samples past
/// it among `n` — the tail a sample of that size supports. Falls back to
/// the median when even that has too few.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= beyond)
        .unwrap_or(50.0)
}

/// Cuts `n` time-ordered samples into consecutive segments of at least
/// `min_len` samples each, at most `max_segments` of them (one segment when
/// `n` is short). The last segment takes the remainder.
pub fn segments(n: usize, min_len: usize, max_segments: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / min_len.max(1)).clamp(1, max_segments.max(1));
    let len = n / count;
    (0..count)
        .map(|i| i * len..if i + 1 == count { n } else { (i + 1) * len })
        .collect()
}

/// Each segment's nearest-rank percentile, in segment order. Their median
/// is the run's **steady** percentile: on a machine whose speed wobbles for
/// seconds at a time (a shared sandbox), a burst of interference moves the
/// segments it hits and leaves the median of the segments where it was;
/// pooled over the whole run it would drag the percentile with it. With one
/// segment it is the plain percentile.
pub fn segment_percentiles(samples: &[f64], p: f64, ranges: &[std::ops::Range<usize>]) -> Vec<f64> {
    ranges
        .iter()
        .map(|r| percentile_of(&samples[r.clone()], p))
        .collect()
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the benchmark's acceptance spread is defined by.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let len = s.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Nearest rank never interpolates: five samples, p50 is the third.
        assert_eq!(percentile(&[1.0, 2.0, 10.0, 20.0, 30.0], 50.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1_000, 10), 99.0);
        assert_eq!(highest_supported_percentile(999, 10), 95.0);
        // 900 inserts: p95 leaves 45 beyond, p99 only 9.
        assert_eq!(samples_beyond(900, 95.0), 45);
        assert_eq!(highest_supported_percentile(900, 10), 95.0);
        assert_eq!(highest_supported_percentile(10_000, 10), 99.9);
        assert_eq!(highest_supported_percentile(25, 10), 50.0);
        assert_eq!(highest_supported_percentile(3, 10), 50.0);
    }

    #[test]
    fn segments_cover_the_samples_once_in_order() {
        assert_eq!(segments(10, 100, 20), vec![0..10]);
        assert_eq!(segments(0, 100, 20), vec![0..0]);
        assert_eq!(segments(2_500, 1_000, 20), vec![0..1_250, 1_250..2_500]);
        let many = segments(50_003, 1_000, 20);
        assert_eq!(many.len(), 20);
        assert_eq!(many[0], 0..2_500);
        assert_eq!(many[19], 47_500..50_003);
        assert!(many.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn the_median_segment_shrugs_off_a_burst() {
        // 10 segments of 100 samples at 1.0; one whole segment disturbed to 5.0.
        let mut samples = vec![1.0; 1_000];
        samples[300..400].fill(5.0);
        let ranges = segments(samples.len(), 100, 10);
        let steady = |p, ranges: &[std::ops::Range<usize>]| {
            median(&segment_percentiles(&samples, p, ranges))
        };
        assert_eq!(steady(50.0, &ranges), 1.0);
        assert_eq!(steady(99.0, &ranges), 1.0);
        // Pooled, the burst owns the tail.
        assert_eq!(percentile(&sorted(samples.clone()), 99.0), 5.0);
        // One segment is the plain percentile.
        let whole = segments(samples.len(), samples.len(), 1);
        assert_eq!(steady(99.0, &whole), 5.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
