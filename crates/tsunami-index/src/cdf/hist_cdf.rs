//! Compact equi-depth histogram CDF model.
//!
//! Stores `p` boundary values such that each bucket holds an equal share of
//! the data; the CDF is interpolated linearly inside each bucket. This is the
//! compact per-dimension model used by the grids (Flood's "choice of modeling
//! technique is orthogonal; ... one could also use a histogram", §2.2).

use tsunami_core::histogram::equi_depth_boundaries;
use tsunami_core::Value;

/// An equi-depth histogram model of a CDF.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramCdf {
    /// Bucket boundaries: `buckets + 1` ascending values, covering
    /// `[boundaries[0], boundaries[last])`.
    boundaries: Vec<Value>,
}

impl HistogramCdf {
    /// Builds the model over `values` with (up to) `buckets` equi-depth
    /// buckets.
    pub fn build(values: &[Value], buckets: usize) -> Self {
        let buckets = buckets.max(1);
        Self {
            boundaries: equi_depth_boundaries(values, buckets),
        }
    }

    /// Builds a model directly from explicit boundaries (ascending).
    #[cfg(test)]
    fn from_boundaries(boundaries: Vec<Value>) -> Self {
        debug_assert!(boundaries.len() >= 2);
        debug_assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        Self { boundaries }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The smallest modeled value.
    pub fn min(&self) -> Value {
        self.boundaries[0]
    }

    /// One past the largest modeled value.
    pub fn end(&self) -> Value {
        *self.boundaries.last().unwrap()
    }

    /// Whether bucket `i` is *provably* contained in `[lo, hi]` — every
    /// value the bucket can hold satisfies the range, so callers may treat
    /// its rows as matching without re-checks (the exact-range scan
    /// optimization and residual-predicate elimination).
    ///
    /// Conservative at the top of the `u64` domain: a final boundary
    /// saturated at `u64::MAX` (the exclusive end of a bucket holding
    /// `u64::MAX` cannot be represented — build-time boundary fitting
    /// saturates there) means the last bucket may also hold `u64::MAX`
    /// itself, so its containment additionally requires `hi == u64::MAX`.
    pub fn bucket_contained_in(&self, i: usize, lo: Value, hi: Value) -> bool {
        let b = &self.boundaries;
        if i + 1 >= b.len() {
            return false;
        }
        if i + 2 == b.len() && b[i + 1] == Value::MAX && hi != Value::MAX {
            return false;
        }
        lo <= b[i] && b[i + 1] - 1 <= hi
    }

    /// The bucket containing `v`, clamped into `0..num_buckets()`.
    ///
    /// Unlike [`HistogramCdf::partition`], which divides the CDF into `p`
    /// equal slices, this returns the *bucket index*, whose exact value range
    /// is `[boundaries[i], boundaries[i+1])`. Grid layouts use buckets as
    /// their partitions so that partition membership and partition value
    /// bounds are always consistent (needed for the exact-range scan
    /// optimization).
    pub fn bucket_of(&self, v: Value) -> usize {
        if v < self.boundaries[0] {
            return 0;
        }
        let idx = self.boundaries.partition_point(|&b| b <= v);
        idx.saturating_sub(1).min(self.num_buckets() - 1)
    }

    /// The inclusive bucket range intersected by the value range `[lo, hi]`.
    pub fn bucket_range(&self, lo: Value, hi: Value) -> (usize, usize) {
        let a = self.bucket_of(lo);
        let b = self.bucket_of(hi);
        (a.min(b), a.max(b))
    }

    /// Estimated fraction of values `<= v`: monotonically non-decreasing in
    /// `v` and within `[0, 1]`.
    pub fn cdf(&self, v: Value) -> f64 {
        let n = self.num_buckets();
        if v < self.boundaries[0] {
            return 0.0;
        }
        if v >= self.end() {
            return 1.0;
        }
        // Find the bucket containing v.
        let idx = self.boundaries.partition_point(|&b| b <= v);
        let bucket = idx - 1;
        let lo = self.boundaries[bucket] as f64;
        let hi = self.boundaries[bucket + 1] as f64;
        let within = if hi > lo {
            (v as f64 - lo) / (hi - lo)
        } else {
            0.0
        };
        (bucket as f64 + within) / n as f64
    }

    /// Maps a value to one of `p` equal-CDF-mass partitions:
    /// `floor(CDF(v) * p)`, clamped to `p - 1` (§2.2).
    pub fn partition(&self, v: Value, p: usize) -> usize {
        debug_assert!(p > 0);
        let raw = (self.cdf(v) * p as f64).floor() as isize;
        raw.clamp(0, p as isize - 1) as usize
    }

    /// Approximate size of the model in bytes (for index-size accounting).
    pub fn size_bytes(&self) -> usize {
        self.boundaries.len() * std::mem::size_of::<Value>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let values: Vec<Value> = (0..10_000).map(|v| (v * v) % 7919).collect();
        let m = HistogramCdf::build(&values, 64);
        let mut prev = -1.0;
        for v in (0..8000).step_by(13) {
            let c = m.cdf(v);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev, "CDF must be non-decreasing");
            prev = c;
        }
    }

    #[test]
    fn approximates_exact_cdf_on_uniform_data() {
        let values: Vec<Value> = (0..5000).collect();
        let m = HistogramCdf::build(&values, 128);
        for v in (0..5000).step_by(97) {
            let exact = (v + 1) as f64 / 5000.0;
            assert!((m.cdf(v) - exact).abs() < 0.02, "value {v}");
        }
    }

    #[test]
    fn partitions_are_balanced_on_skewed_data() {
        // Heavily skewed data: most mass near zero.
        let values: Vec<Value> = (0..10_000u64).map(|v| (v / 100).pow(2)).collect();
        let m = HistogramCdf::build(&values, 16);
        let mut counts = [0usize; 8];
        for &v in &values {
            counts[m.partition(v, 8)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Equi-depth modeling keeps partitions within a reasonable factor.
        assert!(max <= min * 4 + 200, "min {min} max {max}");
    }

    #[test]
    fn from_boundaries_and_accessors() {
        let m = HistogramCdf::from_boundaries(vec![0, 10, 20, 40]);
        assert_eq!(m.num_buckets(), 3);
        assert_eq!(m.min(), 0);
        assert_eq!(m.end(), 40);
        assert_eq!(m.cdf(0), 0.0);
        assert_eq!(m.cdf(40), 1.0);
        assert!((m.cdf(10) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.size_bytes(), 32);
    }

    #[test]
    fn bucket_containment_is_conservative_at_the_saturated_top() {
        let m = HistogramCdf::from_boundaries(vec![0, 10, 20]);
        assert!(m.bucket_contained_in(0, 0, 9));
        assert!(!m.bucket_contained_in(0, 1, 9));
        assert!(!m.bucket_contained_in(0, 0, 8));
        assert!(m.bucket_contained_in(1, 10, 19));
        // Out-of-range bucket index: never contained.
        assert!(!m.bucket_contained_in(2, 0, Value::MAX));

        // Saturated final boundary: the last bucket may hold u64::MAX
        // itself, so containment needs hi == u64::MAX.
        let m = HistogramCdf::from_boundaries(vec![0, 10, Value::MAX]);
        assert!(!m.bucket_contained_in(1, 10, Value::MAX - 1));
        assert!(m.bucket_contained_in(1, 10, Value::MAX));
        // Buckets below the top are unaffected by the saturation.
        assert!(m.bucket_contained_in(0, 0, 9));
    }

    #[test]
    fn constant_column_is_handled() {
        let values = vec![42u64; 1000];
        let m = HistogramCdf::build(&values, 16);
        // All values collapse into one bucket; every lookup is valid.
        assert_eq!(m.partition(42, 4), 0);
        assert_eq!(m.partition(43, 4), 3);
        assert_eq!(m.cdf(41), 0.0);
    }
}
