//! Conditional CDFs: `CDF(Y | X)` for generically correlated dimensions
//! (§5.2.2).
//!
//! The base dimension `X` is partitioned uniformly in `CDF(X)`; the dependent
//! dimension `Y` is partitioned uniformly in `CDF(Y | X)` by storing one
//! compact equi-depth CDF of `Y` *per base partition*. This staggers the `Y`
//! partition boundaries across base partitions, producing equally-sized cells
//! even when `X` and `Y` are correlated. Storage is proportional to
//! `p_X * p_Y`, which is negligible next to the grid's cell lookup table.

use super::HistogramCdf;
use tsunami_core::Value;

/// Per-base-partition CDF models of a dependent dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalCdf {
    /// One model of `CDF(Y | X in partition b)` per base partition `b`.
    per_base: Vec<HistogramCdf>,
}

impl ConditionalCdf {
    /// Builds the conditional CDF.
    ///
    /// * `base_partition_of_row[r]` — the base-dimension partition of row `r`
    ///   (in `0..num_base_partitions`).
    /// * `dependent_values[r]` — the dependent dimension's value of row `r`.
    /// * `buckets` — number of equi-depth buckets per conditional CDF
    ///   (typically the number of partitions of the dependent dimension).
    pub fn build(
        base_partition_of_row: &[usize],
        dependent_values: &[Value],
        num_base_partitions: usize,
        buckets: usize,
    ) -> Self {
        debug_assert_eq!(base_partition_of_row.len(), dependent_values.len());
        let mut grouped: Vec<Vec<Value>> = vec![Vec::new(); num_base_partitions.max(1)];
        for (r, &b) in base_partition_of_row.iter().enumerate() {
            let b = b.min(grouped.len() - 1);
            grouped[b].push(dependent_values[r]);
        }
        let per_base = grouped
            .into_iter()
            .map(|vals| HistogramCdf::build(&vals, buckets.max(1)))
            .collect();
        Self { per_base }
    }

    /// The conditional CDF model for a base partition (clamped into range).
    pub fn model_for(&self, base_partition: usize) -> &HistogramCdf {
        &self.per_base[base_partition.min(self.per_base.len() - 1)]
    }

    /// Bucket of `y` within the base partition's conditional model (see
    /// [`HistogramCdf::bucket_of`]): bucket indices are aligned with bucket
    /// value boundaries, which grid layouts rely on for exact-range scans.
    pub fn bucket_of(&self, base_partition: usize, y: Value) -> usize {
        self.model_for(base_partition).bucket_of(y)
    }

    /// Whether the value range `[lo, hi]` can contain any point of the given
    /// base partition. Ranges entirely outside the partition's observed
    /// dependent-value domain are guaranteed empty (the gray regions of
    /// Fig 6), letting queries skip those base partitions entirely.
    pub fn may_contain(&self, base_partition: usize, lo: Value, hi: Value) -> bool {
        let m = self.model_for(base_partition);
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        hi >= m.min() && lo < m.end()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.per_base.iter().map(HistogramCdf::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data where Y is strongly correlated with the base partition:
    /// base partition b holds Y values in [1000*b, 1000*b + 999].
    fn correlated(num_base: usize, per_base: usize) -> (Vec<usize>, Vec<Value>) {
        let mut base = Vec::new();
        let mut y = Vec::new();
        for b in 0..num_base {
            for i in 0..per_base {
                base.push(b);
                y.push((b * 1000 + (i * 997) % 1000) as Value);
            }
        }
        (base, y)
    }

    #[test]
    fn partitions_are_balanced_within_each_base_partition() {
        let (base, y) = correlated(4, 1000);
        let ccdf = ConditionalCdf::build(&base, &y, 4, 8);
        for b in 0..4 {
            let mut counts = [0usize; 8];
            for i in 0..base.len() {
                if base[i] == b {
                    counts[ccdf.model_for(b).partition(y[i], 8)] += 1;
                }
            }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max <= min * 2 + 50, "base {b}: min {min} max {max}");
        }
    }

    #[test]
    fn boundaries_are_staggered_across_base_partitions() {
        let (base, y) = correlated(4, 1000);
        let ccdf = ConditionalCdf::build(&base, &y, 4, 8);
        // The same Y value lands in very different partitions depending on
        // the base partition — that is the staggering that equalizes cells.
        let y_probe = 3500;
        let p_in_base3 = ccdf.model_for(3).partition(y_probe, 8);
        let p_in_base0 = ccdf.model_for(0).partition(y_probe, 8);
        assert!(p_in_base3 < 8);
        // In base 0 the probe is far above every stored Y, so it maps to the
        // last partition; in base 3 it is in the middle.
        assert_eq!(p_in_base0, 7);
        assert!(p_in_base3 < 7);
    }

    #[test]
    fn may_contain_prunes_empty_regions() {
        let (base, y) = correlated(4, 500);
        let ccdf = ConditionalCdf::build(&base, &y, 4, 8);
        // Y range [0, 900] only exists in base partition 0.
        assert!(ccdf.may_contain(0, 0, 900));
        assert!(!ccdf.may_contain(1, 0, 900));
        assert!(!ccdf.may_contain(3, 0, 900));
        // A range spanning everything intersects every base partition.
        assert!((0..4).all(|b| ccdf.may_contain(b, 0, 10_000)));
    }

    #[test]
    fn bucket_lookups_and_size() {
        let (base, y) = correlated(2, 1000);
        let ccdf = ConditionalCdf::build(&base, &y, 2, 4);
        assert_eq!(ccdf.model_for(0).bucket_range(0, 999), (0, 3));
        assert_eq!(ccdf.bucket_of(1, 1000), 0);
        assert_eq!(ccdf.bucket_of(1, 1999), 3);
        assert!(ccdf.size_bytes() > 0);
    }

    #[test]
    fn out_of_range_base_partition_is_clamped() {
        let (base, y) = correlated(2, 100);
        let ccdf = ConditionalCdf::build(&base, &y, 2, 4);
        // Requesting a non-existent base partition uses the last one rather
        // than panicking.
        assert_eq!(ccdf.model_for(99), ccdf.model_for(1));
        let _ = ccdf.bucket_of(99, 1500);
    }

    #[test]
    fn empty_base_partitions_are_tolerated() {
        // Base partition 1 receives no rows.
        let base = vec![0usize, 0, 2, 2];
        let y = vec![1u64, 2, 3, 4];
        let ccdf = ConditionalCdf::build(&base, &y, 3, 4);
        // Queries against the empty partition do not panic.
        assert!(ccdf.model_for(1).cdf(2) >= 0.0);
        let _ = ccdf.may_contain(1, 0, 10);
    }
}
