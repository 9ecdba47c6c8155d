//! Sample-based estimation of the cost-model features for a candidate grid
//! layout, without materializing the grid.
//!
//! The optimizer needs the predicted average query time for many candidate
//! partition-count vectors. Building each candidate layout over the full
//! dataset would be far too slow, so the estimator works on a small data
//! sample: the number of scanned points for a query is estimated as the
//! fraction of sample points that fall into partitions intersected by the
//! query in every *filtered* dimension, scaled to the full dataset size. This
//! captures correlation effects that a uniform-independence assumption would
//! miss — which is exactly why Flood struggles on correlated data.

use crate::cdf::HistogramCdf;
use tsunami_core::{CostFeatures, CostModel, Dataset, Query, Workload};

/// Estimates cost features for queries against a candidate grid layout using
/// a data sample.
#[derive(Debug)]
pub(crate) struct GridCostEstimator<'a> {
    /// Per dimension, the candidate partitioning's model over the sample:
    /// its buckets are the partitions.
    models: Vec<HistogramCdf>,
    /// Per dimension, each sample row's partition under `models`, found
    /// once per candidate instead of once per query.
    row_partitions: Vec<Vec<usize>>,
    sample: &'a Dataset,
    total_rows: usize,
}

impl<'a> GridCostEstimator<'a> {
    /// Creates an estimator for a layout built over the *sample* with the
    /// candidate partition counts; `total_rows` scales sample counts up to
    /// the full dataset.
    pub(crate) fn new(sample: &'a Dataset, partitions: &[usize], total_rows: usize) -> Self {
        let models: Vec<HistogramCdf> = (0..sample.num_dims())
            .map(|dim| HistogramCdf::build(sample.column(dim), partitions[dim].max(1)))
            .collect();
        let row_partitions = models
            .iter()
            .enumerate()
            .map(|(dim, m)| sample.column(dim).iter().map(|&v| m.bucket_of(v)).collect())
            .collect();
        Self {
            models,
            row_partitions,
            sample,
            total_rows,
        }
    }

    /// The inclusive range of partitions of `dim` the query intersects.
    fn intersecting(&self, query: &Query, dim: usize) -> (usize, usize) {
        let model = &self.models[dim];
        match query.predicate_on(dim) {
            Some(p) => model.bucket_range(p.lo, p.hi),
            None => (0, model.num_buckets() - 1),
        }
    }

    /// Estimated cost features for a single query.
    pub(crate) fn features(&self, query: &Query) -> CostFeatures {
        // Number of cell ranges = number of runs along the last dimension =
        // product of intersecting-partition counts over the prefix dims.
        let d = self.models.len();
        let mut cell_ranges = 1f64;
        for dim in 0..d.saturating_sub(1) {
            let (lo, hi) = self.intersecting(query, dim);
            cell_ranges *= (hi - lo + 1) as f64;
        }

        // Scanned points: fraction of sample points whose partition lies in
        // the intersecting range for every filtered dimension.
        let filtered = query.filtered_dims();
        let n = self.sample.len();
        let mut hits = vec![true; n];
        for &dim in &filtered {
            let (lo, hi) = self.intersecting(query, dim);
            for (h, &p) in hits.iter_mut().zip(&self.row_partitions[dim]) {
                *h &= lo <= p && p <= hi;
            }
        }
        let hit = hits.iter().filter(|&&h| h).count();
        let scanned = if n == 0 {
            0.0
        } else {
            hit as f64 / n as f64 * self.total_rows as f64
        };

        CostFeatures {
            cell_ranges,
            scanned_points: scanned,
            filtered_dims: filtered.len() as f64,
        }
    }

    /// Predicted average query time over a workload under a cost model.
    pub(crate) fn average_cost(&self, workload: &Workload, cost: &CostModel) -> f64 {
        if workload.is_empty() {
            return 0.0;
        }
        workload
            .queries()
            .iter()
            .map(|q| cost.predict(&self.features(q)))
            .sum::<f64>()
            / workload.len() as f64
    }
}

/// Convenience: predicted average query time of the partition-count vector
/// `partitions` for `workload`, using `sample` scaled to `total_rows`.
pub(crate) fn predicted_cost(
    sample: &Dataset,
    partitions: &[usize],
    total_rows: usize,
    workload: &Workload,
    cost: &CostModel,
) -> f64 {
    GridCostEstimator::new(sample, partitions, total_rows).average_cost(workload, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::Predicate;

    fn sample() -> Dataset {
        Dataset::from_columns(vec![
            (0..1000u64).collect(),
            (0..1000u64).map(|v| (v * 13) % 1000).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn narrower_filters_scan_fewer_points() {
        let s = sample();
        let est = GridCostEstimator::new(&s, &[16, 16], 100_000);
        let narrow = Query::count(vec![Predicate::range(0, 0, 99).unwrap()]).unwrap();
        let wide = Query::count(vec![Predicate::range(0, 0, 499).unwrap()]).unwrap();
        assert!(est.features(&narrow).scanned_points < est.features(&wide).scanned_points);
    }

    #[test]
    fn more_partitions_in_filtered_dim_reduce_scanned_points() {
        let s = sample();
        let q = Query::count(vec![Predicate::range(0, 0, 49).unwrap()]).unwrap();
        let coarse = GridCostEstimator::new(&s, &[2, 2], 100_000)
            .features(&q)
            .scanned_points;
        let fine = GridCostEstimator::new(&s, &[64, 2], 100_000)
            .features(&q)
            .scanned_points;
        assert!(fine < coarse);
    }

    #[test]
    fn cell_ranges_grow_with_prefix_partitions() {
        let s = sample();
        // Query filters only dim1, so every partition of dim0 contributes one run.
        let q = Query::count(vec![Predicate::range(1, 0, 99).unwrap()]).unwrap();
        let few = GridCostEstimator::new(&s, &[4, 8], 100_000).features(&q);
        let many = GridCostEstimator::new(&s, &[32, 8], 100_000).features(&q);
        assert_eq!(few.cell_ranges, 4.0);
        assert_eq!(many.cell_ranges, 32.0);
    }

    #[test]
    fn average_cost_reflects_tradeoff() {
        let s = sample();
        let w = Workload::new(vec![
            Query::count(vec![Predicate::range(0, 0, 99).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(0, 500, 599).unwrap()]).unwrap(),
        ]);
        let cost = CostModel::default();
        let bad = predicted_cost(&s, &[1, 1], 1_000_000, &w, &cost);
        let good = predicted_cost(&s, &[32, 1], 1_000_000, &w, &cost);
        assert!(good < bad, "partitioning the filtered dim must reduce cost");
    }

    #[test]
    fn empty_workload_costs_nothing() {
        let s = sample();
        let est = GridCostEstimator::new(&s, &[4, 4], 1000);
        assert_eq!(
            est.average_cost(&Workload::default(), &CostModel::default()),
            0.0
        );
    }
}
