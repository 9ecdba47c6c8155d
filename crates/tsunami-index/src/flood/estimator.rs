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

use std::collections::HashMap;

use crate::augmented_grid::FitCache;
use tsunami_core::{CostFeatures, CostModel, Dataset, Query, Workload};

/// Prices candidate grid layouts for one workload over one data sample.
///
/// A candidate is a partition-count vector, and each of its dimensions'
/// partitioning is a model fitted over the sample. The descent asks about
/// many candidates that differ in one dimension, so the models are fitted
/// once per `(dim, partitions)` and kept ([`FitCache`], the cache the
/// Augmented-Grid search builds its grids from), and each distinct
/// candidate is priced once. A model is a pure function of the sample and
/// its key, so every price is the one a fresh fit would give.
pub(crate) struct GridCostEstimator<'a> {
    /// Per `(dim, partitions)`: the model whose buckets are the partitions,
    /// with each sample row's partition in it.
    fits: FitCache<'a>,
    total_rows: usize,
    workload: &'a Workload,
    cost: &'a CostModel,
    /// The price of every candidate asked about so far.
    priced: HashMap<Vec<usize>, f64>,
}

impl<'a> GridCostEstimator<'a> {
    /// An estimator for `workload` under `cost`, over layouts built on the
    /// *sample*; `total_rows` scales sample counts up to the full dataset.
    pub(crate) fn new(
        sample: &'a Dataset,
        total_rows: usize,
        workload: &'a Workload,
        cost: &'a CostModel,
    ) -> Self {
        Self {
            fits: FitCache::new(sample),
            total_rows,
            workload,
            cost,
            priced: HashMap::new(),
        }
    }

    /// The inclusive range of `dim`'s `p` partitions the query intersects.
    fn intersecting(&mut self, query: &Query, dim: usize, p: usize) -> (usize, usize) {
        let model = &self.fits.histogram(dim, p).model;
        match query.predicate_on(dim) {
            Some(pred) => model.bucket_range(pred.lo, pred.hi),
            None => (0, model.num_buckets() - 1),
        }
    }

    /// Estimated cost features for a single query against the candidate
    /// `partitions`.
    fn features(&mut self, partitions: &[usize], query: &Query) -> CostFeatures {
        // Number of cell ranges = number of runs along the last dimension =
        // product of intersecting-partition counts over the prefix dims.
        let prefix = &partitions[..partitions.len().saturating_sub(1)];
        let mut cell_ranges = 1f64;
        for (dim, &p) in prefix.iter().enumerate() {
            let (lo, hi) = self.intersecting(query, dim, p.max(1));
            cell_ranges *= (hi - lo + 1) as f64;
        }

        // Scanned points: fraction of sample points whose partition lies in
        // the intersecting range for every filtered dimension.
        let filtered = query.filtered_dims();
        let n = self.fits.data().len();
        let mut hits = vec![true; n];
        for &dim in &filtered {
            let p = partitions[dim].max(1);
            let (lo, hi) = self.intersecting(query, dim, p);
            let parts = &self.fits.histogram(dim, p).parts;
            for (h, &part) in hits.iter_mut().zip(parts) {
                let part = part as usize;
                *h &= lo <= part && part <= hi;
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

    /// Predicted average query time of the candidate `partitions` over the
    /// workload.
    pub(crate) fn price(&mut self, partitions: &[usize]) -> f64 {
        if self.workload.is_empty() {
            return 0.0;
        }
        if let Some(&price) = self.priced.get(partitions) {
            return price;
        }
        let (workload, cost) = (self.workload, self.cost);
        let price = (workload.queries().iter())
            .map(|q| cost.predict(&self.features(partitions, q)))
            .sum::<f64>()
            / workload.len() as f64;
        self.priced.insert(partitions.to_vec(), price);
        price
    }
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

    /// Features of `query` under `partitions`, from a fresh estimator.
    fn features(s: &Dataset, partitions: &[usize], query: &Query) -> CostFeatures {
        let (w, cost) = (Workload::default(), CostModel::default());
        GridCostEstimator::new(s, 100_000, &w, &cost).features(partitions, query)
    }

    #[test]
    fn narrower_filters_scan_fewer_points() {
        let s = sample();
        let narrow = Query::count(vec![Predicate::range(0, 0, 99).unwrap()]).unwrap();
        let wide = Query::count(vec![Predicate::range(0, 0, 499).unwrap()]).unwrap();
        assert!(
            features(&s, &[16, 16], &narrow).scanned_points
                < features(&s, &[16, 16], &wide).scanned_points
        );
    }

    #[test]
    fn more_partitions_in_filtered_dim_reduce_scanned_points() {
        let s = sample();
        let q = Query::count(vec![Predicate::range(0, 0, 49).unwrap()]).unwrap();
        let coarse = features(&s, &[2, 2], &q).scanned_points;
        let fine = features(&s, &[64, 2], &q).scanned_points;
        assert!(fine < coarse);
    }

    #[test]
    fn cell_ranges_grow_with_prefix_partitions() {
        let s = sample();
        // Query filters only dim1, so every partition of dim0 contributes one run.
        let q = Query::count(vec![Predicate::range(1, 0, 99).unwrap()]).unwrap();
        let few = features(&s, &[4, 8], &q);
        let many = features(&s, &[32, 8], &q);
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
        let mut est = GridCostEstimator::new(&s, 1_000_000, &w, &cost);
        let bad = est.price(&[1, 1]);
        let good = est.price(&[32, 1]);
        assert!(good < bad, "partitioning the filtered dim must reduce cost");
    }

    #[test]
    fn a_warm_estimator_prices_like_a_fresh_one() {
        let s = sample();
        let w = Workload::new(vec![
            Query::count(vec![Predicate::range(0, 0, 99).unwrap()]).unwrap(),
            Query::count(vec![
                Predicate::range(0, 300, 650).unwrap(),
                Predicate::range(1, 10, 400).unwrap(),
            ])
            .unwrap(),
            Query::count(vec![Predicate::range(1, 500, 599).unwrap()]).unwrap(),
        ]);
        let cost = CostModel::default();
        let candidates = [[1, 1], [8, 3], [8, 4], [12, 4], [8, 3], [2, 40], [12, 4]];
        let mut warm = GridCostEstimator::new(&s, 1_000_000, &w, &cost);
        for partitions in candidates {
            let fresh = GridCostEstimator::new(&s, 1_000_000, &w, &cost).price(&partitions);
            assert_eq!(warm.price(&partitions).to_bits(), fresh.to_bits());
        }
        assert_eq!(warm.priced.len(), 5);
    }

    #[test]
    fn empty_workload_costs_nothing() {
        let s = sample();
        let (w, cost) = (Workload::default(), CostModel::default());
        let mut est = GridCostEstimator::new(&s, 1000, &w, &cost);
        assert_eq!(est.price(&[4, 4]), 0.0);
    }
}
