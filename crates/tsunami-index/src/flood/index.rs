//! The Flood index: an optimized uniform grid over a clustered column store.

use std::time::Instant;

use super::config::FloodConfig;
use super::optimizer::optimize_partitions;
use crate::augmented_grid::CellScratch;
use crate::grid_tree::{dim_bit, with_loose_residual};
use crate::{AugmentedGrid, Skeleton};
use tsunami_core::{
    BuildTiming, CostModel, Dataset, MultiDimIndex, Predicate, Query, Result, ScanPlan, ScanSource,
    Successor, TsunamiError, Workload,
};
use tsunami_store::ColumnStore;

/// The Flood learned multi-dimensional index (§2.2).
///
/// Its grid is an Augmented Grid whose every dimension is partitioned
/// independently, with the partition counts Flood's optimizer chose. Data
/// is clustered by grid cell: the grid's cell table maps each cell to its
/// contiguous range in the column store.
#[derive(Debug)]
pub struct FloodIndex {
    grid: AugmentedGrid,
    store: ColumnStore,
    timing: BuildTiming,
    predicted_cost: f64,
}

impl FloodIndex {
    /// Builds a Flood index whose layout is optimized for the given sample
    /// workload.
    pub fn build(
        data: &Dataset,
        workload: &Workload,
        cost: &CostModel,
        config: &FloodConfig,
    ) -> Self {
        let opt_start = Instant::now();
        let optimized = optimize_partitions(data, workload, cost, config);
        let optimize_secs = opt_start.elapsed().as_secs_f64();
        Self::build_with_partitions_timed(
            data,
            &optimized.partitions,
            optimize_secs,
            optimized.predicted_cost,
        )
    }

    /// Builds a Flood index with explicit per-dimension partition counts.
    pub fn build_with_partitions(data: &Dataset, partitions: &[usize]) -> Self {
        Self::build_with_partitions_timed(data, partitions, 0.0, 0.0)
    }

    fn build_with_partitions_timed(
        data: &Dataset,
        partitions: &[usize],
        optimize_secs: f64,
        predicted_cost: f64,
    ) -> Self {
        let sort_start = Instant::now();
        let skeleton = Skeleton::all_independent(data.num_dims());
        let (grid, perm) = AugmentedGrid::build(data, &skeleton, partitions);
        let store = ColumnStore::clustered(data, &perm);
        Self {
            grid,
            store,
            timing: BuildTiming {
                sort_secs: sort_start.elapsed().as_secs_f64(),
                optimize_secs,
            },
            predicted_cost,
        }
    }

    /// Absorbs new rows **without re-optimizing**: the index's rows plus
    /// the batch are re-gridded with the same partition counts — fresh
    /// per-dimension models over the merged rows, so values outside the
    /// build-time domain land in partitions whose bounds are truthful —
    /// and the store is re-clustered. This is what a Tsunami graft does to
    /// one region. Heavy sustained ingest that shifts the data should
    /// eventually be followed by a rebuild, which re-runs the optimizer.
    ///
    /// Fails with [`TsunamiError::DimensionMismatch`] when the batch's
    /// width differs from the index's.
    pub fn ingest(&self, rows: &Dataset) -> Result<Self> {
        if rows.num_dims() != self.store.num_dims() {
            return Err(TsunamiError::DimensionMismatch {
                expected: self.store.num_dims(),
                got: rows.num_dims(),
            });
        }
        let start = Instant::now();
        let mut cols = self.store.slice_dataset(0..self.store.len()).into_columns();
        for (dim, col) in cols.iter_mut().enumerate() {
            col.extend_from_slice(rows.column(dim));
        }
        let merged = Dataset::from_columns(cols)?;
        let partitions = self.grid.partitions();
        let mut index =
            Self::build_with_partitions_timed(&merged, partitions, 0.0, self.predicted_cost);
        index.timing.sort_secs = start.elapsed().as_secs_f64();
        Ok(index)
    }

    /// Number of grid cells (Table 4 reports this).
    pub fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    /// Predicted average query cost from the optimizer (0 if not optimized).
    pub fn predicted_cost(&self) -> f64 {
        self.predicted_cost
    }
}

impl MultiDimIndex for FloodIndex {
    fn name(&self) -> &str {
        "Flood"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let mut plan = ScanPlan::new();
        let emit = |range, exact| plan.push(range, exact);
        // A grid whose cells would cost more to enumerate than the table
        // does to scan is scanned whole, and re-checks the predicates that
        // do not cover the table's values on their dimension.
        let loose = match self
            .grid
            .plan_cells(query, &mut CellScratch::default(), emit)
        {
            Some(loose) => loose,
            None => {
                plan.push(0..self.store.len(), false);
                let covers = |p: &&Predicate| {
                    let column = (p.dim < self.store.num_dims()).then(|| self.store.column(p.dim));
                    column.is_some_and(|c| {
                        c.min().is_some_and(|lo| p.lo <= lo) && c.max().is_some_and(|hi| hi <= p.hi)
                    })
                };
                (query.predicates().iter())
                    .filter(|p| !covers(p))
                    .fold(0, |loose, p| loose | dim_bit(p.dim))
            }
        };
        // Residual elimination: drop the predicates whose every visited
        // partition the grid bounds exactly — only genuinely undecided
        // dimensions are re-checked inside non-exact cells.
        with_loose_residual(plan, query, loose)
    }

    fn size_bytes(&self) -> usize {
        self.grid.size_bytes()
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn ingest_batch(&self, rows: &Dataset) -> Result<Option<Successor>> {
        Ok(Some(Successor::patched(self.ingest(rows)?, rows.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::AggResult;

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        let cols = (0..d)
            .map(|dim| {
                (0..n)
                    .map(|_| rng.next_below(10_000) + dim as u64)
                    .collect()
            })
            .collect();
        Dataset::from_columns(cols).unwrap()
    }

    fn random_workload(d: usize, count: usize, seed: u64) -> Workload {
        let mut rng = SplitMix::new(seed);
        let mut qs = Vec::new();
        for _ in 0..count {
            let dim = (rng.next_below(d as u64)) as usize;
            let lo = rng.next_below(9_000);
            let hi = lo + rng.next_below(1_000) + 1;
            qs.push(Query::count(vec![Predicate::range(dim, lo, hi).unwrap()]).unwrap());
        }
        Workload::new(qs)
    }

    #[test]
    fn flood_matches_full_scan_oracle() {
        let data = random_dataset(5_000, 3, 1);
        let workload = random_workload(3, 30, 2);
        let index = FloodIndex::build(
            &data,
            &workload,
            &CostModel::default(),
            &FloodConfig::fast(),
        );
        for q in workload.queries() {
            assert_eq!(index.execute(q), q.execute_full_scan(&data), "query {q:?}");
        }
    }

    #[test]
    fn flood_answers_multi_dim_and_unseen_queries() {
        let data = random_dataset(3_000, 4, 3);
        let workload = random_workload(4, 10, 4);
        let index = FloodIndex::build(
            &data,
            &workload,
            &CostModel::default(),
            &FloodConfig::fast(),
        );
        // Queries not in the training workload (multi-dimensional).
        let q = Query::count(vec![
            Predicate::range(0, 100, 5_000).unwrap(),
            Predicate::range(2, 0, 2_500).unwrap(),
        ])
        .unwrap();
        assert_eq!(index.execute(&q), q.execute_full_scan(&data));
        // Empty-result query.
        let q = Query::count(vec![Predicate::range(1, 50_000, 60_000).unwrap()]).unwrap();
        assert_eq!(index.execute(&q), AggResult::Count(0));
    }

    #[test]
    fn flood_sum_aggregation_is_correct() {
        let data = random_dataset(2_000, 2, 7);
        let workload = random_workload(2, 10, 8);
        let index = FloodIndex::build(
            &data,
            &workload,
            &CostModel::default(),
            &FloodConfig::fast(),
        );
        let q = Query::new(
            vec![Predicate::range(0, 0, 5_000).unwrap()],
            tsunami_core::Aggregation::Sum(1),
        )
        .unwrap();
        assert_eq!(index.execute(&q), q.execute_full_scan(&data));
    }

    #[test]
    fn stats_show_fewer_points_scanned_than_full_scan() {
        let data = random_dataset(20_000, 2, 11);
        let workload = random_workload(2, 40, 12);
        let index = FloodIndex::build(
            &data,
            &workload,
            &CostModel::default(),
            &FloodConfig::fast(),
        );
        let q = &workload.queries()[0];
        let (_, stats) = index.execute_with_stats(q);
        assert!(stats.points < data.len(), "grid should prune the scan");
        assert!(stats.ranges >= 1);
        assert!(stats.matched <= stats.points);
    }

    #[test]
    fn explicit_partitions_build_and_report_cells() {
        let data = random_dataset(1_000, 2, 21);
        let index = FloodIndex::build_with_partitions(&data, &[8, 4]);
        assert_eq!(index.num_cells(), 32);
        assert_eq!(index.name(), "Flood");
        assert!(index.size_bytes() > 0);
        assert!(index.build_timing().optimize_secs == 0.0);
        let q = Query::count(vec![Predicate::range(0, 0, 4_999).unwrap()]).unwrap();
        assert_eq!(index.execute(&q), q.execute_full_scan(&data));
    }

    #[test]
    fn ingest_matches_a_rebuild_including_out_of_domain_values() {
        let data = random_dataset(4_000, 3, 31);
        let workload = random_workload(3, 20, 32);
        let index = FloodIndex::build(
            &data,
            &workload,
            &CostModel::default(),
            &FloodConfig::fast(),
        );
        // Batch with both in-domain rows and rows beyond every build-time
        // max (re-gridding must keep exactness sound).
        let mut rng = SplitMix::new(33);
        let mut batch = Dataset::empty(3);
        for _ in 0..300 {
            batch
                .push_row(&[rng.next_below(10_000), rng.next_below(10_000), 1])
                .unwrap();
        }
        for i in 0..20u64 {
            batch.push_row(&[50_000 + i, 60_000, 70_000 + i]).unwrap();
        }
        let ingested = index.ingest(&batch).unwrap();

        let mut merged = data.clone();
        for row in batch.rows() {
            merged.push_row(&row).unwrap();
        }
        let mut probes: Vec<Query> = workload.queries().to_vec();
        probes.push(Query::count(vec![Predicate::range(2, 65_000, 80_000).unwrap()]).unwrap());
        probes.push(
            Query::count(vec![
                Predicate::range(0, 0, 100_000).unwrap(),
                Predicate::range(1, 0, 100_000).unwrap(),
            ])
            .unwrap(),
        );
        for q in &probes {
            assert_eq!(ingested.execute(q), q.execute_full_scan(&merged), "{q:?}");
        }
        // Pruning still works after ingest.
        let (_, stats) = ingested.execute_with_stats(&workload.queries()[0]);
        assert!(stats.points < merged.len());
    }

    #[test]
    fn a_grid_too_fine_to_enumerate_is_scanned_whole() {
        // 4,096 cells over 500 rows: enumerating them costs more than the
        // scan, so the plan falls back to one range over the table.
        let data = random_dataset(500, 2, 37);
        let index = FloodIndex::build_with_partitions(&data, &[64, 64]);
        let q = Query::count(vec![
            Predicate::range(0, 0, 20_000).unwrap(),
            Predicate::range(1, 100, 5_000).unwrap(),
        ])
        .unwrap();
        let plan = index.plan(&q);
        assert_eq!(plan.num_ranges(), 1);
        assert_eq!(plan.total_points(), data.len());
        // Only the predicate that does not cover the table's values stays.
        assert_eq!(plan.residual(&q), &q.predicates()[1..]);
        assert_eq!(index.execute(&q), q.execute_full_scan(&data));
    }

    #[test]
    fn ingest_refuses_a_batch_of_another_width() {
        let data = random_dataset(1_000, 3, 35);
        let index = FloodIndex::build_with_partitions(&data, &[4, 4, 2]);
        let narrow = random_dataset(10, 2, 36);
        assert!(matches!(
            index.ingest(&narrow),
            Err(TsunamiError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(index.ingest_batch(&narrow).is_err());
    }

    #[test]
    fn empty_dataset_is_handled() {
        let data = Dataset::from_columns(vec![vec![], vec![]]).unwrap();
        let index = FloodIndex::build_with_partitions(&data, &[4, 4]);
        let q = Query::count(vec![Predicate::range(0, 0, 10).unwrap()]).unwrap();
        assert_eq!(index.execute(&q), AggResult::Count(0));
    }
}
