//! The Flood index: an optimized uniform grid over a clustered column store.

use std::time::Instant;

use super::config::FloodConfig;
use super::optimizer::optimize_partitions;
use crate::augmented_grid::CellScratch;
use crate::grid_tree::{dim_bit, with_loose_residual};
use crate::{AugmentedGrid, Skeleton};
use tsunami_core::{
    BuildTiming, CostModel, Dataset, MultiDimIndex, Predicate, Query, ScanPlan, ScanSource,
    SharedIndex, Workload,
};
use tsunami_store::ColumnStore;

/// The Flood learned multi-dimensional index (§2.2).
///
/// Its grid is an Augmented Grid whose every dimension is partitioned
/// independently, with the partition counts Flood's optimizer chose. Data
/// is clustered by grid cell: the grid's cell table maps each cell to its
/// contiguous range in the column store.
///
/// A write keeps the partition counts: [`MultiDimIndex::relayout`]
/// re-grids the mutated rows with them — fresh per-dimension models, so
/// values outside the build-time domain land in partitions whose bounds
/// are truthful — without re-running the optimizer. That is what a
/// Tsunami graft does to one region; a shifted workload earns a rebuild.
#[derive(Debug)]
pub struct FloodIndex {
    grid: AugmentedGrid,
    store: ColumnStore,
    timing: BuildTiming,
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
        let partitions = optimize_partitions(data, workload, cost, config);
        let optimize_secs = opt_start.elapsed().as_secs_f64();
        let mut index = Self::build_with_partitions(data, &partitions);
        index.timing.optimize_secs = optimize_secs;
        index
    }

    /// Builds a Flood index with explicit per-dimension partition counts.
    pub fn build_with_partitions(data: &Dataset, partitions: &[usize]) -> Self {
        let sort_start = Instant::now();
        let skeleton = Skeleton::all_independent(data.num_dims());
        let (grid, perm) = AugmentedGrid::build(data, &skeleton, partitions);
        let store = ColumnStore::clustered(data, &perm);
        Self {
            grid,
            store,
            timing: BuildTiming {
                sort_secs: sort_start.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
        }
    }

    /// Number of grid cells (Table 4 reports this).
    pub fn num_cells(&self) -> usize {
        self.grid.num_cells()
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

    fn relayout(&self, data: &Dataset) -> Option<SharedIndex> {
        Some(Box::new(Self::build_with_partitions(
            data,
            self.grid.partitions(),
        )))
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
    fn relayout_answers_like_the_oracle_including_out_of_domain_values() {
        let data = random_dataset(4_000, 3, 31);
        let workload = random_workload(3, 20, 32);
        let index = FloodIndex::build(
            &data,
            &workload,
            &CostModel::default(),
            &FloodConfig::fast(),
        );
        // The old rows plus in-domain rows and rows beyond every build-time
        // max (re-gridding must keep exactness sound).
        let mut rng = SplitMix::new(33);
        let mut merged = data.clone();
        for _ in 0..300 {
            merged
                .push_row(&[rng.next_below(10_000), rng.next_below(10_000), 1])
                .unwrap();
        }
        for i in 0..20u64 {
            merged.push_row(&[50_000 + i, 60_000, 70_000 + i]).unwrap();
        }
        let relaid = index.relayout(&merged).unwrap();
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
            assert_eq!(relaid.execute(q), q.execute_full_scan(&merged), "{q:?}");
        }
        // Pruning still works over the new rows.
        let (_, stats) = relaid.execute_with_stats(&workload.queries()[0]);
        assert!(stats.points < merged.len());
    }

    #[test]
    fn relayout_keeps_the_partitions() {
        let data = random_dataset(4_000, 3, 38);
        let workload = random_workload(3, 20, 39);
        let index = FloodIndex::build(
            &data,
            &workload,
            &CostModel::default(),
            &FloodConfig::fast(),
        );
        let partitions = index.grid.partitions();
        // Other rows: half as many, their columns in another order.
        let other = random_dataset(2_000, 3, 40).select_dims(&[2, 0, 1]);
        let relaid = index.relayout(&other).unwrap();
        let kept = FloodIndex::build_with_partitions(&other, partitions);
        assert_eq!(relaid.size_bytes(), kept.size_bytes());
        for q in workload.queries() {
            assert_eq!(relaid.plan(q), kept.plan(q), "{q:?}");
            assert_eq!(relaid.execute(q), q.execute_full_scan(&other), "{q:?}");
        }
        assert_eq!(relaid.build_timing().optimize_secs, 0.0);
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
    fn empty_dataset_is_handled() {
        let data = Dataset::from_columns(vec![vec![], vec![]]).unwrap();
        let index = FloodIndex::build_with_partitions(&data, &[4, 4]);
        let q = Query::count(vec![Predicate::range(0, 0, 10).unwrap()]).unwrap();
        assert_eq!(index.execute(&q), AggResult::Count(0));
    }
}
