//! The Flood index: an optimized uniform grid over a clustered column store.

use std::time::Instant;

use crate::config::FloodConfig;
use crate::layout::GridLayout;
use crate::optimizer::optimize_partitions;
use tsunami_core::{
    BuildTiming, CostModel, Dataset, MultiDimIndex, Query, Result, ScanPlan, ScanSource, Successor,
    Workload,
};
use tsunami_store::ColumnStore;

/// The Flood learned multi-dimensional index (§2.2).
///
/// Data is clustered by grid cell: the cell lookup table maps each cell id to
/// its contiguous range in the column store.
#[derive(Debug)]
pub struct FloodIndex {
    layout: GridLayout,
    /// `cell_offsets[c]..cell_offsets[c+1]` is the physical row range of cell `c`.
    cell_offsets: Vec<usize>,
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

    /// Builds a Flood index with explicit per-dimension partition counts
    /// (used by tests and by Tsunami's "Grid Tree only" ablation).
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
        let layout = GridLayout::build(data, partitions);
        let num_cells = layout.num_cells();

        // Assign every row to its cell and sort rows by cell id (counting sort).
        let mut cell_of_row = vec![0usize; data.len()];
        let mut counts = vec![0usize; num_cells + 1];
        let d = data.num_dims();
        let mut point = vec![0u64; d];
        for (r, row_cell) in cell_of_row.iter_mut().enumerate() {
            for (dim, coord) in point.iter_mut().enumerate() {
                *coord = data.get(r, dim);
            }
            let c = layout.cell_of(&point);
            *row_cell = c;
            counts[c + 1] += 1;
        }
        for c in 0..num_cells {
            counts[c + 1] += counts[c];
        }
        let cell_offsets = counts.clone();
        // Stable counting sort producing the permutation: position -> source row.
        let mut next = counts;
        let mut perm = vec![0usize; data.len()];
        for (r, &c) in cell_of_row.iter().enumerate() {
            perm[next[c]] = r;
            next[c] += 1;
        }

        let mut store = ColumnStore::from_dataset(data);
        store.permute(&perm);
        store.encode_blocks();
        let sort_secs = sort_start.elapsed().as_secs_f64();

        Self {
            layout,
            cell_offsets,
            store,
            timing: BuildTiming {
                sort_secs,
                optimize_secs,
            },
            predicted_cost,
        }
    }

    /// Absorbs new rows into the existing grid **without a rebuild** — the
    /// sorted-merge ingest: the layout's per-dimension models are widened to
    /// cover the batch (so out-of-domain values clamp into partitions with
    /// truthful value bounds), each row is routed to its cell, and one
    /// store-wide permutation splices the batch into cell order. No
    /// optimizer runs; the partition boundaries stay as built, so heavy
    /// sustained ingest should eventually be followed by a rebuild.
    pub fn ingest(&self, rows: &Dataset) -> Self {
        assert_eq!(
            rows.num_dims(),
            self.layout.num_dims(),
            "ingested rows must match the index width"
        );
        let start = Instant::now();
        let n = self.store.len();
        let mut layout = self.layout.clone();
        layout.widen_for(rows);

        // Route the batch: new row j (store index n + j) joins cell c.
        let num_cells = layout.num_cells();
        let mut per_cell: Vec<Vec<usize>> = vec![Vec::new(); num_cells];
        let d = rows.num_dims();
        let mut point = vec![0u64; d];
        for j in 0..rows.len() {
            for (dim, coord) in point.iter_mut().enumerate() {
                *coord = rows.get(j, dim);
            }
            per_cell[layout.cell_of(&point)].push(n + j);
        }

        // Splice: every cell's slice is its old rows followed by its new
        // rows; offsets shift by the running count of inserted rows.
        let mut store = self.store.clone();
        store.append_dataset(rows);
        let mut perm: Vec<usize> = Vec::with_capacity(n + rows.len());
        let mut cell_offsets = Vec::with_capacity(self.cell_offsets.len());
        for (c, news) in per_cell.iter().enumerate() {
            cell_offsets.push(perm.len());
            perm.extend(self.cell_offsets[c]..self.cell_offsets[c + 1]);
            perm.extend(news);
        }
        cell_offsets.push(perm.len());
        store.permute(&perm);
        store.encode_blocks();

        Self {
            layout,
            cell_offsets,
            store,
            timing: BuildTiming {
                sort_secs: start.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
            predicted_cost: self.predicted_cost,
        }
    }

    /// The grid layout in use.
    pub fn layout(&self) -> &GridLayout {
        &self.layout
    }

    /// Number of grid cells (Table 4 reports this).
    pub fn num_cells(&self) -> usize {
        self.layout.num_cells()
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
        let d = self.layout.num_dims();
        let pr = self.layout.partition_ranges(query);
        let runs = self.layout.cell_runs(&pr);
        let mut plan = ScanPlan::new();
        for (first_cell, last_cell, exact) in runs {
            // Physically contiguous, equally exact cell runs merge in the
            // plan automatically.
            plan.push(
                self.cell_offsets[first_cell]..self.cell_offsets[last_cell + 1],
                exact,
            );
        }
        // Residual elimination: drop the predicates whose every intersecting
        // partition the grid bounds exactly — only genuinely undecided
        // dimensions are re-checked inside non-exact cells.
        let guaranteed: Vec<bool> = (0..d)
            .map(|dim| self.layout.dim_guaranteed(&pr, dim))
            .collect();
        plan.with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        self.layout.size_bytes() + self.cell_offsets.len() * std::mem::size_of::<usize>()
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn ingest_batch(&self, rows: &Dataset) -> Result<Option<Successor>> {
        Ok(Some(Successor::patched(self.ingest(rows), rows.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggResult, Predicate};

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
        // max (bucket clamping + model widening must keep exactness sound).
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
        let ingested = index.ingest(&batch);

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
    fn empty_dataset_is_handled() {
        let data = Dataset::from_columns(vec![vec![], vec![]]).unwrap();
        let index = FloodIndex::build_with_partitions(&data, &[4, 4]);
        let q = Query::count(vec![Predicate::range(0, 0, 10).unwrap()]).unwrap();
        assert_eq!(index.execute(&q), AggResult::Count(0));
    }
}
