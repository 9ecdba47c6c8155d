//! Clustered single-dimensional index (§6.1, baseline 1).
//!
//! Points are sorted by the workload's most selective dimension. When a query
//! filters that dimension, the matching row range is located with binary
//! search and only that range is scanned (checking the remaining predicates);
//! otherwise the index degenerates to a full scan.
//!
//! The sort dimension is the one whose filtering queries are, on average,
//! the most selective, weighted by how often it is filtered. The sample
//! workload's selectivities are counted in one pass per column
//! ([`filtered_selectivities`]), not one pass per query.
//!
//! The index keeps no copy of its sort column: the store is clustered on it,
//! so `plan()` binary-searches the store's own sorted column — over the
//! encoded blocks' bounds first, then inside the one block the boundary
//! falls in (reading single values out of its packed payload), or over the
//! plain tail. What the index keeps beyond the store is each dimension's
//! value domain, for residual-predicate elimination.
//!
//! A write keeps the sort dimension: [`MultiDimIndex::relayout`] sorts the
//! mutated rows on it again, without asking the workload.

use std::time::Instant;

use tsunami_core::exec::BLOCK_ROWS;
use tsunami_core::{
    BuildTiming, Dataset, MultiDimIndex, Query, ScanPlan, ScanSource, SharedIndex, Value, Workload,
};
use tsunami_store::ColumnStore;

use crate::selectivity::filtered_selectivities;

/// A clustered index sorted on a single dimension.
#[derive(Debug)]
pub struct ClusteredSingleDimIndex {
    /// The rows in sort-dimension order.
    store: ColumnStore,
    sort_dim: usize,
    /// Per-dimension `(min, max)` value bounds of the stored data, used to
    /// drop residual predicates the whole table trivially satisfies.
    domains: Vec<(Value, Value)>,
    timing: BuildTiming,
}

impl ClusteredSingleDimIndex {
    /// Picks the most selective dimension of the workload: the filtered
    /// dimension with the lowest average per-dimension selectivity.
    pub fn choose_sort_dim(data: &Dataset, workload: &Workload) -> usize {
        let mut best_dim = 0usize;
        let mut best_sel = f64::INFINITY;
        for (dim, sels) in filtered_selectivities(data, workload).iter().enumerate() {
            if sels.is_empty() {
                continue;
            }
            // Weight by how often the dimension is filtered.
            let count = sels.len() as f64;
            let avg = sels.iter().sum::<f64>() / count;
            let freq = count / workload.len().max(1) as f64;
            let score = avg / freq.max(1e-6);
            if score < best_sel {
                best_sel = score;
                best_dim = dim;
            }
        }
        best_dim
    }

    /// Builds the index sorted on the workload's most selective dimension.
    pub fn build(data: &Dataset, workload: &Workload) -> Self {
        let sort_dim = Self::choose_sort_dim(data, workload);
        Self::build_on_dim(data, sort_dim)
    }

    /// Builds the index sorted on an explicit dimension.
    pub fn build_on_dim(data: &Dataset, sort_dim: usize) -> Self {
        let start = Instant::now();
        let col = data.column(sort_dim);
        let mut perm: Vec<usize> = (0..data.len()).collect();
        perm.sort_by_key(|&r| col[r]);
        let domains: Vec<(Value, Value)> = (0..data.num_dims())
            .map(|d| data.domain(d).unwrap_or((0, 0)))
            .collect();
        Self {
            store: ColumnStore::clustered(data, &perm),
            sort_dim,
            domains,
            timing: BuildTiming {
                sort_secs: start.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
        }
    }

    /// The number of leading rows whose sort-dimension value satisfies
    /// `before`, a test that holds on a prefix of the sort order: a binary
    /// search of the store's sorted column, over its encoded blocks' upper
    /// bounds, then inside the one block where `before` stops holding, or
    /// over the plain tail when it holds on every block.
    fn partition_point(&self, before: impl Fn(Value) -> bool) -> usize {
        let column = self.store.column(self.sort_dim).data();
        let whole = column.blocks.partition_point(|eb| before(eb.bounds().1));
        let Some(block) = column.blocks.get(whole) else {
            return whole * BLOCK_ROWS + column.tail.partition_point(|&v| before(v));
        };
        let (mut lo, mut hi) = (0, block.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(block.value_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        whole * BLOCK_ROWS + lo
    }

    /// Whether the whole table already satisfies a predicate (its range
    /// covers the dimension's entire stored value domain), making any
    /// re-check of it redundant.
    fn covered_by_domain(&self, p: &tsunami_core::Predicate) -> bool {
        match self.domains.get(p.dim) {
            Some(&(lo, hi)) => p.lo <= lo && hi <= p.hi,
            None => false,
        }
    }

    /// The dimension the data is sorted by.
    pub fn sort_dim(&self) -> usize {
        self.sort_dim
    }
}

impl MultiDimIndex for ClusteredSingleDimIndex {
    fn name(&self) -> &str {
        "SingleDim"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let on_sort_dim = query.predicate_on(self.sort_dim);
        let plan = match on_sort_dim {
            None => ScanPlan::full(self.store.len()),
            Some(pred) => {
                let start = self.partition_point(|v| v < pred.lo);
                let end = self.partition_point(|v| v <= pred.hi);
                // The binary search already guarantees the sort-dimension
                // predicate for every row in the range: if it is the only
                // filter the range is exact.
                ScanPlan::from_ranges([(start..end, query.num_filtered_dims() == 1)])
            }
        };
        // Residual elimination: the binary search guarantees the sort
        // dimension (when filtered), and the stored per-dimension value
        // domains guarantee any predicate covering them whole.
        let guaranteed: Vec<bool> = (0..self.store.num_dims())
            .map(|dim| {
                (dim == self.sort_dim && on_sort_dim.is_some())
                    || query
                        .predicate_on(dim)
                        .is_none_or(|p| self.covered_by_domain(p))
            })
            .collect();
        plan.with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        // The sort order is the store's own; beyond it the index keeps the
        // per-dimension domains.
        self.domains.len() * 2 * std::mem::size_of::<Value>()
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn relayout(&self, data: &Dataset) -> Option<SharedIndex> {
        Some(Box::new(Self::build_on_dim(data, self.sort_dim)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::Predicate;

    fn data() -> Dataset {
        let mut rng = SplitMix::new(5);
        Dataset::from_columns(vec![
            (0..2000).map(|_| rng.next_below(1000)).collect(),
            (0..2000u64).map(|v| v % 777).collect(),
        ])
        .unwrap()
    }

    /// The per-query loop `choose_sort_dim` replaced, kept as the reference
    /// it must match.
    fn choose_sort_dim_reference(data: &Dataset, workload: &Workload) -> usize {
        let d = data.num_dims();
        let mut best_dim = 0usize;
        let mut best_sel = f64::INFINITY;
        for dim in 0..d {
            let mut sel_sum = 0.0;
            let mut count = 0usize;
            for q in workload.queries() {
                if q.predicate_on(dim).is_some() {
                    sel_sum += q.dim_selectivity(data, dim);
                    count += 1;
                }
            }
            if count > 0 {
                let avg = sel_sum / count as f64;
                let freq = count as f64 / workload.len().max(1) as f64;
                let score = avg / freq.max(1e-6);
                if score < best_sel {
                    best_sel = score;
                    best_dim = dim;
                }
            }
        }
        best_dim
    }

    #[test]
    fn sort_dim_choice_matches_the_per_query_loop() {
        let mut rng = SplitMix::new(71);
        for round in 0..30usize {
            let n = [0, 1, 500, 3_000][round % 4];
            let dims = 1 + round % 4;
            let data = Dataset::from_columns(
                (0..dims)
                    .map(|dim| (0..n).map(|_| rng.next_below(10 << dim)).collect())
                    .collect(),
            )
            .unwrap();
            let mut queries = Vec::new();
            for _ in 0..rng.next_below(12) {
                let mut preds = Vec::new();
                for dim in 0..dims {
                    // The last dimension is never filtered.
                    if dim + 1 == dims && dims > 1 || rng.next_below(2) == 0 {
                        continue;
                    }
                    let lo = rng.next_below(10 << dim);
                    preds.push(Predicate::range(dim, lo, lo + rng.next_below(8 << dim)).unwrap());
                }
                queries.push(Query::count(preds).unwrap());
            }
            let w = Workload::new(queries);
            assert_eq!(
                ClusteredSingleDimIndex::choose_sort_dim(&data, &w),
                choose_sort_dim_reference(&data, &w),
                "round {round}"
            );
        }
    }

    /// The sort range `plan()` finds for `lo..=hi` on `sort_dim` must be
    /// the `partition_point` pair over the decoded sort column.
    fn assert_plans_like_a_search(
        idx: &dyn MultiDimIndex,
        sort_dim: usize,
        bounds: &[(Value, Value)],
    ) {
        let source = idx.source();
        let keys = (source.column_data(sort_dim)).decode_range(0..source.num_rows());
        for &(lo, hi) in bounds {
            let q = Query::count(vec![Predicate::range(sort_dim, lo, hi).unwrap()]).unwrap();
            let start = keys.partition_point(|&v| v < lo);
            let end = keys.partition_point(|&v| v <= hi);
            let expected = ScanPlan::from_ranges([(start..end, true)]);
            assert_eq!(idx.plan(&q).ranges(), expected.ranges(), "{lo}..={hi}");
        }
    }

    #[test]
    fn plan_searches_the_sorted_store_like_the_decoded_column() {
        // Three encoded blocks and a plain tail; every value repeats ~40
        // times, so runs of one value straddle the block boundaries.
        let n = 3 * BLOCK_ROWS + 300;
        let mut rng = SplitMix::new(73);
        let ds = Dataset::from_columns(vec![
            (0..n)
                .map(|_| 10 + 2 * rng.next_below(n as u64 / 40))
                .collect(),
            (0..n).map(|_| rng.next_below(1_000)).collect(),
        ])
        .unwrap();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        let column = idx.store.column(0);
        assert_eq!(column.encoded_blocks().len(), 3);
        assert_eq!(column.tail_rows(), 300);
        let mut bounds = vec![
            // Outside the domain, and ranges holding no value (the stored
            // values are even).
            (0, 9),
            (0, 0),
            (u64::MAX, u64::MAX),
            (1 << 40, u64::MAX),
            (11, 11),
            (13, 13),
            (0, u64::MAX),
        ];
        // The values either side of every block boundary, and inside the
        // tail, as points and as ranges.
        for row in [
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            2 * BLOCK_ROWS - 1,
            2 * BLOCK_ROWS,
            3 * BLOCK_ROWS - 1,
            3 * BLOCK_ROWS,
            3 * BLOCK_ROWS + 150,
            n - 1,
        ] {
            let v = column.get(row);
            bounds.extend([(v, v), (v - 1, v + 1), (0, v), (v, u64::MAX)]);
        }
        for _ in 0..200 {
            let lo = rng.next_below(n as u64 / 20 + 20);
            bounds.push((lo, lo + rng.next_below(200)));
        }
        assert_plans_like_a_search(&idx, 0, &bounds);

        // Laid out again with 700 more rows, the sorted store has a new
        // block layout and tail.
        let mut merged = ds.clone();
        for _ in 0..700 {
            let key = 11 + 2 * rng.next_below(n as u64 / 40);
            merged.push_row(&[key, rng.next_below(1_000)]).unwrap();
        }
        let relaid = idx.relayout(&merged).unwrap();
        let column = relaid.source().column_data(0);
        assert_eq!((column.blocks.len(), column.tail.len()), (3, 1_000));
        bounds.extend((0..100).map(|v| (11 + 2 * v, 11 + 2 * v)));
        assert_plans_like_a_search(relaid.as_ref(), 0, &bounds);
    }

    #[test]
    fn an_empty_table_plans_nothing() {
        let ds = Dataset::from_columns(vec![vec![], vec![]]).unwrap();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 1);
        assert_plans_like_a_search(&idx, 1, &[(0, 0), (0, u64::MAX), (5, 9)]);
        assert!(idx.size_bytes() > 0);
    }

    #[test]
    fn chooses_most_selective_dimension() {
        let ds = data();
        let w = Workload::new(vec![Query::count(vec![
            Predicate::range(0, 0, 900).unwrap(),
            Predicate::range(1, 10, 20).unwrap(),
        ])
        .unwrap()]);
        assert_eq!(ClusteredSingleDimIndex::choose_sort_dim(&ds, &w), 1);
    }

    #[test]
    fn matches_full_scan_on_sorted_dim_queries() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        for (lo, hi) in [(0u64, 99u64), (500, 700), (990, 2000), (1500, 1600)] {
            let q = Query::count(vec![Predicate::range(0, lo, hi).unwrap()]).unwrap();
            assert_eq!(idx.execute(&q), q.execute_full_scan(&ds));
        }
    }

    #[test]
    fn matches_full_scan_on_multi_dim_and_unsorted_queries() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        let q = Query::count(vec![
            Predicate::range(0, 100, 500).unwrap(),
            Predicate::range(1, 0, 300).unwrap(),
        ])
        .unwrap();
        assert_eq!(idx.execute(&q), q.execute_full_scan(&ds));
        // Query that does not filter the sort dimension -> full scan path.
        let q = Query::count(vec![Predicate::range(1, 0, 300).unwrap()]).unwrap();
        assert_eq!(idx.execute(&q), q.execute_full_scan(&ds));
    }

    #[test]
    fn sorted_dim_queries_scan_fewer_points() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        let q = Query::count(vec![Predicate::range(0, 100, 150).unwrap()]).unwrap();
        let (_, stats) = idx.execute_with_stats(&q);
        assert!(stats.points < ds.len() / 2);
        let q = Query::count(vec![Predicate::range(1, 100, 150).unwrap()]).unwrap();
        let (_, stats) = idx.execute_with_stats(&q);
        assert_eq!(stats.points, ds.len());
    }

    #[test]
    fn relayout_sorts_the_new_rows_and_stays_sound() {
        let ds = data();
        let idx = ClusteredSingleDimIndex::build_on_dim(&ds, 0);
        // The old rows plus some beyond the build-time domain of both dims.
        let mut merged = ds.clone();
        for row in [[5, 1], [500, 2], [999, 3], [5_000, 4], [5_001, 5_000]] {
            merged.push_row(&row).unwrap();
        }
        let relaid = idx.relayout(&merged).unwrap();

        // The store is sorted on the sort dimension and holds every row.
        let source = relaid.source();
        let keys = source.column_data(0).decode_range(0..source.num_rows());
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(source.num_rows(), merged.len());

        for (lo, hi) in [(0u64, 99u64), (400, 600), (990, 6_000)] {
            let q = Query::count(vec![Predicate::range(0, lo, hi).unwrap()]).unwrap();
            assert_eq!(relaid.execute(&q), q.execute_full_scan(&merged));
        }
        // Residual elimination stays sound: the old whole-domain predicate
        // no longer covers the wider domain, so it must be re-checked (the
        // result must exclude the new out-of-domain rows).
        let (old_lo, old_hi) = ds.domain(1).unwrap();
        let q = Query::count(vec![Predicate::range(1, old_lo, old_hi).unwrap()]).unwrap();
        assert_eq!(relaid.execute(&q), q.execute_full_scan(&merged));
        // And the *new* whole-domain predicate is dropped from the residual.
        let (lo, hi) = merged.domain(1).unwrap();
        let q = Query::count(vec![Predicate::range(1, lo, hi).unwrap()]).unwrap();
        let plan = relaid.plan(&q);
        assert!(plan.residual(&q).is_empty());
        assert_eq!(relaid.execute(&q), q.execute_full_scan(&merged));
    }

    #[test]
    fn relayout_keeps_the_sort_dimension() {
        let ds = data();
        let w = Workload::new(vec![
            Query::count(vec![Predicate::range(0, 0, 900).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(1, 5, 10).unwrap()]).unwrap(),
        ]);
        let idx = ClusteredSingleDimIndex::build(&ds, &w);
        assert_eq!(idx.sort_dim(), 1);
        // Rows on which the same workload would sort on dimension 0: every
        // row holds a value of dimension 1 that its query keeps.
        let other = Dataset::from_columns(vec![(0..3_000).collect(), vec![7; 3_000]]).unwrap();
        assert_eq!(ClusteredSingleDimIndex::choose_sort_dim(&other, &w), 0);
        let relaid = idx.relayout(&other).unwrap();
        let kept = ClusteredSingleDimIndex::build_on_dim(&other, 1);
        for q in [
            Query::count(vec![Predicate::range(0, 10, 40).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(1, 7, 7).unwrap()]).unwrap(),
        ] {
            assert_eq!(relaid.plan(&q), kept.plan(&q), "{q:?}");
            assert_eq!(relaid.execute(&q), q.execute_full_scan(&other));
        }
        assert_eq!(relaid.build_timing().optimize_secs, 0.0);
    }

    #[test]
    fn build_uses_workload_to_pick_dim() {
        let ds = data();
        let w = Workload::new(vec![Query::count(
            vec![Predicate::range(1, 5, 10).unwrap()],
        )
        .unwrap()]);
        let idx = ClusteredSingleDimIndex::build(&ds, &w);
        assert_eq!(idx.sort_dim(), 1);
        assert!(idx.size_bytes() > 0);
        assert!(idx.build_timing().sort_secs >= 0.0);
        assert_eq!(idx.name(), "SingleDim");
    }
}
