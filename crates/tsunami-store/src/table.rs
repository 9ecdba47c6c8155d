//! The clustered column store: permuted physical storage scanned through the
//! shared vectorized executor (with the paper's exact-range optimization).
//!
//! An index build makes its store with [`ColumnStore::clustered`]: each
//! column is gathered from the input in layout order one block at a time
//! and encoded as it goes, so the build moves every value once, with no
//! plain copy of the table and no permute pass. Ingest, grafts and
//! compaction then restructure the store in place
//! ([`ColumnStore::append_dataset`], [`ColumnStore::select`],
//! [`ColumnStore::permute_range`]) and re-encode what they moved.

use std::ops::Range;

use crate::column::Column;
use tsunami_core::exec::{ColumnData, ScanSource, BLOCK_ROWS};
use tsunami_core::{Dataset, Predicate, Query, TombstoneSet, Value};

/// A column-oriented physical table.
///
/// Indexes are *clustered*: at build time each index computes a permutation
/// of the rows (its sort order / cell order) and gathers its store in that
/// order, straight from the input, with [`ColumnStore::clustered`]. Queries
/// then scan contiguous row ranges through the executor in
/// [`tsunami_core::exec`]. [`ColumnStore::permute`] and
/// [`ColumnStore::permute_range`] reorder a store that already exists, as
/// ingest does.
///
/// The store holds no per-query mutable state — scan counters are threaded
/// through the executor and returned per call — so a `ColumnStore` is `Sync`
/// and many queries can scan it concurrently.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    columns: Vec<Column>,
    len: usize,
    /// Deletion bitmap: one bit per physical row, set = tombstoned. The
    /// executor ANDs liveness into every selection (see
    /// [`ScanSource::tombstones`]); bits travel with rows through every
    /// permutation and are physically dropped only by a
    /// [`ColumnStore::select`] that leaves their rows out (compaction).
    tombstones: TombstoneSet,
}

impl ColumnStore {
    /// Builds a store from a logical dataset (copying the data).
    pub fn from_dataset(data: &Dataset) -> Self {
        let columns = (0..data.num_dims())
            .map(|d| Column::new(data.column(d).to_vec()))
            .collect();
        Self {
            columns,
            len: data.len(),
            tombstones: TombstoneSet::new(data.len()),
        }
    }

    /// Builds a store holding `data`'s rows in layout order, its full
    /// blocks encoded: new row `i` holds `data`'s row `order[i]`. This is
    /// how an index lays out its table at build. It equals
    /// [`ColumnStore::from_dataset`], a [`ColumnStore::permute`] by `order`
    /// and [`ColumnStore::encode_blocks`] block for block, but gathers each
    /// column straight from `data` a block at a time, moving each value
    /// once instead of three times.
    ///
    /// # Panics
    ///
    /// When `order` is not as long as `data`.
    pub fn clustered(data: &Dataset, order: &[usize]) -> Self {
        assert_eq!(
            order.len(),
            data.len(),
            "permutation length must match row count"
        );
        let columns = (0..data.num_dims())
            .map(|d| Column::gathered(data.column(d), order))
            .collect();
        Self {
            columns,
            len: data.len(),
            tombstones: TombstoneSet::new(data.len()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns (dimensions).
    pub fn num_dims(&self) -> usize {
        self.columns.len()
    }

    /// The column for a dimension.
    pub fn column(&self, dim: usize) -> &Column {
        &self.columns[dim]
    }

    /// Value of row `row` in dimension `dim`.
    #[inline]
    pub fn get(&self, row: usize, dim: usize) -> Value {
        self.columns[dim].get(row)
    }

    /// Physically reorders all columns so that new row `i` holds what was at
    /// row `perm[i]`. This is the "data sorting" phase of index creation.
    pub fn permute(&mut self, perm: &[usize]) {
        assert_eq!(
            perm.len(),
            self.len,
            "permutation length must match row count"
        );
        self.select(perm);
    }

    /// Rebuilds the store from the listed rows, in the listed order: new row
    /// `i` holds what was at row `rows[i]`, and every row not listed is
    /// dropped with its tombstone bit. [`ColumnStore::permute`] without the
    /// promise that `rows` is a permutation — what lets one pass both
    /// reorder a store and leave its dead rows out.
    pub fn select(&mut self, rows: &[usize]) {
        for c in &mut self.columns {
            c.select(rows);
        }
        let mut tombstones = TombstoneSet::new(rows.len());
        if self.tombstones.any() {
            for (new, &old) in rows.iter().enumerate() {
                if self.tombstones.is_deleted(old) {
                    tombstones.mark(new);
                }
            }
        }
        self.tombstones = tombstones;
        self.len = rows.len();
    }

    /// Appends a dataset's rows at the end of the store (the *append
    /// region*). The new rows keep the dataset's order; the owning index is
    /// expected to graft them into place afterwards with
    /// [`ColumnStore::select`] / [`ColumnStore::permute_range`] (or leave
    /// them at the tail, for layouts where position is irrelevant). Column
    /// min/max bounds are widened to cover the new values.
    pub fn append_dataset(&mut self, data: &Dataset) {
        assert_eq!(
            data.num_dims(),
            self.num_dims(),
            "appended rows must match the store's width"
        );
        for (dim, c) in self.columns.iter_mut().enumerate() {
            c.append(data.column(dim));
        }
        self.len += data.len();
        self.tombstones.extend_live(data.len());
    }

    /// Reorders rows *within* `base..base + perm.len()` only: new row
    /// `base + i` holds what was at row `base + perm[i]` (local indices).
    /// Rows outside the range are untouched. This is the incremental
    /// re-optimization counterpart of [`ColumnStore::permute`]: a re-laid-out
    /// region rewrites just its own slice of the store.
    pub fn permute_range(&mut self, base: usize, perm: &[usize]) {
        assert!(
            base + perm.len() <= self.len,
            "range permutation must stay in bounds"
        );
        for c in &mut self.columns {
            c.permute_range(base, perm);
        }
        self.tombstones.permute_range(base, perm);
    }

    /// Copies a contiguous row range back out as a logical [`Dataset`]
    /// (store order). Used by incremental re-optimization to rebuild one
    /// region's grid without keeping a second copy of the data around.
    pub fn slice_dataset(&self, range: Range<usize>) -> Dataset {
        let cols: Vec<Vec<Value>> = self
            .columns
            .iter()
            .map(|c| c.decode_range(range.clone()))
            .collect();
        Dataset::from_columns(cols).expect("store columns are equal-length")
    }

    /// Encodes every column's accumulated full blocks. Indexes call this
    /// after build/graft/compaction/append restructures the store; the
    /// trailing partial block stays plain.
    ///
    /// Rows tombstoned *now* are dead at encode time, so each block records
    /// tombstone-aware live bounds: a fully-dead block classifies as skip,
    /// and a block whose extreme rows are dead prunes on the live extremes —
    /// never the stale physical ones. Sound forever, because the live set
    /// only shrinks (deletes accrue; physical mutation re-encodes).
    pub fn encode_blocks(&mut self) {
        let Self {
            columns,
            tombstones,
            ..
        } = self;
        for c in columns.iter_mut() {
            c.encode_blocks(|row| !tombstones.is_deleted(row));
        }
    }

    /// Per-kind encoded-block counts and plain-tail rows, summed over all
    /// columns: `(for, dict, plain_blocks, tail_rows)`. For tests and bench
    /// reporting.
    pub fn encoding_stats(&self) -> (usize, usize, usize, usize) {
        let mut stats = (0, 0, 0, 0);
        for c in &self.columns {
            for eb in c.encoded_blocks() {
                match eb.kind_label() {
                    "for" => stats.0 += 1,
                    "dict" => stats.1 += 1,
                    _ => stats.2 += 1,
                }
            }
            stats.3 += c.tail_rows();
        }
        stats
    }

    /// Size of the stored data in bytes.
    pub fn data_bytes(&self) -> usize {
        self.columns.iter().map(Column::size_bytes).sum()
    }

    /// The store's deletion bitmap.
    pub fn tombstones(&self) -> &TombstoneSet {
        &self.tombstones
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_len(&self) -> usize {
        self.tombstones.live()
    }

    /// Tombstones every live row matching all of the query's predicates.
    /// Returns the number of rows newly deleted. The rows keep their
    /// physical slots (scans skip them via the bitmap) until a compaction — a
    /// [`ColumnStore::select`] of the live rows — removes them.
    ///
    /// The scan goes a [`BLOCK_ROWS`] block at a time: a block whose encoded
    /// bounds exclude a predicate is skipped undecoded, the rest decode only
    /// the predicate columns, into one reused buffer (plain rows are read
    /// in place).
    pub fn delete_where(&mut self, query: &Query) -> usize {
        let preds = query.predicates();
        let mut newly = 0usize;
        let mut hit = [false; BLOCK_ROWS];
        let mut decoded = [0; BLOCK_ROWS];
        for start in (0..self.len).step_by(BLOCK_ROWS) {
            let block = start / BLOCK_ROWS;
            let candidate = |p: &Predicate| self.columns[p.dim].block_may_match(block, p.lo, p.hi);
            if !preds.iter().all(candidate) {
                continue;
            }
            let hit = &mut hit[..BLOCK_ROWS.min(self.len - start)];
            for (i, h) in hit.iter_mut().enumerate() {
                *h = !self.tombstones.is_deleted(start + i);
            }
            for p in preds {
                let col = self.columns[p.dim].data();
                let values = match col.blocks.get(block) {
                    Some(eb) => {
                        eb.decode_into(0, &mut decoded[..hit.len()]);
                        &decoded[..hit.len()]
                    }
                    None => {
                        let at = start - col.blocks.len() * BLOCK_ROWS;
                        &col.tail[at..at + hit.len()]
                    }
                };
                for (h, &v) in hit.iter_mut().zip(values) {
                    *h &= p.matches(v);
                }
            }
            for i in (0..hit.len()).filter(|&i| hit[i]) {
                newly += self.tombstones.mark(start + i) as usize;
            }
        }
        newly
    }

    /// Copies the live rows of a contiguous physical range out as a logical
    /// [`Dataset`], in store order. The tombstone-aware counterpart of
    /// [`ColumnStore::slice_dataset`], used wherever an index rebuilds from
    /// its own store — rebuilding from raw slices would resurrect deleted
    /// rows.
    pub fn live_slice_dataset(&self, range: Range<usize>) -> Dataset {
        tsunami_core::exec::live_dataset(self, range)
    }
}

impl ScanSource for ColumnStore {
    fn num_rows(&self) -> usize {
        self.len
    }
    fn num_dims(&self) -> usize {
        self.columns.len()
    }
    fn column_data(&self, dim: usize) -> ColumnData<'_> {
        self.columns[dim].data()
    }
    fn tombstones(&self) -> Option<&TombstoneSet> {
        Some(&self.tombstones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::exec::{execute_plan, execute_plan_parallel, ScanPlan};
    use tsunami_core::{AggResult, Aggregation, Predicate, ScanCounters};

    /// Runs `(range, exact)` fragments through the shared executor.
    fn execute_ranges<I>(s: &ColumnStore, query: &Query, ranges: I) -> (AggResult, ScanCounters)
    where
        I: IntoIterator<Item = (Range<usize>, bool)>,
    {
        execute_plan(s, query, &ScanPlan::from_ranges(ranges))
    }

    /// Scans the entire store (the trivial index).
    fn full_scan(s: &ColumnStore, query: &Query) -> AggResult {
        execute_plan(s, query, &ScanPlan::full(s.len())).0
    }

    fn store() -> ColumnStore {
        // dim0: 0..100, dim1: (0..100)*2
        let ds = Dataset::from_columns(vec![
            (0..100u64).collect(),
            (0..100u64).map(|v| v * 2).collect(),
        ])
        .unwrap();
        ColumnStore::from_dataset(&ds)
    }

    #[test]
    fn full_scan_matches_reference() {
        let s = store();
        let q = Query::count(vec![Predicate::range(0, 10, 19).unwrap()]).unwrap();
        assert_eq!(full_scan(&s, &q), AggResult::Count(10));
    }

    #[test]
    fn scan_counters_track_ranges_and_points() {
        let s = store();
        let q = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        // Non-adjacent fragments stay distinct ranges.
        let (res, c) = execute_ranges(&s, &q, [(0..40, false), (60..100, false)]);
        assert_eq!(res, AggResult::Count(10));
        assert_eq!(c.ranges, 2);
        assert_eq!(c.points, 80);
        assert_eq!(c.matched, 10);
        // Adjacent fragments of equal exactness are merged by the plan.
        let (_, c) = execute_ranges(&s, &q, [(0..50, false), (50..100, false)]);
        assert_eq!(c.ranges, 1);
        assert_eq!(c.points, 100);
    }

    #[test]
    fn counters_come_from_the_call_not_shared_state() {
        // Regression test for the old `Cell<ScanCounters>` double-accounting
        // hazard: two executions over the same store must each see exactly
        // their own work, and an interleaved execution cannot leak into
        // another execution's counters.
        let s = store();
        let q = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        let (_, c1) = execute_ranges(&s, &q, [(0..100, false)]);
        let (_, c2) = execute_ranges(&s, &q, [(0..100, false)]);
        assert_eq!(
            c1, c2,
            "identical executions must report identical counters"
        );

        let (_, mut mine) = execute_ranges(&s, &q, [(0..50, false)]);
        // A scan on another "thread" (same store, different counters).
        let (_, other) = execute_ranges(&s, &q, [(0..100, false)]);
        mine.merge(&execute_ranges(&s, &q, [(50..100, false)]).1);
        assert_eq!(mine.points, 100);
        assert_eq!(mine.ranges, 2);
        assert_eq!(mine.matched, 10);
        assert_eq!(other.points, 100);
        assert_eq!(other.ranges, 1);
    }

    #[test]
    fn concurrent_scans_do_not_interfere() {
        // The store is Sync: many threads can scan simultaneously, each with
        // private counters.
        let s = store();
        let q = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let s = &s;
                    let q = &q;
                    scope.spawn(move || execute_ranges(s, q, [(0..100, false)]))
                })
                .collect();
            for h in handles {
                let (res, c) = h.join().unwrap();
                assert_eq!(res, AggResult::Count(10));
                assert_eq!((c.ranges, c.points, c.matched), (1, 100, 10));
            }
        });
    }

    #[test]
    fn exact_range_skips_filter_checks() {
        let s = store();
        // Query filter actually only matches rows 0..10, but we claim the
        // whole range 0..20 is exact: the store must trust us and count 20.
        let q = Query::count(vec![Predicate::range(0, 0, 9).unwrap()]).unwrap();
        let (res, _) = execute_ranges(&s, &q, [(0..20, true)]);
        assert_eq!(res, AggResult::Count(20));
    }

    #[test]
    fn exact_range_sum_uses_column_sum() {
        let s = store();
        let q = Query::new(
            vec![Predicate::range(0, 0, 9).unwrap()],
            Aggregation::Sum(1),
        )
        .unwrap();
        let (res, _) = execute_ranges(&s, &q, [(0..10, true)]);
        assert_eq!(res, AggResult::Sum((0..10u128).map(|v| v * 2).sum()));
    }

    #[test]
    fn exact_range_min_max_still_correct() {
        let s = store();
        let q = Query::new(vec![], Aggregation::Max(1)).unwrap();
        let (res, _) = execute_ranges(&s, &q, [(5..10, true)]);
        assert_eq!(res, AggResult::Max(Some(18)));
        let q = Query::new(vec![], Aggregation::Min(1)).unwrap();
        let (res, _) = execute_ranges(&s, &q, [(5..10, true)]);
        assert_eq!(res, AggResult::Min(Some(10)));
    }

    #[test]
    fn permute_reorders_rows_consistently() {
        let mut s = store();
        let perm: Vec<usize> = (0..100).rev().collect();
        s.permute(&perm);
        assert_eq!(s.get(0, 0), 99);
        assert_eq!(s.get(0, 1), 198);
        assert_eq!(s.get(99, 0), 0);
        // Query results are unchanged by physical reordering.
        let q = Query::count(vec![Predicate::range(0, 10, 19).unwrap()]).unwrap();
        assert_eq!(full_scan(&s, &q), AggResult::Count(10));
    }

    #[test]
    fn select_keeps_the_listed_rows_and_their_tombstones() {
        let mut s = store();
        let del = Query::count(vec![Predicate::range(0, 10, 19).unwrap()]).unwrap();
        assert_eq!(s.delete_where(&del), 10);
        // Rows 30..5 backwards: 10 of the 25 are dead; everything else goes.
        let rows: Vec<usize> = (5..30).rev().collect();
        s.select(&rows);
        assert_eq!((s.len(), s.live_len()), (25, 15));
        assert_eq!((s.get(0, 0), s.get(24, 1)), (29, 10));
        assert_eq!((s.column(0).min(), s.column(0).max()), (Some(5), Some(29)));
        let q = Query::count(vec![]).unwrap();
        assert_eq!(full_scan(&s, &q), AggResult::Count(15));
        let live = s.live_slice_dataset(0..25);
        assert_eq!(live.column(0)[..3], [29, 28, 27]);
        assert_eq!(live.column(0)[10..12], [9, 8]);
    }

    #[test]
    fn append_dataset_grows_the_store_and_answers_correctly() {
        let mut s = store();
        let extra = Dataset::from_columns(vec![vec![100, 101], vec![200, 202]]).unwrap();
        s.append_dataset(&extra);
        assert_eq!(s.len(), 102);
        assert_eq!(s.get(100, 0), 100);
        assert_eq!(s.get(101, 1), 202);
        assert_eq!((s.column(0).min(), s.column(0).max()), (Some(0), Some(101)));
        let q = Query::count(vec![Predicate::range(0, 95, 200).unwrap()]).unwrap();
        assert_eq!(full_scan(&s, &q), AggResult::Count(7));
    }

    #[test]
    fn out_of_bounds_ranges_are_clamped() {
        let s = store();
        let q = Query::count(vec![]).unwrap();
        let (res, _) = execute_ranges(&s, &q, [(90..500, false)]);
        assert_eq!(res, AggResult::Count(10));
        let (res, c) = execute_ranges(&s, &q, [(500..600, false)]);
        assert_eq!(res, AggResult::Count(0));
        assert_eq!(c.ranges, 0);
    }

    #[test]
    fn parallel_plan_execution_matches_serial() {
        let ds = Dataset::from_columns(vec![
            (0..30_000u64).collect(),
            (0..30_000u64).map(|v| v % 321).collect(),
        ])
        .unwrap();
        let s = ColumnStore::from_dataset(&ds);
        let q = Query::new(
            vec![Predicate::range(1, 5, 200).unwrap()],
            Aggregation::Sum(0),
        )
        .unwrap();
        let plan = ScanPlan::full(s.len());
        let (serial, sc) = execute_plan(&s, &q, &plan);
        let (parallel, pc) = execute_plan_parallel(&s, &q, &plan, 4);
        assert_eq!(serial, parallel);
        assert_eq!(sc, pc);
    }

    #[test]
    fn delete_where_hides_rows_from_every_scan_shape() {
        // The small plain store, and one with two encoded blocks and a plain
        // tail (dim0 = row id, dim1 = 2 * row id in both): bands inside a
        // block, across a block boundary, and in the tail.
        let n = 2 * BLOCK_ROWS + 100;
        let mut encoded = ColumnStore::from_dataset(
            &Dataset::from_columns(vec![
                (0..n as u64).collect(),
                (0..n as u64).map(|v| v * 2).collect(),
            ])
            .unwrap(),
        );
        encoded.encode_blocks();
        assert_eq!(encoded.column(0).encoded_blocks().len(), 2);
        assert_eq!(encoded.column(0).tail_rows(), 100);
        let b = BLOCK_ROWS as u64;
        let cases = [
            (store(), vec![(10, 20)]),
            (
                encoded,
                vec![(10, 20), (b - 5, b + 5), (2 * b + 40, 2 * b + 50)],
            ),
        ];
        for (mut s, bands) in cases {
            let n = s.len();
            for &(lo, end) in &bands {
                let preds = vec![
                    Predicate::range(0, lo, end - 1).unwrap(),
                    Predicate::range(1, 0, u64::MAX).unwrap(),
                ];
                let del = Query::count(preds).unwrap();
                assert_eq!(s.delete_where(&del), 10);
                // Re-deleting is a no-op.
                assert_eq!(s.delete_where(&del), 0);
            }
            let dead = 10 * bands.len();
            assert_eq!((s.len(), s.live_len()), (n, n - dead));
            // A band no block's bounds admit deletes nothing.
            let none = Query::count(vec![Predicate::range(0, 1 << 40, 1 << 41).unwrap()]).unwrap();
            assert_eq!(s.delete_where(&none), 0);

            // Non-exact scan: the deleted band no longer matches.
            let q = Query::count(vec![Predicate::range(0, 0, 29).unwrap()]).unwrap();
            assert_eq!(full_scan(&s, &q), AggResult::Count(20));
            // Exact range over the deleted band: liveness still applies.
            let all = Query::count(vec![]).unwrap();
            let (res, c) = execute_ranges(&s, &all, [(0..30, true)]);
            assert_eq!(res, AggResult::Count(20));
            assert_eq!(c.matched, 20);
            assert_eq!(full_scan(&s, &all), AggResult::Count((n - dead) as u64));
            // Aggregations over the store skip tombstoned values.
            let sum = Query::new(vec![], Aggregation::Sum(1)).unwrap();
            let expected: u128 = (0..n as u64)
                .filter(|v| !bands.iter().any(|(lo, end)| (lo..end).contains(&v)))
                .map(|v| v as u128 * 2)
                .sum();
            assert_eq!(full_scan(&s, &sum), AggResult::Sum(expected));
        }
    }

    #[test]
    fn tombstones_travel_through_permutations() {
        let mut s = store();
        let del = Query::count(vec![Predicate::range(0, 0, 4).unwrap()]).unwrap();
        assert_eq!(s.delete_where(&del), 5);
        let perm: Vec<usize> = (0..100).rev().collect();
        s.permute(&perm);
        let q = Query::count(vec![]).unwrap();
        assert_eq!(full_scan(&s, &q), AggResult::Count(95));
        // Reorder a slice containing deleted rows; results unchanged.
        let reversed: Vec<usize> = (0..10).rev().collect();
        s.permute_range(90, &reversed);
        assert_eq!(full_scan(&s, &q), AggResult::Count(95));
        assert_eq!(s.tombstones().deleted(), 5);
    }

    #[test]
    fn selecting_the_live_rows_compacts_physically() {
        let mut s = store();
        let del = Query::count(vec![Predicate::range(0, 40, 59).unwrap()]).unwrap();
        assert_eq!(s.delete_where(&del), 20);
        s.select(&s.tombstones().live_rows());
        assert_eq!((s.len(), s.live_len()), (80, 80));
        assert!(!s.tombstones().any());
        let q = Query::count(vec![]).unwrap();
        assert_eq!(full_scan(&s, &q), AggResult::Count(80));
        // Values survived compaction in order.
        assert_eq!(s.get(39, 0), 39);
        assert_eq!(s.get(40, 0), 60);
    }

    #[test]
    fn live_slice_dataset_excludes_tombstones() {
        let mut s = store();
        let del = Query::count(vec![Predicate::range(0, 2, 3).unwrap()]).unwrap();
        s.delete_where(&del);
        let ds = s.live_slice_dataset(0..6);
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.column(0), &[0, 1, 4, 5]);
        // Without tombstones in range the raw slice path is taken.
        let ds = s.live_slice_dataset(10..12);
        assert_eq!(ds.column(0), &[10, 11]);
    }

    #[test]
    fn data_bytes_counts_all_columns() {
        let s = store();
        assert_eq!(s.data_bytes(), 2 * 100 * 8);
        assert_eq!(s.num_dims(), 2);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
    }

    /// dim0 FOR-compressible, dim1 low-cardinality (dict), dim2
    /// incompressible (plain fallback).
    fn big_dataset(n: u64) -> Dataset {
        Dataset::from_columns(vec![
            (0..n).map(|v| v * 29 % 4096).collect(),
            (0..n).map(|v| (v * 7 % 19) * 1_000_000_007).collect(),
            (0..n)
                .map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        ])
        .unwrap()
    }

    fn queries() -> Vec<Query> {
        let preds = vec![
            Predicate::range(0, 500, 2500).unwrap(),
            Predicate::range(1, 3 * 1_000_000_007, 11 * 1_000_000_007).unwrap(),
        ];
        vec![
            Query::count(preds.clone()).unwrap(),
            Query::new(preds.clone(), Aggregation::Sum(0)).unwrap(),
            Query::new(preds.clone(), Aggregation::Sum(2)).unwrap(),
            Query::new(preds.clone(), Aggregation::Min(2)).unwrap(),
            Query::new(preds, Aggregation::Max(0)).unwrap(),
            Query::count(vec![Predicate::range(2, 0, u64::MAX / 3).unwrap()]).unwrap(),
        ]
    }

    #[test]
    fn encoded_store_matches_plain_store_bit_for_bit() {
        let n = 7 * BLOCK_ROWS as u64 + 123;
        let ds = big_dataset(n);
        let plain = ColumnStore::from_dataset(&ds);
        let mut encoded = plain.clone();
        encoded.encode_blocks();
        let (for_b, dict_b, _, tail) = encoded.encoding_stats();
        assert!(for_b > 0, "dim0 must FOR-encode");
        assert!(dict_b > 0, "dim1 must dict-encode");
        assert_eq!(tail, 3 * 123, "partial tail blocks stay plain");
        assert!(encoded.data_bytes() < plain.data_bytes());
        let plan = ScanPlan::from_ranges([
            (0..3_000, false),
            (3_000..3_500, true),
            (4_000..plain.len(), false),
        ]);
        for q in queries() {
            let (want, wc) = execute_plan(&plain, &q, &plan);
            let (got, gc) = execute_plan(&encoded, &q, &plan);
            assert_eq!(got, want, "{q:?}");
            assert_eq!(gc, wc, "counters {q:?}");
            let (par, pc) = execute_plan_parallel(&encoded, &q, &plan, 4);
            assert_eq!(par, want, "parallel {q:?}");
            assert_eq!(pc, wc, "parallel counters {q:?}");
        }
    }

    #[test]
    fn a_clustered_store_equals_a_permuted_then_encoded_copy() {
        let mut rng = tsunami_core::sample::SplitMix::new(9);
        let b = BLOCK_ROWS as u64;
        for n in [0, 1, b - 1, b, 3 * b, 7 * b + 123] {
            let ds = big_dataset(n);
            // A seeded shuffle, and the identity.
            let mut shuffled: Vec<usize> = (0..n as usize).collect();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            for order in [shuffled, (0..n as usize).collect()] {
                let clustered = ColumnStore::clustered(&ds, &order);
                let mut reference = ColumnStore::from_dataset(&ds);
                reference.permute(&order);
                reference.encode_blocks();
                assert_eq!((clustered.len(), clustered.num_dims()), (n as usize, 3));
                assert_eq!(clustered.tombstones(), reference.tombstones());
                for dim in 0..3 {
                    let (got, want) = (clustered.column(dim), reference.column(dim));
                    assert_eq!(got.encoded_blocks().len(), want.encoded_blocks().len());
                    for (g, w) in got.encoded_blocks().iter().zip(want.encoded_blocks()) {
                        assert_eq!(g.data(), w.data(), "payload, dim {dim}");
                        assert_eq!(g.bounds(), w.bounds());
                        assert_eq!(g.live_bounds(), w.live_bounds());
                    }
                    assert_eq!(got.data().tail, want.data().tail, "tail, dim {dim}");
                    assert_eq!((got.min(), got.max()), (want.min(), want.max()));
                    assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn a_store_under_one_block_stays_plain() {
        let small = big_dataset(BLOCK_ROWS as u64 - 1);
        let mut s = ColumnStore::from_dataset(&small);
        s.encode_blocks();
        assert_eq!(s.encoding_stats(), (0, 0, 0, (BLOCK_ROWS - 1) * 3));
    }

    #[test]
    fn ingest_appends_stay_plain_until_next_encode() {
        let n = 2 * BLOCK_ROWS as u64;
        let mut s = ColumnStore::from_dataset(&big_dataset(n));
        s.encode_blocks();
        assert_eq!(s.encoding_stats().3, 0);
        // Appends land in the plain tail: mixed encoded/plain scans.
        s.append_dataset(&big_dataset(BLOCK_ROWS as u64 + 77));
        let (_, _, _, tail) = s.encoding_stats();
        assert_eq!(tail, 3 * (BLOCK_ROWS + 77));
        let plain = {
            let mut p = ColumnStore::from_dataset(&big_dataset(n));
            p.append_dataset(&big_dataset(BLOCK_ROWS as u64 + 77));
            p
        };
        for q in queries() {
            assert_eq!(full_scan(&s, &q), full_scan(&plain, &q), "{q:?}");
        }
        // The next encode packs the accumulated full blocks.
        s.encode_blocks();
        assert_eq!(s.encoding_stats().3, 3 * 77);
        for q in queries() {
            assert_eq!(
                full_scan(&s, &q),
                full_scan(&plain, &q),
                "{q:?} after encode"
            );
        }
    }

    #[test]
    fn tombstones_then_compaction_keep_encoded_store_oracle_equal() {
        let n = 4 * BLOCK_ROWS as u64;
        let mut enc = ColumnStore::from_dataset(&big_dataset(n));
        let mut plain = enc.clone();
        // Delete before encoding: blocks record tombstone-aware live bounds
        // (one band kills whole blocks' extremes; scattered rows elsewhere).
        let del = Query::count(vec![Predicate::range(0, 0, 64).unwrap()]).unwrap();
        assert_eq!(enc.delete_where(&del), plain.delete_where(&del));
        enc.encode_blocks();
        for q in queries() {
            assert_eq!(full_scan(&enc, &q), full_scan(&plain, &q), "{q:?} deleted");
        }
        // More deletes after encoding: live bounds stay sound (only shrink).
        let del2 = Query::count(vec![Predicate::range(1, 0, 2 * 1_000_000_007).unwrap()]).unwrap();
        assert_eq!(enc.delete_where(&del2), plain.delete_where(&del2));
        for q in queries() {
            assert_eq!(full_scan(&enc, &q), full_scan(&plain, &q), "{q:?} deleted2");
        }
        // Compaction decodes, drops dead rows, and re-encodes.
        assert_eq!(enc.tombstones().live_rows(), plain.tombstones().live_rows());
        enc.select(&enc.tombstones().live_rows());
        plain.select(&plain.tombstones().live_rows());
        enc.encode_blocks();
        assert!(enc.encoding_stats().0 > 0, "re-encoded after compaction");
        for q in queries() {
            assert_eq!(
                full_scan(&enc, &q),
                full_scan(&plain, &q),
                "{q:?} compacted"
            );
        }
        assert_eq!(enc.len(), plain.len());
    }

    #[test]
    fn fully_dead_block_skips_but_stays_correct() {
        let n = 3 * BLOCK_ROWS as u64;
        let mut s = ColumnStore::from_dataset(&big_dataset(n));
        // Tombstone one entire block, then encode: its live bounds are None.
        let mut plain = s.clone();
        for row in BLOCK_ROWS..2 * BLOCK_ROWS {
            let q = Query::count(vec![
                Predicate::range(0, s.get(row, 0), s.get(row, 0)).unwrap(),
                Predicate::range(2, s.get(row, 2), s.get(row, 2)).unwrap(),
            ])
            .unwrap();
            s.delete_where(&q);
            plain.delete_where(&q);
        }
        assert!(s.tombstones().deleted() >= BLOCK_ROWS);
        s.encode_blocks();
        for q in queries() {
            assert_eq!(full_scan(&s, &q), full_scan(&plain, &q), "{q:?}");
        }
    }
}
