//! Registered-query materialized views.
//!
//! A [`MaterializedView`] is a named aggregate query over one table whose
//! answer the engine keeps pre-folded and maintains *incrementally*:
//!
//! * `insert_batch` folds the batch's matching rows into the cached state as
//!   one delta ([`MaterializedView::apply_insert`]) — never a recompute;
//! * `delete` invalidates the state ([`MaterializedView::invalidate`]); it is
//!   recomputed lazily on the next read (tombstoned rows cannot be
//!   "un-folded" from MIN/MAX, so deletes pay the lazy re-fold);
//! * restructures (reindex/compaction swaps) change only the
//!   physical layout, never the live rows, so the state carries through them
//!   untouched.
//!
//! State is an [`AggAccumulator`] — the exact representation the scan path
//! folds into — seeded from one `partial_query` executed through the
//! table's index and folded by `fold_partial`, the same fold a sharded
//! query's per-shard answers take. The partial answer is bit-identical to a
//! scan, and [`AggAccumulator::finish`] applies the same finalization (AVG
//! as SUM/COUNT — never an average of averages), so a view's answer is
//! bit-identical to executing its query from scratch, always.
//!
//! Durability: only the view *spec* (table, name, query) is logged
//! ([`tsunami_store::WalRecord::RegisterView`]); state is never persisted —
//! after recovery it is recomputed from the replayed table, so it cannot
//! diverge from the durable data.

use std::sync::Mutex;

use tsunami_core::{
    AggAccumulator, AggResult, Aggregation, MultiDimIndex, Point, Query, Result, ScanCounters,
};

/// A named, incrementally-maintained aggregate over one table. See the
/// module docs for the maintenance and bit-identity contract.
#[derive(Debug)]
pub struct MaterializedView {
    name: String,
    table: String,
    query: Query,
    /// Pre-folded state, or `None` when invalidated / not yet computed.
    /// Interior mutability so reads (`&Database`) can refresh lazily.
    state: Mutex<Option<AggAccumulator>>,
}

impl MaterializedView {
    /// Creates an unfolded view; the first read computes its state.
    pub fn new(table: String, name: String, query: Query) -> Self {
        Self {
            name,
            table,
            query,
            state: Mutex::new(None),
        }
    }

    /// The view's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table the view aggregates over.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The aggregate query the view materializes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Whether the state is currently folded (diagnostics/tests; a `false`
    /// only means the next read pays a recompute).
    pub fn is_fresh(&self) -> bool {
        self.state.lock().unwrap().is_some()
    }

    /// Drops the cached state; the next read recomputes from the table.
    pub fn invalidate(&self) {
        *self.state.lock().unwrap() = None;
    }

    /// Folds a batch of newly inserted rows into the cached state as one
    /// delta: matching rows are pre-aggregated and applied with a single
    /// [`AggAccumulator::add_block`]. A no-op while invalidated (the lazy
    /// recompute will see the rows in the table).
    pub fn apply_insert(&self, rows: &[Point]) {
        let mut guard = self.state.lock().unwrap();
        let Some(acc) = guard.as_mut() else {
            return;
        };
        let dim = self.query.aggregation().input_dim().unwrap_or(0);
        let mut n = 0u64;
        let mut sum = 0u128;
        let mut min: Option<u64> = None;
        let mut max: Option<u64> = None;
        for row in rows {
            if !self.query.matches_point(row) {
                continue;
            }
            let v = row[dim];
            n += 1;
            sum += v as u128;
            min = Some(min.map_or(v, |m| m.min(v)));
            max = Some(max.map_or(v, |m| m.max(v)));
        }
        acc.add_block(n, sum, min, max);
    }

    /// The view's current answer, recomputing the state through `index` (the
    /// owning table's index) when invalidated. `index` must answer over the
    /// view's table — the database wires this up.
    pub fn value(&self, index: &dyn MultiDimIndex) -> Result<AggResult> {
        let mut guard = self.state.lock().unwrap();
        if guard.is_none() {
            let mut acc = AggAccumulator::new(self.query.aggregation());
            fold_partial(
                &mut acc,
                index.execute_with_stats(&partial_query(&self.query)?),
            );
            *guard = Some(acc);
        }
        Ok(guard.as_ref().expect("folded above").finish())
    }
}

/// The query whose answer, with its [`ScanCounters::matched`], is a
/// foldable partial of `query`: `query` itself, except that AVG asks for the
/// SUM of its dimension (the count comes from the counters).
pub(crate) fn partial_query(query: &Query) -> Result<Query> {
    match query.aggregation() {
        Aggregation::Avg(d) => Query::new(query.predicates().to_vec(), Aggregation::Sum(d)),
        _ => Ok(query.clone()),
    }
}

/// Folds one execution of a [`partial_query`] into `acc` as a single
/// [`AggAccumulator::add_block`] of its matched rows.
pub(crate) fn fold_partial(
    acc: &mut AggAccumulator,
    (result, counters): (AggResult, ScanCounters),
) {
    let (sum, min, max) = match result {
        AggResult::Count(_) => (0, None, None),
        AggResult::Sum(sum) => (sum, None, None),
        AggResult::Min(min) => (0, min, None),
        AggResult::Max(max) => (0, None, max),
        AggResult::Avg(_) => unreachable!("partial_query turns AVG into SUM"),
    };
    acc.add_block(counters.matched as u64, sum, min, max);
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::database::Database;
    use crate::schema::Schema;
    use crate::spec::IndexSpec;
    use tsunami_core::{BuildTiming, Dataset, Predicate, ScanPlan, ScanSource, Workload};

    fn aggregations() -> [Aggregation; 5] {
        [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ]
    }

    #[test]
    fn a_views_first_read_plans_one_query() {
        /// A full-scan index that counts the plans it is asked for.
        struct PlanCounting {
            data: Dataset,
            plans: Arc<AtomicUsize>,
        }
        impl MultiDimIndex for PlanCounting {
            fn name(&self) -> &str {
                "PlanCounting"
            }
            fn source(&self) -> &dyn ScanSource {
                &self.data
            }
            fn plan(&self, _query: &Query) -> ScanPlan {
                self.plans.fetch_add(1, Ordering::Relaxed);
                ScanPlan::full(self.data.len())
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn build_timing(&self) -> BuildTiming {
                BuildTiming::default()
            }
        }

        let data = Dataset::from_columns(vec![
            (0..500u64).collect(),
            (0..500u64).map(|v| v * 7 % 101).collect(),
        ])
        .unwrap();
        let plans = Arc::new(AtomicUsize::new(0));
        let mut db = Database::new();
        let index = PlanCounting {
            data: data.clone(),
            plans: Arc::clone(&plans),
        };
        db.register_table("t", Schema::numbered(2), Box::new(index))
            .unwrap();
        for (i, agg) in aggregations().into_iter().enumerate() {
            let q = Query::new(vec![Predicate::range(0, 50, 349).unwrap()], agg).unwrap();
            let name = format!("v{i}");
            db.register_view("t", &name, q.clone()).unwrap();
            let before = plans.load(Ordering::Relaxed);
            assert_eq!(db.view_value(&name).unwrap(), q.execute_full_scan(&data));
            assert_eq!(plans.load(Ordering::Relaxed) - before, 1, "{agg:?}");
        }
    }

    #[test]
    fn matched_counts_equal_the_count_answer_for_every_family() {
        // fold_partial takes a partial's row count from ScanCounters::matched,
        // so every family must report exactly the COUNT answer there, serial
        // and pooled, after deletes and inserts too.
        let n = 3_000u64;
        let data = Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v * 3 % 1_000).collect(),
            (0..n).map(|v| v % 17).collect(),
        ])
        .unwrap();
        let ranges = [(0, 0, 2_999), (0, 100, 1_799), (1, 250, 600), (2, 3, 3)];
        let workload = Workload::new(
            ranges
                .iter()
                .map(|&(d, lo, hi)| {
                    Query::count(vec![Predicate::range(d, lo, hi).unwrap()]).unwrap()
                })
                .collect(),
        );
        let extra: Vec<Point> = (n..n + 400).map(|v| vec![v, v % 1_000, v % 5]).collect();
        for spec in IndexSpec::all_fast() {
            let mut db = Database::new();
            db.create_table_unnamed("t", data.clone(), &workload, &spec)
                .unwrap();
            db.delete("t", &[Predicate::range(0, 500, 899).unwrap()])
                .unwrap();
            let t = db.insert_batch("t", &extra).unwrap();
            let rows = t.dataset();
            for &(d, lo, hi) in &ranges {
                let preds = vec![Predicate::range(d, lo, hi).unwrap()];
                let count = Query::count(preds.clone())
                    .unwrap()
                    .execute_full_scan(&rows);
                for agg in aggregations() {
                    let q = Query::new(preds.clone(), agg).unwrap();
                    for (result, counters) in [
                        t.index().execute_with_stats(&q),
                        t.index().execute_parallel(&q, 4),
                    ] {
                        assert_eq!(result, q.execute_full_scan(&rows), "{}", spec.label());
                        assert_eq!(
                            Some(counters.matched as u64),
                            count.as_count(),
                            "{} {q:?}",
                            spec.label()
                        );
                    }
                }
            }
        }
    }
}
