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
//! folds into — seeded from *component* queries executed through the table's
//! index (COUNT plus SUM/MIN/MAX of the input dimension as the aggregation
//! needs). Every component answer is bit-identical to a scan, and
//! [`AggAccumulator::finish`] applies the same finalization (AVG as
//! SUM/COUNT — never an average of averages), so a view's answer is
//! bit-identical to executing its query from scratch, always.
//!
//! Durability: only the view *spec* (table, name, query) is logged
//! ([`tsunami_store::WalRecord::RegisterView`]); state is never persisted —
//! after recovery it is recomputed from the replayed table, so it cannot
//! diverge from the durable data.

use std::sync::Mutex;

use tsunami_core::{AggAccumulator, AggResult, Aggregation, MultiDimIndex, Point, Query, Result};

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
            *guard = Some(recompute(&self.query, index)?);
        }
        Ok(guard.as_ref().expect("folded above").finish())
    }
}

/// Seeds a fresh accumulator from component queries executed through the
/// index: COUNT always, plus the aggregation's SUM or MIN/MAX as needed.
/// Each component is itself bit-identical to a scan, and the accumulator's
/// `finish` applies the scan path's exact finalization, so the seeded state
/// answers bit-identically to executing the view query directly.
fn recompute(query: &Query, index: &dyn MultiDimIndex) -> Result<AggAccumulator> {
    let preds = query.predicates().to_vec();
    let count_q = Query::new(preds.clone(), Aggregation::Count)?;
    let count = index
        .execute(&count_q)
        .as_count()
        .expect("COUNT query returns Count");
    let mut acc = AggAccumulator::new(query.aggregation());
    match query.aggregation() {
        Aggregation::Count => acc.add_block(count, 0, None, None),
        Aggregation::Sum(d) | Aggregation::Avg(d) => {
            let sum_q = Query::new(preds, Aggregation::Sum(d))?;
            let sum = index
                .execute(&sum_q)
                .as_sum()
                .expect("SUM query returns Sum");
            acc.add_block(count, sum, None, None);
        }
        Aggregation::Min(d) => {
            let min_q = Query::new(preds, Aggregation::Min(d))?;
            let min = index
                .execute(&min_q)
                .as_min()
                .expect("MIN query returns Min");
            acc.add_block(count, 0, min, None);
        }
        Aggregation::Max(d) => {
            let max_q = Query::new(preds, Aggregation::Max(d))?;
            let max = index
                .execute(&max_q)
                .as_max()
                .expect("MAX query returns Max");
            acc.add_block(count, 0, None, max);
        }
    }
    Ok(acc)
}
