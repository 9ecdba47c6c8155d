//! Horizontal sharding: one logical table hash-partitioned across K
//! independent [`Database`] shards, queried by scatter-gather.
//!
//! Every shard is a full `Database` — its own index, its own observation
//! log, its own ingest path — so each shard's Tsunami layout can specialize
//! to the workload slice it actually sees, and K shards scan K partitions
//! concurrently, multiplying aggregate scan bandwidth (the PIMDAL framing:
//! range aggregation is bandwidth-bound, so parallel partitions are the
//! lever that scales it).
//!
//! # Routing
//!
//! Rows are assigned to shards by an FNV-1a hash of the full row (all column
//! values, little-endian bytes) modulo K. The hash is deterministic and
//! stable across processes, so [`ShardedDatabase::insert_batch`] routes new
//! rows to the same shard a fresh [`ShardedDatabase::create_table`] over the
//! union would.
//!
//! # Scatter-gather and merge rules
//!
//! A query scatters once to every shard through a shared [`Scheduler`]
//! (drainer tasks on the process-wide thread pool), and each shard's answer
//! plus its matched-row count fold into one
//! [`tsunami_core::AggAccumulator`] — the representation the executor's
//! morsels and the cube's partials fold into:
//!
//! | Aggregation | Per-shard sub-query           | Merge |
//! |-------------|-------------------------------|-------|
//! | `COUNT`     | `COUNT`                       | sum of matched counts |
//! | `SUM(d)`    | `SUM(d)`                      | sum of exact `u128` partial sums |
//! | `MIN(d)`    | `MIN(d)`                      | min of non-empty partials |
//! | `MAX(d)`    | `MAX(d)`                      | max of non-empty partials |
//! | `AVG(d)`    | `SUM(d)` + its matched count  | `(Σ sums) as f64 / (Σ matched) as f64` |
//!
//! `AVG` never averages averages: each shard reports its exact integer
//! `SUM` and the number of rows it matched, and the division happens once in
//! [`tsunami_core::AggAccumulator::finish`], so sharded results are
//! bit-identical to an unsharded table over the same rows.

use std::sync::Arc;

use tsunami_core::exec::pool::ThreadPool;
use tsunami_core::{
    AggAccumulator, AggResult, Dataset, Point, Query, Result, TsunamiError, Value, Workload,
};

use crate::database::Database;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::schema::Schema;
use crate::spec::IndexSpec;
use crate::table::Table;
use crate::view::{fold_partial, partial_query};

/// Deterministic shard assignment: FNV-1a 64 over the row's values in
/// little-endian byte order, modulo `shards`. Exposed so tests and external
/// routers can predict placement.
pub fn shard_of(row: &[Value], shards: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for value in row {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    (hash % shards.max(1) as u64) as usize
}

/// K independent [`Database`] shards behind one logical namespace.
///
/// Created with [`ShardedDatabase::new`]; tables are registered with
/// [`ShardedDatabase::create_table`], which hash-partitions the rows, and
/// queried through [`ShardedTable`] handles that scatter-gather across the
/// shards. See the module docs for routing and merge semantics.
pub struct ShardedDatabase {
    shards: Vec<Database>,
    scheduler: Arc<Scheduler>,
}

impl ShardedDatabase {
    /// A database of `shards` partitions (clamped to at least one) sharing
    /// the process-wide thread pool for scatter-gather execution.
    pub fn new(shards: usize) -> Self {
        Self::on_pool(Arc::clone(tsunami_core::exec::pool::global()), shards)
    }

    /// Like [`ShardedDatabase::new`] with an explicit pool (tests inject
    /// private pools).
    pub fn on_pool(pool: Arc<ThreadPool>, shards: usize) -> Self {
        let shards = shards.max(1);
        let scheduler = Arc::new(Scheduler::on_pool(
            Arc::clone(&pool),
            SchedulerConfig::default(),
        ));
        let shards = (0..shards)
            .map(|_| {
                let mut db = Database::new();
                db.set_pool(Arc::clone(&pool));
                db
            })
            .collect();
        Self { shards, scheduler }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The scheduler scatter-gather queries run through.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// The pool shards and scheduler execute on.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        self.shards[0].pool()
    }

    /// Registered logical table names, in registration order.
    pub fn table_names(&self) -> Vec<String> {
        self.shards[0]
            .tables()
            .map(|t| t.name().to_string())
            .collect()
    }

    /// Registers a logical table: hash-partitions `rows` across the shards
    /// and builds one index per shard from `spec`, an empty partition
    /// included.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: &[&str],
        rows: &Dataset,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<ShardedTable> {
        if self.shards[0].table(name).is_ok() {
            return Err(TsunamiError::DuplicateTable(name.to_string()));
        }
        if !columns.is_empty() && columns.len() != rows.num_dims() {
            return Err(TsunamiError::DimensionMismatch {
                expected: rows.num_dims(),
                got: columns.len(),
            });
        }
        let partitions = self.partition(rows);
        for (db, part) in self.shards.iter_mut().zip(&partitions) {
            let data = Dataset::from_rows(rows.num_dims(), part)?;
            if columns.is_empty() {
                db.create_table_unnamed(name, data, workload, spec)?;
            } else {
                db.create_table(name, columns, data, workload, spec)?;
            }
        }
        self.table(name)
    }

    /// Looks up a logical table and returns a scatter-gather handle over the
    /// current per-shard table generations. Handles are snapshots: after an
    /// insert or re-optimization swaps a shard's table, existing handles
    /// keep answering over the generation they captured — fetch a fresh
    /// handle to observe the new rows.
    pub fn table(&self, name: &str) -> Result<ShardedTable> {
        let shards: Vec<Table> = self
            .shards
            .iter()
            .map(|db| db.table(name))
            .collect::<Result<_>>()?;
        Ok(ShardedTable {
            shards,
            scheduler: Arc::clone(&self.scheduler),
        })
    }

    /// Total rows of a logical table across all shards.
    pub fn num_rows(&self, name: &str) -> Result<usize> {
        let mut rows = 0;
        for db in &self.shards {
            rows += db.table(name)?.num_rows();
        }
        Ok(rows)
    }

    /// Inserts a batch, routing each row to its hash-assigned shard. Row
    /// arity is validated up front so a malformed row cannot leave the
    /// shards partially updated.
    pub fn insert_batch(&mut self, name: &str, rows: &[Point]) -> Result<()> {
        let width = self.schema(name)?.num_columns();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(TsunamiError::DimensionMismatch {
                expected: width,
                got: bad.len(),
            });
        }
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); self.shards.len()];
        for row in rows {
            buckets[shard_of(row, self.shards.len())].push(row.clone());
        }
        for (db, bucket) in self.shards.iter_mut().zip(buckets) {
            if !bucket.is_empty() {
                db.insert_batch(name, &bucket)?;
            }
        }
        Ok(())
    }

    /// Schema of a logical table (identical on every shard).
    pub fn schema(&self, name: &str) -> Result<Schema> {
        Ok(self.shards[0].table(name)?.schema().clone())
    }

    /// Runs [`Database::auto_reoptimize`] on every shard of `name` with the
    /// spec the shard's table was built from, skipping still-empty shards.
    /// Returns how many shards actually re-optimized (zero when no shard had
    /// drifted — calling this periodically is cheap).
    pub fn auto_reoptimize(&mut self, name: &str) -> Result<usize> {
        let mut reoptimized = 0;
        for db in &mut self.shards {
            let table = db.table(name)?;
            let Some(spec) = table.index_spec() else {
                continue;
            };
            if table.num_rows() > 0 && db.auto_reoptimize(name, spec)?.is_some() {
                reoptimized += 1;
            }
        }
        Ok(reoptimized)
    }

    /// [`ShardedDatabase::auto_reoptimize`] over every registered table;
    /// returns the total number of shard re-optimizations applied.
    pub fn auto_reoptimize_all(&mut self) -> Result<usize> {
        let names = self.table_names();
        let mut reoptimized = 0;
        for name in names {
            reoptimized += self.auto_reoptimize(&name)?;
        }
        Ok(reoptimized)
    }

    /// Direct access to one shard's `Database` (diagnostics and tests).
    pub fn shard(&self, i: usize) -> &Database {
        &self.shards[i]
    }

    fn partition(&self, rows: &Dataset) -> Vec<Vec<Point>> {
        let k = self.shards.len();
        let mut parts: Vec<Vec<Point>> = vec![Vec::new(); k];
        for r in 0..rows.len() {
            let row = rows.row(r);
            parts[shard_of(&row, k)].push(row);
        }
        parts
    }
}

impl std::fmt::Debug for ShardedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDatabase")
            .field("shards", &self.shards.len())
            .field("tables", &self.table_names())
            .finish()
    }
}

/// Scatter-gather handle over one logical table's per-shard [`Table`]
/// generations. Cheap to clone; safe to use from any thread.
#[derive(Clone)]
pub struct ShardedTable {
    shards: Vec<Table>,
    scheduler: Arc<Scheduler>,
}

impl ShardedTable {
    /// Logical table name.
    pub fn name(&self) -> &str {
        self.shards[0].name()
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        self.shards[0].schema()
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.shards[0].num_columns()
    }

    /// Total rows across all shards (of the captured generations).
    pub fn num_rows(&self) -> usize {
        self.shards.iter().map(Table::num_rows).sum()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard table handles, in shard order.
    pub fn shard_tables(&self) -> &[Table] {
        &self.shards
    }

    /// Executes a query by scattering it once to every shard through the
    /// shared scheduler and folding the partial results into one
    /// accumulator (see the module docs for the merge rules). Results are
    /// bit-identical to an unsharded table holding the same rows.
    pub fn execute(&self, query: &Query) -> Result<AggResult> {
        query.validate_dims(self.num_columns())?;
        let partial = partial_query(query)?;
        let handles = self
            .shards
            .iter()
            .map(|t| self.scheduler.submit(t.prepare(partial.clone())?))
            .collect::<Result<Vec<_>>>()?;
        let mut acc = AggAccumulator::new(query.aggregation());
        for handle in &handles {
            fold_partial(&mut acc, handle.wait_with_stats()?);
        }
        Ok(acc.finish())
    }

    /// Records an observed query on every shard's observation log, feeding
    /// per-shard drift detection ([`Database::auto_reoptimize`]). Every
    /// shard sees the full predicate stream because every shard holds rows
    /// from the full keyspace.
    pub fn record_query(&self, query: &Query) -> Result<()> {
        for t in &self.shards {
            t.record_query(query)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for ShardedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTable")
            .field("name", &self.name())
            .field("shards", &self.num_shards())
            .field("rows", &self.num_rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{Aggregation, Predicate};

    fn rows(n: u64) -> Dataset {
        Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v.wrapping_mul(7) % 1000).collect(),
        ])
        .unwrap()
    }

    fn queries() -> Vec<Query> {
        let preds = vec![Predicate::range(0, 100, 1800).unwrap()];
        [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ]
        .into_iter()
        .map(|agg| Query::new(preds.clone(), agg).unwrap())
        .collect()
    }

    #[test]
    fn sharding_preserves_every_row_exactly_once() {
        let data = rows(2_000);
        let mut db = ShardedDatabase::new(4);
        db.create_table(
            "t",
            &["a", "b"],
            &data,
            &Workload::default(),
            &IndexSpec::FullScan,
        )
        .unwrap();
        assert_eq!(db.num_rows("t").unwrap(), 2_000);
        let t = db.table("t").unwrap();
        let everything = Query::count(vec![]).unwrap();
        assert_eq!(t.execute(&everything).unwrap().as_count(), Some(2_000));
        // Placement is deterministic.
        for r in 0..50 {
            let row = data.row(r);
            assert_eq!(shard_of(&row, 4), shard_of(&row, 4));
        }
    }

    #[test]
    fn scatter_gather_matches_unsharded_for_all_aggregations() {
        let data = rows(3_000);
        for k in [1, 3, 8] {
            let mut sharded = ShardedDatabase::new(k);
            sharded
                .create_table(
                    "t",
                    &["a", "b"],
                    &data,
                    &Workload::default(),
                    &IndexSpec::FullScan,
                )
                .unwrap();
            let t = sharded.table("t").unwrap();
            for q in queries() {
                let before = sharded.scheduler().completed();
                assert_eq!(
                    t.execute(&q).unwrap(),
                    q.execute_full_scan(&data),
                    "k={k} disagrees on {q:?}"
                );
                // One scatter per query, AVG included: one task per shard.
                assert_eq!(
                    sharded.scheduler().completed() - before,
                    k as u64,
                    "k={k} ran {q:?} more than once per shard"
                );
            }
        }
    }

    #[test]
    fn insert_batch_routes_rows_and_stays_bit_identical() {
        let data = rows(1_000);
        let mut sharded = ShardedDatabase::new(4);
        sharded
            .create_table(
                "t",
                &["a", "b"],
                &data,
                &Workload::default(),
                &IndexSpec::FullScan,
            )
            .unwrap();
        let extra: Vec<Point> = (1_000u64..1_400).map(|v| vec![v, v % 13]).collect();
        sharded.insert_batch("t", &extra).unwrap();
        assert_eq!(sharded.num_rows("t").unwrap(), 1_400);

        let mut union_rows: Vec<Point> = (0..data.len()).map(|r| data.row(r)).collect();
        union_rows.extend(extra.iter().cloned());
        let union = Dataset::from_rows(2, &union_rows).unwrap();
        let t = sharded.table("t").unwrap();
        for q in queries() {
            assert_eq!(t.execute(&q).unwrap(), q.execute_full_scan(&union));
        }
        // Arity mismatch is rejected before any shard mutates.
        let before = sharded.num_rows("t").unwrap();
        assert!(sharded.insert_batch("t", &[vec![1, 2, 3]]).is_err());
        assert_eq!(sharded.num_rows("t").unwrap(), before);
    }

    #[test]
    fn empty_partitions_are_built_with_the_tables_spec() {
        // 3 rows over 8 shards: most partitions are empty and must still
        // build from the table's own spec, answer, and accept later inserts.
        let data = rows(3);
        let mut db = ShardedDatabase::new(8);
        let spec = IndexSpec::Tsunami(tsunami_index::TsunamiConfig::fast());
        let t = db
            .create_table("t", &["a", "b"], &data, &Workload::default(), &spec)
            .unwrap();
        assert_eq!(t.num_shards(), 8);
        let empty = t
            .shard_tables()
            .iter()
            .find(|s| s.num_rows() == 0)
            .expect("3 rows leave some of 8 shards empty");
        assert_eq!(empty.index().name(), "Tsunami");
        assert!(matches!(empty.index_spec(), Some(IndexSpec::Tsunami(_))));
        let q = Query::count(vec![]).unwrap();
        assert_eq!(t.execute(&q).unwrap().as_count(), Some(3));
        db.insert_batch("t", &(3u64..40).map(|v| vec![v, v]).collect::<Vec<_>>())
            .unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.execute(&q).unwrap().as_count(), Some(40));
    }

    #[test]
    fn every_family_builds_over_zero_rows_and_absorbs_an_insert() {
        let data = rows(3_000);
        let inserted: Vec<Point> = (0..data.len()).map(|r| data.row(r)).collect();
        let workload = Workload::new(queries());
        let mut specs = IndexSpec::all_fast();
        specs.push(IndexSpec::tsunami());
        specs.push(IndexSpec::ZOrder(crate::spec::PageSize::Tuned));
        for spec in specs {
            let mut db = ShardedDatabase::new(2);
            let t = db
                .create_table("t", &["a", "b"], &rows(0), &workload, &spec)
                .unwrap();
            for q in queries() {
                assert_eq!(t.execute(&q).unwrap(), q.execute_full_scan(&rows(0)));
            }
            db.insert_batch("t", &inserted).unwrap();
            let t = db.table("t").unwrap();
            for q in queries() {
                assert_eq!(
                    t.execute(&q).unwrap(),
                    q.execute_full_scan(&data),
                    "{} disagrees on {q:?}",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn duplicate_and_unknown_names_error() {
        let data = rows(10);
        let mut db = ShardedDatabase::new(2);
        db.create_table(
            "t",
            &["a", "b"],
            &data,
            &Workload::default(),
            &IndexSpec::FullScan,
        )
        .unwrap();
        assert!(matches!(
            db.create_table(
                "t",
                &["a", "b"],
                &data,
                &Workload::default(),
                &IndexSpec::FullScan
            ),
            Err(TsunamiError::DuplicateTable(_))
        ));
        assert!(matches!(
            db.table("missing"),
            Err(TsunamiError::UnknownTable(_))
        ));
        assert!(matches!(
            db.auto_reoptimize("missing"),
            Err(TsunamiError::UnknownTable(_))
        ));
    }
}
