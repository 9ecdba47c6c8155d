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
//! A query scatters to every shard through a shared [`Scheduler`] (drainer
//! tasks on the process-wide thread pool) and the per-shard results
//! merge commutatively:
//!
//! | Aggregation | Per-shard sub-query | Merge |
//! |-------------|---------------------|-------|
//! | `COUNT`     | `COUNT`             | sum of `u64` counts |
//! | `SUM(d)`    | `SUM(d)`            | sum of exact `u128` partial sums |
//! | `MIN(d)`    | `MIN(d)`            | min of non-empty partials |
//! | `MAX(d)`    | `MAX(d)`            | max of non-empty partials |
//! | `AVG(d)`    | `SUM(d)` + `COUNT`  | `(Σ sums) as f64 / (Σ counts) as f64` |
//!
//! `AVG` never averages averages: each shard reports its exact integer
//! `SUM`/`COUNT` pair and the division happens once at the gather site —
//! the same `sum as f64 / count as f64` expression
//! [`tsunami_core::AggAccumulator::finish`] uses, so sharded results are
//! bit-identical to an unsharded table over the same rows.

use std::sync::Arc;

use tsunami_core::exec::pool::ThreadPool;
use tsunami_core::{
    AggResult, Aggregation, Dataset, Point, Query, Result, TsunamiError, Value, Workload,
};

use crate::database::Database;
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::schema::Schema;
use crate::spec::IndexSpec;
use crate::table::Table;

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

/// Name + build spec of one sharded logical table.
#[derive(Debug, Clone)]
struct TableMeta {
    name: String,
    spec: IndexSpec,
}

/// K independent [`Database`] shards behind one logical namespace.
///
/// Created with [`ShardedDatabase::new`]; tables are registered with
/// [`ShardedDatabase::create_table`], which hash-partitions the rows, and
/// queried through [`ShardedTable`] handles that scatter-gather across the
/// shards. See the module docs for routing and merge semantics.
pub struct ShardedDatabase {
    shards: Vec<Database>,
    tables: Vec<TableMeta>,
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
        Self {
            shards,
            tables: Vec::new(),
            scheduler,
        }
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
        self.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// Registers a logical table: hash-partitions `rows` across the shards
    /// and builds one index per shard from `spec`. A shard whose partition
    /// came up empty falls back to [`IndexSpec::FullScan`] (the learned
    /// builders optimize over data samples, which an empty partition cannot
    /// provide); it upgrades to `spec` at the first re-optimization after
    /// rows arrive.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: &[&str],
        rows: &Dataset,
        workload: &Workload,
        spec: &IndexSpec,
    ) -> Result<ShardedTable> {
        if self.tables.iter().any(|t| t.name == name) {
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
            let part_spec = if part.is_empty() {
                IndexSpec::FullScan
            } else {
                spec.clone()
            };
            let data = Dataset::from_rows(rows.num_dims(), part)?;
            if columns.is_empty() {
                db.create_table_unnamed(name, data, workload, &part_spec)?;
            } else {
                db.create_table(name, columns, data, workload, &part_spec)?;
            }
        }
        self.tables.push(TableMeta {
            name: name.to_string(),
            spec: spec.clone(),
        });
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
    /// spec the table was registered under, skipping still-empty shards.
    /// Returns how many shards actually re-optimized (zero when no shard had
    /// drifted — calling this periodically is cheap).
    pub fn auto_reoptimize(&mut self, name: &str) -> Result<usize> {
        let spec = self
            .tables
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.spec.clone())
            .ok_or_else(|| TsunamiError::UnknownTable(name.to_string()))?;
        let mut reoptimized = 0;
        for db in &mut self.shards {
            if db.table(name)?.num_rows() == 0 {
                continue;
            }
            if db.auto_reoptimize(name, &spec)?.is_some() {
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

    /// Executes a query by scattering it to every shard through the shared
    /// scheduler and merging the partial results (see the module docs for
    /// the merge rules). Results are bit-identical to an unsharded table
    /// holding the same rows.
    pub fn execute(&self, query: &Query) -> Result<AggResult> {
        query.validate_dims(self.num_columns())?;
        match query.aggregation() {
            Aggregation::Avg(dim) => {
                // AVG is not commutative over per-shard averages; scatter the
                // exact SUM and COUNT instead and divide once at the gather
                // site, matching AggAccumulator::finish bit-for-bit.
                let sums = self.scatter(&Query::new(
                    query.predicates().to_vec(),
                    Aggregation::Sum(dim),
                )?)?;
                let counts = self.scatter(&Query::new(
                    query.predicates().to_vec(),
                    Aggregation::Count,
                )?)?;
                let mut sum = 0u128;
                for s in &sums {
                    sum += s.as_sum().ok_or_else(|| type_confusion(s))?;
                }
                let mut count = 0u64;
                for c in &counts {
                    count += c.as_count().ok_or_else(|| type_confusion(c))?;
                }
                Ok(AggResult::Avg(if count == 0 {
                    None
                } else {
                    Some(sum as f64 / count as f64)
                }))
            }
            Aggregation::Count => {
                let partials = self.scatter(query)?;
                let mut count = 0u64;
                for p in &partials {
                    count += p.as_count().ok_or_else(|| type_confusion(p))?;
                }
                Ok(AggResult::Count(count))
            }
            Aggregation::Sum(_) => {
                let partials = self.scatter(query)?;
                let mut sum = 0u128;
                for p in &partials {
                    sum += p.as_sum().ok_or_else(|| type_confusion(p))?;
                }
                Ok(AggResult::Sum(sum))
            }
            Aggregation::Min(_) => {
                let partials = self.scatter(query)?;
                let mut min: Option<Value> = None;
                for p in &partials {
                    if let Some(v) = p.as_min().ok_or_else(|| type_confusion(p))? {
                        min = Some(min.map_or(v, |m| m.min(v)));
                    }
                }
                Ok(AggResult::Min(min))
            }
            Aggregation::Max(_) => {
                let partials = self.scatter(query)?;
                let mut max: Option<Value> = None;
                for p in &partials {
                    if let Some(v) = p.as_max().ok_or_else(|| type_confusion(p))? {
                        max = Some(max.map_or(v, |m| m.max(v)));
                    }
                }
                Ok(AggResult::Max(max))
            }
        }
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

    fn scatter(&self, query: &Query) -> Result<Vec<AggResult>> {
        let handles = self
            .shards
            .iter()
            .map(|t| self.scheduler.submit(t.prepare(query.clone())?))
            .collect::<Result<Vec<_>>>()?;
        handles.iter().map(|h| h.wait()).collect()
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

fn type_confusion(got: &AggResult) -> TsunamiError {
    TsunamiError::Build(format!("shard returned mismatched aggregate {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::Predicate;

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
                assert_eq!(
                    t.execute(&q).unwrap(),
                    q.execute_full_scan(&data),
                    "k={k} disagrees on {q:?}"
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
    fn empty_partitions_fall_back_to_full_scan() {
        // 3 rows over 8 shards: most partitions are empty and must still
        // build, answer, and accept later inserts.
        let data = rows(3);
        let mut db = ShardedDatabase::new(8);
        let t = db
            .create_table(
                "t",
                &["a", "b"],
                &data,
                &Workload::default(),
                &IndexSpec::FullScan,
            )
            .unwrap();
        assert_eq!(t.num_shards(), 8);
        let q = Query::count(vec![]).unwrap();
        assert_eq!(t.execute(&q).unwrap().as_count(), Some(3));
        db.insert_batch("t", &(3u64..40).map(|v| vec![v, v]).collect::<Vec<_>>())
            .unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.execute(&q).unwrap().as_count(), Some(40));
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
