//! The `tsunami-engine` front-end: a database facade, fluent query builder,
//! and concurrent query scheduler over the Tsunami index family.
//!
//! The lower crates expose kernels: datasets, indexes, and a shared scan
//! executor. This crate is the shape consumers actually program against:
//!
//! * [`Database`] — registers named tables (a [`Schema`] + one index built
//!   over a [`tsunami_core::Dataset`] from an [`IndexSpec`], which covers
//!   every index family in the workspace) and validates all queries at the
//!   boundary. A table is held **once**: the index's clustered store is the
//!   only copy of its rows ([`Table::dataset`] reads them back out), and
//!   inserts and deletes reach it through
//!   [`tsunami_core::MultiDimIndex::ingest_batch`] /
//!   [`delete_matching`](tsunami_core::MultiDimIndex::delete_matching), with
//!   a rebuild from the stored spec for families that implement neither.
//! * [`QueryBuilder`] — fluent, schema-aware query construction:
//!   `db.table("trips")?.query().range("pickup", lo, hi)?.sum("fare")?
//!   .execute()?`. Unknown columns and out-of-bounds dimensions are errors,
//!   not silent mis-scans.
//! * [`PreparedQuery`] — a validated (table, query) pair that executes
//!   infallibly, any number of times, from any thread.
//! * [`Scheduler`] — inter-query parallelism on the process-wide
//!   thread pool (the same pool the intra-query morsel executor
//!   uses), with batch execution and a bounded submit/poll queue with
//!   backpressure. Tune with [`SchedulerConfig`].
//! * [`ShardedDatabase`] — hash-partitions a table's rows across K
//!   independent `Database` shards and scatter-gathers queries through the
//!   shared pool, folding the shards' answers into one accumulator (AVG as
//!   an exact sum over the matched count), so sharded results stay
//!   bit-identical to an unsharded table. This is the substrate the `tsunami-server` network front-end serves.
//! * **Workload-shift adaptation** — [`Table::record_query`] feeds a bounded
//!   observation log, [`Database::auto_reoptimize`] detects drift from the
//!   optimized-for workload, and [`Database::reindex`] rebuilds the table's
//!   layout for the new one — the paper's re-optimization (§8, Fig 9a).
//!
//! # Quick start
//!
//! ```
//! use tsunami_core::{Dataset, Predicate, Query, Workload};
//! use tsunami_engine::{Database, IndexSpec, Scheduler};
//!
//! // A tiny 2-d table with a correlated second column.
//! let n = 2_000u64;
//! let data = Dataset::from_columns(vec![
//!     (0..n).collect(),
//!     (0..n).map(|v| v * 2 + (v % 7)).collect(),
//! ])
//! .unwrap();
//! let workload = Workload::new(
//!     (0..20u64)
//!         .map(|i| Query::count(vec![Predicate::range(0, i * 50, i * 50 + 200).unwrap()]).unwrap())
//!         .collect(),
//! );
//!
//! let mut db = Database::new();
//! db.create_table("orders", &["id", "price"], data, &workload, &IndexSpec::tsunami())?;
//!
//! // Fluent, schema-validated queries.
//! let trips = db.table("orders")?;
//! let r = trips.query().range("id", 100, 299)?.execute()?;
//! assert_eq!(r.as_count(), Some(200));
//!
//! // Concurrent execution of many independent queries.
//! let queries = trips.prepare_workload(&workload)?;
//! let scheduler = Scheduler::new(4);
//! let results = scheduler.execute_batch(&queries)?;
//! assert_eq!(results.len(), queries.len());
//! # Ok::<(), tsunami_core::TsunamiError>(())
//! ```

pub mod builder;
pub mod database;
pub mod durability;
pub mod prepared;
pub mod scheduler;
pub mod schema;
pub mod sharded;
pub mod spec;
pub mod table;
pub mod view;

pub use builder::QueryBuilder;
pub use database::Database;
pub use prepared::PreparedQuery;
pub use scheduler::{QueryHandle, Scheduler, SchedulerConfig};
pub use schema::{ColumnRef, Schema};
pub use sharded::{shard_of, ShardedDatabase, ShardedTable};
pub use spec::{IndexSpec, PageSize, SharedIndex};
pub use table::Table;
pub use view::MaterializedView;
// Re-exported so engine users can inspect shift-detection and ingestion
// outcomes without depending on `tsunami-index` directly.
pub use tsunami_index::{IngestReport, ShiftReport, WorkloadMonitor};
// Re-exported so durable-database users (and the crash-test harness) can
// name the WAL types without depending on `tsunami-store` directly.
pub use tsunami_store::{CrashPoint, WalRecord};
