//! `tsunami-suite` is the workspace-level package that hosts the repository's
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`), and re-exports the `tsunami-engine` front-end as the
//! suite's public API.
//!
//! Application code starts here:
//!
//! ```
//! use tsunami_suite::{Database, IndexSpec};
//! use tsunami_core::{Dataset, Workload};
//!
//! let data = Dataset::from_columns(vec![(0..100u64).collect(), (0..100u64).collect()]).unwrap();
//! let mut db = Database::new();
//! db.create_table("t", &["a", "b"], data, &Workload::default(), &IndexSpec::tsunami())?;
//! let hits = db.table("t")?.query().range("a", 10, 29)?.execute()?;
//! assert_eq!(hits.as_count(), Some(20));
//! # Ok::<(), tsunami_core::TsunamiError>(())
//! ```
//!
//! Lower layers remain available for direct use: `tsunami-index` for the
//! learned index itself, `tsunami-core` for the data/query model and the
//! shared scan executor.

pub use tsunami_engine::{
    shard_of, ColumnRef, Database, IndexSpec, PageSize, PreparedQuery, QueryBuilder, QueryHandle,
    Scheduler, SchedulerConfig, Schema, ShardedDatabase, ShardedTable, SharedIndex, ShiftReport,
    Table, WorkloadMonitor,
};
