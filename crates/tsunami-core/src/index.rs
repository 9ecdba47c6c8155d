//! The common interface implemented by every multi-dimensional index in the
//! workspace, learned or not.
//!
//! The benchmark harness treats all indexes uniformly through this trait: it
//! builds them from a [`crate::Dataset`] and a sample [`crate::Workload`],
//! executes queries, and reports index size and build-time breakdowns
//! (Fig 8 and Fig 9b of the paper).
//!
//! Query execution is *not* implemented per index. An index only answers
//! [`MultiDimIndex::plan`] — which contiguous physical ranges to scan, with
//! the §6.1 exact-range flags — and exposes its reordered data through
//! [`MultiDimIndex::source`]; the provided [`MultiDimIndex::execute`],
//! [`MultiDimIndex::execute_with_stats`], and
//! [`MultiDimIndex::execute_parallel`] methods run every plan through the
//! shared vectorized executor in [`crate::exec`] and hand back its
//! [`ScanCounters`]; a pinned tier, private pool or morsel size goes
//! straight to [`exec::execute_plan_with`] with `plan()` and `source()`.
//!
//! Mutation goes through the trait too. An index is *clustered*: its
//! [`MultiDimIndex::source`] is the only copy of the table's rows, so a
//! caller that wants rows inserted or deleted asks the index for its
//! [`Successor`] — [`MultiDimIndex::ingest_batch`],
//! [`MultiDimIndex::delete_matching`]. Both are pure (`&self` in, a new
//! index out) and both default to `Ok(None)`, "this family has no such
//! path": the caller then asks for [`MultiDimIndex::relayout`] over
//! [`exec::live_dataset`] of the source plus or minus the mutation — the
//! same family laid out over those rows under the decision its build made.
//! A write never re-derives a layout; only a fresh build does.

use crate::dataset::Dataset;
use crate::error::Result;
use crate::exec::{self, ScanCounters, ScanPlan, ScanSource};
use crate::query::{AggResult, Query};

/// Wall-clock breakdown of building an index (Fig 9b): every index must sort
/// (reorganize) the data according to its layout, and learned indexes
/// additionally spend time optimizing the layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BuildTiming {
    /// Seconds spent physically reordering the data.
    pub sort_secs: f64,
    /// Seconds spent optimizing the layout (zero for non-learned indexes).
    pub optimize_secs: f64,
}

impl BuildTiming {
    /// Total build time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.sort_secs + self.optimize_secs
    }
}

/// A boxed index that can be shared across threads — what a catalog holds
/// and what a mutation hands back.
pub type SharedIndex = Box<dyn MultiDimIndex + Send + Sync>;

/// Per-region accounting of one [`MultiDimIndex::ingest_batch`], from the
/// families that keep one (Tsunami).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Rows in the ingested batch.
    pub rows_ingested: usize,
    /// Regions that received at least one new row. On the delta path a
    /// touched region pays neither re-grid nor re-sort; a graft re-grids
    /// every gridded region with pending rows, touched by this batch or
    /// not.
    pub regions_touched: usize,
    /// Touched regions whose accumulated staleness crossed the index's
    /// region bar and earned a local layout re-optimization (warm-started
    /// from the current layout).
    pub regions_reoptimized: usize,
    /// Whether the whole index escalated to a from-scratch rebuild — the
    /// batch would have pushed the ingested fraction past the index's
    /// rebuild bar.
    pub rebuilt: bool,
    /// The whole-index ingested-row fraction including this batch, *before*
    /// any staleness was repaid by re-optimization or rebuild.
    pub data_staleness: f64,
}

/// An index's answer to a mutation: the index that holds the mutated rows,
/// and what the caller's bookkeeping needs to know about how it got there.
pub struct Successor {
    /// The index over the mutated rows. The index it was derived from is
    /// untouched and keeps answering over the pre-mutation rows.
    pub index: SharedIndex,
    /// Rows absorbed by an ingest, or newly tombstoned by a delete (rows an
    /// earlier delete already hid do not count again).
    pub rows: usize,
    /// Whether the index re-derived its whole layout to absorb the mutation
    /// (a staleness escalation), as opposed to patching the touched parts.
    pub rebuilt: bool,
    /// The ingest's per-region accounting; `None` from a delete and from
    /// families that keep none.
    pub ingest_report: Option<IngestReport>,
}

impl Successor {
    /// The successor of a mutation that patched `rows` rows into (or out of)
    /// the existing layout, with no per-region report to hand back.
    pub fn patched(index: impl MultiDimIndex + Send + Sync + 'static, rows: usize) -> Self {
        Self {
            index: Box::new(index),
            rows,
            rebuilt: false,
            ingest_report: None,
        }
    }
}

/// A clustered in-memory multi-dimensional index over a single table.
///
/// Implementations own the (re-organized) rows — [`Self::source`] is the
/// table, not a copy of it — so planning needs only the query. Execution is
/// provided: implement [`Self::plan`] and [`Self::source`] and the shared
/// executor does the rest.
pub trait MultiDimIndex {
    /// Short human-readable name used in benchmark output (e.g. `"Tsunami"`).
    fn name(&self) -> &str;

    /// The physical data the index's plans scan: the clustered rows themselves.
    fn source(&self) -> &dyn ScanSource;

    /// Plans a query: the ordered contiguous physical ranges to scan, with
    /// per-range exactness flags (and optionally residual predicates). This
    /// is the only query-time logic an index implements.
    fn plan(&self, query: &Query) -> ScanPlan;

    /// Executes a query through the shared vectorized executor.
    fn execute(&self, query: &Query) -> AggResult {
        exec::execute_plan(self.source(), query, &self.plan(query)).0
    }

    /// Executes a query and returns the executor's [`ScanCounters`] for
    /// exactly this execution — the cost-model features of Fig 12b.
    fn execute_with_stats(&self, query: &Query) -> (AggResult, ScanCounters) {
        exec::execute_plan(self.source(), query, &self.plan(query))
    }

    /// Executes a query with the parallel executor: the plan is decomposed
    /// into cache-resident morsels claimed by up to `threads` workers of the
    /// process-wide thread pool ([`exec::pool`]) — no threads are
    /// spawned per call. Results and counters are bit-identical to
    /// [`Self::execute_with_stats`].
    fn execute_parallel(&self, query: &Query, threads: usize) -> (AggResult, ScanCounters) {
        exec::execute_plan_parallel(self.source(), query, &self.plan(query), threads)
    }

    /// Size of the index structure in bytes, excluding the data itself
    /// (Fig 8 reports index size, not data size).
    fn size_bytes(&self) -> usize;

    /// Build-time breakdown recorded while constructing the index (Fig 9b).
    fn build_timing(&self) -> BuildTiming;

    /// Absorbs a batch of rows (same width as the source) into the existing
    /// layout, returning the index over old + new rows. `Ok(None)` — the
    /// default — means the family has no ingest path: the caller then calls
    /// [`Self::relayout`] over the live rows plus the batch.
    fn ingest_batch(&self, _rows: &Dataset) -> Result<Option<Successor>> {
        Ok(None)
    }

    /// Deletes every live row matching all of `query`'s predicates (its
    /// aggregation is ignored), returning the index over the survivors;
    /// [`Successor::rows`] is the number of rows newly deleted. `Ok(None)` —
    /// the default — means the family has no delete path: the caller then
    /// calls [`Self::relayout`] over the surviving rows.
    fn delete_matching(&self, _query: &Query) -> Result<Option<Successor>> {
        Ok(None)
    }

    /// The same family built over `data` (same width as the source),
    /// keeping the layout decision this index's build made — a sort
    /// dimension, partition counts, a page size — rather than deriving it
    /// again: no optimizer, no timer, no workload. `None` — the default —
    /// means the family cannot lay itself out again without one.
    fn relayout(&self, _data: &Dataset) -> Option<SharedIndex> {
        None
    }

    /// Downcast hook for capabilities beyond this trait (e.g. a benchmark
    /// reading Tsunami's region statistics behind a `Box<dyn
    /// MultiDimIndex>`). Indexes with such capabilities override this to
    /// return `Some(self)`; the default opts out, so plain indexes need no
    /// boilerplate.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::query::{AggResult, Predicate};

    /// A trivial index (plain full scan over a small dataset) used to
    /// exercise the trait's provided methods.
    struct Dummy {
        data: Dataset,
    }

    impl Dummy {
        fn new() -> Self {
            Self {
                data: Dataset::from_columns(vec![(0..100u64).collect()]).unwrap(),
            }
        }
    }

    impl MultiDimIndex for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn source(&self) -> &dyn ScanSource {
            &self.data
        }
        fn plan(&self, _query: &Query) -> ScanPlan {
            ScanPlan::full(self.data.len())
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn build_timing(&self) -> BuildTiming {
            BuildTiming {
                sort_secs: 1.0,
                optimize_secs: 2.0,
            }
        }
    }

    #[test]
    fn build_timing_totals() {
        let d = Dummy::new();
        assert_eq!(d.build_timing().total_secs(), 3.0);
    }

    #[test]
    fn provided_execute_runs_the_plan() {
        let d = Dummy::new();
        let q = Query::count(vec![Predicate::range(0, 10, 19).unwrap()]).unwrap();
        assert_eq!(d.execute(&q), AggResult::Count(10));
        let (res, stats) = d.execute_with_stats(&q);
        assert_eq!(res, AggResult::Count(10));
        assert_eq!(stats.ranges, 1);
        assert_eq!(stats.points, 100);
        assert_eq!(stats.matched, 10);
        let (res, pstats) = d.execute_parallel(&q, 4);
        assert_eq!(res, AggResult::Count(10));
        assert_eq!(pstats, stats);
    }
}
