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

/// A clustered in-memory multi-dimensional index over a single table.
///
/// Implementations own their (re-organized) copy of the data, so planning
/// needs only the query. Execution is provided: implement [`Self::plan`] and
/// [`Self::source`] and the shared executor does the rest.
pub trait MultiDimIndex {
    /// Short human-readable name used in benchmark output (e.g. `"Tsunami"`).
    fn name(&self) -> &str;

    /// The physical data the index's plans scan (its clustered copy).
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
    /// process-wide work-stealing pool ([`exec::pool`]) — no threads are
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

    /// Downcast hook for capabilities beyond this trait (e.g. the engine's
    /// insert and delete paths, which need the concrete index behind a
    /// `Box<dyn MultiDimIndex>` to reach its ingest/tombstone methods).
    /// Indexes with such capabilities override this to return `Some(self)`;
    /// the default opts out, so plain indexes need no boilerplate.
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
