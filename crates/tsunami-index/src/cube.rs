//! Per-region materialized aggregate cube.
//!
//! One [`CubeEntry`] per Grid-Tree region keeps COUNT plus per-dimension
//! SUM/MIN/MAX pre-folded over the region's *live* rows. The planner turns a
//! region whose bounds are fully contained in a query into a
//! [`tsunami_core::PlanPartial`] instead of a scan range, so covered queries
//! cost O(#regions) instead of O(selected rows).
//!
//! # Validity invariant
//!
//! A region's live rows are those of its main slice **and** of its delta
//! run (rows ingested since the last graft; see the crate docs). An entry
//! is valid exactly as long as that live-row **multiset** is unchanged.
//! Aggregates are order-free and place-free, so anything that moves rows
//! within a region — a graft taking delta rows into the main slice, a
//! re-grid, a warm re-optimization, a compaction dropping already-dead
//! rows — preserves validity; only new rows or new tombstones invalidate
//! (rows never cross regions). Maintenance therefore is:
//!
//! * **ingest** — touched regions fold their routed new rows into the
//!   existing entry as one delta ([`CubeEntry::merge`]), whether the rows
//!   land in the delta run or are grafted at once; untouched regions carry;
//! * **delete** — regions that received new tombstones, in their main slice
//!   or their delta run, drop their entry and re-fold lazily on the next
//!   covered query; the compaction that may follow only drops already-dead
//!   rows, so it never invalidates by itself;
//! * **lazy fold** — folds the main slice and the delta run;
//! * **rebuild** (a fresh build, or an ingest/delete escalation) — every
//!   region starts empty and folds lazily on first use.
//!
//! An index generation never invalidates its own entries: every mutation
//! above builds its *successor's* cube ([`RegionCube::snapshot`] →
//! [`RegionCube::from_entries`]). So each entry sits in a [`OnceLock`] —
//! `plan(&self)` folds it on first use without a mutable index, the first
//! fold wins (folds are pure over the store, so any would do), and from then
//! on a reader takes no lock and copies nothing but the [`PlanPartial`] it
//! came for.

use std::ops::Range;
use std::sync::OnceLock;

use tsunami_core::{Dataset, PlanPartial, Value};
use tsunami_store::ColumnStore;

/// Pre-folded aggregates of one dimension over one region's live rows.
/// `min`/`max` are meaningless when the owning entry has `rows == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimAgg {
    /// Exact sum of the dimension over the live rows (u128: no overflow for
    /// any realizable store size).
    pub sum: u128,
    /// Minimum value of the dimension over the live rows.
    pub min: Value,
    /// Maximum value of the dimension over the live rows.
    pub max: Value,
}

/// COUNT plus per-dimension SUM/MIN/MAX over one region's live rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeEntry {
    /// Number of live rows in the region.
    pub rows: u64,
    /// One [`DimAgg`] per store dimension.
    pub dims: Vec<DimAgg>,
}

impl CubeEntry {
    /// Folds an entry over a logical dataset (all rows counted as live).
    pub fn fold_dataset(ds: &Dataset) -> Self {
        let dims = (0..ds.num_dims())
            .map(|d| {
                let mut sum = 0u128;
                let mut min = Value::MAX;
                let mut max = Value::MIN;
                for &v in ds.column(d) {
                    sum += v as u128;
                    min = min.min(v);
                    max = max.max(v);
                }
                DimAgg { sum, min, max }
            })
            .collect();
        Self {
            rows: ds.len() as u64,
            dims,
        }
    }

    /// Folds an entry over the live rows of a store's physical range —
    /// tombstone-aware, decoding packed blocks as needed. Cube folds run once
    /// per (region, restructure), not per query, so the decode cost is fine.
    pub fn fold_store(store: &ColumnStore, rows: Range<usize>) -> Self {
        Self::fold_dataset(&store.live_slice_dataset(rows))
    }

    /// Folds another entry's rows into this one (multiset union). The delta
    /// primitive behind incremental ingest maintenance.
    pub fn merge(&mut self, other: &CubeEntry) {
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            *self = other.clone();
            return;
        }
        debug_assert_eq!(self.dims.len(), other.dims.len());
        self.rows += other.rows;
        for (a, b) in self.dims.iter_mut().zip(&other.dims) {
            a.sum += b.sum;
            a.min = a.min.min(b.min);
            a.max = a.max.max(b.max);
        }
    }

    /// The entry as an executor partial for the aggregation input dimension
    /// `dim`, or `None` for an empty region (nothing to contribute).
    pub fn partial(&self, dim: usize) -> Option<PlanPartial> {
        if self.rows == 0 {
            return None;
        }
        let d = self.dims.get(dim)?;
        Some(PlanPartial {
            rows: self.rows,
            sum: d.sum,
            min: Some(d.min),
            max: Some(d.max),
        })
    }
}

/// The per-index cube: one entry per Grid-Tree region, in region order. An
/// unset entry means "not folded yet" — the next covered query folds it.
#[derive(Debug, Default)]
pub struct RegionCube {
    entries: Vec<OnceLock<CubeEntry>>,
}

impl RegionCube {
    /// An empty cube for `regions` regions (every entry folds lazily).
    pub fn new(regions: usize) -> Self {
        Self::from_entries(vec![None; regions])
    }

    /// A cube seeded with carried entries (restructure paths that know which
    /// regions kept their live-row multiset); `None` folds lazily.
    pub fn from_entries(entries: Vec<Option<CubeEntry>>) -> Self {
        let seed = |entry: Option<CubeEntry>| entry.map_or_else(OnceLock::new, OnceLock::from);
        Self {
            entries: entries.into_iter().map(seed).collect(),
        }
    }

    /// Number of regions the cube tracks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cube tracks no regions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A clone of every entry folded so far, for carrying across a
    /// restructure.
    pub fn snapshot(&self) -> Vec<Option<CubeEntry>> {
        (self.entries.iter())
            .map(|entry| entry.get().cloned())
            .collect()
    }

    /// `region`'s partial for the aggregation input dimension `dim`
    /// ([`CubeEntry::partial`]), out of its entry — folded with `fold`, over
    /// the region's live rows, main and delta, by the first request for it.
    pub fn get_or_fold(
        &self,
        region: usize,
        dim: usize,
        fold: impl FnOnce() -> CubeEntry,
    ) -> Option<PlanPartial> {
        self.entries[region].get_or_init(fold).partial(dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_columns(vec![vec![5, 1, 9, 3], vec![10, 40, 20, 30]]).unwrap()
    }

    #[test]
    fn fold_dataset_computes_count_sum_min_max_per_dim() {
        let e = CubeEntry::fold_dataset(&ds());
        assert_eq!(e.rows, 4);
        assert_eq!(
            e.dims[0],
            DimAgg {
                sum: 18,
                min: 1,
                max: 9
            }
        );
        assert_eq!(
            e.dims[1],
            DimAgg {
                sum: 100,
                min: 10,
                max: 40
            }
        );
    }

    #[test]
    fn merge_is_multiset_union() {
        let mut a = CubeEntry::fold_dataset(&ds());
        let b = CubeEntry::fold_dataset(
            &Dataset::from_columns(vec![vec![100, 0], vec![7, 9]]).unwrap(),
        );
        a.merge(&b);
        assert_eq!(a.rows, 6);
        assert_eq!(
            a.dims[0],
            DimAgg {
                sum: 118,
                min: 0,
                max: 100
            }
        );
        assert_eq!(
            a.dims[1],
            DimAgg {
                sum: 116,
                min: 7,
                max: 40
            }
        );
    }

    #[test]
    fn merge_with_empty_sides_keeps_the_nonempty_one() {
        let folded = CubeEntry::fold_dataset(&ds());
        let empty = CubeEntry {
            rows: 0,
            dims: vec![
                DimAgg {
                    sum: 0,
                    min: Value::MAX,
                    max: Value::MIN
                };
                2
            ],
        };
        let mut a = folded.clone();
        a.merge(&empty);
        assert_eq!(a, folded);
        let mut b = empty;
        b.merge(&folded);
        assert_eq!(b, folded);
    }

    #[test]
    fn fold_store_skips_tombstoned_rows() {
        let mut store = ColumnStore::from_dataset(&ds());
        // Tombstone row 2 (values 9 / 20).
        let q = tsunami_core::Query::count(vec![tsunami_core::Predicate::range(0, 9, 9).unwrap()])
            .unwrap();
        assert_eq!(store.delete_where(&q), 1);
        let e = CubeEntry::fold_store(&store, 0..4);
        assert_eq!(e.rows, 3);
        assert_eq!(
            e.dims[0],
            DimAgg {
                sum: 9,
                min: 1,
                max: 5
            }
        );
        assert_eq!(
            e.dims[1],
            DimAgg {
                sum: 80,
                min: 10,
                max: 40
            }
        );
    }

    #[test]
    fn cube_folds_lazily_and_once() {
        let store = ColumnStore::from_dataset(&ds());
        let cube = RegionCube::new(2);
        assert_eq!(cube.snapshot(), vec![None, None]);
        let folded = CubeEntry::fold_store(&store, 0..4);
        let p = cube.get_or_fold(0, 1, || folded.clone());
        assert_eq!(p, folded.partial(1));
        assert_eq!(cube.snapshot(), vec![Some(folded.clone()), None]);
        // The first fold wins: a later one is never run.
        let again = cube.get_or_fold(0, 0, || unreachable!("entry 0 is folded"));
        assert_eq!(again, folded.partial(0));
        // A successor carries folded entries and leaves the rest lazy.
        let successor = RegionCube::from_entries(cube.snapshot());
        assert_eq!(successor.snapshot(), cube.snapshot());
        assert_eq!(successor.len(), 2);
    }

    #[test]
    fn partial_carries_the_requested_dim() {
        let e = CubeEntry::fold_dataset(&ds());
        let p = e.partial(1).unwrap();
        assert_eq!(p.rows, 4);
        assert_eq!(p.sum, 100);
        assert_eq!(p.min, Some(10));
        assert_eq!(p.max, Some(40));
        assert_eq!(e.partial(7), None);
    }

    #[test]
    fn concurrent_planners_read_one_cube_and_agree() {
        use crate::{TsunamiConfig, TsunamiIndex};
        use std::sync::Barrier;
        use tsunami_core::exec::execute_plan;
        use tsunami_core::{Aggregation, MultiDimIndex, Predicate, Query, Workload};

        // Time-like dim 0 queried with recency skew, so the Grid Tree splits.
        let n = 12_000u64;
        let data = Dataset::from_columns(vec![
            (0..n).map(|v| v * 4_800 / n).collect(),
            (0..n).map(|v| (v * 7_919) % 10_000).collect(),
        ])
        .unwrap();
        let range = |lo: u64, width: u64| Predicate::range(0, lo, lo + width).unwrap();
        let workload: Workload = (0..60u64)
            .map(|i| range((i * 61) % 3_600, 1_200))
            .chain((0..60u64).map(|i| range(3_600 + (i * 17) % 1_100, 100)))
            .map(|p| Query::count(vec![p]).unwrap())
            .collect();
        let index = TsunamiIndex::build(&data, &workload, &TsunamiConfig::fast()).unwrap();

        // Covers whole regions: every thread's first plan meets entries that
        // are unfolded, being folded, or just folded by another thread.
        let q = Query::new(vec![range(1_000, 3_500)], Aggregation::Sum(1)).unwrap();
        const THREADS: usize = 4;
        let start = Barrier::new(THREADS);
        let plans: Vec<_> = std::thread::scope(|scope| {
            let planners: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        index.plan(&q)
                    })
                })
                .collect();
            planners.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(plans[0].partials().len() >= 2, "{:?}", plans[0]);
        let expected = q.execute_full_scan(&data);
        for plan in &plans {
            assert_eq!(plan, &plans[0]);
            assert_eq!(execute_plan(index.source(), &q, plan).0, expected);
        }
    }
}
