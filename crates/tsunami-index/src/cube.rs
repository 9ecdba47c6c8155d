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
//! Entries are folded lazily under a [`Mutex`] so `plan(&self)` can populate
//! the cube without a mutable index. The fold itself runs outside the lock;
//! a concurrent double-fold computes the same value (folds are pure over the
//! store), so the race is benign — first writer wins.

use std::ops::Range;
use std::sync::Mutex;

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

/// The per-index cube: one optional entry per Grid-Tree region, in region
/// order. `None` means "not folded yet / invalidated" — the next covered
/// query folds it lazily.
#[derive(Debug, Default)]
pub struct RegionCube {
    entries: Mutex<Vec<Option<CubeEntry>>>,
}

impl RegionCube {
    /// An empty cube for `regions` regions (every entry folds lazily).
    pub fn new(regions: usize) -> Self {
        Self {
            entries: Mutex::new(vec![None; regions]),
        }
    }

    /// A cube seeded with carried entries (restructure paths that know which
    /// regions kept their live-row multiset).
    pub fn from_entries(entries: Vec<Option<CubeEntry>>) -> Self {
        Self {
            entries: Mutex::new(entries),
        }
    }

    /// Number of regions the cube tracks.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cube tracks no regions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A clone of every entry, for carrying across a restructure.
    pub fn snapshot(&self) -> Vec<Option<CubeEntry>> {
        self.entries.lock().unwrap().clone()
    }

    /// The entry for `region`, if currently folded.
    pub fn get(&self, region: usize) -> Option<CubeEntry> {
        self.entries.lock().unwrap().get(region).cloned().flatten()
    }

    /// Drops `region`'s entry; the next covered query re-folds it.
    pub fn invalidate(&self, region: usize) {
        if let Some(slot) = self.entries.lock().unwrap().get_mut(region) {
            *slot = None;
        }
    }

    /// The entry for `region`, folded with `fold` — over the region's live
    /// rows, main and delta — on the first request since (in)validation. The
    /// fold runs outside the lock; on a race the first stored fold wins
    /// (both computed the same value).
    pub fn get_or_fold(&self, region: usize, fold: impl FnOnce() -> CubeEntry) -> CubeEntry {
        if let Some(entry) = self.get(region) {
            return entry;
        }
        let folded = fold();
        let mut entries = self.entries.lock().unwrap();
        entries[region].get_or_insert(folded).clone()
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
    fn cube_folds_lazily_and_invalidates() {
        let store = ColumnStore::from_dataset(&ds());
        let cube = RegionCube::new(1);
        assert_eq!(cube.get(0), None);
        let e = cube.get_or_fold(0, || CubeEntry::fold_store(&store, 0..4));
        assert_eq!(e.rows, 4);
        assert_eq!(cube.get(0), Some(e));
        cube.invalidate(0);
        assert_eq!(cube.get(0), None);
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
}
