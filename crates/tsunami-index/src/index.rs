//! The composed Tsunami index: Grid Tree over the data space, with an
//! independently-optimized Augmented Grid inside every region that receives
//! queries (§3) and clears the layout granularity floor (crate docs): a
//! region's grid-or-no-grid decision and cell budget are made in exactly one
//! place, `augmented_grid::optimizer::region_layout`, which build and the
//! graft (below) both call.
//!
//! A layout is derived for a workload in exactly one way — the from-scratch
//! [`TsunamiIndex::build`] — so adapting to a shifted workload (§8) is a
//! rebuild. Data changes do not need one, and cost what they change:
//!
//! * the store is **main + delta**. The main rows are the clustered,
//!   block-encoded layout (regions contiguous, cells contiguous inside
//!   gridded regions); the *delta* is the paper's §8 per-leaf buffer — rows
//!   ingested since, kept in region order in the store's plain tail and
//!   found through one offsets table. [`TsunamiIndex::ingest`] routes a batch
//!   and merges it into the delta; [`TsunamiIndex::delete_where`] only sets
//!   tombstone bits. Both share every encoded block and every grid with
//!   their predecessor by pointer;
//! * the **graft** folds the whole delta (and, for a delete, leaves the dead
//!   rows of over-the-bar regions out) back into the main rows — the one
//!   routine that moves the table. It runs once the delta reaches one scan
//!   block, or when a touched region's layout decision is due, or when a
//!   region's dead fraction passes the bar;
//!
//! and correctness never depends on which of the two a mutation took.
//!
//! What [`TsunamiIndex::plan`] learns from the Grid Tree — which regions a
//! query can match in, which it covers whole (answered from the cube, or
//! scanned exact), which predicates a whole-region range or a delta run
//! need not re-check — it reads off the regions' bounds, under one
//! invariant: a region's bounds contain every row stored for it, main slice
//! and delta run, live or tombstoned (`grid_tree` module docs, "Region
//! bounds"). Build sets them to the rows' own minimum and maximum; ingest
//! routes every row through [`GridTree::absorb_point`], which widens them,
//! before the row is stored anywhere; deletes, grafts and compactions move
//! or drop rows within a region and leave the bounds alone; the rebuild
//! escalations start over. `plan()` itself is one descent and, per gridded
//! region reached, one cell enumeration, both feeding the plan through
//! callbacks out of one scratch: what it allocates does not grow with the
//! regions or grids a query reaches (`tests/plan_allocations.rs`).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::augmented_grid::optimizer::{region_can_hold_grid, region_layout};
use crate::augmented_grid::{AugmentedGrid, CellScratch, Skeleton};
use crate::config::TsunamiConfig;
use crate::cube::{CubeEntry, RegionCube};
use crate::grid_tree::{with_loose_residual, GridTree, Region, RegionData};
use crate::query_types::cluster_query_types;
use tsunami_core::exec::{pool, BLOCK_ROWS};
use tsunami_core::{
    BuildTiming, CostModel, Dataset, IngestReport, MultiDimIndex, Point, Query, Result, ScanPlan,
    ScanSource, Successor, TombstoneSet, TsunamiError, Workload,
};
use tsunami_store::ColumnStore;

/// Per-region physical layout information.
#[derive(Debug, Clone)]
struct RegionIndex {
    /// First physical row of the region's main slice in the reordered store.
    base: usize,
    /// Number of rows in the main slice — the region as of the last graft.
    /// Rows ingested since sit in the region's delta run (see
    /// [`TsunamiIndex::delta`]) and are not counted here.
    len: usize,
    /// The region's Augmented Grid over its main slice, or `None` when no
    /// query intersects the region or it has too few rows for a grid to
    /// split (it is then answered with a plain region scan). Shared with
    /// every successor index that did not re-grid the region.
    grid: Option<Arc<AugmentedGrid>>,
    /// Rows ingested into the region (main or delta) since its layout was
    /// last optimized — the per-region staleness counter. Ingested rows are
    /// answered from the moment they land (correctness never waits), but the
    /// *layout* only re-earns optimizer time once `inserted / rows` passes
    /// [`TsunamiConfig::ingest_region_staleness`].
    inserted: usize,
}

/// What one graft did, for the ingest and delete reports.
#[derive(Debug, Default)]
struct GraftCounts {
    /// Regions whose layout decision was re-made and left them a grid.
    reoptimized: usize,
    /// Regions whose dead rows were left out.
    compacted: usize,
}

/// Statistics of an optimized Tsunami index (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TsunamiStats {
    /// Total Grid Tree nodes (internal + leaf).
    pub num_grid_tree_nodes: usize,
    /// Grid Tree depth.
    pub grid_tree_depth: usize,
    /// Number of leaf regions.
    pub num_leaf_regions: usize,
    /// Leaf regions indexed by an Augmented Grid; the rest are answered by a
    /// plain region scan bounded by the Grid Tree (no intersecting queries,
    /// or too few rows for a grid to split — see the crate docs, "Layout
    /// granularity floor").
    pub gridded_regions: usize,
    /// Minimum points in a region.
    pub min_points_per_region: usize,
    /// Median points in a region.
    pub median_points_per_region: usize,
    /// Maximum points in a region.
    pub max_points_per_region: usize,
    /// Average number of functional mappings per indexed region.
    pub avg_fms_per_region: f64,
    /// Average number of conditional CDFs per indexed region.
    pub avg_ccdfs_per_region: f64,
    /// Total number of grid cells across all regions.
    pub total_grid_cells: usize,
    /// Rows sitting in the delta — ingested since the last graft, answered
    /// by per-region scans of the store's plain tail. Under one scan block
    /// at rest; 0 right after a build, a graft or a rebuild.
    pub delta_rows: usize,
}

/// What [`TsunamiIndex::delete_where_with_cost`] did to absorb a delete.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteReport {
    /// Rows newly tombstoned by this delete (rows already deleted by an
    /// earlier call do not count again).
    pub rows_deleted: usize,
    /// Regions whose *dead* fraction (tombstoned over region rows — what
    /// compaction repays; rows ingested since the layout was optimized do
    /// not count) crossed [`TsunamiConfig::ingest_region_staleness`] and
    /// were physically compacted — dead rows dropped, the region re-gridded
    /// over its live rows. 0 for a tombstone-only delete.
    pub regions_compacted: usize,
    /// Whether the whole index escalated to a from-scratch rebuild over the
    /// live rows (the delete pushed the mutated fraction past
    /// [`TsunamiConfig::ingest_rebuild_staleness`]).
    pub rebuilt: bool,
    /// The whole-index mutated-row fraction including this delete, *before*
    /// any staleness was repaid by compaction or rebuild.
    pub data_staleness: f64,
}

/// Tsunami: a learned multi-dimensional index robust to data correlation and
/// query skew.
#[derive(Debug)]
pub struct TsunamiIndex {
    tree: GridTree,
    regions: Vec<RegionIndex>,
    /// Main rows (`0..delta[0]`, region after region) then the delta.
    store: ColumnStore,
    /// The delta's offsets table, one entry per region plus one: region
    /// `r`'s delta rows are physical rows `delta[r]..delta[r + 1]`, so
    /// `delta[0]` is where the main rows end and the last entry is
    /// `store.len()`. All equal when the delta is empty.
    delta: Vec<usize>,
    timing: BuildTiming,
    /// The configuration and cost model the index was built with — what the
    /// trait-level [`MultiDimIndex::ingest_batch`] and
    /// [`MultiDimIndex::delete_matching`] mutate under, so an index keeps
    /// its optimizer and effort however it reached its owner.
    config: TsunamiConfig,
    cost: CostModel,
    /// The workload the current layout was optimized for — what a stale
    /// region's layout is re-derived for on ingest, and what the ingest and
    /// delete rebuild escalations build for.
    reference: Workload,
    /// Rows ingested since the Grid Tree was last derived from the data (at
    /// build) and not yet repaid by a region's local re-optimization — the
    /// whole-index staleness counter behind
    /// [`TsunamiIndex::data_staleness`].
    ingested: usize,
    /// Per-region materialized aggregates (see [`crate::cube`]); entries are
    /// maintained incrementally across ingest/delete and folded lazily on
    /// first use after a build or where a delete dropped them.
    cube: RegionCube,
    /// Whether the planner answers fully-covered regions from the cube
    /// instead of scanning them. On at build; toggle per index with
    /// [`TsunamiIndex::set_matview`], which survives every later
    /// restructure. Purely a performance switch — results are bit-identical
    /// either way.
    matview: bool,
}

/// A region's layout decision: its skeleton and partition counts, or `None`
/// for a plain region scan.
type Layout = Option<(Skeleton, Vec<usize>)>;

/// Runs [`region_layout`] for every region of a fresh Grid Tree on the
/// process-wide pool and returns the layouts in region order. Participants
/// claim region indices from an atomic cursor; the region datasets are
/// materialized by the caller, so workers only read. A region without one
/// cannot hold a grid, and is laid out as a plain region scan.
fn layout_regions(
    region_data: &[RegionData],
    region_datasets: &[Option<Dataset>],
    cost: &CostModel,
    config: &TsunamiConfig,
) -> Vec<Layout> {
    let slots: Vec<OnceLock<Layout>> = region_data.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let pool = pool::global();
    let helpers = (pool.worker_count() - 1).min(region_data.len().saturating_sub(1));
    pool.join_helpers(helpers, &|| loop {
        // Relaxed: the cursor publishes nothing but an index; each slot's
        // `OnceLock`, then the join's return, order the layouts before the
        // caller reads them.
        let rid = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(rd) = region_data.get(rid) else {
            break;
        };
        let layout = region_datasets[rid]
            .as_ref()
            .and_then(|ds| region_layout(ds, &rd.queries, None, cost, config));
        slots[rid].set(layout).expect("each region is claimed once");
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every region was claimed"))
        .collect()
}

impl TsunamiIndex {
    /// Builds a Tsunami index with the default configuration's structure but
    /// the provided config (convenience wrapper around
    /// [`TsunamiIndex::build_with_cost`] using a default [`CostModel`]).
    pub fn build(data: &Dataset, workload: &Workload, config: &TsunamiConfig) -> Result<Self> {
        Self::build_with_cost(data, workload, &CostModel::default(), config)
    }

    /// Builds a Tsunami index using an explicit cost model (e.g. one
    /// calibrated on the current machine).
    ///
    /// The regions' layout searches are independent of each other, so they
    /// run across the process-wide pool: the calling thread and up to
    /// `worker_count - 1` workers claim regions from a shared cursor, and
    /// each result lands in its region's slot. The layout therefore does not
    /// depend on the pool's size or on which thread searched which region.
    /// [`BuildTiming::optimize_secs`] is wall time: with several workers it
    /// is the search's span across them, not its single-core cost.
    pub fn build_with_cost(
        data: &Dataset,
        workload: &Workload,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> Result<Self> {
        if data.num_dims() == 0 {
            return Err(TsunamiError::Build("dataset has no dimensions".into()));
        }

        // ------------------------------------------------------------------
        // Offline optimization (Fig 9b "optimization time"):
        //   (1) cluster query types, (2) optimize the Grid Tree,
        //   (3) optimize each region's Augmented Grid layout.
        // ------------------------------------------------------------------
        let opt_start = Instant::now();
        let types = cluster_query_types(data, workload, config.optimizer_sample_size);
        let (tree, region_data) = GridTree::build(data, &types, config);

        // Lay out every region: a grid where it has intersecting queries
        // and enough rows to split, a plain region scan otherwise. Only a
        // region that can hold a grid has its rows copied for the search.
        // The copies outlive it (the sort below reads them), so they are
        // made here, on the building thread: made on pool workers they stay
        // in those workers' allocator arenas, which put ~10 % on the
        // resident set of a 100k-row TPC-H build.
        let region_datasets: Vec<Option<Dataset>> = region_data
            .iter()
            .map(|rd| {
                region_can_hold_grid(rd.rows.len(), config).then(|| data.select_rows(&rd.rows))
            })
            .collect();
        let layouts = layout_regions(&region_data, &region_datasets, cost, config);
        let optimize_secs = opt_start.elapsed().as_secs_f64();

        // ------------------------------------------------------------------
        // Data organization (Fig 9b "data sorting time"): build each region's
        // grid over its full data and reorder the column store so regions
        // (and cells within regions) are contiguous.
        // ------------------------------------------------------------------
        let sort_start = Instant::now();
        let mut regions = Vec::with_capacity(region_data.len());
        let mut global_perm: Vec<usize> = Vec::with_capacity(data.len());
        for (rd, (region_ds, layout)) in region_data.iter().zip(region_datasets.iter().zip(layouts))
        {
            let base = global_perm.len();
            let grid = match layout {
                None => {
                    global_perm.extend_from_slice(&rd.rows);
                    None
                }
                Some((skeleton, partitions)) => {
                    let region_ds = region_ds.as_ref().expect("a gridded region was copied");
                    let (grid, local_perm) =
                        AugmentedGrid::build(region_ds, &skeleton, &partitions);
                    global_perm.extend(local_perm.into_iter().map(|local| rd.rows[local]));
                    Some(Arc::new(grid))
                }
            };
            regions.push(RegionIndex {
                base,
                len: rd.rows.len(),
                grid,
                inserted: 0,
            });
        }
        let mut store = ColumnStore::from_dataset(data);
        store.permute(&global_perm);
        store.encode_blocks();
        let sort_secs = sort_start.elapsed().as_secs_f64();

        let num_regions = regions.len();
        Ok(Self {
            tree,
            regions,
            store,
            delta: vec![data.len(); num_regions + 1],
            timing: BuildTiming {
                sort_secs,
                optimize_secs,
            },
            config: config.clone(),
            cost: *cost,
            reference: workload.clone(),
            ingested: 0,
            cube: RegionCube::new(num_regions),
            matview: true,
        })
    }

    /// Ingests a batch of rows with the default cost model. See
    /// [`TsunamiIndex::ingest_with_cost`].
    pub fn ingest(&self, rows: &[Point], config: &TsunamiConfig) -> Result<(Self, IngestReport)> {
        let batch = Dataset::from_rows(self.store.num_dims(), rows)?;
        self.ingest_with_cost(&batch, &CostModel::default(), config)
    }

    /// Absorbs new rows into the existing index **without a rebuild**.
    ///
    /// Each row is routed to its Grid-Tree region (widening the region's
    /// bounds when the row falls outside them), counted against that
    /// region's staleness and folded into its cube entry. Where the rows
    /// then land is decided from the index's own state:
    ///
    /// * **Delta** (the common case for a small batch). The batch joins the
    ///   *delta*: the store's plain tail, kept in region order so each
    ///   region's delta rows are one contiguous run. Nothing else moves —
    ///   the successor shares every encoded block and every grid with this
    ///   index — so the cost is O(batch + delta + regions), independent of
    ///   the table. Queries answer a region's delta run with a plain scan
    ///   bounded by the (widened) Grid-Tree region.
    /// * **Graft.** The accumulated delta plus the batch are folded into the
    ///   main rows: every region with pending rows appends them to its slice
    ///   and, if gridded, is *re-gridded* — per-dimension models re-fit over
    ///   the merged rows (keeping bucket value bounds, and with them
    ///   exactness and residual elimination, truthful for out-of-domain
    ///   values) and the slice re-sorted into cell order — then the store is
    ///   re-encoded. A graft moves the whole table, so it runs only
    ///   1. when delta + batch reach one scan block ([`BLOCK_ROWS`] rows) —
    ///      which bounds the delta, and with it both the plain rows a query
    ///      can meet and the amortized cost: one O(table) pass per
    ///      `BLOCK_ROWS` ingested rows, and a batch that large takes it
    ///      immediately; or
    ///   2. when a region the batch touched has its layout decision due: its
    ///      inserted-row fraction is past
    ///      [`TsunamiConfig::ingest_region_staleness`], it has (or has grown
    ///      enough rows to hold) a grid, and reference queries reach it. The
    ///      graft then re-optimizes that layout locally, warm-started from
    ///      the current one, and repays the region's staleness. A grid-less
    ///      region still under the layout floor has no decision to re-make:
    ///      it stays a plain region scan and keeps its staleness on the
    ///      books.
    ///
    /// So ingest cost is proportional to the batch, not to the index, except
    /// in the one call per scan block that pays for the rest — and never
    /// includes the layout optimizer unless a region's staleness escalates.
    /// The whole index escalates to a from-scratch
    /// [`TsunamiIndex::build_with_cost`] over data + batch when the ingested
    /// fraction would pass [`TsunamiConfig::ingest_rebuild_staleness`].
    ///
    /// Correctness never depends on staleness or on where rows sit: an
    /// ingested index returns results bit-identical to one rebuilt from the
    /// full dataset — only scan volume differs.
    pub fn ingest_with_cost(
        &self,
        rows: &Dataset,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> Result<(Self, IngestReport)> {
        if rows.num_dims() != self.store.num_dims() {
            return Err(TsunamiError::DimensionMismatch {
                expected: self.store.num_dims(),
                got: rows.num_dims(),
            });
        }
        let n = self.store.len();
        let m = rows.len();
        if m == 0 {
            return Ok((
                self.with_store(self.store.clone(), self.cube.snapshot()),
                IngestReport {
                    rows_ingested: 0,
                    regions_touched: 0,
                    regions_reoptimized: 0,
                    rebuilt: false,
                    data_staleness: self.data_staleness(),
                },
            ));
        }

        // Whole-index escalation: past the rebuild bar too much of the data
        // post-dates the Grid Tree for structure reuse to stay worthwhile.
        // The rebuild consumes the merged dataset — physical store order,
        // which is as good as any for a from-scratch build.
        let staleness =
            (self.ingested + self.store.tombstones().deleted() + m) as f64 / (n + m) as f64;
        if staleness > config.ingest_rebuild_staleness {
            // Rebuild over the *live* rows plus the batch so tombstoned rows
            // are never resurrected by the merge.
            let mut cols = self.store.live_slice_dataset(0..n).into_columns();
            for (dim, col) in cols.iter_mut().enumerate() {
                col.extend_from_slice(rows.column(dim));
            }
            let merged = Dataset::from_columns(cols)?;
            let mut rebuilt = Self::build_with_cost(&merged, &self.reference, cost, config)?;
            rebuilt.matview = self.matview;
            let regions_touched = rebuilt.regions.len();
            return Ok((
                rebuilt,
                IngestReport {
                    rows_ingested: m,
                    regions_touched,
                    regions_reoptimized: regions_touched,
                    rebuilt: true,
                    data_staleness: staleness,
                },
            ));
        }

        // Route each new row to its region, widening the region's bounds
        // to cover it: query routing, region-scan exactness and the cube
        // rest on bounds that contain every stored row.
        let mut tree = self.tree.clone();
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); self.regions.len()];
        let mut point = vec![0u64; rows.num_dims()];
        for j in 0..m {
            for (dim, coord) in point.iter_mut().enumerate() {
                *coord = rows.get(j, dim);
            }
            routed[tree.absorb_point(&point)].push(j);
        }

        // Incremental cube maintenance: a touched region's new live multiset
        // is old ∪ routed rows — wherever they land — so its entry absorbs
        // the batch as one folded delta ([`CubeEntry::merge`]), never a
        // re-fold over the region. Untouched regions carry; unfolded entries
        // stay lazy.
        let mut cube_entries = self.cube.snapshot();
        for (rid, news) in routed.iter().enumerate() {
            if news.is_empty() {
                continue;
            }
            if let Some(entry) = &mut cube_entries[rid] {
                entry.merge(&CubeEntry::fold_dataset(&rows.select_rows(news)));
            }
        }

        // Graft now, or leave the batch in the delta? Both triggers (see the
        // method docs) read only what the index can observe of itself.
        let layout_due = |(rid, news): (usize, &Vec<usize>)| {
            let region = &self.regions[rid];
            let rows = region.len + self.delta_range(rid).len() + news.len();
            let inserted = region.inserted + news.len();
            let bounds = tree.region(rid);
            !news.is_empty()
                && !self
                    .due_queries(region, bounds, rows, inserted, config)
                    .is_empty()
        };
        let (index, regions_reoptimized) =
            if self.delta_rows() + m >= BLOCK_ROWS || routed.iter().enumerate().any(layout_due) {
                let no_compaction = vec![false; self.regions.len()];
                let (index, counts) = self.graft(
                    tree,
                    self.store.clone(),
                    rows,
                    &routed,
                    &no_compaction,
                    cube_entries,
                    cost,
                    config,
                );
                (index, counts.reoptimized)
            } else {
                (self.with_delta(tree, rows, &routed, cube_entries), 0)
            };
        let regions_touched = routed.iter().filter(|news| !news.is_empty()).count();
        Ok((
            index,
            IngestReport {
                rows_ingested: m,
                regions_touched,
                regions_reoptimized,
                rebuilt: false,
                data_staleness: staleness,
            },
        ))
    }

    /// The reference queries a region's layout decision is due to be re-made
    /// for; empty when it is not due. A region of `rows` rows, `inserted` of
    /// them since its layout was optimized, is due once it is past the
    /// staleness bar *and* there is a decision to make — it has a grid, or
    /// has grown enough rows to hold one (which is how a grid-less region
    /// that grew through the layout floor earns its first grid) — *and*
    /// reference queries reach its (widened) `bounds`.
    fn due_queries(
        &self,
        region: &RegionIndex,
        bounds: Region,
        rows: usize,
        inserted: usize,
        config: &TsunamiConfig,
    ) -> Vec<Query> {
        let stale = inserted as f64 / rows.max(1) as f64 > config.ingest_region_staleness;
        let layable = region.grid.is_some() || region_can_hold_grid(rows, config);
        if !(stale && layable) {
            return Vec::new();
        }
        let reference = self.reference.queries().iter();
        reference
            .filter(|q| bounds.intersects(q))
            .cloned()
            .collect()
    }

    /// The delta path of an ingest: the routed batch joins the store's plain
    /// tail and the tail is put back in region order. Touches nothing but
    /// the tail, the offsets table and the touched regions' counters.
    fn with_delta(
        &self,
        tree: GridTree,
        batch: &Dataset,
        routed: &[Vec<usize>],
        cube_entries: Vec<Option<CubeEntry>>,
    ) -> Self {
        let start = Instant::now();
        let main_len = self.delta[0];
        let old_delta = self.delta_rows();
        let mut store = self.store.clone();
        store.append_dataset(batch);
        // The tail as it lies is old delta (region order) then the batch
        // (arrival order); `perm` interleaves them region by region, in
        // tail-local indices.
        let mut perm: Vec<usize> = Vec::with_capacity(old_delta + batch.len());
        let mut delta: Vec<usize> = Vec::with_capacity(self.delta.len());
        let mut regions = self.regions.clone();
        for (rid, news) in routed.iter().enumerate() {
            delta.push(main_len + perm.len());
            perm.extend(self.delta_range(rid).map(|row| row - main_len));
            perm.extend(news.iter().map(|&j| old_delta + j));
            regions[rid].inserted += news.len();
        }
        delta.push(main_len + perm.len());
        // The encoded prefix never reaches past the main rows, so this
        // reorders plain values only.
        store.permute_range(main_len, &perm);
        let timing = BuildTiming {
            sort_secs: start.elapsed().as_secs_f64(),
            optimize_secs: 0.0,
        };
        self.with_layout(tree, regions, store, delta, timing, cube_entries)
    }

    /// The graft: folds the whole delta, a routed `batch` (possibly empty)
    /// and — for the regions flagged in `compact` — the removal of their
    /// dead rows into the main rows, and re-encodes the store. `store` is
    /// this index's store, with any new tombstones already set.
    ///
    /// Regions with nothing pending keep their grid (shared) and their
    /// physical order; their rows only shift. Every other region's slice
    /// becomes main rows ++ delta rows ++ batch rows (minus the dead, when
    /// compacting), its layout decision is re-made if due (see
    /// [`TsunamiIndex::due_queries`]), and otherwise it keeps its layout
    /// re-gridded over the new slice — re-fitted to the new row count, which
    /// drops the grid altogether below the layout floor. Cube entries are the
    /// caller's: a graft moves rows only within regions, which changes no
    /// live multiset.
    #[allow(clippy::too_many_arguments)]
    fn graft(
        &self,
        tree: GridTree,
        mut store: ColumnStore,
        batch: &Dataset,
        routed: &[Vec<usize>],
        compact: &[bool],
        cube_entries: Vec<Option<CubeEntry>>,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> (Self, GraftCounts) {
        let start = Instant::now();
        let n = store.len();
        // Batch row `j` is physical row `n + j` until the final reorder.
        store.append_dataset(batch);
        let mut perm: Vec<usize> = Vec::with_capacity(n + batch.len());
        let mut regions: Vec<RegionIndex> = Vec::with_capacity(self.regions.len());
        let mut counts = GraftCounts::default();
        let mut optimize_secs = 0.0f64;
        for (rid, region) in self.regions.iter().enumerate() {
            let news = &routed[rid];
            let base = perm.len();
            let main = region.base..region.base + region.len;
            let delta = self.delta_range(rid);
            if news.is_empty() && delta.is_empty() && !compact[rid] {
                perm.extend(main);
                regions.push(RegionIndex {
                    base,
                    ..region.clone()
                });
                continue;
            }
            counts.compacted += usize::from(compact[rid]);
            let kept = |row: &usize| !(compact[rid] && store.tombstones().is_deleted(*row));
            let indices: Vec<usize> = (main.clone().chain(delta.clone()).filter(kept))
                .chain(news.iter().map(|&j| n + j))
                .collect();
            let len = indices.len();
            let inserted = region.inserted + news.len();
            let bounds = tree.region(rid);
            let ref_q = self.due_queries(region, bounds, len, inserted, config);
            let reoptimize = !ref_q.is_empty();
            if region.grid.is_none() && !reoptimize {
                // Plain region scan: order within the slice is irrelevant.
                perm.extend(indices);
                regions.push(RegionIndex {
                    base,
                    len,
                    grid: None,
                    inserted,
                });
                continue;
            }
            // The region's new slice as a dataset, rows parallel to
            // `indices`.
            let slice = |range: Range<usize>| match compact[rid] {
                true => store.live_slice_dataset(range),
                false => store.slice_dataset(range),
            };
            let mut cols = slice(main).into_columns();
            let delta_rows = slice(delta);
            for (dim, col) in cols.iter_mut().enumerate() {
                col.extend_from_slice(delta_rows.column(dim));
                col.extend(news.iter().map(|&j| batch.get(j, dim)));
            }
            let region_ds = Dataset::from_columns(cols).expect("equal-length columns");
            debug_assert_eq!(region_ds.len(), len);

            // Without queries the region keeps its layout, re-gridded over
            // the new slice.
            let t0 = Instant::now();
            let layout = region_layout(
                &region_ds,
                &ref_q,
                region
                    .grid
                    .as_deref()
                    .map(|g| (g.skeleton(), g.partitions())),
                cost,
                config,
            );
            if reoptimize {
                optimize_secs += t0.elapsed().as_secs_f64();
            }
            let grid = match layout {
                None => {
                    perm.extend(indices);
                    None
                }
                Some((skeleton, partitions)) => {
                    // Re-sort only this region's slice into the grid's cell
                    // order.
                    let (grid, local_perm) =
                        AugmentedGrid::build(&region_ds, &skeleton, &partitions);
                    perm.extend(local_perm.into_iter().map(|local| indices[local]));
                    counts.reoptimized += usize::from(reoptimize);
                    Some(Arc::new(grid))
                }
            };
            regions.push(RegionIndex {
                base,
                len,
                grid,
                // A re-made decision repays the region's staleness, whatever
                // it decided.
                inserted: if reoptimize { 0 } else { inserted },
            });
        }
        store.select(&perm);
        store.encode_blocks();

        let sort_secs = (start.elapsed().as_secs_f64() - optimize_secs).max(0.0);
        let timing = BuildTiming {
            sort_secs,
            optimize_secs,
        };
        let delta = vec![store.len(); regions.len() + 1];
        let index = self.with_layout(tree, regions, store, delta, timing, cube_entries);
        (index, counts)
    }

    /// Tombstones the rows matching `query`'s predicates with the default
    /// cost model. See [`TsunamiIndex::delete_where_with_cost`].
    pub fn delete_where(
        &self,
        query: &Query,
        config: &TsunamiConfig,
    ) -> Result<(Self, DeleteReport)> {
        self.delete_where_with_cost(query, &CostModel::default(), config)
    }

    /// Deletes the rows matching `query`'s predicates **without a rebuild**.
    ///
    /// Deleted rows — main or delta — are tombstoned in the store's deletion
    /// bitmap; every kernel tier masks liveness into its selections, so
    /// results are immediately exact while the physical layout, every
    /// region's grid and the delta stay untouched and shared with this
    /// index. That is the whole delete unless tombstones have piled up:
    ///
    /// * a region whose **dead** fraction (tombstoned over region rows)
    ///   passes [`TsunamiConfig::ingest_region_staleness`] is *compacted*, by
    ///   the same graft an ingest uses with the region's dead rows left out:
    ///   the region is re-gridded over its live rows with its existing
    ///   layout, the rest of the delta is folded in on the way, and
    ///   subsequent regions shift down. The trigger counts only what
    ///   compaction repays — rows ingested since the layout was optimized
    ///   stay on the region's books through a compaction, so they must not
    ///   bring one about;
    /// * the whole index escalates to a from-scratch
    ///   [`TsunamiIndex::build_with_cost`] over the live rows when the
    ///   mutated fraction (ingested + tombstoned) passes
    ///   [`TsunamiConfig::ingest_rebuild_staleness`].
    ///
    /// Correctness never depends on compaction: a tombstoned index returns
    /// results bit-identical to one rebuilt from the live rows — only scan
    /// volume differs.
    pub fn delete_where_with_cost(
        &self,
        query: &Query,
        cost: &CostModel,
        config: &TsunamiConfig,
    ) -> Result<(Self, DeleteReport)> {
        query.validate_dims(self.store.num_dims())?;
        let mut store = self.store.clone();
        let rows_deleted = store.delete_where(query);
        let n = store.len();
        let staleness = (self.ingested + store.tombstones().deleted()) as f64 / n.max(1) as f64;
        let report = |regions_compacted: usize, rebuilt: bool| DeleteReport {
            rows_deleted,
            regions_compacted,
            rebuilt,
            data_staleness: staleness,
        };
        if rows_deleted == 0 {
            // No new tombstones: every live multiset is unchanged.
            let same = self.with_store(store, self.cube.snapshot());
            return Ok((same, report(0, false)));
        }

        // Whole-index escalation: past the rebuild bar too much of the data
        // post-dates (or no longer belongs to) the Grid Tree for structure
        // reuse to stay worthwhile. The rebuild consumes only the live rows,
        // so tombstones are physically gone afterwards.
        if staleness > config.ingest_rebuild_staleness {
            let live = store.live_slice_dataset(0..n);
            let mut rebuilt = Self::build_with_cost(&live, &self.reference, cost, config)?;
            rebuilt.matview = self.matview;
            let regions_compacted = rebuilt.regions.len();
            return Ok((rebuilt, report(regions_compacted, true)));
        }

        // Cube maintenance: exactly the regions whose tombstone count grew —
        // in their main slice or their delta run — lost live rows; drop their
        // entries (re-folded lazily on the next covered query). Everything
        // else carries: a compaction only removes already-dead rows and
        // moves rows within regions, neither of which changes a live
        // multiset.
        let mut cube_entries = self.cube.snapshot();
        let mut compact = vec![false; self.regions.len()];
        for (rid, region) in self.regions.iter().enumerate() {
            let (main, delta) = (region.base..region.base + region.len, self.delta_range(rid));
            let dead_in = |tombstones: &TombstoneSet| {
                tombstones.count_deleted_in(main.clone())
                    + tombstones.count_deleted_in(delta.clone())
            };
            let dead = dead_in(store.tombstones());
            if dead != dead_in(self.store.tombstones()) {
                cube_entries[rid] = None;
            }
            let rows = region.len + delta.len();
            compact[rid] = dead > 0 && dead as f64 / rows as f64 > config.ingest_region_staleness;
        }
        if !compact.contains(&true) {
            // Tombstone-only: the layout, and the delta, are this index's.
            return Ok((self.with_store(store, cube_entries), report(0, false)));
        }

        // Compaction repays *physical* staleness; a compacted region keeps
        // its optimized skeleton/partitions unless its layout decision has
        // come due on the way.
        let no_batch = Dataset::from_rows(store.num_dims(), &[])?;
        let routed = vec![Vec::new(); self.regions.len()];
        let (index, counts) = self.graft(
            self.tree.clone(),
            store,
            &no_batch,
            &routed,
            &compact,
            cube_entries,
            cost,
            config,
        );
        Ok((index, report(counts.compacted, false)))
    }

    /// This index over `store` — its own store, at most with more tombstones
    /// set — with the layout, grids and delta carried over as they are.
    fn with_store(&self, store: ColumnStore, cube_entries: Vec<Option<CubeEntry>>) -> Self {
        self.with_layout(
            self.tree.clone(),
            self.regions.clone(),
            store,
            self.delta.clone(),
            BuildTiming::default(),
            cube_entries,
        )
    }

    /// The index a mutation leaves behind: the parts it re-derived, with
    /// everything else — config, cost model, reference workload,
    /// matview switch — carried over. Each region's `inserted` is the unpaid
    /// staleness, so the whole-index counter is their sum.
    fn with_layout(
        &self,
        tree: GridTree,
        regions: Vec<RegionIndex>,
        store: ColumnStore,
        delta: Vec<usize>,
        timing: BuildTiming,
        cube_entries: Vec<Option<CubeEntry>>,
    ) -> Self {
        // Row ownership: every stored row belongs to exactly one region, as
        // one of its main rows or one of its delta rows.
        debug_assert_eq!(delta.len(), regions.len() + 1);
        debug_assert!(delta.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(regions.iter().map(|r| r.len).sum::<usize>(), delta[0]);
        debug_assert_eq!(delta[regions.len()], store.len());
        Self {
            tree,
            ingested: regions.iter().map(|r| r.inserted).sum(),
            regions,
            store,
            delta,
            timing,
            config: self.config.clone(),
            cost: self.cost,
            reference: self.reference.clone(),
            cube: RegionCube::from_entries(cube_entries),
            matview: self.matview,
        }
    }

    /// Region `rid`'s delta run: the physical rows ingested into it since
    /// the last graft.
    fn delta_range(&self, rid: usize) -> Range<usize> {
        self.delta[rid]..self.delta[rid + 1]
    }

    /// Rows in the delta, over all regions.
    fn delta_rows(&self) -> usize {
        self.store.len() - self.delta[0]
    }

    /// Region `rid`'s cube entry, folded from the store: its live rows are
    /// those of its main slice and of its delta run.
    fn fold_region(&self, rid: usize) -> CubeEntry {
        let region = &self.regions[rid];
        let mut entry = CubeEntry::fold_store(&self.store, region.base..region.base + region.len);
        entry.merge(&CubeEntry::fold_store(&self.store, self.delta_range(rid)));
        entry
    }

    /// The fraction of stored rows mutated — ingested or tombstoned — since
    /// the Grid Tree was last derived from the data (and not yet repaid with
    /// optimizer attention or compaction) — the data-drift signal the
    /// engine's autonomous re-optimization loop watches, mirroring its
    /// workload-drift monitor.
    pub fn data_staleness(&self) -> f64 {
        (self.ingested + self.store.tombstones().deleted()) as f64 / self.store.len().max(1) as f64
    }

    /// Number of live (non-tombstoned) rows the index answers over.
    pub fn live_len(&self) -> usize {
        self.store.live_len()
    }

    /// Enables or disables answering fully-covered regions from the
    /// materialized region cube (see [`crate::cube`]). Purely a performance
    /// switch — results are bit-identical either way — exposed so benchmarks
    /// and differential tests can compare both paths. The setting is carried
    /// through ingest and delete, including their whole-index rebuild
    /// escalations.
    pub fn set_matview(&mut self, on: bool) {
        self.matview = on;
    }

    /// Whether the planner currently answers covered regions from the cube.
    pub fn matview_enabled(&self) -> bool {
        self.matview
    }

    /// The Grid Tree component.
    pub fn grid_tree(&self) -> &GridTree {
        &self.tree
    }

    /// The Augmented Grid over a Grid-Tree region's main slice, if the
    /// region has one.
    pub fn region_grid(&self, region: usize) -> Option<&AugmentedGrid> {
        self.regions[region].grid.as_deref()
    }

    /// Index statistics in the shape of the paper's Table 4.
    pub fn stats(&self) -> TsunamiStats {
        let mut points: Vec<usize> = (self.regions.iter().enumerate())
            .map(|(rid, r)| r.len + self.delta_range(rid).len())
            .collect();
        points.sort_unstable();
        let indexed: Vec<&AugmentedGrid> = self
            .regions
            .iter()
            .filter_map(|r| r.grid.as_deref())
            .collect();
        // Integer totals: an all-grid-less index averages to 0, not the -0.0
        // an empty float sum yields.
        let per_indexed = |total: usize| total as f64 / indexed.len().max(1) as f64;
        TsunamiStats {
            num_grid_tree_nodes: self.tree.num_nodes(),
            grid_tree_depth: self.tree.depth(),
            num_leaf_regions: self.tree.num_regions(),
            gridded_regions: indexed.len(),
            min_points_per_region: points.first().copied().unwrap_or(0),
            median_points_per_region: points.get(points.len() / 2).copied().unwrap_or(0),
            max_points_per_region: points.last().copied().unwrap_or(0),
            avg_fms_per_region: per_indexed(
                indexed
                    .iter()
                    .map(|g| g.num_functional_mappings())
                    .sum::<usize>(),
            ),
            avg_ccdfs_per_region: per_indexed(
                indexed
                    .iter()
                    .map(|g| g.num_conditional_cdfs())
                    .sum::<usize>(),
            ),
            total_grid_cells: indexed.iter().map(|g| g.num_cells()).sum(),
            delta_rows: self.delta_rows(),
        }
    }
}

impl MultiDimIndex for TsunamiIndex {
    fn name(&self) -> &str {
        "Tsunami"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let mut plan = ScanPlan::new();
        // Residual elimination: a predicate needs re-checking only if *some*
        // planned range fails to guarantee it by construction (through its
        // grid's visited partitions, or through the Grid-Tree region bounds
        // for whole-region ranges and delta runs). One bit per dimension
        // ([`dim_bit`]), set when a range does not guarantee it.
        let mut loose: u128 = 0;
        // Delta runs of the hit regions, pushed after every main range: the
        // delta is in region order, so the runs of adjacent hit regions
        // merge into one range (`ScanPlan::push` merges with the last range
        // only). Never allocates while the delta is empty.
        let mut delta_runs: Vec<(Range<usize>, bool)> = Vec::new();
        let mut scratch = CellScratch::default();
        // The aggregation's input dimension, whose pre-folded SUM/MIN/MAX a
        // covered region contributes (COUNT only uses the row count; dim 0
        // stands in, and every dataset has at least one dimension).
        let agg_dim = query.aggregation().input_dim().unwrap_or(0);
        let visit = |region_id: usize, loose_in_bounds: u128| {
            let region = &self.regions[region_id];
            let delta = self.delta_range(region_id);
            if region.len == 0 && delta.is_empty() {
                return;
            }
            // Containment in the query makes everything in the region —
            // main rows and delta rows alike, the bounds cover both — match
            // it: the region can be answered from the cube, or scanned
            // exact, and cannot weaken any residual guarantee.
            let contained = loose_in_bounds == 0;
            // Materialized-aggregate coverage: a contained region contributes
            // its pre-folded cube entry (main + delta rows) as a
            // `PlanPartial` instead of scan ranges. Only whole regions
            // qualify — partial overlaps (the rims) still scan.
            if self.matview && contained {
                let fold = || self.fold_region(region_id);
                if let Some(partial) = self.cube.get_or_fold(region_id, agg_dim, fold) {
                    plan.push_partial(partial);
                }
                return;
            }
            // The main slice: through the grid's cells, or as one range when
            // there is no grid or its cell enumeration fell back because it
            // would cost more than the scan.
            let base = region.base;
            let emit = |r: Range<usize>, exact| plan.push(base + r.start..base + r.end, exact);
            let by_cells =
                (region.grid.as_ref()).and_then(|g| g.plan_cells(query, &mut scratch, emit));
            if by_cells.is_none() {
                plan.push(base..base + region.len, contained);
            }
            // A whole-region range and a delta run hold "any row of the
            // region": exact iff the region is contained, and guaranteed
            // what the Grid-Tree region bounds guarantee.
            let by_bounds = by_cells.is_none() || !delta.is_empty();
            loose |= by_cells.unwrap_or(0) | if by_bounds { loose_in_bounds } else { 0 };
            if !delta.is_empty() {
                delta_runs.push((delta, contained));
            }
        };
        self.tree.for_each_region(query, visit);
        for (run, exact) in delta_runs {
            plan.push(run, exact);
        }
        with_loose_residual(plan, query, loose)
    }

    fn size_bytes(&self) -> usize {
        self.tree.size_bytes()
            + std::mem::size_of_val(self.regions.as_slice())
            + std::mem::size_of_val(self.delta.as_slice())
            + (self.regions.iter().filter_map(|r| r.grid.as_deref()))
                .map(|grid| std::mem::size_of::<AugmentedGrid>() + grid.size_bytes())
                .sum::<usize>()
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn ingest_batch(&self, rows: &Dataset) -> Result<Option<Successor>> {
        let (index, report) = self.ingest_with_cost(rows, &self.cost, &self.config)?;
        Ok(Some(Successor {
            index: Box::new(index),
            rows: report.rows_ingested,
            rebuilt: report.rebuilt,
            ingest_report: Some(report),
        }))
    }

    fn delete_matching(&self, query: &Query) -> Result<Option<Successor>> {
        let (index, report) = self.delete_where_with_cost(query, &self.cost, &self.config)?;
        Ok(Some(Successor {
            index: Box::new(index),
            rows: report.rows_deleted,
            rebuilt: report.rebuilt,
            ingest_report: None,
        }))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        // Exposes the concrete index behind `Box<dyn MultiDimIndex>` for
        // callers that read Tsunami-only state (region statistics, the
        // matview switch).
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augmented_grid::optimizer::TARGET_ROWS_PER_CELL;
    use crate::augmented_grid::OptimizerKind;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggResult, Predicate};

    /// A dataset with both correlation (dim1 ~ 2*dim0) and a time-like
    /// dimension (dim2) that the workload queries with recency skew.
    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        let d0: Vec<u64> = (0..n).map(|_| rng.next_below(50_000)).collect();
        let d1: Vec<u64> = d0.iter().map(|&v| 2 * v + rng.next_below(200)).collect();
        let d2: Vec<u64> = (0..n as u64).map(|i| i * 10_000 / n as u64).collect();
        Dataset::from_columns(vec![d0, d1, d2]).unwrap()
    }

    /// Two query types: broad historical scans over dim0, and narrow recent
    /// scans over dim2 (skewed towards the top of its domain).
    fn workload(seed: u64) -> Workload {
        let mut rng = SplitMix::new(seed);
        let mut qs = Vec::new();
        for _ in 0..30 {
            let lo = rng.next_below(40_000);
            qs.push(Query::count(vec![Predicate::range(0, lo, lo + 8_000).unwrap()]).unwrap());
        }
        for _ in 0..30 {
            let lo = 8_000 + rng.next_below(1_800);
            qs.push(Query::count(vec![Predicate::range(2, lo, lo + 150).unwrap()]).unwrap());
        }
        Workload::new(qs)
    }

    #[test]
    fn tsunami_matches_full_scan_oracle_on_workload_queries() {
        let data = dataset(8_000, 111);
        let w = workload(112);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        for q in w.queries() {
            assert_eq!(index.execute(q), q.execute_full_scan(&data), "{q:?}");
        }
    }

    #[test]
    fn tsunami_matches_oracle_on_unseen_multidim_queries() {
        let data = dataset(6_000, 113);
        let w = workload(114);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let mut rng = SplitMix::new(115);
        for _ in 0..25 {
            let a = rng.next_below(45_000);
            let c = rng.next_below(9_000);
            let q = Query::count(vec![
                Predicate::range(0, a, a + 10_000).unwrap(),
                Predicate::range(1, 2 * a, 2 * a + 30_000).unwrap(),
                Predicate::range(2, c, c + 2_000).unwrap(),
            ])
            .unwrap();
            assert_eq!(index.execute(&q), q.execute_full_scan(&data), "{q:?}");
        }
        // Empty-result query.
        let q = Query::count(vec![Predicate::range(0, 400_000, 500_000).unwrap()]).unwrap();
        assert_eq!(q.execute_full_scan(&data), AggResult::Count(0));
        assert_eq!(index.execute(&q), AggResult::Count(0));
    }

    #[test]
    fn tsunami_scans_far_fewer_points_than_a_full_scan() {
        let data = dataset(20_000, 116);
        let w = workload(117);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let mut total_scanned = 0usize;
        for q in w.queries() {
            let (_, stats) = index.execute_with_stats(q);
            total_scanned += stats.points;
        }
        let avg = total_scanned / w.len();
        assert!(
            avg < data.len() / 3,
            "average scan of {avg} points out of {} is not selective enough",
            data.len()
        );
    }

    #[test]
    fn stats_describe_the_structure() {
        let data = dataset(10_000, 118);
        let w = workload(119);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let stats = index.stats();
        assert_eq!(stats.num_leaf_regions, index.grid_tree().num_regions());
        assert!(stats.num_grid_tree_nodes >= stats.num_leaf_regions);
        assert!(stats.max_points_per_region >= stats.median_points_per_region);
        assert!(stats.median_points_per_region >= stats.min_points_per_region);
        assert!(stats.total_grid_cells > 0);
        let total_points: usize = index.regions.iter().map(|r| r.len).sum();
        assert_eq!(total_points, data.len());
        assert!(index.size_bytes() > 0);
        assert!(index.build_timing().total_secs() > 0.0);
    }

    #[test]
    fn ablations_build_and_answer_correctly() {
        let data = dataset(5_000, 120);
        let w = workload(121);
        let fast = TsunamiConfig::fast();
        let independent = fast.clone().with_optimizer(OptimizerKind::Independent);
        let ablations = [
            ("full", fast.clone()),
            ("grid tree only", independent.clone()),
            (
                "augmented grid only",
                TsunamiConfig {
                    max_tree_depth: 0,
                    ..fast
                },
            ),
            (
                "flood-style",
                TsunamiConfig {
                    max_tree_depth: 0,
                    ..independent
                },
            ),
        ];
        for (label, config) in ablations {
            let index = TsunamiIndex::build(&data, &w, &config).unwrap();
            assert_eq!(index.name(), "Tsunami");
            for q in w.queries().iter().step_by(9) {
                assert_eq!(
                    index.execute(q),
                    q.execute_full_scan(&data),
                    "{label} {q:?}"
                );
            }
            let s = index.stats();
            if config.max_tree_depth == 0 {
                // One region over the whole space, laid out for every
                // clustered sample query: a grid, not a full scan.
                assert_eq!((s.num_leaf_regions, s.gridded_regions), (1, 1), "{label}");
            }
            if config.optimizer == OptimizerKind::Independent {
                // Flood-style grids: no correlation-aware strategies.
                assert_eq!(s.avg_fms_per_region, 0.0, "{label}");
                assert_eq!(s.avg_ccdfs_per_region, 0.0, "{label}");
            }
        }
    }

    #[test]
    fn skewed_workload_produces_multiple_regions_in_full_variant() {
        let data = dataset(10_000, 122);
        let w = workload(123);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        assert!(
            index.grid_tree().num_regions() >= 2,
            "expected the Grid Tree to split this skewed workload"
        );
    }

    #[test]
    fn empty_workload_still_builds_a_valid_index() {
        let data = dataset(2_000, 124);
        let index =
            TsunamiIndex::build(&data, &Workload::default(), &TsunamiConfig::fast()).unwrap();
        let q = Query::count(vec![Predicate::range(0, 0, 25_000).unwrap()]).unwrap();
        assert_eq!(index.execute(&q), q.execute_full_scan(&data));
    }

    #[test]
    fn sum_queries_are_supported_end_to_end() {
        let data = dataset(4_000, 125);
        let w = workload(126);
        let index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        let q = Query::new(
            vec![Predicate::range(0, 0, 25_000).unwrap()],
            tsunami_core::Aggregation::Sum(1),
        )
        .unwrap();
        assert_eq!(index.execute(&q), q.execute_full_scan(&data));
    }

    /// A batch of rows drawn from the same distribution as `dataset`, plus a
    /// few rows *outside* the build-time domain (larger dim0/dim2 values).
    fn ingest_batch(n: usize, seed: u64) -> Vec<tsunami_core::Point> {
        let mut rng = SplitMix::new(seed);
        let mut rows: Vec<tsunami_core::Point> = (0..n)
            .map(|_| {
                let d0 = rng.next_below(50_000);
                vec![d0, 2 * d0 + rng.next_below(200), rng.next_below(10_000)]
            })
            .collect();
        for i in 0..(n / 10).max(2) {
            // Out-of-domain tail: beyond every build-time max.
            rows.push(vec![120_000 + i as u64, 900_000, 60_000 + i as u64]);
        }
        rows
    }

    /// The ingested index's data, reconstructed from its own store order.
    fn merged_dataset(data: &Dataset, batch: &[tsunami_core::Point]) -> Dataset {
        let mut merged = data.clone();
        for row in batch {
            merged.push_row(row).unwrap();
        }
        merged
    }

    #[test]
    fn ingest_matches_an_index_rebuilt_from_the_full_dataset() {
        let data = dataset(6_000, 150);
        let w = workload(151);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();

        let batch = ingest_batch(400, 152);
        let (ingested, report) = index.ingest(&batch, &config).unwrap();
        assert!(!report.rebuilt, "{report:?}");
        assert_eq!(report.rows_ingested, batch.len());
        assert!(report.regions_touched >= 1);
        assert!(ingested.data_staleness() > 0.0);

        let merged = merged_dataset(&data, &batch);
        // Every row is owned by exactly one region — as a main row or, for
        // a batch this far under a scan block, a delta row — and the store
        // grew.
        assert_eq!(ingested.stats().delta_rows, batch.len());
        let total: usize = ingested.regions.iter().map(|r| r.len).sum();
        assert_eq!(total + ingested.stats().delta_rows, merged.len());

        // Results identical to a full rebuild — including queries reaching
        // only the out-of-domain tail.
        let rebuilt = TsunamiIndex::build(&merged, &w, &config).unwrap();
        let mut probes: Vec<Query> = w.queries().to_vec();
        probes.push(Query::count(vec![Predicate::range(0, 100_000, 200_000).unwrap()]).unwrap());
        probes.push(
            Query::new(
                vec![Predicate::range(2, 55_000, 70_000).unwrap()],
                tsunami_core::Aggregation::Sum(1),
            )
            .unwrap(),
        );
        for q in &probes {
            let expected = q.execute_full_scan(&merged);
            assert_eq!(ingested.execute(q), expected, "ingested {q:?}");
            assert_eq!(rebuilt.execute(q), expected, "rebuilt {q:?}");
        }
    }

    #[test]
    fn ingest_accumulates_staleness_and_escalates_to_rebuild() {
        let data = dataset(3_000, 153);
        let w = workload(154);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();

        // A batch below the rebuild bar keeps the structure...
        let small = ingest_batch(300, 155);
        let (after_small, report) = index.ingest(&small, &config).unwrap();
        assert!(!report.rebuilt);
        // ...a batch pushing the ingested fraction past the bar rebuilds.
        let large = ingest_batch(4_000, 156);
        let (after_large, report) = after_small.ingest(&large, &config).unwrap();
        assert!(report.rebuilt, "{report:?}");
        assert!(report.data_staleness > config.ingest_rebuild_staleness);
        assert_eq!(after_large.data_staleness(), 0.0);

        let merged = merged_dataset(&merged_dataset(&data, &small), &large);
        for q in w.queries().iter().step_by(7) {
            assert_eq!(after_large.execute(q), q.execute_full_scan(&merged));
        }
    }

    #[test]
    fn set_matview_survives_an_ingest_rebuild_escalation() {
        let data = dataset(3_000, 161);
        let w = workload(162);
        let config = TsunamiConfig::fast();
        let mut index = TsunamiIndex::build(&data, &w, &config).unwrap();
        assert!(index.matview_enabled());
        index.set_matview(false);

        // A batch larger than the table pushes staleness past the rebuild bar.
        let batch = ingest_batch(4_000, 163);
        let (rebuilt, report) = index.ingest(&batch, &config).unwrap();
        assert!(report.rebuilt, "{report:?}");
        assert!(
            !rebuilt.matview_enabled(),
            "a rebuild escalation must carry the per-index matview switch"
        );
        let merged = merged_dataset(&data, &batch);
        for q in w.queries().iter().step_by(7) {
            let (result, counters) = rebuilt.execute_with_stats(q);
            assert_eq!(result, q.execute_full_scan(&merged));
            assert_eq!(counters.partial_regions, 0, "matview is off: {q:?}");
        }
    }

    #[test]
    fn ingest_reoptimizes_stale_regions_locally() {
        // Sized so several regions clear the layout floor at build: the
        // escalation under test is a *gridded* region going stale (a
        // grid-less one earning its first grid has its own test below).
        let data = dataset(30_000, 157);
        let w = workload(158);
        // A hair-trigger region bar: any touched region re-optimizes.
        let config = TsunamiConfig::fast().with_ingest_staleness(0.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();
        let gridded_at_build = index.stats().gridded_regions;
        assert!(gridded_at_build >= 2, "{:?}", index.stats());
        let batch = ingest_batch(1_500, 159);
        let (ingested, report) = index.ingest(&batch, &config).unwrap();
        assert!(!report.rebuilt);
        // Every gridded region the batch touched had its layout re-optimized
        // (and kept a grid: regions only grew).
        let touched_gridded = index
            .regions
            .iter()
            .zip(&ingested.regions)
            .filter(|(before, after)| before.grid.is_some() && after.len > before.len)
            .count();
        assert!(
            touched_gridded >= 1,
            "the batch must reach a gridded region"
        );
        assert!(
            report.regions_reoptimized >= touched_gridded,
            "a zero staleness bar must escalate touched regions: {report:?}"
        );
        assert!(ingested.stats().gridded_regions >= gridded_at_build);
        assert!(ingested
            .regions
            .iter()
            .all(|r| r.grid.is_none() || r.inserted == 0));
        let merged = merged_dataset(&data, &batch);
        for q in w.queries().iter().step_by(5) {
            assert_eq!(ingested.execute(q), q.execute_full_scan(&merged));
        }
    }

    #[test]
    fn pooled_build_lays_out_every_region_as_the_serial_loop() {
        // The build searches region layouts on the process-wide pool; the
        // reference searches them one after another on this thread, over the
        // same Grid Tree. Region order and every (skeleton, partitions) must
        // agree, however the pool's participants split the regions.
        let data = dataset(30_000, 157);
        let w = workload(158);
        let config = TsunamiConfig::fast();
        let cost = CostModel::default();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();
        let types = cluster_query_types(&data, &w, config.optimizer_sample_size);
        let (_, region_data) = GridTree::build(&data, &types, &config);
        let serial: Vec<Layout> = region_data
            .iter()
            .map(|rd| {
                region_layout(
                    &data.select_rows(&rd.rows),
                    &rd.queries,
                    None,
                    &cost,
                    &config,
                )
            })
            .collect();
        let built: Vec<Layout> = index
            .regions
            .iter()
            .map(|r| {
                let grid = r.grid.as_ref()?;
                Some((grid.skeleton().clone(), grid.partitions().to_vec()))
            })
            .collect();
        assert!(
            built.iter().flatten().count() >= 3,
            "the fixture must grid several regions: {:?}",
            index.stats()
        );
        assert_eq!(built, serial);
    }

    #[test]
    fn ingest_rejects_mismatched_rows_and_accepts_empty_batches() {
        let data = dataset(2_000, 160);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &workload(161), &config).unwrap();
        assert!(matches!(
            index.ingest(&[vec![1, 2]], &config),
            Err(TsunamiError::DimensionMismatch { .. })
        ));
        let (same, report) = index.ingest(&[], &config).unwrap();
        assert_eq!(report.rows_ingested, 0);
        assert_eq!(report.regions_touched, 0);
        let q = Query::count(vec![Predicate::range(0, 0, 25_000).unwrap()]).unwrap();
        assert_eq!(same.execute(&q), index.execute(&q));
    }

    /// The live rows of `data` after deleting everything matching `del`.
    fn live_after(data: &Dataset, del: &Query) -> Dataset {
        let keep: Vec<usize> = (0..data.len())
            .filter(|&r| !del.matches_point(data.row(r).as_slice()))
            .collect();
        data.select_rows(&keep)
    }

    /// All five aggregations over the same predicate set.
    fn all_agg_probes(preds: Vec<Predicate>) -> Vec<Query> {
        use tsunami_core::Aggregation::*;
        [Count, Sum(1), Min(1), Max(1), Avg(2)]
            .into_iter()
            .map(|agg| Query::new(preds.clone(), agg).unwrap())
            .collect()
    }

    #[test]
    fn delete_where_tombstones_and_matches_live_oracle() {
        let data = dataset(6_000, 170);
        let w = workload(171);
        let config = TsunamiConfig::fast();
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();

        let del = Query::count(vec![Predicate::range(0, 10_000, 13_000).unwrap()]).unwrap();
        let (after, report) = index.delete_where(&del, &config).unwrap();
        let live = live_after(&data, &del);
        assert!(!report.rebuilt, "{report:?}");
        assert_eq!(report.rows_deleted, data.len() - live.len());
        assert!(report.rows_deleted > 0);
        assert_eq!(after.live_len(), live.len());
        assert!(after.data_staleness() > 0.0);

        // Bit-identical to the live oracle for every aggregation, on probes
        // overlapping the deleted band, the workload, and the full domain.
        let mut probes = all_agg_probes(vec![Predicate::range(0, 8_000, 20_000).unwrap()]);
        probes.extend(all_agg_probes(vec![]));
        probes.extend(w.queries().iter().step_by(7).cloned());
        for q in &probes {
            assert_eq!(after.execute(q), q.execute_full_scan(&live), "{q:?}");
        }

        // Deleting the same band again is a no-op.
        let (_, again) = after.delete_where(&del, &config).unwrap();
        assert_eq!(again.rows_deleted, 0);
    }

    #[test]
    fn delete_compaction_and_rebuild_paths_match_tombstoned_results() {
        let data = dataset(5_000, 172);
        let w = workload(173);
        let del = Query::count(vec![Predicate::range(2, 0, 2_500).unwrap()]).unwrap();
        let live = live_after(&data, &del);
        let mut probes = all_agg_probes(vec![Predicate::range(2, 0, 6_000).unwrap()]);
        probes.extend(all_agg_probes(vec![]));

        // Tombstone-only path (bars never trip).
        let lazy = TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &lazy).unwrap();
        let (tombstoned, report) = index.delete_where(&del, &lazy).unwrap();
        assert!(!report.rebuilt);
        assert_eq!(report.regions_compacted, 0);

        // Per-region compaction path (zero region bar): dead rows are
        // physically gone.
        let eager = TsunamiConfig::fast().with_ingest_staleness(0.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &eager).unwrap();
        let (compacted, report) = index.delete_where(&del, &eager).unwrap();
        assert!(!report.rebuilt);
        assert!(report.regions_compacted >= 1, "{report:?}");
        assert_eq!(compacted.store.len(), live.len());
        let total: usize = compacted.regions.iter().map(|r| r.len).sum();
        assert_eq!(total, live.len());

        // Whole-index rebuild path (zero rebuild bar).
        let rebuild = TsunamiConfig::fast().with_ingest_staleness(1.0, 0.0);
        let index = TsunamiIndex::build(&data, &w, &rebuild).unwrap();
        let (rebuilt, report) = index.delete_where(&del, &rebuild).unwrap();
        assert!(report.rebuilt, "{report:?}");
        assert_eq!(rebuilt.store.len(), live.len());
        assert_eq!(rebuilt.data_staleness(), 0.0);

        // All three paths are bit-identical to the live oracle.
        for q in &probes {
            let expected = q.execute_full_scan(&live);
            assert_eq!(tombstoned.execute(q), expected, "tombstoned {q:?}");
            assert_eq!(compacted.execute(q), expected, "compacted {q:?}");
            assert_eq!(rebuilt.execute(q), expected, "rebuilt {q:?}");
        }
    }

    #[test]
    fn ingest_after_delete_never_resurrects_tombstoned_rows() {
        let data = dataset(3_000, 174);
        let w = workload(175);
        let lazy = TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &lazy).unwrap();
        let del = Query::count(vec![Predicate::range(0, 0, 20_000).unwrap()]).unwrap();
        let (after, report) = index.delete_where(&del, &lazy).unwrap();
        assert!(!report.rebuilt);
        assert!(report.rows_deleted > 0);
        let live = live_after(&data, &del);

        // An ingest big enough to trip the rebuild bar merges live rows plus
        // the batch — the tombstoned rows must not come back.
        let strict = TsunamiConfig::fast().with_ingest_staleness(1.0, 0.0);
        let batch = ingest_batch(300, 176);
        let (merged_index, report) = after
            .ingest_with_cost(
                &Dataset::from_rows(3, &batch).unwrap(),
                &CostModel::default(),
                &strict,
            )
            .unwrap();
        assert!(report.rebuilt, "{report:?}");
        let merged = merged_dataset(&live, &batch);
        assert_eq!(merged_index.store.len(), merged.len());
        for q in all_agg_probes(vec![Predicate::range(0, 0, 30_000).unwrap()]) {
            assert_eq!(
                merged_index.execute(&q),
                q.execute_full_scan(&merged),
                "{q:?}"
            );
        }
    }

    #[test]
    fn zero_dimensional_dataset_is_rejected() {
        let data = Dataset::from_columns(vec![vec![1, 2, 3]])
            .unwrap()
            .select_dims(&[]);
        let err = TsunamiIndex::build(&data, &Workload::default(), &TsunamiConfig::fast());
        assert!(err.is_err());
    }

    /// The layout granularity floor, on every region: none under two target
    /// cells of rows has a grid, and no grid is finer than one cell per
    /// `TARGET_ROWS_PER_CELL` rows.
    fn assert_layout_floor(index: &TsunamiIndex, label: &str) {
        for (rid, region) in index.regions.iter().enumerate() {
            let Some(grid) = &region.grid else { continue };
            assert!(
                region.len >= 2 * TARGET_ROWS_PER_CELL,
                "{label}: region {rid} has a grid over only {} rows",
                region.len
            );
            assert!(
                grid.num_cells() <= (region.len / TARGET_ROWS_PER_CELL).max(1),
                "{label}: region {rid} spends {} cells on {} rows",
                grid.num_cells(),
                region.len
            );
        }
    }

    #[test]
    fn layout_floor_holds_through_every_restructure() {
        let data = dataset(30_000, 157);
        let w = workload(158);
        let config = TsunamiConfig::fast();
        let built = TsunamiIndex::build(&data, &w, &config).unwrap();
        assert_layout_floor(&built, "build");
        // Not vacuous: some regions are gridded, most are not.
        let stats = built.stats();
        assert!(stats.gridded_regions >= 2, "{stats:?}");
        assert!(stats.gridded_regions < stats.num_leaf_regions, "{stats:?}");
        assert!(stats.total_grid_cells <= data.len() / TARGET_ROWS_PER_CELL);

        // Chunked ingest, under the default bars and under a hair trigger
        // that re-makes every touched region's layout decision.
        for (label, cfg) in [
            ("ingest", config.clone()),
            (
                "ingest/eager",
                config.clone().with_ingest_staleness(0.0, 1.0),
            ),
        ] {
            let mut index = TsunamiIndex::build(&data, &w, &cfg).unwrap();
            for chunk in ingest_batch(2_400, 183).chunks(800) {
                let (next, report) = index.ingest(chunk, &cfg).unwrap();
                assert!(!report.rebuilt, "{report:?}");
                assert_layout_floor(&next, label);
                index = next;
            }
            assert!(index.stats().gridded_regions >= stats.gridded_regions);
        }

        // Delete + compaction: shrunken regions re-fit (or drop) their grids.
        let eager = config.clone().with_ingest_staleness(0.0, 1.0);
        let del = Query::count(vec![Predicate::range(0, 0, 30_000).unwrap()]).unwrap();
        let (compacted, report) = built.delete_where(&del, &eager).unwrap();
        assert!(
            !report.rebuilt && report.regions_compacted > 0,
            "{report:?}"
        );
        assert_layout_floor(&compacted, "delete/compaction");
        assert!(compacted.stats().total_grid_cells < stats.total_grid_cells);

        // The two rebuild escalations.
        let rebuild_bar = config.clone().with_ingest_staleness(1.0, 0.0);
        let (rebuilt, report) = built.ingest(&ingest_batch(500, 185), &rebuild_bar).unwrap();
        assert!(report.rebuilt, "{report:?}");
        assert_layout_floor(&rebuilt, "ingest/rebuild");
        let (rebuilt, report) = built.delete_where(&del, &rebuild_bar).unwrap();
        assert!(report.rebuilt, "{report:?}");
        assert_layout_floor(&rebuilt, "delete/rebuild");
    }

    /// A single-region index (the Grid Tree is not allowed to split) over
    /// `n` rows, with a workload of narrow dim-0 scans the optimizer wants
    /// cells for.
    fn single_region(n: usize, seed: u64, config: &TsunamiConfig) -> (Dataset, TsunamiIndex) {
        let data = dataset(n, seed);
        let mut rng = SplitMix::new(seed + 1);
        let w: Workload = (0..24)
            .map(|_| {
                let lo = rng.next_below(45_000);
                Query::count(vec![Predicate::range(0, lo, lo + 2_000).unwrap()]).unwrap()
            })
            .collect();
        let index = TsunamiIndex::build(&data, &w, config).unwrap();
        assert_eq!(index.regions.len(), 1);
        (data, index)
    }

    /// Probes over dim 0 (the gridded dimension) and the whole domain, all
    /// five aggregations.
    fn floor_probes() -> Vec<Query> {
        let mut probes = all_agg_probes(vec![Predicate::range(0, 10_000, 30_000).unwrap()]);
        probes.extend(all_agg_probes(vec![
            Predicate::range(0, 0, 60_000).unwrap(),
            Predicate::range(2, 1_000, 7_000).unwrap(),
        ]));
        probes.extend(all_agg_probes(vec![]));
        probes
    }

    #[test]
    fn gridless_region_earns_a_grid_once_it_grows_through_the_floor() {
        let config = TsunamiConfig {
            max_tree_depth: 0,
            ..TsunamiConfig::fast().with_ingest_staleness(0.25, 1.0)
        };
        // Under the floor at build: queried, but answered by a region scan.
        let (data, index) = single_region(2 * TARGET_ROWS_PER_CELL - 100, 190, &config);
        assert!(index.regions[0].grid.is_none());
        for q in floor_probes() {
            assert_eq!(index.execute(&q), q.execute_full_scan(&data), "{q:?}");
        }

        // A small batch leaves it under both the floor and the staleness bar.
        let small = ingest_batch(40, 191);
        let (index, report) = index.ingest(&small, &config).unwrap();
        assert_eq!(report.regions_reoptimized, 0);
        assert!(index.regions[0].grid.is_none());
        // The next one takes it through the floor and past the bar: the
        // region is laid out for its reference queries.
        let large = ingest_batch(300, 192);
        let (index, report) = index.ingest(&large, &config).unwrap();
        assert!(!report.rebuilt, "{report:?}");
        assert_eq!(report.regions_reoptimized, 1, "{report:?}");
        let grid = index.regions[0]
            .grid
            .as_ref()
            .expect("a grid past the floor");
        assert!(grid.num_cells() > 1);
        assert_eq!(index.regions[0].inserted, 0);
        assert_layout_floor(&index, "grown");
        let merged = merged_dataset(&merged_dataset(&data, &small), &large);
        for q in floor_probes() {
            assert_eq!(index.execute(&q), q.execute_full_scan(&merged), "{q:?}");
        }
    }

    #[test]
    fn compaction_is_triggered_by_dead_rows_only() {
        let config = TsunamiConfig {
            max_tree_depth: 0,
            ..TsunamiConfig::fast().with_ingest_staleness(0.25, 1.0)
        };
        // A grid-less region that stays under the layout floor: the rows it
        // ingests are never repaid, so it sits over the *inserted* bar.
        let (data, index) = single_region(300, 195, &config);
        let batch = ingest_batch(120, 196);
        let (index, report) = index.ingest(&batch, &config).unwrap();
        assert_eq!(report.regions_reoptimized, 0, "{report:?}");
        let rows = data.len() + batch.len();
        assert!(index.regions[0].inserted as f64 / rows as f64 > config.ingest_region_staleness);
        assert_eq!(index.stats().delta_rows, batch.len());

        // One new dead row does not compact it: compaction would repay that
        // one row and carry the inserted ones over, again and again.
        let one = Query::count(
            (data.row(7).iter().enumerate())
                .map(|(dim, &v)| Predicate::eq(dim, v))
                .collect(),
        )
        .unwrap();
        let (index, report) = index.delete_where(&one, &config).unwrap();
        assert_eq!(
            (report.rows_deleted, report.regions_compacted),
            (1, 0),
            "{report:?}"
        );
        assert_eq!(index.store.len(), rows);
        assert_eq!(index.stats().delta_rows, batch.len());

        // Past the *dead* bar it is compacted, by a graft that folds the
        // delta in on the way; the inserted rows stay on its books.
        let band = Query::count(vec![Predicate::range(0, 0, 20_000).unwrap()]).unwrap();
        let (index, report) = index.delete_where(&band, &config).unwrap();
        assert!(
            report.rows_deleted as f64 / rows as f64 > config.ingest_region_staleness,
            "{report:?}"
        );
        assert_eq!(report.regions_compacted, 1, "{report:?}");
        assert_eq!(index.store.len(), index.live_len());
        assert_eq!(index.stats().delta_rows, 0);
        assert_eq!(index.regions[0].inserted, batch.len());
        let live = live_after(&live_after(&merged_dataset(&data, &batch), &one), &band);
        assert_eq!(index.regions[0].len, live.len());
        for q in floor_probes() {
            assert_eq!(index.execute(&q), q.execute_full_scan(&live), "{q:?}");
        }
    }

    #[test]
    fn a_scan_block_of_rows_takes_the_graft_and_fewer_wait_in_the_delta() {
        let data = dataset(6_000, 197);
        let w = workload(198);
        let config = TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0);
        let index = TsunamiIndex::build(&data, &w, &config).unwrap();
        let rows = ingest_batch(BLOCK_ROWS, 199);
        let (small, large) = rows.split_at(BLOCK_ROWS / 2);

        // Half a block waits in the delta, sharing every grid and encoded
        // block with its predecessor...
        let (waiting, _) = index.ingest(small, &config).unwrap();
        assert_eq!(waiting.stats().delta_rows, small.len());
        for (before, after) in index.regions.iter().zip(&waiting.regions) {
            assert_eq!((before.base, before.len), (after.base, after.len));
            match (&before.grid, &after.grid) {
                (Some(a), Some(b)) => assert!(Arc::ptr_eq(a, b)),
                (None, None) => {}
                _ => panic!("a delta ingest changed a region's layout"),
            }
        }
        // ...the next batch takes delta + batch to a block, and is grafted
        // with it; so is a batch that is a block by itself.
        let (grafted, _) = waiting.ingest(large, &config).unwrap();
        let (at_once, _) = index.ingest(&rows, &config).unwrap();
        let merged = merged_dataset(&data, &rows);
        for ingested in [&grafted, &at_once] {
            assert_eq!(ingested.stats().delta_rows, 0);
            let total: usize = ingested.regions.iter().map(|r| r.len).sum();
            assert_eq!(total, merged.len());
            for q in w.queries().iter().step_by(7) {
                assert_eq!(ingested.execute(q), q.execute_full_scan(&merged), "{q:?}");
            }
        }
    }

    #[test]
    fn region_compacted_below_the_floor_drops_its_grid() {
        let config = TsunamiConfig {
            max_tree_depth: 0,
            ..TsunamiConfig::fast().with_ingest_staleness(0.1, 1.0)
        };
        let (data, index) = single_region(3 * TARGET_ROWS_PER_CELL, 193, &config);
        assert!(index.regions[0].grid.is_some());
        for q in floor_probes() {
            assert_eq!(index.execute(&q), q.execute_full_scan(&data), "{q:?}");
        }

        // Delete well over a third of the rows: the region compacts to
        // fewer than two target cells and goes back to a region scan.
        let del = Query::count(vec![Predicate::range(0, 0, 22_000).unwrap()]).unwrap();
        let (compacted, report) = index.delete_where(&del, &config).unwrap();
        assert!(
            !report.rebuilt && report.regions_compacted == 1,
            "{report:?}"
        );
        let live = live_after(&data, &del);
        assert_eq!(compacted.regions[0].len, live.len());
        assert!(live.len() < 2 * TARGET_ROWS_PER_CELL);
        assert!(compacted.regions[0].grid.is_none());
        for q in floor_probes() {
            assert_eq!(compacted.execute(&q), q.execute_full_scan(&live), "{q:?}");
        }
        // Whole-domain predicates are still eliminated from the residual,
        // through the Grid-Tree bounds of the now grid-less region (which
        // still span the deleted rows).
        let (lo, hi) = data.domain(1).unwrap();
        let q = Query::count(vec![
            Predicate::range(1, lo, hi).unwrap(),
            Predicate::range(2, 1_000, 7_000).unwrap(),
        ])
        .unwrap();
        assert!(compacted.plan(&q).residual(&q).iter().all(|p| p.dim != 1));
    }

    /// `dataset`, with the band `[8_300, 9_000)` of the time-like dimension
    /// folded down into the past. The workload's recent scans still make
    /// the Grid Tree split inside the band, which leaves a region that owns
    /// no row at build.
    fn gapped_dataset(n: usize, seed: u64) -> Dataset {
        let mut cols = dataset(n, seed).into_columns();
        for v in &mut cols[2] {
            if (8_300..9_000).contains(v) {
                *v -= 8_300;
            }
        }
        Dataset::from_columns(cols).unwrap()
    }

    /// The regions the Grid-Tree descent reaches for `q`, in visit order.
    fn regions_hit(index: &TsunamiIndex, q: &Query) -> Vec<usize> {
        let mut hit = Vec::new();
        index.tree.for_each_region(q, |rid, _| hit.push(rid));
        hit
    }

    /// The zone-map invariant (`grid_tree` module docs, "Region bounds"):
    /// every stored row — live or dead — of every region's main slice and
    /// delta run lies inside the region's bounds. And, over those bounds,
    /// the descent reaches exactly the regions brute force finds and the
    /// index answers like the oracle.
    fn assert_zone_maps(index: &TsunamiIndex, live: &Dataset, probes: &[Query], label: &str) {
        for (rid, region) in index.regions.iter().enumerate() {
            let bounds = index.tree.region(rid).bounds;
            for range in [
                region.base..region.base + region.len,
                index.delta_range(rid),
            ] {
                let stored = index.store.slice_dataset(range);
                for (dim, &(lo, hi)) in bounds.iter().enumerate() {
                    assert!(
                        stored.column(dim).iter().all(|v| (lo..=hi).contains(v)),
                        "{label}: region {rid} holds a row outside its bounds on dim {dim}"
                    );
                }
            }
        }
        for q in probes {
            let brute: Vec<usize> = (0..index.regions.len())
                .filter(|&rid| index.tree.region(rid).intersects(q))
                .collect();
            assert_eq!(regions_hit(index, q), brute, "{label}: {q:?}");
            assert_eq!(
                index.execute(q),
                q.execute_full_scan(live),
                "{label}: {q:?}"
            );
        }
    }

    #[test]
    fn region_bounds_cover_every_stored_row_through_every_mutation_path() {
        let data = gapped_dataset(30_000, 157);
        let w = workload(158);
        // Bars that never trip; the steps that want one tripped say so.
        let lazy = TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0);
        let mut index = TsunamiIndex::build(&data, &w, &lazy).unwrap();
        let mut live = data.clone();
        let hollow = (index.regions.iter())
            .position(|r| r.len == 0)
            .expect("a region that owns no row at build");

        let mut rng = SplitMix::new(400);
        let mut probes: Vec<Query> = w.queries().iter().step_by(6).cloned().collect();
        probes.extend(all_agg_probes(vec![]));
        // Beyond every build-time maximum, where only ingested rows live.
        probes.push(Query::count(vec![Predicate::range(0, 100_000, 200_000).unwrap()]).unwrap());
        for _ in 0..12 {
            let (a, b, c) = (
                rng.next_below(45_000),
                rng.next_below(95_000),
                rng.next_below(9_500),
            );
            probes.push(Query::count(vec![Predicate::range(1, b, b + 6_000).unwrap()]).unwrap());
            probes.extend(all_agg_probes(vec![
                Predicate::range(0, a, a + 9_000).unwrap(),
                Predicate::range(2, c, c + 3_000).unwrap(),
            ]));
        }
        assert_zone_maps(&index, &live, &probes, "build");

        // Delta ingests: in-domain rows, rows beyond every build-time
        // maximum (`ingest_batch`'s tail) and rows into the hollow region,
        // whose bounds are its split rectangle — the whole domain of dim 1,
        // which the tree never splits, and a slice of the band no row has
        // of dim 2.
        let hollow_bounds = index.tree.region(hollow).bounds.to_vec();
        assert_eq!(hollow_bounds[1], data.domain(1).unwrap());
        assert!(8_300 <= hollow_bounds[2].0 && hollow_bounds[2].1 < 9_000);
        let low_corner: Point = hollow_bounds.iter().map(|b| b.0).collect();
        assert_eq!(index.tree.region_of_point(&low_corner), hollow);
        for step in 0..3 {
            let mut batch = ingest_batch(150, 401 + step);
            batch.extend((0..4).map(|_| low_corner.clone()));
            let (next, report) = index.ingest(&batch, &lazy).unwrap();
            assert!(!report.rebuilt, "{report:?}");
            index = next;
            live = merged_dataset(&live, &batch);
            assert_eq!(index.stats().delta_rows, live.len() - data.len());
            assert_zone_maps(&index, &live, &probes, "delta ingest");
        }
        assert!(index.delta_range(hollow).len() >= 12);

        // A tombstone-only delete that hits main rows and delta rows.
        let del = Query::count(vec![Predicate::range(0, 20_000, 20_400).unwrap()]).unwrap();
        let dead_in_delta = (index.store.slice_dataset(index.delta[0]..index.store.len()))
            .rows()
            .filter(|row| del.matches_point(row))
            .count();
        assert!(dead_in_delta > 0);
        let (next, report) = index.delete_where(&del, &lazy).unwrap();
        assert!(report.rows_deleted > dead_in_delta, "{report:?}");
        assert_eq!((report.regions_compacted, report.rebuilt), (0, false));
        index = next;
        live = live_after(&live, &del);
        assert_zone_maps(&index, &live, &probes, "tombstone delete");

        // A graft: the next batch takes the delta past one scan block.
        let batch = ingest_batch(BLOCK_ROWS, 405);
        let (next, report) = index.ingest(&batch, &lazy).unwrap();
        assert!(!report.rebuilt, "{report:?}");
        index = next;
        live = merged_dataset(&live, &batch);
        assert_eq!(index.stats().delta_rows, 0);
        assert!(index.regions[hollow].len >= 12);
        assert_zone_maps(&index, &live, &probes, "graft");

        // One compaction (a zero dead bar), dead rows of the earlier delete
        // included.
        let eager = lazy.clone().with_ingest_staleness(0.0, 1.0);
        let del = Query::count(vec![Predicate::range(0, 30_000, 31_000).unwrap()]).unwrap();
        let (next, report) = index.delete_where(&del, &eager).unwrap();
        assert!(
            report.regions_compacted >= 1 && !report.rebuilt,
            "{report:?}"
        );
        index = next;
        live = live_after(&live, &del);
        assert_zone_maps(&index, &live, &probes, "compaction");

        // One rebuild escalation (a zero rebuild bar): bounds start over,
        // tight around the live rows.
        let rebuild = lazy.clone().with_ingest_staleness(1.0, 0.0);
        let batch = ingest_batch(60, 406);
        let (next, report) = index.ingest(&batch, &rebuild).unwrap();
        assert!(report.rebuilt, "{report:?}");
        index = next;
        live = merged_dataset(&live, &batch);
        assert_zone_maps(&index, &live, &probes, "rebuild");
    }

    #[test]
    fn tight_bounds_prune_a_correlated_dimension_the_tree_did_not_split() {
        let data = dataset(30_000, 157);
        let w = workload(158);
        let mut index = TsunamiIndex::build(&data, &w, &TsunamiConfig::fast()).unwrap();
        // Dim 1 (~2 x dim 0) is never filtered by the workload, so the tree
        // never splits it: moving a row to either end of dim 1 does not
        // re-route it, and every region's split rectangle spans the whole
        // of dim 1.
        let populated: Vec<usize> = (0..index.regions.len())
            .filter(|&rid| index.regions[rid].len > 0)
            .collect();
        for &rid in &populated {
            let mut row = index
                .store
                .slice_dataset(index.regions[rid].base..index.regions[rid].base + 1)
                .row(0);
            for end in [0, u64::MAX] {
                row[1] = end;
                assert_eq!(index.tree.region_of_point(&row), rid);
            }
        }
        // So by split rectangles a dim-1 query is admitted to every region;
        // by the bounds of the rows it reaches strictly fewer.
        let q = Query::count(vec![Predicate::range(1, 40_000, 46_000).unwrap()]).unwrap();
        let hit = regions_hit(&index, &q);
        assert!(
            !hit.is_empty() && hit.len() < populated.len() / 2,
            "{} of {} regions",
            hit.len(),
            populated.len()
        );
        assert_eq!(index.execute(&q), q.execute_full_scan(&data));

        // A grid-less region is contained in the dim-1 band of its own rows
        // — under its split rectangle, the whole of dim 1, it could not be —
        // and is answered without checking a row: as a cube partial, or
        // with the matview off as an exact range.
        let domain = data.domain(1).unwrap();
        let (rid, (lo, hi)) = (populated.iter())
            .map(|&rid| (rid, index.tree.region(rid).bounds[1]))
            .find(|&(rid, (lo, hi))| {
                index.regions[rid].grid.is_none() && domain.0 < lo && hi < domain.1
            })
            .expect("a grid-less region inside the domain of dim 1");
        let main = index.regions[rid].base..index.regions[rid].base + index.regions[rid].len;
        for q in all_agg_probes(vec![Predicate::range(1, lo, hi).unwrap()]) {
            assert!(index.tree.region(rid).contained_in(&q));
            let expected = q.execute_full_scan(&data);
            index.set_matview(true);
            let (result, counters) = index.execute_with_stats(&q);
            assert_eq!(result, expected, "{q:?}");
            assert!(counters.partial_regions >= 1, "{q:?}");
            assert!(counters.rows_prefolded >= main.len(), "{q:?}");
            index.set_matview(false);
            assert_eq!(index.execute(&q), expected, "{q:?}");
            let plan = index.plan(&q);
            assert!(plan.partials().is_empty());
            let exact = |r: &tsunami_core::exec::ScanRange| {
                r.exact && r.range.start <= main.start && main.end <= r.range.end
            };
            assert!(plan.ranges().iter().any(exact), "{q:?}: {plan:?}");
        }
    }
}
