//! The composed Tsunami index: Grid Tree over the data space, with an
//! independently-optimized Augmented Grid inside every region that receives
//! queries (§3) and clears the layout granularity floor (crate docs): a
//! region's grid-or-no-grid decision and cell budget are made in exactly one
//! place, `augmented_grid::optimizer::region_layout`, which build, ingest
//! and delete-compaction all call.
//!
//! A layout is derived for a workload in exactly one way — the from-scratch
//! [`TsunamiIndex::build`] — so adapting to a shifted workload (§8) is a
//! rebuild. Data changes do not need one: [`TsunamiIndex::ingest`] and
//! [`TsunamiIndex::delete_where`] absorb rows into the existing structure,
//! paying only for the regions they touch, and correctness never depends on
//! layout freshness.

use std::time::Instant;

use crate::augmented_grid::optimizer::{region_can_hold_grid, region_layout};
use crate::augmented_grid::{AugmentedGrid, OptimizerKind, Skeleton};
use crate::config::{IndexVariant, TsunamiConfig};
use crate::cube::{CubeEntry, RegionCube};
use crate::grid_tree::GridTree;
use crate::query_types::cluster_query_types;
use tsunami_core::{
    BuildTiming, CostModel, Dataset, IngestReport, MultiDimIndex, Point, Query, Result, ScanPlan,
    ScanSource, Successor, TsunamiError, Workload,
};
use tsunami_store::ColumnStore;

/// Per-region physical layout information.
#[derive(Debug, Clone)]
struct RegionIndex {
    /// First physical row of the region in the reordered store.
    base: usize,
    /// Number of rows in the region.
    len: usize,
    /// The region's Augmented Grid, or `None` when no query intersects the
    /// region or it has too few rows for a grid to split (it is then
    /// answered with a plain region scan).
    grid: Option<AugmentedGrid>,
    /// Rows ingested into the region since its layout was last optimized —
    /// the per-region staleness counter. Ingested rows are re-gridded into
    /// the existing layout immediately (correctness never waits), but the
    /// *layout* only re-earns optimizer time once `inserted / len` passes
    /// [`TsunamiConfig::ingest_region_staleness`].
    inserted: usize,
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
}

/// What [`TsunamiIndex::delete_where_with_cost`] did to absorb a delete.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteReport {
    /// Rows newly tombstoned by this delete (rows already deleted by an
    /// earlier call do not count again).
    pub rows_deleted: usize,
    /// Regions whose accumulated mutation fraction (inserted + tombstoned
    /// over region rows) crossed [`TsunamiConfig::ingest_region_staleness`]
    /// and were physically compacted — dead rows dropped, the region
    /// re-gridded over its live rows.
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
    store: ColumnStore,
    timing: BuildTiming,
    name: String,
    /// The configuration and cost model the index was built with — what the
    /// trait-level [`MultiDimIndex::ingest_batch`] and
    /// [`MultiDimIndex::delete_matching`] mutate under, so an index keeps
    /// its variant and effort however it reached its owner.
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

/// The configuration and optimizer actually used for a variant: the
/// Grid-Tree-only ablation disables the correlation-aware strategies so its
/// per-region grids degenerate to Flood-style all-independent layouts.
fn effective_build_config(config: &TsunamiConfig) -> (TsunamiConfig, OptimizerKind) {
    match config.variant {
        IndexVariant::GridTreeOnly => {
            let mut c = config.clone();
            c.fm_error_fraction = 0.0;
            c.ccdf_empty_fraction = 1.1;
            (c, OptimizerKind::GradientOnly)
        }
        _ => (config.clone(), config.optimizer),
    }
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
        let (effective_config, optimizer_kind) = effective_build_config(config);

        let types = if config.variant == IndexVariant::AugmentedGridOnly {
            Vec::new()
        } else {
            cluster_query_types(
                data,
                workload,
                effective_config.dbscan_eps,
                effective_config.dbscan_min_pts,
                effective_config.optimizer_sample_size,
                effective_config.seed,
            )
        };
        let (tree, region_data) = GridTree::build(data, &types, &effective_config);

        // Lay out every region: a grid where it has intersecting queries
        // and enough rows to split, a plain region scan otherwise.
        let mut layouts: Vec<Option<(Skeleton, Vec<usize>)>> =
            Vec::with_capacity(region_data.len());
        let mut region_datasets: Vec<Dataset> = Vec::with_capacity(region_data.len());
        for rd in &region_data {
            let region_ds = data.select_rows(&rd.rows);
            layouts.push(region_layout(
                &region_ds,
                &rd.queries,
                None,
                cost,
                &effective_config,
                optimizer_kind,
            ));
            region_datasets.push(region_ds);
        }
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
                    let (grid, local_perm) =
                        AugmentedGrid::build(region_ds, &skeleton, &partitions);
                    global_perm.extend(local_perm.into_iter().map(|local| rd.rows[local]));
                    Some(grid)
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

        let name = match config.variant {
            IndexVariant::Full => "Tsunami",
            IndexVariant::GridTreeOnly => "GridTree-only",
            IndexVariant::AugmentedGridOnly => "AugmentedGrid-only",
        };

        let num_regions = regions.len();
        Ok(Self {
            tree,
            regions,
            store,
            timing: BuildTiming {
                sort_secs,
                optimize_secs,
            },
            name: name.to_string(),
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
    /// recorded bounds when the row falls outside the build-time domain) and
    /// appended into that region's contiguous slice of the store. Only the
    /// touched regions pay any cost: their Augmented Grids are *re-gridded*
    /// — per-dimension models re-fit over the merged rows (keeping bucket
    /// value bounds, and with them exactness and residual elimination,
    /// truthful for out-of-domain values) and just their slice re-sorted
    /// into cell order. Untouched regions keep their grids and physical
    /// order verbatim, so ingest cost is proportional to where the data
    /// landed, not to the index — and never includes the layout optimizer
    /// unless staleness escalates:
    ///
    /// * a touched region whose accumulated inserted-row fraction passes
    ///   [`TsunamiConfig::ingest_region_staleness`] gets its layout
    ///   re-optimized locally (warm-started from the current one) — unless
    ///   it is grid-less and still under the layout floor, in which case it
    ///   stays a plain region scan and keeps its staleness;
    /// * the whole index escalates to a from-scratch
    ///   [`TsunamiIndex::build_with_cost`] over data + batch when the
    ///   ingested fraction would pass
    ///   [`TsunamiConfig::ingest_rebuild_staleness`].
    ///
    /// Correctness never depends on staleness: an ingested index returns
    /// results bit-identical to one rebuilt from the full dataset — only
    /// scan volume differs.
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
                self.with_layout(
                    self.tree.clone(),
                    self.regions.clone(),
                    self.store.clone(),
                    BuildTiming::default(),
                    self.cube.snapshot(),
                ),
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
        // post-dates the Grid Tree for structure reuse to stay worthwhile
        // (and a changed variant invalidates every component anyway). The
        // rebuild consumes the merged dataset — physical store order, which
        // is as good as any for a from-scratch build.
        let staleness =
            (self.ingested + self.store.tombstones().deleted() + m) as f64 / (n + m) as f64;
        if config.variant != self.config.variant || staleness > config.ingest_rebuild_staleness {
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

        let start = Instant::now();
        let (effective_config, optimizer_kind) = effective_build_config(config);

        // Route each new row to its region, widening recorded bounds so
        // query routing and region-scan exactness stay sound for
        // out-of-domain values.
        let mut tree = self.tree.clone();
        let mut per_region: Vec<Vec<usize>> = vec![Vec::new(); self.regions.len()];
        let mut point = vec![0u64; rows.num_dims()];
        for j in 0..m {
            for (dim, coord) in point.iter_mut().enumerate() {
                *coord = rows.get(j, dim);
            }
            per_region[tree.absorb_point(&point)].push(j);
        }

        // Graft: append the batch at the store's tail, then permute it so
        // every region's slice is contiguous again (rows of untouched
        // regions only shift; their relative order is untouched).
        let mut store = self.store.clone();
        store.append_dataset(rows);
        let mut perm: Vec<usize> = Vec::with_capacity(n + m);
        let mut regions: Vec<RegionIndex> = Vec::with_capacity(self.regions.len());
        // Incremental cube maintenance: a touched region's new live multiset
        // is old ∪ routed rows, so its entry absorbs the batch as one folded
        // delta ([`CubeEntry::merge`]) — never a re-fold over the region.
        // Untouched regions carry; unfolded entries stay lazy.
        let mut cube_entries = self.cube.snapshot();
        for (rid, news) in per_region.iter().enumerate() {
            if news.is_empty() {
                continue;
            }
            if let Some(entry) = &mut cube_entries[rid] {
                entry.merge(&CubeEntry::fold_dataset(&rows.select_rows(news)));
            }
        }
        let mut regions_touched = 0usize;
        let mut regions_reoptimized = 0usize;
        let mut optimize_secs = 0.0f64;
        for (rid, region) in self.regions.iter().enumerate() {
            let news = &per_region[rid];
            let base = perm.len();
            let old_range = region.base..region.base + region.len;
            if news.is_empty() {
                perm.extend(old_range);
                regions.push(RegionIndex {
                    base,
                    len: region.len,
                    grid: region.grid.clone(),
                    inserted: region.inserted,
                });
                continue;
            }
            regions_touched += 1;
            let len = region.len + news.len();
            let inserted = region.inserted + news.len();
            // A region past its staleness bar has its layout decision
            // re-made for the reference queries reaching its (widened)
            // bounds, warm-started from the current grid, if any — which is
            // also how a grid-less region that grew through the layout floor
            // earns its first grid. Either way its staleness is repaid. A
            // grid-less region still under the floor has no decision to
            // re-make: it takes the plain-scan arm below and its staleness
            // stays on the books, where the whole-index rebuild bar and
            // the reports' `data_staleness` see it. (The AugmentedGridOnly
            // ablation never assigns queries to its single region; mirror
            // that.)
            let stale = inserted as f64 / len as f64 > config.ingest_region_staleness;
            let layable = region.grid.is_some() || region_can_hold_grid(len, &effective_config);
            let mut ref_q: Vec<Query> = Vec::new();
            if stale && layable && self.config.variant != IndexVariant::AugmentedGridOnly {
                let bounds = tree.region(rid);
                let reference = self.reference.queries().iter();
                ref_q.extend(reference.filter(|q| bounds.intersects(q)).cloned());
            }
            let reoptimize = !ref_q.is_empty();
            let appended = news.iter().map(|&j| n + j);
            if region.grid.is_none() && !reoptimize {
                // Plain region scan: order within the slice is irrelevant,
                // the new rows join at its tail.
                perm.extend(old_range);
                perm.extend(appended);
                regions.push(RegionIndex {
                    base,
                    len,
                    grid: None,
                    inserted,
                });
                continue;
            }
            // The merged region rows (old slice + new rows), and the
            // appended-store indices parallel to them.
            let mut cols = self.store.slice_dataset(old_range.clone()).into_columns();
            for (dim, col) in cols.iter_mut().enumerate() {
                col.extend(news.iter().map(|&j| rows.get(j, dim)));
            }
            let region_ds = Dataset::from_columns(cols).expect("equal-length columns");
            let indices: Vec<usize> = old_range.chain(appended).collect();

            // Without queries the region keeps its layout, re-gridded over
            // the merged rows.
            let t0 = Instant::now();
            let layout = region_layout(
                &region_ds,
                &ref_q,
                region.grid.as_ref().map(|g| (g.skeleton(), g.partitions())),
                cost,
                &effective_config,
                optimizer_kind,
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
                    regions_reoptimized += usize::from(reoptimize);
                    Some(grid)
                }
            };
            regions.push(RegionIndex {
                base,
                len,
                grid,
                inserted: if reoptimize { 0 } else { inserted },
            });
        }
        debug_assert_eq!(perm.len(), n + m);
        store.permute(&perm);
        store.encode_blocks();

        let sort_secs = (start.elapsed().as_secs_f64() - optimize_secs).max(0.0);
        let timing = BuildTiming {
            sort_secs,
            optimize_secs,
        };
        Ok((
            self.with_layout(tree, regions, store, timing, cube_entries),
            IngestReport {
                rows_ingested: m,
                regions_touched,
                regions_reoptimized,
                rebuilt: false,
                data_staleness: staleness,
            },
        ))
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
    /// Deleted rows are tombstoned in the store's deletion bitmap; every
    /// kernel tier masks liveness into its selections, so results are
    /// immediately exact while the physical layout — and every region's grid
    /// — stays untouched. Tombstones then feed the same staleness machinery
    /// as ingest:
    ///
    /// * a region whose mutation fraction (inserted + tombstoned over region
    ///   rows) passes [`TsunamiConfig::ingest_region_staleness`] is
    ///   *compacted*: its dead rows are physically dropped and the region is
    ///   re-gridded over its live rows with its existing layout (subsequent
    ///   regions shift down — their grids and relative order are untouched);
    /// * the whole index escalates to a from-scratch
    ///   [`TsunamiIndex::build_with_cost`] over the live rows when the
    ///   mutated fraction passes
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
        if rows_deleted == 0 {
            return Ok((
                self.with_layout(
                    self.tree.clone(),
                    self.regions.clone(),
                    store,
                    BuildTiming::default(),
                    // No new tombstones: every live multiset is unchanged.
                    self.cube.snapshot(),
                ),
                DeleteReport {
                    rows_deleted: 0,
                    regions_compacted: 0,
                    rebuilt: false,
                    data_staleness: staleness,
                },
            ));
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
            return Ok((
                rebuilt,
                DeleteReport {
                    rows_deleted,
                    regions_compacted,
                    rebuilt: true,
                    data_staleness: staleness,
                },
            ));
        }

        // Cube maintenance: exactly the regions whose tombstone count grew
        // lost live rows — drop their entries (re-folded lazily on the next
        // covered query). Everything else carries: the compaction below only
        // removes already-dead rows and permutes within regions, neither of
        // which changes a live multiset. Compared at the *old* bases, before
        // compaction shifts them.
        let mut cube_entries = self.cube.snapshot();
        for (rid, region) in self.regions.iter().enumerate() {
            let old_range = region.base..region.base + region.len;
            let before = self.store.tombstones().count_deleted_in(old_range.clone());
            let after = store.tombstones().count_deleted_in(old_range);
            if after != before {
                cube_entries[rid] = None;
            }
        }

        // Per-region compaction: regions past the staleness bar drop their
        // dead rows and re-grid over the survivors (keeping their optimized
        // skeleton/partitions — compaction repays *physical* staleness, the
        // layout only re-earns optimizer time through ingest or a rebuild).
        // Rows after a compacted region shift down; bases are re-derived.
        let start = Instant::now();
        let (effective_config, optimizer_kind) = effective_build_config(config);
        let mut regions: Vec<RegionIndex> = Vec::with_capacity(self.regions.len());
        let mut regions_compacted = 0usize;
        let mut shift = 0usize;
        for region in &self.regions {
            let base = region.base - shift;
            let range = base..base + region.len;
            let dead = store.tombstones().count_deleted_in(range.clone());
            let frac = (region.inserted + dead) as f64 / region.len.max(1) as f64;
            if dead == 0 || frac <= config.ingest_region_staleness {
                regions.push(RegionIndex {
                    base,
                    len: region.len,
                    grid: region.grid.clone(),
                    inserted: region.inserted,
                });
                continue;
            }
            let removed = store.drop_deleted_in(range);
            debug_assert_eq!(removed, dead);
            shift += removed;
            regions_compacted += 1;
            let len = region.len - removed;
            // Re-grid the survivors into the existing layout — re-fitted to
            // the shrunken row count, which drops the grid altogether below
            // the layout floor — and re-sort only this region's slice into
            // cell order.
            let grid = region.grid.as_ref().and_then(|grid| {
                let region_ds = store.slice_dataset(base..base + len);
                let (skeleton, partitions) = region_layout(
                    &region_ds,
                    &[],
                    Some((grid.skeleton(), grid.partitions())),
                    cost,
                    &effective_config,
                    optimizer_kind,
                )?;
                let (grid, local_perm) = AugmentedGrid::build(&region_ds, &skeleton, &partitions);
                store.permute_range(base, &local_perm);
                Some(grid)
            });
            regions.push(RegionIndex {
                base,
                len,
                grid,
                inserted: region.inserted,
            });
        }
        store.encode_blocks();
        debug_assert_eq!(store.len(), n - shift);

        let timing = BuildTiming {
            sort_secs: start.elapsed().as_secs_f64(),
            optimize_secs: 0.0,
        };
        Ok((
            self.with_layout(self.tree.clone(), regions, store, timing, cube_entries),
            DeleteReport {
                rows_deleted,
                regions_compacted,
                rebuilt: false,
                data_staleness: staleness,
            },
        ))
    }

    /// The index a mutation leaves behind: the parts it re-derived, with
    /// everything else — name, config, cost model, reference workload,
    /// matview switch — carried over. Each region's `inserted` is the unpaid
    /// staleness, so the whole-index counter is their sum.
    fn with_layout(
        &self,
        tree: GridTree,
        regions: Vec<RegionIndex>,
        store: ColumnStore,
        timing: BuildTiming,
        cube_entries: Vec<Option<CubeEntry>>,
    ) -> Self {
        Self {
            tree,
            ingested: regions.iter().map(|r| r.inserted).sum(),
            regions,
            store,
            timing,
            name: self.name.clone(),
            config: self.config.clone(),
            cost: self.cost,
            reference: self.reference.clone(),
            cube: RegionCube::from_entries(cube_entries),
            matview: self.matview,
        }
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

    /// Index statistics in the shape of the paper's Table 4.
    pub fn stats(&self) -> TsunamiStats {
        let mut points: Vec<usize> = self.regions.iter().map(|r| r.len).collect();
        points.sort_unstable();
        let indexed: Vec<&AugmentedGrid> = self
            .regions
            .iter()
            .filter_map(|r| r.grid.as_ref())
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
        }
    }

    /// Total number of grid cells across regions (Table 4).
    pub fn total_cells(&self) -> usize {
        self.stats().total_grid_cells
    }
}

impl MultiDimIndex for TsunamiIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let d = self.store.num_dims();
        let mut plan = ScanPlan::new();
        // Residual elimination: a predicate needs re-checking only if *some*
        // planned region fails to guarantee it by construction (through its
        // grid's visited partitions, or through the Grid Tree region bounds
        // for unindexed regions).
        let mut guaranteed = vec![true; d];
        // A whole-region scan (no grid, or the grid's cell enumeration fell
        // back because it would cost more than the scan): plan the region as
        // one range, with exactness and guarantees derived from the
        // Grid-Tree region bounds.
        let plan_region_scan =
            |plan: &mut ScanPlan, guaranteed: &mut Vec<bool>, region_id: usize| {
                let region = &self.regions[region_id];
                let tree_region = self.tree.region(region_id);
                let exact = tree_region.contained_in(query);
                plan.push(region.base..region.base + region.len, exact);
                for p in query.predicates() {
                    if p.dim < d {
                        let (lo, hi) = tree_region.bounds[p.dim];
                        guaranteed[p.dim] &= p.lo <= lo && hi <= p.hi;
                    }
                }
            };
        // The aggregation's input dimension, whose pre-folded SUM/MIN/MAX a
        // covered region contributes (COUNT only uses the row count; dim 0
        // stands in, and every dataset has at least one dimension).
        let agg_dim = query.aggregation().input_dim().unwrap_or(0);
        for region_id in self.tree.regions_for_query(query) {
            let region = &self.regions[region_id];
            if region.len == 0 {
                continue;
            }
            // Materialized-aggregate coverage: a region whose bounds lie
            // fully inside the query contributes its pre-folded cube entry
            // as a `PlanPartial` instead of a scan range. Only whole exact
            // regions qualify — partial overlaps (the rims) still scan.
            // Containment also means the region cannot weaken any residual
            // guarantee, so skipping the per-dim flag updates is sound.
            if self.matview && self.tree.region(region_id).contained_in(query) {
                let entry = self
                    .cube
                    .get_or_fold(region_id, &self.store, region.base, region.len);
                if let Some(partial) = entry.partial(agg_dim) {
                    plan.push_partial(partial);
                }
                continue;
            }
            match &region.grid {
                Some(grid) => {
                    let ranges = grid.plan_ranges(query);
                    if ranges.fallback {
                        plan_region_scan(&mut plan, &mut guaranteed, region_id);
                        continue;
                    }
                    for (r, exact) in ranges.ranges {
                        plan.push(region.base + r.start..region.base + r.end, exact);
                    }
                    for (g, rg) in guaranteed.iter_mut().zip(&ranges.guaranteed) {
                        *g &= rg;
                    }
                }
                None => plan_region_scan(&mut plan, &mut guaranteed, region_id),
            }
        }
        plan.with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        self.tree.size_bytes()
            + self
                .regions
                .iter()
                .map(|r| {
                    r.grid.as_ref().map_or(0, AugmentedGrid::size_bytes)
                        + std::mem::size_of::<RegionIndex>()
                })
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
    fn variants_build_and_answer_correctly() {
        let data = dataset(5_000, 120);
        let w = workload(121);
        for variant in [
            IndexVariant::Full,
            IndexVariant::GridTreeOnly,
            IndexVariant::AugmentedGridOnly,
        ] {
            let config = TsunamiConfig::fast().with_variant(variant);
            let index = TsunamiIndex::build(&data, &w, &config).unwrap();
            for q in w.queries().iter().step_by(9) {
                assert_eq!(
                    index.execute(q),
                    q.execute_full_scan(&data),
                    "{variant:?} {q:?}"
                );
            }
            match variant {
                IndexVariant::AugmentedGridOnly => {
                    assert_eq!(index.grid_tree().num_regions(), 1);
                    assert_eq!(index.name(), "AugmentedGrid-only");
                }
                IndexVariant::GridTreeOnly => {
                    // Flood-style regions: no correlation-aware strategies.
                    let s = index.stats();
                    assert_eq!(s.avg_fms_per_region, 0.0);
                    assert_eq!(s.avg_ccdfs_per_region, 0.0);
                }
                IndexVariant::Full => {
                    assert_eq!(index.name(), "Tsunami");
                }
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
        // Every row is owned by exactly one region, and the store grew.
        let total: usize = ingested.regions.iter().map(|r| r.len).sum();
        assert_eq!(total, merged.len());

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
}
