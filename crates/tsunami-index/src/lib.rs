//! Tsunami: an in-memory, read-optimized, learned multi-dimensional index
//! that is robust to correlated data and skewed query workloads.
//!
//! This crate is the reproduction of the paper's primary contribution. It is
//! a composition of two independent data structures (§3):
//!
//! * The **Grid Tree** ([`grid_tree`]) — a space-partitioning decision tree
//!   that divides the data space into non-overlapping regions such that
//!   within each region there is little *query skew* (§4). Query skew is
//!   measured as the Earth Mover's Distance between the empirical query PDF
//!   and the uniform distribution, computed per clustered *query type*.
//!
//! * The **Augmented Grid** ([`augmented_grid`]) — a generalization of
//!   Flood's uniform grid that captures *data correlation* with two extra
//!   per-dimension partitioning strategies: functional mappings and
//!   conditional CDFs (§5). Its layout `(S, P)` — skeleton plus partition
//!   counts — is optimized with Adaptive Gradient Descent against the
//!   analytic cost model.
//!
//! The composed [`TsunamiIndex`] optimizes the Grid Tree over the full data
//! and workload, then builds an independently-optimized Augmented Grid inside
//! every region that receives queries and has enough rows to split. Each
//! component alone (the paper's Fig 12a) is a setting of
//! [`TsunamiConfig`], not a separate index: `max_tree_depth: 0` keeps one
//! region, an Augmented Grid over the whole space, and
//! [`OptimizerKind::Independent`] gives every region Flood's all-independent
//! grid.
//!
//! Two more modules complete the crate's learned indexes:
//!
//! * [`cdf`] — the per-dimension models both grids partition with: the
//!   equi-depth [`cdf::HistogramCdf`], and the correlation-aware
//!   [`cdf::FunctionalMapping`] and [`cdf::ConditionalCdf`] (§5.2).
//! * [`flood`] — the Flood baseline (§2.2): [`FloodIndex`] is one
//!   all-independent Augmented Grid over the whole table, planned through
//!   the same cell enumeration as Tsunami's grids, with partition counts
//!   chosen by the Augmented Grid optimizer's descent under Flood's own
//!   sample-based estimator ([`FloodConfig`]).
//!
//! # Layout granularity floor
//!
//! No Augmented-Grid cell is planned finer than a quarter of the executor's
//! scan block ([`tsunami_core::exec::BLOCK_ROWS`]` / 4` = 256 rows): a
//! region's layout is optimized under the cell budget
//! `min(`[`TsunamiConfig::max_cells_per_grid`]`, rows / 256)`, and a region
//! whose budget is below two cells (fewer than 512 rows), or whose optimized
//! partitions multiply to a single cell, has *no grid* — `plan()` emits it as
//! one range, with exactness and residual guarantees from the Grid-Tree
//! bounds. The reason is the cost model's blind spot: it prices
//! `w0·ranges + w1·points·dims` with ranges counted *after* merging, so it
//! never sees a cell and the optimizer fills any budget it is given — at
//! 100k rows that was 2M cells (20 per row), 178 µs of a 194 µs query spent
//! enumerating them, and an index 17× the size of Flood's. The scan the
//! cells were saving is memory-bound at ~0.3 ns/row; a cell of a few dozen
//! rows can never repay what it costs to plan its grid — ~1.4 µs a grid
//! when the floor was set, ~0.12 µs now that a grid is two or three cells
//! enumerated without allocating (122 ns a grid over the benchmark's
//! `olap_selective` queries), still some hundred rows of scan. The floor is
//! derived from a region's row count alone — it is not a knob — and one
//! function decides it for build, the graft (below) and every rebuild
//! escalation, so a region's layout is re-decided whenever its row count
//! moves: a grid-less region that grows through the floor earns a grid at
//! its next staleness escalation, and a gridded one compacted below it goes
//! back to a region scan. A grid-less region still under the floor has no
//! layout to re-derive, so ingest appends to it without repaying its
//! staleness — only a rebuild restructures it. [`TsunamiStats`] reports
//! `gridded_regions` beside `num_leaf_regions`, i.e. how much of an index is
//! Grid Tree and how much Augmented Grid. The README's index section has the
//! rows-per-cell sweep behind the quarter-block choice.
//!
//! When the workload later drifts (§8), [`shift::WorkloadMonitor`]
//! fingerprints observed queries against the optimized-for workload and says
//! when re-optimization is due; re-optimizing is then a rebuild —
//! [`TsunamiIndex::build`] for the new workload — as in the paper's Fig 9a.
//! See the [`shift`] module docs.
//!
//! # Mutations: main, delta, graft
//!
//! Data shift needs no rebuild, and a mutation costs what it changes (§8's
//! sketch: a delta buffer per Grid-Tree leaf, merged periodically). The
//! store is the clustered, block-encoded **main** rows followed by the
//! **delta**: the rows ingested since, kept in region order in the store's
//! plain tail — region `r`'s are one contiguous run, found through one
//! offsets table. [`TsunamiIndex::ingest`] routes a batch, updates
//! Grid-Tree bounds, per-region staleness and cube entries, and merges it
//! into the delta; [`TsunamiIndex::delete_where`] only sets tombstone bits.
//! Both leave an index that shares every encoded block and every Augmented
//! Grid with its predecessor by pointer, so they are O(batch + delta +
//! regions), not O(table). `plan()` answers a hit region's delta run with a
//! plain scan bounded by the (widened) Grid-Tree region, after the main
//! ranges; a covered region is still one cube partial over main + delta.
//!
//! Through all of it a region's Grid-Tree bounds contain every row stored
//! for the region. They are *data* bounds — the minimum and maximum of the
//! region's rows on every dimension, not the rectangle the tree's splits
//! leave it — so they prune on dimensions the tree never split, at no
//! extra byte: see the [`grid_tree`] module docs, "Region bounds".
//!
//! The **graft** is the one routine that moves the table: it folds the
//! whole delta, the batch at hand and — for regions whose dead fraction
//! passed the bar — the removal of dead rows into the main rows, re-grids
//! the regions it touched and re-encodes the store. It runs when the delta
//! reaches one scan block ([`tsunami_core::exec::BLOCK_ROWS`] rows: a batch
//! that large is grafted at once), when a touched region's layout decision
//! is due (past [`TsunamiConfig::ingest_region_staleness`], able to hold a
//! grid, reached by reference queries — the graft then re-optimizes it), or
//! when a delete leaves a region over the dead bar. All three are read off
//! the index's own state; none is a setting. Correctness never depends on
//! which path a mutation took. See the [`index`] module docs.
//!
//! # Quick start
//!
//! ```
//! use tsunami_core::{Dataset, MultiDimIndex, Predicate, Query, Workload};
//! use tsunami_index::{TsunamiConfig, TsunamiIndex};
//!
//! // A tiny 2-d dataset with a correlated second dimension.
//! let n = 2000u64;
//! let data = Dataset::from_columns(vec![
//!     (0..n).collect(),
//!     (0..n).map(|v| v * 2 + (v % 7)).collect(),
//! ]).unwrap();
//!
//! // A sample workload: range filters over dimension 0.
//! let workload = Workload::new(
//!     (0..20u64)
//!         .map(|i| {
//!             Query::count(vec![Predicate::range(0, i * 50, i * 50 + 200).unwrap()]).unwrap()
//!         })
//!         .collect(),
//! );
//!
//! let index = TsunamiIndex::build(&data, &workload, &TsunamiConfig::fast()).unwrap();
//! let q = &workload.queries()[3];
//! assert_eq!(index.execute(q), q.execute_full_scan(&data));
//! ```

pub mod augmented_grid;
pub mod cdf;
pub mod config;
pub mod cube;
pub mod flood;
pub mod grid_tree;
pub mod index;
pub mod query_types;
pub mod shift;

pub use augmented_grid::{AugmentedGrid, DimStrategy, OptimizerKind, Skeleton};
pub use config::TsunamiConfig;
pub use cube::{CubeEntry, DimAgg, RegionCube};
pub use flood::{FloodConfig, FloodIndex};
pub use grid_tree::GridTree;
pub use index::{DeleteReport, TsunamiIndex, TsunamiStats};
// Lives in `tsunami-core` so `MultiDimIndex::ingest_batch` can carry it.
pub use query_types::cluster_query_types;
pub use shift::{ShiftReport, WorkloadMonitor};
pub use tsunami_core::IngestReport;

/// The seed of every sample a build draws — query-type clustering, each
/// region's optimizer sample, the black-box optimizer's perturbations — and
/// of the workload monitor's: fixed, so a build is a function of its inputs.
pub(crate) const SEED: u64 = 0x7500_0A11;
