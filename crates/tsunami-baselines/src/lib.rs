//! Traditional, non-learned multi-dimensional indexes used as baselines in
//! the paper's evaluation (§6.1):
//!
//! * [`ClusteredSingleDimIndex`] — points sorted by the workload's most
//!   selective dimension, binary-searched when that dimension is filtered.
//! * [`ZOrderIndex`] — points ordered by Morton (Z-order) value, grouped into
//!   pages carrying per-dimension min/max metadata for skipping.
//! * [`HyperOctree`] — recursive equal subdivision of space into
//!   hyperoctants until pages are small enough.
//! * [`KdTree`] — recursive median splits, dimensions chosen round-robin in
//!   order of workload selectivity.
//! * [`FullScanIndex`] — the trivial baseline that scans everything.
//!
//! All of them are *clustered*: they reorder the column store according to
//! their layout and answer queries by scanning contiguous row ranges, exactly
//! like the learned indexes, so comparisons isolate the layout quality.
//! Every family but the full scan gathers its store once, in layout order,
//! straight from the input ([`tsunami_store::ColumnStore::clustered`]).
//!
//! SingleDim and the k-d tree rank dimensions by the sample workload's
//! per-dimension selectivities, which [`filtered_selectivities`] counts in
//! one pass per column.
//!
//! The paper tunes the page size of the tree-based baselines per
//! dataset/workload; [`tuning::tune_page_size`] reproduces that step.

pub mod fullscan;
pub mod kdtree;
pub mod octree;
mod page;
pub mod selectivity;
pub mod single_dim;
pub mod tuning;
pub mod zorder;

pub use fullscan::FullScanIndex;
pub use kdtree::KdTree;
pub use octree::HyperOctree;
pub use selectivity::filtered_selectivities;
pub use single_dim::ClusteredSingleDimIndex;
pub use tuning::{tune_page_size, DEFAULT_PAGE_SIZES};
pub use zorder::ZOrderIndex;
