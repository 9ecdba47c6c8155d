//! Configuration knobs for building a Tsunami index.
//!
//! Defaults follow the paper: 128 histogram bins for skew computation, a
//! DBSCAN eps of 0.2 for query-type clustering, a minimum skew reduction of
//! 5% of |Q| to accept a Grid Tree split, a minimum region population of 1%
//! of the points/queries, and a 10% tolerance when merging adjacent covering
//! nodes of the skew tree (§4.3). Augmented Grid heuristics use a 10%
//! error-bound threshold for functional mappings and a 25% empty-cell
//! threshold for conditional CDFs (§5.3.2).

use crate::augmented_grid::OptimizerKind;

/// Which components of Tsunami are enabled — used for the Fig 12a drill-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexVariant {
    /// Full Tsunami: Grid Tree + Augmented Grid per region.
    Full,
    /// Grid Tree only: each region is indexed with a Flood-style grid
    /// (independent CDFs only).
    GridTreeOnly,
    /// Augmented Grid only: a single Augmented Grid over the whole space.
    AugmentedGridOnly,
}

/// Configuration for [`crate::TsunamiIndex::build_with_cost`].
#[derive(Debug, Clone, PartialEq)]
pub struct TsunamiConfig {
    /// Which components to enable (Fig 12a ablation).
    pub variant: IndexVariant,
    /// Optimizer used for each Augmented Grid (Fig 12b comparison).
    pub optimizer: OptimizerKind,

    // --- Grid Tree parameters (§4.3) ---
    /// Number of histogram bins used to approximate query PDFs.
    pub skew_bins: usize,
    /// DBSCAN eps for query-type clustering over selectivity embeddings.
    pub dbscan_eps: f64,
    /// Minimum number of queries for a DBSCAN core point.
    pub dbscan_min_pts: usize,
    /// A split is accepted only if the best skew reduction is at least this
    /// fraction of the number of intersecting queries.
    pub min_skew_reduction_fraction: f64,
    /// A node is a leaf if it has fewer than this fraction of all points.
    pub min_region_point_fraction: f64,
    /// A node is a leaf if it intersects fewer than this fraction of all queries.
    pub min_region_query_fraction: f64,
    /// Adjacent covering-set nodes are merged if the merged skew is at most
    /// `(1 + merge_tolerance)` times the sum of their skews.
    pub merge_tolerance: f64,
    /// Hard cap on Grid Tree depth (safety bound, not from the paper).
    pub max_tree_depth: usize,

    // --- Augmented Grid parameters (§5.3) ---
    /// Functional mapping is used when its error span is below this fraction
    /// of the target dimension's domain.
    pub fm_error_fraction: f64,
    /// Conditional CDF is used when more than this fraction of cells in the
    /// 2-d hyperplane would otherwise be empty.
    pub ccdf_empty_fraction: f64,
    /// A cap on the cells of one Augmented Grid — not a target. The budget
    /// a region's layout is actually optimized under is row-derived:
    /// `min(max_cells_per_grid, rows / 256)`, one cell per quarter scan
    /// block, and a region whose budget is below two cells gets no grid at
    /// all (see the crate docs, "Layout granularity floor"). The cap only
    /// binds for regions of more than `256 * max_cells_per_grid` rows.
    pub max_cells_per_grid: usize,
    /// Rows sampled per region for cost estimation during optimization.
    pub optimizer_sample_size: usize,
    /// Maximum optimizer iterations (AGD outer loop).
    pub optimizer_max_iters: usize,
    /// Iterations for the black-box (basin hopping) optimizer baseline.
    pub blackbox_iters: usize,
    /// Seed for deterministic sampling and optimizer perturbations.
    pub seed: u64,

    // --- Workload-shift detection (§8) ---
    /// Queries retained in an engine table's observation log — the sliding
    /// window `Database::auto_reoptimize` compares against the optimized-for
    /// workload (oldest evicted first).
    pub observation_window: usize,

    // --- Incremental ingestion parameters (data shift) ---
    /// During [`crate::TsunamiIndex::ingest`], a region whose accumulated
    /// inserted-row fraction (rows ingested since the region's layout was
    /// last optimized, over its current size) exceeds this bar gets its
    /// Augmented-Grid *layout* re-optimized (warm-started from the current
    /// one) instead of merely re-gridded with the existing layout — by a
    /// graft, at once, rather than waiting in the delta. During
    /// [`crate::TsunamiIndex::delete_where`], a region whose *dead*-row
    /// fraction exceeds it is compacted. The same bar is the engine's
    /// data-drift trigger: `Database::auto_reoptimize` fires once the whole
    /// index's ingested fraction passes it.
    pub ingest_region_staleness: f64,
    /// [`crate::TsunamiIndex::ingest`] escalates to a full rebuild (fresh
    /// Grid Tree and layouts, over data + ingested rows) when the whole
    /// index's ingested-row fraction would exceed this bar. Between the two
    /// bars the Grid Tree structure is reused and only touched regions pay
    /// re-grid/re-optimization cost.
    pub ingest_rebuild_staleness: f64,
}

impl Default for TsunamiConfig {
    fn default() -> Self {
        Self {
            variant: IndexVariant::Full,
            optimizer: OptimizerKind::Adaptive,
            skew_bins: 128,
            dbscan_eps: 0.2,
            dbscan_min_pts: 2,
            min_skew_reduction_fraction: 0.05,
            min_region_point_fraction: 0.01,
            min_region_query_fraction: 0.01,
            merge_tolerance: 0.10,
            max_tree_depth: 8,
            fm_error_fraction: 0.10,
            ccdf_empty_fraction: 0.25,
            max_cells_per_grid: 1 << 16,
            optimizer_sample_size: 2_000,
            optimizer_max_iters: 20,
            blackbox_iters: 50,
            seed: 0x7500_0A11,
            observation_window: 1_024,
            ingest_region_staleness: 0.25,
            ingest_rebuild_staleness: 0.5,
        }
    }
}

impl TsunamiConfig {
    /// A reduced configuration for unit tests and doc tests: small samples,
    /// few iterations, small cell budgets.
    pub fn fast() -> Self {
        Self {
            skew_bins: 64,
            max_cells_per_grid: 1 << 10,
            optimizer_sample_size: 400,
            optimizer_max_iters: 6,
            blackbox_iters: 10,
            max_tree_depth: 4,
            ..Self::default()
        }
    }

    /// Returns a copy using the given index variant.
    pub fn with_variant(mut self, variant: IndexVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns a copy using the given Augmented Grid optimizer.
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Returns a copy using the given ingest staleness bars (see
    /// [`TsunamiConfig::ingest_region_staleness`] and
    /// [`TsunamiConfig::ingest_rebuild_staleness`]).
    pub fn with_ingest_staleness(mut self, region: f64, rebuild: f64) -> Self {
        self.ingest_region_staleness = region;
        self.ingest_rebuild_staleness = rebuild;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = TsunamiConfig::default();
        assert_eq!(c.skew_bins, 128);
        assert!((c.dbscan_eps - 0.2).abs() < 1e-12);
        assert!((c.min_skew_reduction_fraction - 0.05).abs() < 1e-12);
        assert!((c.min_region_point_fraction - 0.01).abs() < 1e-12);
        assert!((c.merge_tolerance - 0.10).abs() < 1e-12);
        assert!((c.fm_error_fraction - 0.10).abs() < 1e-12);
        assert!((c.ccdf_empty_fraction - 0.25).abs() < 1e-12);
        assert_eq!(c.variant, IndexVariant::Full);
    }

    #[test]
    fn builders_modify_variant_and_optimizer() {
        let c = TsunamiConfig::fast()
            .with_variant(IndexVariant::GridTreeOnly)
            .with_optimizer(OptimizerKind::GradientOnly);
        assert_eq!(c.variant, IndexVariant::GridTreeOnly);
        assert_eq!(c.optimizer, OptimizerKind::GradientOnly);
        assert!(c.optimizer_sample_size < TsunamiConfig::default().optimizer_sample_size);
    }
}
