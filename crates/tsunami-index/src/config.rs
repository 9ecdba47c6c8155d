//! Configuration knobs for building a Tsunami index: the optimizer and tree
//! depth the paper's drill-downs vary, the build effort, and the ingest
//! bars. The paper's fixed heuristics are constants beside the code that
//! reads them: query-type clustering in [`crate::query_types`], the Grid
//! Tree's split, leaf and merge thresholds in [`crate::grid_tree`], and the
//! Augmented Grid's skeleton heuristics in
//! [`crate::augmented_grid::optimizer`].
//!
//! The Fig 12a component ablations are settings of these knobs, not a mode
//! of their own: `max_tree_depth: 0` is the Augmented Grid alone (one region
//! over the whole space, optimized for every clustered sample query), and
//! [`OptimizerKind::Independent`] is the Grid Tree alone (every region gets
//! a Flood-style grid). Both together are Flood built on Tsunami's grid.

use crate::augmented_grid::OptimizerKind;

/// Configuration for [`crate::TsunamiIndex::build_with_cost`].
#[derive(Debug, Clone, PartialEq)]
pub struct TsunamiConfig {
    /// Optimizer used for each Augmented Grid (Fig 12b comparison;
    /// [`OptimizerKind::Independent`] is the Fig 12a Grid-Tree-only
    /// ablation).
    pub optimizer: OptimizerKind,

    // --- Grid Tree parameters (§4.3) ---
    /// Number of histogram bins used to approximate query PDFs (the
    /// paper's 128 by default, §4.3).
    pub skew_bins: usize,
    /// Hard cap on Grid Tree depth (safety bound, not from the paper). `0`
    /// builds a single region — the Fig 12a Augmented-Grid-only ablation.
    pub max_tree_depth: usize,

    // --- Augmented Grid parameters (§5.3) ---
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
            optimizer: OptimizerKind::Adaptive,
            skew_bins: 128,
            max_tree_depth: 8,
            max_cells_per_grid: 1 << 16,
            optimizer_sample_size: 2_000,
            optimizer_max_iters: 20,
            blackbox_iters: 50,
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
        assert_eq!(c.optimizer, OptimizerKind::Adaptive);
    }

    #[test]
    fn builders_modify_optimizer() {
        let c = TsunamiConfig::fast().with_optimizer(OptimizerKind::GradientOnly);
        assert_eq!(c.optimizer, OptimizerKind::GradientOnly);
        assert!(c.optimizer_sample_size < TsunamiConfig::default().optimizer_sample_size);
    }
}
