//! Optimizing an Augmented Grid's layout `(S, P)` (§5.3).
//!
//! The search space of skeletons is `O(d^d)`, so Tsunami uses **Adaptive
//! Gradient Descent (AGD)**: initialize `(S0, P0)` with heuristics, then
//! alternate (a) a numeric gradient-descent step over the partition counts
//! `P` and (b) a local search over skeletons one hop away from the current
//! one, both scored by the analytic cost model over a sample of the data and
//! the workload.
//!
//! A candidate is scored by building its grid over the sample and planning
//! the workload against it. One region's search revisits most of what it
//! built — the descent steps back onto candidates it has priced, and
//! neighbouring candidates share most of their per-dimension models — so
//! the search fits each model over the sample once (a `FitCache`) and
//! prices each distinct candidate once. Neither memo changes a price: a
//! model is a pure function of the sample and its key, and a price of the
//! grid built from them. [`OptimizedLayout::evaluations`] counts every
//! candidate considered, [`OptimizedLayout::layouts_priced`] the grids
//! built.
//!
//! For the Fig 12b comparison, this module also implements plain Gradient
//! Descent (no skeleton search), AGD with naive initialization (start from
//! the all-independent skeleton), and a black-box basin-hopping baseline.
//! Gradient descent on the all-independent skeleton is Flood's own search
//! ([`crate::flood`] runs the same initialization and descent under its own
//! estimator) and, per region, the Fig 12a Grid-Tree-only ablation.

use std::collections::HashMap;

use super::skeleton::{DimStrategy, Skeleton};
use super::{AugmentedGrid, CellScratch, FitCache};
use crate::cdf::{FunctionalMapping, HistogramCdf};
use crate::config::TsunamiConfig;
use crate::SEED;
use tsunami_core::sample::{sample_dataset, SplitMix};
use tsunami_core::{CostFeatures, CostModel, Dataset, Query, Workload};

/// Which optimization algorithm to use for the Augmented Grid (Fig 12b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Adaptive Gradient Descent with heuristic initialization (the paper's
    /// default).
    Adaptive,
    /// Gradient descent over `P` only; the skeleton never changes.
    GradientOnly,
    /// AGD started from the all-independent (naive) skeleton.
    AdaptiveNaiveInit,
    /// Basin-hopping black-box search over `(S, P)`.
    BlackBox,
    /// Flood's grid: the all-independent skeleton, gradient descent over `P`
    /// only. Under a Grid Tree this is the Fig 12a Grid-Tree-only ablation.
    Independent,
}

/// The outcome of layout optimization.
#[derive(Debug, Clone)]
pub struct OptimizedLayout {
    /// Chosen skeleton.
    pub skeleton: Skeleton,
    /// Chosen per-dimension partition counts.
    pub partitions: Vec<usize>,
    /// Predicted average query cost (cost-model units) of the chosen layout.
    pub predicted_cost: f64,
    /// Number of candidate layouts evaluated, repeats included.
    pub evaluations: usize,
    /// Number of distinct candidate layouts priced — the grids the search
    /// built; every other evaluation repeated one of them.
    pub layouts_priced: usize,
}

/// Evaluates the predicted average query cost of a candidate layout by
/// building the Augmented Grid over the *sample* and pricing each query's
/// scan with the cost model, scaling scanned points to the full data size.
pub fn predicted_cost(
    sample: &Dataset,
    total_rows: usize,
    skeleton: &Skeleton,
    partitions: &[usize],
    workload: &Workload,
    cost: &CostModel,
) -> f64 {
    Search::new(sample, total_rows, workload, cost).price(skeleton, partitions)
}

/// One layout search over one sample: [`predicted_cost`] for every
/// candidate it is asked about, with the sample's per-dimension models
/// fitted once ([`FitCache`]) and each distinct candidate priced once.
struct Search<'a> {
    fits: FitCache<'a>,
    total_rows: usize,
    workload: &'a Workload,
    cost: &'a CostModel,
    /// The price of every candidate built so far.
    priced: HashMap<(Skeleton, Vec<usize>), f64>,
    scratch: CellScratch,
    /// Candidates asked about, repeats included.
    evaluations: usize,
}

impl<'a> Search<'a> {
    fn new(
        sample: &'a Dataset,
        total_rows: usize,
        workload: &'a Workload,
        cost: &'a CostModel,
    ) -> Self {
        Self {
            fits: FitCache::new(sample),
            total_rows,
            workload,
            cost,
            priced: HashMap::new(),
            scratch: CellScratch::default(),
            evaluations: 0,
        }
    }

    /// The predicted average query cost of the layout `(skeleton,
    /// partitions)`.
    fn price(&mut self, skeleton: &Skeleton, partitions: &[usize]) -> f64 {
        self.evaluations += 1;
        let sample = self.fits.data();
        if self.workload.is_empty() || sample.is_empty() {
            return 0.0;
        }
        let key = (skeleton.clone(), partitions.to_vec());
        if let Some(&price) = self.priced.get(&key) {
            return price;
        }
        let (grid, _perm) = AugmentedGrid::build_in(&mut self.fits, skeleton, partitions);
        let scale = self.total_rows as f64 / sample.len() as f64;
        let mut total = 0.0;
        for q in self.workload.queries() {
            total += self
                .cost
                .predict(&query_features(&grid, q, scale, &mut self.scratch));
        }
        let price = total / self.workload.len() as f64;
        self.priced.insert(key, price);
        price
    }

    /// The search's outcome: the chosen layout at its price.
    fn outcome(&self, skeleton: Skeleton, partitions: Vec<usize>, price: f64) -> OptimizedLayout {
        OptimizedLayout {
            skeleton,
            partitions,
            predicted_cost: price,
            evaluations: self.evaluations,
            layouts_priced: self.priced.len(),
        }
    }
}

/// What a query costs on `grid`, counted off the ranges the planner would
/// scan: a grid that falls back is scanned whole, as one range.
fn query_features(
    grid: &AugmentedGrid,
    q: &Query,
    scale: f64,
    scratch: &mut CellScratch,
) -> CostFeatures {
    let (mut ranges, mut scanned) = (0usize, 0usize);
    let count = |range: std::ops::Range<usize>, _exact| {
        ranges += 1;
        scanned += range.len();
    };
    if grid.plan_cells(q, scratch, count).is_none() {
        (ranges, scanned) = (1, grid.num_rows());
    }
    CostFeatures {
        cell_ranges: ranges.max(1) as f64,
        scanned_points: scanned as f64 * scale,
        filtered_dims: q.num_filtered_dims().max(1) as f64,
    }
}

/// A functional mapping `X -> Y` is a skeleton candidate when its error
/// span is below this fraction of `Y`'s domain (§5.3.2: 10%).
pub const FM_ERROR_FRACTION: f64 = 0.10;

/// A conditional CDF `CDF(X | Y)` is a skeleton candidate when more than
/// this fraction of the cells in the `XY` hyperplane would otherwise be
/// empty (§5.3.2: 25%).
pub const CCDF_EMPTY_FRACTION: f64 = 0.25;

/// Heuristically initializes the skeleton (§5.3.2, step 1): for each
/// dimension `X`, use a functional mapping to `Y` if the fitted error bound
/// is below [`FM_ERROR_FRACTION`] of `Y`'s domain; else partition with
/// `CDF(X | Y)` if more than [`CCDF_EMPTY_FRACTION`] of the cells in the `XY`
/// hyperplane would be empty; else partition independently.
pub fn heuristic_skeleton(sample: &Dataset) -> Skeleton {
    let d = sample.num_dims();
    let mut strategies = vec![DimStrategy::Independent; d];
    if sample.len() < 16 {
        return Skeleton::new_unchecked(strategies);
    }

    let parts = partition_columns(sample, 16);
    for (dim, strategy) in strategies.iter_mut().enumerate() {
        // Candidate targets/bases, best-first.
        let mut best_fm: Option<(usize, f64)> = None;
        let mut best_ccdf: Option<(usize, f64)> = None;
        for other in 0..d {
            if other == dim {
                continue;
            }
            // Functional mapping dim -> other (other is the target).
            if let Some(fm) = FunctionalMapping::fit(sample.column(dim), sample.column(other)) {
                let domain = sample.domain(other).unwrap_or((0, 1));
                let width = (domain.1 - domain.0).max(1) as f64;
                let frac = fm.error_span() / width;
                if frac < FM_ERROR_FRACTION && best_fm.is_none_or(|(_, f)| frac < f) {
                    best_fm = Some((other, frac));
                }
            }
            // Conditional CDF candidate: fraction of empty cells in the
            // (dim, other) hyperplane under independent partitioning.
            let empty = empty_cell_fraction(&parts[dim], &parts[other], 16);
            if empty > CCDF_EMPTY_FRACTION && best_ccdf.is_none_or(|(_, e)| empty > e) {
                best_ccdf = Some((other, empty));
            }
        }
        if let Some((target, _)) = best_fm {
            *strategy = DimStrategy::Mapped { target };
        } else if let Some((base, _)) = best_ccdf {
            *strategy = DimStrategy::Conditional { base };
        }
    }

    repair_skeleton(strategies)
}

/// Every column of `sample` mapped to its `p` equal-mass partitions: one
/// [`HistogramCdf`] fit per column, and `parts[dim][r]` is row `r`'s
/// partition on `dim`.
///
/// A partition is one of the CDF's `p` equal-mass slices
/// ([`HistogramCdf::partition`]), not a histogram bucket: ties can leave a
/// column fewer than `p` buckets, and counting buckets would change which
/// skeletons the heuristic picks.
fn partition_columns(sample: &Dataset, p: usize) -> Vec<Vec<usize>> {
    (0..sample.num_dims())
        .map(|dim| {
            let column = sample.column(dim);
            let model = HistogramCdf::build(column, p);
            column.iter().map(|&v| model.partition(v, p)).collect()
        })
        .collect()
}

/// Fraction of cells in the `a x b` hyperplane (with `p x p` equi-depth
/// partitions, from [`partition_columns`]) that contain no sample points.
/// High emptiness means the two dimensions are correlated and a conditional
/// CDF would help.
fn empty_cell_fraction(a: &[usize], b: &[usize], p: usize) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let mut occupied = vec![false; p * p];
    for (&x, &y) in a.iter().zip(b) {
        occupied[x * p + y] = true;
    }
    let filled = occupied.iter().filter(|&&o| o).count();
    1.0 - filled as f64 / (p * p) as f64
}

/// Repairs an arbitrary strategy assignment into a valid skeleton by
/// downgrading offending dimensions to Independent (processing in order, so
/// earlier dimensions win conflicts).
pub fn repair_skeleton(mut strategies: Vec<DimStrategy>) -> Skeleton {
    let d = strategies.len();
    for dim in 0..d {
        match strategies[dim] {
            DimStrategy::Independent => {}
            DimStrategy::Mapped { target } => {
                if target >= d
                    || target == dim
                    || matches!(strategies[target], DimStrategy::Mapped { .. })
                {
                    strategies[dim] = DimStrategy::Independent;
                }
            }
            DimStrategy::Conditional { base } => {
                if base >= d || base == dim || !matches!(strategies[base], DimStrategy::Independent)
                {
                    strategies[dim] = DimStrategy::Independent;
                }
            }
        }
    }
    // Ensure at least one grid dimension.
    if !strategies.iter().any(DimStrategy::is_grid_dim) {
        if let Some(first) = strategies.first_mut() {
            *first = DimStrategy::Independent;
        }
    }
    Skeleton::new(strategies.clone()).unwrap_or_else(|| {
        // Extremely defensive fallback: all independent is always valid for d >= 1.
        Skeleton::all_independent(strategies.len().max(1))
    })
}

/// Initializes partition counts proportionally to the workload's average
/// filter selectivity per grid dimension (§5.3.2, step 1), within the cell
/// budget.
pub(crate) fn initial_partitions(
    sample: &Dataset,
    skeleton: &Skeleton,
    workload: &Workload,
    max_cells: usize,
) -> Vec<usize> {
    let d = sample.num_dims();
    let grid_dims = skeleton.grid_dims();
    let mut weights = vec![0.0f64; d];
    for &dim in &grid_dims {
        let mut sel_sum = 0.0;
        let mut count = 0usize;
        for q in workload.queries() {
            if q.predicate_on(dim).is_some() {
                sel_sum += q.dim_selectivity(sample, dim);
                count += 1;
            }
        }
        let avg = if count == 0 {
            1.0
        } else {
            sel_sum / count as f64
        };
        let freq = count as f64 / workload.len().max(1) as f64;
        weights[dim] = (1.0 / avg.max(1e-3)).ln().max(0.0) * freq + 1e-6;
    }
    let total_w: f64 = grid_dims.iter().map(|&d2| weights[d2]).sum();
    let log_budget = (max_cells.max(2) as f64).ln();
    let mut partitions = vec![1usize; d];
    if total_w > 0.0 {
        for &dim in &grid_dims {
            let share = weights[dim] / total_w;
            partitions[dim] = ((share * log_budget).exp().round() as usize).clamp(1, 4096);
        }
    }
    clamp_partitions(&mut partitions, &grid_dims, max_cells);
    partitions
}

/// Cells of a grid with these per-dimension partition counts.
fn cell_count(partitions: &[usize], grid_dims: &[usize]) -> usize {
    grid_dims
        .iter()
        .fold(1usize, |acc, &d| acc.saturating_mul(partitions[d]))
}

/// Shrinks the largest partition count of `grid_dims` by a quarter (the
/// last of equals first) until the grid fits `max_cells` cells.
fn clamp_partitions(partitions: &mut [usize], grid_dims: &[usize], max_cells: usize) {
    let max_cells = max_cells.max(1);
    loop {
        if cell_count(partitions, grid_dims) <= max_cells {
            return;
        }
        if let Some(&max_dim) = grid_dims.iter().max_by_key(|&&d| partitions[d]) {
            if partitions[max_dim] <= 1 {
                return;
            }
            partitions[max_dim] = (partitions[max_dim] * 3 / 4).max(1);
        } else {
            return;
        }
    }
}

/// One coordinate-descent step over the partition counts of `grid_dims`
/// (§5.3.2, step 2): each dimension in turn tries ×1.5, ×0.67, +1 and −1,
/// clamped to `max_cells`, and keeps every candidate that `cost_of` prices
/// below `0.999 · best_cost`. Returns whether a move was kept.
pub(crate) fn descend_partitions(
    partitions: &mut Vec<usize>,
    best_cost: &mut f64,
    grid_dims: &[usize],
    max_cells: usize,
    mut cost_of: impl FnMut(&[usize]) -> f64,
) -> bool {
    let mut improved = false;
    for &dim in grid_dims {
        let p = partitions[dim];
        let candidates = [
            (p as f64 * 1.5).ceil() as usize,
            (p as f64 * 0.67).floor().max(1.0) as usize,
            p + 1,
            p.saturating_sub(1).max(1),
        ];
        for cand in candidates {
            if cand == partitions[dim] {
                continue;
            }
            let mut trial = partitions.clone();
            trial[dim] = cand;
            clamp_partitions(&mut trial, grid_dims, max_cells);
            let c = cost_of(&trial);
            if c < *best_cost * 0.999 {
                *best_cost = c;
                *partitions = trial;
                improved = true;
            }
        }
    }
    improved
}

/// The layout granularity floor: no Augmented-Grid cell is planned finer
/// than a quarter of the executor's scan block. The scan is memory-bound
/// (~0.3 ns/row), so a cell of a few dozen rows can never repay the
/// microsecond it costs `plan()` to enumerate it — and the cost model
/// (`w0·ranges + w1·points·dims`) counts ranges *after* merging, so it never
/// sees a cell and would otherwise always fill
/// [`TsunamiConfig::max_cells_per_grid`]. The quarter block is a bound, not
/// a measured optimum: in the README's sweep 512 and 1,024 rows per cell, and
/// no grids at all, answer within noise of it; what 256 keeps is the grids'
/// pruning (4.5x fewer points visited at 1M rows). A per-cell term in the
/// cost model is meant to replace it (ROADMAP, cost-model note). Derived from
/// a region's row count only; not a knob.
pub(crate) const TARGET_ROWS_PER_CELL: usize = tsunami_core::exec::BLOCK_ROWS / 4;

/// The effective cell budget of a grid over `rows` rows: the configured cap,
/// lowered to one cell per [`TARGET_ROWS_PER_CELL`] rows.
fn cell_budget(rows: usize, config: &TsunamiConfig) -> usize {
    config.max_cells_per_grid.min(rows / TARGET_ROWS_PER_CELL)
}

/// Whether a region of `rows` rows is large enough for a grid to split it at
/// all (a budget of at least two cells). [`region_layout`] answers `None`
/// without looking at anything else when it is not, so callers ask first and
/// skip the work of preparing its inputs — copying the region's rows and
/// collecting its queries.
pub(crate) fn region_can_hold_grid(rows: usize, config: &TsunamiConfig) -> bool {
    cell_budget(rows, config) >= 2
}

/// Decides one region's physical layout — the single place the index chooses
/// between an Augmented Grid and a plain whole-region scan, for build,
/// ingest and delete-compaction alike.
///
/// `None` means *no grid*: the planner emits the whole region as one range,
/// with exactness and residual guarantees from the Grid-Tree bounds. That is
/// the answer when
///
/// * the region's cell budget is below two cells (fewer than
///   `2 * TARGET_ROWS_PER_CELL` rows) — a grid could not split it;
/// * the region has neither queries to optimize for nor a current layout;
/// * the chosen partitions multiply to a single cell.
///
/// With queries, the layout is optimized for them (warm-started from `warm`,
/// the region's current layout, when given). Without queries a region keeps
/// its `warm` layout, re-fitted to the budget its current row count allows —
/// the re-grid after an ingest or a compaction, which never pays the
/// optimizer. The optimizer is `config`'s.
pub(crate) fn region_layout(
    data: &Dataset,
    queries: &[Query],
    warm: Option<(&Skeleton, &[usize])>,
    cost: &CostModel,
    config: &TsunamiConfig,
) -> Option<(Skeleton, Vec<usize>)> {
    if !region_can_hold_grid(data.len(), config) {
        return None;
    }
    let max_cells = cell_budget(data.len(), config);
    let (skeleton, partitions) = if queries.is_empty() {
        let (skeleton, partitions) = warm?;
        let mut partitions = partitions.to_vec();
        clamp_partitions(&mut partitions, &skeleton.grid_dims(), max_cells);
        (skeleton.clone(), partitions)
    } else {
        let workload = Workload::new(queries.to_vec());
        let kind = config.optimizer;
        let layout = optimize_layout_from(data, &workload, cost, config, kind, warm, max_cells);
        (layout.skeleton, layout.partitions)
    };
    (cell_count(&partitions, &skeleton.grid_dims()) > 1).then_some((skeleton, partitions))
}

/// Optimizes the Augmented Grid layout for a dataset and workload, within
/// the cell budget the dataset's row count allows (the configured
/// [`TsunamiConfig::max_cells_per_grid`] is a cap, not a target).
pub fn optimize_layout(
    data: &Dataset,
    workload: &Workload,
    cost: &CostModel,
    config: &TsunamiConfig,
    kind: OptimizerKind,
) -> OptimizedLayout {
    let max_cells = cell_budget(data.len(), config);
    optimize_layout_from(data, workload, cost, config, kind, None, max_cells)
}

/// [`optimize_layout`] under an explicit cell budget, optionally
/// *warm-started* from a known-good layout — ingest passes a stale region's
/// current `(S, P)` so re-deriving its layout over the grown rows converges
/// in few iterations instead of starting from scratch. The warm start
/// competes with the heuristic initialization on predicted cost and the
/// cheaper of the two seeds the descent, so a stale layout can never make
/// the outcome worse than a cold start.
fn optimize_layout_from(
    data: &Dataset,
    workload: &Workload,
    cost: &CostModel,
    config: &TsunamiConfig,
    kind: OptimizerKind,
    warm: Option<(&Skeleton, &[usize])>,
    max_cells: usize,
) -> OptimizedLayout {
    let sample = sample_dataset(data, config.optimizer_sample_size, SEED);

    // Cap the number of queries used for cost evaluation: optimization cost
    // grows with |workload| x |candidate layouts|, and a modest subsample is
    // enough to rank layouts.
    const MAX_EVAL_QUERIES: usize = 64;
    let workload_small;
    let workload = if workload.len() > MAX_EVAL_QUERIES {
        let step = workload.len().div_ceil(MAX_EVAL_QUERIES);
        workload_small = Workload::new(
            workload
                .queries()
                .iter()
                .step_by(step)
                .cloned()
                .collect::<Vec<_>>(),
        );
        &workload_small
    } else {
        workload
    };

    let mut skeleton = match kind {
        OptimizerKind::Independent | OptimizerKind::AdaptiveNaiveInit => {
            Skeleton::all_independent(data.num_dims())
        }
        _ => heuristic_skeleton(&sample),
    };
    let mut search = Search::new(&sample, data.len(), workload, cost);
    let mut partitions = initial_partitions(&sample, &skeleton, workload, max_cells);
    let mut best_cost = search.price(&skeleton, &partitions);

    // Warm start: price the caller's existing layout and keep it as the
    // starting point when it already beats the cold initialization.
    if let Some((warm_s, warm_p)) = warm {
        if warm_s.num_dims() == data.num_dims() && warm_s.is_valid() {
            let mut warm_p = warm_p.to_vec();
            warm_p.resize(data.num_dims(), 1);
            clamp_partitions(&mut warm_p, &warm_s.grid_dims(), max_cells);
            let c = search.price(warm_s, &warm_p);
            if c < best_cost {
                best_cost = c;
                skeleton = warm_s.clone();
                partitions = warm_p;
            }
        }
    }

    if workload.is_empty() || sample.is_empty() {
        return search.outcome(skeleton, partitions, best_cost);
    }

    match kind {
        OptimizerKind::BlackBox => {
            let mut rng = SplitMix::new(SEED ^ 0xB1ACB0);
            for _ in 0..config.blackbox_iters {
                let (cand_s, mut cand_p) =
                    random_perturbation(&skeleton, &partitions, &mut rng, data.num_dims());
                clamp_partitions(&mut cand_p, &cand_s.grid_dims(), max_cells);
                let c = search.price(&cand_s, &cand_p);
                if c < best_cost {
                    best_cost = c;
                    skeleton = cand_s;
                    partitions = cand_p;
                }
            }
        }
        _ => {
            let search_skeletons = matches!(
                kind,
                OptimizerKind::Adaptive | OptimizerKind::AdaptiveNaiveInit
            );
            for _ in 0..config.optimizer_max_iters {
                // --- Step 2: gradient step over P ---
                let grid_dims = skeleton.grid_dims();
                let mut improved = descend_partitions(
                    &mut partitions,
                    &mut best_cost,
                    &grid_dims,
                    max_cells,
                    |p| search.price(&skeleton, p),
                );

                // --- Step 3: local search over skeletons one hop away ---
                if search_skeletons {
                    let mut best_neighbor: Option<(Skeleton, Vec<usize>, f64)> = None;
                    for neighbor in skeleton.neighbors() {
                        let mut trial_p = partitions.clone();
                        // Dimensions that just joined the grid get a default
                        // partition count; dimensions that left it drop to 1.
                        for (dim, p) in trial_p.iter_mut().enumerate() {
                            let was_grid = skeleton.strategy(dim).is_grid_dim();
                            let is_grid = neighbor.strategy(dim).is_grid_dim();
                            if is_grid && !was_grid {
                                *p = 8;
                            } else if !is_grid {
                                *p = 1;
                            }
                        }
                        clamp_partitions(&mut trial_p, &neighbor.grid_dims(), max_cells);
                        let c = search.price(&neighbor, &trial_p);
                        if c < best_cost * 0.999
                            && best_neighbor.as_ref().is_none_or(|&(_, _, bc)| c < bc)
                        {
                            best_neighbor = Some((neighbor, trial_p, c));
                        }
                    }
                    if let Some((s, p, c)) = best_neighbor {
                        skeleton = s;
                        partitions = p;
                        best_cost = c;
                        improved = true;
                    }
                }

                if !improved {
                    break;
                }
            }
        }
    }

    search.outcome(skeleton, partitions, best_cost)
}

/// One basin-hopping perturbation: change one dimension's strategy to a
/// random valid alternative and jitter all partition counts.
fn random_perturbation(
    skeleton: &Skeleton,
    partitions: &[usize],
    rng: &mut SplitMix,
    d: usize,
) -> (Skeleton, Vec<usize>) {
    let dim = rng.next_below(d as u64) as usize;
    let strategy = match rng.next_below(3) {
        0 => DimStrategy::Independent,
        1 => {
            let target = rng.next_below(d as u64) as usize;
            DimStrategy::Mapped {
                target: if target == dim {
                    (target + 1) % d
                } else {
                    target
                },
            }
        }
        _ => {
            let base = rng.next_below(d as u64) as usize;
            DimStrategy::Conditional {
                base: if base == dim { (base + 1) % d } else { base },
            }
        }
    };
    let candidate = skeleton.with_strategy(dim, strategy);
    let new_skeleton = if candidate.is_valid() {
        candidate
    } else {
        repair_skeleton(candidate.strategies().to_vec())
    };
    let new_partitions: Vec<usize> = partitions
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            if !new_skeleton.strategy(i).is_grid_dim() {
                1
            } else {
                let factor = 0.5 + rng.next_f64();
                ((p as f64 * factor).round() as usize).clamp(1, 4096)
            }
        })
        .collect();
    (new_skeleton, new_partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::Predicate;

    /// x uniform; y tightly (linearly) correlated with x; z generically
    /// correlated with x; w independent.
    fn correlated_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        let x: Vec<u64> = (0..n).map(|_| rng.next_below(100_000)).collect();
        let y: Vec<u64> = x.iter().map(|&v| 3 * v + 1_000 + (v % 53)).collect();
        let z: Vec<u64> = x.iter().map(|&v| v / 3 + (v * 7919) % 15_000).collect();
        let w: Vec<u64> = (0..n).map(|_| rng.next_below(100_000)).collect();
        Dataset::from_columns(vec![x, y, z, w]).unwrap()
    }

    fn workload(n: usize, seed: u64) -> Workload {
        let mut rng = SplitMix::new(seed);
        Workload::new(
            (0..n)
                .map(|i| {
                    let lo = rng.next_below(80_000);
                    match i % 3 {
                        0 => Query::count(vec![Predicate::range(0, lo, lo + 5_000).unwrap()])
                            .unwrap(),
                        1 => Query::count(vec![
                            Predicate::range(1, 3 * lo, 3 * (lo + 5_000)).unwrap(),
                            Predicate::range(3, lo, lo + 30_000).unwrap(),
                        ])
                        .unwrap(),
                        _ => Query::count(vec![
                            Predicate::range(2, lo / 3, lo / 3 + 8_000).unwrap(),
                            Predicate::range(0, lo, lo + 20_000).unwrap(),
                        ])
                        .unwrap(),
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn heuristic_skeleton_detects_tight_and_generic_correlation() {
        let data = correlated_data(4_000, 91);
        let sample = sample_dataset(&data, 1_000, 1);
        let skeleton = heuristic_skeleton(&sample);
        assert!(skeleton.is_valid());
        // Dimension 1 (tightly correlated with 0) should be mapped or at
        // least not independent; dimension 3 (independent) stays independent.
        assert!(
            skeleton.strategy(1) != DimStrategy::Independent,
            "dim 1 should exploit its correlation, got {skeleton}"
        );
        assert_eq!(skeleton.strategy(3), DimStrategy::Independent);
    }

    #[test]
    fn empty_cell_fraction_flags_correlated_pairs() {
        let data = correlated_data(4_000, 92);
        let parts = partition_columns(&data, 16);
        let corr = empty_cell_fraction(&parts[1], &parts[0], 16);
        let indep = empty_cell_fraction(&parts[3], &parts[0], 16);
        assert!(
            corr > 0.5,
            "correlated pair should leave many empty cells: {corr}"
        );
        assert!(
            indep < 0.3,
            "independent pair should fill most cells: {indep}"
        );
    }

    #[test]
    fn empty_cell_fraction_counts_cdf_partitions_not_buckets() {
        // Nine distinct values, 56 of 64 rows tied at 0: the ties collapse
        // the 16 requested equi-depth buckets to three — {0}, {1..4}, {5..8}
        // — while the CDF, interpolated inside each bucket, still sends the
        // nine values to nine of the 16 partitions.
        let column: Vec<u64> = std::iter::repeat_n(0, 56).chain(1..=8).collect();
        assert_eq!(HistogramCdf::build(&column, 16).num_buckets(), 3);
        let sample = Dataset::from_columns(vec![column.clone(), column]).unwrap();
        // The two equal columns fill the diagonal: nine of the 16 x 16 cells
        // (three, had the fraction counted buckets).
        let parts = partition_columns(&sample, 16);
        assert_eq!(
            empty_cell_fraction(&parts[0], &parts[1], 16),
            1.0 - 9.0 / 256.0
        );
    }

    #[test]
    fn occupancy_over_shared_partition_columns_matches_a_fit_per_pair() {
        // The reference fits both columns' CDFs afresh for every ordered
        // pair, as the heuristic once did; sharing one fit per column must
        // not move a single pair's fraction.
        let per_pair = |sample: &Dataset, dim: usize, other: usize| {
            let ma = HistogramCdf::build(sample.column(dim), 16);
            let mb = HistogramCdf::build(sample.column(other), 16);
            let mut occupied = [false; 16 * 16];
            for r in 0..sample.len() {
                let a = ma.partition(sample.get(r, dim), 16);
                let b = mb.partition(sample.get(r, other), 16);
                occupied[a * 16 + b] = true;
            }
            1.0 - occupied.iter().filter(|&&o| o).count() as f64 / 256.0
        };
        let ties: Vec<u64> = std::iter::repeat_n(0, 56).chain(1..=8).collect();
        let fixtures = [
            correlated_data(4_000, 92),
            sample_dataset(&correlated_data(4_000, 91), 1_000, 1),
            Dataset::from_columns(vec![ties.clone(), ties.iter().rev().copied().collect()])
                .unwrap(),
        ];
        for sample in &fixtures {
            let parts = partition_columns(sample, 16);
            for dim in 0..sample.num_dims() {
                for other in (0..sample.num_dims()).filter(|&o| o != dim) {
                    assert_eq!(
                        empty_cell_fraction(&parts[dim], &parts[other], 16),
                        per_pair(sample, dim, other),
                        "pair ({dim}, {other})"
                    );
                }
            }
        }
    }

    #[test]
    fn repair_skeleton_fixes_invalid_assignments() {
        // dim0 mapped to dim1, dim1 mapped to dim0: the second mapping must
        // be downgraded.
        let s = repair_skeleton(vec![
            DimStrategy::Mapped { target: 1 },
            DimStrategy::Mapped { target: 0 },
            DimStrategy::Conditional { base: 0 },
        ]);
        assert!(s.is_valid());
        // Everything mapped -> repaired to keep at least one grid dim.
        let s = repair_skeleton(vec![
            DimStrategy::Mapped { target: 1 },
            DimStrategy::Mapped { target: 0 },
        ]);
        assert!(s.is_valid());
        assert!(!s.grid_dims().is_empty());
    }

    #[test]
    fn agd_does_not_regress_from_initialization() {
        let data = correlated_data(5_000, 93);
        let w = workload(30, 94);
        let cost = CostModel::default();
        let config = TsunamiConfig::fast();
        let sample = sample_dataset(&data, config.optimizer_sample_size, SEED);
        let init_s = heuristic_skeleton(&sample);
        // The reference initialization gets the same effective cell budget
        // the optimizer works under: with the configured cap alone it would
        // be priced with cells the row-derived floor forbids the optimizer.
        let max_cells = cell_budget(data.len(), &config);
        assert!(max_cells < config.max_cells_per_grid);
        let init_p = initial_partitions(&sample, &init_s, &w, max_cells);
        let init_cost = predicted_cost(&sample, data.len(), &init_s, &init_p, &w, &cost);

        let opt = optimize_layout(&data, &w, &cost, &config, OptimizerKind::Adaptive);
        assert!(opt.predicted_cost <= init_cost * 1.001);
        assert!(opt.skeleton.is_valid());
        assert!(opt.evaluations > 1);
    }

    #[test]
    fn agd_beats_or_matches_plain_gradient_descent() {
        let data = correlated_data(5_000, 95);
        let w = workload(30, 96);
        let cost = CostModel::default();
        let config = TsunamiConfig::fast();
        let agd = optimize_layout(&data, &w, &cost, &config, OptimizerKind::Adaptive);
        let gd = optimize_layout(&data, &w, &cost, &config, OptimizerKind::GradientOnly);
        assert!(agd.predicted_cost <= gd.predicted_cost * 1.05);
    }

    #[test]
    fn naive_init_agd_still_finds_a_valid_low_cost_layout() {
        let data = correlated_data(4_000, 97);
        let w = workload(24, 98);
        let cost = CostModel::default();
        let config = TsunamiConfig::fast();
        let agd_ni = optimize_layout(&data, &w, &cost, &config, OptimizerKind::AdaptiveNaiveInit);
        assert!(agd_ni.skeleton.is_valid());
        assert!(agd_ni.predicted_cost.is_finite());
    }

    #[test]
    fn blackbox_runs_within_iteration_budget() {
        let data = correlated_data(3_000, 99);
        let w = workload(18, 100);
        let config = TsunamiConfig::fast();
        let bb = optimize_layout(
            &data,
            &w,
            &CostModel::default(),
            &config,
            OptimizerKind::BlackBox,
        );
        assert!(bb.skeleton.is_valid());
        // Initial evaluation + one per basin-hopping iteration.
        assert!(bb.evaluations <= config.blackbox_iters + 1);
    }

    #[test]
    fn initial_partitions_respect_cell_budget_and_grid_dims() {
        let data = correlated_data(2_000, 101);
        let sample = sample_dataset(&data, 500, 1);
        let skeleton = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Mapped { target: 0 },
            DimStrategy::Conditional { base: 0 },
            DimStrategy::Independent,
        ])
        .unwrap();
        let w = workload(20, 102);
        let p = initial_partitions(&sample, &skeleton, &w, 1 << 10);
        assert_eq!(p[1], 1, "mapped dims get no partitions");
        let cells: usize = skeleton.grid_dims().iter().map(|&d| p[d]).product();
        assert!(cells <= 1 << 10);
    }

    #[test]
    fn independent_initialization_prioritizes_selective_dims() {
        // Flood's initialization: selective filters on dim 0, none on dim 2.
        let data = Dataset::from_columns(vec![
            (0..4000u64).collect(),
            (0..4000u64).map(|v| (v * 7) % 4000).collect(),
            (0..4000u64).map(|v| (v * 31) % 4000).collect(),
        ])
        .unwrap();
        let w: Workload = (0..20u64)
            .map(|i| {
                Query::count(vec![
                    Predicate::range(0, i * 100, i * 100 + 80).unwrap(),
                    Predicate::range(1, 0, 3200).unwrap(),
                ])
                .unwrap()
            })
            .collect();
        let p = initial_partitions(&data, &Skeleton::all_independent(3), &w, 1 << 12);
        assert!(p[0] > p[2], "expected more partitions on dim0: {p:?}");
        assert!(p.iter().product::<usize>() <= 1 << 12);
    }

    #[test]
    fn clamp_partitions_respects_the_cap() {
        let mut p = vec![100, 100, 100];
        clamp_partitions(&mut p, &[0, 1, 2], 10_000);
        assert!(p.iter().product::<usize>() <= 10_000);
        assert!(p.iter().all(|&x| x >= 1));
        let mut p = vec![1, 1];
        clamp_partitions(&mut p, &[0, 1], 1);
        assert_eq!(p, vec![1, 1]);
    }

    #[test]
    fn independent_keeps_the_all_independent_skeleton() {
        let data = correlated_data(4_000, 104);
        let w = workload(24, 105);
        let config = TsunamiConfig::fast();
        let opt = optimize_layout(
            &data,
            &w,
            &CostModel::default(),
            &config,
            OptimizerKind::Independent,
        );
        assert_eq!(opt.skeleton, Skeleton::all_independent(data.num_dims()));
        assert!(opt.evaluations > 1);
    }

    #[test]
    fn empty_workload_short_circuits() {
        let data = correlated_data(1_000, 103);
        let opt = optimize_layout(
            &data,
            &Workload::default(),
            &CostModel::default(),
            &TsunamiConfig::fast(),
            OptimizerKind::Adaptive,
        );
        assert_eq!(opt.evaluations, 1);
        assert_eq!(opt.layouts_priced, 0, "nothing to price without queries");
        assert!(opt.skeleton.is_valid());
    }

    /// [`correlated_data`] plus a fifth column of five distinct values, so
    /// a request for more partitions than that is aligned down to the
    /// column's buckets.
    fn data_with_few_distinct(n: usize, seed: u64) -> Dataset {
        let mut columns = correlated_data(n, seed).into_columns();
        let few = columns[0].iter().map(|&x| x % 5 * 1_000).collect();
        columns.push(few);
        Dataset::from_columns(columns).unwrap()
    }

    /// `n` seeded candidate layouts over five dimensions, four per
    /// skeleton: every dimension drawn Independent, Mapped or Conditional
    /// (repaired to a valid skeleton), every grid dimension one of a few
    /// partition counts — few, so that candidates share models under
    /// different neighbours (one conditional CDF over bases of different
    /// partition counts, say).
    fn random_candidates(n: usize, seed: u64) -> Vec<(Skeleton, Vec<usize>)> {
        const COUNTS: [usize; 6] = [1, 2, 3, 7, 12, 33];
        let mut rng = SplitMix::new(seed);
        let mut skeleton = Skeleton::all_independent(5);
        (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    let strategies = (0..5)
                        .map(|dim| {
                            let other = (dim + 1 + rng.next_below(4) as usize) % 5;
                            match rng.next_below(3) {
                                0 => DimStrategy::Independent,
                                1 => DimStrategy::Mapped { target: other },
                                _ => DimStrategy::Conditional { base: other },
                            }
                        })
                        .collect();
                    skeleton = repair_skeleton(strategies);
                }
                let partitions = (0..5)
                    .map(|dim| match skeleton.strategy(dim).is_grid_dim() {
                        true => COUNTS[rng.next_below(COUNTS.len() as u64) as usize],
                        false => 1,
                    })
                    .collect();
                (skeleton.clone(), partitions)
            })
            .collect()
    }

    #[test]
    fn a_long_lived_search_prices_every_candidate_as_a_fresh_one() {
        let sample = data_with_few_distinct(700, 106);
        let w = workload(24, 107);
        let cost = CostModel::default();
        let distinct = random_candidates(40, 108);
        assert!((distinct.iter()).any(|(s, _)| s.num_mapped() > 0));
        // Some conditional CDF is asked for under two partition counts of
        // its base: two models the cache must keep apart.
        let conditionals: Vec<_> = (distinct.iter())
            .flat_map(|(s, p)| {
                (0..5).filter_map(move |dim| match s.strategy(dim) {
                    DimStrategy::Conditional { base } => Some(((dim, base, p[dim]), p[base])),
                    _ => None,
                })
            })
            .collect();
        assert!(
            (conditionals.iter()).any(|(model, base_p)| {
                (conditionals.iter()).any(|(other, other_p)| model == other && base_p != other_p)
            }),
            "{conditionals:?}"
        );
        assert!(
            (distinct.iter()).any(|(s, p)| s.strategy(4).is_grid_dim() && p[4] > 5),
            "some candidate asks the five-value column for more partitions than it has values"
        );
        // Each candidate three times, in a seeded order: most are repeats.
        let mut rng = SplitMix::new(109);
        let asked: Vec<_> = (0..3 * distinct.len())
            .map(|_| &distinct[rng.next_below(distinct.len() as u64) as usize])
            .collect();
        let mut search = Search::new(&sample, 100_000, &w, &cost);
        for (skeleton, partitions) in &asked {
            let fresh = predicted_cost(&sample, 100_000, skeleton, partitions, &w, &cost);
            let long_lived = search.price(skeleton, partitions);
            assert_eq!(
                long_lived.to_bits(),
                fresh.to_bits(),
                "{skeleton} {partitions:?}"
            );
        }
        let outcome = search.outcome(Skeleton::all_independent(5), vec![1; 5], 0.0);
        assert_eq!(outcome.evaluations, asked.len());
        assert!(
            outcome.layouts_priced < asked.len(),
            "the draw repeats candidates"
        );
        assert_eq!(
            outcome.layouts_priced,
            (asked.iter())
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn cached_row_partitions_put_every_row_in_its_cell_of() {
        let sample = data_with_few_distinct(700, 110);
        let mut fits = FitCache::new(&sample);
        for (skeleton, partitions) in random_candidates(40, 108) {
            let (grid, perm) = AugmentedGrid::build_in(&mut fits, &skeleton, &partitions);
            for cell in 0..grid.num_cells() {
                for &row in &perm[grid.cell_offsets[cell]..grid.cell_offsets[cell + 1]] {
                    let point = sample.row(row);
                    assert_eq!(
                        grid.cell_of(&point),
                        cell,
                        "{skeleton} {partitions:?} row {row}"
                    );
                }
            }
        }
    }
}
