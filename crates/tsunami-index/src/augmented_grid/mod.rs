//! The Augmented Grid: a correlation-aware generalization of Flood's grid
//! (§5).
//!
//! An Augmented Grid is defined by a [`Skeleton`] (the per-dimension
//! partitioning strategies) and the per-dimension partition counts `P`.
//! Mapped dimensions are removed from the grid entirely; conditional
//! dimensions are partitioned with per-base-partition CDFs, which staggers
//! their boundaries and keeps cells equally sized under correlation.

pub mod optimizer;
pub mod skeleton;

pub use optimizer::{optimize_layout, OptimizedLayout, OptimizerKind};
pub use skeleton::{DimStrategy, Skeleton};

use std::ops::Range;

use crate::grid_tree::dim_bit;
use tsunami_cdf::{CdfModel, ConditionalCdf, FunctionalMapping, HistogramCdf};
use tsunami_core::{Dataset, Query, Value};

/// Working memory of [`AugmentedGrid::plan_cells`]. One `plan()` call (or one
/// optimizer evaluation) creates one and every grid it visits plans out of
/// it, so only the first visit allocates.
#[derive(Debug, Default)]
pub struct CellScratch {
    /// Per dimension, the effective filter range after the
    /// functional-mapping rewrite.
    eff: Vec<Option<(Value, Value)>>,
    /// The intersecting cells, `(cell id, exact)`, as enumerated.
    cells: Vec<(usize, bool)>,
}

/// A built Augmented Grid over one region's data.
///
/// The grid stores only *local* row offsets (0-based within the region); the
/// owning index shifts them by the region's base offset in physical storage.
#[derive(Debug, Clone)]
pub struct AugmentedGrid {
    skeleton: Skeleton,
    /// Partition count per dimension (1 for mapped dimensions).
    partitions: Vec<usize>,
    /// Dimensions participating in the grid in the order cells are
    /// enumerated: independent dimensions, then conditional ones, each
    /// ascending — a base always before its dependents.
    order: Vec<usize>,
    /// Stride of each dimension in the cell numbering (indexed by dimension;
    /// the last grid dimension varies fastest, mapped dimensions are 0).
    strides: Vec<usize>,
    num_cells: usize,
    /// Independent CDF model per dimension (present for Independent dims and
    /// for base dims of conditional CDFs).
    independent: Vec<Option<HistogramCdf>>,
    /// Conditional CDF per dependent dimension.
    conditional: Vec<Option<ConditionalCdf>>,
    /// Functional mapping per mapped dimension.
    mappings: Vec<Option<FunctionalMapping>>,
    /// `cell_offsets[c]..cell_offsets[c+1]` is the local row range of cell `c`.
    cell_offsets: Vec<usize>,
    num_rows: usize,
}

impl AugmentedGrid {
    /// Builds an Augmented Grid over `data` with the given skeleton and
    /// per-dimension partition counts. Returns the grid and the local row
    /// permutation (`perm[i]` = original row index stored at local slot `i`).
    pub fn build(data: &Dataset, skeleton: &Skeleton, partitions: &[usize]) -> (Self, Vec<usize>) {
        assert_eq!(skeleton.num_dims(), data.num_dims());
        assert_eq!(partitions.len(), data.num_dims());
        assert!(skeleton.is_valid(), "invalid skeleton {skeleton}");

        let d = data.num_dims();
        let partitions: Vec<usize> = (0..d)
            .map(|dim| {
                if skeleton.strategy(dim).is_grid_dim() {
                    partitions[dim].max(1)
                } else {
                    1
                }
            })
            .collect();

        // Fit per-dimension models.
        let mut independent: Vec<Option<HistogramCdf>> = vec![None; d];
        let mut conditional: Vec<Option<ConditionalCdf>> = vec![None; d];
        let mut mappings: Vec<Option<FunctionalMapping>> = vec![None; d];

        // Independent models first (bases need them). Partition counts are
        // aligned to the models' actual bucket counts so that partition
        // membership and partition value bounds agree exactly (required for
        // the exact-range scan optimization).
        let mut partitions = partitions;
        for dim in 0..d {
            let needs_independent = match skeleton.strategy(dim) {
                DimStrategy::Independent => true,
                DimStrategy::Conditional { .. } | DimStrategy::Mapped { .. } => false,
            } || (0..d)
                .any(|other| skeleton.strategy(other) == DimStrategy::Conditional { base: dim });
            if needs_independent {
                let model = HistogramCdf::build(data.column(dim), partitions[dim]);
                partitions[dim] = model.num_buckets();
                independent[dim] = Some(model);
            }
        }
        for dim in 0..d {
            match skeleton.strategy(dim) {
                DimStrategy::Independent => {}
                DimStrategy::Mapped { target } => {
                    mappings[dim] = FunctionalMapping::fit(data.column(dim), data.column(target));
                }
                DimStrategy::Conditional { base } => {
                    let base_model = independent[base]
                        .as_ref()
                        .expect("base dimension must have an independent model");
                    let base_parts: Vec<usize> = data
                        .column(base)
                        .iter()
                        .map(|&v| base_model.bucket_of(v))
                        .collect();
                    conditional[dim] = Some(ConditionalCdf::build(
                        &base_parts,
                        data.column(dim),
                        partitions[base],
                        partitions[dim],
                    ));
                }
            }
        }

        // Cell numbering over grid dimensions.
        let grid_dims = skeleton.grid_dims();
        let mut strides = vec![0usize; d];
        let mut num_cells = 1usize;
        for &gd in grid_dims.iter().rev() {
            strides[gd] = num_cells;
            num_cells *= partitions[gd];
        }

        let is_independent = |&gd: &usize| skeleton.strategy(gd) == DimStrategy::Independent;
        let order = (grid_dims.iter().copied().filter(is_independent))
            .chain(grid_dims.iter().copied().filter(|gd| !is_independent(gd)))
            .collect();

        let mut grid = Self {
            skeleton: skeleton.clone(),
            partitions,
            order,
            strides,
            num_cells,
            independent,
            conditional,
            mappings,
            cell_offsets: Vec::new(),
            num_rows: data.len(),
        };

        // Assign rows to cells and counting-sort into the permutation.
        let mut counts = vec![0usize; num_cells + 1];
        let mut cell_of_row = vec![0usize; data.len()];
        let mut point = vec![0u64; d];
        for (r, row_cell) in cell_of_row.iter_mut().enumerate() {
            for (dim, coord) in point.iter_mut().enumerate() {
                *coord = data.get(r, dim);
            }
            let c = grid.cell_of(&point);
            *row_cell = c;
            counts[c + 1] += 1;
        }
        for c in 0..num_cells {
            counts[c + 1] += counts[c];
        }
        grid.cell_offsets = counts.clone();
        let mut next = counts;
        let mut perm = vec![0usize; data.len()];
        for (r, &c) in cell_of_row.iter().enumerate() {
            perm[next[c]] = r;
            next[c] += 1;
        }
        (grid, perm)
    }

    /// The skeleton in use.
    pub fn skeleton(&self) -> &Skeleton {
        &self.skeleton
    }

    /// Per-dimension partition counts (1 for mapped dimensions).
    pub fn partitions(&self) -> &[usize] {
        &self.partitions
    }

    /// Total number of grid cells.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Number of rows indexed by this grid.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of functional mappings in use.
    pub fn num_functional_mappings(&self) -> usize {
        self.mappings.iter().filter(|m| m.is_some()).count()
    }

    /// Number of conditional CDFs in use.
    pub fn num_conditional_cdfs(&self) -> usize {
        self.conditional.iter().filter(|m| m.is_some()).count()
    }

    /// Partition of a dimension value given the (already determined) base
    /// partition for conditional dimensions.
    fn partition_of(&self, dim: usize, v: Value, base_part: Option<usize>) -> usize {
        match self.skeleton.strategy(dim) {
            DimStrategy::Independent => {
                self.independent[dim].as_ref().map_or(0, |m| m.bucket_of(v))
            }
            DimStrategy::Conditional { .. } => {
                let bp = base_part.unwrap_or(0);
                self.conditional[dim]
                    .as_ref()
                    .map_or(0, |m| m.bucket_of(bp, v))
            }
            DimStrategy::Mapped { .. } => 0,
        }
    }

    /// Cell id of a point.
    pub fn cell_of(&self, point: &[Value]) -> usize {
        let mut cell = 0usize;
        for &dim in &self.order {
            let part = match self.skeleton.strategy(dim) {
                DimStrategy::Conditional { base } => {
                    let bp = self.partition_of(base, point[base], None);
                    self.partition_of(dim, point[dim], Some(bp))
                }
                _ => self.partition_of(dim, point[dim], None),
            };
            cell += part * self.strides[dim];
        }
        cell
    }

    /// Rewrites the query's predicates through the functional mappings into
    /// `eff`: per dimension, the *effective* filter range used for
    /// partition-range computation. Returns `None` if a mapping proves the
    /// query empty on this grid, else the mask of the filtered mapped
    /// dimensions — when it is not zero no cell can be exact.
    fn effective_predicates(
        &self,
        query: &Query,
        eff: &mut Vec<Option<(Value, Value)>>,
    ) -> Option<u128> {
        let d = self.skeleton.num_dims();
        eff.clear();
        eff.resize(d, None);
        for p in query.predicates() {
            if p.dim < d {
                eff[p.dim] = Some((p.lo, p.hi));
            }
        }
        let mut mapped_filter = 0;
        for dim in 0..d {
            if let DimStrategy::Mapped { target } = self.skeleton.strategy(dim) {
                if let Some((lo, hi)) = eff[dim] {
                    mapped_filter |= dim_bit(dim);
                    if let Some(fm) = &self.mappings[dim] {
                        let (xlo, xhi) = fm.map_range(lo, hi);
                        eff[target] = match eff[target] {
                            None => Some((xlo, xhi)),
                            Some((tlo, thi)) => {
                                let nlo = tlo.max(xlo);
                                let nhi = thi.min(xhi);
                                if nlo > nhi {
                                    return None;
                                }
                                Some((nlo, nhi))
                            }
                        };
                    }
                    eff[dim] = None;
                }
            }
        }
        Some(mapped_filter)
    }

    /// Plans one query against the grid: hands `emit` the local
    /// `(row range, exact)` pairs to scan, in physical order, empty cells
    /// dropped and physically adjacent cells of equal exactness merged.
    /// This is the one cell enumeration — `plan()`, the optimizer's cost
    /// evaluation and the tests all read it.
    ///
    /// Returns the mask ([`dim_bit`]) of the dimensions whose predicate the
    /// emitted ranges do **not** guarantee by construction, for the owning
    /// index's residual-predicate elimination. A predicate is guaranteed
    /// when every visited partition of its dimension lies fully inside the
    /// predicate's value range; a filtered mapped dimension never is (the
    /// mapping rewrite only over-approximates its filter).
    ///
    /// Returns `None`, having emitted nothing, when the enumeration was
    /// abandoned because it would have cost more than scanning the region:
    /// the caller scans the whole region instead, and usually knows more
    /// about it — its value bounds — than the grid does.
    pub fn plan_cells(
        &self,
        query: &Query,
        scratch: &mut CellScratch,
        mut emit: impl FnMut(Range<usize>, bool),
    ) -> Option<u128> {
        // Proven empty: nothing is scanned, and every predicate is trivially
        // guaranteed on the (empty) set of planned ranges.
        let Some(mapped_filter) = self.effective_predicates(query, &mut scratch.eff) else {
            return Some(0);
        };
        scratch.cells.clear();
        let mut enumeration = Enumeration {
            grid: self,
            query,
            eff: &scratch.eff,
            cells: &mut scratch.cells,
            loose: mapped_filter,
            // Planning must never cost more than the scan it prunes: a
            // layout mismatched to the query (e.g. a grid optimized for a
            // previous workload) can intersect far more cells than the
            // region has rows, at which point enumerating them is slower
            // than just scanning the region. Budget one enumeration step per
            // stored row.
            budget: self.num_rows.max(64) as isize,
        };
        enumeration.descend(0, 0, mapped_filter == 0, 0);
        let Enumeration { loose, budget, .. } = enumeration;
        if budget <= 0 {
            return None;
        }

        scratch.cells.sort_unstable_by_key(|&(c, _)| c);
        let mut pending: Option<(Range<usize>, bool)> = None;
        for &(cell, exact) in &scratch.cells {
            let (start, end) = (self.cell_offsets[cell], self.cell_offsets[cell + 1]);
            if start == end {
                continue;
            }
            match &mut pending {
                Some((prev, prev_exact)) if prev.end == start && *prev_exact == exact => {
                    prev.end = end;
                }
                _ => {
                    if let Some((range, exact)) = pending.replace((start..end, exact)) {
                        emit(range, exact);
                    }
                }
            }
        }
        if let Some((range, exact)) = pending {
            emit(range, exact);
        }
        Some(loose)
    }

    /// Size of the grid's models and lookup table in bytes.
    pub fn size_bytes(&self) -> usize {
        let models: usize = self
            .independent
            .iter()
            .flatten()
            .map(CdfModel::size_bytes)
            .sum::<usize>()
            + self
                .conditional
                .iter()
                .flatten()
                .map(ConditionalCdf::size_bytes)
                .sum::<usize>()
            + self
                .mappings
                .iter()
                .flatten()
                .map(FunctionalMapping::size_bytes)
                .sum::<usize>();
        models + self.cell_offsets.len() * std::mem::size_of::<usize>()
    }
}

/// One run of the cell enumeration behind [`AugmentedGrid::plan_cells`].
struct Enumeration<'a> {
    grid: &'a AugmentedGrid,
    query: &'a Query,
    eff: &'a [Option<(Value, Value)>],
    cells: &'a mut Vec<(usize, bool)>,
    /// Union over the emitted cells of the dimensions whose partition was
    /// not fully contained in the original predicate.
    loose: u128,
    /// Enumeration steps left; at zero the enumeration is abandoned.
    budget: isize,
}

impl Enumeration<'_> {
    /// Enumerates the partitions of grid dimension `order[idx]` that the
    /// query intersects, under the partitions already chosen for the
    /// dimensions before it: `cell_acc` is their share of the cell id,
    /// `exact_acc` whether all of them lie inside their predicates, and
    /// `loose_acc` the mask of those that do not.
    fn descend(&mut self, idx: usize, cell_acc: usize, exact_acc: bool, loose_acc: u128) {
        self.budget -= 1;
        if self.budget <= 0 {
            return;
        }
        let grid = self.grid;
        let Some(&dim) = grid.order.get(idx) else {
            self.cells.push((cell_acc, exact_acc));
            self.loose |= loose_acc;
            return;
        };
        let last = grid.partitions[dim] - 1;
        let pred = self.query.predicate_on(dim);
        // The model of this dimension's partitions; for a conditional
        // dimension, the one of its base's partition — chosen earlier (a
        // base comes before its dependents), so `cell_acc` holds it as the
        // base's digit of the cell id.
        let model = match grid.skeleton.strategy(dim) {
            DimStrategy::Independent => grid.independent[dim].as_ref(),
            DimStrategy::Conditional { base } => {
                let base_part = cell_acc / grid.strides[base] % grid.partitions[base];
                let conditional = grid.conditional[dim].as_ref();
                // A filter outside the values this base partition holds of
                // the dimension: none of its cells can match.
                if let (Some(m), Some((lo, hi))) = (conditional, self.eff[dim]) {
                    if !m.may_contain(base_part, lo, hi) {
                        return;
                    }
                }
                conditional.map(|m| m.model_for(base_part))
            }
            DimStrategy::Mapped { .. } => unreachable!("mapped dims are not grid dims"),
        };
        let (lo_p, hi_p) = match (self.eff[dim], model) {
            (Some((lo, hi)), Some(m)) => m.bucket_range(lo, hi),
            _ => (0, last),
        };
        for part in lo_p..=hi_p {
            // Whether the partition lies fully inside the original
            // predicate ([`HistogramCdf::bucket_contained_in`] —
            // conservative about a last boundary saturated at `u64::MAX`).
            let dim_exact =
                pred.is_none_or(|p| model.is_some_and(|m| m.bucket_contained_in(part, p.lo, p.hi)));
            self.descend(
                idx + 1,
                cell_acc + part * grid.strides[dim],
                exact_acc && dim_exact,
                loose_acc | if dim_exact { 0 } else { dim_bit(dim) },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggAccumulator, AggResult, Aggregation, Predicate};

    /// The ranges `plan_cells` emits — the whole grid, inexact, when it falls
    /// back.
    fn ranges_for(grid: &AugmentedGrid, q: &Query) -> Vec<(Range<usize>, bool)> {
        let mut ranges = Vec::new();
        let emit = |range, exact| ranges.push((range, exact));
        if grid
            .plan_cells(q, &mut CellScratch::default(), emit)
            .is_none()
        {
            ranges.push((0..grid.num_rows(), false));
        }
        ranges
    }

    /// Executes a query against a grid + the original dataset by scanning the
    /// produced ranges through the local permutation (test helper standing in
    /// for the column store).
    fn execute(grid: &AugmentedGrid, perm: &[usize], data: &Dataset, q: &Query) -> AggResult {
        let mut acc = AggAccumulator::new(q.aggregation());
        for (range, exact) in ranges_for(grid, q) {
            for local in range {
                let row = perm[local];
                let point = data.row(row);
                if exact || q.matches_point(&point) {
                    acc.add(0);
                }
            }
        }
        acc.finish()
    }

    fn correlated_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        let x: Vec<u64> = (0..n).map(|_| rng.next_below(100_000)).collect();
        // y tightly correlated with x; z loosely correlated with x.
        let y: Vec<u64> = x.iter().map(|&v| 2 * v + 500 + (v % 97)).collect();
        let z: Vec<u64> = x.iter().map(|&v| v / 2 + (v * 7919) % 20_000).collect();
        Dataset::from_columns(vec![x, y, z]).unwrap()
    }

    fn queries(n: usize, seed: u64) -> Vec<Query> {
        let mut rng = SplitMix::new(seed);
        (0..n)
            .map(|i| {
                let dim = i % 3;
                let lo = rng.next_below(80_000);
                let width = 2_000 + rng.next_below(20_000);
                let (lo, hi) = match dim {
                    1 => (2 * lo + 500, 2 * (lo + width) + 500),
                    _ => (lo, lo + width),
                };
                Query::count(vec![Predicate::range(dim, lo, hi).unwrap()]).unwrap()
            })
            .collect()
    }

    #[test]
    fn all_independent_grid_matches_oracle() {
        let data = correlated_data(3_000, 71);
        let skeleton = Skeleton::all_independent(3);
        let (grid, perm) = AugmentedGrid::build(&data, &skeleton, &[8, 8, 4]);
        assert_eq!(grid.num_cells(), 8 * 8 * 4);
        for q in queries(20, 72) {
            assert_eq!(
                execute(&grid, &perm, &data, &q),
                q.execute_full_scan(&data),
                "{q:?}"
            );
        }
    }

    #[test]
    fn functional_mapping_grid_matches_oracle_and_drops_dimension() {
        let data = correlated_data(3_000, 73);
        // y (dim 1) is tightly correlated with x (dim 0): map it away.
        let skeleton = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Mapped { target: 0 },
            DimStrategy::Independent,
        ])
        .unwrap();
        let (grid, perm) = AugmentedGrid::build(&data, &skeleton, &[16, 1, 4]);
        assert_eq!(grid.num_cells(), 16 * 4);
        assert_eq!(grid.num_functional_mappings(), 1);
        for q in queries(30, 74) {
            assert_eq!(
                execute(&grid, &perm, &data, &q),
                q.execute_full_scan(&data),
                "{q:?}"
            );
        }
    }

    #[test]
    fn conditional_cdf_grid_matches_oracle() {
        let data = correlated_data(3_000, 75);
        // z (dim 2) is loosely correlated with x (dim 0): partition it
        // conditionally on x.
        let skeleton = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Independent,
            DimStrategy::Conditional { base: 0 },
        ])
        .unwrap();
        let (grid, perm) = AugmentedGrid::build(&data, &skeleton, &[8, 2, 8]);
        assert_eq!(grid.num_conditional_cdfs(), 1);
        for q in queries(30, 76) {
            assert_eq!(
                execute(&grid, &perm, &data, &q),
                q.execute_full_scan(&data),
                "{q:?}"
            );
        }
    }

    #[test]
    fn combined_skeleton_matches_oracle() {
        let data = correlated_data(2_000, 77);
        let skeleton = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Mapped { target: 0 },
            DimStrategy::Conditional { base: 0 },
        ])
        .unwrap();
        let (grid, perm) = AugmentedGrid::build(&data, &skeleton, &[12, 1, 6]);
        for q in queries(30, 78) {
            assert_eq!(
                execute(&grid, &perm, &data, &q),
                q.execute_full_scan(&data),
                "{q:?}"
            );
        }
        // Multi-dimensional query touching the mapped dimension and others.
        let q = Query::count(vec![
            Predicate::range(0, 10_000, 60_000).unwrap(),
            Predicate::range(1, 30_000, 90_000).unwrap(),
            Predicate::range(2, 0, 40_000).unwrap(),
        ])
        .unwrap();
        assert_eq!(execute(&grid, &perm, &data, &q), q.execute_full_scan(&data));
    }

    #[test]
    fn conditional_grid_scans_fewer_cells_than_independent_on_correlated_data() {
        let data = correlated_data(10_000, 79);
        let q = Query::count(vec![
            Predicate::range(0, 20_000, 40_000).unwrap(),
            Predicate::range(2, 10_000, 30_000).unwrap(),
        ])
        .unwrap();
        let indep = Skeleton::all_independent(3);
        let (gi, _pi) = AugmentedGrid::build(&data, &indep, &[16, 1, 16]);
        let cond = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Independent,
            DimStrategy::Conditional { base: 0 },
        ])
        .unwrap();
        let (gc, _pc) = AugmentedGrid::build(&data, &cond, &[16, 1, 16]);

        let scanned =
            |g: &AugmentedGrid| -> usize { ranges_for(g, &q).iter().map(|(r, _)| r.len()).sum() };
        assert!(
            scanned(&gc) <= scanned(&gi),
            "conditional CDF should not scan more points ({} vs {})",
            scanned(&gc),
            scanned(&gi)
        );
    }

    #[test]
    fn mapped_query_that_proves_empty_returns_no_ranges() {
        let data = correlated_data(1_000, 80);
        let skeleton = Skeleton::new(vec![
            DimStrategy::Independent,
            DimStrategy::Mapped { target: 0 },
            DimStrategy::Independent,
        ])
        .unwrap();
        let (grid, _) = AugmentedGrid::build(&data, &skeleton, &[8, 1, 2]);
        // Contradictory filters: y around small values but x restricted to
        // the top of its domain. The mapping y->x turns this into an empty
        // x-range intersection.
        let q = Query::count(vec![
            Predicate::range(0, 99_990, 100_000).unwrap(),
            Predicate::range(1, 500, 700).unwrap(),
        ])
        .unwrap();
        assert!(
            ranges_for(&grid, &q).is_empty() || q.execute_full_scan(&data) == AggResult::Count(0)
        );
    }

    #[test]
    fn sum_aggregation_via_exact_ranges_is_consistent() {
        let data = correlated_data(2_000, 81);
        let skeleton = Skeleton::all_independent(3);
        let (grid, perm) = AugmentedGrid::build(&data, &skeleton, &[8, 4, 4]);
        let q = Query::new(
            vec![Predicate::range(0, 0, 50_000).unwrap()],
            Aggregation::Count,
        )
        .unwrap();
        // Count matching rows through exact + inexact ranges and compare.
        assert_eq!(execute(&grid, &perm, &data, &q), q.execute_full_scan(&data));
    }

    #[test]
    fn empty_dataset_builds_and_answers() {
        let data = Dataset::from_columns(vec![vec![], vec![]]).unwrap();
        let skeleton = Skeleton::all_independent(2);
        let (grid, perm) = AugmentedGrid::build(&data, &skeleton, &[4, 4]);
        assert!(perm.is_empty());
        let q = Query::count(vec![Predicate::range(0, 0, 10).unwrap()]).unwrap();
        assert!(ranges_for(&grid, &q).is_empty());
        assert!(grid.size_bytes() > 0);
        assert_eq!(grid.num_rows(), 0);
    }
}
