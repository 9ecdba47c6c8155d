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

use tsunami_cdf::{CdfModel, ConditionalCdf, FunctionalMapping, HistogramCdf};
use tsunami_core::{Dataset, Predicate, Query, Value};

/// Per-dimension effective filter ranges after the functional-mapping
/// rewrite, plus whether any mapped dimension is filtered (in which case no
/// cell can be exact).
type EffectiveRanges = (Vec<Option<(Value, Value)>>, bool);

/// The outcome of planning one query against an [`AugmentedGrid`]: the local
/// physical ranges to scan plus per-dimension predicate guarantees.
#[derive(Debug, Clone)]
pub struct GridRanges {
    /// Local `(row range, exact)` pairs in physical scan order.
    pub ranges: Vec<(Range<usize>, bool)>,
    /// `guaranteed[dim]` is true when the query's predicate on `dim` (if
    /// any) is satisfied by construction on *every* returned range — every
    /// visited partition of `dim` lies fully inside the predicate's value
    /// range — so the executor never needs to re-check it. Unfiltered
    /// dimensions are trivially guaranteed; filtered mapped dimensions never
    /// are (the mapping rewrite only over-approximates their filter).
    pub guaranteed: Vec<bool>,
    /// True when cell enumeration was abandoned because it would have cost
    /// more than scanning the region (see [`AugmentedGrid::plan_ranges`]):
    /// `ranges` is then the single whole-region range and `guaranteed` only
    /// reflects unfiltered dimensions. The owning index can usually do
    /// better — it knows the region's value bounds, which the grid does not.
    pub fallback: bool,
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
    /// Dimensions participating in the grid, ascending.
    grid_dims: Vec<usize>,
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

        let mut grid = Self {
            skeleton: skeleton.clone(),
            partitions,
            grid_dims,
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
        for &dim in &self.grid_dims {
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

    /// Rewrites the query's predicates through the functional mappings: the
    /// returned vector holds, per dimension, the *effective* filter range
    /// used for partition-range computation. Returns `None` if a mapping
    /// proves the query empty on this grid. The boolean is true when any
    /// mapped dimension is filtered (in which case no cell can be exact).
    fn effective_predicates(&self, query: &Query) -> Option<EffectiveRanges> {
        let d = self.skeleton.num_dims();
        let mut eff: Vec<Option<(Value, Value)>> = vec![None; d];
        for p in query.predicates() {
            if p.dim < d {
                eff[p.dim] = Some((p.lo, p.hi));
            }
        }
        let mut mapped_filter = false;
        for dim in 0..d {
            if let DimStrategy::Mapped { target } = self.skeleton.strategy(dim) {
                if let Some((lo, hi)) = eff[dim] {
                    mapped_filter = true;
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
        Some((eff, mapped_filter))
    }

    /// Whether partition `part` of an independent/base dimension is fully
    /// contained in the original query predicate on that dimension
    /// ([`HistogramCdf::bucket_contained_in`] — conservative about a last
    /// boundary saturated at `u64::MAX`).
    fn independent_partition_exact(
        &self,
        dim: usize,
        part: usize,
        pred: Option<&Predicate>,
    ) -> bool {
        match pred {
            None => true,
            Some(p) => match &self.independent[dim] {
                None => false,
                Some(m) => m.bucket_contained_in(part, p.lo, p.hi),
            },
        }
    }

    fn conditional_partition_exact(
        &self,
        dim: usize,
        base_part: usize,
        part: usize,
        pred: Option<&Predicate>,
    ) -> bool {
        match pred {
            None => true,
            Some(p) => match &self.conditional[dim] {
                None => false,
                Some(m) => m.model_for(base_part).bucket_contained_in(part, p.lo, p.hi),
            },
        }
    }

    /// Computes the local physical row ranges (and exactness flags) a query
    /// must scan.
    pub fn ranges_for(&self, query: &Query) -> Vec<(Range<usize>, bool)> {
        self.plan_ranges(query).ranges
    }

    /// Like [`AugmentedGrid::ranges_for`], additionally reporting which
    /// dimensions' predicates the visited cells guarantee by construction
    /// (see [`GridRanges::guaranteed`]). The owning index uses this for
    /// residual-predicate elimination: guaranteed predicates never need
    /// re-checking inside the returned non-exact ranges.
    pub fn plan_ranges(&self, query: &Query) -> GridRanges {
        let d = self.skeleton.num_dims();
        let Some((eff, mapped_filter)) = self.effective_predicates(query) else {
            // Proven empty: nothing is scanned, every predicate is trivially
            // guaranteed on the (empty) set of planned ranges.
            return GridRanges {
                ranges: Vec::new(),
                guaranteed: vec![true; d],
                fallback: false,
            };
        };

        // Enumerate intersecting cells. Base dimensions must be enumerated
        // before their dependents, so order grid dims: independents first.
        let mut order: Vec<usize> = Vec::with_capacity(self.grid_dims.len());
        for &gd in &self.grid_dims {
            if matches!(self.skeleton.strategy(gd), DimStrategy::Independent) {
                order.push(gd);
            }
        }
        for &gd in &self.grid_dims {
            if matches!(self.skeleton.strategy(gd), DimStrategy::Conditional { .. }) {
                order.push(gd);
            }
        }

        let mut cells: Vec<(usize, bool)> = Vec::new();
        // chosen[dim] = partition chosen for already-enumerated dims.
        let mut chosen: Vec<usize> = vec![0; d];
        // Union over emitted cells of the dims whose partition was not fully
        // contained in the original predicate (bit per dim; guarantee
        // tracking is skipped for >128-dim grids, which do not occur in
        // practice).
        let mut not_guaranteed: u128 = 0;
        // Planning must never cost more than the scan it prunes: a layout
        // mismatched to the query (e.g. a grid optimized for a previous
        // workload) can intersect far more cells than the region has rows,
        // at which point enumerating them is slower than just scanning the
        // region. Budget one enumeration step per stored row; on exhaustion
        // fall back to a single whole-region range with every filtered
        // dimension left residual.
        let mut budget = self.num_rows.max(64) as isize;
        self.enumerate_cells(
            &order,
            0,
            0,
            !mapped_filter,
            0,
            &eff,
            query,
            &mut chosen,
            &mut cells,
            &mut not_guaranteed,
            &mut budget,
        );
        if budget <= 0 {
            let guaranteed: Vec<bool> = (0..d)
                .map(|dim| query.predicate_on(dim).is_none())
                .collect();
            let ranges = if self.num_rows == 0 {
                Vec::new()
            } else {
                vec![(0..self.num_rows, false)]
            };
            return GridRanges {
                ranges,
                guaranteed,
                fallback: true,
            };
        }

        cells.sort_unstable_by_key(|&(c, _)| c);
        // Convert cells to physical ranges, merging physically adjacent ones
        // with identical exactness.
        let mut out: Vec<(Range<usize>, bool)> = Vec::new();
        for (cell, exact) in cells {
            let start = self.cell_offsets[cell];
            let end = self.cell_offsets[cell + 1];
            if start == end {
                continue;
            }
            if let Some((prev, prev_exact)) = out.last_mut() {
                if prev.end == start && *prev_exact == exact {
                    prev.end = end;
                    continue;
                }
            }
            out.push((start..end, exact));
        }

        let guaranteed: Vec<bool> = (0..d)
            .map(|dim| {
                if query.predicate_on(dim).is_none() {
                    return true;
                }
                // A filtered mapped dimension is removed from the grid and
                // its filter only over-approximated through the mapping: it
                // must always be re-checked. Beyond 128 dims the tracking
                // bitmask is too narrow; be conservative.
                if matches!(self.skeleton.strategy(dim), DimStrategy::Mapped { .. }) || d > 128 {
                    return false;
                }
                not_guaranteed & (1u128 << dim) == 0
            })
            .collect();
        GridRanges {
            ranges: out,
            guaranteed,
            fallback: false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_cells(
        &self,
        order: &[usize],
        idx: usize,
        cell_acc: usize,
        exact_acc: bool,
        inexact_dims: u128,
        eff: &[Option<(Value, Value)>],
        query: &Query,
        chosen: &mut Vec<usize>,
        out: &mut Vec<(usize, bool)>,
        not_guaranteed: &mut u128,
        budget: &mut isize,
    ) {
        *budget -= 1;
        if *budget <= 0 {
            return;
        }
        if idx == order.len() {
            out.push((cell_acc, exact_acc));
            *not_guaranteed |= inexact_dims;
            return;
        }
        let dim = order[idx];
        let p = self.partitions[dim];
        let stride = self.strides[dim];
        let orig_pred = query.predicate_on(dim);
        let dim_bit = if dim < 128 { 1u128 << dim } else { 0 };

        match self.skeleton.strategy(dim) {
            DimStrategy::Independent => {
                let (lo_p, hi_p) = match eff[dim] {
                    None => (0, p - 1),
                    Some((lo, hi)) => self.independent[dim]
                        .as_ref()
                        .map_or((0, p - 1), |m| m.bucket_range(lo, hi)),
                };
                for part in lo_p..=hi_p {
                    chosen[dim] = part;
                    let dim_exact = self.independent_partition_exact(dim, part, orig_pred);
                    self.enumerate_cells(
                        order,
                        idx + 1,
                        cell_acc + part * stride,
                        exact_acc && dim_exact,
                        inexact_dims | if dim_exact { 0 } else { dim_bit },
                        eff,
                        query,
                        chosen,
                        out,
                        not_guaranteed,
                        budget,
                    );
                }
            }
            DimStrategy::Conditional { base } => {
                let base_part = chosen[base];
                let model = self.conditional[dim].as_ref();
                let (lo_p, hi_p, prune) = match (eff[dim], model) {
                    (None, _) => (0, p - 1, false),
                    (Some((lo, hi)), Some(m)) => {
                        if !m.may_contain(base_part, lo, hi) {
                            (0, 0, true)
                        } else {
                            let (a, b) = m.bucket_range(base_part, lo, hi);
                            (a, b, false)
                        }
                    }
                    (Some(_), None) => (0, p - 1, false),
                };
                if prune {
                    return;
                }
                for part in lo_p..=hi_p {
                    chosen[dim] = part;
                    let dim_exact =
                        self.conditional_partition_exact(dim, base_part, part, orig_pred);
                    self.enumerate_cells(
                        order,
                        idx + 1,
                        cell_acc + part * stride,
                        exact_acc && dim_exact,
                        inexact_dims | if dim_exact { 0 } else { dim_bit },
                        eff,
                        query,
                        chosen,
                        out,
                        not_guaranteed,
                        budget,
                    );
                }
            }
            DimStrategy::Mapped { .. } => unreachable!("mapped dims are not grid dims"),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggAccumulator, AggResult, Aggregation};

    /// Executes a query against a grid + the original dataset by scanning the
    /// produced ranges through the local permutation (test helper standing in
    /// for the column store).
    fn execute(grid: &AugmentedGrid, perm: &[usize], data: &Dataset, q: &Query) -> AggResult {
        let mut acc = AggAccumulator::new(q.aggregation());
        for (range, exact) in grid.ranges_for(q) {
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
            |g: &AugmentedGrid| -> usize { g.ranges_for(&q).iter().map(|(r, _)| r.len()).sum() };
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
            grid.ranges_for(&q).is_empty() || q.execute_full_scan(&data) == AggResult::Count(0)
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
        assert!(grid.ranges_for(&q).is_empty());
        assert!(grid.size_bytes() > 0);
        assert_eq!(grid.num_rows(), 0);
    }
}
