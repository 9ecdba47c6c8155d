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

use std::collections::HashMap;
use std::ops::Range;

use crate::cdf::{ConditionalCdf, FunctionalMapping, HistogramCdf};
use crate::grid_tree::dim_bit;
use tsunami_core::{Dataset, Query, Value};

/// Working memory of [`AugmentedGrid::plan_cells`]. One `plan()` call (or one
/// optimizer evaluation) creates one and every grid it visits plans out of
/// it, so only the first visit allocates.
#[derive(Debug, Default)]
pub(crate) struct CellScratch {
    /// Per dimension, what the query asks of it and how the enumeration
    /// walks it.
    dims: Vec<DimPlan>,
    /// The intersecting cells as enumerated: `(first cell, last cell,
    /// exact)` runs of consecutive cell ids.
    runs: Vec<(usize, usize, bool)>,
}

/// Marks the end of the walk in [`DimPlan::next`].
const END: usize = usize::MAX;

/// One dimension's part in planning a query.
///
/// The enumeration walks only the grid dimensions that can branch. A
/// dimension whose span is the same under every parent cell (an independent
/// one, or a conditional one whose base is not walked) is spanned once; if
/// that span is a single partition, the dimension is not walked at all: its
/// digit of the cell id, its exactness and its share of the budget fold into
/// the walk's start and into the next walked dimension.
#[derive(Debug, Clone, Copy, Default)]
struct DimPlan {
    /// The effective filter range after the functional-mapping rewrite.
    eff: Option<(Value, Value)>,
    /// The partitions the query intersects, when the same under every
    /// parent cell.
    span: Option<Span>,
    /// Whether the enumeration walks this dimension.
    walked: bool,
    /// The budget one visit of a walked dimension costs: one step for it
    /// and one for each unwalked dimension folded into it.
    steps: isize,
    /// The next walked dimension, or [`END`].
    next: usize,
}

/// The partitions `lo..=hi` of one dimension that a query intersects, and
/// whether each rim lies fully inside the query's predicate. The partitions
/// between the rims always do: the filter range reaches past both of their
/// boundaries.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: usize,
    hi: usize,
    lo_contained: bool,
    hi_contained: bool,
}

impl Span {
    /// The span of `model`'s buckets intersecting the effective filter
    /// `eff` of dimension `dim`, with containment judged against the
    /// query's own predicate on it (which `eff` only narrows). An
    /// unfiltered dimension spans all its partitions `0..=last`, all
    /// contained.
    fn new(
        model: &HistogramCdf,
        eff: Option<(Value, Value)>,
        query: &Query,
        dim: usize,
        last: usize,
    ) -> Self {
        let Some((lo, hi)) = eff else {
            return Self {
                lo: 0,
                hi: last,
                lo_contained: true,
                hi_contained: true,
            };
        };
        let (lo, hi) = match last {
            0 => (0, 0),
            _ => model.bucket_range(lo, hi),
        };
        // [`HistogramCdf::bucket_contained_in`] stays conservative about a
        // last boundary saturated at `u64::MAX`.
        let pred = query.predicate_on(dim);
        let contained = |part| pred.is_none_or(|p| model.bucket_contained_in(part, p.lo, p.hi));
        let lo_contained = contained(lo);
        Self {
            lo,
            hi,
            lo_contained,
            hi_contained: if hi == lo {
                lo_contained
            } else {
                contained(hi)
            },
        }
    }

    /// Whether partition `part` of the span lies inside the predicate.
    fn contained(&self, part: usize) -> bool {
        match part {
            _ if part == self.lo => self.lo_contained,
            _ if part == self.hi => self.hi_contained,
            _ => true,
        }
    }
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

/// One fitted per-dimension model, with every row's bucket in it.
pub(crate) struct Fit<M> {
    pub(crate) model: M,
    /// `parts[r]` is row `r`'s bucket in `model`.
    pub(crate) parts: Vec<u32>,
}

/// The per-dimension models [`AugmentedGrid::build_in`] fits, memoized over
/// one dataset: a layout search builds many grids over one sample, and
/// most of them share most of their models. A model is a pure function of
/// the dataset and its key, so a grid built out of the cache is the grid a
/// fresh fit would give.
pub(crate) struct FitCache<'a> {
    data: &'a Dataset,
    /// Per `(dim, requested buckets)`.
    histograms: HashMap<(usize, usize), Fit<HistogramCdf>>,
    /// Per `(mapped dim, target)`; `None` where no mapping fits.
    mappings: HashMap<(usize, usize), Option<FunctionalMapping>>,
    /// Per `(dim, base, base's requested buckets, requested buckets)`.
    conditionals: HashMap<(usize, usize, usize, usize), Fit<ConditionalCdf>>,
}

impl<'a> FitCache<'a> {
    /// An empty cache over `data`.
    pub(crate) fn new(data: &'a Dataset) -> Self {
        Self {
            data,
            histograms: HashMap::new(),
            mappings: HashMap::new(),
            conditionals: HashMap::new(),
        }
    }

    /// The dataset every model is fitted over.
    pub(crate) fn data(&self) -> &'a Dataset {
        self.data
    }

    /// `dim`'s equi-depth CDF with (up to) `p` buckets.
    pub(crate) fn histogram(&mut self, dim: usize, p: usize) -> &Fit<HistogramCdf> {
        let column = self.data.column(dim);
        self.histograms.entry((dim, p)).or_insert_with(|| {
            let model = HistogramCdf::build(column, p);
            let parts = column
                .iter()
                .map(|&v| row_part(model.bucket_of(v)))
                .collect();
            Fit { model, parts }
        })
    }

    /// The functional mapping of `dim` onto `target`.
    fn mapping(&mut self, dim: usize, target: usize) -> Option<FunctionalMapping> {
        let data = self.data;
        let fit = || FunctionalMapping::fit(data.column(dim), data.column(target));
        *self.mappings.entry((dim, target)).or_insert_with(fit)
    }

    /// `dim`'s CDF with (up to) `p` buckets per bucket of `base`'s
    /// `base_p`-bucket CDF.
    fn conditional(
        &mut self,
        dim: usize,
        base: usize,
        base_p: usize,
        p: usize,
    ) -> &Fit<ConditionalCdf> {
        let key = (dim, base, base_p, p);
        if !self.conditionals.contains_key(&key) {
            let base_fit = self.histogram(base, base_p);
            let num_base = base_fit.model.num_buckets();
            let base_parts: Vec<usize> = base_fit.parts.iter().map(|&b| b as usize).collect();
            let column = self.data.column(dim);
            let model = ConditionalCdf::build(&base_parts, column, num_base, p);
            let rows = base_parts.iter().zip(column);
            let parts = rows
                .map(|(&b, &v)| row_part(model.bucket_of(b, v)))
                .collect();
            self.conditionals.insert(key, Fit { model, parts });
        }
        &self.conditionals[&key]
    }
}

/// A bucket index as a row's stored partition.
fn row_part(bucket: usize) -> u32 {
    u32::try_from(bucket).expect("a grid dimension has fewer than 2^32 partitions")
}

impl AugmentedGrid {
    /// Builds an Augmented Grid over `data` with the given skeleton and
    /// per-dimension partition counts. Returns the grid and the local row
    /// permutation (`perm[i]` = original row index stored at local slot `i`).
    pub fn build(data: &Dataset, skeleton: &Skeleton, partitions: &[usize]) -> (Self, Vec<usize>) {
        Self::build_in(&mut FitCache::new(data), skeleton, partitions)
    }

    /// [`AugmentedGrid::build`] over `fits`' dataset, reusing the models
    /// `fits` already holds and keeping the ones it fits.
    pub(crate) fn build_in(
        fits: &mut FitCache,
        skeleton: &Skeleton,
        partitions: &[usize],
    ) -> (Self, Vec<usize>) {
        let data = fits.data();
        assert_eq!(skeleton.num_dims(), data.num_dims());
        assert_eq!(partitions.len(), data.num_dims());
        assert!(skeleton.is_valid(), "invalid skeleton {skeleton}");

        let d = data.num_dims();
        // The requested partition counts, which key the models.
        let requested: Vec<usize> = (0..d)
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
        let mut partitions = requested.clone();
        for dim in 0..d {
            let needs_independent = match skeleton.strategy(dim) {
                DimStrategy::Independent => true,
                DimStrategy::Conditional { .. } | DimStrategy::Mapped { .. } => false,
            } || (0..d)
                .any(|other| skeleton.strategy(other) == DimStrategy::Conditional { base: dim });
            if needs_independent {
                let model = &fits.histogram(dim, requested[dim]).model;
                partitions[dim] = model.num_buckets();
                independent[dim] = Some(model.clone());
            }
        }
        for dim in 0..d {
            match skeleton.strategy(dim) {
                DimStrategy::Independent => {}
                DimStrategy::Mapped { target } => mappings[dim] = fits.mapping(dim, target),
                DimStrategy::Conditional { base } => {
                    let fit = fits.conditional(dim, base, requested[base], requested[dim]);
                    conditional[dim] = Some(fit.model.clone());
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

        // Assign rows to cells — a row's cell is the sum over the grid
        // dimensions of its partition there times the dimension's stride,
        // which is what `cell_of` computes from its values — and
        // counting-sort them into the permutation.
        let mut cell_of_row = vec![0usize; data.len()];
        for &gd in &grid_dims {
            let parts = match skeleton.strategy(gd) {
                DimStrategy::Conditional { base } => {
                    &fits
                        .conditional(gd, base, requested[base], requested[gd])
                        .parts
                }
                _ => &fits.histogram(gd, requested[gd]).parts,
            };
            for (cell, &part) in cell_of_row.iter_mut().zip(parts) {
                *cell += part as usize * strides[gd];
            }
        }
        let mut counts = vec![0usize; num_cells + 1];
        for &c in &cell_of_row {
            counts[c + 1] += 1;
        }
        for c in 0..num_cells {
            counts[c + 1] += counts[c];
        }
        let cell_offsets = counts.clone();
        let mut next = counts;
        let mut perm = vec![0usize; data.len()];
        for (r, &c) in cell_of_row.iter().enumerate() {
            perm[next[c]] = r;
            next[c] += 1;
        }
        let grid = Self {
            skeleton: skeleton.clone(),
            partitions,
            order,
            strides,
            num_cells,
            independent,
            conditional,
            mappings,
            cell_offsets,
            num_rows: data.len(),
        };
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
    /// each dimension's *effective* filter range in `dims`, used for
    /// partition-range computation. Returns `None` if a mapping
    /// proves the query empty on this grid, else the mask of the filtered
    /// mapped dimensions — when it is not zero no cell can be exact.
    fn effective_predicates(&self, query: &Query, dims: &mut Vec<DimPlan>) -> Option<u128> {
        let d = self.skeleton.num_dims();
        // Every field but `eff` is written before it is read.
        dims.resize(d, DimPlan::default());
        for plan in dims.iter_mut() {
            plan.eff = None;
        }
        for p in query.predicates() {
            if let Some(plan) = dims.get_mut(p.dim) {
                plan.eff = Some((p.lo, p.hi));
            }
        }
        let mut mapped_filter = 0;
        for dim in 0..d {
            if let DimStrategy::Mapped { target } = self.skeleton.strategy(dim) {
                if let Some((lo, hi)) = dims[dim].eff {
                    mapped_filter |= dim_bit(dim);
                    if let Some(fm) = &self.mappings[dim] {
                        let (xlo, xhi) = fm.map_range(lo, hi);
                        dims[target].eff = match dims[target].eff {
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
                    dims[dim].eff = None;
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
    pub(crate) fn plan_cells(
        &self,
        query: &Query,
        scratch: &mut CellScratch,
        mut emit: impl FnMut(Range<usize>, bool),
    ) -> Option<u128> {
        // Proven empty: nothing is scanned, and every predicate is trivially
        // guaranteed on the (empty) set of planned ranges.
        let Some(mapped_filter) = self.effective_predicates(query, &mut scratch.dims) else {
            return Some(0);
        };
        let dims = &mut scratch.dims;
        // Span what is the same under every parent cell, fold what does
        // not branch, and link the rest in enumeration order.
        let (mut cell, mut exact, mut loose) = (0, mapped_filter == 0, 0);
        let (mut first, mut prev, mut folded) = (END, END, 0);
        for &dim in &self.order {
            let eff = dims[dim].eff;
            let last = self.partitions[dim] - 1;
            let span = match self.skeleton.strategy(dim) {
                DimStrategy::Conditional { base } if !dims[base].walked => {
                    let base_part = dims[base].span.expect("a folded base is spanned").lo;
                    let conditional = self.conditional[dim].as_ref().expect("conditional model");
                    // A filter that misses the base partition's values is
                    // left to the walk, which prunes there.
                    let misses =
                        eff.is_some_and(|(lo, hi)| !conditional.may_contain(base_part, lo, hi));
                    let model = conditional.model_for(base_part);
                    (!misses).then(|| Span::new(model, eff, query, dim, last))
                }
                DimStrategy::Conditional { .. } => None,
                _ => {
                    let model = self.independent[dim].as_ref().expect("independent model");
                    Some(Span::new(model, eff, query, dim, last))
                }
            };
            let plan = &mut dims[dim];
            plan.span = span;
            plan.walked = span.is_none_or(|span| span.lo != span.hi);
            match span {
                Some(span) if !plan.walked => {
                    cell += span.lo * self.strides[dim];
                    exact &= span.lo_contained;
                    loose |= if span.lo_contained { 0 } else { dim_bit(dim) };
                    folded += 1;
                }
                _ => {
                    plan.steps = 1 + folded;
                    plan.next = END;
                    folded = 0;
                    match prev {
                        END => first = dim,
                        _ => dims[prev].next = dim,
                    }
                    prev = dim;
                }
            }
        }
        scratch.runs.clear();
        let mut enumeration = Enumeration {
            grid: self,
            query,
            dims: &scratch.dims,
            leaf_steps: 1 + folded,
            runs: &mut scratch.runs,
            loose: mapped_filter,
            // Planning must never cost more than the scan it prunes: a
            // layout mismatched to the query (e.g. a grid optimized for a
            // previous workload) can intersect far more cells than the
            // region has rows, at which point enumerating them is slower
            // than just scanning the region. Budget one enumeration step per
            // stored row.
            budget: self.num_rows.max(64) as isize,
        };
        enumeration.descend(first, cell, exact, loose);
        let Enumeration { loose, budget, .. } = enumeration;
        if budget <= 0 {
            return None;
        }

        scratch.runs.sort_unstable_by_key(|&(first, _, _)| first);
        let mut pending: Option<(Range<usize>, bool)> = None;
        for &(first, last, exact) in &scratch.runs {
            let (start, end) = (self.cell_offsets[first], self.cell_offsets[last + 1]);
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
            .map(HistogramCdf::size_bytes)
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
    dims: &'a [DimPlan],
    /// The budget one cell costs: one step, and one for each dimension
    /// folded after the last walked one.
    leaf_steps: isize,
    runs: &'a mut Vec<(usize, usize, bool)>,
    /// Union over the emitted cells of the dimensions whose partition was
    /// not fully contained in the original predicate.
    loose: u128,
    /// Enumeration steps left — one per cell, and one per partial cell id
    /// of every grid dimension, walked or folded; at zero the enumeration
    /// is abandoned.
    budget: isize,
}

impl Enumeration<'_> {
    /// Enumerates the partitions of walked dimension `dim` (or, at [`END`],
    /// records the cell) that the query intersects, under the partitions
    /// already chosen for the dimensions before it: `cell_acc` is their
    /// share of the cell id, `exact_acc` whether all of them lie inside
    /// their predicates, and `loose_acc` the mask of those that do not.
    fn descend(&mut self, dim: usize, cell_acc: usize, exact_acc: bool, loose_acc: u128) {
        if dim == END {
            self.budget -= self.leaf_steps;
            if self.budget > 0 {
                self.push(cell_acc, cell_acc, exact_acc);
                self.loose |= loose_acc;
            }
            return;
        }
        let DimPlan {
            eff,
            span,
            steps,
            next,
            ..
        } = self.dims[dim];
        self.budget -= steps;
        if self.budget <= 0 {
            return;
        }
        let grid = self.grid;
        let span = match span {
            Some(span) => span,
            // A conditional dimension under a walked base: partitioned by
            // the model of its base's partition — chosen earlier (a base
            // comes before its dependents), so `cell_acc` holds it as the
            // base's digit of the cell id.
            None => {
                let DimStrategy::Conditional { base } = grid.skeleton.strategy(dim) else {
                    unreachable!("only conditional dims are spanned per parent")
                };
                let base_part = cell_acc / grid.strides[base] % grid.partitions[base];
                let conditional = grid.conditional[dim].as_ref().expect("conditional model");
                // A filter outside the values this base partition holds of
                // the dimension: none of its cells can match.
                if eff.is_some_and(|(lo, hi)| !conditional.may_contain(base_part, lo, hi)) {
                    return;
                }
                let last = grid.partitions[dim] - 1;
                Span::new(conditional.model_for(base_part), eff, self.query, dim, last)
            }
        };
        let stride = grid.strides[dim];
        if next == END {
            // The innermost walked dimension: its cells are recorded here,
            // charged per cell.
            self.budget -= (span.hi - span.lo + 1) as isize * self.leaf_steps;
            if self.budget <= 0 {
                return;
            }
            let rims = span.lo_contained && span.hi_contained;
            self.loose |= loose_acc | if rims { 0 } else { dim_bit(dim) };
            let (first, last) = (cell_acc + span.lo * stride, cell_acc + span.hi * stride);
            if stride != 1 {
                for part in span.lo..=span.hi {
                    let cell = cell_acc + part * stride;
                    self.push(cell, cell, exact_acc && span.contained(part));
                }
            } else if !exact_acc || first == last {
                // Consecutive cell ids: up to three runs — the rims and the
                // contained middle.
                self.push(first, last, exact_acc && rims);
            } else {
                self.push(first, first, span.lo_contained);
                self.push(first + 1, last - 1, true);
                self.push(last, last, span.hi_contained);
            }
            return;
        }
        for part in span.lo..=span.hi {
            let contained = span.contained(part);
            self.descend(
                next,
                cell_acc + part * stride,
                exact_acc && contained,
                loose_acc | if contained { 0 } else { dim_bit(dim) },
            );
        }
    }

    /// Records the cells `first..=last`, all of one exactness, extending
    /// the previous run when they continue it.
    fn push(&mut self, first: usize, last: usize, exact: bool) {
        if first > last {
            return;
        }
        match self.runs.last_mut() {
            Some(run) if run.1 + 1 == first && run.2 == exact => run.1 = last,
            _ => self.runs.push((first, last, exact)),
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

    /// What `plan_cells` must emit, worked out cell by cell: every cell
    /// the query intersects in every grid dimension — the conditional
    /// dimensions' base partitions included — exact when each of its
    /// partitions lies inside the predicate
    /// ([`HistogramCdf::bucket_contained_in`]), its rows as one range, empty
    /// ranges dropped and adjacent ranges of equal exactness merged; and the
    /// mask of the dimensions some intersecting cell is not contained in.
    fn reference_plan(grid: &AugmentedGrid, q: &Query) -> (Vec<(Range<usize>, bool)>, u128) {
        let d = grid.skeleton.num_dims();
        // The effective filters: each grid dimension's predicate, narrowed
        // by the mapped filters targeting it.
        let mut eff: Vec<Option<(Value, Value)>> = (0..d)
            .map(|dim| q.predicate_on(dim).map(|p| (p.lo, p.hi)))
            .collect();
        let mut mapped_filter = 0;
        for p in q.predicates() {
            if let DimStrategy::Mapped { target } = grid.skeleton.strategy(p.dim) {
                mapped_filter |= dim_bit(p.dim);
                let (xlo, xhi) = grid.mappings[p.dim].as_ref().unwrap().map_range(p.lo, p.hi);
                eff[target] = match eff[target] {
                    None => Some((xlo, xhi)),
                    Some((lo, hi)) if lo.max(xlo) <= hi.min(xhi) => {
                        Some((lo.max(xlo), hi.min(xhi)))
                    }
                    Some(_) => return (Vec::new(), 0),
                };
            }
        }
        let mut ranges: Vec<(Range<usize>, bool)> = Vec::new();
        let mut loose = mapped_filter;
        for cell in 0..grid.num_cells {
            let part = |dim: usize| cell / grid.strides[dim] % grid.partitions[dim];
            let (mut intersects, mut exact, mut cell_loose) = (true, mapped_filter == 0, 0);
            for &dim in &grid.order {
                let model = match grid.skeleton.strategy(dim) {
                    DimStrategy::Conditional { base } => {
                        let conditional = grid.conditional[dim].as_ref().unwrap();
                        if let Some((lo, hi)) = eff[dim] {
                            intersects &= conditional.may_contain(part(base), lo, hi);
                        }
                        conditional.model_for(part(base))
                    }
                    _ => grid.independent[dim].as_ref().unwrap(),
                };
                if let Some((lo, hi)) = eff[dim] {
                    let (a, b) = model.bucket_range(lo, hi);
                    intersects &= a <= part(dim) && part(dim) <= b;
                }
                let contained = (q.predicate_on(dim))
                    .is_none_or(|p| model.bucket_contained_in(part(dim), p.lo, p.hi));
                exact &= contained;
                cell_loose |= if contained { 0 } else { dim_bit(dim) };
            }
            if !intersects {
                continue;
            }
            loose |= cell_loose;
            let rows = grid.cell_offsets[cell]..grid.cell_offsets[cell + 1];
            match ranges.last_mut() {
                _ if rows.is_empty() => {}
                Some((prev, prev_exact)) if prev.end == rows.start && *prev_exact == exact => {
                    prev.end = rows.end;
                }
                _ => ranges.push((rows, exact)),
            }
        }
        (ranges, loose)
    }

    /// Queries filtering a random subset of the three dimensions, some
    /// ranges narrow, some wide, some open to the top of the `u64` domain.
    fn random_queries(n: usize, seed: u64) -> Vec<Query> {
        let mut rng = SplitMix::new(seed);
        let domains = [100_000, 200_700, 70_000];
        (0..n)
            .map(|_| {
                let mut predicates = Vec::new();
                for (dim, &domain) in domains.iter().enumerate() {
                    if rng.next_below(3) == 0 {
                        continue;
                    }
                    let lo = rng.next_below(domain);
                    let hi = match rng.next_below(8) {
                        0 => Value::MAX,
                        1 => lo + rng.next_below(domain / 50),
                        _ => lo + rng.next_below(domain),
                    };
                    predicates.push(Predicate::range(dim, lo, hi).unwrap());
                }
                Query::count(predicates).unwrap()
            })
            .collect()
    }

    #[test]
    fn plan_shape_matches_a_per_cell_reference() {
        use DimStrategy::{Conditional, Independent, Mapped};
        let data = correlated_data(20_000, 83);
        let layouts = [
            (vec![Independent, Independent, Independent], [8, 8, 4]),
            (vec![Independent, Independent, Independent], [1, 6, 1]),
            (
                vec![Independent, Independent, Conditional { base: 0 }],
                [8, 2, 8],
            ),
            (
                vec![Conditional { base: 2 }, Independent, Independent],
                [6, 3, 4],
            ),
            (
                vec![Independent, Mapped { target: 0 }, Independent],
                [16, 1, 4],
            ),
            (
                vec![Independent, Mapped { target: 0 }, Conditional { base: 0 }],
                [12, 1, 6],
            ),
        ];
        let queries = random_queries(200, 84);
        let (mut exact_ranges, mut inexact_ranges) = (0, 0);
        for (strategies, partitions) in layouts {
            let skeleton = Skeleton::new(strategies).unwrap();
            let (grid, _) = AugmentedGrid::build(&data, &skeleton, &partitions);
            let mut scratch = CellScratch::default();
            for q in &queries {
                let mut ranges = Vec::new();
                let loose = grid.plan_cells(q, &mut scratch, |r, exact| ranges.push((r, exact)));
                let loose = loose.expect("these grids never fall back");
                let (want, want_loose) = reference_plan(&grid, q);
                assert_eq!(ranges, want, "{skeleton} {partitions:?} {q:?}");
                assert_eq!(loose, want_loose, "{skeleton} {partitions:?} {q:?}");
                exact_ranges += ranges.iter().filter(|(_, exact)| *exact).count();
                inexact_ranges += ranges.iter().filter(|(_, exact)| !*exact).count();
            }
        }
        // Both kinds of range occur, so the exact flags are really compared.
        assert!(exact_ranges > 100 && inexact_ranges > 100);
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
