//! The Grid Tree: a lightweight space-partitioning decision tree that divides
//! the data space into non-overlapping regions with little query skew (§4).
//!
//! Unlike a k-d tree, an internal node may split on more than one value: a
//! node splitting dimension `ds` at values `{v1, ..., vk}` has `k + 1`
//! children. The tree is built greedily: at every node the split dimension
//! and values that most reduce query skew are chosen (via the skew tree's
//! covering-set search); a node becomes a leaf when the best reduction is
//! below 5% of the node's query count, or the node holds less than 1% of the
//! points or queries, matching the paper's defaults (§4.3; the constants
//! below).
//!
//! The Grid Tree is *not* an end-to-end index: each leaf region is indexed
//! separately (by an Augmented Grid in full Tsunami), so the tree only has to
//! be deep enough to remove inter-region skew.
//!
//! # Region bounds
//!
//! The tree keeps one `(min, max)` pair per region and dimension, in one
//! array in region (= physical) order, and one invariant about it: **a
//! region's bounds contain every row stored for the region** — live or
//! tombstoned, in its main slice or its delta run. Everything a query learns
//! from the tree rests on that: a region whose bounds miss the query holds no
//! match, one whose bounds lie inside the query holds only matches (it is
//! scanned exact, or answered from the cube), and a predicate that contains a
//! region's bounds on its dimension needs no re-check there.
//!
//! The bounds are *data* bounds, not the region's split rectangle: at build
//! every region that owns rows records their minimum and maximum on every
//! dimension — a zone map at region granularity, in the bytes the split
//! rectangle would take. On the dimensions a region's path never split (most
//! of them) the split rectangle is the whole data domain and prunes nothing;
//! the rows' own range does, and on correlated columns — the case this index
//! is built for — it is narrow on dimensions the tree never looked at. A
//! region that owns no row at build has nothing to tighten to and keeps its
//! split rectangle, which is also what routes the first rows into it.
//!
//! Who keeps the invariant: build writes the bounds, and
//! [`GridTree::absorb_point`] — every ingested row goes through it — widens
//! them. Nothing narrows them: rows never change region, a delete only
//! tombstones, and a compaction drops rows, so bounds may grow stale-wide
//! but never wrong. A rebuild starts over from the live rows.

pub mod skew;
pub mod skew_tree;

use crate::config::TsunamiConfig;
use crate::query_types::QueryType;
use skew::SkewAnalyzer;
use skew_tree::best_covering;
use tsunami_core::{Dataset, Query, ScanPlan, Value};

/// A split is accepted only if its skew reduction is at least this fraction
/// of the queries intersecting the node (§4.3.2: 5% of |Q|).
pub const MIN_SKEW_REDUCTION_FRACTION: f64 = 0.05;

/// A node holding fewer than this fraction of all points is a leaf (§4.3).
pub const MIN_REGION_POINT_FRACTION: f64 = 0.01;

/// A node intersecting fewer than this fraction of all queries is a leaf
/// (§4.3).
pub const MIN_REGION_QUERY_FRACTION: f64 = 0.01;

/// Adjacent covering-set nodes of the skew tree are merged if the merged skew
/// is at most `1 + MERGE_TOLERANCE` times the sum of their skews (§4.3: 10%).
pub const MERGE_TOLERANCE: f64 = 0.10;

/// The bit of `dim` in a per-dimension mask. Dimensions past the mask's
/// width share its top bit, so a mask is zero exactly when no dimension is
/// set, for a table of any width; what a wide table loses is telling its
/// dimensions past 127 apart.
pub(crate) fn dim_bit(dim: usize) -> u128 {
    1 << dim.min(127)
}

/// Residual elimination from a mask of the dimensions a plan does not
/// guarantee ([`dim_bit`]): the plan re-checks only the query's predicates
/// on those dimensions, and on every dimension past the mask's width.
pub(crate) fn with_loose_residual(plan: ScanPlan, query: &Query, loose: u128) -> ScanPlan {
    let mut guaranteed = [false; 128];
    for p in query.predicates() {
        if let Some(g) = guaranteed.get_mut(p.dim) {
            *g = loose & dim_bit(p.dim) == 0;
        }
    }
    plan.with_guaranteed_dims(query, &guaranteed)
}

/// A leaf region of the Grid Tree: one row of the tree's bounds array.
#[derive(Debug, Clone, Copy)]
pub struct Region<'a> {
    /// Inclusive per-dimension value bounds of the region's rows (see the
    /// module docs, "Region bounds").
    pub bounds: &'a [(Value, Value)],
}

impl Region<'_> {
    /// How a query's filter rectangle meets this region: `None` when they
    /// are disjoint, else the mask (bit `min(dim, 127)` per dimension) of the
    /// filtered dimensions on which the region reaches outside the predicate
    /// — zero when the region is entirely contained in the query. A
    /// predicate on a dimension the region does not have matches nothing.
    pub fn overlap(&self, query: &Query) -> Option<u128> {
        let mut loose = 0;
        for p in query.predicates() {
            let &(lo, hi) = self.bounds.get(p.dim)?;
            if p.hi < lo || p.lo > hi {
                return None;
            }
            if p.lo > lo || hi > p.hi {
                loose |= dim_bit(p.dim);
            }
        }
        Some(loose)
    }

    /// Whether a query's filter rectangle intersects this region.
    pub fn intersects(&self, query: &Query) -> bool {
        self.overlap(query).is_some()
    }

    /// Whether this region is entirely contained in the query rectangle.
    pub fn contained_in(&self, query: &Query) -> bool {
        self.overlap(query) == Some(0)
    }
}

/// Build-time payload of a leaf region: the rows it owns and the sample
/// queries that intersect it. Consumed by the Tsunami index to build each
/// region's Augmented Grid.
#[derive(Debug, Clone)]
pub struct RegionData {
    /// Indices of the dataset rows falling in the region.
    pub rows: Vec<usize>,
    /// Sample queries (from the optimization workload) intersecting the
    /// region's split rectangle.
    pub queries: Vec<Query>,
}

/// Marks a child id as a leaf; the remaining bits are the region id. An
/// unmarked child id is the index of an internal node.
const LEAF: u32 = 1 << 31;

fn leaf_id(region: usize) -> u32 {
    assert!(region < LEAF as usize, "region ids fit in 31 bits");
    region as u32 | LEAF
}

/// The Grid Tree structure (regions + decision nodes), held as flat arrays.
///
/// Internal node `n` splits dimension `dims[n]` at the `k` sorted values
/// `splits[first[n]..first[n + 1]]` and has `k + 1` children: child `i`
/// covers values `< splits[i]` (and `>= splits[i - 1]`), the last child
/// values `>= splits[k - 1]`. Every earlier node `m` holds one child more
/// than it holds splits, so node `n`'s children start at `first[n] + n` in
/// `children` and `first` indexes both arrays. A leaf is a child id (see
/// `LEAF`), not a node.
#[derive(Debug, Clone)]
pub struct GridTree {
    dims: Vec<u32>,
    first: Vec<u32>,
    splits: Vec<Value>,
    children: Vec<u32>,
    root: u32,
    /// Region `r`'s bounds are `bounds[r * num_dims..(r + 1) * num_dims]`.
    bounds: Vec<(Value, Value)>,
    num_dims: usize,
    depth: usize,
}

impl GridTree {
    /// Builds the Grid Tree for a dataset and a workload already clustered
    /// into query types. Returns the tree and, for every leaf region, its
    /// rows and intersecting queries.
    pub fn build(
        data: &Dataset,
        types: &[QueryType],
        config: &TsunamiConfig,
    ) -> (GridTree, Vec<RegionData>) {
        let d = data.num_dims();
        let bounds: Vec<(Value, Value)> = (0..d)
            .map(|dim| data.domain(dim).unwrap_or((0, 0)))
            .collect();
        let total_queries: usize = types.iter().map(|t| t.queries.len()).sum();
        let min_points = ((data.len() as f64) * MIN_REGION_POINT_FRACTION).ceil() as usize;
        let min_queries = ((total_queries as f64) * MIN_REGION_QUERY_FRACTION).ceil() as usize;

        let mut tree = GridTree {
            dims: Vec::new(),
            first: vec![0],
            splits: Vec::new(),
            children: Vec::new(),
            root: 0,
            bounds: Vec::new(),
            num_dims: d,
            depth: 0,
        };
        let mut region_data = Vec::new();
        let all_rows: Vec<usize> = (0..data.len()).collect();
        tree.root = tree.build_node(
            data,
            all_rows,
            types.to_vec(),
            bounds,
            0,
            min_points.max(1),
            min_queries.max(1),
            config,
            &mut region_data,
        );
        // Hold what `size_bytes` reports, not the slack the arrays grew with.
        tree.dims.shrink_to_fit();
        tree.first.shrink_to_fit();
        tree.splits.shrink_to_fit();
        tree.children.shrink_to_fit();
        tree.bounds.shrink_to_fit();
        (tree, region_data)
    }

    /// Builds the subtree over `rows` and returns its child id.
    #[allow(clippy::too_many_arguments)]
    fn build_node(
        &mut self,
        data: &Dataset,
        rows: Vec<usize>,
        types: Vec<QueryType>,
        bounds: Vec<(Value, Value)>,
        depth: usize,
        min_points: usize,
        min_queries: usize,
        config: &TsunamiConfig,
        region_data: &mut Vec<RegionData>,
    ) -> u32 {
        self.depth = self.depth.max(depth);
        let num_queries: usize = types.iter().map(|t| t.queries.len()).sum();

        let stop = depth >= config.max_tree_depth
            || rows.len() <= min_points
            || num_queries <= min_queries;

        let best_split = if stop {
            None
        } else {
            self.find_best_split(&types, &bounds, num_queries, config)
        };

        match best_split {
            None => self.make_leaf(data, rows, types, bounds, region_data),
            Some((dim, split_values)) => {
                // Partition rows and queries among the k+1 children.
                let k = split_values.len();
                let mut child_rows: Vec<Vec<usize>> = vec![Vec::new(); k + 1];
                for &r in &rows {
                    let v = data.get(r, dim);
                    let child = split_values.partition_point(|&s| s <= v);
                    child_rows[child].push(r);
                }
                drop(rows);

                let mut child_ids = Vec::with_capacity(k + 1);
                for (c, crows) in child_rows.into_iter().enumerate() {
                    let mut cbounds = bounds.clone();
                    if c > 0 {
                        cbounds[dim].0 = split_values[c - 1];
                    }
                    if c < k {
                        cbounds[dim].1 = split_values[c] - 1;
                    }
                    // Queries intersecting this child along the split dim.
                    let ctypes: Vec<QueryType> = types
                        .iter()
                        .map(|t| QueryType {
                            filtered_dims: t.filtered_dims.clone(),
                            queries: t
                                .queries
                                .iter()
                                .filter(|q| match q.predicate_on(dim) {
                                    None => true,
                                    Some(p) => p.hi >= cbounds[dim].0 && p.lo <= cbounds[dim].1,
                                })
                                .cloned()
                                .collect(),
                        })
                        .filter(|t| !t.queries.is_empty())
                        .collect();
                    child_ids.push(self.build_node(
                        data,
                        crows,
                        ctypes,
                        cbounds,
                        depth + 1,
                        min_points,
                        min_queries,
                        config,
                        region_data,
                    ));
                }

                // The subtree's nodes are all in place, so this node's
                // splits and children land contiguously after theirs.
                let id = self.dims.len();
                assert!(id < LEAF as usize, "node ids fit in 31 bits");
                self.dims.push(dim as u32);
                self.splits.extend_from_slice(&split_values);
                self.children.extend_from_slice(&child_ids);
                self.first
                    .push(u32::try_from(self.splits.len()).expect("split offsets fit in 32 bits"));
                id as u32
            }
        }
    }

    /// Adds a leaf region and returns its child id. A region that owns rows
    /// records their per-dimension minimum and maximum; one that owns none
    /// keeps `split_rectangle`, the part of the data domain its path through
    /// the tree leaves it.
    fn make_leaf(
        &mut self,
        data: &Dataset,
        rows: Vec<usize>,
        types: Vec<QueryType>,
        split_rectangle: Vec<(Value, Value)>,
        region_data: &mut Vec<RegionData>,
    ) -> u32 {
        let region_id = region_data.len();
        if rows.is_empty() {
            self.bounds.extend_from_slice(&split_rectangle);
        } else {
            self.bounds.extend((0..self.num_dims).map(|dim| {
                let column = data.column(dim);
                rows.iter().fold((Value::MAX, Value::MIN), |(lo, hi), &r| {
                    (lo.min(column[r]), hi.max(column[r]))
                })
            }));
        }
        let queries: Vec<Query> = types.into_iter().flat_map(|t| t.queries).collect();
        region_data.push(RegionData { rows, queries });
        leaf_id(region_id)
    }

    /// Finds the split dimension and values with the largest skew reduction,
    /// or `None` if no split clears the acceptance threshold.
    fn find_best_split(
        &self,
        types: &[QueryType],
        bounds: &[(Value, Value)],
        num_queries: usize,
        config: &TsunamiConfig,
    ) -> Option<(usize, Vec<Value>)> {
        let mut best: Option<(usize, Vec<Value>, f64)> = None;
        for (dim, &(lo, hi)) in bounds.iter().enumerate() {
            if hi <= lo {
                continue;
            }
            let analyzer = SkewAnalyzer::new(types, dim, lo, hi, config.skew_bins);
            if analyzer.contributing_queries() == 0 {
                continue;
            }
            let sol = best_covering(&analyzer, MERGE_TOLERANCE);
            let reduction = sol.reduction();
            if reduction <= 0.0 || sol.split_bins.is_empty() {
                continue;
            }
            // Convert bin indices to split values, dropping degenerate ones.
            let mut values: Vec<Value> = sol
                .split_bins
                .iter()
                .map(|&b| analyzer.bin_start(b))
                .filter(|&v| v > lo && v <= hi)
                .collect();
            values.sort_unstable();
            values.dedup();
            if values.is_empty() {
                continue;
            }
            if best.as_ref().is_none_or(|&(_, _, r)| reduction > r) {
                best = Some((dim, values, reduction));
            }
        }
        let (dim, values, reduction) = best?;
        // Accept only if the reduction clears the minimum threshold.
        if reduction < MIN_SKEW_REDUCTION_FRACTION * num_queries as f64 {
            return None;
        }
        Some((dim, values))
    }

    /// Number of nodes (internal + leaf) — Table 4's "Num Grid Tree nodes".
    pub fn num_nodes(&self) -> usize {
        self.dims.len() + self.num_regions()
    }

    /// Number of leaf regions — Table 4's "Num leaf regions".
    pub fn num_regions(&self) -> usize {
        self.bounds.len() / self.num_dims.max(1)
    }

    /// Maximum depth of the tree — Table 4's "Grid Tree depth".
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The leaf regions, in region (= physical) order.
    pub fn regions(&self) -> impl Iterator<Item = Region<'_>> {
        (self.bounds.chunks_exact(self.num_dims.max(1))).map(|bounds| Region { bounds })
    }

    /// The region with the given id.
    pub fn region(&self, id: usize) -> Region<'_> {
        Region {
            bounds: &self.bounds[self.bounds_of(id)],
        }
    }

    /// Where region `id`'s bounds sit in the bounds array.
    fn bounds_of(&self, id: usize) -> std::ops::Range<usize> {
        id * self.num_dims..(id + 1) * self.num_dims
    }

    /// Internal node `node`: its split dimension, split values and children.
    fn node(&self, node: usize) -> (usize, &[Value], &[u32]) {
        let (lo, hi) = (self.first[node] as usize, self.first[node + 1] as usize);
        (
            self.dims[node] as usize,
            &self.splits[lo..hi],
            &self.children[lo + node..=hi + node],
        )
    }

    /// Calls `visit(region, loose)` for every leaf region whose bounds
    /// intersect the query's filter rectangle, in region order; `loose` is
    /// the region's [`Region::overlap`] with the query. The one descent:
    /// the planner and the tests both read it.
    pub fn for_each_region(&self, query: &Query, mut visit: impl FnMut(usize, u128)) {
        self.descend(self.root, query, &mut visit);
    }

    fn descend(&self, child: u32, query: &Query, visit: &mut impl FnMut(usize, u128)) {
        if child & LEAF != 0 {
            let region = (child & !LEAF) as usize;
            if let Some(loose) = self.region(region).overlap(query) {
                visit(region, loose);
            }
            return;
        }
        let (dim, splits, children) = self.node(child as usize);
        let hit = match query.predicate_on(dim) {
            None => children,
            Some(p) => {
                &children[splits.partition_point(|&s| s <= p.lo)
                    ..=splits.partition_point(|&s| s <= p.hi)]
            }
        };
        for &c in hit {
            self.descend(c, query, visit);
        }
    }

    /// Routes an *ingested* point to its region and widens that region's
    /// bounds to cover it, returning the region id — the one writer of
    /// bounds after build, and what keeps them covering every stored row
    /// (module docs, "Region bounds").
    ///
    /// Routing goes through the internal split values, which partition the
    /// whole value space — so a point outside the build-time data domain
    /// still lands in exactly one region. Widening stays within the split
    /// constraints along split dimensions (the routed point satisfies them
    /// by construction), so regions remain disjoint there.
    pub fn absorb_point(&mut self, point: &[Value]) -> usize {
        let region = self.region_of_point(point);
        let span = self.bounds_of(region);
        for (bounds, &v) in self.bounds[span].iter_mut().zip(point) {
            bounds.0 = bounds.0.min(v);
            bounds.1 = bounds.1.max(v);
        }
        region
    }

    /// The region containing a point (every point maps to exactly one region).
    pub fn region_of_point(&self, point: &[Value]) -> usize {
        let mut child = self.root;
        while child & LEAF == 0 {
            let (dim, splits, children) = self.node(child as usize);
            child = children[splits.partition_point(|&s| s <= point[dim])];
        }
        (child & !LEAF) as usize
    }

    /// Size of the tree in bytes: the arrays it holds. The region bounds are
    /// nearly all of it (16 bytes a region and dimension).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.dims.as_slice())
            + std::mem::size_of_val(self.first.as_slice())
            + std::mem::size_of_val(self.splits.as_slice())
            + std::mem::size_of_val(self.children.as_slice())
            + std::mem::size_of_val(self.bounds.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_types::cluster_query_types;
    use tsunami_core::{Predicate, Workload};

    /// Sales-over-time data like Fig 2: dim 0 is time (uniform over 0..4800),
    /// dim 1 is sales (uniform 0..10000).
    fn sales_data(n: usize) -> Dataset {
        Dataset::from_columns(vec![
            (0..n as u64).map(|v| v * 4800 / n as u64).collect(),
            (0..n as u64).map(|v| (v * 7919) % 10_000).collect(),
        ])
        .unwrap()
    }

    /// Fig 2's workload: Qr = one-year spans anywhere, Qg = one-month spans
    /// over the last year only.
    fn sales_workload() -> Workload {
        let mut qs = Vec::new();
        for i in 0..60u64 {
            let start = (i * 61) % 3600;
            qs.push(Query::count(vec![Predicate::range(0, start, start + 1200).unwrap()]).unwrap());
        }
        for i in 0..60u64 {
            let start = 3600 + (i * 17) % 1100;
            qs.push(Query::count(vec![Predicate::range(0, start, start + 100).unwrap()]).unwrap());
        }
        Workload::new(qs)
    }

    /// The regions the descent reaches for `q`, in the order it visits them.
    fn regions_hit(tree: &GridTree, q: &Query) -> Vec<usize> {
        let mut hit = Vec::new();
        tree.for_each_region(q, |region, _| hit.push(region));
        hit
    }

    fn build_tree(data: &Dataset, workload: &Workload) -> (GridTree, Vec<RegionData>) {
        let config = TsunamiConfig::fast();
        let types = cluster_query_types(data, workload, 500);
        GridTree::build(data, &types, &config)
    }

    #[test]
    fn skewed_workload_produces_multiple_regions() {
        let data = sales_data(20_000);
        let workload = sales_workload();
        let (tree, regions) = build_tree(&data, &workload);
        assert!(
            tree.num_regions() >= 2,
            "skewed workload should split the space, got {} regions",
            tree.num_regions()
        );
        assert_eq!(tree.num_regions(), regions.len());
        assert!(tree.depth() >= 1);
        // One of the splits should be on the time dimension near 3600.
        let has_time_boundary = tree.regions().any(|r| {
            (3000..=4200).contains(&r.bounds[0].0) || (3000..=4200).contains(&r.bounds[0].1)
        });
        assert!(
            has_time_boundary,
            "regions: {:?}",
            tree.regions().collect::<Vec<_>>()
        );
    }

    #[test]
    fn regions_partition_all_rows_exactly_once() {
        let data = sales_data(10_000);
        let workload = sales_workload();
        let (tree, regions) = build_tree(&data, &workload);
        let total: usize = regions.iter().map(|r| r.rows.len()).sum();
        assert_eq!(total, data.len());
        // Every row's point maps back to the region that owns it.
        for (rid, rd) in regions.iter().enumerate() {
            for &row in rd.rows.iter().step_by(997) {
                let point = data.row(row);
                assert_eq!(tree.region_of_point(&point), rid);
            }
        }
    }

    #[test]
    fn region_bounds_are_disjoint_along_split_dims() {
        let data = sales_data(10_000);
        let workload = sales_workload();
        let (tree, _) = build_tree(&data, &workload);
        let regions: Vec<Region> = tree.regions().collect();
        for i in 0..regions.len() {
            for j in (i + 1)..regions.len() {
                let overlap_all_dims = (0..2).all(|d| {
                    let (alo, ahi) = regions[i].bounds[d];
                    let (blo, bhi) = regions[j].bounds[d];
                    ahi >= blo && alo <= bhi
                });
                assert!(!overlap_all_dims, "regions {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn query_traversal_finds_every_intersecting_region() {
        let data = sales_data(10_000);
        let workload = sales_workload();
        let (tree, _) = build_tree(&data, &workload);
        for q in workload.queries().iter().step_by(7) {
            let found = regions_hit(&tree, q);
            // Compare against brute force over region bounds.
            let expected: Vec<usize> = (0..tree.num_regions())
                .filter(|&r| tree.region(r).intersects(q))
                .collect();
            // The descent visits leaves in region order.
            assert_eq!(found, expected);
            assert!(!found.is_empty());
        }
    }

    #[test]
    fn uniform_workload_keeps_a_single_region() {
        let data = sales_data(5_000);
        // Perfectly uniform workload over time.
        let qs: Vec<Query> = (0..50u64)
            .map(|i| {
                Query::count(vec![Predicate::range(
                    0,
                    (i * 96) % 4800,
                    (i * 96) % 4800 + 96,
                )
                .unwrap()])
                .unwrap()
            })
            .collect();
        let (tree, _) = build_tree(&data, &Workload::new(qs));
        assert!(
            tree.num_regions() <= 3,
            "uniform workload should need few regions, got {}",
            tree.num_regions()
        );
    }

    #[test]
    fn empty_workload_is_one_region() {
        let data = sales_data(1_000);
        let (tree, regions) = GridTree::build(&data, &[], &TsunamiConfig::fast());
        assert_eq!(tree.num_regions(), 1);
        assert_eq!(regions[0].rows.len(), data.len());
        assert_eq!(tree.depth(), 0);
        assert!(tree.size_bytes() > 0);
    }

    #[test]
    fn absorb_point_routes_and_widens_bounds() {
        let data = sales_data(10_000);
        let workload = sales_workload();
        let (mut tree, _) = build_tree(&data, &workload);
        // A point far outside the build-time domain still routes to exactly
        // one region, whose bounds grow to cover it.
        let point = vec![1_000_000u64, 999_999];
        let rid = tree.absorb_point(&point);
        assert_eq!(rid, tree.region_of_point(&point));
        let bounds = &tree.region(rid).bounds;
        assert!(bounds[0].0 <= point[0] && point[0] <= bounds[0].1);
        assert!(bounds[1].0 <= point[1] && point[1] <= bounds[1].1);
        // A query matching only the new point now reaches its region.
        let q = Query::count(vec![
            Predicate::range(0, 900_000, 1_100_000).unwrap(),
            Predicate::range(1, 900_000, 1_100_000).unwrap(),
        ])
        .unwrap();
        assert!(regions_hit(&tree, &q).contains(&rid));
        // An in-domain point leaves its region's bounds unchanged.
        let inner = data.row(17);
        let inner_rid = tree.region_of_point(&inner);
        let before = tree.region(inner_rid).bounds.to_vec();
        tree.absorb_point(&inner);
        assert_eq!(tree.region(inner_rid).bounds, before);
    }

    #[test]
    fn bounds_are_the_min_and_max_of_a_regions_rows() {
        // Dim 1 follows dim 0, and no query filters it.
        let n = 10_000u64;
        let data = Dataset::from_columns(vec![
            (0..n).map(|v| v * 4800 / n).collect(),
            (0..n).map(|v| 10 * (v * 4800 / n) + v % 7).collect(),
        ])
        .unwrap();
        let (tree, regions) = build_tree(&data, &sales_workload());
        assert!(regions.len() >= 2);
        for (rid, rd) in regions.iter().enumerate() {
            for (dim, &bound) in tree.region(rid).bounds.iter().enumerate() {
                let values = rd.rows.iter().map(|&r| data.get(r, dim));
                let tight = (values.clone().min().unwrap(), values.max().unwrap());
                assert_eq!(bound, tight, "region {rid} dim {dim}");
            }
        }
        // So the regions are disjoint bands of dim 1 too, though the tree
        // never split it.
        let mut bands: Vec<(Value, Value)> = tree.regions().map(|r| r.bounds[1]).collect();
        bands.sort_unstable();
        assert!(bands.windows(2).all(|w| w[0].1 < w[1].0), "{bands:?}");
    }

    #[test]
    fn size_bytes_counts_the_arrays_of_a_hand_built_tree() {
        // One node splitting dim 0 at 10 and 20 into three leaves.
        let tree = GridTree {
            dims: vec![0],
            first: vec![0, 2],
            splits: vec![10, 20],
            children: vec![leaf_id(0), leaf_id(1), leaf_id(2)],
            root: 0,
            bounds: vec![(0, 9), (0, 5), (10, 19), (5, 9), (20, 29), (0, 9)],
            num_dims: 2,
            depth: 1,
        };
        assert_eq!((tree.num_regions(), tree.num_nodes()), (3, 4));
        // 3 regions x 2 dims x 16 B of bounds, 2 splits x 8 B, and 4 B for
        // each of 3 child ids, 1 node dimension and 2 offsets.
        assert_eq!(tree.size_bytes(), 96 + 16 + 12 + 4 + 8);
        assert_eq!(tree.region_of_point(&[9, 0]), 0);
        assert_eq!(tree.region_of_point(&[10, 0]), 1);
        assert_eq!(tree.region_of_point(&[500, 0]), 2);
        let q = Query::count(vec![
            Predicate::range(0, 5, 25).unwrap(),
            Predicate::range(1, 0, 4).unwrap(),
        ])
        .unwrap();
        assert_eq!(regions_hit(&tree, &q), vec![0, 2]);

        // A built tree holds exactly what its node counts imply: every node
        // and leaf but the root is one child id, and a node has one split
        // fewer than children.
        let (tree, _) = build_tree(&sales_data(10_000), &sales_workload());
        let regions = tree.num_regions();
        let internal = tree.num_nodes() - regions;
        let children = tree.num_nodes() - 1;
        assert!(internal >= 1);
        assert_eq!(
            tree.size_bytes(),
            regions * 2 * 16
                + (children - internal) * 8
                + children * 4
                + internal * 4
                + (internal + 1) * 4
        );
    }

    #[test]
    fn region_containment_check() {
        let r = Region {
            bounds: &[(10, 20), (0, 100)],
        };
        let q_contains = Query::count(vec![Predicate::range(0, 0, 50).unwrap()]).unwrap();
        let q_partial = Query::count(vec![Predicate::range(0, 15, 50).unwrap()]).unwrap();
        let q_miss = Query::count(vec![Predicate::range(0, 30, 50).unwrap()]).unwrap();
        assert!(r.contained_in(&q_contains));
        assert!(r.intersects(&q_partial) && !r.contained_in(&q_partial));
        assert!(!r.intersects(&q_miss));
    }
}
