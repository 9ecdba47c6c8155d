//! The Grid Tree: a lightweight space-partitioning decision tree that divides
//! the data space into non-overlapping regions with little query skew (§4).
//!
//! Unlike a k-d tree, an internal node may split on more than one value: a
//! node splitting dimension `ds` at values `{v1, ..., vk}` has `k + 1`
//! children. The tree is built greedily: at every node the split dimension
//! and values that most reduce query skew are chosen (via the skew tree's
//! covering-set search); a node becomes a leaf when the best reduction is
//! below 5% of the node's query count, or the node holds less than 1% of the
//! points or queries, matching the paper's defaults.
//!
//! The Grid Tree is *not* an end-to-end index: each leaf region is indexed
//! separately (by an Augmented Grid in full Tsunami), so the tree only has to
//! be deep enough to remove inter-region skew.

pub mod skew;
pub mod skew_tree;

use crate::config::TsunamiConfig;
use crate::query_types::QueryType;
use skew::SkewAnalyzer;
use skew_tree::best_covering;
use tsunami_core::{Dataset, Query, Value};

/// A leaf region of the Grid Tree.
#[derive(Debug, Clone)]
pub struct Region {
    /// Inclusive per-dimension value bounds of the region.
    pub bounds: Vec<(Value, Value)>,
}

impl Region {
    /// Whether a query's filter rectangle intersects this region.
    pub fn intersects(&self, query: &Query) -> bool {
        query.predicates().iter().all(|p| {
            let (lo, hi) = self.bounds[p.dim];
            p.hi >= lo && p.lo <= hi
        })
    }

    /// Whether this region is entirely contained in the query rectangle.
    pub fn contained_in(&self, query: &Query) -> bool {
        query.predicates().iter().all(|p| {
            let (lo, hi) = self.bounds[p.dim];
            p.lo <= lo && hi <= p.hi
        })
    }
}

/// Build-time payload of a leaf region: the rows it owns and the sample
/// queries that intersect it. Consumed by the Tsunami index to build each
/// region's Augmented Grid.
#[derive(Debug, Clone)]
pub struct RegionData {
    /// Indices of the dataset rows falling in the region.
    pub rows: Vec<usize>,
    /// Sample queries (from the optimization workload) intersecting the region.
    pub queries: Vec<Query>,
}

#[derive(Debug, Clone)]
enum Node {
    Internal {
        dim: usize,
        /// Sorted split values; child `i` covers values `< splits[i]` (and
        /// `>= splits[i-1]`), the last child covers values `>= splits[k-1]`.
        splits: Vec<Value>,
        children: Vec<usize>,
    },
    Leaf {
        region: usize,
    },
}

/// The Grid Tree structure (regions + decision nodes).
#[derive(Debug, Clone)]
pub struct GridTree {
    nodes: Vec<Node>,
    root: usize,
    regions: Vec<Region>,
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
        let min_points = ((data.len() as f64) * config.min_region_point_fraction).ceil() as usize;
        let min_queries =
            ((total_queries as f64) * config.min_region_query_fraction).ceil() as usize;

        let mut tree = GridTree {
            nodes: Vec::new(),
            root: 0,
            regions: Vec::new(),
            depth: 0,
        };
        let mut region_data = Vec::new();
        let all_rows: Vec<usize> = (0..data.len()).collect();
        let root = tree.build_node(
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
        tree.root = root;
        (tree, region_data)
    }

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
    ) -> usize {
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
            None => self.make_leaf(rows, types, bounds, region_data),
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
                let mut child_bounds_list = Vec::with_capacity(k + 1);
                for c in 0..=k {
                    let mut b = bounds.clone();
                    if c > 0 {
                        b[dim].0 = split_values[c - 1];
                    }
                    if c < k {
                        b[dim].1 = split_values[c] - 1;
                    }
                    child_bounds_list.push(b);
                }

                for (c, (crows, cbounds)) in
                    child_rows.into_iter().zip(child_bounds_list).enumerate()
                {
                    let _ = c;
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
                    let id = self.build_node(
                        data,
                        crows,
                        ctypes,
                        cbounds,
                        depth + 1,
                        min_points,
                        min_queries,
                        config,
                        region_data,
                    );
                    child_ids.push(id);
                }

                let id = self.nodes.len();
                self.nodes.push(Node::Internal {
                    dim,
                    splits: split_values,
                    children: child_ids,
                });
                id
            }
        }
    }

    fn make_leaf(
        &mut self,
        rows: Vec<usize>,
        types: Vec<QueryType>,
        bounds: Vec<(Value, Value)>,
        region_data: &mut Vec<RegionData>,
    ) -> usize {
        let region_id = self.regions.len();
        self.regions.push(Region { bounds });
        let queries: Vec<Query> = types.into_iter().flat_map(|t| t.queries).collect();
        region_data.push(RegionData { rows, queries });
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { region: region_id });
        id
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
            let sol = best_covering(&analyzer, config.merge_tolerance);
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
        // Accept only if the reduction clears the minimum threshold (§4.3.2:
        // by default 5% of |Q|).
        if reduction < config.min_skew_reduction_fraction * num_queries as f64 {
            return None;
        }
        Some((dim, values))
    }

    /// Number of nodes (internal + leaf) — Table 4's "Num Grid Tree nodes".
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf regions — Table 4's "Num leaf regions".
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Maximum depth of the tree — Table 4's "Grid Tree depth".
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The leaf regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region with the given id.
    pub fn region(&self, id: usize) -> &Region {
        &self.regions[id]
    }

    /// Collects the ids of every leaf region whose bounds intersect the
    /// query's filter rectangle.
    pub fn regions_for_query(&self, query: &Query) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_regions(self.root, query, &mut out);
        out
    }

    fn collect_regions(&self, node: usize, query: &Query, out: &mut Vec<usize>) {
        match &self.nodes[node] {
            Node::Leaf { region } => {
                if self.regions[*region].intersects(query) {
                    out.push(*region);
                }
            }
            Node::Internal {
                dim,
                splits,
                children,
            } => match query.predicate_on(*dim) {
                None => {
                    for &c in children {
                        self.collect_regions(c, query, out);
                    }
                }
                Some(p) => {
                    let first = splits.partition_point(|&s| s <= p.lo);
                    let last = splits.partition_point(|&s| s <= p.hi);
                    for &c in &children[first..=last] {
                        self.collect_regions(c, query, out);
                    }
                }
            },
        }
    }

    /// Routes an *ingested* point to its region and widens that region's
    /// recorded bounds to cover it, returning the region id.
    ///
    /// Routing goes through the internal split values, which partition the
    /// whole value space — so a point outside the build-time data domain
    /// still lands in exactly one region. The leaf's recorded bounds,
    /// however, are clipped to the build-time domain, and both query routing
    /// ([`GridTree::regions_for_query`]) and region-scan exactness /
    /// residual elimination rely on them covering every stored row.
    /// Widening stays within the split constraints along split dimensions
    /// (the routed point satisfies them by construction), so regions remain
    /// disjoint there.
    pub fn absorb_point(&mut self, point: &[Value]) -> usize {
        let region = self.region_of_point(point);
        for (dim, bounds) in self.regions[region].bounds.iter_mut().enumerate() {
            bounds.0 = bounds.0.min(point[dim]);
            bounds.1 = bounds.1.max(point[dim]);
        }
        region
    }

    /// The region containing a point (every point maps to exactly one region).
    pub fn region_of_point(&self, point: &[Value]) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { region } => return *region,
                Node::Internal {
                    dim,
                    splits,
                    children,
                } => {
                    let child = splits.partition_point(|&s| s <= point[*dim]);
                    node = children[child];
                }
            }
        }
    }

    /// Approximate size of the tree structure in bytes (it is intentionally
    /// tiny compared to the per-region grids).
    pub fn size_bytes(&self) -> usize {
        let mut total = 0usize;
        for n in &self.nodes {
            total += match n {
                Node::Leaf { .. } => std::mem::size_of::<usize>(),
                Node::Internal {
                    splits, children, ..
                } => {
                    std::mem::size_of::<usize>()
                        + splits.len() * std::mem::size_of::<Value>()
                        + children.len() * std::mem::size_of::<usize>()
                }
            };
        }
        total += self
            .regions
            .iter()
            .map(|r| r.bounds.len() * 2 * std::mem::size_of::<Value>())
            .sum::<usize>();
        total
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

    fn build_tree(data: &Dataset, workload: &Workload) -> (GridTree, Vec<RegionData>) {
        let config = TsunamiConfig::fast();
        let types = cluster_query_types(
            data,
            workload,
            config.dbscan_eps,
            config.dbscan_min_pts,
            500,
            1,
        );
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
        let has_time_boundary = tree.regions().iter().any(|r| {
            (3000..=4200).contains(&r.bounds[0].0) || (3000..=4200).contains(&r.bounds[0].1)
        });
        assert!(has_time_boundary, "regions: {:?}", tree.regions());
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
        let regions = tree.regions();
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
            let found = tree.regions_for_query(q);
            // Compare against brute force over region bounds.
            let expected: Vec<usize> = (0..tree.num_regions())
                .filter(|&r| tree.region(r).intersects(q))
                .collect();
            let mut found_sorted = found.clone();
            found_sorted.sort_unstable();
            assert_eq!(found_sorted, expected);
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
        assert!(tree.regions_for_query(&q).contains(&rid));
        // An in-domain point leaves its region's bounds unchanged.
        let inner = data.row(17);
        let inner_rid = tree.region_of_point(&inner);
        let before = tree.region(inner_rid).bounds.clone();
        tree.absorb_point(&inner);
        assert_eq!(tree.region(inner_rid).bounds, before);
    }

    #[test]
    fn region_containment_check() {
        let r = Region {
            bounds: vec![(10, 20), (0, 100)],
        };
        let q_contains = Query::count(vec![Predicate::range(0, 0, 50).unwrap()]).unwrap();
        let q_partial = Query::count(vec![Predicate::range(0, 15, 50).unwrap()]).unwrap();
        let q_miss = Query::count(vec![Predicate::range(0, 30, 50).unwrap()]).unwrap();
        assert!(r.contained_in(&q_contains));
        assert!(r.intersects(&q_partial) && !r.contained_in(&q_partial));
        assert!(!r.intersects(&q_miss));
    }
}
