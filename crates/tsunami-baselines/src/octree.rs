//! Hyperoctree baseline (§6.1, baseline 3).
//!
//! The hyperoctree recursively subdivides space equally into hyperoctants
//! (the d-dimensional analog of 2-dimensional quadrants) until the number of
//! points in each leaf is below a tunable page size. In high dimensions a
//! node would have `2^d` children, which explodes; like practical
//! implementations we cap the number of dimensions split per level (splitting
//! the widest dimensions first) so the fan-out stays manageable.

use std::time::Instant;

use tsunami_core::{
    BuildTiming, Dataset, MultiDimIndex, Query, ScanPlan, ScanSource, SharedIndex, Value, Workload,
};
use tsunami_store::ColumnStore;

use crate::page::{bounding_box, test_page};

/// Maximum number of dimensions split at a single tree level (fan-out
/// `2^MAX_SPLIT_DIMS`).
const MAX_SPLIT_DIMS: usize = 6;
/// Maximum recursion depth (guards against degenerate data).
const MAX_DEPTH: usize = 24;

#[derive(Debug)]
enum Node {
    Internal {
        /// Dimensions split at this level and their midpoints.
        split_dims: Vec<(usize, Value)>,
        children: Vec<Node>,
    },
    Leaf {
        start: usize,
        end: usize,
        bbox: Vec<(Value, Value)>,
    },
}

/// A clustered hyperoctree.
#[derive(Debug)]
pub struct HyperOctree {
    root: Node,
    store: ColumnStore,
    num_leaves: usize,
    num_nodes: usize,
    timing: BuildTiming,
    page_size: usize,
}

impl HyperOctree {
    /// Builds a hyperoctree with the given page size. The workload argument
    /// is unused (the octree is data-only) but kept for interface uniformity.
    pub fn build(data: &Dataset, _workload: &Workload, page_size: usize) -> Self {
        let start_t = Instant::now();
        let page_size = page_size.max(1);
        let mut rows: Vec<usize> = (0..data.len()).collect();
        let bounds: Vec<(Value, Value)> = (0..data.num_dims())
            .map(|d| data.domain(d).unwrap_or((0, 0)))
            .collect();
        let mut perm = Vec::with_capacity(data.len());
        let mut num_leaves = 0;
        let mut num_nodes = 0;
        let root = Self::build_node(
            data,
            &mut rows,
            &bounds,
            page_size,
            0,
            &mut perm,
            &mut num_leaves,
            &mut num_nodes,
        );
        let store = ColumnStore::clustered(data, &perm);
        Self {
            root,
            store,
            num_leaves,
            num_nodes,
            timing: BuildTiming {
                sort_secs: start_t.elapsed().as_secs_f64(),
                optimize_secs: 0.0,
            },
            page_size,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_node(
        data: &Dataset,
        rows: &mut Vec<usize>,
        bounds: &[(Value, Value)],
        page_size: usize,
        depth: usize,
        perm: &mut Vec<usize>,
        num_leaves: &mut usize,
        num_nodes: &mut usize,
    ) -> Node {
        *num_nodes += 1;
        // Split the widest dimensions (those that can still be halved).
        let mut widths: Vec<(usize, Value)> = bounds
            .iter()
            .enumerate()
            .map(|(d, &(lo, hi))| (d, hi.saturating_sub(lo)))
            .filter(|&(_, w)| w >= 1)
            .collect();
        widths.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        widths.truncate(MAX_SPLIT_DIMS);

        if rows.len() <= page_size || widths.is_empty() || depth >= MAX_DEPTH {
            *num_leaves += 1;
            let start = perm.len();
            let bbox = bounding_box(data, rows);
            perm.extend_from_slice(rows);
            return Node::Leaf {
                start,
                end: perm.len(),
                bbox,
            };
        }

        let split_dims: Vec<(usize, Value)> = widths
            .iter()
            .map(|&(d, _)| {
                let (lo, hi) = bounds[d];
                (d, lo + (hi - lo) / 2)
            })
            .collect();
        let fanout = 1usize << split_dims.len();

        // Partition rows into children.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); fanout];
        for &r in rows.iter() {
            let mut child = 0usize;
            for (bit, &(d, mid)) in split_dims.iter().enumerate() {
                if data.get(r, d) > mid {
                    child |= 1 << bit;
                }
            }
            buckets[child].push(r);
        }
        rows.clear();

        let children: Vec<Node> = buckets
            .into_iter()
            .enumerate()
            .map(|(child, mut child_rows)| {
                // Child bounds.
                let mut child_bounds = bounds.to_vec();
                for (bit, &(d, mid)) in split_dims.iter().enumerate() {
                    if child & (1 << bit) != 0 {
                        child_bounds[d].0 = mid.saturating_add(1).max(child_bounds[d].0);
                    } else {
                        child_bounds[d].1 = mid;
                    }
                }
                Self::build_node(
                    data,
                    &mut child_rows,
                    &child_bounds,
                    page_size,
                    depth + 1,
                    perm,
                    num_leaves,
                    num_nodes,
                )
            })
            .collect();

        Node::Internal {
            split_dims,
            children,
        }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn collect_ranges(
        &self,
        node: &Node,
        query: &Query,
        out: &mut Vec<(std::ops::Range<usize>, bool)>,
        guaranteed: &mut [bool],
    ) {
        match node {
            Node::Leaf { start, end, bbox } => {
                if start == end {
                    return;
                }
                if let Some(contained) = test_page(bbox, query, guaranteed) {
                    out.push((*start..*end, contained));
                }
            }
            Node::Internal {
                split_dims,
                children,
            } => {
                for (child, node) in children.iter().enumerate() {
                    // Prune children outside the query along any split dim.
                    let mut overlaps = true;
                    for (bit, &(d, mid)) in split_dims.iter().enumerate() {
                        if let Some(p) = query.predicate_on(d) {
                            let upper_half = child & (1 << bit) != 0;
                            if upper_half && p.hi <= mid {
                                overlaps = false;
                                break;
                            }
                            if !upper_half && p.lo > mid {
                                overlaps = false;
                                break;
                            }
                        }
                    }
                    if overlaps {
                        self.collect_ranges(node, query, out, guaranteed);
                    }
                }
            }
        }
    }
}

impl MultiDimIndex for HyperOctree {
    fn name(&self) -> &str {
        "HyperOctree"
    }

    fn source(&self) -> &dyn ScanSource {
        &self.store
    }

    fn plan(&self, query: &Query) -> ScanPlan {
        let mut ranges = Vec::new();
        let mut guaranteed = vec![true; self.store.num_dims()];
        self.collect_ranges(&self.root, query, &mut ranges, &mut guaranteed);
        // Scan in physical order so adjacent leaves merge into one range.
        ranges.sort_by_key(|(r, _)| r.start);
        ScanPlan::from_ranges(ranges).with_guaranteed_dims(query, &guaranteed)
    }

    fn size_bytes(&self) -> usize {
        let internal = self.num_nodes - self.num_leaves;
        internal * (MAX_SPLIT_DIMS * (std::mem::size_of::<usize>() + std::mem::size_of::<Value>()))
            + self.num_leaves
                * (2 * std::mem::size_of::<usize>()
                    + self.store.num_dims() * 2 * std::mem::size_of::<Value>())
    }

    fn build_timing(&self) -> BuildTiming {
        self.timing
    }

    fn relayout(&self, data: &Dataset) -> Option<SharedIndex> {
        let workload = Workload::default();
        Some(Box::new(Self::build(data, &workload, self.page_size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggResult, Predicate};

    fn data(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix::new(seed);
        Dataset::from_columns(
            (0..d)
                .map(|_| (0..n).map(|_| rng.next_below(10_000)).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn octree_matches_full_scan_oracle() {
        let ds = data(4_000, 3, 51);
        let idx = HyperOctree::build(&ds, &Workload::default(), 128);
        let mut rng = SplitMix::new(52);
        for _ in 0..25 {
            let dim = rng.next_below(3) as usize;
            let lo = rng.next_below(9_000);
            let q = Query::count(vec![Predicate::range(dim, lo, lo + 800).unwrap()]).unwrap();
            assert_eq!(idx.execute(&q), q.execute_full_scan(&ds));
        }
        let q = Query::count(vec![
            Predicate::range(0, 0, 5_000).unwrap(),
            Predicate::range(2, 2_000, 7_000).unwrap(),
        ])
        .unwrap();
        assert_eq!(idx.execute(&q), q.execute_full_scan(&ds));
    }

    #[test]
    fn selective_queries_prune_most_points() {
        let ds = data(20_000, 2, 53);
        let idx = HyperOctree::build(&ds, &Workload::default(), 256);
        let q = Query::count(vec![
            Predicate::range(0, 0, 1_000).unwrap(),
            Predicate::range(1, 0, 1_000).unwrap(),
        ])
        .unwrap();
        let (res, stats) = idx.execute_with_stats(&q);
        assert_eq!(res, q.execute_full_scan(&ds));
        assert!(stats.points < ds.len() / 4);
    }

    #[test]
    fn page_size_bounds_leaf_population() {
        let ds = data(5_000, 2, 54);
        let idx = HyperOctree::build(&ds, &Workload::default(), 100);
        assert!(idx.num_leaves >= 5_000 / 100 / 4);
        assert!(idx.num_nodes() >= idx.num_leaves);
    }

    #[test]
    fn relayout_keeps_the_page_size() {
        let idx = HyperOctree::build(&data(1_000, 2, 54), &Workload::default(), 100);
        let other = data(3_000, 2, 56);
        let relaid = idx.relayout(&other).unwrap();
        let kept = HyperOctree::build(&other, &Workload::default(), 100);
        assert_eq!(relaid.size_bytes(), kept.size_bytes());
        assert_ne!(
            relaid.size_bytes(),
            HyperOctree::build(&other, &Workload::default(), 1_024).size_bytes()
        );
        let q = Query::count(vec![Predicate::range(1, 100, 4_000).unwrap()]).unwrap();
        assert_eq!(relaid.plan(&q), kept.plan(&q));
        assert_eq!(relaid.execute(&q), q.execute_full_scan(&other));
    }

    #[test]
    fn high_dimensional_fanout_is_capped() {
        // 10 dims would naively be 1024 children per node; the cap keeps the
        // build tractable and still correct.
        let ds = data(2_000, 10, 55);
        let idx = HyperOctree::build(&ds, &Workload::default(), 200);
        let q = Query::count(vec![Predicate::range(7, 0, 5_000).unwrap()]).unwrap();
        assert_eq!(idx.execute(&q), q.execute_full_scan(&ds));
        assert!(idx.size_bytes() > 0);
        assert_eq!(idx.name(), "HyperOctree");
    }

    #[test]
    fn identical_points_terminate() {
        let ds = Dataset::from_columns(vec![vec![3u64; 1000], vec![3u64; 1000]]).unwrap();
        let idx = HyperOctree::build(&ds, &Workload::default(), 10);
        let q = Query::count(vec![Predicate::eq(0, 3)]).unwrap();
        assert_eq!(idx.execute(&q), AggResult::Count(1000));
    }
}
