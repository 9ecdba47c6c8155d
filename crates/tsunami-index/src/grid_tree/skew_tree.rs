//! The skew tree: a tool for finding the split values that minimize combined
//! query skew along one dimension (§4.3.2, Fig 4).
//!
//! The skew tree is a balanced binary tree over the histogram bins of a
//! dimension; each node stores the query skew of the bin range it represents.
//! A *covering set* is a set of nodes whose ranges are disjoint and union to
//! the full range. Dynamic programming over the tree finds the covering set
//! with minimum combined skew in two passes; the boundaries between the
//! covering ranges become the candidate split values. A final ordered merge
//! pass removes superfluous splits (adjacent ranges whose merged skew is at
//! most `1 + tolerance` times the sum of their skews), acting as a
//! regularizer.

use super::skew::SkewAnalyzer;

/// One node of the skew tree, covering histogram bins `[x, y)`.
#[derive(Debug, Clone)]
struct SkewNode {
    x: usize,
    y: usize,
    skew: f64,
    /// Minimum combined skew achievable over this node's subtree.
    min_skew: f64,
    left: Option<Box<SkewNode>>,
    right: Option<Box<SkewNode>>,
}

/// The outcome of the covering-set search along one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct CoveringSolution {
    /// Bin indices at which to split (exclusive of 0 and the bin count).
    pub split_bins: Vec<usize>,
    /// Combined skew of the chosen covering ranges (after merging).
    pub covering_skew: f64,
    /// Skew of the whole range without any split.
    pub total_skew: f64,
}

impl CoveringSolution {
    /// The skew reduction `R_i` achieved by these splits.
    pub fn reduction(&self) -> f64 {
        (self.total_skew - self.covering_skew).max(0.0)
    }
}

/// Builds the skew tree over all bins of the analyzer and returns the best
/// covering solution. The Grid Tree passes the paper's 10% merge factor,
/// [`super::MERGE_TOLERANCE`], as `merge_tolerance`.
pub fn best_covering(analyzer: &SkewAnalyzer, merge_tolerance: f64) -> CoveringSolution {
    let n = analyzer.num_bins();
    let total_skew = analyzer.skew_bins(0, n);
    if n < 4 {
        return CoveringSolution {
            split_bins: vec![],
            covering_skew: total_skew,
            total_skew,
        };
    }

    let root = build_node(analyzer, 0, n);
    // Second pass: extract the covering set in left-to-right order.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    extract_covering(&root, &mut ranges);

    // Merge pass: merge adjacent covering ranges when the combined skew is
    // not much larger than the sum of the individual skews.
    let mut merged: Vec<(usize, usize, f64)> = Vec::new();
    for (x, y) in ranges {
        let skew = analyzer.skew_bins(x, y);
        if let Some(&(px, _, pskew)) = merged.last() {
            let combined = analyzer.skew_bins(px, y);
            if combined <= (pskew + skew) * (1.0 + merge_tolerance) {
                *merged.last_mut().unwrap() = (px, y, combined);
                continue;
            }
        }
        merged.push((x, y, skew));
    }

    let covering_skew = merged.iter().map(|&(_, _, s)| s).sum();
    let split_bins = merged.iter().skip(1).map(|&(x, _, _)| x).collect();
    CoveringSolution {
        split_bins,
        covering_skew,
        total_skew,
    }
}

/// Recursively builds the skew tree over `[x, y)`, stopping at ranges of at
/// most 2 bins (a single bin has no measurable skew, §4.3.2).
fn build_node(analyzer: &SkewAnalyzer, x: usize, y: usize) -> SkewNode {
    let skew = analyzer.skew_bins(x, y);
    if y - x <= 2 {
        return SkewNode {
            x,
            y,
            skew,
            min_skew: skew,
            left: None,
            right: None,
        };
    }
    let mid = x + (y - x) / 2;
    let left = build_node(analyzer, x, mid);
    let right = build_node(analyzer, mid, y);
    let min_skew = skew.min(left.min_skew + right.min_skew);
    SkewNode {
        x,
        y,
        skew,
        min_skew,
        left: Some(Box::new(left)),
        right: Some(Box::new(right)),
    }
}

/// Walks the tree from the root: a node whose own skew equals its annotated
/// minimum is part of the optimal covering set; otherwise recurse.
fn extract_covering(node: &SkewNode, out: &mut Vec<(usize, usize)>) {
    let is_leaf = node.left.is_none();
    if is_leaf || node.skew <= node.min_skew + 1e-12 {
        out.push((node.x, node.y));
        return;
    }
    extract_covering(node.left.as_ref().unwrap(), out);
    extract_covering(node.right.as_ref().unwrap(), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_types::QueryType;
    use tsunami_core::{Predicate, Query};

    fn query(lo: u64, hi: u64) -> Query {
        Query::count(vec![Predicate::range(0, lo, hi).unwrap()]).unwrap()
    }

    #[test]
    fn uniform_workload_needs_no_splits() {
        let t = QueryType {
            queries: (0..32u64).map(|i| query(i * 30, i * 30 + 40)).collect(),
            filtered_dims: vec![0],
        };
        let analyzer = SkewAnalyzer::new(&[t], 0, 0, 1000, 64);
        let sol = best_covering(&analyzer, 0.10);
        // The workload is close to uniform: skew is small and splitting does
        // not buy much, so the merge pass collapses most splits.
        assert!(sol.reduction() <= sol.total_skew);
        assert!(sol.covering_skew <= sol.total_skew + 1e-9);
    }

    #[test]
    fn concentrated_workload_finds_the_boundary() {
        // All queries hit only the last quarter of the domain.
        let t = QueryType {
            queries: (0..50u64)
                .map(|i| query(750 + (i % 20) * 10, 760 + (i % 20) * 10))
                .collect(),
            filtered_dims: vec![0],
        };
        let analyzer = SkewAnalyzer::new(&[t], 0, 0, 1000, 64);
        let sol = best_covering(&analyzer, 0.10);
        assert!(
            sol.reduction() > 0.3 * sol.total_skew,
            "splitting should remove a large share of the skew (total {}, covering {})",
            sol.total_skew,
            sol.covering_skew
        );
        assert!(!sol.split_bins.is_empty());
        // The chosen split bins are within the bin range.
        assert!(sol
            .split_bins
            .iter()
            .all(|&b| b > 0 && b < analyzer.num_bins()));
    }

    #[test]
    fn two_query_types_like_fig2_produce_a_split_near_the_year_boundary() {
        let qr = QueryType {
            queries: (0..40u64)
                .map(|i| query((i * 90) % 3600, (i * 90) % 3600 + 1200))
                .collect(),
            filtered_dims: vec![0],
        };
        let qg = QueryType {
            queries: (0..40u64)
                .map(|i| {
                    let s = 3600 + (i * 28) % 1100;
                    query(s, s + 100)
                })
                .collect(),
            filtered_dims: vec![0],
        };
        let analyzer = SkewAnalyzer::new(&[qr, qg], 0, 0, 4800, 64);
        let sol = best_covering(&analyzer, 0.10);
        assert!(sol.reduction() > 0.0);
        // At least one split should land around the 2019 boundary (bin 48 of
        // 64 covers value 3600), within a few bins.
        assert!(
            sol.split_bins.iter().any(|&b| (40..=56).contains(&b)),
            "splits {:?} should include one near bin 48",
            sol.split_bins
        );
    }

    #[test]
    fn tiny_bin_counts_return_no_splits() {
        let t = QueryType {
            queries: vec![query(0, 1)],
            filtered_dims: vec![0],
        };
        let analyzer = SkewAnalyzer::new(&[t], 0, 0, 3, 4);
        let sol = best_covering(&analyzer, 0.10);
        assert!(sol.split_bins.is_empty());
    }

    #[test]
    fn merge_tolerance_zero_keeps_more_splits_than_large_tolerance() {
        let t = QueryType {
            queries: (0..60u64)
                .map(|i| {
                    let s = (i % 3) * 333;
                    query(s, s + 20)
                })
                .collect(),
            filtered_dims: vec![0],
        };
        let analyzer = SkewAnalyzer::new(&[t], 0, 0, 1000, 64);
        let strict = best_covering(&analyzer, 0.0);
        let loose = best_covering(&analyzer, 10.0);
        assert!(strict.split_bins.len() >= loose.split_bins.len());
    }
}
