//! Clustering a workload into *query types* (§4.3.1).
//!
//! Queries that filter different sets of dimensions are automatically placed
//! in different types. Within each group of queries filtering the same set of
//! `d'` dimensions, each query is embedded as a `d'`-dimensional vector of
//! per-dimension filter selectivities, and the embeddings are clustered with
//! DBSCAN ([`DBSCAN_EPS`], [`DBSCAN_MIN_PTS`]). DBSCAN determines the number
//! of clusters automatically; noise points become singleton types.

use tsunami_core::sample::sample_dataset;
use tsunami_core::{Dataset, Query, Workload};

use crate::SEED;

/// DBSCAN's neighbourhood radius over selectivity embeddings — the paper's
/// eps of 0.2 (§4.3.1). The workload monitor matches query types with it
/// too.
pub const DBSCAN_EPS: f64 = 0.2;

/// The total change in query-type frequency (0 for the same mix, 2 for
/// disjoint mixes) past which the workload monitor recommends
/// re-optimizing: half of the workload's mass moved.
pub const DRIFT_THRESHOLD: f64 = 0.5;

/// Queries within [`DBSCAN_EPS`] (itself included) that make a DBSCAN core
/// point.
pub const DBSCAN_MIN_PTS: usize = 2;

/// A cluster of queries with similar selectivity characteristics.
#[derive(Debug, Clone, Default)]
pub struct QueryType {
    /// Queries belonging to this type.
    pub queries: Vec<Query>,
    /// The dimensions every query of this type filters.
    pub filtered_dims: Vec<usize>,
}

/// Clusters the workload into query types.
///
/// `data` is used to estimate per-dimension selectivities; a sample of at
/// most `sample_rows` rows keeps this cheap.
pub fn cluster_query_types(
    data: &Dataset,
    workload: &Workload,
    sample_rows: usize,
) -> Vec<QueryType> {
    let sample = sample_dataset(data, sample_rows, SEED);
    let mut types = Vec::new();
    for group in workload.group_by_filtered_dims() {
        if group.is_empty() {
            continue;
        }
        let dims = group[0].filtered_dims();
        // Embed each query as its per-dimension selectivity vector.
        let embeddings: Vec<Vec<f64>> = group
            .iter()
            .map(|q| {
                dims.iter()
                    .map(|&d| q.dim_selectivity(&sample, d))
                    .collect()
            })
            .collect();
        let labels = dbscan(&embeddings, DBSCAN_EPS, DBSCAN_MIN_PTS);
        let num_clusters = labels.iter().copied().flatten().max().map_or(0, |m| m + 1);
        let mut clusters: Vec<Vec<Query>> = vec![Vec::new(); num_clusters];
        let mut noise: Vec<Query> = Vec::new();
        for (q, label) in group.into_iter().zip(labels) {
            match label {
                Some(c) => clusters[c].push(q),
                None => noise.push(q),
            }
        }
        for cluster in clusters {
            if !cluster.is_empty() {
                types.push(QueryType {
                    queries: cluster,
                    filtered_dims: dims.clone(),
                });
            }
        }
        // Noise queries each form their own singleton type.
        for q in noise {
            types.push(QueryType {
                queries: vec![q],
                filtered_dims: dims.clone(),
            });
        }
    }
    types
}

/// DBSCAN over points in Euclidean space.
///
/// Returns, for each point, `Some(cluster_id)` or `None` for noise.
pub fn dbscan(points: &[Vec<f64>], eps: f64, min_pts: usize) -> Vec<Option<usize>> {
    let n = points.len();
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut cluster = 0usize;

    let neighbors = |i: usize| -> Vec<usize> {
        (0..n)
            .filter(|&j| euclidean(&points[i], &points[j]) <= eps)
            .collect()
    };

    for i in 0..n {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        let nbrs = neighbors(i);
        if nbrs.len() < min_pts {
            // Tentatively noise; may be absorbed by a later cluster as a
            // border point.
            continue;
        }
        // Start a new cluster and expand it.
        let mut queue = nbrs;
        labels[i] = Some(cluster);
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            if labels[j].is_none() {
                labels[j] = Some(cluster);
            }
            if !visited[j] {
                visited[j] = true;
                let jn = neighbors(j);
                if jn.len() >= min_pts {
                    queue.extend(jn);
                }
            }
        }
        cluster += 1;
    }
    labels
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::Predicate;

    #[test]
    fn dbscan_separates_well_separated_clusters() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.01 * i as f64, 0.0]); // cluster near origin
            pts.push(vec![1.0 + 0.01 * i as f64, 1.0]); // cluster near (1,1)
        }
        let labels = dbscan(&pts, 0.2, 2);
        let c0 = labels[0].unwrap();
        let c1 = labels[1].unwrap();
        assert_ne!(c0, c1);
        // All even indices share c0, all odd share c1.
        for (i, l) in labels.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(*l, Some(c0));
            } else {
                assert_eq!(*l, Some(c1));
            }
        }
    }

    #[test]
    fn dbscan_marks_isolated_points_as_noise() {
        let mut pts: Vec<Vec<f64>> = (0..8).map(|i| vec![0.01 * i as f64]).collect();
        pts.push(vec![10.0]);
        let labels = dbscan(&pts, 0.2, 2);
        assert!(labels[8].is_none());
        assert!(labels[..8].iter().all(|l| l.is_some()));
    }

    fn data() -> Dataset {
        Dataset::from_columns(vec![
            (0..1000u64).collect(),
            (0..1000u64).map(|v| v % 101).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn queries_filtering_different_dims_are_different_types() {
        let ds = data();
        let w = Workload::new(vec![
            Query::count(vec![Predicate::range(0, 0, 100).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(0, 200, 300).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(1, 0, 50).unwrap()]).unwrap(),
            Query::count(vec![Predicate::range(1, 10, 60).unwrap()]).unwrap(),
        ]);
        let types = cluster_query_types(&ds, &w, 500);
        assert_eq!(types.len(), 2);
        assert!(types.iter().any(|t| t.filtered_dims == vec![0]));
        assert!(types.iter().any(|t| t.filtered_dims == vec![1]));
    }

    #[test]
    fn selectivity_differences_split_types_within_a_dim_group() {
        let ds = data();
        let mut queries = Vec::new();
        // Type A: very selective over dim0 (1% ranges).
        for i in 0..10u64 {
            queries.push(
                Query::count(vec![Predicate::range(0, i * 50, i * 50 + 9).unwrap()]).unwrap(),
            );
        }
        // Type B: broad over dim0 (60% ranges).
        for i in 0..10u64 {
            queries.push(Query::count(vec![Predicate::range(0, i, i + 600).unwrap()]).unwrap());
        }
        let types = cluster_query_types(&ds, &Workload::new(queries), 1000);
        assert!(
            types.len() >= 2,
            "expected selective and broad types, got {}",
            types.len()
        );
        let sizes: usize = types.iter().map(|t| t.queries.len()).sum();
        assert_eq!(sizes, 20, "every query must belong to exactly one type");
    }

    #[test]
    fn empty_workload_yields_no_types() {
        let ds = data();
        let types = cluster_query_types(&ds, &Workload::default(), 100);
        assert!(types.is_empty());
    }
}
