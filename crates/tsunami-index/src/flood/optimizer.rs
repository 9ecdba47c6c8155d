//! Cost-model-driven optimization of Flood's per-dimension partition counts.
//!
//! Flood learns which dimensions to prioritize by adjusting the number of
//! partitions per dimension to minimize the predicted average query time
//! (§2.2.1). A Flood grid is an Augmented Grid whose every dimension is
//! partitioned independently, so the search is the Augmented Grid
//! optimizer's own on the all-independent skeleton: partition counts
//! initialized in proportion to how selective the workload is in each
//! dimension ([`initial_partitions`]), then coordinate descent over them
//! ([`descend_partitions`]) — scored here by Flood's sample-based estimator,
//! which fits each dimension's model once per partition count and prices
//! each distinct candidate once.

use super::config::FloodConfig;
use super::estimator::GridCostEstimator;
use super::SEED;
use crate::augmented_grid::optimizer::{descend_partitions, initial_partitions};
use crate::Skeleton;
use tsunami_core::sample::sample_dataset;
use tsunami_core::{CostModel, Dataset, Workload};

/// Optimizes per-dimension partition counts for a dataset and workload by
/// gradient descent over the predicted cost, returning the chosen counts.
pub(crate) fn optimize_partitions(
    data: &Dataset,
    workload: &Workload,
    cost: &CostModel,
    config: &FloodConfig,
) -> Vec<usize> {
    let sample = sample_dataset(data, config.sample_size, SEED);
    let total = data.len();
    let skeleton = Skeleton::all_independent(data.num_dims());
    let dims = skeleton.grid_dims();
    let mut partitions = initial_partitions(&sample, &skeleton, workload, config.max_cells);
    let mut estimator = GridCostEstimator::new(&sample, total, workload, cost);
    let mut best_cost = estimator.price(&partitions);
    for _ in 0..config.max_iters {
        let improved = descend_partitions(
            &mut partitions,
            &mut best_cost,
            &dims,
            config.max_cells,
            |p| estimator.price(p),
        );
        if !improved {
            break;
        }
    }
    partitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{Predicate, Query};

    fn data() -> Dataset {
        Dataset::from_columns(vec![
            (0..4000u64).collect(),
            (0..4000u64).map(|v| (v * 7) % 4000).collect(),
            (0..4000u64).map(|v| (v * 31) % 4000).collect(),
        ])
        .unwrap()
    }

    /// Workload that is very selective on dim 0 and never filters dim 2.
    fn workload() -> Workload {
        let mut qs = Vec::new();
        for i in 0..20u64 {
            qs.push(
                Query::count(vec![
                    Predicate::range(0, i * 100, i * 100 + 80).unwrap(),
                    Predicate::range(1, 0, 3200).unwrap(),
                ])
                .unwrap(),
            );
        }
        Workload::new(qs)
    }

    #[test]
    fn optimization_does_not_increase_cost() {
        let d = data();
        let w = workload();
        let cost = CostModel::default();
        let cfg = FloodConfig::fast();
        let sample = sample_dataset(&d, cfg.sample_size, SEED);
        let init = initial_partitions(&sample, &Skeleton::all_independent(3), &w, cfg.max_cells);
        let mut estimator = GridCostEstimator::new(&sample, d.len(), &w, &cost);
        let init_cost = estimator.price(&init);
        let opt = optimize_partitions(&d, &w, &cost, &cfg);
        assert!(estimator.price(&opt) <= init_cost * 1.001);
        assert!(opt.iter().product::<usize>() <= cfg.max_cells);
    }

    #[test]
    fn optimizer_allocates_partitions_to_filtered_dims() {
        let d = data();
        let w = workload();
        let opt = optimize_partitions(&d, &w, &CostModel::default(), &FloodConfig::fast());
        // dim2 is never filtered: it should get essentially no partitions.
        assert!(opt[2] <= 2, "{opt:?}");
        assert!(opt[0] >= 2, "{opt:?}");
    }
}
