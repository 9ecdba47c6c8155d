//! Property-style integration tests: seeded random datasets, random
//! workloads, random queries — every index must agree with the full-scan
//! oracle, and core structural invariants must hold.
//!
//! The container has no crates.io access, so instead of `proptest` these
//! tests drive the same invariants with an explicit seed loop (deterministic,
//! and the failing seed is part of every assertion message).

use tsunami_core::sample::SplitMix;
use tsunami_core::{CostModel, Dataset, Predicate, Query, Workload};
use tsunami_index::cdf::{FunctionalMapping, HistogramCdf};
use tsunami_index::FloodConfig;
use tsunami_index::TsunamiConfig;
use tsunami_suite::{IndexSpec, PageSize};

/// A small random dataset with 2-4 dimensions, where dimension 1 (when
/// present) is correlated with dimension 0.
fn random_dataset(rng: &mut SplitMix) -> Dataset {
    let dims = 2 + rng.next_below(3) as usize;
    let rows = 50 + rng.next_below(350) as usize;
    let base: Vec<u64> = (0..rows).map(|_| rng.next_below(10_000)).collect();
    let mut cols: Vec<Vec<u64>> = vec![base.clone()];
    for d in 1..dims {
        if d == 1 {
            // Correlated with dimension 0.
            cols.push(base.iter().map(|&v| v * 3 + rng.next_below(100)).collect());
        } else {
            cols.push((0..rows).map(|_| rng.next_below(10_000)).collect());
        }
    }
    Dataset::from_columns(cols).unwrap()
}

/// A random conjunctive range query over up to 3 dimensions. Draws whose
/// same-dimension predicates have an empty intersection degrade to an
/// unfiltered query rather than failing.
fn random_query(rng: &mut SplitMix, dims: usize) -> Query {
    let n_preds = rng.next_below(3) as usize;
    let preds = (0..n_preds)
        .map(|_| {
            let d = rng.next_below(dims as u64) as usize;
            let a = rng.next_below(40_000);
            let b = rng.next_below(40_000);
            Predicate::range(d, a.min(b), a.max(b)).unwrap()
        })
        .collect();
    Query::count(preds).unwrap_or_else(|_| Query::count(vec![]).unwrap())
}

#[test]
fn all_indexes_agree_with_oracle_on_random_data() {
    for seed in 0..24u64 {
        let mut rng = SplitMix::new(seed * 1_000 + 17);
        let data = random_dataset(&mut rng);
        let dims = data.num_dims();
        // A small deterministic workload for optimization.
        let workload = Workload::new(
            (0..8u64)
                .map(|i| {
                    let lo = seed.wrapping_mul(i + 1) % 8_000;
                    Query::count(vec![
                        Predicate::range((i as usize) % dims, lo, lo + 2_000).unwrap()
                    ])
                    .unwrap()
                })
                .collect(),
        );
        let cost = CostModel::default();
        let specs = [
            IndexSpec::Tsunami(TsunamiConfig::fast()),
            IndexSpec::Flood(FloodConfig::fast()),
            IndexSpec::KdTree(PageSize::Fixed(64)),
            IndexSpec::ZOrder(PageSize::Fixed(64)),
            IndexSpec::Octree(PageSize::Fixed(64)),
        ];
        let indexes: Vec<_> = specs
            .iter()
            .map(|spec| (spec.label(), spec.build(&data, &workload, &cost).unwrap()))
            .collect();

        for q in workload.queries() {
            let expected = q.execute_full_scan(&data);
            for (label, index) in &indexes {
                assert_eq!(index.execute(q), expected, "{label} seed {seed} {q:?}");
            }
        }
    }
}

#[test]
fn tsunami_answers_arbitrary_queries_correctly() {
    for seed in 0..12u64 {
        let mut rng = SplitMix::new(seed * 7_919 + 3);
        let data = random_dataset(&mut rng);
        let workload = Workload::new(
            (0..6u64)
                .map(|i| {
                    Query::count(vec![Predicate::range(0, i * 1000, i * 1000 + 3000).unwrap()])
                        .unwrap()
                })
                .collect(),
        );
        let index = IndexSpec::Tsunami(TsunamiConfig::fast())
            .build(&data, &workload, &CostModel::default())
            .unwrap();
        for _ in 0..6 {
            let q = random_query(&mut rng, 2);
            assert_eq!(
                index.execute(&q),
                q.execute_full_scan(&data),
                "seed {seed} {q:?}"
            );
        }
    }
}

#[test]
fn cdf_models_are_monotone_and_bounded() {
    for seed in 0..16u64 {
        let mut rng = SplitMix::new(seed * 31 + 5);
        let n = 2 + rng.next_below(498) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.next_below(1_000_000)).collect();
        let hist = HistogramCdf::build(&values, 32);
        let mut probes: Vec<u64> = values.clone();
        probes.push(0);
        probes.push(u64::MAX / 2);
        probes.sort_unstable();
        let mut prev = -1.0f64;
        for &v in &probes {
            let c = hist.cdf(v);
            assert!((0.0..=1.0).contains(&c), "seed {seed}: cdf({v}) = {c}");
            assert!(c >= prev, "seed {seed}: CDF decreased: {c} after {prev}");
            prev = c;
        }
    }
}

#[test]
fn functional_mapping_containment_holds_on_random_correlated_pairs() {
    for seed in 0..20u64 {
        let mut rng = SplitMix::new(seed * 101 + 9);
        let rows = 10 + rng.next_below(290) as usize;
        let slope = 1 + rng.next_below(4);
        let noise = 1 + rng.next_below(499);
        let ys: Vec<u64> = (0..rows).map(|_| rng.next_below(100_000)).collect();
        let xs: Vec<u64> = ys
            .iter()
            .map(|&y| y * slope + rng.next_below(noise))
            .collect();
        let fm = FunctionalMapping::fit(&ys, &xs).unwrap();
        // Any training point inside a queried Y range must fall inside the
        // mapped X range.
        let y_lo = rng.next_below(100_000);
        let y_hi = y_lo + rng.next_below(20_000);
        let (x_lo, x_hi) = fm.map_range(y_lo, y_hi);
        for i in 0..rows {
            if ys[i] >= y_lo && ys[i] <= y_hi {
                assert!(
                    xs[i] >= x_lo && xs[i] <= x_hi,
                    "seed {seed}: x={} outside mapped [{x_lo}, {x_hi}]",
                    xs[i]
                );
            }
        }
    }
}

#[test]
fn equi_depth_partitions_are_balanced() {
    for seed in 0..16u64 {
        let mut rng = SplitMix::new(seed * 977 + 1);
        let n = 64 + rng.next_below(536) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.next_below(100_000)).collect();
        let model = HistogramCdf::build(&values, 8);
        let mut counts = vec![0usize; model.num_buckets()];
        for &v in &values {
            counts[model.bucket_of(v)] += 1;
        }
        // No bucket may hold more than ~4x its fair share (ties can force
        // imbalance, but gross imbalance would defeat the design).
        let fair = values.len() / model.num_buckets();
        for &c in &counts {
            assert!(
                c <= fair * 4 + 8,
                "seed {seed}: bucket with {c} of {} values",
                values.len()
            );
        }
    }
}
