//! The workload's per-dimension selectivities, counted in one pass per
//! column: what [`ClusteredSingleDimIndex::choose_sort_dim`] and
//! [`KdTree::dimension_order`] rank dimensions by.
//!
//! [`Query::dim_selectivity`] scans a whole column for one query, so asking
//! it about every (query, filtered dimension) pair of a sample workload
//! scans each column once per query. Here every predicate on a dimension is
//! answered by one pass over that column: the predicates' `lo` and `hi + 1`
//! boundaries are sorted, each value is bucketed between them by binary
//! search, and a predicate's count is the difference of two prefix sums.
//! The counts are exact, so each selectivity is the same `f64`
//! `dim_selectivity` computes.
//!
//! [`Query::dim_selectivity`]: tsunami_core::Query::dim_selectivity
//! [`ClusteredSingleDimIndex::choose_sort_dim`]: crate::ClusteredSingleDimIndex::choose_sort_dim
//! [`KdTree::dimension_order`]: crate::KdTree::dimension_order

use tsunami_core::{Dataset, Value, Workload};

/// Per dimension, the selectivity on `data` of every workload query that
/// filters it, in workload order: entry `dim` equals
/// `[q.dim_selectivity(data, dim) for q filtering dim]`, bit for bit. A
/// dimension no query filters gets an empty list and costs no pass.
pub fn filtered_selectivities(data: &Dataset, workload: &Workload) -> Vec<Vec<f64>> {
    (0..data.num_dims())
        .map(|dim| {
            let ranges: Vec<(Value, Value)> = (workload.queries().iter())
                .filter_map(|q| q.predicate_on(dim).map(|p| (p.lo, p.hi)))
                .collect();
            if data.is_empty() {
                // `Query::dim_selectivity`'s convention for an empty table.
                return vec![1.0; ranges.len()];
            }
            let len = data.len() as f64;
            (range_counts(data.column(dim), &ranges).into_iter())
                .map(|count| count as f64 / len)
                .collect()
        })
        .collect()
}

/// For each inclusive `(lo, hi)` range, how many of `values` lie in it,
/// counted in one pass over `values`.
fn range_counts(values: &[Value], ranges: &[(Value, Value)]) -> Vec<usize> {
    if ranges.is_empty() {
        return Vec::new();
    }
    // A value's bucket is the number of boundaries at or below it. `hi =
    // Value::MAX` has no `hi + 1`: every value is at or below it.
    let mut bounds: Vec<Value> = (ranges.iter())
        .flat_map(|&(lo, hi)| [Some(lo), hi.checked_add(1)])
        .flatten()
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut below = vec![0usize; bounds.len() + 1];
    for &v in values {
        below[bounds.partition_point(|&b| b <= v)] += 1;
    }
    // Prefix sums: `below[k]` becomes the number of values under `bounds[k]`.
    for k in 1..below.len() {
        below[k] += below[k - 1];
    }
    let under = |b: Value| below[bounds.binary_search(&b).expect("a boundary")];
    (ranges.iter())
        .map(|&(lo, hi)| hi.checked_add(1).map_or(values.len(), under) - under(lo))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{Predicate, Query};

    /// [`Query::dim_selectivity`] per (query, filtered dimension) pair: the
    /// per-query loop [`filtered_selectivities`] replaced, and the reference
    /// it must match bit for bit.
    fn reference(data: &Dataset, workload: &Workload) -> Vec<Vec<f64>> {
        (0..data.num_dims())
            .map(|dim| {
                (workload.queries().iter())
                    .filter(|q| q.predicate_on(dim).is_some())
                    .map(|q| q.dim_selectivity(data, dim))
                    .collect()
            })
            .collect()
    }

    fn bits(selectivities: &[Vec<f64>]) -> Vec<Vec<u64>> {
        (selectivities.iter())
            .map(|dim| dim.iter().map(|s| s.to_bits()).collect())
            .collect()
    }

    fn assert_matches_reference(data: &Dataset, workload: &Workload) {
        assert_eq!(
            bits(&filtered_selectivities(data, workload)),
            bits(&reference(data, workload))
        );
    }

    #[test]
    fn counts_every_range_exactly() {
        let values = [5, 0, 7, 7, u64::MAX, 3, 7, 10, u64::MAX - 1];
        let ranges = [
            (0, 0),
            (0, u64::MAX),
            (7, 7),
            (7, 7),
            (3, 7),
            (8, 9),
            (u64::MAX, u64::MAX),
            (10, u64::MAX),
            (11, u64::MAX - 2),
        ];
        let expected: Vec<usize> = (ranges.iter())
            .map(|&(lo, hi)| values.iter().filter(|&&v| lo <= v && v <= hi).count())
            .collect();
        assert_eq!(expected, [1, 9, 3, 3, 5, 0, 1, 3, 0]);
        assert_eq!(range_counts(&values, &ranges), expected);
        assert_eq!(range_counts(&[], &ranges), vec![0; ranges.len()]);
        assert!(range_counts(&values, &[]).is_empty());
    }

    #[test]
    fn seeded_workloads_match_the_per_query_loop() {
        let mut rng = SplitMix::new(17);
        for round in 0..20u64 {
            let n = rng.next_below(3_000) as usize;
            let spread = [4, 1_000, u64::MAX][round as usize % 3];
            let data = Dataset::from_columns(
                (0..3)
                    .map(|_| (0..n).map(|_| rng.next_below(spread)).collect())
                    .collect(),
            )
            .unwrap();
            // Dimension 2 is never filtered; point predicates, repeated
            // boundaries and the domain's extremes all appear.
            let mut queries = Vec::new();
            for i in 0..40 {
                let mut preds = Vec::new();
                for dim in 0..2 {
                    if rng.next_below(3) == 0 {
                        continue;
                    }
                    let lo = rng.next_below(spread);
                    preds.push(match i % 5 {
                        0 => Predicate::eq(dim, lo),
                        1 => Predicate::range(dim, 0, lo).unwrap(),
                        2 => Predicate::range(dim, lo, u64::MAX).unwrap(),
                        3 => Predicate::range(dim, lo / 2, lo).unwrap(),
                        _ => Predicate::range(dim, lo, lo.saturating_add(spread / 8)).unwrap(),
                    });
                }
                queries.push(Query::count(preds).unwrap());
            }
            let workload = Workload::new(queries);
            assert!(filtered_selectivities(&data, &workload)[2].is_empty());
            assert_matches_reference(&data, &workload);
        }
    }

    #[test]
    fn an_empty_table_reads_every_selectivity_as_one() {
        let data = Dataset::from_columns(vec![vec![], vec![]]).unwrap();
        let workload = Workload::new(vec![
            Query::count(vec![Predicate::range(0, 3, 9).unwrap()]).unwrap(),
            Query::count(vec![Predicate::eq(0, 4), Predicate::eq(1, 4)]).unwrap(),
        ]);
        assert_eq!(
            filtered_selectivities(&data, &workload),
            vec![vec![1.0, 1.0], vec![1.0]]
        );
        assert_matches_reference(&data, &workload);
    }
}
