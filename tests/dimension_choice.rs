//! The baselines' one-pass selectivity counts against the per-query scan
//! they replaced, on the four standard datasets and their workloads: every
//! (query, filtered dimension) selectivity must be the same `f64` that
//! `Query::dim_selectivity` computes, so SingleDim's sort dimension and the
//! k-d tree's dimension order cannot move.

use tsunami_baselines::filtered_selectivities;
use tsunami_workloads::DatasetBundle;

#[test]
fn one_pass_selectivities_equal_the_per_query_scan_on_every_standard_dataset() {
    for bundle in DatasetBundle::standard(20_000, 25, 42) {
        let (data, workload) = (&bundle.data, &bundle.workload);
        let counted = filtered_selectivities(data, workload);
        assert_eq!(counted.len(), data.num_dims());
        for (dim, selectivities) in counted.iter().enumerate() {
            let filtering: Vec<_> = (workload.queries().iter())
                .filter(|q| q.predicate_on(dim).is_some())
                .collect();
            assert_eq!(selectivities.len(), filtering.len(), "{}", bundle.name);
            for (got, q) in selectivities.iter().zip(filtering) {
                let want = q.dim_selectivity(data, dim);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} dim {dim} {q:?}",
                    bundle.name
                );
            }
        }
    }
}
