//! Differential shift-testing harness: re-optimizing for a shifted workload
//! is a rebuild (`Database::reindex`), and the rebuilt table must be
//! indistinguishable from the stale one in *results* — bit-identical answers
//! for all five aggregations, serial and parallel, with residual-predicate
//! elimination intact — while scanning no more of the shifted workload than
//! the stale layout did. `Database::auto_reoptimize` must land on exactly
//! that rebuild.

use tsunami_core::sample::SplitMix;
use tsunami_core::{Aggregation, Dataset, Predicate, Query, TsunamiError, Workload};
use tsunami_index::FloodConfig;
use tsunami_index::TsunamiConfig;
use tsunami_suite::{Database, IndexSpec, Table};
use tsunami_workloads::{synthetic, tpch};

mod common;
use common::assert_grids_if_tsunami;

/// Every learned index spec.
fn learned_specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::Tsunami(TsunamiConfig::fast()),
        IndexSpec::Flood(FloodConfig::fast()),
    ]
}

/// A shifted workload for the synthetic datasets: the original workload
/// skews toward the upper range of the first dimensions, so shift to the
/// *last* dimensions with no skew.
fn synthetic_shifted(data: &Dataset, queries: usize, seed: u64) -> Workload {
    let d = data.num_dims();
    let mut rng = SplitMix::new(seed);
    Workload::new(
        (0..queries)
            .map(|i| {
                let lo = rng.next_below(synthetic::DOMAIN * 7 / 10);
                let span = synthetic::DOMAIN / if i % 2 == 0 { 50 } else { 8 };
                Query::count(vec![
                    Predicate::range(d - 1, lo, lo + span).unwrap(),
                    Predicate::range(d - 2, lo / 2, lo / 2 + 3 * span).unwrap(),
                ])
                .unwrap()
            })
            .collect(),
    )
}

/// (name, data, original workload, shifted workload) sweep cases, sized so
/// that in every case the stale and the rebuilt Tsunami index each keep
/// regions above the layout floor — i.e. Augmented Grids to plan through; at
/// a tenth of these row counts both are almost pure Grid Tree.
fn cases() -> Vec<(&'static str, Dataset, Workload, Workload)> {
    let tpch_data = tpch::generate(50_000, 21);
    let tpch_original = tpch::workload(&tpch_data, 6, 22);
    let tpch_shifted = tpch::shifted_workload(&tpch_data, 6, 23);

    let corr = synthetic::correlated(60_000, 6, 24);
    let corr_original = synthetic::workload(&corr, 8, 25);
    let corr_shifted = synthetic_shifted(&corr, 24, 26);

    let unc = synthetic::uncorrelated(60_000, 4, 27);
    let unc_original = synthetic::workload(&unc, 8, 28);
    let unc_shifted = synthetic_shifted(&unc, 20, 29);

    vec![
        ("tpch", tpch_data, tpch_original, tpch_shifted),
        ("synthetic-correlated", corr, corr_original, corr_shifted),
        ("synthetic-uncorrelated", unc, unc_original, unc_shifted),
    ]
}

/// Expands a workload's predicate sets across all five aggregations, cycling
/// the aggregation input dimension.
fn all_aggregations(workload: &Workload, dims: usize) -> Vec<Query> {
    let mut out = Vec::new();
    for (i, q) in workload.queries().iter().enumerate() {
        let agg_dim = i % dims;
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(agg_dim),
            Aggregation::Min(agg_dim),
            Aggregation::Max(agg_dim),
            Aggregation::Avg(agg_dim),
        ] {
            out.push(Query::new(q.predicates().to_vec(), agg).unwrap());
        }
    }
    out
}

#[test]
fn reindex_is_bit_identical_to_the_stale_table() -> Result<(), TsunamiError> {
    for (name, data, original, shifted) in cases() {
        for spec in learned_specs() {
            let mut db = Database::new();
            db.create_table_unnamed("t", data.clone(), &original, &spec)?;
            let stale = db.table("t")?;
            let rebuilt = db.reindex("t", &shifted, &spec)?;
            let tables = [("stale", &stale), ("rebuilt", &rebuilt)];
            for (label, table) in tables {
                assert_grids_if_tsunami(table.index(), &format!("{name}/{label}"));
            }

            // Results are layout-independent: every aggregation, on both the
            // shifted and the original queries, serially and in parallel,
            // with counters proving the parallel executor ran the same plan.
            let mut probes = all_aggregations(&shifted, data.num_dims());
            probes.extend(all_aggregations(&original, data.num_dims()));
            for q in &probes {
                let oracle = q.execute_full_scan(&data);
                for (label, table) in tables {
                    let (serial, serial_stats) = table.execute_with_stats(q)?;
                    assert_eq!(
                        serial,
                        oracle,
                        "{name}/{}/{label} diverged on {q:?}",
                        spec.label()
                    );
                    let (parallel, parallel_stats) = table.index().execute_parallel(q, 4);
                    assert_eq!(
                        parallel,
                        oracle,
                        "{name}/{}/{label} parallel diverged on {q:?}",
                        spec.label()
                    );
                    assert_eq!(
                        parallel_stats,
                        serial_stats,
                        "{name}/{}/{label} parallel counters diverged on {q:?}",
                        spec.label()
                    );
                }
            }
        }
    }
    Ok(())
}

#[test]
fn reindex_keeps_residual_elimination_intact() -> Result<(), TsunamiError> {
    // Whole-domain predicates must still be dropped from the residual after
    // the rebuild — including for regions whose cell enumeration fell back
    // to a whole-region scan, where the guarantee comes from the Grid-Tree
    // region bounds instead of the grid.
    let (name, data, original, shifted) = cases().remove(0);
    let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
    let mut db = Database::new();
    db.create_table_unnamed("t", data.clone(), &original, &spec)?;
    let rebuilt = db.reindex("t", &shifted, &spec)?;
    assert_grids_if_tsunami(rebuilt.index(), name);

    // Probe with a whole-domain predicate on `discount` (dim 2): it is
    // uncorrelated with every other TPC-H dimension, so no region maps it
    // away (filtered *mapped* dimensions stay residual by design).
    const PROBE_DIM: usize = 2;
    let (qlo, qhi) = data.domain(PROBE_DIM).expect("non-empty");
    let whole = Predicate::range(PROBE_DIM, qlo, qhi).unwrap();
    for base in shifted.queries().iter().step_by(5) {
        let mut predicates = vec![whole];
        predicates.extend(
            base.predicates()
                .iter()
                .copied()
                .filter(|p| p.dim != PROBE_DIM),
        );
        let q = Query::count(predicates).unwrap();
        assert_eq!(
            rebuilt.execute(&q)?,
            q.execute_full_scan(&data),
            "{name}: {q:?}"
        );
        let plan = rebuilt.index().plan(&q);
        assert!(
            plan.residual(&q).iter().all(|p| p.dim != PROBE_DIM),
            "{name}: whole-domain predicate survived into the residual of {q:?}"
        );
    }
    Ok(())
}

fn avg_scanned(table: &Table, workload: &Workload) -> Result<f64, TsunamiError> {
    let mut total = 0usize;
    for q in workload.queries() {
        total += table.execute_with_stats(q)?.1.points;
    }
    Ok(total as f64 / workload.len().max(1) as f64)
}

#[test]
fn reindex_scans_no_more_than_the_stale_layout() -> Result<(), TsunamiError> {
    // Re-optimization must actually adapt the layout: on the shifted
    // workload the rebuilt table scans no more than the stale one did.
    for (name, data, original, shifted) in cases() {
        for spec in learned_specs() {
            let mut db = Database::new();
            db.create_table_unnamed("t", data.clone(), &original, &spec)?;
            let stale = avg_scanned(&db.table("t")?, &shifted)?;
            let rebuilt = db.reindex("t", &shifted, &spec)?;
            assert_grids_if_tsunami(rebuilt.index(), &format!("{name}/rebuilt"));
            let fresh = avg_scanned(&rebuilt, &shifted)?;
            assert!(
                fresh <= stale,
                "{name}/{}: the rebuild scans {fresh:.0} points/query vs {stale:.0} stale",
                spec.label()
            );
        }
    }
    Ok(())
}

#[test]
fn auto_reoptimize_lands_on_the_reindex_layout() -> Result<(), TsunamiError> {
    // The autonomous loop has no layout path of its own: once the recorded
    // queries show the shift, the table it installs scans exactly what a
    // direct `reindex` for the same observed workload scans.
    for (name, data, original, shifted) in cases() {
        for spec in learned_specs() {
            let mut auto = Database::new();
            let table = auto.create_table_unnamed("t", data.clone(), &original, &spec)?;
            for q in shifted.queries() {
                table.record_query(q)?;
            }
            let observed = table.observed_workload();
            assert_eq!(observed.len(), shifted.len(), "{name}: log evicted");
            let adapted = auto
                .auto_reoptimize("t", &spec)?
                .unwrap_or_else(|| panic!("{name}/{}: shift not detected", spec.label()));
            assert_eq!(adapted.observed_len(), 0);
            assert_eq!(adapted.reference_workload().queries(), observed.queries());

            let mut direct = Database::new();
            direct.create_table_unnamed("t", data.clone(), &original, &spec)?;
            let rebuilt = direct.reindex("t", &observed, &spec)?;
            assert_eq!(
                avg_scanned(&adapted, &shifted)?,
                avg_scanned(&rebuilt, &shifted)?,
                "{name}/{}",
                spec.label()
            );
        }
    }
    Ok(())
}
