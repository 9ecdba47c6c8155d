//! Differential ingest-testing harness: absorbing new rows into a built
//! index (`Database::insert_batch`, backed by `TsunamiIndex::ingest` /
//! `FloodIndex::ingest` / `ClusteredSingleDimIndex::ingest`) must be
//! indistinguishable from an index rebuilt over the full dataset in
//! *results* — bit-identical answers for all five aggregations, serial and
//! parallel, with residual-predicate elimination intact — while keeping the
//! post-ingest scan volume within a small tolerance of the fresh rebuild's.

use tsunami_core::sample::SplitMix;
use tsunami_core::{
    Aggregation, Dataset, MultiDimIndex, Point, Predicate, Query, TsunamiError, Workload,
};
use tsunami_flood::FloodConfig;
use tsunami_index::{TsunamiConfig, TsunamiIndex};
use tsunami_suite::{Database, IndexSpec, Table};
use tsunami_workloads::{synthetic, tpch};

mod common;
use common::assert_grids_if_tsunami;

/// Every ingest-capable index family: Tsunami routes rows through its Grid
/// Tree, Flood and SingleDim take the sorted-merge path, FullScan appends.
fn ingest_specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::Tsunami(TsunamiConfig::fast()),
        IndexSpec::Flood(FloodConfig::fast()),
        IndexSpec::SingleDim,
        IndexSpec::FullScan,
    ]
}

/// An ingest batch continuing the dataset's own generator (the realistic
/// stream), plus a tail of rows *outside* the build-time domain of every
/// dimension — the case that breaks naive ingest, because grid models and
/// region bounds learned at build time know nothing about those values.
fn batch_for(full: &Dataset, base_rows: usize, seed: u64) -> Vec<Point> {
    let mut rows: Vec<Point> = (base_rows..full.len()).map(|r| full.row(r)).collect();
    let mut rng = SplitMix::new(seed);
    let maxes: Vec<u64> = (0..full.num_dims())
        .map(|d| full.domain(d).unwrap().1)
        .collect();
    for _ in 0..rows.len() / 20 + 2 {
        rows.push(
            maxes
                .iter()
                .map(|&m| m + 1 + rng.next_below(m / 4 + 10))
                .collect(),
        );
    }
    rows
}

/// (name, base data, full generator output, workload) sweep cases. The base
/// dataset is the full stream truncated; the batch is its continuation.
fn cases() -> Vec<(&'static str, Dataset, Vec<Point>, Workload)> {
    let tpch_full = tpch::generate(33_000, 41);
    let tpch_base = Dataset::from_columns(
        (0..tpch_full.num_dims())
            .map(|d| tpch_full.column(d)[..30_000].to_vec())
            .collect(),
    )
    .unwrap();
    let tpch_workload = tpch::workload(&tpch_base, 6, 42);
    let tpch_batch = batch_for(&tpch_full, 30_000, 43);

    let corr_full = synthetic::correlated(22_000, 5, 44);
    let corr_base = Dataset::from_columns(
        (0..corr_full.num_dims())
            .map(|d| corr_full.column(d)[..20_000].to_vec())
            .collect(),
    )
    .unwrap();
    let corr_workload = synthetic::workload(&corr_base, 8, 45);
    let corr_batch = batch_for(&corr_full, 20_000, 46);

    vec![
        ("tpch", tpch_base, tpch_batch, tpch_workload),
        ("synthetic-correlated", corr_base, corr_batch, corr_workload),
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

/// Queries probing exactly where ingest can go wrong: the out-of-domain tail
/// beyond every build-time max, and the seam spanning old and new domains.
fn tail_probes(base: &Dataset, merged: &Dataset) -> Vec<Query> {
    let mut out = Vec::new();
    for dim in 0..base.num_dims() {
        let (_, old_hi) = base.domain(dim).unwrap();
        let (_, new_hi) = merged.domain(dim).unwrap();
        out.push(Query::count(vec![Predicate::range(dim, old_hi + 1, new_hi).unwrap()]).unwrap());
        out.push(
            Query::new(
                vec![Predicate::range(dim, old_hi / 2, new_hi).unwrap()],
                Aggregation::Sum((dim + 1) % base.num_dims()),
            )
            .unwrap(),
        );
    }
    out
}

fn merged_dataset(base: &Dataset, batch: &[Point]) -> Dataset {
    let mut merged = base.clone();
    for row in batch {
        merged.push_row(row).unwrap();
    }
    merged
}

/// Registers `base` under `spec`, ingests `batch` in three sub-batches
/// through the engine, and returns the post-ingest table.
fn ingest_through_engine(
    db: &mut Database,
    base: &Dataset,
    batch: &[Point],
    workload: &Workload,
    spec: &IndexSpec,
) -> Result<Table, TsunamiError> {
    db.create_table_unnamed("t", base.clone(), workload, spec)?;
    let third = batch.len().div_ceil(3);
    let mut table = db.table("t")?;
    assert_grids_if_tsunami(table.index(), "built");
    for chunk in batch.chunks(third.max(1)) {
        table = db.insert_batch("t", chunk)?;
    }
    assert_grids_if_tsunami(table.index(), "ingested");
    Ok(table)
}

#[test]
fn ingest_is_bit_identical_to_a_full_rebuild() -> Result<(), TsunamiError> {
    for (name, base, batch, workload) in cases() {
        let merged = merged_dataset(&base, &batch);
        for spec in ingest_specs() {
            let mut db = Database::new();
            let ingested = ingest_through_engine(&mut db, &base, &batch, &workload, &spec)?;
            assert_eq!(ingested.num_rows(), merged.len());
            // The reference: the same family built from the full dataset.
            let rebuilt = db.create_table_unnamed("rebuilt", merged.clone(), &workload, &spec)?;

            let mut probes = all_aggregations(&workload, base.num_dims());
            probes.extend(tail_probes(&base, &merged));
            for q in &probes {
                let oracle = q.execute_full_scan(&merged);
                for (label, table) in [("ingested", &ingested), ("rebuilt", &rebuilt)] {
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

/// The probe queries for the residual check: each of the workload's sampled
/// predicate sets with a `(lo, hi)` whole-domain predicate on `dim` spliced
/// in.
fn residual_probes(workload: &Workload, dim: usize, lo: u64, hi: u64) -> Vec<Query> {
    workload
        .queries()
        .iter()
        .step_by(4)
        .map(|base_q| {
            let mut preds = vec![Predicate::range(dim, lo, hi).unwrap()];
            preds.extend(base_q.predicates().iter().copied().filter(|p| p.dim != dim));
            Query::count(preds).unwrap()
        })
        .collect()
}

#[test]
fn residual_elimination_stays_sound_post_ingest() -> Result<(), TsunamiError> {
    // Two directions, both over the *widened* reality: a whole-domain
    // predicate the pre-ingest index eliminated from the residual must still
    // be eliminated afterwards (over the merged domain), and a predicate
    // covering only the *old* domain must NOT be treated as whole-domain
    // anymore — the ingested tail falls outside it.
    let (name, base, batch, workload) = cases().remove(0);
    let merged = merged_dataset(&base, &batch);
    // Staleness escalation stays off for the Tsunami table: a local layout
    // re-optimization may legitimately *map away* the probe dimension in
    // some region (filtered mapped dims always stay residual by design),
    // which would invalidate the probe's premise, not the property. The
    // pure re-grid path — re-fit models, widened bounds and domains — is
    // what must keep elimination sound.
    let specs = vec![
        IndexSpec::Tsunami(TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0)),
        IndexSpec::Flood(FloodConfig::fast()),
        IndexSpec::SingleDim,
    ];
    for spec in specs {
        // Calibrate per (dimension, probe query): where does the
        // *pre-ingest* index eliminate a whole-domain predicate? (A query
        // whose planned regions include one that maps the dimension away
        // keeps it residual by design — a property of the layout, not of
        // ingest.)
        let mut pre_db = Database::new();
        let pre = pre_db.create_table_unnamed("pre", base.clone(), &workload, &spec)?;
        let mut qualified: Vec<(usize, usize)> = Vec::new();
        for dim in 0..base.num_dims() {
            let (lo, hi) = base.domain(dim).unwrap();
            for (i, q) in residual_probes(&workload, dim, lo, hi).iter().enumerate() {
                if pre.index().plan(q).residual(q).iter().all(|p| p.dim != dim) {
                    qualified.push((dim, i));
                }
            }
        }
        assert!(
            !qualified.is_empty(),
            "{name}/{}: no (dimension, query) pair qualifies for the residual probe",
            spec.label()
        );

        let mut db = Database::new();
        let ingested = ingest_through_engine(&mut db, &base, &batch, &workload, &spec)?;
        for &(dim, i) in &qualified {
            let (mlo, mhi) = merged.domain(dim).unwrap();
            let q = &residual_probes(&workload, dim, mlo, mhi)[i];
            assert_eq!(
                ingested.execute(q)?,
                q.execute_full_scan(&merged),
                "{name}/{}: {q:?}",
                spec.label()
            );
            let plan = ingested.index().plan(q);
            assert!(
                plan.residual(q).iter().all(|p| p.dim != dim),
                "{name}/{}: merged-whole-domain predicate on dim {dim} survived into \
                 the residual of {q:?}",
                spec.label()
            );
            // The old domain no longer covers the table: results must
            // exclude the ingested out-of-domain tail.
            let (olo, ohi) = base.domain(dim).unwrap();
            let q = &residual_probes(&workload, dim, olo, ohi)[i];
            assert_eq!(
                ingested.execute(q)?,
                q.execute_full_scan(&merged),
                "{name}/{}: stale-domain predicate mishandled in {q:?}",
                spec.label()
            );
        }
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
fn ingest_scan_volume_stays_close_to_a_fresh_rebuild() -> Result<(), TsunamiError> {
    // Ingest must keep the layout effective, not just correct: on the
    // optimized-for workload the post-ingest scan volume may not exceed the
    // fresh rebuild's by more than a modest factor.
    for (name, base, batch, workload) in cases() {
        let merged = merged_dataset(&base, &batch);
        for spec in [
            IndexSpec::Tsunami(TsunamiConfig::fast()),
            IndexSpec::Flood(FloodConfig::fast()),
            IndexSpec::SingleDim,
        ] {
            let mut db = Database::new();
            let ingested = ingest_through_engine(&mut db, &base, &batch, &workload, &spec)?;
            let rebuilt = db.create_table_unnamed("rebuilt", merged.clone(), &workload, &spec)?;

            let ing = avg_scanned(&ingested, &workload)?;
            let fresh = avg_scanned(&rebuilt, &workload)?;
            // Absolute slack keeps tiny-scan cases from flapping on
            // block-granularity effects.
            let tolerance = fresh * 1.5 + 256.0;
            assert!(
                ing <= tolerance,
                "{name}/{}: post-ingest scans {ing:.0} points/query vs {fresh:.0} after a \
                 fresh rebuild (tolerance {tolerance:.0})",
                spec.label()
            );
        }
    }
    Ok(())
}

#[test]
fn ingest_keeps_the_staleness_of_regions_under_the_layout_floor_on_the_books() {
    // A small table is all Grid Tree: every region is under the layout
    // floor (half a scan block) and grid-less. A hair-trigger region bar
    // makes each touched one stale, but none has a layout decision to
    // re-make — so ingest spends no optimizer time on them and repays none
    // of their staleness, which the whole-index rebuild bar keeps seeing in
    // full.
    let base = tpch::generate(8_200, 41);
    let workload = tpch::workload(&base, 6, 42);
    let config = TsunamiConfig::fast().with_ingest_staleness(0.0, 1.0);
    let index = TsunamiIndex::build(&base, &workload, &config).unwrap();
    let stats = index.stats();
    assert!(
        stats.max_points_per_region + 160 < tsunami_core::exec::BLOCK_ROWS / 2,
        "{stats:?}"
    );

    let batch: Vec<Point> = (0..160).map(|r| base.row(r * 7)).collect();
    let (next, report) = index.ingest(&batch, &config).unwrap();
    assert!(!report.rebuilt && report.regions_touched > 0, "{report:?}");
    assert_eq!(report.regions_reoptimized, 0, "{report:?}");
    assert_eq!(next.stats().gridded_regions, 0);
    assert_eq!(
        next.data_staleness(),
        batch.len() as f64 / (base.len() + batch.len()) as f64
    );
    let merged = merged_dataset(&base, &batch);
    for q in all_aggregations(&workload, base.num_dims()) {
        assert_eq!(next.execute(&q), q.execute_full_scan(&merged), "{q:?}");
    }
}
