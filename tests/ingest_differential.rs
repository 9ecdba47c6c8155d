//! Differential ingest-testing harness: absorbing new rows into a built
//! index (`Database::insert_batch`, backed by `TsunamiIndex::ingest`,
//! `FullScanIndex`'s append, or `MultiDimIndex::relayout` for every other
//! family) must be indistinguishable from an index rebuilt over the full
//! dataset in *results* — bit-identical answers for all five aggregations,
//! serial and parallel, with residual-predicate elimination intact — while
//! keeping the post-ingest scan volume within a small tolerance of the fresh
//! rebuild's.

use tsunami_core::sample::SplitMix;
use tsunami_core::{
    Aggregation, Dataset, MultiDimIndex, Point, Predicate, Query, TsunamiError, Workload,
};
use tsunami_index::FloodConfig;
use tsunami_index::{OptimizerKind, TsunamiConfig, TsunamiIndex};
use tsunami_suite::{Database, IndexSpec, PageSize, Table};
use tsunami_workloads::{synthetic, tpch};

mod common;
use common::assert_grids_if_tsunami;

/// Every index family: Tsunami routes rows through its Grid Tree, FullScan
/// appends, and the rest lay their rows plus the batch out again under the
/// decision their build made — Flood with the same partitions, SingleDim on
/// the same sort dimension, the paged families at the same page size.
fn ingest_specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::Tsunami(TsunamiConfig::fast()),
        IndexSpec::Flood(FloodConfig::fast()),
        IndexSpec::SingleDim,
        IndexSpec::FullScan,
        IndexSpec::ZOrder(PageSize::Fixed(256)),
        IndexSpec::Octree(PageSize::Fixed(256)),
        IndexSpec::KdTree(PageSize::Fixed(256)),
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

/// All five aggregations (of `agg_dim`, where they take an input) over one
/// predicate set.
fn five_aggregations(preds: &[Predicate], agg_dim: usize) -> Vec<Query> {
    [
        Aggregation::Count,
        Aggregation::Sum(agg_dim),
        Aggregation::Min(agg_dim),
        Aggregation::Max(agg_dim),
        Aggregation::Avg(agg_dim),
    ]
    .into_iter()
    .map(|agg| Query::new(preds.to_vec(), agg).unwrap())
    .collect()
}

/// Expands a workload's predicate sets across all five aggregations, cycling
/// the aggregation input dimension.
fn all_aggregations(workload: &Workload, dims: usize) -> Vec<Query> {
    (workload.queries().iter().enumerate())
        .flat_map(|(i, q)| five_aggregations(q.predicates(), i % dims))
        .collect()
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

// ---------------------------------------------------------------------------
// The delta: small batches sit in a region-ordered plain tail until a graft
// folds them into the main rows (`TsunamiIndex::ingest_with_cost`).
// ---------------------------------------------------------------------------

/// A Tsunami fixture past the layout floor (so grid plans, region scans and
/// delta runs all meet in one plan).
struct DeltaFixture {
    base: Dataset,
    workload: Workload,
    index: TsunamiIndex,
    /// The base row ids in Grid-Tree region order: a contiguous run of it is
    /// a batch that lands in a few neighbouring regions.
    by_region: Vec<usize>,
    /// A region that owns no row at build.
    hollow: usize,
}

fn delta_fixture(config: &TsunamiConfig) -> DeltaFixture {
    let base = tpch::generate(24_000, 51);
    let workload = tpch::workload(&base, 6, 52);
    let index = TsunamiIndex::build(&base, &workload, config).unwrap();
    assert_grids_if_tsunami(&index, "delta fixture");
    let tree = index.grid_tree();
    let region_of: Vec<usize> = (0..base.len())
        .map(|r| tree.region_of_point(&base.row(r)))
        .collect();
    let mut by_region: Vec<usize> = (0..base.len()).collect();
    by_region.sort_by_key(|&r| region_of[r]);
    let hollow = (0..tree.num_regions())
        .find(|rid| !region_of.contains(rid))
        .expect("a region that owns no row at build");
    DeltaFixture {
        base,
        workload,
        index,
        by_region,
        hollow,
    }
}

/// `n` distinct points the Grid Tree routes to region `rid` (the low corner
/// of its bounds, stepped along the last dimension).
fn points_in_region(index: &TsunamiIndex, rid: usize, n: usize, salt: u64) -> Vec<Point> {
    let tree = index.grid_tree();
    let bounds = &tree.region(rid).bounds;
    let last = bounds.len() - 1;
    let span = bounds[last].1 - bounds[last].0 + 1;
    let points: Vec<Point> = (0..n as u64)
        .map(|i| {
            let mut p: Point = bounds.iter().map(|b| b.0).collect();
            p[last] += (salt + i) % span;
            p
        })
        .collect();
    assert!(points.iter().all(|p| tree.region_of_point(p) == rid));
    points
}

/// The query whose filter rectangle is exactly region `rid`'s bounds: the
/// region is contained in it, and no other region intersects it.
fn region_query(index: &TsunamiIndex, rid: usize, agg: Aggregation) -> Query {
    let bounds = &index.grid_tree().region(rid).bounds;
    let preds = (bounds.iter().enumerate())
        .map(|(dim, &(lo, hi))| Predicate::range(dim, lo, hi).unwrap())
        .collect();
    Query::new(preds, agg).unwrap()
}

#[test]
fn delta_rows_reach_the_cube() {
    // Never grafts by staleness; the batches below stay far under a block.
    let config = TsunamiConfig::fast().with_ingest_staleness(1.0, 1.0);
    let DeltaFixture {
        base,
        index,
        hollow,
        ..
    } = delta_fixture(&config);
    let dims = base.num_dims();
    let mut live: Vec<Point> = base.rows().collect();

    // No query has run: every cube entry is still unfolded. The batch puts
    // rows into regions that have main rows and into one that has none.
    let mut batch: Vec<Point> = (0..40).map(|r| base.row(r * 11)).collect();
    batch.extend(points_in_region(&index, hollow, 5, 0));
    let (index, report) = index.ingest(&batch, &config).unwrap();
    live.extend(batch.iter().cloned());
    assert!(!report.rebuilt, "{report:?}");
    assert_eq!(index.stats().delta_rows, batch.len());

    // A covered region with zero main rows contributes its delta as a
    // partial (it must not be skipped as empty).
    let oracle = Dataset::from_rows(dims, &live).unwrap();
    for q in five_aggregations(
        region_query(&index, hollow, Aggregation::Count).predicates(),
        1,
    ) {
        let (result, counters) = index.execute_with_stats(&q);
        assert_eq!(result, q.execute_full_scan(&oracle), "{q:?}");
        assert_eq!(
            (
                counters.partial_regions,
                counters.rows_prefolded,
                counters.points
            ),
            (1, 5, 0),
            "{q:?}"
        );
    }
    // A lazily folded entry folds main + delta: the whole-domain query is
    // all partials, and sees every row.
    for q in five_aggregations(&[], 5) {
        let (result, counters) = index.execute_with_stats(&q);
        assert_eq!(result, q.execute_full_scan(&oracle), "{q:?}");
        assert_eq!(
            (counters.rows_prefolded, counters.points),
            (live.len(), 0),
            "{q:?}"
        );
    }

    // A delete whose only victim is a delta row invalidates that region's
    // (now folded) entry.
    let victim = live.pop().unwrap();
    let del: Vec<Predicate> = (victim.iter().enumerate())
        .map(|(dim, &v)| Predicate::eq(dim, v))
        .collect();
    let (index, report) = index
        .delete_where(&Query::count(del).unwrap(), &config)
        .unwrap();
    assert_eq!(
        (report.rows_deleted, report.regions_compacted),
        (1, 0),
        "{report:?}"
    );
    assert_eq!(index.stats().delta_rows, batch.len());
    let oracle = Dataset::from_rows(dims, &live).unwrap();
    let mut probes = five_aggregations(&[], 5);
    probes.extend(five_aggregations(
        region_query(&index, hollow, Aggregation::Count).predicates(),
        1,
    ));
    for q in probes {
        let (result, counters) = index.execute_with_stats(&q);
        assert_eq!(result, q.execute_full_scan(&oracle), "{q:?}");
        assert_eq!(counters.points, 0, "{q:?}");
    }
}

/// One step's checks: every probe, all five aggregations, against the
/// full-scan oracle over the live rows — serial and parallel (results and
/// counters) with the cube on, and again with it off.
fn assert_step(label: &str, index: &mut TsunamiIndex, live: &[Point], probes: &[Query]) {
    let oracle = Dataset::from_rows(live[0].len(), live).unwrap();
    assert_eq!(index.live_len(), live.len(), "{label}");
    let expected: Vec<_> = probes
        .iter()
        .map(|q| q.execute_full_scan(&oracle))
        .collect();
    for (q, expected) in probes.iter().zip(&expected) {
        let (serial, serial_counters) = index.execute_with_stats(q);
        assert_eq!(&serial, expected, "{label}: matview-on {q:?}");
        let (parallel, parallel_counters) = index.execute_parallel(q, 4);
        assert_eq!(&parallel, expected, "{label}: parallel {q:?}");
        assert_eq!(
            parallel_counters, serial_counters,
            "{label}: parallel counters {q:?}"
        );
    }
    index.set_matview(false);
    for (q, expected) in probes.iter().zip(&expected) {
        assert_eq!(&index.execute(q), expected, "{label}: matview-off {q:?}");
    }
    index.set_matview(true);
}

/// The dimensions whose whole-domain predicate is eliminated from the
/// residual when every region is planned (cube off).
fn eliminated_dims(index: &mut TsunamiIndex, domain: &[(u64, u64)]) -> Vec<bool> {
    index.set_matview(false);
    let eliminated = (domain.iter().enumerate())
        .map(|(dim, &(lo, hi))| {
            let q = Query::count(vec![Predicate::range(dim, lo, hi).unwrap()]).unwrap();
            index.plan(&q).residual(&q).is_empty()
        })
        .collect();
    index.set_matview(true);
    eliminated
}

#[test]
fn delta_stream_is_bit_identical_through_grafts_and_deletes() {
    // A light optimizer (no skeleton search): under the hair trigger most
    // steps re-optimize a dozen regions, and what they decide is not what
    // is under test.
    let light = TsunamiConfig {
        optimizer_sample_size: 200,
        optimizer_max_iters: 1,
        ..TsunamiConfig::fast().with_optimizer(OptimizerKind::GradientOnly)
    };
    for (label, config, min_grafts) in [
        ("default bars", light.clone(), 3),
        // Any touched region with a layout decision to make takes the graft
        // at once; only batches that miss all of them reach the delta.
        (
            "hair-trigger region bar",
            light.with_ingest_staleness(0.0, 1.0),
            10,
        ),
    ] {
        let DeltaFixture {
            base,
            workload,
            mut index,
            by_region,
            hollow,
        } = delta_fixture(&config);
        let dims = base.num_dims();
        let mut live: Vec<Point> = base.rows().collect();
        // The physical domain: every value ever stored (deletes leave the
        // Grid-Tree bounds, and so this, as wide as they were).
        let mut domain: Vec<(u64, u64)> = (0..dims).map(|d| base.domain(d).unwrap()).collect();
        let mut probes: Vec<Query> = (workload.queries().iter().step_by(5).enumerate())
            .flat_map(|(i, q)| five_aggregations(q.predicates(), i % dims))
            .collect();
        probes.extend(five_aggregations(&[], 1));
        // The out-of-domain tail, and the seam into it.
        let (_, ship_hi) = domain[5];
        let seam = Predicate::range(5, ship_hi - 40, u64::MAX).unwrap();
        probes.extend(five_aggregations(&[seam], 7));
        let hollow_box = region_query(&index, hollow, Aggregation::Count);
        probes.extend(five_aggregations(hollow_box.predicates(), 0));

        let mut rng = SplitMix::new(97);
        let mut eliminated = eliminated_dims(&mut index, &domain);
        assert!(eliminated.contains(&true), "{label}: nothing to eliminate");
        let (mut grafts, mut delta_steps, mut held_over_delta) = (0usize, 0usize, 0usize);
        let mut deleted_from_delta = 0usize;
        for step in 0..48u64 {
            // A batch of 1–200 rows: the table's own rows again — a run of
            // neighbouring regions' rows, every fifth step rows from all over
            // the table — every third step one beyond every build-time
            // maximum, every fourth a few into the region that was empty at
            // build; every sixth step is only those two kinds (no gridded
            // region is touched).
            let size = 1 + rng.next_below(200) as usize;
            let mut batch: Vec<Point> = Vec::new();
            if step % 3 == 0 {
                let beyond = |&(_, hi): &(u64, u64)| hi + 1 + rng.next_below(hi / 4 + 10);
                batch.push(domain.iter().map(beyond).collect());
            }
            if step % 4 == 0 {
                batch.extend(points_in_region(&index, hollow, 3, step));
            }
            if step % 6 != 0 {
                let start = rng.next_below((base.len() - size) as u64) as usize;
                let row = |i: usize| match step % 5 {
                    2 => base.row(rng.next_below(base.len() as u64) as usize),
                    _ => base.row(by_region[start + i]),
                };
                batch.extend((0..size).map(row));
            }
            for row in &batch {
                for (d, &v) in row.iter().enumerate() {
                    domain[d] = (domain[d].0.min(v), domain[d].1.max(v));
                }
            }
            let before = index.stats().delta_rows;
            let (next, report) = index.ingest(&batch, &config).unwrap();
            index = next;
            live.extend(batch.iter().cloned());
            assert!(!report.rebuilt, "{label}/{step}: {report:?}");
            // Where the batch went: the delta grew by exactly the batch, or a
            // graft emptied it.
            let delta = index.stats().delta_rows;
            if delta == 0 {
                grafts += 1;
            } else {
                assert_eq!(delta, before + batch.len(), "{label}/{step}");
                assert!(delta < tsunami_core::exec::BLOCK_ROWS, "{label}/{step}");
                assert_eq!(report.regions_reoptimized, 0, "{label}/{step}: {report:?}");
                delta_steps += 1;
            }
            assert_step(
                &format!("{label}/{step}/ingest"),
                &mut index,
                &live,
                &probes,
            );
            // Residual elimination survives every step that re-made no
            // layout decision (a re-optimized region may map the dimension
            // away, by design).
            let now = eliminated_dims(&mut index, &domain);
            if report.regions_reoptimized == 0 {
                for dim in (0..dims).filter(|&dim| eliminated[dim]) {
                    assert!(now[dim], "{label}/{step}: dim {dim} back in the residual");
                    held_over_delta += usize::from(delta > 0);
                }
            }
            eliminated = now;

            // Every third step a small delete: one of the rows just
            // ingested (a delta row unless the step grafted — and the
            // every-sixth steps never do), or a one-day receipt-date band.
            if step % 3 != 0 {
                continue;
            }
            let del: Vec<Predicate> = if step % 2 == 0 {
                let victim = &batch[batch.len() / 2];
                deleted_from_delta += usize::from(delta > 0);
                (victim.iter().enumerate())
                    .map(|(dim, &v)| Predicate::eq(dim, v))
                    .collect()
            } else {
                vec![Predicate::eq(7, rng.next_below(tpch::DATE_DOMAIN))]
            };
            let del = Query::count(del).unwrap();
            let (next, report) = index.delete_where(&del, &config).unwrap();
            index = next;
            let before = live.len();
            live.retain(|row| !del.matches_point(row));
            assert_eq!(report.rows_deleted, before - live.len(), "{label}/{step}");
            assert!(
                report.rows_deleted > 0 && !report.rebuilt,
                "{label}/{step}: {report:?}"
            );
            assert_step(
                &format!("{label}/{step}/delete"),
                &mut index,
                &live,
                &probes,
            );
        }
        // The stream was not vacuous: rows sat in the delta, deletes hit
        // them there, the graft threshold was crossed, and elimination was
        // checked while the delta was non-empty.
        assert!(
            grafts >= min_grafts && delta_steps >= 4 && deleted_from_delta >= 1,
            "{label}: {grafts} grafts, {delta_steps} delta steps, \
             {deleted_from_delta} deletes from the delta"
        );
        assert!(held_over_delta > 0, "{label}");
        assert_grids_if_tsunami(&index, label);
    }
}
