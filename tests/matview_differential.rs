//! Differential tests for the materialized-aggregate layer.
//!
//! Two properties, both *bit-identity* (not tolerance):
//!
//! 1. **Region cube.** A Tsunami index answering covered queries from
//!    pre-folded per-region partials must be indistinguishable in results
//!    from the same index with materialization disabled, for all five
//!    aggregations, serial and parallel — and both must match the full-scan
//!    oracle — through every mutation that permutes or invalidates cube
//!    entries: `ingest` (delta-merged), `delete_where` (lazy re-fold, with
//!    region compaction swaps forced via a low staleness bar), and a
//!    rebuild for a shifted workload (every entry starts over and folds
//!    lazily).
//!
//! 2. **Registered views.** A `Database` view's answer must be bit-identical
//!    to executing its query against the table from scratch, after every
//!    engine mutation — and insert maintenance must be incremental (the
//!    state stays fresh through inserts; deletes invalidate it).

use tsunami_core::sample::SplitMix;
use tsunami_core::{
    Aggregation, CostModel, Dataset, MultiDimIndex, Point, Predicate, Query, TsunamiError, Workload,
};
use tsunami_index::{TsunamiConfig, TsunamiIndex};
use tsunami_suite::{Database, IndexSpec};

mod common;
use common::assert_grids_if_tsunami;

const ALL_AGGREGATIONS: [fn(usize) -> Aggregation; 5] = [
    |_| Aggregation::Count,
    Aggregation::Sum,
    Aggregation::Min,
    Aggregation::Max,
    Aggregation::Avg,
];

fn dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = SplitMix::new(seed);
    let d0: Vec<u64> = (0..rows).map(|_| rng.next_below(40_000)).collect();
    let d1: Vec<u64> = d0.iter().map(|&v| v / 2 + rng.next_below(5_000)).collect();
    let d2: Vec<u64> = (0..rows).map(|_| rng.next_below(128)).collect();
    Dataset::from_columns(vec![d0, d1, d2]).unwrap()
}

/// A workload mixing narrow bands (mostly rim scans) with wide bands (many
/// whole regions covered — the case the cube answers).
fn workload(data: &Dataset, n: usize, seed: u64) -> Workload {
    let mut rng = SplitMix::new(seed);
    Workload::new(
        (0..n)
            .map(|i| {
                let dim = i % data.num_dims();
                let (lo_d, hi_d) = data.domain(dim).unwrap();
                let width = if i % 2 == 0 {
                    (hi_d - lo_d) / 2 + 1
                } else {
                    (hi_d - lo_d) / 20 + 1
                };
                let lo = lo_d + rng.next_below(hi_d - lo_d + 1);
                Query::count(vec![
                    Predicate::range(dim, lo, (lo + width).min(hi_d)).unwrap()
                ])
                .unwrap()
            })
            .collect(),
    )
}

/// The workload's predicate sets expanded across all five aggregations,
/// plus whole-domain queries (every region covered — the pure-partial plan).
fn probes(data: &Dataset, workload: &Workload) -> Vec<Query> {
    let mut out = Vec::new();
    let mut preds: Vec<Vec<Predicate>> = workload
        .queries()
        .iter()
        .map(|q| q.predicates().to_vec())
        .collect();
    for dim in 0..data.num_dims() {
        preds.push(vec![Predicate::range(dim, 0, u64::MAX).unwrap()]);
    }
    for (i, p) in preds.into_iter().enumerate() {
        for agg in ALL_AGGREGATIONS {
            out.push(Query::new(p.clone(), agg(i % data.num_dims())).unwrap());
        }
    }
    out
}

/// Asserts `on` (cube enabled) and `off` answer every probe identically to
/// the oracle over `live`, serial and parallel.
fn assert_bit_identical(
    label: &str,
    on: &TsunamiIndex,
    off: &TsunamiIndex,
    live: &Dataset,
    probes: &[Query],
) {
    assert!(on.matview_enabled() && !off.matview_enabled());
    // The suite must keep exercising grid plans beside the cube, not only
    // Grid-Tree region scans.
    assert_grids_if_tsunami(on, label);
    for q in probes {
        let oracle = q.execute_full_scan(live);
        assert_eq!(on.execute(q), oracle, "{label}: matview-on vs oracle {q:?}");
        assert_eq!(
            off.execute(q),
            oracle,
            "{label}: matview-off vs oracle {q:?}"
        );
        let (par, _) = on.execute_parallel(q, 4);
        assert_eq!(par, oracle, "{label}: matview-on parallel {q:?}");
    }
}

/// Rebuilds the pair with materialization toggled per side.
fn build_pair(
    data: &Dataset,
    workload: &Workload,
    config: &TsunamiConfig,
) -> (TsunamiIndex, TsunamiIndex) {
    let cost = CostModel::default();
    let mut on = TsunamiIndex::build_with_cost(data, workload, &cost, config).unwrap();
    let mut off = TsunamiIndex::build_with_cost(data, workload, &cost, config).unwrap();
    on.set_matview(true);
    off.set_matview(false);
    (on, off)
}

#[test]
fn cube_answers_are_bit_identical_through_every_mutation() -> Result<(), TsunamiError> {
    // Low region-staleness bar so the delete below forces physical
    // compaction swaps (regions re-gridded, bases shifted) without the
    // whole-index rebuild escalation.
    let config = TsunamiConfig::fast().with_ingest_staleness(0.05, 0.9);
    let mut live = dataset(30_000, 7);
    let wl = workload(&live, 8, 11);
    let (mut on, mut off) = build_pair(&live, &wl, &config);
    assert_bit_identical("built", &on, &off, &live, &probes(&live, &wl));

    // Ingest: cube entries of touched regions delta-merge; answers stay
    // exact through re-gridding and out-of-domain tails.
    let mut rng = SplitMix::new(23);
    let batch: Vec<Point> = (0..700)
        .map(|_| {
            vec![
                rng.next_below(44_000),
                rng.next_below(27_000),
                rng.next_below(160),
            ]
        })
        .collect();
    for chunk in batch.chunks(250) {
        for row in chunk {
            live.push_row(row)?;
        }
        on = on.ingest(chunk, &config)?.0;
        off = off.ingest(chunk, &config)?.0;
    }
    assert_bit_identical("ingested", &on, &off, &live, &probes(&live, &wl));

    // Delete a band: touched entries invalidate and re-fold lazily; the low
    // staleness bar makes this a compaction swap for the dense regions.
    let band = Query::count(vec![Predicate::range(0, 4_000, 12_000)?])?;
    let keep: Vec<usize> = (0..live.len())
        .filter(|&r| !band.matches_point(&live.row(r)))
        .collect();
    let (next_on, report) = on.delete_where(&band, &config)?;
    let (next_off, _) = off.delete_where(&band, &config)?;
    assert!(report.rows_deleted > 0);
    assert!(
        report.regions_compacted > 0 && !report.rebuilt,
        "fixture must exercise compaction swaps, got {report:?}"
    );
    live = live.select_rows(&keep);
    on = next_on;
    off = next_off;
    assert_bit_identical("deleted", &on, &off, &live, &probes(&live, &wl));

    // Rebuild over the live rows for a shifted workload: new regions, an
    // empty cube that folds lazily; answers are exact.
    let shifted = workload(&live, 8, 301);
    let (on, off) = build_pair(&live, &shifted, &config);
    assert_bit_identical("rebuilt", &on, &off, &live, &probes(&live, &shifted));
    Ok(())
}

#[test]
fn covered_queries_skip_scanning_via_partials() {
    let data = dataset(12_000, 77);
    let wl = workload(&data, 6, 78);
    let (on, off) = build_pair(&data, &wl, &TsunamiConfig::fast());

    // Whole-domain COUNT: every region is contained in the query, so the
    // materialized plan is pure partials — zero rows visited.
    let q = Query::count(vec![Predicate::range(0, 0, u64::MAX).unwrap()]).unwrap();
    let (res_on, stats_on) = on.execute_with_stats(&q);
    let (res_off, stats_off) = off.execute_with_stats(&q);
    assert_eq!(res_on, res_off);
    assert_eq!(stats_on.matched, stats_off.matched);
    assert_eq!(stats_on.points, 0, "covered plan must not scan");
    assert_eq!(stats_off.points, data.len());

    // Parallel executors apply the same partials exactly once.
    for threads in [2, 8] {
        let (par, par_stats) = on.execute_parallel(&q, threads);
        assert_eq!(par, res_on);
        assert_eq!(
            par_stats, stats_on,
            "counters diverged at {threads} threads"
        );
    }
}

#[test]
fn registered_views_track_the_table_through_engine_mutations() -> Result<(), TsunamiError> {
    let data = dataset(20_000, 91);
    let wl = workload(&data, 6, 92);
    let mut db = Database::new();
    db.create_table(
        "trips",
        &["pickup", "fare", "passengers"],
        data,
        &wl,
        &IndexSpec::Tsunami(TsunamiConfig::fast()),
    )?;
    assert_grids_if_tsunami(db.table("trips")?.index(), "trips");

    // One view per aggregation kind, built through the fluent builder.
    type AggCtor = fn(usize) -> Aggregation;
    let specs: [(&str, AggCtor); 5] = [
        ("v_count", ALL_AGGREGATIONS[0]),
        ("v_sum", ALL_AGGREGATIONS[1]),
        ("v_min", ALL_AGGREGATIONS[2]),
        ("v_max", ALL_AGGREGATIONS[3]),
        ("v_avg", ALL_AGGREGATIONS[4]),
    ];
    for (name, agg) in specs {
        let query = Query::new(vec![Predicate::range(0, 2_000, 30_000)?], agg(1))?;
        db.register_view("trips", name, query)?;
    }
    // The builder hands the same Query type to register_view.
    let built = db
        .table("trips")?
        .query()
        .range("pickup", 0, 10_000)?
        .avg("fare")?
        .into_query()?;
    db.register_view("trips", "v_builder", built)?;
    assert_eq!(
        db.register_view("trips", "v_builder", Query::count(vec![])?)
            .err(),
        Some(TsunamiError::DuplicateView("v_builder".into()))
    );
    assert!(matches!(
        db.view_value("nope").err(),
        Some(TsunamiError::UnknownView(_))
    ));

    let check = |db: &Database, label: &str| -> Result<(), TsunamiError> {
        let table = db.table("trips")?;
        for view in db.views() {
            let fresh = table.execute(view.query())?;
            assert_eq!(
                db.view_value(view.name())?,
                fresh,
                "{label}: view {} diverged",
                view.name()
            );
        }
        Ok(())
    };
    check(&db, "registered")?;

    // Inserts maintain the folded state incrementally: reading, then
    // inserting, leaves every view fresh (no recompute pending).
    let mut rng = SplitMix::new(93);
    let batch: Vec<Point> = (0..400)
        .map(|_| {
            vec![
                rng.next_below(45_000),
                rng.next_below(28_000),
                rng.next_below(128),
            ]
        })
        .collect();
    db.insert_batch("trips", &batch)?;
    check(&db, "inserted")?;
    assert!(db.views().all(|v| v.is_fresh()));
    db.insert_batch("trips", &batch[..50])?;
    assert!(
        db.views().all(|v| v.is_fresh()),
        "insert must fold a delta, not invalidate"
    );
    check(&db, "inserted-again")?;

    // Deletes invalidate; the next read lazily re-folds to the exact answer.
    db.delete("trips", &[Predicate::range(1, 5_000, 9_000)?])?;
    assert!(db.views().all(|v| !v.is_fresh()), "delete must invalidate");
    check(&db, "deleted")?;
    assert!(db.views().all(|v| v.is_fresh()));

    // Restructures permute the physical layout only; answers stay exact.
    let table = db.table("trips")?;
    let shifted = workload(&table.dataset(), 6, 301);
    drop(table);
    db.reindex(
        "trips",
        &shifted,
        &IndexSpec::Tsunami(TsunamiConfig::fast()),
    )?;
    check(&db, "reindexed")?;

    // Views over a dropped table disappear with it.
    db.drop_table("trips")?;
    assert!(matches!(
        db.view_value("v_count").err(),
        Some(TsunamiError::UnknownView(_))
    ));
    Ok(())
}
