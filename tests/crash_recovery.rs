//! The durability tentpole's fault-injection harness: kill the writer at
//! every [`CrashPoint`] before / during / after every mutation in a
//! scripted sequence, reopen the database from disk, and differentially
//! assert that the recovered state answers **all five aggregations
//! bit-identically** to an in-memory oracle that replayed only the durably
//! committed prefix — serially and through the parallel scheduler.
//!
//! The sequence is built to cross every interesting durability boundary:
//! a Tsunami table with tight staleness bars (so deletes escalate through
//! per-region compaction and a whole-index rebuild during recovery), a
//! mid-sequence checkpoint (so both checkpoint crash windows are
//! reachable), and inserts both before and after the checkpoint.

use tsunami_core::{Aggregation, Dataset, Predicate, Query, Workload};
use tsunami_engine::{CrashPoint, Database, IndexSpec, Table};
use tsunami_index::TsunamiConfig;

const DIMS: usize = 3;

fn base_rows() -> Vec<Vec<u64>> {
    (0..1_500u64)
        .map(|v| vec![v, v * 2 + v % 13, (v * 7919) % 10_000])
        .collect()
}

fn workload() -> Workload {
    Workload::new(
        (0..10u64)
            .map(|i| {
                Query::count(vec![Predicate::range(0, i * 120, i * 120 + 300).unwrap()]).unwrap()
            })
            .collect(),
    )
}

fn spec() -> IndexSpec {
    // Tight bars: the small delete already compacts touched regions, and
    // the big one escalates to a whole-index rebuild — recovery replays
    // straight through both escalation paths.
    IndexSpec::Tsunami(TsunamiConfig::fast().with_ingest_staleness(0.05, 0.3))
}

/// One scripted mutation after the initial create.
enum Step {
    Insert(Vec<Vec<u64>>),
    Delete(Vec<Predicate>),
    RegisterView(&'static str, Query),
    Checkpoint,
}

impl Step {
    fn label(&self) -> String {
        match self {
            Step::Insert(rows) => format!("insert({})", rows.len()),
            Step::Delete(preds) => format!("delete({} preds)", preds.len()),
            Step::RegisterView(name, _) => format!("register_view({name})"),
            Step::Checkpoint => "checkpoint".to_string(),
        }
    }

    /// The crash points that can actually fire while this step runs.
    fn crash_points(&self) -> &'static [CrashPoint] {
        match self {
            Step::Checkpoint => &[CrashPoint::MidCheckpoint, CrashPoint::AfterCheckpointRename],
            _ => &[CrashPoint::MidRecord, CrashPoint::BeforeSync],
        }
    }
}

fn steps() -> Vec<Step> {
    vec![
        Step::Insert(
            (0..200u64)
                .map(|i| vec![1_500 + i, i * 3, i * 17 % 10_000])
                .collect(),
        ),
        // Registered before the checkpoint: this view's spec must survive
        // via the checkpoint *snapshot*, not the (reset) WAL tail.
        Step::RegisterView(
            "v_sum",
            Query::new(
                vec![Predicate::range(0, 300, 2_000).unwrap()],
                Aggregation::Sum(1),
            )
            .unwrap(),
        ),
        // Small band: tombstones, with touched regions compacting past the
        // tight region bar.
        Step::Delete(vec![Predicate::range(0, 100, 219).unwrap()]),
        Step::Checkpoint,
        Step::Insert((0..150u64).map(|i| vec![i * 11, i * 5, i * 13]).collect()),
        // Registered after the checkpoint: survives via the WAL tail.
        Step::RegisterView("v_avg", Query::new(vec![], Aggregation::Avg(2)).unwrap()),
        // Big band: escalates to a whole-index rebuild over the live rows.
        Step::Delete(vec![Predicate::range(0, 0, 899).unwrap()]),
    ]
}

fn apply(db: &mut Database, step: &Step) -> tsunami_core::Result<()> {
    match step {
        Step::Insert(rows) => db.insert_batch("t", rows).map(|_| ()),
        Step::Delete(preds) => db.delete("t", preds).map(|_| ()),
        Step::RegisterView(name, q) => db.register_view("t", name, q.clone()),
        Step::Checkpoint => db.checkpoint(),
    }
}

/// The in-memory oracle: plain rows, no index, no WAL.
fn oracle_after(upto: usize) -> Vec<Vec<u64>> {
    let mut rows = base_rows();
    for step in steps().iter().take(upto) {
        match step {
            Step::Insert(batch) => rows.extend(batch.iter().cloned()),
            Step::Delete(preds) => {
                let q = Query::count(preds.clone()).unwrap();
                rows.retain(|r| !q.matches_point(r));
            }
            Step::RegisterView(..) | Step::Checkpoint => {}
        }
    }
    rows
}

/// The views registered by the durable prefix, in registration order.
fn views_after(upto: usize) -> Vec<(&'static str, Query)> {
    steps()
        .into_iter()
        .take(upto)
        .filter_map(|s| match s {
            Step::RegisterView(name, q) => Some((name, q)),
            _ => None,
        })
        .collect()
}

fn probes() -> Vec<Query> {
    let bands: [Vec<Predicate>; 3] = [
        vec![],
        vec![Predicate::range(0, 0, 1_200).unwrap()],
        vec![
            Predicate::range(1, 0, 2_500).unwrap(),
            Predicate::range(2, 0, 8_000).unwrap(),
        ],
    ];
    let mut out = Vec::new();
    for preds in bands {
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(2),
            Aggregation::Max(0),
            Aggregation::Avg(1),
        ] {
            out.push(Query::new(preds.clone(), agg).unwrap());
        }
    }
    out
}

/// Asserts the table answers every probe bit-identically to the oracle
/// rows, both serially and through the parallel scheduler.
fn assert_matches_oracle(db: &Database, table: &Table, rows: &[Vec<u64>], ctx: &str) {
    assert_eq!(table.num_rows(), rows.len(), "{ctx}: row count");
    let oracle = Dataset::from_rows(DIMS, rows).unwrap();
    let probes = probes();
    for q in &probes {
        assert_eq!(
            table.execute(q).unwrap(),
            q.execute_full_scan(&oracle),
            "{ctx}: serial diverged on {q:?}"
        );
    }
    let prepared: Vec<_> = probes
        .iter()
        .map(|q| table.prepare(q.clone()).unwrap())
        .collect();
    let parallel = db.scheduler(4).execute_batch(&prepared).unwrap();
    for (q, got) in probes.iter().zip(parallel) {
        assert_eq!(
            got,
            q.execute_full_scan(&oracle),
            "{ctx}: parallel diverged on {q:?}"
        );
    }
}

/// Asserts the recovered database has exactly the views registered by the
/// durable prefix, and that each answers bit-identically to its aggregate
/// freshly computed over the oracle rows (view state is never persisted —
/// recovery re-registers the spec and the first read re-folds).
fn assert_views_match_oracle(db: &Database, rows: &[Vec<u64>], upto: usize, ctx: &str) {
    let expected = views_after(upto);
    assert_eq!(db.views().count(), expected.len(), "{ctx}: view count");
    let oracle = Dataset::from_rows(DIMS, rows).unwrap();
    for (name, q) in &expected {
        let view = db
            .view(name)
            .unwrap_or_else(|_| panic!("{ctx}: lost view {name}"));
        assert_eq!(view.table(), "t", "{ctx}");
        assert_eq!(
            db.view_value(name).unwrap(),
            q.execute_full_scan(&oracle),
            "{ctx}: view {name} diverged from the durable prefix"
        );
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsunami_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create(db: &mut Database) {
    let data = Dataset::from_rows(DIMS, &base_rows()).unwrap();
    db.create_table_unnamed("t", data, &workload(), &spec())
        .unwrap();
}

/// The matrix: for every step and every crash point that step can hit,
/// crash there, reopen, and differential-check against the durable prefix.
#[test]
fn every_crash_point_recovers_exactly_the_durable_prefix() {
    let all = steps();
    for (k, step) in all.iter().enumerate() {
        for &crash in step.crash_points() {
            let ctx = format!("crash {crash:?} during step {k} ({})", step.label());
            let dir = temp_dir(&format!("{k}_{crash:?}"));
            {
                let mut db = Database::open(&dir).unwrap();
                create(&mut db);
                for prior in &all[..k] {
                    apply(&mut db, prior).unwrap();
                }
                db.set_crash_point(crash);
                let err = apply(&mut db, step);
                assert!(err.is_err(), "{ctx}: the injected crash must surface");
            } // "process" dies here

            // Whatever the crash point, the recovered state is exactly the
            // mutations committed before the crashed step — the torn /
            // unsynced / checkpoint-interrupted tail never half-applies.
            let recovered = Database::open(&dir).unwrap();
            assert_eq!(recovered.num_tables(), 1, "{ctx}");
            let table = recovered.table("t").unwrap();
            let durable_rows = oracle_after(k);
            assert_matches_oracle(&recovered, &table, &durable_rows, &ctx);
            assert_views_match_oracle(&recovered, &durable_rows, k, &ctx);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A crash while logging the initial create leaves a recoverable empty
/// database (the torn CreateTable record is amputated on replay).
#[test]
fn crash_during_create_table_recovers_to_empty() {
    for crash in [CrashPoint::MidRecord, CrashPoint::BeforeSync] {
        let dir = temp_dir(&format!("create_{crash:?}"));
        {
            let mut db = Database::open(&dir).unwrap();
            db.set_crash_point(crash);
            let data = Dataset::from_rows(DIMS, &base_rows()).unwrap();
            assert!(db
                .create_table_unnamed("t", data, &workload(), &spec())
                .is_err());
        }
        let recovered = Database::open(&dir).unwrap();
        assert_eq!(recovered.num_tables(), 0, "{crash:?}");
        assert!(recovered.table("t").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The no-crash control: the full sequence survives a clean reopen, and a
/// second reopen (replay-of-replay) is stable.
#[test]
fn clean_reopen_replays_the_full_sequence() {
    let dir = temp_dir("clean");
    {
        let mut db = Database::open(&dir).unwrap();
        create(&mut db);
        for step in &steps() {
            apply(&mut db, step).unwrap();
        }
        let table = db.table("t").unwrap();
        let rows = oracle_after(steps().len());
        assert_matches_oracle(&db, &table, &rows, "pre-crash");
        assert_views_match_oracle(&db, &rows, steps().len(), "pre-crash");
    }
    for reopen in 0..2 {
        let db = Database::open(&dir).unwrap();
        let table = db.table("t").unwrap();
        let ctx = format!("reopen {reopen}");
        let rows = oracle_after(steps().len());
        assert_matches_oracle(&db, &table, &rows, &ctx);
        assert_views_match_oracle(&db, &rows, steps().len(), &ctx);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rows in the Tsunami index's delta — ingested, answered, not yet grafted
/// into the clustered main rows.
fn delta_rows(table: &Table) -> usize {
    let index = table.index().as_any().expect("a Tsunami table");
    let tsunami: &tsunami_index::TsunamiIndex = index.downcast_ref().expect("a Tsunami table");
    tsunami.stats().delta_rows
}

/// The delta is memory-only state like the rest of the index: a crash while
/// rows sit in it (some of them tombstoned there), with or without a
/// checkpoint taken over it, loses none of them and resurrects none.
#[test]
fn crash_with_a_non_empty_delta_recovers_every_row() {
    // Default bars: nothing below escalates, so small batches stay delta.
    let spec = IndexSpec::Tsunami(TsunamiConfig::fast());
    let batch = |k: u64| -> Vec<Vec<u64>> {
        (0..60u64)
            .map(|i| vec![k * 400 + i, 3_000 + k * 60 + i, i * 131 % 10_000])
            .collect()
    };
    // Hits base rows and the first two batches' rows alike.
    let del = vec![Predicate::range(2, 0, 700).unwrap()];
    for checkpoint in [false, true] {
        for crash in [CrashPoint::MidRecord, CrashPoint::BeforeSync] {
            let ctx = format!("delta crash {crash:?}, checkpoint {checkpoint}");
            let dir = temp_dir(&format!("delta_{checkpoint}_{crash:?}"));
            let mut rows = base_rows();
            {
                let mut db = Database::open(&dir).unwrap();
                let data = Dataset::from_rows(DIMS, &rows).unwrap();
                db.create_table_unnamed("t", data, &workload(), &spec)
                    .unwrap();
                for k in 0..2 {
                    db.insert_batch("t", &batch(k)).unwrap();
                    rows.extend(batch(k));
                }
                let before = rows.len();
                db.delete("t", &del).unwrap();
                let q = Query::count(del.clone()).unwrap();
                rows.retain(|r| !q.matches_point(r));
                assert!(rows.len() < before, "{ctx}");
                if checkpoint {
                    db.checkpoint().unwrap();
                }
                db.insert_batch("t", &batch(2)).unwrap();
                rows.extend(batch(2));
                let table = db.table("t").unwrap();
                assert_eq!(delta_rows(&table), 3 * 60, "{ctx}");
                assert_matches_oracle(&db, &table, &rows, &ctx);
                db.set_crash_point(crash);
                assert!(db.insert_batch("t", &batch(3)).is_err(), "{ctx}");
            } // "process" dies here
            let recovered = Database::open(&dir).unwrap();
            let table = recovered.table("t").unwrap();
            assert_matches_oracle(&recovered, &table, &rows, &ctx);
            // Replay re-ingests what the log holds: everything without a
            // checkpoint, the one post-checkpoint batch with it (the
            // snapshot took the delta's live rows into a fresh build).
            let replayed = if checkpoint { 60 } else { 3 * 60 };
            assert_eq!(delta_rows(&table), replayed, "{ctx}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
