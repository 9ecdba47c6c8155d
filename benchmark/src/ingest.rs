//! `ingest_mixed` — writes beside reads on the same index and store.
//!
//! A durable `Database::open(dir)` table under `IndexSpec::Tsunami`; one
//! client runs a seeded stream of 80 % reads (as `olap_selective`), 15 %
//! `insert_batch` of 64 in-distribution rows and 5 % `delete` of one
//! receipt-date day, with one `checkpoint()` two thirds through. **Flush
//! policy: fsync per mutation** — the engine's only one. After the last
//! acknowledged op the directory is copied as it lies (no close, no
//! checkpoint) and the copy is opened: that is `recovery_s`. Every read, and
//! every answer of the recovered database, is checked against an in-memory
//! `IndexSpec::FullScan` twin that received the same mutations; the twin's
//! work is outside every timed region.
//!
//! This is where a read-path gain that taxes mutation (a bigger index, a
//! costlier re-grid, cube upkeep) shows. Re-optimisations are triggered by
//! op counts, so with one client their counts repeat exactly.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tsunami_core::{CostModel, Dataset, Point, Query, Result, TsunamiError};
use tsunami_engine::{Database, IndexSpec, Table};
use tsunami_store::wal::{self, Wal, WalRecord};
use tsunami_workloads::tpch;

use crate::common::{
    as_tsunami, finish_trace, index_layer_values, p50_of, read_layer_values, record_query_latency,
    record_space, repeat_setup, rss_bytes, store_probes, timed, traced_read, tsunami_spec,
    us_since, Args, ReadCounts,
};
use crate::consts::ingest::{
    BLOCKS_PER_SECOND, CHECKPOINT_AT, DISTINCT_QUERIES, INSERT_ROWS, ROWS, SETUP_REPEATS,
};
use crate::consts::{self, DATA_SEED, TABLE};
use crate::gen::{self, MixedOp};
use crate::json::Json;
use crate::metrics::Outcome;
use crate::stats::{mean, percentile, percentile_of, sorted};
use crate::trace::{self, Tracer};

pub const NAME: &str = "ingest_mixed";

const WAL_FILE: &str = "wal.log";
const CHECKPOINT_FILE: &str = "checkpoint.db";

fn io_err(what: &str, e: std::io::Error) -> TsunamiError {
    TsunamiError::Durability(format!("{what}: {e}"))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The scratch directory of one run, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(args: &Args) -> Result<Self> {
        let dir = args
            .out
            .join(format!("scratch-{NAME}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create scratch directory", e))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The inputs every pass of the stream shares.
struct Inputs {
    data: Arc<Dataset>,
    sample: tsunami_core::Workload,
    queries: Vec<Query>,
    ops: Vec<MixedOp>,
    seed: u64,
}

/// A durable table and its full-scan twin.
struct Pair {
    dir: PathBuf,
    db: Database,
    table: Table,
    twin: Database,
    twin_table: Table,
}

impl Pair {
    /// Set-up as the user sees it: open the directory, build the table,
    /// answer the first query. The twin is built outside the timed part.
    fn durable(inputs: &Inputs, dir: PathBuf) -> Result<(Database, Table, PathBuf)> {
        let mut db = Database::open(&dir)?;
        let table = db.create_table(
            TABLE,
            &tpch::COLUMNS,
            Arc::clone(&inputs.data),
            &inputs.sample,
            &tsunami_spec(),
        )?;
        table.execute(&inputs.queries[0])?;
        Ok((db, table, dir))
    }

    fn with_twin(inputs: &Inputs, (db, table, dir): (Database, Table, PathBuf)) -> Result<Self> {
        let mut twin = Database::new();
        let twin_table = twin.create_table(
            TABLE,
            &tpch::COLUMNS,
            Arc::clone(&inputs.data),
            &inputs.sample,
            &IndexSpec::FullScan,
        )?;
        Ok(Self {
            dir,
            db,
            table,
            twin,
            twin_table,
        })
    }
}

/// What one pass of the stream measured.
#[derive(Default)]
struct Pass {
    read_us: Vec<f64>,
    insert_us: Vec<f64>,
    delete_us: Vec<f64>,
    checkpoint_s: f64,
    /// Bytes appended to `wal.log` over the pass, the checkpoint's included.
    wal_bytes: u64,
    checkpoint_bytes: u64,
    wal_commits: u64,
    regions_reoptimized: usize,
    rebuilds: usize,
    regions_compacted: usize,
    verify_s: f64,
}

/// The replay half of a traced pass: a scratch log the stream's own records
/// are appended to, and the engine's cost model.
struct Replay<'a> {
    tracer: &'a mut Tracer,
    counts: ReadCounts,
    scratch_log: Wal,
    cost: CostModel,
}

/// Runs the whole mixed stream once against `pair`. With `replay`, every op
/// is traced: reads are recomposed from their layers, and each mutation's
/// root span holds the real engine call beside the same mutation replayed
/// layer by layer, through the layers' public calls, on the pre-mutation
/// state.
fn run_stream(
    inputs: &Inputs,
    pair: &mut Pair,
    outcome: &mut Outcome,
    mut replay: Option<&mut Replay>,
) -> Result<Pass> {
    let mut pass = Pass::default();
    let wal_path = pair.dir.join(WAL_FILE);
    let mut wal_mark = file_len(&wal_path);
    let checkpoint_op = (inputs.ops.len() as f64 * CHECKPOINT_AT) as usize;
    let config = consts::tsunami_config();
    let dims = inputs.data.num_dims();
    let mut reads = 0usize;

    for (op, kind) in inputs.ops.iter().enumerate() {
        if op == checkpoint_op {
            pass.wal_bytes += file_len(&wal_path) - wal_mark;
            let (done, secs) = timed(|| pair.db.checkpoint());
            done?;
            pass.checkpoint_s = secs;
            pass.checkpoint_bytes = file_len(&pair.dir.join(CHECKPOINT_FILE));
            // The checkpoint restarts the log with one committed marker.
            pass.wal_commits += 1;
            wal_mark = 0;
        }
        outcome.attempted += 1;
        match kind {
            MixedOp::Read => {
                let query = &inputs.queries[reads % inputs.queries.len()];
                reads += 1;
                let start = Instant::now();
                let answer = match replay.as_deref_mut() {
                    Some(r) => {
                        traced_read(r.tracer, op as u64, &pair.table, query, 1, &mut r.counts)
                    }
                    None => pair.table.execute(query),
                };
                pass.read_us.push(us_since(start));
                let (expected, secs) = timed(|| pair.twin_table.execute(query));
                pass.verify_s += secs;
                if answer.ok() != expected.ok() {
                    outcome.failed += 1;
                }
            }
            MixedOp::Insert => {
                let rows = gen::insert_rows(&inputs.data, inputs.seed, 0, op, INSERT_ROWS);
                let inserted = match replay.as_deref_mut() {
                    None => {
                        let start = Instant::now();
                        let inserted = pair.db.insert_batch_with_report(TABLE, &rows);
                        pass.insert_us.push(us_since(start));
                        inserted
                    }
                    Some(r) => traced_insert(r, op as u64, &mut pair.db, &pair.table, &rows, dims),
                };
                match inserted {
                    Ok((table, report)) => {
                        pair.table = table;
                        pass.wal_commits += 1;
                        if let Some(report) = report {
                            pass.regions_reoptimized += report.regions_reoptimized;
                            pass.rebuilds += usize::from(report.rebuilt);
                        }
                    }
                    Err(_) => outcome.failed += 1,
                }
                let (twin, secs) = timed(|| pair.twin.insert_batch(TABLE, &rows));
                pair.twin_table = twin?;
                pass.verify_s += secs;
            }
            MixedOp::Delete => {
                let predicates = gen::delete_band(inputs.seed, op);
                let deleted = match replay.as_deref_mut() {
                    None => {
                        let start = Instant::now();
                        let deleted = pair.db.delete_with_count(TABLE, &predicates);
                        pass.delete_us.push(us_since(start));
                        deleted
                    }
                    Some(r) => {
                        let query = Query::count(predicates.clone())?;
                        let old = pair.table.clone();
                        let db = &mut pair.db;
                        let (compacted, deleted) =
                            r.tracer.root("request.delete", op as u64, |t| {
                                let replayed = t.child("index.delete", || {
                                    as_tsunami(&old).map(|ix| {
                                        ix.delete_where_with_cost(&query, &r.cost, &config)
                                    })
                                });
                                let deleted = t.child("engine.delete", || {
                                    db.delete_with_count(TABLE, &predicates)
                                });
                                let compacted = match &replayed {
                                    Some(Ok((_, report))) => report.regions_compacted,
                                    _ => 0,
                                };
                                (compacted, deleted)
                            });
                        pass.regions_compacted += compacted;
                        deleted
                    }
                };
                match deleted {
                    Ok((table, count)) => {
                        pair.table = table;
                        // A delete that matched nothing is not logged.
                        pass.wal_commits += u64::from(count > 0);
                    }
                    Err(_) => outcome.failed += 1,
                }
                let (twin, secs) = timed(|| pair.twin.delete(TABLE, &predicates));
                pair.twin_table = twin?;
                pass.verify_s += secs;
            }
        }
    }
    pass.wal_bytes += file_len(&wal_path) - wal_mark;
    Ok(pass)
}

/// One traced insert: `request.insert { engine.dataset_clone,
/// store.wal_append, store.wal_commit, index.ingest, engine.insert_batch }`.
/// The first four replay, on the pre-insert state and a scratch log, what
/// `Database::insert_batch` does inside; the last is the real call. The
/// replays' outputs are dropped after the root span closes.
fn traced_insert(
    r: &mut Replay,
    request: u64,
    db: &mut Database,
    table: &Table,
    rows: &[Point],
    dims: usize,
) -> Result<(Table, Option<tsunami_engine::IngestReport>)> {
    let config = consts::tsunami_config();
    let batch = Dataset::from_rows(dims, rows)?;
    let (scratch_log, cost) = (&mut r.scratch_log, &r.cost);
    let (inserted, replayed) = r.tracer.root("request.insert", request, |t| {
        let grown = t.child("engine.dataset_clone", || {
            let mut data = table.dataset().clone();
            for row in rows {
                data.push_row(row).expect("row width was validated");
            }
            data
        });
        let record = t.child("store.wal_append", || {
            let record = WalRecord::InsertBatch {
                table: TABLE.to_string(),
                rows: batch.clone(),
            };
            scratch_log.append(&record).map(|()| record)
        });
        let committed = t.child("store.wal_commit", || scratch_log.commit());
        let ingested = t.child("index.ingest", || {
            as_tsunami(table).map(|ix| ix.ingest_with_cost(&batch, cost, &config))
        });
        let inserted = t.child("engine.insert_batch", || {
            db.insert_batch_with_report(TABLE, rows)
        });
        (inserted, (grown, record, committed, ingested))
    });
    let (_grown, record, committed, _ingested) = replayed;
    record?;
    committed?;
    inserted
}

/// Copies the database directory as it lies — what a crash would leave — and
/// opens the copy. Returns the recovered database with `(open_s, recovery_s)`.
fn crash_copy_and_recover(
    pair: &Pair,
    to: &Path,
    first_query: &Query,
) -> Result<(Database, f64, f64)> {
    std::fs::create_dir_all(to).map_err(|e| io_err("create recovery directory", e))?;
    for file in [WAL_FILE, CHECKPOINT_FILE] {
        let from = pair.dir.join(file);
        if from.exists() {
            std::fs::copy(&from, to.join(file)).map_err(|e| io_err("copy database file", e))?;
        }
    }
    let start = Instant::now();
    let recovered = Database::open(to)?;
    let open_s = start.elapsed().as_secs_f64();
    recovered.table(TABLE)?.execute(first_query)?;
    Ok((recovered, open_s, start.elapsed().as_secs_f64()))
}

/// Every distinct query on `table` against the twin; returns the mismatches.
fn mismatches(table: &Table, twin: &Table, queries: &[Query]) -> u64 {
    queries
        .iter()
        .filter(|q| table.execute(q).ok() != twin.execute(q).ok())
        .count() as u64
}

pub fn run(args: &Args) -> Result<Outcome> {
    let mut outcome = Outcome::new();
    let scratch = Scratch::create(args)?;

    let (inputs, generate_s) = timed(|| {
        let data = Arc::new(tpch::generate(ROWS, DATA_SEED));
        Inputs {
            sample: gen::sample_workload(&data),
            queries: gen::selective_queries(&data, DISTINCT_QUERIES, args.seed),
            ops: gen::mixed_ops(args.scaled(BLOCKS_PER_SECOND), args.seed),
            data,
            seed: args.seed,
        }
    });

    let mut attempt = 0;
    let durable = repeat_setup(&mut outcome, SETUP_REPEATS, || {
        attempt += 1;
        Pair::durable(&inputs, scratch.0.join(format!("db{attempt}")))
    })?;
    let rss = rss_bytes();
    let mut pair = Pair::with_twin(&inputs, durable)?;

    let pass = run_stream(&inputs, &mut pair, &mut outcome, None)?;
    let mut verify_s = pass.verify_s;

    // Timed regions only: reads, mutations and the checkpoint, not the twin.
    let busy_s = (pass.read_us.iter().sum::<f64>()
        + pass.insert_us.iter().sum::<f64>()
        + pass.delete_us.iter().sum::<f64>())
        / 1e6
        + pass.checkpoint_s;
    outcome
        .values
        .set("queries_per_s", pass.read_us.len() as f64 / busy_s);
    record_query_latency(&mut outcome, &pass.read_us);
    record_space(
        &mut outcome,
        pair.table.index().size_bytes(),
        pair.table.num_rows(),
        pair.table.num_columns(),
        rss,
    );

    let inserts = sorted(pass.insert_us.clone());
    let insert_total_s = inserts.iter().sum::<f64>() / 1e6;
    let inserted_rows = inserts.len() * INSERT_ROWS;
    let user_bytes = (inserted_rows * inputs.data.num_dims() * 8) as f64;
    outcome
        .values
        .set("insert_p50_us", percentile(&inserts, 50.0));
    outcome
        .values
        .set("insert_p95_us", percentile(&inserts, 95.0));
    outcome
        .values
        .set("insert_rows_per_s", inserted_rows as f64 / insert_total_s);
    outcome.values.set(
        "wal_bytes_per_user_byte",
        (pass.wal_bytes + pass.checkpoint_bytes) as f64 / user_bytes,
    );
    outcome.values.set("store.wal_bytes", pass.wal_bytes as f64);
    outcome
        .values
        .set("store.wal_commits", pass.wal_commits as f64);
    outcome.values.set("engine.checkpoint_s", pass.checkpoint_s);
    outcome
        .values
        .set("engine.delete_us", percentile_of(&pass.delete_us, 50.0));
    outcome.values.set(
        "index.ingest_regions_reoptimized",
        pass.regions_reoptimized as f64,
    );
    outcome
        .values
        .set("index.ingest_rebuilds", pass.rebuilds as f64);

    // Crash-copy recovery, then the gate on the live and the recovered state.
    let recovered_dir = scratch.0.join("recovered");
    let (recovered, open_s, recovery_s) =
        crash_copy_and_recover(&pair, &recovered_dir, &inputs.queries[0])?;
    outcome.values.set("recovery_s", recovery_s);
    outcome.values.set("engine.open_s", open_s);
    let ((), secs) = timed(|| {
        let recovered_table = recovered.table(TABLE).expect("recovered table exists");
        for table in [&pair.table, &recovered_table] {
            outcome.attempted += inputs.queries.len() as u64;
            outcome.failed += mismatches(table, &pair.twin_table, &inputs.queries);
        }
        if recovered_table.num_rows() != pair.twin_table.num_rows() {
            eprintln!("{NAME}: recovered row count differs from the oracle's");
            outcome.checks_ok = false;
        }
    });
    verify_s += secs;
    drop(recovered);

    outcome.note(
        "flush_policy",
        Json::str("fsync per mutation (the engine's only policy)"),
    );
    outcome.note("rows_before", Json::Num(ROWS as f64));
    outcome.note("rows_after", Json::Num(pair.table.num_rows() as f64));
    outcome.note("ops", Json::Num(inputs.ops.len() as f64));
    outcome.note("insert_samples", Json::Num(inserts.len() as f64));
    outcome.note("delete_samples", Json::Num(pass.delete_us.len() as f64));
    outcome.note("insert_mean_us", Json::Num(mean(&inserts)));
    outcome.note("measured_busy_s", Json::Num(busy_s));
    outcome.note("loop", Json::str("closed, 1 client thread"));

    if args.trace {
        let untraced_read_p50 = outcome.values.get("query_p50_us").unwrap_or(0.0);
        let insert_p50 = outcome.values.get("insert_p50_us").unwrap_or(0.0);
        let (secs, spans) = traced_pass(
            &inputs,
            &scratch,
            &mut outcome,
            untraced_read_p50,
            insert_p50,
        )?;
        verify_s += secs;
        let ((), replay_s) = timed(|| {
            let _ = std::hint::black_box(wal::replay(&recovered_dir.join(WAL_FILE)));
        });
        outcome.values.set("store.wal_replay_s", replay_s);
        store_probes(&mut outcome.values, &inputs.data, gen::SHIP_DATE);
        index_layer_values(&mut outcome.values, &pair.table);
        finish_trace(&mut outcome, args, NAME, &spans);
    }

    outcome.values.set("workloads.generate_s", generate_s);
    outcome.values.set("bench.verify_s", verify_s);
    Ok(outcome)
}

/// The traced run's second pass: the same stream on a fresh durable table,
/// every op traced, then the in-memory twin that prices the engine's insert
/// without a log. Returns the oracle seconds spent and the spans.
fn traced_pass(
    inputs: &Inputs,
    scratch: &Scratch,
    outcome: &mut Outcome,
    untraced_read_p50: f64,
    untraced_insert_p50: f64,
) -> Result<(f64, Vec<crate::trace::Span>)> {
    let mut pair = Pair::with_twin(inputs, Pair::durable(inputs, scratch.0.join("traced"))?)?;
    let mut tracer = Tracer::new(Instant::now());
    let mut replay = Replay {
        tracer: &mut tracer,
        counts: ReadCounts::default(),
        scratch_log: Wal::create(&scratch.0.join("scratch.log"))?,
        cost: *pair.db.cost_model(),
    };
    let pass = run_stream(inputs, &mut pair, outcome, Some(&mut replay))?;
    let counts = replay.counts;
    let spans = tracer.spans().to_vec();
    let values = &mut outcome.values;
    read_layer_values(values, &spans, &counts, untraced_read_p50);
    values.set(
        "index.delete_regions_compacted",
        pass.regions_compacted as f64,
    );

    let durations = trace::durations_us(&spans);
    let layer = |name: &str| p50_of(&durations, name);
    let (clone, append, commit, ingest) = (
        layer("engine.dataset_clone"),
        layer("store.wal_append"),
        layer("store.wal_commit"),
        layer("index.ingest"),
    );
    values.set("engine.dataset_clone_us", clone);
    values.set("store.wal_append_us", append);
    values.set("store.wal_commit_us", commit);
    values.set("index.ingest_us", ingest);
    values.set("index.delete_us", layer("index.delete"));
    // The insert's self-check: what the replayed layers do not explain of the
    // real call, held against the real call traced and untraced.
    let real = layer("engine.insert_batch");
    let unattributed = real - (clone + append + commit + ingest);
    values.set("bench.insert_unattributed_us", unattributed);
    values.set("bench.insert_unattributed_frac", unattributed / real);
    outcome.note("traced_insert_p50_us", Json::Num(real));
    outcome.note("untraced_insert_p50_us", Json::Num(untraced_insert_p50));

    // `engine.insert_us`: the stream's mutations again on an in-memory table,
    // so no log; minus `index.ingest_us` it is the catalog swap and the clone.
    let mut memory = Database::new();
    memory.create_table(
        TABLE,
        &tpch::COLUMNS,
        Arc::clone(&inputs.data),
        &inputs.sample,
        &tsunami_spec(),
    )?;
    let mut in_memory = Vec::new();
    for (op, kind) in inputs.ops.iter().enumerate() {
        match kind {
            MixedOp::Read => {}
            MixedOp::Insert => {
                let rows = gen::insert_rows(&inputs.data, inputs.seed, 0, op, INSERT_ROWS);
                let start = Instant::now();
                memory.insert_batch(TABLE, &rows)?;
                in_memory.push(us_since(start));
            }
            MixedOp::Delete => {
                memory.delete(TABLE, &gen::delete_band(inputs.seed, op))?;
            }
        }
    }
    outcome
        .values
        .set("engine.insert_us", percentile_of(&in_memory, 50.0));
    Ok((pass.verify_s, spans))
}
