//! `served_mixed` — the wire path.
//!
//! A 2-shard `ShardedDatabase` of Tsunami tables behind `Server::spawn` on
//! loopback with `ServerConfig::default()`; `nproc` `Client` connections
//! drive it **open loop**: op `i` of a step at rate `R` is due at `i / R`
//! whatever earlier ops took, latency is charged from the due time, and how
//! late the generator itself ran is reported. 95 % `Client::query`, 5 %
//! `Client::insert` of 8 rows, three steps at `{r, 2r, 4r}` ops/s. The
//! latency limit is p95 ≤ 50 ms from due time with no growing backlog
//! (achieved ≥ 0.95 × target). All ops of a run together stay under the
//! server's 8,192-op re-optimisation watermark at `run_seconds`, so the
//! daemon never fires mid-measurement.
//!
//! Codec and connection threads, scheduler queueing, scatter-gather and the
//! `RwLock` inserts take exclusively are idle in the other three workloads;
//! under load a write's O(table) ingest stalls every read behind it, which
//! only an open loop shows. Reads race inserts, so their answers are not
//! compared one by one; after the run the deterministic insert stream is
//! replayed into an unsharded full-scan oracle and every distinct query
//! (all five aggregations) must match.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use tsunami_core::{Dataset, Query, Result, TsunamiError, Workload};
use tsunami_engine::{Database, IndexSpec, ShardedDatabase, ShardedTable};
use tsunami_server::{Client, Request, Response, Server, ServerConfig, ServerHandle};
use tsunami_workloads::tpch;

use crate::common::{
    finish_trace, nproc, p50_of, record_query_latency, record_space, repeat_setup, rss_bytes,
    timed, tsunami_spec, us_since, Args,
};
use crate::consts::served::{
    BASE_RATE, DISTINCT_QUERIES, INSERT_ROWS, MIN_ACHIEVED, P95_LIMIT_US, PROBE_CALLS, RATE_STEPS,
    ROWS, SETUP_REPEATS, SHARDS, STEP_SHARE,
};
use crate::consts::{DATA_SEED, TABLE};
use crate::gen;
use crate::json::Json;
use crate::metrics::Outcome;
use crate::stats::{percentile, percentile_of, sorted};
use crate::trace::{self, Tracer};

pub const NAME: &str = "served_mixed";

/// Stream id of the traced step's inserts (the untraced steps use 1, 2, 3).
const TRACED_STREAM: u64 = 10;

fn net_err(what: &str, e: impl std::fmt::Display) -> TsunamiError {
    TsunamiError::Build(format!("{what}: {e}"))
}

type SharedDb = Arc<RwLock<ShardedDatabase>>;

fn read_db(db: &SharedDb) -> std::sync::RwLockReadGuard<'_, ShardedDatabase> {
    db.read()
        .expect("a server thread panicked holding the lock")
}

/// Set-up as the user sees it: partition and build the shards, start the
/// server, connect, answer the first query over the wire.
fn serve(data: &Dataset, sample: &Workload, first: &Query) -> Result<(SharedDb, ServerHandle)> {
    let mut sharded = ShardedDatabase::new(SHARDS);
    sharded.create_table(TABLE, &tpch::COLUMNS, data, sample, &tsunami_spec())?;
    let db = Arc::new(RwLock::new(sharded));
    let server = Server::spawn(Arc::clone(&db), ServerConfig::default())
        .map_err(|e| net_err("bind the server", e))?;
    let mut client = Client::connect(server.addr()).map_err(|e| net_err("connect", e))?;
    client
        .query(TABLE, first.predicates().to_vec(), first.aggregation())
        .map_err(|e| net_err("first query", e))?;
    Ok((db, server))
}

/// One op of a step, as the generator saw it.
struct OpRecord {
    insert: bool,
    latency_us: f64,
    lateness_us: f64,
    ok: bool,
}

/// One open-loop step's outcome.
struct Step {
    rate: u64,
    ops: Vec<OpRecord>,
    wall_s: f64,
}

impl Step {
    fn latencies(&self, class: impl Fn(&OpRecord) -> bool) -> Vec<f64> {
        sorted(
            self.ops
                .iter()
                .filter(|o| class(o))
                .map(|o| o.latency_us)
                .collect(),
        )
    }

    fn p95_all(&self) -> f64 {
        percentile(&self.latencies(|_| true), 95.0)
    }

    fn achieved_over_target(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s / self.rate as f64
    }

    fn errors(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }

    /// The latency limit, no growing backlog, and nothing refused.
    fn meets_limit(&self) -> bool {
        self.p95_all() <= P95_LIMIT_US
            && self.achieved_over_target() >= MIN_ACHIEVED
            && self.errors() == 0
    }
}

/// Drives one step: `nproc` connections share the ops round-robin. With a
/// `trace_epoch`, every op gets a root span `request { gen.wait,
/// client.query | client.insert }`, stamped from that epoch; the threads'
/// spans are returned merged.
#[allow(clippy::too_many_arguments)]
fn run_step(
    addr: SocketAddr,
    rate: u64,
    seconds: f64,
    stream: u64,
    seed: u64,
    queries: &[Query],
    base: &Dataset,
    trace_epoch: Option<Instant>,
) -> Result<(Step, Tracer)> {
    let n_ops = gen::step_ops(rate, seconds);
    let conns = nproc().min(n_ops);
    let clients = (0..conns)
        .map(|_| Client::connect(addr).map_err(|e| net_err("connect a load client", e)))
        .collect::<Result<Vec<_>>>()?;
    let epoch = Instant::now();
    let per_thread: Vec<(Vec<(usize, OpRecord)>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace_epoch.unwrap_or(epoch));
                    let mut records = Vec::with_capacity(n_ops / conns + 1);
                    for op in (c..n_ops).step_by(conns) {
                        let due = gen::due(op, rate);
                        let insert = gen::served_op_is_insert(op);
                        let wait = || {
                            if let Some(ahead) = due.checked_sub(epoch.elapsed()) {
                                std::thread::sleep(ahead);
                            }
                            epoch.elapsed()
                        };
                        let mut call = || {
                            if insert {
                                let rows = gen::insert_rows(base, seed, stream, op, INSERT_ROWS);
                                client.insert(TABLE, rows).is_ok()
                            } else {
                                let q = &queries[op % queries.len()];
                                client
                                    .query(TABLE, q.predicates().to_vec(), q.aggregation())
                                    .is_ok()
                            }
                        };
                        let (sent, ok) = if trace_epoch.is_some() {
                            tracer.root("request", op as u64, |t| {
                                let sent = t.child("gen.wait", wait);
                                let name = if insert {
                                    "client.insert"
                                } else {
                                    "client.query"
                                };
                                (sent, t.child(name, call))
                            })
                        } else {
                            (wait(), call())
                        };
                        let timing = gen::charge(due, sent, epoch.elapsed());
                        records.push((
                            op,
                            OpRecord {
                                insert,
                                latency_us: timing.latency.as_nanos() as f64 / 1e3,
                                lateness_us: timing.lateness.as_nanos() as f64 / 1e3,
                                ok,
                            },
                        ));
                    }
                    (records, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    let mut merged = Tracer::new(trace_epoch.unwrap_or(epoch));
    let mut ops: Vec<(usize, OpRecord)> = Vec::with_capacity(n_ops);
    for (records, tracer) in per_thread {
        ops.extend(records);
        merged.absorb(tracer);
    }
    ops.sort_by_key(|(op, _)| *op);
    let step = Step {
        rate,
        ops: ops.into_iter().map(|(_, r)| r).collect(),
        wall_s,
    };
    Ok((step, merged))
}

/// Every distinct query on the sharded table against the oracle.
fn mismatches(sharded: &ShardedTable, oracle: &Database, queries: &[Query]) -> Result<u64> {
    let oracle = oracle.table(TABLE)?;
    Ok(queries
        .iter()
        .filter(|q| sharded.execute(q).ok() != oracle.execute(q).ok())
        .count() as u64)
}

pub fn run(args: &Args) -> Result<Outcome> {
    let mut outcome = Outcome::new();
    let step_s = args.seconds * STEP_SHARE;

    let ((data, sample, queries), generate_s) = timed(|| {
        let data = tpch::generate(ROWS, DATA_SEED);
        let sample = gen::sample_workload(&data);
        let queries = gen::selective_queries(&data, DISTINCT_QUERIES, args.seed);
        (data, sample, queries)
    });

    let (db, mut server) = repeat_setup(&mut outcome, SETUP_REPEATS, || {
        serve(&data, &sample, &queries[0])
    })?;
    // The shards hold their own copies of the rows; the benchmark's copy is
    // dropped while the resident set is read, then generated again.
    drop(data);
    let rss = rss_bytes();
    let data = Arc::new(tpch::generate(ROWS, DATA_SEED));

    let mut steps = Vec::new();
    for (k, mult) in RATE_STEPS.iter().enumerate() {
        let rate = BASE_RATE * mult;
        let (step, _) = run_step(
            server.addr(),
            rate,
            step_s,
            1 + k as u64,
            args.seed,
            &queries,
            &data,
            None,
        )?;
        outcome.attempted += step.ops.len() as u64;
        outcome.failed += step.errors() as u64;
        steps.push(step);
    }
    let stats = server.stats();
    let values = &mut outcome.values;
    values.set("server.errors", stats.errors.load(Ordering::Relaxed) as f64);
    values.set(
        "server.queries",
        stats.queries.load(Ordering::Relaxed) as f64,
    );
    values.set(
        "server.rows_inserted",
        stats.rows_inserted.load(Ordering::Relaxed) as f64,
    );
    server.shutdown();

    let middle = &steps[1];
    let reads = middle.latencies(|o| !o.insert);
    let inserts = middle.latencies(|o| o.insert);
    let all = middle.latencies(|_| true);
    values.set("served_p50_us", percentile(&all, 50.0));
    values.set("served_p95_us", percentile(&all, 95.0));
    values.set("server.read_p95_us", percentile(&reads, 95.0));
    values.set("server.insert_p95_us", percentile(&inserts, 95.0));
    values.set("insert_p50_us", percentile(&inserts, 50.0));
    values.set("insert_p95_us", percentile(&inserts, 95.0));
    // A step shorter than 20 ops has no insert to divide by.
    if !inserts.is_empty() {
        values.set(
            "insert_rows_per_s",
            (inserts.len() * INSERT_ROWS) as f64 / (inserts.iter().sum::<f64>() / 1e6),
        );
    }
    values.set("server.p95_us_at_r", steps[0].p95_all());
    values.set("server.p95_us_at_4r", steps[2].p95_all());
    values.set(
        "server.achieved_over_target",
        steps
            .iter()
            .map(Step::achieved_over_target)
            .fold(f64::INFINITY, f64::min),
    );
    let lateness = sorted(
        steps
            .iter()
            .flat_map(|s| s.ops.iter().map(|o| o.lateness_us))
            .collect(),
    );
    values.set("server.gen_lateness_p99_us", percentile(&lateness, 99.0));
    let max_rate_ok = steps
        .iter()
        .filter(|s| s.meets_limit())
        .map(|s| s.rate)
        .max()
        .unwrap_or(0);
    values.set("served_max_rate_ok", max_rate_ok as f64);
    values.set("queries_per_s", reads.len() as f64 / middle.wall_s);
    // In due-time order, for the steady percentiles.
    let reads_in_order: Vec<f64> = middle
        .ops
        .iter()
        .filter(|o| !o.insert)
        .map(|o| o.latency_us)
        .collect();
    let (untraced_read_p50, _) = record_query_latency(&mut outcome, &reads_in_order);
    {
        let guard = read_db(&db);
        let table = guard.table(TABLE)?;
        let index_bytes: usize = table
            .shard_tables()
            .iter()
            .map(|t| t.index().size_bytes())
            .sum();
        record_space(
            &mut outcome,
            index_bytes,
            table.num_rows(),
            table.num_columns(),
            rss,
        );
    }
    outcome.note(
        "steps",
        Json::Arr(
            steps
                .iter()
                .map(|s| {
                    Json::obj([
                        ("target_ops_per_s", Json::Num(s.rate as f64)),
                        ("achieved_over_target", Json::Num(s.achieved_over_target())),
                        ("ops", Json::Num(s.ops.len() as f64)),
                        ("p95_us_from_due", Json::Num(s.p95_all())),
                        ("errors", Json::Num(s.errors() as f64)),
                        ("meets_limit", Json::Bool(s.meets_limit())),
                    ])
                })
                .collect(),
        ),
    );
    outcome.note("step_seconds", Json::Num(step_s));
    outcome.note(
        "limit",
        Json::str("p95 <= 50 ms from due time, achieved >= 0.95 x target"),
    );
    outcome.note("loop", Json::str(format!("open, {} connections", nproc())));
    outcome.note(
        "reopt_watermark",
        Json::str("ServerConfig::default() (8192 ops), not reached"),
    );

    // The oracle: the same rows unsharded, then the insert stream replayed.
    let (verified, mut verify_s) = timed(|| -> Result<Database> {
        let mut oracle = Database::new();
        oracle.create_table(
            TABLE,
            &tpch::COLUMNS,
            Arc::clone(&data),
            &sample,
            &IndexSpec::FullScan,
        )?;
        for (k, step) in steps.iter().enumerate() {
            for op in (0..step.ops.len()).filter(|&op| gen::served_op_is_insert(op)) {
                let rows = gen::insert_rows(&data, args.seed, 1 + k as u64, op, INSERT_ROWS);
                oracle.insert_batch(TABLE, &rows)?;
            }
        }
        let sharded = read_db(&db).table(TABLE)?;
        outcome.attempted += queries.len() as u64;
        outcome.failed += mismatches(&sharded, &oracle, &queries)?;
        if sharded.num_rows() != oracle.table(TABLE)?.num_rows() {
            eprintln!("{NAME}: served row count differs from the oracle's");
            outcome.checks_ok = false;
        }
        Ok(oracle)
    });
    let mut oracle = verified?;

    if args.trace {
        // A fresh server over the same shards: its watermark count restarts.
        let mut server = Server::spawn(Arc::clone(&db), ServerConfig::default())
            .map_err(|e| net_err("bind the traced server", e))?;
        let rate = BASE_RATE * RATE_STEPS[1];
        let trace_epoch = Instant::now();
        let (step, mut tracer) = run_step(
            server.addr(),
            rate,
            step_s,
            TRACED_STREAM,
            args.seed,
            &queries,
            &data,
            Some(trace_epoch),
        )?;
        outcome.attempted += step.ops.len() as u64;
        outcome.failed += step.errors() as u64;
        let traced_read_p50 = percentile(&step.latencies(|o| !o.insert), 50.0);
        outcome
            .values
            .set("bench.traced_query_p50_us", traced_read_p50);
        outcome.values.set(
            "bench.trace_overhead_frac",
            (traced_read_p50 - untraced_read_p50) / untraced_read_p50,
        );

        tracer.absorb(idle_probes(
            &mut outcome,
            &db,
            server.addr(),
            &queries,
            trace_epoch,
        )?);
        server.shutdown();

        // The traced step inserted too: bring the oracle along and re-check.
        let ((), secs) = timed(|| {
            for op in (0..step.ops.len()).filter(|&op| gen::served_op_is_insert(op)) {
                let rows = gen::insert_rows(&data, args.seed, TRACED_STREAM, op, INSERT_ROWS);
                if oracle.insert_batch(TABLE, &rows).is_err() {
                    outcome.checks_ok = false;
                }
            }
            let sharded = read_db(&db).table(TABLE);
            outcome.attempted += queries.len() as u64;
            match sharded.and_then(|s| mismatches(&s, &oracle, &queries)) {
                Ok(wrong) => outcome.failed += wrong,
                Err(_) => outcome.checks_ok = false,
            }
        });
        verify_s += secs;
        finish_trace(&mut outcome, args, NAME, tracer.spans());
    }

    outcome.values.set("workloads.generate_s", generate_s);
    outcome.values.set("bench.verify_s", verify_s);
    Ok(outcome)
}

/// The traced run's probes on one idle connection, each call in a span:
/// `probe.ping { server.ping }` for the wire and thread-wake floor, and per
/// query `probe.query { client.query, engine.sharded_execute,
/// engine.shard_execute x shards, server.codec }` — the same request over
/// the wire, straight into the scatter-gather, into each shard alone, and
/// through the codec alone. Also prices the scheduler hop on one shard.
fn idle_probes(
    outcome: &mut Outcome,
    db: &SharedDb,
    addr: SocketAddr,
    queries: &[Query],
    trace_epoch: Instant,
) -> Result<Tracer> {
    let mut client = Client::connect(addr).map_err(|e| net_err("connect the probe client", e))?;
    let sharded = read_db(db).table(TABLE)?;
    let mut tracer = Tracer::new(trace_epoch);
    // Probe requests are numbered past every step's op index.
    let first_request = 1u64 << 32;

    for i in 0..PROBE_CALLS {
        let ok = tracer.root("probe.ping", first_request + i as u64, |t| {
            t.child("server.ping", || client.ping().is_ok())
        });
        outcome.attempted += 1;
        outcome.failed += u64::from(!ok);
    }
    for i in 0..PROBE_CALLS {
        let q = &queries[i % queries.len()];
        let request = first_request + (PROBE_CALLS + i) as u64;
        let (wire, direct) = tracer.root("probe.query", request, |t| {
            let wire = t.child("client.query", || {
                client.query(TABLE, q.predicates().to_vec(), q.aggregation())
            });
            let direct = t.child("engine.sharded_execute", || sharded.execute(q));
            for shard in sharded.shard_tables() {
                let _ = t.child("engine.shard_execute", || shard.execute(q));
            }
            t.child("server.codec", || {
                let request = Request::Query {
                    table: TABLE.to_string(),
                    predicates: q.predicates().to_vec(),
                    aggregation: q.aggregation(),
                };
                let decoded = request.encode().and_then(|bytes| Request::decode(&bytes));
                let response = direct.clone().map(Response::Result);
                let echoed = response
                    .ok()
                    .map(|r| r.encode().and_then(|bytes| Response::decode(&bytes)));
                let _ = std::hint::black_box((decoded, echoed));
            });
            (wire, direct)
        });
        // Nothing writes during the probes, so the wire answer must equal
        // the direct one.
        outcome.attempted += 1;
        if wire.ok() != direct.ok() {
            outcome.failed += 1;
        }
    }

    let spans = tracer.spans().to_vec();
    let durations = trace::durations_us(&spans);
    let layer = |name: &str| p50_of(&durations, name);
    let (ping, codec, wire, direct) = (
        layer("server.ping"),
        layer("server.codec"),
        layer("client.query"),
        layer("engine.sharded_execute"),
    );
    // Per request, the slowest shard alone: what scatter-gather waits for.
    let mut slowest: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "engine.shard_execute") {
        let us = s.duration_ns() as f64 / 1e3;
        let entry = slowest.entry(s.request).or_insert(0.0);
        *entry = entry.max(us);
    }
    let slowest_p50 = percentile_of(&slowest.into_values().collect::<Vec<_>>(), 50.0);

    let values = &mut outcome.values;
    values.set("server.ping_rtt_us", ping);
    values.set("server.codec_us", codec);
    values.set("server.query_rtt_overhead_us", wire - direct);
    values.set("engine.sharded_fanout_us", direct - slowest_p50);
    // The served self-check: codec + wire floor + scatter-gather against the
    // idle round trip they are meant to explain.
    let unattributed = wire - (ping + codec + direct);
    values.set("bench.unattributed_us", unattributed);
    values.set("bench.unattributed_frac", unattributed / wire);

    // The scheduler hop, on shard 0: submit→wait against calling directly.
    let scheduler = Arc::clone(read_db(db).scheduler());
    let shard = &sharded.shard_tables()[0];
    let (mut hop, mut call) = (Vec::new(), Vec::new());
    for i in 0..PROBE_CALLS {
        let prepared = shard.prepare(queries[i % queries.len()].clone())?;
        let start = Instant::now();
        scheduler.submit(prepared.clone())?.wait()?;
        hop.push(us_since(start));
        let start = Instant::now();
        std::hint::black_box(prepared.execute());
        call.push(us_since(start));
    }
    values.set(
        "engine.scheduler_overhead_us",
        percentile_of(&hop, 50.0) - percentile_of(&call, 50.0),
    );
    Ok(tracer)
}
