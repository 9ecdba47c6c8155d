//! `scan_wide` — the scan executor's workload.
//!
//! A SingleDim table larger than any cache; every query is a 25 % range on
//! the sort dimension plus two residual predicates, run through
//! `Scheduler { workers: 1, intra_query_threads: nproc }` submit→wait by one
//! closed-loop client. The plan is one binary search; `tsunami-core::exec`
//! kernels, the pool and `tsunami-store` block encoding do ~99 % of the
//! work. A Tsunami table cannot play this role at sandbox sizes — its
//! `plan()` dominates at every selectivity — which is what `olap_selective`
//! exposes. Predicted: a `plan()` optimisation moves nothing here, a kernel
//! optimisation nothing there.

use std::sync::Arc;
use std::time::Instant;

use tsunami_core::exec;
use tsunami_core::{AggResult, Query, Result, Workload};
use tsunami_engine::{Database, IndexSpec, PreparedQuery, Scheduler, SchedulerConfig, Table};
use tsunami_workloads::tpch;

use crate::common::{
    finish_trace, index_layer_values, nproc, oracle_answers, read_layer_values, record_closed_loop,
    repeat_setup, rss_bytes, store_probes, timed, traced_read, us_since, Args, ReadCounts,
};
use crate::consts::scan::{DISTINCT_QUERIES, OPS_PER_SECOND, ROWS, SAMPLE_QUERIES, SETUP_REPEATS};
use crate::consts::{DATA_SEED, TABLE};
use crate::gen::{self, ScanDomains};
use crate::json::Json;
use crate::metrics::{Outcome, Values};
use crate::stats::percentile_of;
use crate::trace::Tracer;

pub const NAME: &str = "scan_wide";

/// Cycles `ops` reads through the scheduler, submit→wait, checking each
/// answer; returns the per-read latencies (µs).
fn closed_loop(
    scheduler: &Scheduler,
    prepared: &[PreparedQuery],
    expected: &[AggResult],
    ops: usize,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(ops);
    for i in 0..ops {
        let k = i % prepared.len();
        let query = prepared[k].clone();
        let start = Instant::now();
        let answer = scheduler.submit(query).and_then(|handle| handle.wait());
        latencies.push(us_since(start));
        outcome.attempted += 1;
        if answer.ok() != Some(expected[k]) {
            outcome.failed += 1;
        }
    }
    latencies
}

pub fn run(args: &Args) -> Result<Outcome> {
    let mut outcome = Outcome::new();
    let threads = nproc();

    let ((data, sample, queries), generate_s) = timed(|| {
        let data = Arc::new(tpch::generate(ROWS, DATA_SEED));
        let domains = ScanDomains::of(&data);
        let dims = data.num_dims();
        let sample = Workload::new(gen::scan_queries(&domains, dims, SAMPLE_QUERIES, DATA_SEED));
        let queries =
            gen::scan_queries(&domains, dims, DISTINCT_QUERIES, gen::query_seed(args.seed));
        (data, sample, queries)
    });
    let (expected, verify_s) = timed(|| oracle_answers(&data, &queries, threads));

    let (_db, table, scheduler, prepared) = repeat_setup(&mut outcome, SETUP_REPEATS, || {
        let mut db = Database::new();
        let table = db.create_table(
            TABLE,
            &tpch::COLUMNS,
            Arc::clone(&data),
            &sample,
            &IndexSpec::SingleDim,
        )?;
        let scheduler = db.scheduler_with(SchedulerConfig {
            workers: 1,
            intra_query_threads: threads,
            ..SchedulerConfig::default()
        });
        let prepared = queries
            .iter()
            .map(|q| table.prepare(q.clone()))
            .collect::<Result<Vec<_>>>()?;
        scheduler.submit(prepared[0].clone())?.wait()?;
        Ok((db, table, scheduler, prepared))
    })?;
    let rss = rss_bytes();

    // Warm-up doubles as the correctness gate over every distinct query.
    closed_loop(
        &scheduler,
        &prepared,
        &expected,
        prepared.len(),
        &mut outcome,
    );

    let ops = args.scaled(OPS_PER_SECOND);
    let latencies = closed_loop(&scheduler, &prepared, &expected, ops, &mut outcome);
    let untraced_p50 = record_closed_loop(&mut outcome, &table, &latencies, rss);
    outcome.note("rows", Json::Num(ROWS as f64));
    outcome.note("distinct_queries", Json::Num(queries.len() as f64));
    outcome.note("intra_query_threads", Json::Num(threads as f64));

    if args.trace {
        let mut tracer = Tracer::new(Instant::now());
        let mut counts = ReadCounts::default();
        for i in 0..(ops / 4).max(1) {
            let k = i % queries.len();
            let answer = traced_read(
                &mut tracer,
                i as u64,
                &table,
                &queries[k],
                threads,
                &mut counts,
            )?;
            outcome.attempted += 1;
            if answer != expected[k] {
                outcome.failed += 1;
            }
        }
        read_layer_values(&mut outcome.values, tracer.spans(), &counts, untraced_p50);
        index_layer_values(&mut outcome.values, &table);
        executor_probes(
            &mut outcome.values,
            &table,
            &queries,
            &prepared,
            threads,
            untraced_p50,
        );
        store_probes(&mut outcome.values, &data, gen::SHIP_DATE);
        finish_trace(&mut outcome, args, NAME, tracer.spans());
    }

    outcome.values.set("workloads.generate_s", generate_s);
    outcome.values.set("bench.verify_s", verify_s);
    Ok(outcome)
}

/// Probes of the executor around the traced pass, on the first
/// [`PROBE_QUERIES`] distinct queries: what the scheduler adds over calling
/// the prepared query directly, what the pool buys over the serial executor,
/// and how far the scan is from a plain sequential pass over as many values.
fn executor_probes(
    values: &mut Values,
    table: &Table,
    queries: &[Query],
    prepared: &[PreparedQuery],
    threads: usize,
    scheduled_p50_us: f64,
) {
    const PROBE_QUERIES: usize = 200;
    let index = table.index();
    let p50 = |v: Vec<f64>| percentile_of(&v, 50.0);
    let n = PROBE_QUERIES.min(queries.len());

    let direct = p50(prepared[..n]
        .iter()
        .map(|pq| {
            let start = Instant::now();
            std::hint::black_box(pq.execute_parallel(threads));
            us_since(start)
        })
        .collect());
    values.set("engine.scheduler_overhead_us", scheduled_p50_us - direct);

    let (mut serial, mut pooled, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    let logical = table.dataset();
    for q in &queries[..n] {
        let plan = index.plan(q);
        let start = Instant::now();
        let (_, scanned) = std::hint::black_box(exec::execute_plan(index.source(), q, &plan));
        serial.push(us_since(start));
        let start = Instant::now();
        std::hint::black_box(exec::execute_plan_parallel(
            index.source(),
            q,
            &plan,
            threads,
        ));
        pooled.push(us_since(start));

        // The roofline: read as many plain `u64`s as the scan visited, from
        // the columns the query touches, adding them up and nothing else.
        let mut dims = q.filtered_dims();
        dims.extend(q.aggregation().input_dim());
        dims.sort_unstable();
        dims.dedup();
        let rows = scanned.points.min(logical.len());
        let start = Instant::now();
        let mut sum = 0u64;
        for &d in &dims {
            for &v in &logical.column(d)[..rows] {
                sum = sum.wrapping_add(v);
            }
        }
        std::hint::black_box(sum);
        plain.push(us_since(start));
    }
    values.set("exec.pool_speedup", p50(serial) / p50(pooled));
    let scan_p50 = values.get("exec.scan_us").unwrap_or(0.0);
    values.set("exec.roofline_frac", p50(plain) / scan_p50);
}
