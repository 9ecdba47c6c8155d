//! `olap_selective` — the paper's workload.
//!
//! One in-memory `Database` table of TPC-H rows under `IndexSpec::Tsunami`,
//! its layout optimised on the sample workload; one closed-loop client
//! cycles 2,000 distinct ~1 %-selective queries (the paper's five types, all
//! five aggregations) through `Table::execute`. Each query plans ~70 ranges:
//! `tsunami-index` planning is ~90 % of the latency and the scan almost
//! none, which is exactly what `scan_wide` turns around.

use std::sync::Arc;
use std::time::Instant;

use tsunami_core::{AggResult, Query, Result};
use tsunami_engine::{Database, IndexSpec, Table};
use tsunami_workloads::tpch;

use crate::common::{
    finish_trace, index_layer_values, nproc, oracle_answers, read_layer_values, record_closed_loop,
    repeat_setup, rss_bytes, timed, traced_read, tsunami_spec, us_since, Args, ReadCounts,
};
use crate::consts::olap::{DISTINCT_QUERIES, OPS_PER_SECOND, ROWS, SETUP_REPEATS};
use crate::consts::{DATA_SEED, TABLE};
use crate::gen;
use crate::json::Json;
use crate::metrics::Outcome;
use crate::stats::percentile_of;
use crate::trace::Tracer;

pub const NAME: &str = "olap_selective";

/// Cycles `ops` reads over `queries` through `Table::execute`, checking each
/// answer; returns the per-read latencies (µs).
fn closed_loop(
    table: &Table,
    queries: &[Query],
    expected: &[AggResult],
    ops: usize,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(ops);
    for i in 0..ops {
        let k = i % queries.len();
        let start = Instant::now();
        let answer = table.execute(&queries[k]);
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

    let ((data, sample, queries), generate_s) = timed(|| {
        let data = Arc::new(tpch::generate(ROWS, DATA_SEED));
        let sample = gen::sample_workload(&data);
        let queries = gen::selective_queries(&data, DISTINCT_QUERIES, args.seed);
        (data, sample, queries)
    });
    let (expected, verify_s) = timed(|| oracle_answers(&data, &queries, nproc()));

    // Set-up: rows already generated → table built and first query answered.
    let (mut db, table) = repeat_setup(&mut outcome, SETUP_REPEATS, || {
        let mut db = Database::new();
        let table = db.create_table(
            TABLE,
            &tpch::COLUMNS,
            Arc::clone(&data),
            &sample,
            &tsunami_spec(),
        )?;
        table.execute(&queries[0])?;
        Ok((db, table))
    })?;
    // The rows are shared with the table by `Arc`, so the benchmark holds no
    // copy of its own when the resident set is read.
    let rss = rss_bytes();

    // Warm-up doubles as the correctness gate over every distinct query.
    closed_loop(&table, &queries, &expected, queries.len(), &mut outcome);

    let ops = args.scaled(OPS_PER_SECOND);
    let latencies = closed_loop(&table, &queries, &expected, ops, &mut outcome);
    let untraced_p50 = record_closed_loop(&mut outcome, &table, &latencies, rss);
    outcome.note("rows", Json::Num(ROWS as f64));
    outcome.note("distinct_queries", Json::Num(queries.len() as f64));

    if args.trace {
        let mut tracer = Tracer::new(Instant::now());
        let mut counts = ReadCounts::default();
        for i in 0..(ops / 4).max(1) {
            let k = i % queries.len();
            let answer = traced_read(&mut tracer, i as u64, &table, &queries[k], 1, &mut counts)?;
            outcome.attempted += 1;
            if answer != expected[k] {
                outcome.failed += 1;
            }
        }
        read_layer_values(&mut outcome.values, tracer.spans(), &counts, untraced_p50);
        let layers = outcome.values.get("index.plan_us").unwrap_or(0.0)
            + outcome.values.get("exec.scan_us").unwrap_or(0.0);
        outcome
            .values
            .set("engine.execute_overhead_us", untraced_p50 - layers);
        index_layer_values(&mut outcome.values, &table);

        // The paper's comparison lines on the same rows and measured stream.
        let reference_ops = (ops / 10).max(queries.len());
        let mut reference = |table_name, metric, spec: IndexSpec| -> Result<Table> {
            let other = db.create_table(
                table_name,
                &tpch::COLUMNS,
                Arc::clone(&data),
                &sample,
                &spec,
            )?;
            let lat = closed_loop(&other, &queries, &expected, reference_ops, &mut outcome);
            outcome.values.set(metric, percentile_of(&lat, 50.0));
            Ok(other)
        };
        let flood = reference("flood", "flood.query_p50_us", IndexSpec::flood())?;
        reference("fullscan", "fullscan.query_p50_us", IndexSpec::FullScan)?;
        outcome.values.set(
            "flood.index_bytes_per_row",
            flood.index().size_bytes() as f64 / flood.num_rows() as f64,
        );
        finish_trace(&mut outcome, args, NAME, tracer.spans());
    }

    outcome.values.set("workloads.generate_s", generate_s);
    outcome.values.set("bench.verify_s", verify_s);
    Ok(outcome)
}
