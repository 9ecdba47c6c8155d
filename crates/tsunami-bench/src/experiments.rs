//! One function per table/figure of the paper's evaluation (§6).
//!
//! Every function prints (and returns) a plain-text table whose rows mirror
//! the corresponding table or figure series in the paper. Query-execution
//! experiments go through the `tsunami-engine` [`tsunami_engine::Database`]
//! facade — tables are registered per index family and measured through
//! their handles. Structure-introspection rows (Table 4's Grid Tree
//! statistics, Fig 12b's predicted layout costs) still build the concrete
//! types directly, since those statistics are not part of the uniform
//! `MultiDimIndex` surface.

use crate::harness::{
    database_for, database_for_bundle, database_for_named, measure, measure_parallel, report,
    variant_specs, HarnessConfig,
};
use crate::table::{fmt_f64, Table};

use std::time::Instant;

use tsunami_core::{CostModel, Dataset, MultiDimIndex};
use tsunami_engine::{IndexSpec, Scheduler};
use tsunami_flood::FloodIndex;
use tsunami_index::augmented_grid::{optimize_layout, OptimizerKind};
use tsunami_index::{IndexVariant, TsunamiIndex};
use tsunami_workloads::{synthetic, tpch, DatasetBundle};

fn standard_bundles(config: &HarnessConfig) -> Vec<DatasetBundle> {
    DatasetBundle::standard(config.rows, config.queries_per_type, config.seed)
}

/// Table 3: dataset and query characteristics.
pub fn table3(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Table 3: Dataset and query characteristics (scaled reproduction)",
        &[
            "dataset",
            "records",
            "query types",
            "dimensions",
            "size (MiB)",
            "avg selectivity %",
        ],
    );
    for b in &bundles {
        t.add_row(vec![
            b.name.to_string(),
            b.data.len().to_string(),
            b.query_types.to_string(),
            b.data.num_dims().to_string(),
            fmt_f64(b.size_gib() * 1024.0),
            fmt_f64(b.average_selectivity() * 100.0),
        ]);
    }
    finish(t)
}

/// Table 4: index statistics after optimization (Tsunami structure vs Flood
/// cell counts).
pub fn table4(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Table 4: Index statistics after optimization",
        &[
            "dataset",
            "GT nodes",
            "GT depth",
            "leaf regions",
            "gridded regions",
            "min pts/region",
            "median pts/region",
            "max pts/region",
            "avg FMs/region",
            "avg CCDFs/region",
            "Tsunami cells",
            "Flood cells",
        ],
    );
    let cost = CostModel::default();
    for b in &bundles {
        let tsunami =
            TsunamiIndex::build_with_cost(&b.data, &b.workload, &cost, &config.tsunami_config())
                .expect("tsunami build");
        let flood = FloodIndex::build(&b.data, &b.workload, &cost, &config.flood_config());
        let s = tsunami.stats();
        t.add_row(vec![
            b.name.to_string(),
            s.num_grid_tree_nodes.to_string(),
            s.grid_tree_depth.to_string(),
            s.num_leaf_regions.to_string(),
            s.gridded_regions.to_string(),
            s.min_points_per_region.to_string(),
            s.median_points_per_region.to_string(),
            s.max_points_per_region.to_string(),
            fmt_f64(s.avg_fms_per_region),
            fmt_f64(s.avg_ccdfs_per_region),
            s.total_grid_cells.to_string(),
            flood.num_cells().to_string(),
        ]);
    }
    finish(t)
}

/// Fig 7: average query latency / throughput of every index on every dataset,
/// with the shared executor's scan counters (points and contiguous ranges).
pub fn fig7(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Fig 7: Query performance (average latency in microseconds; lower is better)",
        &[
            "dataset",
            "index",
            "avg query (us)",
            "throughput (q/s)",
            "avg points scanned",
            "avg ranges scanned",
        ],
    );
    for b in &bundles {
        let db = database_for_bundle(b, &config.all_specs());
        for table in db.tables() {
            let r = report(table, &b.workload);
            t.add_row(vec![
                b.name.to_string(),
                r.name,
                fmt_f64(r.avg_query_us),
                fmt_f64(r.throughput_qps),
                fmt_f64(r.avg_points_scanned),
                fmt_f64(r.avg_ranges_scanned),
            ]);
        }
    }
    finish(t)
}

/// Parallel-executor drill-down: serial vs the persistent thread
/// pool on the learned indexes, with the executor counter invariant
/// (parallel counters equal serial counters) checked on every dataset. The
/// pooled column is what `execute_parallel` runs in production. The
/// machine-readable results land in `BENCH_pool.json` (path overridable via
/// the `BENCH_POOL_JSON` env var) so the pool's perf trajectory is tracked
/// across PRs.
pub fn fig7_parallel(config: &HarnessConfig) -> String {
    let path = std::env::var("BENCH_POOL_JSON").unwrap_or_else(|_| "BENCH_pool.json".to_string());
    fig7_parallel_impl(config, Some(std::path::Path::new(&path)))
}

fn fig7_parallel_impl(config: &HarnessConfig, json_path: Option<&std::path::Path>) -> String {
    let bundles = standard_bundles(config);
    let pool = tsunami_core::exec::pool::global();
    let threads = pool.worker_count();
    let morsel_rows = tsunami_core::exec::DEFAULT_MORSEL_ROWS;
    let mut t = Table::new(
        "Fig 7 (parallel): Serial vs pooled executor (avg query us)",
        &[
            "dataset",
            "index",
            "serial (us)",
            "pooled (us)",
            "workers",
            "morsel rows",
            "avg points scanned",
        ],
    );
    // (dataset, index, serial us, pooled us)
    let mut entries: Vec<(String, String, f64, f64)> = Vec::new();
    for b in &bundles {
        let db = database_for_bundle(b, &config.learned_specs());
        for table in db.tables() {
            let serial = measure(table.index(), &b.workload);
            let pooled = measure_parallel(table.index(), &b.workload, threads);
            assert_eq!(
                (serial.avg_points_scanned, serial.avg_ranges_scanned),
                (pooled.avg_points_scanned, pooled.avg_ranges_scanned),
                "pooled executor counters diverged from serial on {}",
                b.name
            );
            t.add_row(vec![
                b.name.to_string(),
                table.name().to_string(),
                fmt_f64(serial.avg_query_us),
                fmt_f64(pooled.avg_query_us),
                threads.to_string(),
                morsel_rows.to_string(),
                fmt_f64(serial.avg_points_scanned),
            ]);
            entries.push((
                b.name.to_string(),
                table.name().to_string(),
                serial.avg_query_us,
                pooled.avg_query_us,
            ));
        }
    }
    if let Some(path) = json_path {
        match write_bench_pool_json(
            path,
            config.rows,
            config.seed,
            threads,
            morsel_rows,
            &entries,
        ) {
            Ok(()) => eprintln!("# fig7par: wrote {}", path.display()),
            Err(e) => eprintln!("# fig7par: could not write {}: {e}", path.display()),
        }
    }
    finish(t)
}

/// Hand-rolled (the workspace is offline — no serde) machine-readable dump
/// of the parallel-executor benchmark: average query latency per
/// (dataset, index) under the serial and pooled executors, plus the pool geometry the run used.
fn write_bench_pool_json(
    path: &std::path::Path,
    rows: usize,
    seed: u64,
    workers: usize,
    morsel_rows: usize,
    entries: &[(String, String, f64, f64)],
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"fig7par\",\n  \"rows\": {rows},\n  \"seed\": {seed},\n  \
         \"workers\": {workers},\n  \"morsel_rows\": {morsel_rows},\n  \"entries\": [\n"
    ));
    for (i, (dataset, index, serial, pooled)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"dataset\": \"{dataset}\", \"index\": \"{index}\", \
             \"serial_us\": {serial:.3}, \"pooled_us\": {pooled:.3}}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// Multi-client throughput: many independent fig7-workload queries executed
/// concurrently by the engine's [`Scheduler`], sweeping the worker count.
/// This measures *inter-query* parallelism over the `Sync` store — the
/// serving-scale complement to `fig7par`'s intra-query parallelism. Since
/// the scheduler became a facade over the process-wide thread pool,
/// "workers" is the cap on concurrent drainer tasks, not a thread count —
/// speedup saturates at `min(workers, pool workers)`. A correctness check
/// compares every scheduler result against serial execution.
pub fn fig7_scheduler(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_workers = tsunami_core::exec::pool::global().worker_count();
    let mut t = Table::new(
        "Fig 7 (scheduler): Multi-client throughput over a Tsunami table (QPS vs workers)",
        &[
            "dataset",
            "workers",
            "batch QPS",
            "speedup vs 1 worker",
            "pool workers",
            "host cores",
        ],
    );
    // A batch large enough to keep every worker busy for a measurable span.
    const MIN_BATCH: usize = 512;
    for b in &bundles {
        let db = database_for_bundle(b, &[IndexSpec::Tsunami(config.tsunami_config())]);
        let table = db.table("Tsunami").expect("registered above");
        let prepared = table.prepare_workload(&b.workload).expect("validated");
        if prepared.is_empty() {
            continue;
        }
        let mut batch = Vec::with_capacity(MIN_BATCH + prepared.len());
        while batch.len() < MIN_BATCH {
            batch.extend(prepared.iter().cloned());
        }
        let mut base_qps = f64::NAN;
        for &workers in &[1usize, 2, 4, 8] {
            let scheduler = Scheduler::new(workers);
            // Warm-up, plus the correctness check: scheduler == serial.
            let warm = scheduler.execute_batch(&prepared).expect("warm-up batch");
            for (result, q) in warm.iter().zip(&prepared) {
                assert_eq!(*result, q.execute(), "scheduler diverged from serial");
            }
            let start = Instant::now();
            let results = scheduler.execute_batch(&batch).expect("measured batch");
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(results.len(), batch.len());
            let qps = batch.len() as f64 / elapsed.max(1e-12);
            if workers == 1 {
                base_qps = qps;
            }
            t.add_row(vec![
                b.name.to_string(),
                workers.to_string(),
                fmt_f64(qps),
                fmt_f64(qps / base_qps),
                pool_workers.to_string(),
                host_cores.to_string(),
            ]);
        }
    }
    finish(t)
}

/// Fig 8: index sizes.
pub fn fig8(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Fig 8: Index size in KiB (excluding data; lower is better)",
        &["dataset", "index", "size (KiB)"],
    );
    for b in &bundles {
        let db = database_for_bundle(b, &config.all_specs());
        for table in db.tables() {
            t.add_row(vec![
                b.name.to_string(),
                table.name().to_string(),
                fmt_f64(table.index().size_bytes() as f64 / 1024.0),
            ]);
        }
    }
    finish(t)
}

/// Fig 9a: adaptability to workload shift — query latency on the original
/// workload, after the shift (stale layout), and after re-optimization, plus
/// the re-optimization time. Re-optimizing is a rebuild for the new workload
/// (`Database::reindex`), as in the paper.
pub fn fig9a(config: &HarnessConfig) -> String {
    let data = tpch::generate(config.rows, config.seed);
    let original = tpch::workload(&data, config.queries_per_type, config.seed ^ 10);
    let shifted = tpch::shifted_workload(&data, config.queries_per_type, config.seed ^ 20);

    let mut t = Table::new(
        "Fig 9a: Adaptability to workload shift (TPC-H; avg query us)",
        &[
            "index",
            "original workload",
            "after shift (stale)",
            "after re-optimization",
            "re-optimization time (s)",
        ],
    );

    let specs = config.learned_specs();
    let mut db = database_for(&data, &original, &tpch::COLUMNS, &specs);
    for spec in &specs {
        let table = db.table(spec.label()).expect("registered above");
        let before = measure(table.index(), &original).avg_query_us;
        let stale = measure(table.index(), &shifted).avg_query_us;

        let t0 = Instant::now();
        let fresh = db
            .reindex(spec.label(), &shifted, spec)
            .expect("reindex for shifted workload");
        let reopt_secs = t0.elapsed().as_secs_f64();
        let after = measure(fresh.index(), &shifted).avg_query_us;

        t.add_row(vec![
            spec.label().to_string(),
            fmt_f64(before),
            fmt_f64(stale),
            fmt_f64(after),
            fmt_f64(reopt_secs),
        ]);
    }
    finish(t)
}

/// Fig 9b: index creation time, split into data-sorting and optimization,
/// plus the incremental-ingestion drill-down — ingest-vs-rebuild time and
/// post-ingest query latency across batch sizes, and the small-batch stream
/// across table sizes — written machine-readably to `BENCH_ingest.json`.
pub fn fig9b(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Fig 9b: Index creation time (seconds; sort + optimize)",
        &["dataset", "index", "sort (s)", "optimize (s)", "total (s)"],
    );
    for b in &bundles {
        let db = database_for_bundle(b, &config.all_specs());
        for table in db.tables() {
            let timing = table.index().build_timing();
            t.add_row(vec![
                b.name.to_string(),
                table.name().to_string(),
                fmt_f64(timing.sort_secs),
                fmt_f64(timing.optimize_secs),
                fmt_f64(timing.total_secs()),
            ]);
        }
    }
    let mut out = finish(t);
    out.push('\n');
    let (batches, entries) = fig9b_ingest_impl(config);
    out.push_str(&batches);
    out.push('\n');
    let (stream, streams) = fig9b_stream_impl(config, &STREAM_TABLE_ROWS);
    out.push_str(&stream);
    let path =
        std::env::var("BENCH_INGEST_JSON").unwrap_or_else(|_| "BENCH_ingest.json".to_string());
    match write_bench_ingest_json(
        std::path::Path::new(&path),
        config.rows,
        config.seed,
        &entries,
        &streams,
    ) {
        Ok(()) => eprintln!("# fig9b: wrote {path}"),
        Err(e) => eprintln!("# fig9b: could not write {path}: {e}"),
    }
    out
}

/// One `BENCH_ingest.json` batch-size entry: (index, batch %, batch rows,
/// ingest s, rebuild s, ingested us, rebuilt us).
type IngestEntry = (&'static str, f64, usize, f64, f64, f64, f64);

/// The ingest drill-down: absorb batches of 1/5/10% new TPC-H rows into a
/// built index (`TsunamiIndex::ingest` / `FloodIndex::ingest`) and compare
/// against rebuilding from the full dataset — both the adaptation time and
/// the post-ingest query latency. Every ingested index is cross-checked for
/// bit-identical results against the rebuilt one while measuring.
fn fig9b_ingest_impl(config: &HarnessConfig) -> (String, Vec<IngestEntry>) {
    let data = tpch::generate(config.rows, config.seed);
    let workload = tpch::workload(&data, config.queries_per_type, config.seed ^ 10);
    let cost = CostModel::default();
    let tsunami_config = config.tsunami_config();
    let flood_config = config.flood_config();

    let mut t = Table::new(
        "Fig 9b (ingest): Incremental ingestion vs rebuild (TPC-H)",
        &[
            "index",
            "batch %",
            "batch rows",
            "ingest (s)",
            "rebuild (s)",
            "ingest/rebuild",
            "post-ingest (us)",
            "rebuilt (us)",
        ],
    );
    let mut entries: Vec<IngestEntry> = Vec::new();

    let tsunami = TsunamiIndex::build_with_cost(&data, &workload, &cost, &tsunami_config)
        .expect("tsunami build");
    let flood = FloodIndex::build(&data, &workload, &cost, &flood_config);
    for &pct in &[1.0f64, 5.0, 10.0] {
        let m = ((config.rows as f64 * pct / 100.0) as usize).max(1);
        // New rows from the same generator, later in the stream (a disjoint
        // seed would change the distribution; real ingest continues it).
        let grown = tpch::generate(config.rows + m, config.seed);
        let batch = Dataset::from_columns(
            (0..grown.num_dims())
                .map(|d| grown.column(d)[config.rows..].to_vec())
                .collect(),
        )
        .expect("batch columns");

        for family in ["Tsunami", "Flood"] {
            let (ingested, ingest_secs, rebuilt, rebuild_secs): (
                Box<dyn tsunami_core::MultiDimIndex>,
                f64,
                Box<dyn tsunami_core::MultiDimIndex>,
                f64,
            ) = match family {
                "Tsunami" => {
                    let t0 = Instant::now();
                    let (ingested, report) = tsunami
                        .ingest_with_cost(&batch, &cost, &tsunami_config)
                        .expect("tsunami ingest");
                    let ingest_secs = t0.elapsed().as_secs_f64();
                    assert!(
                        !report.rebuilt,
                        "a ≤10% batch must not escalate to a rebuild: {report:?}"
                    );
                    let t0 = Instant::now();
                    let rebuilt =
                        TsunamiIndex::build_with_cost(&grown, &workload, &cost, &tsunami_config)
                            .expect("tsunami rebuild");
                    (
                        Box::new(ingested),
                        ingest_secs,
                        Box::new(rebuilt),
                        t0.elapsed().as_secs_f64(),
                    )
                }
                _ => {
                    let t0 = Instant::now();
                    let ingested = flood.ingest(&batch);
                    let ingest_secs = t0.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    let rebuilt = FloodIndex::build(&grown, &workload, &cost, &flood_config);
                    (
                        Box::new(ingested),
                        ingest_secs,
                        Box::new(rebuilt),
                        t0.elapsed().as_secs_f64(),
                    )
                }
            };
            // Correctness cross-check doubling as warm-up.
            for q in workload.queries().iter().step_by(5) {
                assert_eq!(
                    ingested.execute(q),
                    rebuilt.execute(q),
                    "{family} ingest diverged from rebuild on {q:?}"
                );
            }
            let ingested_us = measure(ingested.as_ref(), &workload).avg_query_us;
            let rebuilt_us = measure(rebuilt.as_ref(), &workload).avg_query_us;
            t.add_row(vec![
                family.to_string(),
                fmt_f64(pct),
                m.to_string(),
                fmt_f64(ingest_secs),
                fmt_f64(rebuild_secs),
                fmt_f64(ingest_secs / rebuild_secs.max(1e-12)),
                fmt_f64(ingested_us),
                fmt_f64(rebuilt_us),
            ]);
            entries.push((
                family,
                pct,
                m,
                ingest_secs,
                rebuild_secs,
                ingested_us,
                rebuilt_us,
            ));
        }
    }
    (finish(t), entries)
}

/// The small-batch axis: [`STREAM_BATCHES`] batches of [`STREAM_BATCH_ROWS`]
/// rows in a row, into tables of these sizes (whatever `--rows` says: the
/// point is how the cost of one small batch scales with the table).
const STREAM_TABLE_ROWS: [usize; 2] = [20_000, 200_000];
const STREAM_BATCH_ROWS: usize = 64;
const STREAM_BATCHES: usize = 48;

/// One row of the small-batch axis.
struct StreamEntry {
    table_rows: usize,
    /// Median over the batches that stayed in the delta.
    batch_p50_us: f64,
    /// Slowest batch of the stream (a graft, when there was one).
    batch_max_us: f64,
    /// Median over the batches that took a graft (0 without one).
    graft_p50_us: f64,
    grafts: usize,
    /// Rows left in the delta after the last batch.
    delta_rows: usize,
    post_stream_us: f64,
    rebuilt_us: f64,
}

/// The small-batch stream: one Tsunami index absorbs 48 batches of 64 rows —
/// the shape of `ingest_mixed`'s inserts — and each batch is timed alone.
/// Most land in the delta (O(batch), flat in the table size); one in sixteen
/// takes delta + batch over a scan block and pays the graft (O(table)), which
/// is reported apart. Answers are cross-checked while measuring: against the
/// full-scan oracle over exactly the rows ingested so far, mid-stream, and
/// against an index rebuilt over everything at the end.
fn fig9b_stream_impl(config: &HarnessConfig, table_rows: &[usize]) -> (String, Vec<StreamEntry>) {
    let cost = CostModel::default();
    let tsunami_config = config.tsunami_config();
    let mut t = Table::new(
        "Fig 9b (stream): 48 batches of 64 rows into a Tsunami index (TPC-H)",
        &[
            "table rows",
            "batch p50 (us)",
            "batch max (us)",
            "graft p50 (us)",
            "grafts",
            "final delta rows",
            "post-stream (us)",
            "rebuilt (us)",
        ],
    );
    let median = |us: &mut Vec<f64>| {
        us.sort_by(f64::total_cmp);
        us.get(us.len() / 2).copied().unwrap_or(0.0)
    };
    let mut entries = Vec::new();
    for &n in table_rows {
        let grown = tpch::generate(n + STREAM_BATCHES * STREAM_BATCH_ROWS, config.seed);
        let rows = |range: std::ops::Range<usize>| {
            let columns = (0..grown.num_dims()).map(|d| grown.column(d)[range.clone()].to_vec());
            Dataset::from_columns(columns.collect()).expect("equal-length columns")
        };
        let data = rows(0..n);
        let workload = tpch::workload(&data, config.queries_per_type, config.seed ^ 10);
        let mut index = TsunamiIndex::build_with_cost(&data, &workload, &cost, &tsunami_config)
            .expect("tsunami build");
        let (mut delta_us, mut graft_us) = (Vec::new(), Vec::new());
        for k in 0..STREAM_BATCHES {
            let end = n + (k + 1) * STREAM_BATCH_ROWS;
            let batch = rows(end - STREAM_BATCH_ROWS..end);
            let t0 = Instant::now();
            let (next, report) = index
                .ingest_with_cost(&batch, &cost, &tsunami_config)
                .expect("tsunami ingest");
            let us = t0.elapsed().as_secs_f64() * 1e6;
            assert!(!report.rebuilt, "a 64-row batch rebuilt: {report:?}");
            index = next;
            match index.stats().delta_rows {
                0 => graft_us.push(us),
                _ => delta_us.push(us),
            }
            if k % 8 == 3 {
                let oracle = rows(0..end);
                for q in workload.queries().iter().step_by(5) {
                    let expected = q.execute_full_scan(&oracle);
                    assert_eq!(index.execute(q), expected, "batch {k} diverged on {q:?}");
                }
            }
        }
        let rebuilt = TsunamiIndex::build_with_cost(&grown, &workload, &cost, &tsunami_config)
            .expect("tsunami rebuild");
        for q in workload.queries().iter().step_by(5) {
            assert_eq!(index.execute(q), rebuilt.execute(q), "diverged on {q:?}");
        }
        let entry = StreamEntry {
            table_rows: n,
            batch_max_us: delta_us
                .iter()
                .chain(&graft_us)
                .copied()
                .fold(0.0, f64::max),
            batch_p50_us: median(&mut delta_us),
            graft_p50_us: median(&mut graft_us),
            grafts: graft_us.len(),
            delta_rows: index.stats().delta_rows,
            post_stream_us: measure(&index, &workload).avg_query_us,
            rebuilt_us: measure(&rebuilt, &workload).avg_query_us,
        };
        t.add_row(vec![
            entry.table_rows.to_string(),
            fmt_f64(entry.batch_p50_us),
            fmt_f64(entry.batch_max_us),
            fmt_f64(entry.graft_p50_us),
            entry.grafts.to_string(),
            entry.delta_rows.to_string(),
            fmt_f64(entry.post_stream_us),
            fmt_f64(entry.rebuilt_us),
        ]);
        entries.push(entry);
    }
    (finish(t), entries)
}

/// Hand-rolled machine-readable dump of the ingest drill-down (the workspace
/// is offline — no serde): one line per batch-size entry, then one per
/// small-batch stream.
fn write_bench_ingest_json(
    path: &std::path::Path,
    rows: usize,
    seed: u64,
    entries: &[IngestEntry],
    streams: &[StreamEntry],
) -> std::io::Result<()> {
    let mut lines = Vec::new();
    for (index, pct, batch, ingest, rebuild, ing_us, reb_us) in entries {
        lines.push(format!(
            "    {{\"index\": \"{index}\", \"batch_pct\": {pct}, \"batch_rows\": {batch}, \
             \"ingest_secs\": {ingest:.6}, \"rebuild_secs\": {rebuild:.6}, \
             \"post_ingest_us\": {ing_us:.4}, \"rebuilt_us\": {reb_us:.4}}}"
        ));
    }
    for e in streams {
        lines.push(format!(
            "    {{\"index\": \"Tsunami\", \"stream\": \"{STREAM_BATCHES}x{STREAM_BATCH_ROWS}\", \
             \"table_rows\": {}, \"batch_p50_us\": {:.2}, \"batch_max_us\": {:.2}, \
             \"graft_p50_us\": {:.2}, \"grafts\": {}, \"delta_rows\": {}, \
             \"post_stream_us\": {:.4}, \"rebuilt_us\": {:.4}}}",
            e.table_rows,
            e.batch_p50_us,
            e.batch_max_us,
            e.graft_p50_us,
            e.grafts,
            e.delta_rows,
            e.post_stream_us,
            e.rebuilt_us,
        ));
    }
    let s = format!(
        "{{\n  \"experiment\": \"fig9b_ingest\",\n  \"rows\": {rows},\n  \"seed\": {seed},\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    );
    std::fs::write(path, s)
}

/// Fig 10: scalability with dimensionality, on uncorrelated and correlated
/// synthetic data.
pub fn fig10(config: &HarnessConfig) -> String {
    let mut t = Table::new(
        "Fig 10: Dimensionality scaling (avg query us, learned indexes)",
        &[
            "group",
            "dims",
            "index",
            "avg query (us)",
            "avg points scanned",
        ],
    );
    let rows = config.rows.min(40_000);
    for &dims in &[4usize, 8, 12, 16, 20] {
        for (group, data) in [
            (
                "uncorrelated",
                synthetic::uncorrelated(rows, dims, config.seed),
            ),
            ("correlated", synthetic::correlated(rows, dims, config.seed)),
        ] {
            let workload =
                synthetic::workload(&data, config.queries_per_type, config.seed ^ dims as u64);
            let db = database_for(&data, &workload, &[], &config.learned_specs());
            for table in db.tables() {
                let r = report(table, &workload);
                t.add_row(vec![
                    group.to_string(),
                    dims.to_string(),
                    r.name,
                    fmt_f64(r.avg_query_us),
                    fmt_f64(r.avg_points_scanned),
                ]);
            }
        }
    }
    finish(t)
}

/// Fig 11a: scalability with dataset size (TPC-H workload).
pub fn fig11a(config: &HarnessConfig) -> String {
    let mut t = Table::new(
        "Fig 11a: Dataset-size scaling (TPC-H; avg query us)",
        &["rows", "index", "avg query (us)", "avg points scanned"],
    );
    let sizes = [
        config.rows / 4,
        config.rows / 2,
        config.rows,
        config.rows * 2,
    ];
    for &rows in &sizes {
        let data = tpch::generate(rows, config.seed);
        let workload = tpch::workload(&data, config.queries_per_type, config.seed ^ 10);
        let db = database_for(&data, &workload, &tpch::COLUMNS, &config.learned_specs());
        for table in db.tables() {
            let r = report(table, &workload);
            t.add_row(vec![
                rows.to_string(),
                r.name,
                fmt_f64(r.avg_query_us),
                fmt_f64(r.avg_points_scanned),
            ]);
        }
    }
    finish(t)
}

/// Fig 11b: query-selectivity scaling on the 8-d correlated synthetic
/// dataset.
pub fn fig11b(config: &HarnessConfig) -> String {
    let mut t = Table::new(
        "Fig 11b: Selectivity scaling (8-d correlated synthetic; avg query us)",
        &[
            "selectivity scale",
            "avg selectivity %",
            "index",
            "avg query (us)",
        ],
    );
    let rows = config.rows.min(50_000);
    let data = synthetic::correlated(rows, 8, config.seed);
    let base = synthetic::workload(&data, config.queries_per_type, config.seed ^ 7);
    for &factor in &[0.1f64, 0.5, 1.0, 4.0, 16.0] {
        let workload = synthetic::scale_selectivity(&base, factor);
        let avg_sel = workload.average_selectivity(&data);
        let db = database_for(&data, &workload, &[], &config.learned_specs());
        for table in db.tables() {
            let r = report(table, &workload);
            t.add_row(vec![
                fmt_f64(factor),
                fmt_f64(avg_sel * 100.0),
                r.name,
                fmt_f64(r.avg_query_us),
            ]);
        }
    }
    finish(t)
}

/// Fig 12a: component drill-down — Flood vs Augmented-Grid-only vs
/// Grid-Tree-only vs full Tsunami, all registered as tables of one database.
pub fn fig12a(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Fig 12a: Component drill-down (avg query us)",
        &["dataset", "index", "avg query (us)"],
    );
    for b in &bundles {
        // Display names come from the built index itself
        // ("AugmentedGrid-only", "GridTree-only", ...).
        let db = database_for_named(&b.data, &b.workload, &b.columns, &variant_specs(config));
        for table in db.tables() {
            let us = measure(table.index(), &b.workload).avg_query_us;
            t.add_row(vec![
                b.name.to_string(),
                table.index().name().to_string(),
                fmt_f64(us),
            ]);
        }
    }
    finish(t)
}

/// Fig 12b: optimizer comparison — predicted cost and actual query time of
/// the Augmented Grid produced by AGD, GD, Black-Box, and AGD with naive
/// initialization.
pub fn fig12b(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Fig 12b: Augmented Grid optimizer comparison (whole-space grid)",
        &[
            "dataset",
            "optimizer",
            "predicted cost",
            "actual avg query (us)",
            "layouts evaluated",
        ],
    );
    let cost = CostModel::default();
    for b in &bundles {
        for (label, kind) in [
            ("AGD", OptimizerKind::Adaptive),
            ("GD", OptimizerKind::GradientOnly),
            ("BlackBox", OptimizerKind::BlackBox),
            ("AGD-NI", OptimizerKind::AdaptiveNaiveInit),
        ] {
            let layout =
                optimize_layout(&b.data, &b.workload, &cost, &config.tsunami_config(), kind);
            let spec = IndexSpec::Tsunami(
                config
                    .tsunami_config()
                    .with_variant(IndexVariant::AugmentedGridOnly)
                    .with_optimizer(kind),
            );
            let db = database_for_bundle(b, std::slice::from_ref(&spec));
            let table = db.table(spec.label()).expect("registered above");
            let us = measure(table.index(), &b.workload).avg_query_us;
            t.add_row(vec![
                b.name.to_string(),
                label.to_string(),
                fmt_f64(layout.predicted_cost),
                fmt_f64(us),
                layout.evaluations.to_string(),
            ]);
        }
    }
    finish(t)
}

/// Fig 12 (kernel drill-down): median ns/row of every executor kernel tier
/// over a full scan, sweeping selection density × predicate count ×
/// storage encoding (the same rows scanned plain and as bit-packed encoded
/// blocks), with the speedup over the scalar selection loop. Every
/// tier × encoding result is cross-checked against the scalar oracle on
/// plain data while measuring. The machine-readable results land in
/// `BENCH_scan.json` (path overridable via the `BENCH_SCAN_JSON` env var)
/// so the scan-kernel perf trajectory is tracked across PRs.
pub fn fig12kern(config: &HarnessConfig) -> String {
    let path = std::env::var("BENCH_SCAN_JSON").unwrap_or_else(|_| "BENCH_scan.json".to_string());
    fig12kern_impl(config, Some(std::path::Path::new(&path)))
}

fn fig12kern_impl(config: &HarnessConfig, json_path: Option<&std::path::Path>) -> String {
    use tsunami_core::exec::{execute_plan_with, ExecOptions, KernelTier, ScanPlan, ScanSource};
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{Aggregation, Dataset, Predicate, Query};
    use tsunami_store::{ColumnStore, EncodePolicy};

    // A 12-bit domain: every column's frame-of-reference deltas bit-pack,
    // so the encoded sweep measures the packed SWAR kernels against the
    // plain kernels on identical data.
    const DOMAIN: u64 = 4096;
    const PRED_DIMS: usize = 4;
    // At least a handful of blocks so the adaptive tier's estimate settles.
    let rows = config.rows.max(8 * 1024);
    let mut rng = SplitMix::new(config.seed ^ 0xf12);
    let data = Dataset::from_columns(
        (0..PRED_DIMS)
            .map(|_| (0..rows).map(|_| rng.next_below(DOMAIN)).collect())
            .collect(),
    )
    .expect("uniform columns");
    // The encoded twin: same rows, packed into per-block encodings (an
    // explicit policy so env knobs can't silently skew the comparison).
    let mut store = ColumnStore::from_dataset(&data);
    store.encode_blocks_with(&EncodePolicy::default());
    let plan = ScanPlan::full(rows);

    let mut t = Table::new(
        "Fig 12 (kernels): executor kernel tiers (median ns/row; speedup vs scalar)",
        &[
            "selectivity %",
            "predicates",
            "agg",
            "encoding",
            "tier",
            "median ns/row",
            "speedup vs scalar",
        ],
    );
    // (selectivity %, predicates, agg label, encoding, tier label, median ns/row)
    let mut entries: Vec<(f64, usize, &'static str, &'static str, &'static str, f64)> = Vec::new();
    let reps = 5;
    // First-predicate ranges hitting the target selection densities exactly
    // (values are uniform below DOMAIN; the 0% range lies outside it).
    let sweeps: [(f64, u64, u64); 5] = [
        (0.0, DOMAIN, DOMAIN),
        (1.0, 0, DOMAIN / 100 - 1),
        (50.0, 0, DOMAIN / 2 - 1),
        (99.0, 0, DOMAIN / 100 * 99 - 1),
        (100.0, 0, DOMAIN),
    ];
    for (sel_pct, lo, hi) in sweeps {
        for npreds in 1..=PRED_DIMS {
            // Predicate 1 sets the density; the rest are full-range (always
            // true) so refinement work scales with the predicate count while
            // the density stays controlled.
            let mut preds = vec![Predicate::range(0, lo, hi).expect("valid sweep range")];
            for dim in 1..npreds {
                preds.push(Predicate::range(dim, 0, DOMAIN).expect("full range"));
            }
            for (agg_label, agg) in [
                ("count", Aggregation::Count),
                ("sum", Aggregation::Sum(PRED_DIMS - 1)),
            ] {
                let q = Query::new(preds.clone(), agg).expect("valid query");
                let run = |source: &dyn ScanSource, tier| {
                    let opts = ExecOptions {
                        tier,
                        ..ExecOptions::default()
                    };
                    execute_plan_with(source, &q, &plan, &opts)
                };
                let scalar_result = run(&data, KernelTier::Scalar);
                let sources: [(&'static str, &dyn ScanSource); 2] =
                    [("plain", &data), ("encoded", &store)];
                for (enc_label, source) in sources {
                    let mut scalar_ns = f64::NAN;
                    for tier in KernelTier::ALL {
                        // Warm-up doubling as the cross-check: every
                        // tier × encoding must match the plain scalar
                        // oracle, counters included.
                        assert_eq!(
                            run(source, tier),
                            scalar_result,
                            "{tier:?} on {enc_label} diverged from the scalar oracle"
                        );
                        let mut samples: Vec<f64> = (0..reps)
                            .map(|_| {
                                let start = Instant::now();
                                std::hint::black_box(run(source, tier));
                                start.elapsed().as_nanos() as f64 / rows as f64
                            })
                            .collect();
                        samples.sort_by(f64::total_cmp);
                        let median = samples[samples.len() / 2];
                        if tier == KernelTier::Scalar {
                            scalar_ns = median;
                        }
                        t.add_row(vec![
                            fmt_f64(sel_pct),
                            npreds.to_string(),
                            agg_label.to_string(),
                            enc_label.to_string(),
                            tier.label().to_string(),
                            fmt_f64(median),
                            fmt_f64(scalar_ns / median),
                        ]);
                        entries.push((sel_pct, npreds, agg_label, enc_label, tier.label(), median));
                    }
                }
            }
        }
    }
    if let Some(path) = json_path {
        match write_bench_scan_json(path, rows, config.seed, &entries) {
            Ok(()) => eprintln!("# fig12kern: wrote {}", path.display()),
            Err(e) => eprintln!("# fig12kern: could not write {}: {e}", path.display()),
        }
    }
    finish(t)
}

/// Hand-rolled (the workspace is offline — no serde) machine-readable dump of
/// the kernel microbenchmark: median ns/row per (selectivity, predicate
/// count, aggregation, kernel tier).
fn write_bench_scan_json(
    path: &std::path::Path,
    rows: usize,
    seed: u64,
    entries: &[(f64, usize, &'static str, &'static str, &'static str, f64)],
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"fig12kern\",\n  \"rows\": {rows},\n  \"seed\": {seed},\n  \"entries\": [\n"
    ));
    for (i, (sel, npreds, agg, enc, tier, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"selectivity_pct\": {sel}, \"predicates\": {npreds}, \"agg\": \"{agg}\", \
             \"encoding\": \"{enc}\", \"tier\": \"{tier}\", \
             \"median_ns_per_row\": {ns:.4}}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// Fig MV: the materialized-aggregate layer's covered-query speedup. One
/// Tsunami index, aggregate queries sweeping predicate coverage from the
/// whole domain (every region *contained* in the query, so the plan is pure
/// pre-folded per-region partials — near-O(1): zero rows visited) down to a
/// narrow band (mostly rim scanning, where the cube cannot help). Every
/// query runs against two otherwise-identical indexes, materialization on
/// and off, and the answers are cross-checked bit-identical while
/// measuring. Machine-readable results land in `BENCH_matview.json` (path
/// overridable via the `BENCH_MATVIEW_JSON` env var) and are gated by
/// `repro -- check-bench`.
pub fn figmv(config: &HarnessConfig) -> String {
    let path =
        std::env::var("BENCH_MATVIEW_JSON").unwrap_or_else(|_| "BENCH_matview.json".to_string());
    figmv_impl(config, Some(std::path::Path::new(&path)))
}

fn figmv_impl(config: &HarnessConfig, json_path: Option<&std::path::Path>) -> String {
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{Aggregation, Dataset, MultiDimIndex, Predicate, Query, Workload};

    const DOMAIN: u64 = 1 << 20;
    const DIMS: usize = 3;
    let rows = config.rows.max(8 * 1024);
    let mut rng = SplitMix::new(config.seed ^ 0x317);
    let data = Dataset::from_columns(
        (0..DIMS)
            .map(|_| (0..rows).map(|_| rng.next_below(DOMAIN)).collect())
            .collect(),
    )
    .expect("uniform columns");
    // Build-time workload: bands on every dimension so the Grid Tree
    // actually partitions into multiple regions for the cube to pre-fold.
    let workload = Workload::new(
        (0..12usize)
            .map(|i| {
                let lo = rng.next_below(DOMAIN / 2);
                Query::count(vec![
                    Predicate::range(i % DIMS, lo, lo + DOMAIN / 8).expect("band")
                ])
                .expect("build query")
            })
            .collect(),
    );
    let cost = CostModel::default();
    let tsunami_config = config.tsunami_config();
    let mut mv = TsunamiIndex::build_with_cost(&data, &workload, &cost, &tsunami_config)
        .expect("tsunami build");
    let mut scan = TsunamiIndex::build_with_cost(&data, &workload, &cost, &tsunami_config)
        .expect("tsunami build");
    mv.set_matview(true);
    scan.set_matview(false);

    let mut t = Table::new(
        "Fig MV: materialized aggregates — covered queries vs scan (median us)",
        &[
            "coverage %",
            "agg",
            "matview (us)",
            "scan (us)",
            "speedup",
            "rows visited (mv)",
            "rows visited (scan)",
        ],
    );
    // (coverage %, agg label, mode, median us)
    let mut entries: Vec<(f64, &'static str, &'static str, f64)> = Vec::new();
    let reps = 9;
    let sweeps: [(f64, u64, u64); 4] = [
        (100.0, 0, u64::MAX),
        (50.0, 0, DOMAIN / 2 - 1),
        (10.0, 0, DOMAIN / 10 - 1),
        (1.0, 0, DOMAIN / 100 - 1),
    ];
    for (pct, lo, hi) in sweeps {
        for (agg_label, agg) in [
            ("count", Aggregation::Count),
            ("sum", Aggregation::Sum(1)),
            ("avg", Aggregation::Avg(2)),
        ] {
            let q = Query::new(vec![Predicate::range(0, lo, hi).expect("sweep range")], agg)
                .expect("sweep query");
            // Cross-check doubling as warm-up (and as the cube's lazy fold):
            // materialized and scan answers must be bit-identical.
            let (mv_res, mv_stats) = mv.execute_with_stats(&q);
            let (scan_res, scan_stats) = scan.execute_with_stats(&q);
            assert_eq!(mv_res, scan_res, "matview diverged from scan on {q:?}");
            if pct == 100.0 {
                // The near-O(1) claim: a whole-domain query is answered
                // entirely from partials — no rows visited at all.
                assert_eq!(mv_stats.points, 0, "a fully covered query must not scan");
            }
            let med = |idx: &TsunamiIndex| {
                let mut samples: Vec<f64> = (0..reps)
                    .map(|_| {
                        let start = Instant::now();
                        std::hint::black_box(idx.execute(&q));
                        start.elapsed().as_nanos() as f64 / 1_000.0
                    })
                    .collect();
                samples.sort_by(f64::total_cmp);
                samples[samples.len() / 2]
            };
            let mv_us = med(&mv);
            let scan_us = med(&scan);
            t.add_row(vec![
                fmt_f64(pct),
                agg_label.to_string(),
                fmt_f64(mv_us),
                fmt_f64(scan_us),
                fmt_f64(scan_us / mv_us.max(1e-9)),
                mv_stats.points.to_string(),
                scan_stats.points.to_string(),
            ]);
            entries.push((pct, agg_label, "matview", mv_us));
            entries.push((pct, agg_label, "scan", scan_us));
        }
    }
    if let Some(path) = json_path {
        match write_bench_matview_json(path, rows, config.seed, &entries) {
            Ok(()) => eprintln!("# figmv: wrote {}", path.display()),
            Err(e) => eprintln!("# figmv: could not write {}: {e}", path.display()),
        }
    }
    finish(t)
}

/// Hand-rolled machine-readable dump of the materialized-aggregate sweep
/// (the workspace is offline — no serde).
fn write_bench_matview_json(
    path: &std::path::Path,
    rows: usize,
    seed: u64,
    entries: &[(f64, &'static str, &'static str, f64)],
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"experiment\": \"figmv\",\n  \"rows\": {rows},\n  \"seed\": {seed},\n  \"entries\": [\n"
    ));
    for (i, (pct, agg, mode, us)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"coverage_pct\": {pct}, \"agg\": \"{agg}\", \"mode\": \"{mode}\", \
             \"median_us\": {us:.4}}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// The benchmark-regression gate behind `repro -- check-bench`.
///
/// Re-runs the fast smokes (fig12kern and figmv, writing fresh
/// `BENCH_scan.json` / `BENCH_matview.json` numbers) and compares every
/// median against the checked-in baselines under `bench-baselines/`
/// (`BENCH_scan.json` path overridable via `BENCH_BASELINE_JSON`). The
/// slower experiments are not re-run here: when a fresh `BENCH_pool.json` /
/// `BENCH_ingest.json` from an earlier `fig7par` / `fig9b` step is present
/// on disk it is gated against its committed baseline too, otherwise that
/// comparison is skipped with a note in the summary — so the full gate runs
/// in CI (which runs those experiments first) without making a local
/// `check-bench` pay for them.
///
/// Returns a human-readable summary, or an error describing every regressed
/// entry — the caller exits non-zero on `Err`.
pub fn check_bench(config: &HarnessConfig) -> std::result::Result<String, String> {
    let mut summaries = Vec::new();

    // Scan kernels: ns/row medians, max(2.5x, +0.5 ns/row).
    let current_path =
        std::env::var("BENCH_SCAN_JSON").unwrap_or_else(|_| "BENCH_scan.json".to_string());
    fig12kern(config);
    let baseline_path = std::env::var("BENCH_BASELINE_JSON")
        .unwrap_or_else(|_| "bench-baselines/BENCH_scan.json".to_string());
    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("check-bench: cannot read baseline {baseline_path}: {e}"))?;
    let current = std::fs::read_to_string(&current_path)
        .map_err(|e| format!("check-bench: cannot read current run {current_path}: {e}"))?;
    summaries.push(compare_bench_scan(&baseline, &current)?);

    // Materialized aggregates: query medians in us. Covered queries sit in
    // the single-digit-us range where timer granularity dominates, so the
    // absolute slack is a generous 50 us — the gate exists to catch the
    // cube silently falling back to full scans (a many-hundred-us jump),
    // not scheduler jitter.
    let mv_path =
        std::env::var("BENCH_MATVIEW_JSON").unwrap_or_else(|_| "BENCH_matview.json".to_string());
    figmv(config);
    let mv_baseline = std::fs::read_to_string("bench-baselines/BENCH_matview.json")
        .map_err(|e| format!("check-bench: cannot read bench-baselines/BENCH_matview.json: {e}"))?;
    let mv_current = std::fs::read_to_string(&mv_path)
        .map_err(|e| format!("check-bench: cannot read current run {mv_path}: {e}"))?;
    summaries.push(compare_bench_generic(
        "BENCH_matview",
        &mv_baseline,
        &mv_current,
        &["coverage_pct", "agg", "mode"],
        "median_us",
        50.0,
        "us",
    )?);

    // Pool and ingest: gated only when an earlier step of this run produced
    // fresh numbers (both are too slow to re-run inside the gate). The same
    // 2.5x ratio with a 100 us absolute slack — per-query averages over
    // laptop-scale datasets, noisier than the kernel medians.
    // `BENCH_ingest.json` is gated twice: the post-ingest query latency of
    // every batch size, and the delta-path cost of one 64-row batch at every
    // table size — the row that goes from ~0.1 ms to tens of ms if a small
    // batch ever moves the table again.
    let optional: [(&str, &str, &str, &[&str], &str); 3] = [
        (
            "BENCH_pool",
            "BENCH_POOL_JSON",
            "BENCH_pool.json",
            &["dataset", "index"],
            "pooled_us",
        ),
        (
            "BENCH_ingest",
            "BENCH_INGEST_JSON",
            "BENCH_ingest.json",
            &["index", "batch_pct"],
            "post_ingest_us",
        ),
        (
            "BENCH_ingest (small batches)",
            "BENCH_INGEST_JSON",
            "BENCH_ingest.json",
            &["stream", "table_rows"],
            "batch_p50_us",
        ),
    ];
    for (label, env, default, keys, value_key) in optional {
        let cur_path = std::env::var(env).unwrap_or_else(|_| default.to_string());
        let Ok(cur) = std::fs::read_to_string(&cur_path) else {
            summaries.push(format!(
                "{label}: skipped — no fresh {cur_path} in this run"
            ));
            continue;
        };
        let base_path = format!("bench-baselines/{default}");
        let base = std::fs::read_to_string(&base_path)
            .map_err(|e| format!("check-bench: cannot read baseline {base_path}: {e}"))?;
        summaries.push(compare_bench_generic(
            label, &base, &cur, keys, value_key, 100.0, "us",
        )?);
    }
    Ok(summaries.join("\n"))
}

/// Parses a one-entry-per-line bench JSON (every writer in this module
/// emits that shape) into `(label, value)` pairs, where the label joins the
/// requested key fields. Lines missing any key are skipped.
fn parse_bench_entries(json: &str, keys: &[&str], value_key: &str) -> Vec<(String, f64)> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().trim_matches('"'))
    }
    json.lines()
        .filter(|l| l.contains(&format!("\"{value_key}\"")))
        .filter_map(|l| {
            let mut label = Vec::with_capacity(keys.len());
            for key in keys {
                label.push(format!("{key}={}", field(l, key)?));
            }
            Some((label.join(" "), field(l, value_key)?.parse().ok()?))
        })
        .collect()
}

/// Compares two one-entry-per-line bench JSON contents entry by entry. An
/// entry fails when its value exceeds `max(2.5 × baseline, baseline +
/// abs_slack)` — the same tolerance shape as [`compare_bench_scan`]: the
/// 2.5x ratio is deliberately loose (medians from a shared CI container are
/// noisy; the gate catches order-of-magnitude regressions, not jitter) and
/// the absolute slack keeps near-zero entries from flapping on timer
/// granularity. Entries present in the baseline but missing from the
/// current run fail too (coverage must not silently shrink).
fn compare_bench_generic(
    name: &str,
    baseline: &str,
    current: &str,
    keys: &[&str],
    value_key: &str,
    abs_slack: f64,
    unit: &str,
) -> std::result::Result<String, String> {
    let base = parse_bench_entries(baseline, keys, value_key);
    if base.is_empty() {
        return Err(format!("check-bench: {name} baseline has no entries"));
    }
    let cur: std::collections::HashMap<String, f64> = parse_bench_entries(current, keys, value_key)
        .into_iter()
        .collect();
    let mut failures = Vec::new();
    let mut worst: Option<(f64, String)> = None;
    let compared = base.len();
    for (label, base_v) in base {
        let Some(&cur_v) = cur.get(&label) else {
            failures.push(format!(
                "{label}: present in baseline, missing from current run"
            ));
            continue;
        };
        let limit = (base_v * 2.5).max(base_v + abs_slack);
        let ratio = cur_v / base_v.max(1e-9);
        if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
            worst = Some((ratio, label.clone()));
        }
        if cur_v > limit {
            failures.push(format!(
                "{label}: {cur_v:.3} {unit} vs baseline {base_v:.3} \
                 (limit {limit:.3}, ratio {ratio:.2}x)"
            ));
        }
    }
    let (worst_ratio, worst_label) = worst.unwrap_or((0.0, "n/a".to_string()));
    if failures.is_empty() {
        Ok(format!(
            "{name}: OK — {compared} entries within tolerance \
             (max(2.5x, +{abs_slack} {unit})); worst ratio {worst_ratio:.2}x at {worst_label}"
        ))
    } else {
        Err(format!(
            "{name}: FAILED — {} of {compared} entries regressed past \
             max(2.5x baseline, baseline + {abs_slack} {unit}):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

/// One `BENCH_scan.json` entry: (selectivity %, predicates, agg, encoding,
/// tier, median ns/row).
type ScanEntry = (String, String, String, String, String, f64);

/// Parses the entries of a `BENCH_scan.json` produced by [`fig12kern`] (the
/// workspace is offline — no serde — but the writer emits one entry per
/// line, so per-line field extraction is exact). Entries written before the
/// encoding sweep existed carry no `encoding` field; they parse as
/// `"plain"` so old baselines stay comparable.
fn parse_bench_scan_entries(json: &str) -> Vec<ScanEntry> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().trim_matches('"'))
    }
    json.lines()
        .filter(|l| l.contains("\"median_ns_per_row\""))
        .filter_map(|l| {
            Some((
                field(l, "selectivity_pct")?.to_string(),
                field(l, "predicates")?.to_string(),
                field(l, "agg")?.to_string(),
                field(l, "encoding").unwrap_or("plain").to_string(),
                field(l, "tier")?.to_string(),
                field(l, "median_ns_per_row")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Compares two `BENCH_scan.json` contents entry by entry. An entry fails
/// when its median exceeds `max(2.5 × baseline, baseline + 0.5 ns/row)`:
/// the 2.5× bound is deliberately loose — the criterion-shim medians
/// (median of 5 in a shared CI container) are noisy, and the gate exists to
/// catch order-of-magnitude kernel regressions, not jitter — and the
/// 0.5 ns/row absolute slack keeps sub-nanosecond entries (dense bitmap
/// scans) from flapping on timer granularity. Entries present in the
/// baseline but missing from the current run fail too (coverage must not
/// silently shrink).
fn compare_bench_scan(baseline: &str, current: &str) -> std::result::Result<String, String> {
    let base = parse_bench_scan_entries(baseline);
    if base.is_empty() {
        return Err("check-bench: baseline has no entries".to_string());
    }
    let cur: std::collections::HashMap<(String, String, String, String, String), f64> =
        parse_bench_scan_entries(current)
            .into_iter()
            .map(|(s, p, a, e, t, ns)| ((s, p, a, e, t), ns))
            .collect();
    let mut failures = Vec::new();
    let mut worst: Option<(f64, String)> = None;
    let compared = base.len();
    for (sel, preds, agg, enc, tier, base_ns) in base {
        let label = format!("sel={sel}% preds={preds} agg={agg} encoding={enc} tier={tier}");
        let Some(&cur_ns) = cur.get(&(sel, preds, agg, enc, tier)) else {
            failures.push(format!(
                "{label}: present in baseline, missing from current run"
            ));
            continue;
        };
        let limit = (base_ns * 2.5).max(base_ns + 0.5);
        let ratio = cur_ns / base_ns.max(1e-9);
        if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
            worst = Some((ratio, label.clone()));
        }
        if cur_ns > limit {
            failures.push(format!(
                "{label}: {cur_ns:.3} ns/row vs baseline {base_ns:.3} \
                 (limit {limit:.3}, ratio {ratio:.2}x)"
            ));
        }
    }
    let (worst_ratio, worst_label) = worst.unwrap_or((0.0, "n/a".to_string()));
    if failures.is_empty() {
        Ok(format!(
            "check-bench: OK — {compared} entries within tolerance \
             (max(2.5x, +0.5 ns/row)); worst ratio {worst_ratio:.2}x at {worst_label}"
        ))
    } else {
        Err(format!(
            "check-bench: FAILED — {} of {compared} entries regressed past \
             max(2.5x baseline, baseline + 0.5 ns/row):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

/// Runs every experiment in sequence and returns the concatenated output.
pub fn all(config: &HarnessConfig) -> String {
    let mut out = String::new();
    for (name, f) in experiments() {
        let _ = name;
        out.push_str(&f(config));
        out.push('\n');
    }
    out
}

/// The registry of experiment names and functions, in paper order.
#[allow(clippy::type_complexity)]
pub fn experiments() -> Vec<(&'static str, fn(&HarnessConfig) -> String)> {
    vec![
        ("table3", table3 as fn(&HarnessConfig) -> String),
        ("table4", table4),
        ("fig7", fig7),
        ("fig7par", fig7_parallel),
        ("fig7sched", fig7_scheduler),
        ("fig7net", crate::net::fig7net),
        ("fig8", fig8),
        ("fig9a", fig9a),
        ("fig9b", fig9b),
        ("fig10", fig10),
        ("fig11a", fig11a),
        ("fig11b", fig11b),
        ("fig12a", fig12a),
        ("fig12b", fig12b),
        ("fig12kern", fig12kern),
        ("figmv", figmv),
        ("walbench", crate::wal::walbench),
    ]
}

pub(crate) fn finish(t: Table) -> String {
    let rendered = t.render();
    println!("{rendered}");
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            rows: 2_500,
            queries_per_type: 3,
            seed: 5,
        }
    }

    #[test]
    fn table3_lists_four_datasets() {
        let out = table3(&tiny());
        for name in ["TPC-H", "Taxi", "Perfmon", "Stocks"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn experiment_registry_covers_every_table_and_figure() {
        let names: Vec<&str> = experiments().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "table3",
                "table4",
                "fig7",
                "fig7par",
                "fig7sched",
                "fig7net",
                "fig8",
                "fig9a",
                "fig9b",
                "fig10",
                "fig11a",
                "fig11b",
                "fig12a",
                "fig12b",
                "fig12kern",
                "figmv",
                "walbench"
            ]
        );
    }

    #[test]
    fn fig12kern_sweeps_every_tier_and_stays_consistent() {
        // Tiny run, no JSON file: the impl itself asserts every tier matches
        // the scalar oracle while measuring.
        let cfg = HarnessConfig {
            rows: 1_000, // floored to 8 Ki rows inside
            queries_per_type: 1,
            seed: 3,
        };
        let out = fig12kern_impl(&cfg, None);
        for tier in ["scalar", "vector", "bitmap", "adaptive"] {
            assert!(out.contains(tier), "missing tier {tier} in:\n{out}");
        }
        for enc in ["plain", "encoded"] {
            assert!(out.contains(enc), "missing encoding {enc} in:\n{out}");
        }
    }

    #[test]
    fn fig9b_ingest_stays_cheaper_than_rebuild_and_consistent() {
        // Tiny run, no JSON: the impl itself cross-checks ingested results
        // against the rebuilt index while measuring.
        let cfg = HarnessConfig {
            rows: 4_000,
            queries_per_type: 3,
            seed: 11,
        };
        let (out, entries) = fig9b_ingest_impl(&cfg);
        for label in ["Tsunami", "Flood", "ingest/rebuild"] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
        assert_eq!(entries.len(), 6);
    }

    #[test]
    fn fig9b_stream_grafts_once_per_scan_block() {
        // Tiny tables: the impl cross-checks every answer while measuring;
        // what is asserted here is the shape of the stream — 48 x 64 rows is
        // three scan blocks and no graft takes more than one, so at least
        // three grafts (a region whose layout decision comes due adds an
        // early one), and under a block left in the delta.
        let cfg = HarnessConfig {
            rows: 0,
            queries_per_type: 3,
            seed: 11,
        };
        let (out, entries) = fig9b_stream_impl(&cfg, &[8_000, 16_000]);
        assert!(out.contains("graft p50"), "{out}");
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert!((3..=8).contains(&e.grafts), "{} grafts", e.grafts);
            assert!(e.delta_rows < tsunami_core::exec::BLOCK_ROWS);
            assert!(e.batch_p50_us > 0.0 && e.batch_max_us >= e.graft_p50_us);
        }
    }

    #[test]
    fn bench_ingest_json_is_well_formed() {
        let dir = std::env::temp_dir().join("tsunami_bench_ingest_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_ingest.json");
        write_bench_ingest_json(
            &path,
            5000,
            7,
            &[("Tsunami", 10.0, 500, 0.25, 1.5, 12.5, 11.0)],
            &[StreamEntry {
                table_rows: 20_000,
                batch_p50_us: 101.5,
                batch_max_us: 4_000.0,
                graft_p50_us: 3_900.0,
                grafts: 3,
                delta_rows: 0,
                post_stream_us: 5.5,
                rebuilt_us: 5.25,
            }],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"experiment\": \"fig9b_ingest\""));
        assert!(s.contains("\"index\": \"Tsunami\""));
        assert!(s.contains("\"batch_pct\": 10"));
        assert!(s.contains("\"ingest_secs\": 0.250000"));
        // Both gates find their rows, and only theirs.
        assert_eq!(
            parse_bench_entries(&s, &["index", "batch_pct"], "post_ingest_us"),
            [("index=Tsunami batch_pct=10".to_string(), 12.5)]
        );
        assert_eq!(
            parse_bench_entries(&s, &["stream", "table_rows"], "batch_p50_us"),
            [("stream=48x64 table_rows=20000".to_string(), 101.5)]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bench_scan_json_is_well_formed() {
        let dir = std::env::temp_dir().join("tsunami_bench_scan_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_scan.json");
        write_bench_scan_json(
            &path,
            1234,
            42,
            &[(50.0, 2, "count", "encoded", "bitmap", 1.5)],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"experiment\": \"fig12kern\""));
        assert!(s.contains("\"rows\": 1234"));
        assert!(s.contains("\"encoding\": \"encoded\""));
        assert!(s.contains("\"tier\": \"bitmap\""));
        assert!(s.contains("\"median_ns_per_row\": 1.5000"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn check_bench_comparison_flags_only_real_regressions() {
        let mut entries = vec![
            (50.0, 2, "count", "plain", "bitmap", 2.0),
            (0.0, 1, "sum", "encoded", "vector", 0.1),
            (99.0, 4, "count", "plain", "scalar", 8.0),
        ];
        let dir = std::env::temp_dir().join("tsunami_check_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("base.json");
        write_bench_scan_json(&base_path, 1000, 1, &entries).unwrap();
        let baseline = std::fs::read_to_string(&base_path).unwrap();

        // Identical run passes.
        let ok = compare_bench_scan(&baseline, &baseline).unwrap();
        assert!(ok.contains("OK"), "{ok}");

        // Noise within tolerance passes: 2x on a big entry, absolute slack
        // on a sub-ns entry.
        entries[0].5 = 4.0;
        entries[1].5 = 0.55;
        write_bench_scan_json(&base_path, 1000, 1, &entries).unwrap();
        let noisy = std::fs::read_to_string(&base_path).unwrap();
        assert!(compare_bench_scan(&baseline, &noisy).is_ok());

        // A >2.5x regression fails and names the entry.
        entries[2].5 = 25.0;
        write_bench_scan_json(&base_path, 1000, 1, &entries).unwrap();
        let regressed = std::fs::read_to_string(&base_path).unwrap();
        let err = compare_bench_scan(&baseline, &regressed).unwrap_err();
        assert!(err.contains("tier=scalar"), "{err}");
        assert!(err.contains("FAILED"));

        // Shrunken coverage fails.
        entries.truncate(1);
        write_bench_scan_json(&base_path, 1000, 1, &entries).unwrap();
        let shrunk = std::fs::read_to_string(&base_path).unwrap();
        let err = compare_bench_scan(&baseline, &shrunk).unwrap_err();
        assert!(err.contains("missing from current run"), "{err}");

        // An empty baseline is an error, not a pass.
        assert!(compare_bench_scan("{}", &baseline).is_err());
        std::fs::remove_file(&base_path).unwrap();
    }

    #[test]
    fn bench_scan_json_round_trips_through_the_parser() {
        let dir = std::env::temp_dir().join("tsunami_scan_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.json");
        write_bench_scan_json(
            &path,
            1000,
            1,
            &[
                (50.0, 2, "count", "encoded", "bitmap", 1.25),
                (0.0, 1, "sum", "plain", "scalar", 3.5),
            ],
        )
        .unwrap();
        let parsed = parse_bench_scan_entries(&std::fs::read_to_string(&path).unwrap());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].3, "encoded");
        assert_eq!(parsed[0].4, "bitmap");
        assert_eq!(parsed[0].5, 1.25);
        assert_eq!(parsed[1].2, "sum");
        // Pre-encoding baselines have no encoding field: default to plain.
        let legacy = "    {\"selectivity_pct\": 50, \"predicates\": 1, \"agg\": \"count\", \
                      \"tier\": \"vector\", \"median_ns_per_row\": 1.0000}\n";
        let parsed = parse_bench_scan_entries(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].3, "plain");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fig12a_reports_all_variants_for_each_dataset() {
        let mut cfg = tiny();
        cfg.rows = 2_000;
        let out = fig12a(&cfg);
        for label in ["Flood", "AugmentedGrid-only", "GridTree-only", "Tsunami"] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn fig7_scheduler_sweeps_worker_counts() {
        let mut cfg = tiny();
        cfg.rows = 2_000;
        let out = fig7_scheduler(&cfg);
        for workers in ["1", "2", "4", "8"] {
            assert!(out.contains(workers), "missing worker row {workers}");
        }
        assert!(out.contains("QPS"));
    }

    #[test]
    fn fig7_parallel_reports_serial_and_pooled_executors() {
        // Tiny run, no JSON: the impl itself asserts that the pool's
        // counters match serial while measuring.
        let mut cfg = tiny();
        cfg.rows = 2_000;
        let out = fig7_parallel_impl(&cfg, None);
        for col in ["serial (us)", "pooled (us)", "morsel rows"] {
            assert!(out.contains(col), "missing column {col} in:\n{out}");
        }
    }

    #[test]
    fn figmv_covered_queries_skip_scanning_and_stay_consistent() {
        // Tiny run, no JSON: the impl itself cross-checks every matview
        // answer against the scan index and asserts the fully covered
        // queries visit zero rows while measuring.
        let cfg = HarnessConfig {
            rows: 1_000, // floored to 8 Ki rows inside
            queries_per_type: 1,
            seed: 9,
        };
        let out = figmv_impl(&cfg, None);
        for col in ["coverage %", "matview (us)", "scan (us)", "speedup"] {
            assert!(out.contains(col), "missing column {col} in:\n{out}");
        }
        for agg in ["count", "sum", "avg"] {
            assert!(out.contains(agg), "missing agg {agg} in:\n{out}");
        }
    }

    #[test]
    fn bench_matview_json_is_well_formed() {
        let dir = std::env::temp_dir().join("tsunami_bench_matview_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_matview.json");
        write_bench_matview_json(
            &path,
            8192,
            9,
            &[
                (100.0, "count", "matview", 1.5),
                (100.0, "count", "scan", 80.0),
            ],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"experiment\": \"figmv\""));
        assert!(s.contains("\"coverage_pct\": 100"));
        assert!(s.contains("\"mode\": \"matview\""));
        assert!(s.contains("\"median_us\": 1.5000"));
        let parsed = parse_bench_entries(&s, &["coverage_pct", "agg", "mode"], "median_us");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "coverage_pct=100 agg=count mode=matview");
        assert_eq!(parsed[0].1, 1.5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generic_bench_comparison_flags_only_real_regressions() {
        let base = "    {\"a\": \"x\", \"b\": 1, \"median_us\": 10.0}\n\
                    {\"a\": \"y\", \"b\": 2, \"median_us\": 2.0}\n";
        let keys: &[&str] = &["a", "b"];
        // Identical run passes.
        assert!(compare_bench_generic("t", base, base, keys, "median_us", 50.0, "us").is_ok());
        // Within the absolute slack passes even past 2.5x on a tiny entry.
        let noisy = "    {\"a\": \"x\", \"b\": 1, \"median_us\": 24.0}\n\
                     {\"a\": \"y\", \"b\": 2, \"median_us\": 40.0}\n";
        assert!(compare_bench_generic("t", base, noisy, keys, "median_us", 50.0, "us").is_ok());
        // Past both bounds fails and names the entry.
        let bad = "    {\"a\": \"x\", \"b\": 1, \"median_us\": 500.0}\n\
                   {\"a\": \"y\", \"b\": 2, \"median_us\": 2.0}\n";
        let err = compare_bench_generic("t", base, bad, keys, "median_us", 50.0, "us").unwrap_err();
        assert!(err.contains("a=x b=1"), "{err}");
        // Shrunken coverage fails.
        let shrunk = "    {\"a\": \"x\", \"b\": 1, \"median_us\": 10.0}\n";
        let err =
            compare_bench_generic("t", base, shrunk, keys, "median_us", 50.0, "us").unwrap_err();
        assert!(err.contains("missing from current run"), "{err}");
        // An empty baseline is an error, not a pass.
        assert!(compare_bench_generic("t", "{}", base, keys, "median_us", 50.0, "us").is_err());
    }

    #[test]
    fn bench_pool_json_is_well_formed() {
        let dir = std::env::temp_dir().join("tsunami_bench_pool_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pool.json");
        write_bench_pool_json(
            &path,
            5000,
            7,
            4,
            131072,
            &[("Taxi".to_string(), "Tsunami".to_string(), 100.0, 60.0)],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("\"experiment\": \"fig7par\""));
        assert!(s.contains("\"workers\": 4"));
        assert!(s.contains("\"morsel_rows\": 131072"));
        assert!(s.contains("\"index\": \"Tsunami\""));
        assert!(s.contains("\"pooled_us\": 60.000"));
        std::fs::remove_file(&path).unwrap();
    }
}
