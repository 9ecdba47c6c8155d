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

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsunami_core::exec::live_dataset;
use tsunami_core::{CostModel, Dataset, MultiDimIndex, Point, Predicate};
use tsunami_engine::IndexSpec;
use tsunami_index::augmented_grid::{optimize_layout, OptimizerKind};
use tsunami_index::FloodIndex;
use tsunami_index::{TsunamiConfig, TsunamiIndex};
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
/// machine-readable results land in `BENCH_pool.json` so the pool's perf
/// trajectory is tracked across PRs.
pub fn fig7_parallel(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let pool = tsunami_core::exec::pool::global();
    let threads = pool.worker_count();
    let morsel_rows = tsunami_core::exec::DEFAULT_MORSEL_ROWS;
    let mut t = Table::new(
        &format!(
            "Fig 7 (parallel): Serial vs pooled executor (avg query us; {} kernels)",
            tsunami_core::exec::kernel_build()
        ),
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
    let mut entries = Vec::new();
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
            entries.push(pool_entry(
                b.name,
                table.name(),
                serial.avg_query_us,
                pooled.avg_query_us,
            ));
        }
    }
    write_bench_json(
        config,
        "BENCH_pool.json",
        "fig7par",
        config.rows,
        &[("workers", threads), ("morsel_rows", morsel_rows)],
        &entries,
    );
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
    let (batches, mut entries) = fig9b_ingest_impl(config);
    out.push_str(&batches);
    out.push('\n');
    let (stream, streams) = fig9b_stream_impl(config, &STREAM_TABLE_ROWS);
    out.push_str(&stream);
    entries.extend(streams.iter().map(stream_entry));
    out.push('\n');
    out.push_str(&fig9b_writes_impl(config));
    write_bench_json(
        config,
        "BENCH_ingest.json",
        "fig9b_ingest",
        config.rows,
        &[],
        &entries,
    );
    out
}

/// The ingest drill-down: absorb batches of 1/5/10% new TPC-H rows into a
/// built index (`TsunamiIndex::ingest`; Flood lays its live rows plus the
/// batch out again under its partitions, `MultiDimIndex::relayout`) and compare
/// against rebuilding from the full dataset — both the adaptation time and
/// the post-ingest query latency. Every ingested index is cross-checked for
/// bit-identical results against the rebuilt one while measuring. Returns
/// the table and one `BENCH_ingest.json` entry per (batch size, index).
fn fig9b_ingest_impl(config: &HarnessConfig) -> (String, Vec<String>) {
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
    let mut entries = Vec::new();

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
                    let source = flood.source();
                    let mut columns = live_dataset(source, 0..source.num_rows()).into_columns();
                    for (dim, column) in columns.iter_mut().enumerate() {
                        column.extend_from_slice(batch.column(dim));
                    }
                    let merged = Dataset::from_columns(columns).expect("equal-length columns");
                    let ingested = flood.relayout(&merged).expect("flood relayout");
                    let ingest_secs = t0.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    let rebuilt = FloodIndex::build(&grown, &workload, &cost, &flood_config);
                    (
                        ingested,
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
            entries.push(ingest_entry(
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
/// Writes per family in the write axis ([`fig9b_writes_impl`]).
const WRITE_INSERTS: usize = 8;
const WRITE_DELETES: usize = 5;

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

/// The median of `values` (0 for none).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// The write axis: [`WRITE_INSERTS`] inserts of [`STREAM_BATCH_ROWS`] rows,
/// then [`WRITE_DELETES`] point deletes, through `Database` into a TPC-H
/// table of `--rows` rows of every family, each write timed alone. A write
/// keeps the layout its table's build chose: Tsunami patches its delta,
/// FullScan appends or tombstones, every other family lays its rows out
/// again.
fn fig9b_writes_impl(config: &HarnessConfig) -> String {
    let n = config.rows;
    let grown = tpch::generate(n + WRITE_INSERTS * STREAM_BATCH_ROWS, config.seed);
    let columns = (0..grown.num_dims()).map(|d| grown.column(d)[..n].to_vec());
    let data = Dataset::from_columns(columns.collect()).expect("equal-length columns");
    let workload = tpch::workload(&data, config.queries_per_type, config.seed ^ 10);
    let mut specs = config.all_specs();
    specs.push(IndexSpec::FullScan);
    let mut db = database_for(&data, &workload, &[], &specs);
    let mut t = Table::new(
        "Fig 9b (writes): median write through Database (TPC-H)",
        &["index", "insert of 64 rows (ms)", "point delete (ms)"],
    );
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    for spec in &specs {
        let name = spec.label();
        let mut insert_ms: Vec<f64> = (0..WRITE_INSERTS)
            .map(|k| {
                let start = n + k * STREAM_BATCH_ROWS;
                let rows: Vec<Point> = (start..start + STREAM_BATCH_ROWS)
                    .map(|r| grown.row(r))
                    .collect();
                let t0 = Instant::now();
                db.insert_batch(name, &rows).expect("insert");
                ms(t0)
            })
            .collect();
        let mut delete_ms: Vec<f64> = (0..WRITE_DELETES)
            .map(|k| {
                let row = grown.row(k * grown.len() / WRITE_DELETES);
                let point: Vec<Predicate> = (row.iter().enumerate())
                    .map(|(dim, &v)| Predicate::eq(dim, v))
                    .collect();
                let t0 = Instant::now();
                let (_, deleted) = db.delete_with_count(name, &point).expect("delete");
                let elapsed = ms(t0);
                assert!(deleted > 0, "{name}: point delete {k} matched nothing");
                elapsed
            })
            .collect();
        t.add_row(vec![
            name.to_string(),
            fmt_f64(median(&mut insert_ms)),
            fmt_f64(median(&mut delete_ms)),
        ]);
    }
    finish(t)
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
    let rows = config.rows;
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
    let data = synthetic::correlated(config.rows, 8, config.seed);
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

/// Fig 12a: component drill-down — Flood beside the 2×2 of Tsunami's
/// components ([`variant_specs`]: Grid Tree on/off × augmented/independent
/// grids), all registered as tables of one database, with the scan counters
/// that explain each row's time.
pub fn fig12a(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Fig 12a: Component drill-down (avg query us)",
        &[
            "dataset",
            "index",
            "avg query (us)",
            "avg points scanned",
            "avg ranges scanned",
        ],
    );
    for b in &bundles {
        let db = database_for_named(&b.data, &b.workload, &b.columns, &variant_specs(config));
        for table in db.tables() {
            let m = measure(table.index(), &b.workload);
            t.add_row(vec![
                b.name.to_string(),
                table.name().to_string(),
                fmt_f64(m.avg_query_us),
                fmt_f64(m.avg_points_scanned),
                fmt_f64(m.avg_ranges_scanned),
            ]);
        }
    }
    finish(t)
}

/// Fig 12b: optimizer comparison — predicted cost and actual query time of
/// the Augmented Grid produced by AGD, GD, Black-Box, and AGD with naive
/// initialization, each measured as a one-region index (`max_tree_depth: 0`)
/// over the whole space.
pub fn fig12b(config: &HarnessConfig) -> String {
    let bundles = standard_bundles(config);
    let mut t = Table::new(
        "Fig 12b: Augmented Grid optimizer comparison (whole-space grid)",
        &[
            "dataset",
            "optimizer",
            "predicted cost",
            "actual avg query (us)",
            "actual avg points",
            "layouts evaluated",
            "layouts priced",
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
            let spec = IndexSpec::Tsunami(TsunamiConfig {
                max_tree_depth: 0,
                ..config.tsunami_config().with_optimizer(kind)
            });
            let db = database_for_bundle(b, std::slice::from_ref(&spec));
            let table = db.table(spec.label()).expect("registered above");
            let m = measure(table.index(), &b.workload);
            t.add_row(vec![
                b.name.to_string(),
                label.to_string(),
                fmt_f64(layout.predicted_cost),
                fmt_f64(m.avg_query_us),
                fmt_f64(m.avg_points_scanned),
                layout.evaluations.to_string(),
                layout.layouts_priced.to_string(),
            ]);
        }
    }
    finish(t)
}

/// Fig 12 (kernel drill-down): median ns/row of every executor kernel tier
/// over a full scan, sweeping selection density × predicate count ×
/// storage encoding (the same rows scanned plain and as bit-packed encoded
/// blocks), with the speedup over the scalar selection loop; then the
/// packed tier over plans of short ranges starting on and off the 8-row
/// grid, and over the other two pack classes. Every
/// tier × encoding result is cross-checked against the scalar oracle on
/// plain data while measuring. The machine-readable results land in
/// `BENCH_scan.json` so the scan-kernel perf trajectory is tracked across
/// PRs.
pub fn fig12kern(config: &HarnessConfig) -> String {
    use tsunami_core::exec::{
        execute_plan_with, ExecOptions, KernelTier, ScanCounters, ScanPlan, ScanSource, BLOCK_ROWS,
    };
    use tsunami_core::sample::SplitMix;
    use tsunami_core::{AggResult, Aggregation, BlockData, Dataset, PackClass, Predicate, Query};
    use tsunami_store::ColumnStore;

    // A 12-bit domain: every column's frame-of-reference deltas bit-pack,
    // so the encoded sweep measures the packed SWAR kernels against the
    // plain kernels on identical data.
    const DOMAIN: u64 = 4096;
    const PRED_DIMS: usize = 4;
    // At least a handful of blocks, so every run spans several grid chunks.
    let rows = config.rows.max(8 * 1024);
    let mut rng = SplitMix::new(config.seed ^ 0xf12);
    let data = Dataset::from_columns(
        (0..PRED_DIMS)
            .map(|_| (0..rows).map(|_| rng.next_below(DOMAIN)).collect())
            .collect(),
    )
    .expect("uniform columns");
    // The encoded twin: same rows, packed into per-block encodings.
    let mut store = ColumnStore::from_dataset(&data);
    store.encode_blocks();
    let plan = ScanPlan::full(rows);

    let mut t = Table::new(
        &format!(
            "Fig 12 (kernels): executor kernel tiers (median ns/row; speedup vs scalar; {} kernels)",
            tsunami_core::exec::kernel_build()
        ),
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
    let mut entries = Vec::new();
    // Seven timed runs per entry keep the whole sweep near 0.2 s at 20k
    // rows.
    let reps = 7;
    // Median ns per planned row (`points`) over the timed runs.
    let median_ns = |points: usize, run: &dyn Fn() -> (AggResult, ScanCounters)| {
        let mut samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run());
                start.elapsed().as_nanos() as f64 / points as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
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
                ("min", Aggregation::Min(PRED_DIMS - 1)),
                ("max", Aggregation::Max(PRED_DIMS - 1)),
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
                        let median = median_ns(rows, &|| run(source, tier));
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
                        entries.push(scan_entry(
                            sel_pct,
                            npreds,
                            agg_label,
                            enc_label,
                            tier.label(),
                            median,
                        ));
                    }
                }
            }
        }
    }

    // One packed-tier entry at 50 %: checked against the scalar oracle on
    // the plain rows, then timed per planned row on the encoded store.
    let mut packed_entry = |enc_label: &str,
                            agg_label: &str,
                            q: &Query,
                            plan: &ScanPlan,
                            data: &Dataset,
                            store: &ColumnStore| {
        let run = |source: &dyn ScanSource, tier| {
            let opts = ExecOptions {
                tier,
                ..ExecOptions::default()
            };
            execute_plan_with(source, q, plan, &opts)
        };
        let tier = KernelTier::Packed;
        assert_eq!(
            run(store, tier),
            run(data, KernelTier::Scalar),
            "{enc_label} {agg_label} diverged from the scalar oracle"
        );
        let median = median_ns(plan.total_points(), &|| run(store, tier));
        let npreds = q.predicates().len();
        t.add_row(vec![
            fmt_f64(50.0),
            npreds.to_string(),
            agg_label.to_string(),
            enc_label.to_string(),
            tier.label().to_string(),
            fmt_f64(median),
            "-".to_string(),
        ]);
        entries.push(scan_entry(
            50.0,
            npreds,
            agg_label,
            enc_label,
            tier.label(),
            median,
        ));
    };

    // Plan shape: the sweep above scans whole tables, so every chunk it
    // times starts on a block. These plans hold one range per encoded
    // block of the same FOR W15 table, 248 or 1,016 rows long, starting on
    // the block's first row (`+0`) or 3 rows past it (`+3`, which the
    // packed tier widens down to the 8-row grid), timed on the packed tier
    // under two predicates that both filter (50 %, then the second drops
    // 1/64 of the rows), so the AND of two packed masks is timed too.
    // ns/row is per planned row: a `+3` entry should read close to its
    // `+0` twin.
    let preds = vec![
        Predicate::range(0, 0, DOMAIN / 2 - 1).expect("half range"),
        Predicate::range(1, DOMAIN / 64, DOMAIN).expect("band"),
    ];
    for len in [248, 1_016] {
        for shift in [0, 3] {
            let enc_label = format!("encoded {len}-row ranges +{shift}");
            let plan = ScanPlan::from_ranges((0..rows / BLOCK_ROWS).map(|b| {
                let start = b * BLOCK_ROWS + shift;
                (start..start + len, false)
            }));
            for (agg_label, agg) in [
                ("count", Aggregation::Count),
                ("sum", Aggregation::Sum(PRED_DIMS - 1)),
                ("max", Aggregation::Max(PRED_DIMS - 1)),
            ] {
                let q = Query::new(preds.clone(), agg).expect("valid query");
                packed_entry(&enc_label, agg_label, &q, &plan, &data, &store);
            }
        }
    }

    // The tables above pack every block as FOR W15. The other two pack
    // classes get their own tables (uniform 7-bit and 24-bit domains, so
    // FOR W7 and FOR W31 blocks), timed on the packed tier at 50 %
    // selectivity: one predicate, or two that both filter (the second
    // drops 1/64 of the rows), so the AND of two packed masks is timed.
    // `max` over a uniform column prunes most blocks on their bounds once
    // the running maximum is found; `max asc` reads a column that rises
    // with the row number, whose blocks never prune, so it times the
    // packed MAX fold itself. It rises by 1/8 (W7) or 64 (W31) a row, so
    // each block spans 127 or 65,472 whatever the table's size.
    for (enc_label, domain, class, up, down) in [
        ("encoded w7", 1u64 << 7, PackClass::W7, 0, 3),
        ("encoded w31", 1 << 24, PackClass::W31, 6, 0),
    ] {
        let mut cols: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..rows).map(|_| rng.next_below(domain)).collect())
            .collect();
        cols.push((0..rows as u64).map(|i| (i << up) >> down).collect());
        let data = Dataset::from_columns(cols).expect("per-class columns");
        let mut store = ColumnStore::from_dataset(&data);
        store.encode_blocks();
        for dim in 0..data.num_dims() {
            for eb in store.column(dim).encoded_blocks() {
                assert!(
                    matches!(eb.data(), BlockData::For { class: c, .. } if *c == class),
                    "{enc_label} dim {dim} is not packed as FOR {class:?}"
                );
            }
        }
        for npreds in 1..=2 {
            let mut preds = vec![Predicate::range(0, 0, domain / 2 - 1).expect("half range")];
            if npreds == 2 {
                preds.push(Predicate::range(1, domain / 64, domain).expect("band"));
            }
            for (agg_label, agg) in [
                ("count", Aggregation::Count),
                ("sum", Aggregation::Sum(2)),
                ("max", Aggregation::Max(2)),
                ("max asc", Aggregation::Max(3)),
            ] {
                let q = Query::new(preds.clone(), agg).expect("valid query");
                packed_entry(enc_label, agg_label, &q, &plan, &data, &store);
            }
        }
    }
    write_bench_json(config, "BENCH_scan.json", "fig12kern", rows, &[], &entries);
    finish(t)
}

/// Fig MV: the materialized-aggregate layer's covered-query speedup. One
/// Tsunami index, aggregate queries sweeping predicate coverage from the
/// whole domain (every region *contained* in the query, so the plan is pure
/// pre-folded per-region partials — near-O(1): zero rows visited) down to a
/// narrow band (mostly rim scanning, where the cube cannot help). Every
/// query runs against two otherwise-identical indexes, materialization on
/// and off, and the answers are cross-checked bit-identical while
/// measuring. Machine-readable results land in `BENCH_matview.json` and are
/// gated by `repro check-bench`.
pub fn figmv(config: &HarnessConfig) -> String {
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
    let mut entries = Vec::new();
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
            entries.push(matview_entry(pct, agg_label, "matview", mv_us));
            entries.push(matview_entry(pct, agg_label, "scan", scan_us));
        }
    }
    write_bench_json(config, "BENCH_matview.json", "figmv", rows, &[], &entries);
    finish(t)
}

/// Writes one `BENCH_*.json` into `config.out`: a header naming the
/// experiment, the rows it ran at, the seed and any `extra` run geometry,
/// then one entry object per line (`entries` are the objects' field lists,
/// as the `*_entry` functions render them). Hand-rolled (the workspace is offline —
/// no serde); one entry per line is the shape [`parse_bench_entries`] reads
/// back. A failed write panics: `repro` has already created `config.out`,
/// and a run that leaves no file — or leaves an older run's in place for
/// `check-bench` to read — must not look like a run that worked.
fn write_bench_json(
    config: &HarnessConfig,
    file: &str,
    experiment: &str,
    rows: usize,
    extra: &[(&str, usize)],
    entries: &[String],
) {
    let mut s = format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"rows\": {rows},\n  \"seed\": {},\n",
        config.seed
    );
    for (key, value) in extra {
        s.push_str(&format!("  \"{key}\": {value},\n"));
    }
    let lines: Vec<String> = entries.iter().map(|e| format!("    {{{e}}}")).collect();
    s.push_str(&format!(
        "  \"entries\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    ));
    let path = config.out.join(file);
    std::fs::write(&path, s)
        .unwrap_or_else(|e| panic!("{experiment}: cannot write {}: {e}", path.display()));
    eprintln!("# {experiment}: wrote {}", path.display());
}

/// A `BENCH_scan.json` entry: median ns/row of one kernel tier.
fn scan_entry(
    sel_pct: f64,
    preds: usize,
    agg: &str,
    encoding: &str,
    tier: &str,
    ns: f64,
) -> String {
    format!(
        "\"selectivity_pct\": {sel_pct}, \"predicates\": {preds}, \"agg\": \"{agg}\", \
         \"encoding\": \"{encoding}\", \"tier\": \"{tier}\", \"median_ns_per_row\": {ns:.4}"
    )
}

/// A `BENCH_matview.json` entry: median latency with the cube on or off.
fn matview_entry(coverage_pct: f64, agg: &str, mode: &str, us: f64) -> String {
    format!(
        "\"coverage_pct\": {coverage_pct}, \"agg\": \"{agg}\", \"mode\": \"{mode}\", \
         \"median_us\": {us:.4}"
    )
}

/// A `BENCH_pool.json` entry: average query latency, serial and pooled.
fn pool_entry(dataset: &str, index: &str, serial_us: f64, pooled_us: f64) -> String {
    format!(
        "\"dataset\": \"{dataset}\", \"index\": \"{index}\", \
         \"serial_us\": {serial_us:.3}, \"pooled_us\": {pooled_us:.3}"
    )
}

/// A `BENCH_ingest.json` batch-size entry.
fn ingest_entry(
    index: &str,
    batch_pct: f64,
    batch_rows: usize,
    ingest_secs: f64,
    rebuild_secs: f64,
    post_ingest_us: f64,
    rebuilt_us: f64,
) -> String {
    format!(
        "\"index\": \"{index}\", \"batch_pct\": {batch_pct}, \"batch_rows\": {batch_rows}, \
         \"ingest_secs\": {ingest_secs:.6}, \"rebuild_secs\": {rebuild_secs:.6}, \
         \"post_ingest_us\": {post_ingest_us:.4}, \"rebuilt_us\": {rebuilt_us:.4}"
    )
}

/// A `BENCH_ingest.json` small-batch stream entry.
fn stream_entry(e: &StreamEntry) -> String {
    format!(
        "\"index\": \"Tsunami\", \"stream\": \"{STREAM_BATCHES}x{STREAM_BATCH_ROWS}\", \
         \"table_rows\": {}, \"batch_p50_us\": {:.2}, \"batch_max_us\": {:.2}, \
         \"graft_p50_us\": {:.2}, \"grafts\": {}, \"delta_rows\": {}, \
         \"post_stream_us\": {:.4}, \"rebuilt_us\": {:.4}",
        e.table_rows,
        e.batch_p50_us,
        e.batch_max_us,
        e.graft_p50_us,
        e.grafts,
        e.delta_rows,
        e.post_stream_us,
        e.rebuilt_us,
    )
}

/// One `check-bench` comparison: the file, the fields that identify an
/// entry, the field that is gated (its name says the unit), and the absolute
/// slack beside the 2.5x ratio.
struct Gate {
    file: &'static str,
    keys: &'static [&'static str],
    value_key: &'static str,
    abs_slack: f64,
    /// The experiment `check-bench` runs for fresh numbers; `None` for the
    /// sweeps too slow to run inside the gate.
    rerun: Option<Experiment>,
}

/// Everything `check-bench` gates. Kernel medians get 0.5 ns/row of slack so
/// sub-nanosecond entries (dense bitmap scans) do not flap on timer
/// granularity. Covered matview queries sit in the single-digit-us range, so
/// their slack is a generous 50 us — that gate exists to catch the cube
/// silently falling back to full scans (a many-hundred-us jump). Pool and
/// ingest are per-query averages over laptop-scale datasets, noisier than
/// the kernel medians: 100 us. `BENCH_ingest.json` is gated twice: the
/// post-ingest query latency of every batch size, and the delta-path cost of
/// one 64-row batch at every table size — the row that goes from ~0.1 ms to
/// tens of ms if a small batch ever moves the table again.
const GATES: [Gate; 5] = [
    Gate {
        file: "BENCH_scan.json",
        keys: &["selectivity_pct", "predicates", "agg", "encoding", "tier"],
        value_key: "median_ns_per_row",
        abs_slack: 0.5,
        rerun: Some(fig12kern),
    },
    Gate {
        file: "BENCH_matview.json",
        keys: &["coverage_pct", "agg", "mode"],
        value_key: "median_us",
        abs_slack: 50.0,
        rerun: Some(figmv),
    },
    Gate {
        file: "BENCH_pool.json",
        keys: &["dataset", "index"],
        value_key: "pooled_us",
        abs_slack: 100.0,
        rerun: None,
    },
    Gate {
        file: "BENCH_ingest.json",
        keys: &["index", "batch_pct"],
        value_key: "post_ingest_us",
        abs_slack: 100.0,
        rerun: None,
    },
    Gate {
        file: "BENCH_ingest.json",
        keys: &["stream", "table_rows"],
        value_key: "batch_p50_us",
        abs_slack: 100.0,
        rerun: None,
    },
];

/// The committed baselines `check-bench` compares against, relative to the
/// repository root it is run from. An experiment refreshes its own with
/// `--out bench-baselines`.
const BASELINES: &str = "bench-baselines";

/// The benchmark-regression gate behind `repro check-bench`.
///
/// Runs the fast smokes (fig12kern and figmv, writing fresh
/// `BENCH_scan.json` / `BENCH_matview.json` into `config.out`) and compares
/// every median against the checked-in twin under `bench-baselines/`. The
/// slower experiments are not re-run here: when a `BENCH_pool.json` /
/// `BENCH_ingest.json` from an earlier `fig7par` / `fig9b` step is present
/// in `config.out` it is gated against its committed baseline too, otherwise
/// that comparison is skipped with a note in the summary — so the full gate
/// runs in CI (which runs those experiments first) without making a local
/// `check-bench` pay for them.
///
/// Every gate runs, whatever an earlier one found. Returns a human-readable
/// summary, or an error naming every comparison that failed — the caller
/// exits non-zero on `Err`.
pub fn check_bench(config: &HarnessConfig) -> Result<String, String> {
    let baselines = Path::new(BASELINES);
    if same_dir(&config.out, baselines) {
        return Err(format!(
            "check-bench: --out {} is the baselines directory — the run would overwrite the \
             committed BENCH_scan.json / BENCH_matview.json and then compare them with \
             themselves; gate with another --out",
            config.out.display()
        ));
    }
    run_gates(&GATES, baselines, config)
}

/// Runs `gates` in order against the baselines in `baselines` and the
/// current files in `config.out`, re-running a gate's experiment first when
/// it has one. A failing gate does not stop the others: the error lists
/// every gate's summary, failures and passes alike.
fn run_gates(gates: &[Gate], baselines: &Path, config: &HarnessConfig) -> Result<String, String> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path)
            .map_err(|e| format!("check-bench: cannot read {}: {e}", path.display()))
    };
    let mut summaries = Vec::new();
    let mut failed = 0;
    for gate in gates {
        let current = config.out.join(gate.file);
        if let Some(run) = gate.rerun {
            run(config);
        } else if !current.exists() {
            summaries.push(format!(
                "{} {}: skipped — no {} from an earlier step of this run",
                gate.file,
                gate.value_key,
                current.display()
            ));
            continue;
        }
        let outcome = read(baselines.join(gate.file))
            .and_then(|baseline| compare_bench(gate, &baseline, &read(current)?));
        summaries.push(outcome.unwrap_or_else(|e| {
            failed += 1;
            e
        }));
    }
    let summary = summaries.join("\n");
    if failed == 0 {
        Ok(summary)
    } else {
        Err(format!(
            "check-bench: {failed} of {} gates FAILED\n{summary}",
            gates.len()
        ))
    }
}

/// Whether two paths name one directory on disk, however they are spelled
/// (`bench-baselines/`, `./bench-baselines`, a symlink). A path that does
/// not resolve is no directory's twin.
fn same_dir(a: &Path, b: &Path) -> bool {
    matches!((a.canonicalize(), b.canonicalize()), (Ok(a), Ok(b)) if a == b)
}

/// The value of the first `"key": value` in `text`, unquoted — a header
/// field of a whole bench JSON, or a field of one entry line.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses a bench JSON written by [`write_bench_json`] into `(label, value)`
/// pairs, where the label joins the requested key fields (one entry per
/// line, so per-line field extraction is exact). Lines missing any key are
/// skipped.
fn parse_bench_entries(json: &str, keys: &[&str], value_key: &str) -> Vec<(String, f64)> {
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

/// Compares two bench JSON contents. The headers must name the same
/// experiment at the same rows — medians of different-sized runs are not
/// comparable, and a file left behind by a smaller run is not this run's.
/// Then entry by entry: one fails when its value exceeds `max(2.5 ×
/// baseline, baseline + abs_slack)`. The 2.5x ratio is deliberately loose
/// (a median of a handful of samples in a shared CI container is noisy; the
/// gate catches order-of-magnitude regressions, not jitter) and the absolute
/// slack keeps near-zero entries from flapping on timer granularity. The two
/// runs must hold the same entries, key for key: one present in the baseline
/// but missing from the current run fails (coverage must not silently
/// shrink), and so does one the baseline lacks (a renamed key would
/// otherwise never be gated).
fn compare_bench(gate: &Gate, baseline: &str, current: &str) -> Result<String, String> {
    let Gate {
        file,
        keys,
        value_key,
        abs_slack,
        ..
    } = *gate;
    let name = format!("{file} {value_key}");
    for key in ["experiment", "rows"] {
        let (base, cur) = (field(baseline, key), field(current, key));
        if base.is_none() || base != cur {
            return Err(format!(
                "{name}: FAILED — header mismatch: baseline has {key} = {}, current run has \
                 {key} = {}; run at the baseline's size (or refresh the baseline, or remove a \
                 stale file)",
                base.unwrap_or("nothing"),
                cur.unwrap_or("nothing"),
            ));
        }
    }
    let base = parse_bench_entries(baseline, keys, value_key);
    if base.is_empty() {
        return Err(format!("check-bench: {name} baseline has no entries"));
    }
    let current = parse_bench_entries(current, keys, value_key);
    let base_labels: std::collections::HashSet<&str> =
        base.iter().map(|(label, _)| label.as_str()).collect();
    let mut failures: Vec<String> = current
        .iter()
        .filter(|(label, _)| !base_labels.contains(label.as_str()))
        .map(|(label, _)| format!("{label}: present in current run, missing from baseline"))
        .collect();
    let cur: std::collections::HashMap<String, f64> = current.into_iter().collect();
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
                "{label}: {cur_v:.3} vs baseline {base_v:.3} \
                 (limit {limit:.3}, ratio {ratio:.2}x)"
            ));
        }
    }
    let (worst_ratio, worst_label) = worst.unwrap_or((0.0, "n/a".to_string()));
    if failures.is_empty() {
        Ok(format!(
            "{name}: OK — {compared} entries within tolerance \
             (max(2.5x, +{abs_slack})); worst ratio {worst_ratio:.2}x at {worst_label}"
        ))
    } else {
        Err(format!(
            "{name}: FAILED — {} of {compared} entries regressed past \
             max(2.5x baseline, baseline + {abs_slack}):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

/// Runs every experiment in sequence; each prints its own tables.
pub fn all(config: &HarnessConfig) {
    for (_, f) in experiments() {
        f(config);
    }
}

/// An experiment: prints its table(s) and returns them.
pub type Experiment = fn(&HarnessConfig) -> String;

/// The registry of experiment names and functions, in paper order.
pub fn experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("table3", table3 as Experiment),
        ("table4", table4),
        ("fig7", fig7),
        ("fig7par", fig7_parallel),
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
    ]
}

fn finish(t: Table) -> String {
    let rendered = t.render();
    println!("{rendered}");
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of the test's own for the `BENCH_*.json` it writes: tests
    /// run in parallel and must not share a file.
    fn out_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsunami_bench_{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            rows: 2_500,
            queries_per_type: 3,
            seed: 5,
            ..HarnessConfig::default()
        }
    }

    /// How many entries `gate` finds in the file an experiment just wrote.
    fn gated_entries(config: &HarnessConfig, gate: &Gate) -> usize {
        let json = std::fs::read_to_string(config.out.join(gate.file)).unwrap();
        parse_bench_entries(&json, gate.keys, gate.value_key).len()
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
                "fig8",
                "fig9a",
                "fig9b",
                "fig10",
                "fig11a",
                "fig11b",
                "fig12a",
                "fig12b",
                "fig12kern",
                "figmv"
            ]
        );
    }

    #[test]
    fn fig12kern_sweeps_every_tier_and_stays_consistent() {
        // Tiny run: the experiment itself asserts every tier matches the
        // scalar oracle while measuring.
        let cfg = HarnessConfig {
            rows: 1_000, // floored to 8 Ki rows inside
            queries_per_type: 1,
            seed: 3,
            out: out_dir("fig12kern"),
        };
        let out = fig12kern(&cfg);
        let build = format!("{} kernels", tsunami_core::exec::kernel_build());
        assert!(out.contains(&build), "title does not name {build}:\n{out}");
        for tier in ["scalar", "packed"] {
            assert!(out.contains(tier), "missing tier {tier} in:\n{out}");
        }
        for enc in ["plain", "encoded"] {
            assert!(out.contains(enc), "missing encoding {enc} in:\n{out}");
        }
        // 5 densities x 4 predicate counts x 4 aggregations x 2 encodings x
        // 2 tiers, plus the W7 and W31 tables' packed entries (2 predicate
        // counts x 4 aggregations each), plus the plan-shape entries (2
        // range lengths x 2 starts x 3 aggregations), all of them visible
        // to the gate.
        assert_eq!(gated_entries(&cfg, &GATES[0]), 320 + 2 * 2 * 4 + 2 * 2 * 3);
    }

    #[test]
    fn fig9b_ingest_stays_cheaper_than_rebuild_and_consistent() {
        // Tiny run: the impl itself cross-checks ingested results against
        // the rebuilt index while measuring.
        let cfg = HarnessConfig {
            rows: 4_000,
            queries_per_type: 3,
            seed: 11,
            ..HarnessConfig::default()
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
            ..HarnessConfig::default()
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

    /// Writes `entries` as `file` into `test`'s directory and returns what
    /// landed on disk.
    fn written(
        test: &str,
        file: &str,
        experiment: &str,
        rows: usize,
        extra: &[(&str, usize)],
        entries: &[String],
    ) -> String {
        let config = HarnessConfig {
            seed: 7,
            out: out_dir(test),
            ..HarnessConfig::default()
        };
        write_bench_json(&config, file, experiment, rows, extra, entries);
        let path = config.out.join(file);
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        json
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        /// Writes `entries` (with `extra` header fields), checks the text
        /// holds `fragments` — keys and number formats the committed
        /// baselines share — and that `gate` reads back `expected`: its
        /// rows, and only its rows.
        fn check(
            gate: &Gate,
            entries: &[String],
            extra: &[(&str, usize)],
            fragments: &[&str],
            expected: &[(&str, f64)],
        ) {
            let json = written("round_trip", gate.file, "exp", 1234, extra, entries);
            let header = "{\n  \"experiment\": \"exp\",\n  \"rows\": 1234,\n  \"seed\": 7,\n";
            assert!(json.starts_with(header), "{json}");
            assert_eq!(field(&json, "experiment"), Some("exp"));
            assert_eq!(field(&json, "rows"), Some("1234"));
            for fragment in fragments {
                assert!(json.contains(fragment), "{fragment} not in:\n{json}");
            }
            let expected: Vec<_> = expected.iter().map(|(l, v)| (l.to_string(), *v)).collect();
            assert_eq!(
                parse_bench_entries(&json, gate.keys, gate.value_key),
                expected
            );
        }

        let [scan, matview, pool, ingest, stream] = &GATES;
        check(
            scan,
            &[
                scan_entry(50.0, 2, "count", "encoded", "packed", 1.5),
                scan_entry(0.0, 1, "sum", "plain", "scalar", 3.25),
            ],
            &[],
            &[
                "\"encoding\": \"encoded\", \"tier\": \"packed\"",
                "\"median_ns_per_row\": 1.5000},\n",
                // No comma after the last entry.
                "\"median_ns_per_row\": 3.2500}\n  ]\n}\n",
            ],
            &[
                (
                    "selectivity_pct=50 predicates=2 agg=count encoding=encoded tier=packed",
                    1.5,
                ),
                (
                    "selectivity_pct=0 predicates=1 agg=sum encoding=plain tier=scalar",
                    3.25,
                ),
            ],
        );
        check(
            matview,
            &[
                matview_entry(100.0, "count", "matview", 1.5),
                matview_entry(100.0, "count", "scan", 80.0),
            ],
            &[],
            &["\"coverage_pct\": 100, ", "\"median_us\": 1.5000"],
            &[
                ("coverage_pct=100 agg=count mode=matview", 1.5),
                ("coverage_pct=100 agg=count mode=scan", 80.0),
            ],
        );
        check(
            pool,
            &[pool_entry("Taxi", "Tsunami", 100.0, 60.0)],
            &[("workers", 4), ("morsel_rows", 131072)],
            &[
                "  \"workers\": 4,\n  \"morsel_rows\": 131072,\n  \"entries\"",
                "\"serial_us\": 100.000, \"pooled_us\": 60.000",
            ],
            &[("dataset=Taxi index=Tsunami", 60.0)],
        );
        let ingested = [
            ingest_entry("Tsunami", 10.0, 500, 0.25, 1.5, 12.5, 11.0),
            stream_entry(&StreamEntry {
                table_rows: 20_000,
                batch_p50_us: 101.5,
                batch_max_us: 4_000.0,
                graft_p50_us: 3_900.0,
                grafts: 3,
                delta_rows: 0,
                post_stream_us: 5.5,
                rebuilt_us: 5.25,
            }),
        ];
        let fragment = "\"batch_pct\": 10, \"batch_rows\": 500, \"ingest_secs\": 0.250000";
        check(
            ingest,
            &ingested,
            &[],
            &[fragment],
            &[("index=Tsunami batch_pct=10", 12.5)],
        );
        check(
            stream,
            &ingested,
            &[],
            &["\"batch_p50_us\": 101.50, "],
            &[("stream=48x64 table_rows=20000", 101.5)],
        );
    }

    #[test]
    fn check_bench_runs_every_gate_and_names_each_failure() {
        // The three gates `check-bench` never re-runs: pool, then ingest
        // twice (post-ingest latency, then the 64-row stream).
        let gates = &GATES[2..];
        let baseline = HarnessConfig {
            out: out_dir("gates_baseline"),
            ..HarnessConfig::default()
        };
        let current = HarnessConfig {
            out: out_dir("gates_current"),
            ..HarnessConfig::default()
        };
        let write = |config: &HarnessConfig, pooled_us: f64, post_ingest_us: f64| {
            let pool = [pool_entry("TPC-H", "Tsunami", 50.0, pooled_us)];
            write_bench_json(config, "BENCH_pool.json", "fig7par", 30_000, &[], &pool);
            let ingest = [
                ingest_entry("Tsunami", 1.0, 150, 0.01, 0.5, post_ingest_us, 40.0),
                "\"stream\": \"48x64\", \"table_rows\": 20000, \"batch_p50_us\": 101.50".into(),
            ];
            write_bench_json(config, "BENCH_ingest.json", "fig9b", 15_000, &[], &ingest);
        };
        write(&baseline, 50.0, 40.0);

        write(&current, 60.0, 45.0);
        let ok = run_gates(gates, &baseline.out, &current).unwrap();
        assert_eq!(ok.matches(": OK").count(), 3, "{ok}");

        // The first gate fails and so does the second: both are named, and
        // the third still runs.
        write(&current, 5_000.0, 5_000.0);
        let err = run_gates(gates, &baseline.out, &current).unwrap_err();
        for line in [
            "2 of 3 gates FAILED",
            "BENCH_pool.json pooled_us: FAILED",
            "BENCH_ingest.json post_ingest_us: FAILED",
            "BENCH_ingest.json batch_p50_us: OK",
        ] {
            assert!(err.contains(line), "{line} missing from:\n{err}");
        }
    }

    #[test]
    fn check_bench_comparison_flags_only_real_regressions() {
        /// `entries[i]` renders the i-th entry around a value; `baseline`,
        /// `noisy` (inside the tolerance) and `regressed` (its last entry
        /// past it, labelled `culprit`) are the values of three runs.
        fn check(
            gate: &Gate,
            entries: &[&dyn Fn(f64) -> String],
            [baseline, noisy, regressed]: [&[f64]; 3],
            culprit: &str,
        ) {
            let run = |experiment: &str, rows: usize, values: &[f64]| {
                let lines: Vec<String> = entries.iter().zip(values).map(|(e, &v)| e(v)).collect();
                written("compare", gate.file, experiment, rows, &[], &lines)
            };
            let base = run("exp", 1000, baseline);

            // An identical run passes.
            let ok = compare_bench(gate, &base, &base).unwrap();
            assert!(ok.contains("OK"), "{ok}");
            // Noise within tolerance passes: under 2.5x on a big entry, the
            // absolute slack on a small one.
            assert!(compare_bench(gate, &base, &run("exp", 1000, noisy)).is_ok());
            // A regression past both bounds fails and names the entry.
            let err = compare_bench(gate, &base, &run("exp", 1000, regressed)).unwrap_err();
            assert!(err.contains("FAILED") && err.contains(culprit), "{err}");
            // Shrunken coverage fails.
            let err = compare_bench(gate, &base, &run("exp", 1000, &baseline[..1])).unwrap_err();
            assert!(err.contains("missing from current run"), "{err}");
            // So does an entry the baseline does not hold (a renamed key
            // would otherwise leave the gate), however fast it is.
            let short = run("exp", 1000, &baseline[..1]);
            let err = compare_bench(gate, &short, &base).unwrap_err();
            assert!(err.contains("missing from baseline"), "{err}");
            // An empty baseline is an error, not a pass.
            assert!(compare_bench(gate, &run("exp", 1000, &[]), &base).is_err());
            assert!(compare_bench(gate, "{}", &base).is_err());
            // A run of another size, or of another experiment, is refused
            // with both values named — whatever its medians say.
            let err = compare_bench(gate, &base, &run("exp", 250, baseline)).unwrap_err();
            assert!(
                err.contains("rows = 1000") && err.contains("rows = 250"),
                "{err}"
            );
            let err = compare_bench(gate, &base, &run("other", 1000, baseline)).unwrap_err();
            assert!(
                err.contains("experiment = exp") && err.contains("experiment = other"),
                "{err}"
            );
        }

        // The gate refuses to write its fresh files over the baselines it is
        // about to read, however that directory is spelled.
        let dir = out_dir("compare");
        assert!(same_dir(&dir, &dir.join(".")));
        assert!(!same_dir(&dir, &out_dir("round_trip")));
        assert!(!same_dir(&dir, &dir.join("absent")));

        check(
            &GATES[0],
            &[
                &|ns| scan_entry(50.0, 2, "count", "plain", "packed", ns),
                &|ns| scan_entry(0.0, 1, "sum", "encoded", "packed", ns),
                &|ns| scan_entry(99.0, 4, "count", "plain", "scalar", ns),
            ],
            [&[2.0, 0.1, 8.0], &[4.0, 0.55, 8.0], &[4.0, 0.55, 25.0]],
            "tier=scalar",
        );
        check(
            &GATES[1],
            &[&|us| matview_entry(1.0, "sum", "scan", us), &|us| {
                matview_entry(100.0, "count", "matview", us)
            }],
            [&[2.0, 10.0], &[40.0, 24.0], &[2.0, 500.0]],
            "coverage_pct=100 agg=count mode=matview",
        );
    }

    #[test]
    fn fig12a_reports_all_variants_for_each_dataset() {
        let mut cfg = tiny();
        cfg.rows = 2_000;
        let out = fig12a(&cfg);
        for label in [
            "Flood",
            "AugmentedGrid-only",
            "GridTree-only",
            "Tsunami",
            "Independent grid, no tree",
            "avg points scanned",
        ] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn fig7_parallel_reports_serial_and_pooled_executors() {
        // Tiny run: the experiment itself asserts that the pool's counters
        // match serial while measuring.
        let mut cfg = tiny();
        cfg.rows = 2_000;
        cfg.out = out_dir("fig7par");
        let out = fig7_parallel(&cfg);
        for col in ["serial (us)", "pooled (us)", "morsel rows"] {
            assert!(out.contains(col), "missing column {col} in:\n{out}");
        }
        // Four datasets x two learned indexes.
        assert_eq!(gated_entries(&cfg, &GATES[2]), 8);
    }

    #[test]
    fn figmv_covered_queries_skip_scanning_and_stay_consistent() {
        // Tiny run: the experiment itself cross-checks every matview answer
        // against the scan index and asserts the fully covered queries visit
        // zero rows while measuring.
        let cfg = HarnessConfig {
            rows: 1_000, // floored to 8 Ki rows inside
            queries_per_type: 1,
            seed: 9,
            out: out_dir("figmv"),
        };
        let out = figmv(&cfg);
        for col in ["coverage %", "matview (us)", "scan (us)", "speedup"] {
            assert!(out.contains(col), "missing column {col} in:\n{out}");
        }
        for agg in ["count", "sum", "avg"] {
            assert!(out.contains(agg), "missing agg {agg} in:\n{out}");
        }
        // Four coverages x three aggregations x cube on/off.
        assert_eq!(gated_entries(&cfg, &GATES[1]), 24);
    }
}
