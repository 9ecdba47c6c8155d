//! Pieces every workload shares: run arguments, timing, the full-scan
//! oracle, latency summaries, and the traced read path.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use tsunami_core::exec::{self, ScanCounters};
use tsunami_core::{AggResult, Dataset, Query, Result};
use tsunami_engine::{IndexSpec, Table};
use tsunami_index::TsunamiIndex;
use tsunami_store::ColumnStore;

use crate::consts::{self, SAMPLES_BEYOND};
use crate::json::Json;
use crate::metrics::{Outcome, Values};
use crate::stats::{
    highest_supported_percentile, median, percentile_of, segment_percentiles, segments,
};
use crate::trace::{self, Span, Tracer};

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// Measured length the op counts scale with (see [`consts::RUN_SECONDS`]).
    pub seconds: f64,
    pub trace: bool,
    /// Directory for trace/report files and durable scratch databases.
    pub out: PathBuf,
}

impl Args {
    /// `per_second` ops per calibrated second, scaled to this run's length.
    pub fn scaled(&self, per_second: usize) -> usize {
        ((per_second as f64 * self.seconds).round() as usize).max(1)
    }
}

/// Client threads / connections / intra-query workers: at most the host's
/// cores, all from this one process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f`, returning its value and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Microseconds since `start`.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

/// The process's resident set, bytes (`VmRSS` of `/proc/self/status`).
pub fn rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// The Tsunami spec every Tsunami table of the benchmark is built from.
pub fn tsunami_spec() -> IndexSpec {
    IndexSpec::Tsunami(consts::tsunami_config())
}

/// Reference answers by full scan of the logical rows, split over `threads`
/// threads. Oracle time is never inside a timed region.
pub fn oracle_answers(data: &Dataset, queries: &[Query], threads: usize) -> Vec<AggResult> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|q| q.execute_full_scan(data))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// Sets the table up `repeats` times (each from rows already generated to the
/// first query answered — `build` must do all of that), keeps the last, and
/// records the median as `setup_s`. An earlier set-up is dropped before the
/// next starts, so at most one is alive.
pub fn repeat_setup<T>(
    outcome: &mut Outcome,
    repeats: usize,
    mut build: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut seconds = Vec::new();
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        drop(kept.take());
        let (built, secs) = timed(&mut build);
        kept = Some(built?);
        seconds.push(secs);
    }
    outcome.values.set("setup_s", median(&seconds));
    outcome.note(
        "setup_samples_s",
        Json::Arr(seconds.iter().map(|&s| Json::Num(s)).collect()),
    );
    Ok(kept.expect("at least one set-up ran"))
}

/// Records the read latencies of a measured phase, given in the order they
/// were taken, into `query_p50_us` and `query_p95_us`. Both are **steady**
/// percentiles ([`segment_percentiles`]): the phase is cut into up to
/// [`consts::MAX_SEGMENTS`] consecutive segments of at least
/// [`consts::SEGMENT_SAMPLES`] reads, so that a segment's p95 still has ten
/// samples beyond it, and the median of the segments' percentiles is
/// reported. A phase with fewer reads than two segments' worth is one
/// segment, i.e. the plain percentile. Returns `(p50, segments)`.
pub fn record_query_latency(
    outcome: &mut Outcome,
    latencies_us: &[f64],
) -> (f64, Vec<std::ops::Range<usize>>) {
    let ranges = segments(
        latencies_us.len(),
        consts::SEGMENT_SAMPLES,
        consts::MAX_SEGMENTS,
    );
    let mut steady = [0.0; 2];
    for (slot, (metric, note, p)) in steady.iter_mut().zip([
        ("query_p50_us", "segment_p50_us", 50.0),
        ("query_p95_us", "segment_p95_us", 95.0),
    ]) {
        let per_segment = segment_percentiles(latencies_us, p, &ranges);
        *slot = median(&per_segment);
        outcome.values.set(metric, *slot);
        outcome.note(
            note,
            Json::Arr(per_segment.into_iter().map(Json::Num).collect()),
        );
    }
    let p50 = steady[0];
    outcome.note("query_samples", Json::Num(latencies_us.len() as f64));
    outcome.note("query_segments", Json::Num(ranges.len() as f64));
    // A timing is only as good as the tail behind it: say how far up one
    // segment supports a percentile with ten samples beyond it.
    let supported = highest_supported_percentile(ranges[0].len(), SAMPLES_BEYOND);
    outcome.note("query_highest_supported_percentile", Json::Num(supported));
    if supported < 95.0 {
        eprintln!(
            "warning: {} read samples support only p{supported}; query_p95_us is unsteady at this --seconds",
            latencies_us.len()
        );
    }
    (p50, ranges)
}

/// Everything a read-only closed loop with one client reports end to end:
/// steady read latencies, `queries_per_s` — per segment, reads over the time
/// inside them, then the median segment, for the reason
/// [`segment_percentiles`] gives — and the space metrics of
/// `table`. Returns the untraced p50.
pub fn record_closed_loop(
    outcome: &mut Outcome,
    table: &Table,
    latencies_us: &[f64],
    rss: f64,
) -> f64 {
    let (p50, ranges) = record_query_latency(outcome, latencies_us);
    let per_segment: Vec<f64> = ranges
        .iter()
        .map(|r| r.len() as f64 / (latencies_us[r.clone()].iter().sum::<f64>() / 1e6))
        .collect();
    outcome.values.set("queries_per_s", median(&per_segment));
    record_space(
        outcome,
        table.index().size_bytes(),
        table.num_rows(),
        table.num_columns(),
        rss,
    );
    outcome.note("measured_ops", Json::Num(latencies_us.len() as f64));
    outcome.note(
        "measured_busy_s",
        Json::Num(latencies_us.iter().sum::<f64>() / 1e6),
    );
    outcome.note("loop", Json::str("closed, 1 client thread"));
    p50
}

/// Sets the index-size and resident-memory end-to-end metrics.
pub fn record_space(outcome: &mut Outcome, index_bytes: usize, rows: usize, dims: usize, rss: f64) {
    outcome.values.set(
        "index_bytes_per_row",
        index_bytes as f64 / rows.max(1) as f64,
    );
    outcome.values.set(
        "resident_bytes_per_user_byte",
        rss / (rows.max(1) * dims * 8) as f64,
    );
}

/// Scan counters summed over a traced read pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadCounts {
    pub reads: usize,
    pub plan_ranges: usize,
    pub plan_partials: usize,
    pub scan: ScanCounters,
}

/// One read, recomposed from the layers `Table::execute` (or the
/// scheduler's `execute_parallel`, for `threads > 1`) goes through, with a
/// span at each boundary: `engine.execute { engine.validate, index.plan,
/// exec.scan }`. Executes exactly the work the entry does, once.
pub fn traced_read(
    tracer: &mut Tracer,
    request: u64,
    table: &Table,
    query: &Query,
    threads: usize,
    counts: &mut ReadCounts,
) -> Result<AggResult> {
    tracer.root("engine.execute", request, |t| {
        t.child("engine.validate", || {
            query.validate_dims(table.num_columns())
        })?;
        let index = table.index();
        let plan = t.child("index.plan", || index.plan(query));
        let (result, scanned) = t.child("exec.scan", || {
            if threads > 1 {
                exec::execute_plan_parallel(index.source(), query, &plan, threads)
            } else {
                exec::execute_plan(index.source(), query, &plan)
            }
        });
        counts.reads += 1;
        counts.plan_ranges += plan.num_ranges();
        counts.plan_partials += plan.partials().len();
        counts.scan.merge(&scanned);
        Ok(result)
    })
}

/// Median (µs) of the values grouped under `name`; 0 when there are none.
pub fn p50_of(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by_name.get(name).map_or(0.0, |v| percentile_of(v, 50.0))
}

/// Per-layer values of a traced read pass, and the trace self-check for
/// reads: the layer medians must add up to the traced end-to-end median,
/// what does not is reported as `bench.unattributed_us`, and the traced
/// median is held against the untraced one (`untraced_p50_us`).
pub fn read_layer_values(
    values: &mut Values,
    spans: &[Span],
    counts: &ReadCounts,
    untraced_p50_us: f64,
) {
    // A layer's number is its spans' self time; the end to end is the root
    // span's whole duration.
    let own = trace::self_us(spans);
    let plan_p50 = p50_of(&own, "index.plan");
    let scan_p50 = p50_of(&own, "exec.scan");
    let validate_p50 = p50_of(&own, "engine.validate");
    let traced_p50 = p50_of(&trace::durations_us(spans), "engine.execute");
    let reads = counts.reads.max(1) as f64;

    values.set("index.plan_us", plan_p50);
    values.set(
        "index.plan_p99_us",
        own.get("index.plan")
            .map_or(0.0, |v| percentile_of(v, 99.0)),
    );
    values.set("index.plan_ranges", counts.plan_ranges as f64 / reads);
    values.set("index.plan_partials", counts.plan_partials as f64 / reads);
    values.set(
        "index.rows_visited_per_match",
        counts.scan.points as f64 / counts.scan.matched.max(1) as f64,
    );
    values.set(
        "index.cube_prefolded_frac",
        counts.scan.rows_prefolded as f64 / counts.scan.matched.max(1) as f64,
    );
    values.set("exec.scan_us", scan_p50);
    let scan_total_ns: f64 = own
        .get("exec.scan")
        .map_or(0.0, |v| v.iter().sum::<f64>() * 1e3);
    values.set(
        "exec.ns_per_row_visited",
        scan_total_ns / counts.scan.points.max(1) as f64,
    );
    values.set("bench.traced_query_p50_us", traced_p50);
    values.set(
        "bench.trace_overhead_frac",
        (traced_p50 - untraced_p50_us) / untraced_p50_us,
    );
    let unattributed = traced_p50 - (validate_p50 + plan_p50 + scan_p50);
    values.set("bench.unattributed_us", unattributed);
    values.set("bench.unattributed_frac", unattributed / traced_p50);
}

/// Size and shape of a table's index, from outside.
pub fn index_layer_values(values: &mut Values, table: &Table) {
    let index = table.index();
    values.set("index.size_bytes", index.size_bytes() as f64);
    let timing = index.build_timing();
    values.set("index.build_sort_s", timing.sort_secs);
    values.set("index.build_optimize_s", timing.optimize_secs);
    if let Some(tsunami) = as_tsunami(table) {
        let stats = tsunami.stats();
        values.set("index.regions", stats.num_leaf_regions as f64);
        values.set("index.cells", stats.total_grid_cells as f64);
    }
}

/// The concrete Tsunami index behind a table, if that is what it holds.
pub fn as_tsunami(table: &Table) -> Option<&TsunamiIndex> {
    table.index().as_any()?.downcast_ref::<TsunamiIndex>()
}

/// The trace file's header and write, shared by every workload.
pub fn write_trace(args: &Args, workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let path = args.out.join(format!("trace-{workload}.json"));
    let header = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        ("time_unit", Json::str("ns since the run's epoch")),
    ]);
    trace::write_json(&path, header, spans)?;
    Ok(path)
}

/// Runs the trace self-check on a finished trace and writes it out; a
/// nesting violation makes the run incorrect.
pub fn finish_trace(outcome: &mut Outcome, args: &Args, workload: &str, spans: &[Span]) {
    if let Err(e) = trace::check_nesting(spans) {
        eprintln!("{workload}: trace self-check failed: {e}");
        outcome.checks_ok = false;
    }
    match write_trace(args, workload, spans) {
        Ok(path) => outcome.note("trace_file", Json::str(path.display().to_string())),
        Err(e) => {
            eprintln!("{workload}: could not write the trace: {e}");
            outcome.checks_ok = false;
        }
    }
    outcome.note("trace_spans", Json::Num(spans.len() as f64));
    if let Some(frac) = outcome.values.get("bench.unattributed_frac") {
        if frac.abs() > 0.10 {
            eprintln!(
                "{workload}: layer medians miss the traced end-to-end median by {:.1}% (limit 10%)",
                frac * 100.0
            );
            outcome.note("trace_layers_sum_ok", Json::Bool(false));
        } else {
            outcome.note("trace_layers_sum_ok", Json::Bool(true));
        }
    }
}

/// Times the store's build steps on the workload's rows from outside:
/// `ColumnStore::from_dataset`, the sort-order `permute`, `encode_blocks`,
/// and reads the resulting block mix.
pub fn store_probes(values: &mut Values, data: &Dataset, sort_dim: usize) {
    let mut store = ColumnStore::from_dataset(data);
    let mut perm: Vec<usize> = (0..data.len()).collect();
    let keys = data.column(sort_dim);
    perm.sort_by_key(|&r| keys[r]);
    let ((), permute_s) = timed(|| store.permute(&perm));
    let ((), encode_s) = timed(|| store.encode_blocks());
    let (blocks_for, blocks_dict, blocks_plain, _tail_rows) = store.encoding_stats();
    values.set("store.permute_s", permute_s);
    values.set("store.encode_s", encode_s);
    values.set("store.blocks_for", blocks_for as f64);
    values.set("store.blocks_dict", blocks_dict as f64);
    values.set("store.blocks_plain", blocks_plain as f64);
    values.set(
        "store.encoded_bytes_per_row",
        store.data_bytes() as f64 / data.len().max(1) as f64,
    );
}
