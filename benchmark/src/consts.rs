//! The benchmark's frozen constants. They were calibrated once on the
//! 2-core sandbox (see README, "Calibration") and are never re-derived per
//! run: two commits compared by this benchmark do identical operations.

use tsunami_index::TsunamiConfig;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the op counts below are
/// calibrated for. Fixed-work workloads scale their op counts linearly with
/// `--seconds / RUN_SECONDS`; the open-loop workload scales its step length.
pub const RUN_SECONDS: u64 = 10;

/// Seed of every table's rows and of the sample workload its layout is
/// optimised for. The table is part of a workload's definition, like its
/// size; `--seed` draws the *measured* operations. (A learned layout differs
/// 2x in size and speed between data seeds, which would drown every bound.)
pub const DATA_SEED: u64 = 42;

/// Queries per type in the sample workload a layout is optimised for.
pub const SAMPLE_QUERIES_PER_TYPE: usize = 25;

/// The one table every workload registers.
pub const TABLE: &str = "lineitem";

/// The Tsunami build configuration the `repro` harness uses
/// (`HarnessConfig::tsunami_config`), written out so the benchmark does not
/// move when the harness does.
pub fn tsunami_config() -> TsunamiConfig {
    TsunamiConfig {
        optimizer_sample_size: 800,
        optimizer_max_iters: 6,
        max_cells_per_grid: 1 << 13,
        max_tree_depth: 5,
        ..TsunamiConfig::default()
    }
}

/// A timing is reported at a percentile only with this many samples past it.
pub const SAMPLES_BEYOND: usize = 10;

/// Read latencies of a measured phase are summarised per segment of at least
/// this many consecutive reads (so a segment's p95 has ten beyond it), at
/// most [`MAX_SEGMENTS`] segments; the run reports the median segment.
pub const SEGMENT_SAMPLES: usize = 250;
pub const MAX_SEGMENTS: usize = 25;

// `SETUP_REPEATS`: times a workload sets its table up per run; `setup_s` is
// the median. A Tsunami build takes 6-10 s here, so the gated Tsunami
// workloads afford two; the sub-second SingleDim set-up repeats five times.

pub mod olap {
    pub const SETUP_REPEATS: usize = 2;
    /// Rows of the Tsunami table (6.4 MB of columns; the index is larger).
    pub const ROWS: usize = 100_000;
    /// Distinct measured queries, cycled.
    pub const DISTINCT_QUERIES: usize = 2_000;
    /// `Table::execute` calls per calibrated second (~150 us each).
    pub const OPS_PER_SECOND: usize = 5_000;
}

pub mod scan {
    pub const SETUP_REPEATS: usize = 5;
    /// Rows of the SingleDim table: 64 MB of columns, larger than any cache.
    pub const ROWS: usize = 1_000_000;
    /// Distinct measured queries, cycled.
    pub const DISTINCT_QUERIES: usize = 400;
    /// Queries in the sample workload (all of the one scan type).
    pub const SAMPLE_QUERIES: usize = 100;
    /// Scheduler submit→wait calls per calibrated second.
    pub const OPS_PER_SECOND: usize = 3_600;
    /// Share of rows each query's sort-dimension range covers.
    pub const SORT_DIM_SELECTIVITY: f64 = 0.25;
    /// Share of rows inside each query's price band.
    pub const PRICE_BAND: f64 = 0.50;
}

pub mod ingest {
    pub const SETUP_REPEATS: usize = 2;
    /// Rows of the durable Tsunami table before the stream starts.
    pub const ROWS: usize = 40_000;
    /// Distinct read queries, cycled.
    pub const DISTINCT_QUERIES: usize = 400;
    /// The stream is made of blocks of this many ops in seeded order...
    pub const BLOCK: usize = 20;
    /// ...of which this many are inserts and this many deletes (80/15/5 %).
    pub const INSERTS_PER_BLOCK: usize = 3;
    pub const DELETES_PER_BLOCK: usize = 1;
    /// Blocks per calibrated second (1,600 ops at 10 s: 240 inserts of 64
    /// rows grow the table by 38 %, so regions re-optimise but the index
    /// never escalates to a rebuild).
    pub const BLOCKS_PER_SECOND: usize = 8;
    /// Rows per `insert_batch`.
    pub const INSERT_ROWS: usize = 64;
    /// `checkpoint()` runs once, after this share of the ops.
    pub const CHECKPOINT_AT: f64 = 2.0 / 3.0;
}

pub mod served {
    pub const SETUP_REPEATS: usize = 1;
    /// Shards behind the server.
    pub const SHARDS: usize = 2;
    /// Rows across all shards.
    pub const ROWS: usize = 50_000;
    /// Distinct read queries, cycled.
    pub const DISTINCT_QUERIES: usize = 400;
    /// The bottom rate `r`, ops/s; the steps run at `r`, `2r`, `4r`.
    pub const BASE_RATE: u64 = 150;
    pub const RATE_STEPS: [u64; 3] = [1, 2, 4];
    /// Each step lasts this share of `--seconds`.
    pub const STEP_SHARE: f64 = 0.4;
    /// Every this-many-th op is an insert (5 %).
    pub const INSERT_EVERY: usize = 20;
    /// Rows per wire insert.
    pub const INSERT_ROWS: usize = 8;
    /// The latency limit: p95 from due time, microseconds.
    pub const P95_LIMIT_US: f64 = 50_000.0;
    /// No growing backlog: achieved rate at least this share of the target.
    pub const MIN_ACHIEVED: f64 = 0.95;
    /// Idle-connection probes of the traced run.
    pub const PROBE_CALLS: usize = 400;
}
