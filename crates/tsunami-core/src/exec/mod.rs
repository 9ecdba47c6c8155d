//! The shared scan-execution engine: every index answers queries by emitting
//! a [`ScanPlan`] that one tiered, vectorized executor runs.
//!
//! # The ScanPlan / executor contract
//!
//! Tsunami's core performance claim (§6.1 of the paper) is that *every* query
//! — against the learned indexes and the traditional baselines alike — boils
//! down to scanning an ordered list of contiguous physical row ranges, where
//! some ranges are known *exact* (every row in them is guaranteed to match
//! the query filter, so per-value predicate checks are skipped). Before this
//! module existed, each index hand-rolled its own accumulator loop over those
//! ranges; now an index only implements
//! [`MultiDimIndex::plan`](crate::MultiDimIndex::plan), producing:
//!
//! * `ranges` — the contiguous physical ranges to visit, in scan order, each
//!   tagged with its exactness flag. [`ScanPlan::push`] transparently merges
//!   physically adjacent ranges of equal exactness, so indexes never pay for
//!   an extra range jump they did not need.
//! * `residual` — optionally, the subset of the query's predicates that still
//!   has to be checked inside non-exact ranges. An index that guarantees some
//!   predicate by construction — a clustered single-dimension index whose
//!   binary search already bounds the sort dimension, or a grid/tree index
//!   whose visited cell bounds all lie inside the predicate's range — lists
//!   only the remaining predicates and the executor skips re-checking the
//!   guaranteed ones. When absent, all of the query's predicates are checked.
//!
//! Plans are clamped to the source **once**, at executor entry
//! ([`ScanPlan::clamped`]); the scan kernels then assume in-bounds ranges and
//! never re-clamp per range or per piece.
//!
//! # Kernel tiers
//!
//! The executor evaluates non-exact ranges with columnar, blockwise kernels:
//! predicates are applied one column at a time over fixed-size row blocks
//! ([`BLOCK_ROWS`]), and only the selected rows are fed to the aggregation —
//! touching just the filtered columns plus (at most) the aggregation input
//! column, exactly what the paper's cost model prices. A [`KernelTier`]
//! names the implementation:
//!
//! * [`KernelTier::Scalar`] — the reference row-at-a-time branchy loop
//!   (`if matches { keep }`). Kept as the in-tree oracle the packed path is
//!   differentially tested against, and as the baseline the `fig12kern`
//!   microbenchmark measures speedups over.
//! * [`KernelTier::Packed`] — the default, and the one scan path: every
//!   block's selection is a word-packed bitmap (1 bit/row) built without a
//!   data-dependent branch, on packed codes or plain rows alike (see
//!   "Encoded columns" below), and aggregated mask-natively (popcount for
//!   `COUNT`, masked folds for `SUM`/`MIN`/`MAX`). A later predicate on
//!   plain rows tests only the selected rows once fewer than one in 16 is
//!   left, decided per block from the bitmap just built.
//!
//! Both tiers compute the same selection for the same block, so results
//! **and** [`ScanCounters`] are tier-invariant: `ranges`/`points` depend only
//! on the plan, and `matched` is the selection's cardinality, which no
//! representation changes. The differential suites assert bit-identical
//! results across the tiers, serial and parallel.
//!
//! The packed tier is compiled twice from the same source: the portable
//! build, and a build with x86-64-v3's integer features (AVX2, BMI1/2,
//! LZCNT and hardware popcount; without them every `count_ones` is a
//! dozen-instruction software popcount and the 8-lane mask groups stay
//! scalar). Each scan participant picks one build once, in its one loop
//! (`scan_units`), from the CPU it runs on; [`kernel_build`] names the
//! choice. Everything the packed path calls below that loop is
//! `#[inline(always)]`, so it is compiled into both builds. The scalar
//! oracle always runs the portable build, and its two row loops stay out
//! of line, so it remains code built apart from the path it checks. The
//! builds differ only in instructions: selections, results and counters
//! are the same.
//!
//! Exact ranges skip selection entirely regardless of tier: `COUNT` never
//! touches data and `SUM`/`AVG` reduce the input column directly. `MIN`/
//! `MAX` need the values: the scalar oracle fetches and folds every row,
//! the packed tier folds packed codes, and on a source without tombstones
//! it takes a chunk covering a whole encoded block from the block's
//! physical bounds.
//!
//! # MIN/MAX pruning on block bounds
//!
//! One decision of the packed tier depends on earlier chunks: whether a
//! `MIN`/`MAX` chunk reads its aggregation column at all. Before reading
//! it, the scan bounds every value the chunk can fold — the aggregation
//! block's live bounds, tightened on selections by the residual predicates
//! on the aggregated dimension — and when the participant's running `MIN`
//! is already at or below that lower bound (`MAX` at or above the upper),
//! the chunk only adds its match count. The result cannot differ: folded
//! rows are live, selected rows pass the residual, and live bounds stay
//! sound because the live set only shrinks after encoding. Which chunks are
//! read varies with scan order and with which morsels a worker claims;
//! results and counters do not.
//!
//! Execution is counter-transparent: the executor returns the
//! [`ScanCounters`] (ranges/points/matched, plus the pre-folded partials it
//! answered without scanning) accumulated *by that call*,
//! threaded through the kernels rather than stored in shared mutable state,
//! so concurrent queries against one source can never corrupt each other's
//! statistics.
//!
//! # One way to run a plan
//!
//! The paper has one execution procedure, and so does this module:
//! [`execute_plan_with`] runs a plan under an [`ExecOptions`] (kernel tier,
//! thread bound, pool, morsel size). [`execute_plan`] (serial) and
//! [`execute_plan_parallel`] (up to `threads` participants on the
//! process-wide pool) are its two one-line defaults; there is no other
//! entry point.
//!
//! # Parallel execution: morsels on one persistent pool
//!
//! With `threads > 1` the same plan runs across a persistent thread pool
//! ([`pool`]; std-only — the container has no rayon). The plan's ranges are
//! decomposed into fixed-size cache-resident **morsels**
//! (~[`DEFAULT_MORSEL_ROWS`] rows unless [`ExecOptions::morsel_rows`]
//! says otherwise) which the participating workers claim from a shared
//! cursor — the pool carries one closure per participant, never a morsel;
//! each worker keeps a private [`AggAccumulator`] and
//! [`ScanCounters`], merged once at the end. Results and counters are
//! bit-identical to the serial path — aggregation merging is commutative
//! and associative, and morsels carved from one plan range count as a single
//! scanned range — regardless of which worker runs which morsel in which
//! order. Per-worker [`BlockScratch`] lives in thread-local storage (reused
//! across queries on pool workers). Plans under four blocks, and pools with
//! no worker to spare, run serially on the caller.
//!
//! Data access is abstracted behind [`ScanSource`] (rows of `u64` columns),
//! implemented by both the logical [`Dataset`] and the
//! physical `ColumnStore` in `tsunami-store`. Sources must be `Sync`: scans
//! never mutate them.
//!
//! # Encoded columns
//!
//! Every source hands out a column as one [`ColumnData`]: a prefix of
//! per-block encoded payloads (frame-of-reference bit-packing or dictionary
//! codes, see [`crate::encode`]) aligned to the absolute [`BLOCK_ROWS`]
//! grid, plus a plain unencoded tail. A store's tail holds the rows ingest
//! appended since its last encode and its trailing partial block; a
//! [`Dataset`] has no blocks, so all of its rows are the tail (it is the
//! plain source the scalar oracle and the tests scan). The scan loop chunks
//! on that grid, so each chunk sees exactly one representation:
//!
//! * the **scalar** tier reads rows one at a time through the per-row
//!   accessor and uses **no** block metadata — it stays the oracle that
//!   catches unsound pruning;
//! * the **packed** tier runs one path on every chunk: per predicate the
//!   block's metadata first classifies the test (skip-before-decode on live
//!   min/max, drop-the-predicate when every live row passes), and surviving
//!   range tests run as SWAR compares directly on the packed words — 8/4/2
//!   rows per ALU op — into one selection bitmap, which the aggregation
//!   folds read. Plain rows (a `Plain` payload, a store's tail, a
//!   [`Dataset`]) have no metadata and take the 8-lane mask kernels into
//!   the same bitmap, whose 64-bit compares vectorize in the x86-64-v3
//!   build (see "Kernel tiers").
//!
//! Packed-tier chunks start on the 8-row grid (`kernels::PACK_GRID`). A
//! chunk whose first row is off it is widened down to it, so every packed
//! column is read from a packed word on (each class packs 8, 4 or 2 rows a
//! word) and the mask and fold kernels have no unaligned form. The ≤ 7 rows
//! the widening adds lie in the chunk's own block (blocks start on the
//! grid, so the window never crosses into another block or the plain tail)
//! and are cleared from the selection before it is aggregated. Every packed
//! kernel runs over such a window, exact ranges' folds included. The
//! scalar oracle reads every chunk from its own first row.
//!
//! Tombstone liveness is ANDed into every selection exactly as on plain
//! columns (block live bounds are computed at encode time and remain sound
//! because deletes only accrue; physical mutation re-encodes), so results
//! and counters stay bit-identical across tiers, serial and parallel, for
//! any mix of encoded, plain, and tombstoned blocks.

pub mod kernels;
pub mod pool;

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::dataset::{Dataset, Value};
use crate::encode::{extract, BlockData, BlockTest, EncodedBlock, PackClass};
use crate::query::{AggAccumulator, AggResult, Aggregation, Predicate, Query};
use crate::tombstone::TombstoneSet;

use kernels::BlockScratch;

pub use pool::ThreadPool;

/// Number of rows per vectorized block. Chosen so one block of one column
/// (8 KiB) plus the selection vector stays comfortably inside L1.
pub const BLOCK_ROWS: usize = 1024;

/// Default number of rows per morsel (~1 MiB per touched `u64` column):
/// large enough to amortize claim overhead, small enough to stay
/// cache-resident and to balance across workers. Encoded scans are
/// compute-bound, not memory-bandwidth bound: the packed kernels run at
/// 0.06–0.6 ns/row (2–3 GB/s of packed words, well under what memory
/// streams), so a morsel's size moves neither bandwidth nor kernel speed,
/// only balance and claim overhead.
pub const DEFAULT_MORSEL_ROWS: usize = 128 * 1024;

/// The clip of a chunk whose rows are not filtered on the aggregated
/// dimension: every value.
const NO_CLIP: (Value, Value) = (0, Value::MAX);

/// End of the absolute-grid block containing `start`, clamped to `limit`.
/// The executor chunks scans on this grid so one chunk never straddles two
/// encoded blocks (encoded block `b` always covers rows
/// `b * BLOCK_ROWS .. (b + 1) * BLOCK_ROWS`).
#[inline(always)]
fn grid_block_end(start: usize, limit: usize) -> usize {
    ((start / BLOCK_ROWS + 1) * BLOCK_ROWS).min(limit)
}

/// Which block-kernel implementation the executor uses for non-exact ranges.
/// See the module docs for the full contract; both tiers are bit-identical in
/// results and counters, they differ only in speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelTier {
    /// Reference branchy row-at-a-time loop (the in-tree oracle).
    Scalar,
    /// Branchless selection bitmaps over packed codes and plain rows alike.
    #[default]
    Packed,
}

impl KernelTier {
    /// Every tier, scalar oracle first (benchmark / differential-sweep
    /// order).
    pub const ALL: [KernelTier; 2] = [KernelTier::Scalar, KernelTier::Packed];

    /// Short lowercase label used in benchmark tables and `BENCH_scan.json`.
    pub fn label(&self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Packed => "packed",
        }
    }
}

/// One column's physical representation as seen by the executor: encoded
/// blocks covering rows `0 .. blocks.len() * BLOCK_ROWS` (block `b` holds
/// rows `b * BLOCK_ROWS ..`), then `tail` holds the remaining unencoded
/// rows.
///
/// A store hands out its grid-aligned encoded prefix plus its plain ingest
/// tail; a [`Dataset`] hands out `blocks: &[]` and every row as the tail.
/// The executor's block loop is aligned to the absolute [`BLOCK_ROWS`]
/// grid, so one processed chunk never straddles two encoded blocks (or an
/// encoded block and the tail).
#[derive(Debug, Clone, Copy)]
pub struct ColumnData<'a> {
    /// The encoded prefix, one block per [`BLOCK_ROWS`] rows.
    pub blocks: &'a [EncodedBlock],
    /// Every row after the encoded prefix, unencoded.
    pub tail: &'a [Value],
}

impl<'a> ColumnData<'a> {
    /// Rows covered by the encoded prefix.
    #[inline(always)]
    fn covered(&self) -> usize {
        self.blocks.len() * BLOCK_ROWS
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.covered() + self.tail.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every row is plain (no encoded blocks).
    pub fn is_plain(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The encoded block covering `row`, if any.
    #[inline(always)]
    fn block_at(&self, row: usize) -> Option<&'a EncodedBlock> {
        self.blocks.get(row / BLOCK_ROWS)
    }

    /// One row's value, whatever the physical representation (the scalar
    /// oracle's accessor — data only, never block metadata).
    #[inline(always)]
    fn value_at(&self, row: usize) -> Value {
        match self.block_at(row) {
            Some(eb) => eb.value_at(row % BLOCK_ROWS),
            None => self.tail[row - self.covered()],
        }
    }

    /// Decodes rows `range` into a fresh vector (store order).
    pub fn decode_range(&self, range: Range<usize>) -> Vec<Value> {
        debug_assert!(range.end <= self.len());
        let covered = self.covered();
        let mut out = vec![0; range.len()];
        let mut row = range.start;
        while row < range.end {
            let at = row - range.start;
            if row >= covered {
                out[at..].copy_from_slice(&self.tail[row - covered..range.end - covered]);
                break;
            }
            let off = row % BLOCK_ROWS;
            let n = (BLOCK_ROWS - off).min(range.end - row);
            self.blocks[row / BLOCK_ROWS].decode_into(off, &mut out[at..at + n]);
            row += n;
        }
        out
    }

    /// Plain view of rows `start..end`; rows must not be encoded.
    #[inline(always)]
    fn slice(&self, start: usize, end: usize) -> &'a [Value] {
        let covered = self.covered();
        debug_assert!(start >= covered, "sliced rows must be plain");
        &self.tail[start - covered..end - covered]
    }
}

/// Read-only columnar data that scan plans execute against.
///
/// `Sync` is a supertrait on purpose: executing a plan never mutates the
/// source, and the parallel executor shares one source across threads.
pub trait ScanSource: Sync {
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Number of columns (dimensions).
    fn num_dims(&self) -> usize;
    /// One column's physical representation: the encoded prefix and the
    /// plain tail. The executor evaluates predicates directly on the packed
    /// blocks.
    fn column_data(&self, dim: usize) -> ColumnData<'_>;
    /// The source's deletion bitmap, if it supports tombstone deletes.
    /// Sources that return one with [`TombstoneSet::any`] get liveness
    /// ANDed into every selection — in all kernel tiers and on the dense
    /// exact-range path — so tombstoned rows never reach an aggregate.
    /// [`ScanCounters::matched`] counts live matches only; `ranges` and
    /// `points` still describe the plan's physical visit.
    fn tombstones(&self) -> Option<&TombstoneSet> {
        None
    }
}

impl ScanSource for Dataset {
    fn num_rows(&self) -> usize {
        self.len()
    }
    fn num_dims(&self) -> usize {
        self.num_dims()
    }
    fn column_data(&self, dim: usize) -> ColumnData<'_> {
        ColumnData {
            blocks: &[],
            tail: self.column(dim),
        }
    }
}

/// Reads the live rows of a contiguous physical range back out of a source
/// as a logical [`Dataset`], in store order: each column is decoded and its
/// tombstoned rows are skipped. A clustered index's store is the only copy
/// of its table, so this is how rebuilds, snapshots and oracles get the rows
/// — O(range) time and memory per call.
pub fn live_dataset(source: &dyn ScanSource, range: Range<usize>) -> Dataset {
    let dead = source.tombstones().filter(|t| t.any());
    let columns = (0..source.num_dims())
        .map(|dim| {
            let column = source.column_data(dim).decode_range(range.clone());
            match dead {
                None => column,
                Some(dead) => (column.into_iter().zip(range.clone()))
                    .filter(|&(_, row)| !dead.is_deleted(row))
                    .map(|(value, _)| value)
                    .collect(),
            }
        })
        .collect();
    Dataset::from_columns(columns).expect("a source has equal-length columns, at least one")
}

/// One contiguous physical row range of a scan plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRange {
    /// The physical rows to visit.
    pub range: Range<usize>,
    /// Whether every row in `range` is guaranteed to match the query filter,
    /// enabling the §6.1 exact-range optimization.
    pub exact: bool,
}

/// A pre-folded aggregate contribution attached to a plan instead of a
/// physical range: `rows` live rows whose SUM/MIN/MAX over the aggregation's
/// input dimension are already known (e.g. from a per-region aggregate cube).
/// The executor folds a partial into the accumulator with one
/// [`AggAccumulator::add_block`] call and never touches the underlying rows.
/// Only sound when every contributing row is guaranteed to match the query —
/// the same contract as an exact range, minus the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPartial {
    /// Number of live rows pre-folded into this partial.
    pub rows: u64,
    /// Exact sum of the aggregation's input dimension over those rows.
    pub sum: u128,
    /// Minimum of the input dimension over those rows (None iff `rows == 0`).
    pub min: Option<Value>,
    /// Maximum of the input dimension over those rows (None iff `rows == 0`).
    pub max: Option<Value>,
}

/// The ordered list of contiguous physical ranges an index wants scanned for
/// one query, plus optional residual predicates and pre-folded aggregate
/// partials. See the module docs for the full contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanPlan {
    ranges: Vec<ScanRange>,
    residual: Option<Vec<Predicate>>,
    partials: Vec<PlanPartial>,
}

impl ScanPlan {
    /// An empty plan (matches nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// The trivial full-scan plan over `len` rows.
    pub fn full(len: usize) -> Self {
        let mut plan = Self::new();
        plan.push(0..len, false);
        plan
    }

    /// Builds a plan from `(range, exact)` pairs, merging adjacent ranges.
    pub fn from_ranges<I: IntoIterator<Item = (Range<usize>, bool)>>(ranges: I) -> Self {
        let mut plan = Self::new();
        for (r, exact) in ranges {
            plan.push(r, exact);
        }
        plan
    }

    /// Appends a range. Empty ranges are dropped; a range physically adjacent
    /// to the previous one with the same exactness is merged into it, so the
    /// executor sees maximal contiguous runs.
    pub fn push(&mut self, range: Range<usize>, exact: bool) {
        if range.start >= range.end {
            return;
        }
        if let Some(last) = self.ranges.last_mut() {
            if last.range.end == range.start && last.exact == exact {
                last.range.end = range.end;
                return;
            }
        }
        self.ranges.push(ScanRange { range, exact });
    }

    /// Declares the predicates still to be checked inside non-exact ranges;
    /// the executor then skips the query predicates not listed. Only sound
    /// when the index guarantees the omitted predicates hold on every planned
    /// range.
    pub fn with_residual(mut self, residual: Vec<Predicate>) -> Self {
        self.residual = Some(residual);
        self
    }

    /// Attaches residual predicates derived from per-dimension guarantee
    /// flags: the query predicates whose dimension is *not* guaranteed (or
    /// lies beyond the flag slice — conservatively kept) become the
    /// residual. A no-op when nothing can be dropped, so planners can call
    /// this unconditionally. This is the one shared implementation of the
    /// guarantee → residual rule; see [`ScanPlan::with_residual`] for the
    /// soundness contract.
    pub fn with_guaranteed_dims(self, query: &Query, guaranteed: &[bool]) -> ScanPlan {
        let residual: Vec<Predicate> = query
            .predicates()
            .iter()
            .filter(|p| !guaranteed.get(p.dim).copied().unwrap_or(false))
            .copied()
            .collect();
        if residual.len() < query.predicates().len() {
            self.with_residual(residual)
        } else {
            self
        }
    }

    /// Attaches a pre-folded aggregate partial. Zero-row partials are
    /// dropped — they contribute nothing and would break the
    /// `min/max == None iff rows == 0` invariant downstream.
    pub fn push_partial(&mut self, partial: PlanPartial) {
        if partial.rows > 0 {
            self.partials.push(partial);
        }
    }

    /// The pre-folded aggregate partials attached to this plan.
    pub fn partials(&self) -> &[PlanPartial] {
        &self.partials
    }

    /// The planned ranges in scan order.
    pub fn ranges(&self) -> &[ScanRange] {
        &self.ranges
    }

    /// The residual predicates for non-exact ranges: the explicitly declared
    /// set, or all of the query's predicates.
    pub fn residual<'a>(&'a self, query: &'a Query) -> &'a [Predicate] {
        match &self.residual {
            Some(r) => r,
            None => query.predicates(),
        }
    }

    /// Number of planned ranges.
    pub fn num_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the plan scans nothing.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total number of rows the plan visits.
    pub fn total_points(&self) -> usize {
        self.ranges.iter().map(|r| r.range.len()).sum()
    }

    /// The plan with every range clamped to a source of `num_rows` rows
    /// (empty ranges dropped). Borrows when already in bounds — the common
    /// case, since planners derive ranges from the source itself — so the
    /// executors pay one `O(ranges)` check instead of re-clamping every range
    /// (twice, in the parallel executor) per execution.
    pub fn clamped(&self, num_rows: usize) -> Cow<'_, ScanPlan> {
        if self.ranges.iter().all(|r| r.range.end <= num_rows) {
            return Cow::Borrowed(self);
        }
        let mut clamped = ScanPlan {
            ranges: Vec::with_capacity(self.ranges.len()),
            residual: self.residual.clone(),
            partials: self.partials.clone(),
        };
        for r in &self.ranges {
            clamped.push(
                r.range.start.min(num_rows)..r.range.end.min(num_rows),
                r.exact,
            );
        }
        Cow::Owned(clamped)
    }
}

/// Counters accumulated while executing one plan.
///
/// These mirror the features of the paper's cost model (§5.3.1): the number
/// of contiguous physical ranges visited and the number of points scanned.
/// They are returned by value from the executor — never stored in the source
/// — so concurrent executions cannot double-account each other's work. All
/// kernel tiers report identical counters (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Number of contiguous ranges scanned.
    pub ranges: usize,
    /// Number of points visited (whether or not they matched).
    pub points: usize,
    /// Number of points that matched every predicate. Includes rows answered
    /// from pre-folded partials: they matched, they just were not visited.
    pub matched: usize,
    /// Number of [`PlanPartial`]s folded in without scanning.
    pub partial_regions: usize,
    /// Number of matched rows answered from partials instead of a scan —
    /// always `<= matched`, and excluded from `points`.
    pub rows_prefolded: usize,
}

impl ScanCounters {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &ScanCounters) {
        self.ranges += other.ranges;
        self.points += other.points;
        self.matched += other.matched;
        self.partial_regions += other.partial_regions;
        self.rows_prefolded += other.rows_prefolded;
    }
}

/// Folds a plan's pre-folded partials into the accumulator and counters.
/// [`execute_plan_with`] calls this exactly once per execution, after the
/// range scans, serial or pooled alike: the fold is one commutative
/// `add_block` per partial.
fn apply_partials(plan: &ScanPlan, acc: &mut AggAccumulator, counters: &mut ScanCounters) {
    for p in plan.partials() {
        acc.add_block(p.rows, p.sum, p.min, p.max);
        counters.partial_regions += 1;
        counters.rows_prefolded += p.rows as usize;
        counters.matched += p.rows as usize;
    }
}

/// How [`execute_plan_with`] runs a plan. `Default` is what
/// [`execute_plan`] uses: serial, [`KernelTier::Packed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Block-kernel tier for non-exact ranges. Both tiers return bit-identical
    /// results and counters; benchmarks and differential tests pin one.
    pub tier: KernelTier,
    /// Upper bound on participating threads (the caller plus pool workers).
    /// `0` and `1` both mean serial.
    pub threads: usize,
    /// The pool whose workers help when `threads > 1`; `None` is the
    /// process-wide [`pool::global`].
    pub pool: Option<&'a ThreadPool>,
    /// Rows per morsel when `threads > 1` (at least one block,
    /// [`BLOCK_ROWS`]); `None` is [`DEFAULT_MORSEL_ROWS`].
    pub morsel_rows: Option<usize>,
}

/// Executes a plan serially with the default [`KernelTier::Packed`]
/// kernels.
///
/// Returns the aggregation result together with the counters for exactly
/// this execution.
pub fn execute_plan(
    source: &dyn ScanSource,
    query: &Query,
    plan: &ScanPlan,
) -> (AggResult, ScanCounters) {
    execute_plan_with(source, query, plan, &ExecOptions::default())
}

/// Executes a plan across up to `threads` workers of the process-wide
/// pool with the default [`KernelTier::Packed`] kernels.
pub fn execute_plan_parallel(
    source: &dyn ScanSource,
    query: &Query,
    plan: &ScanPlan,
    threads: usize,
) -> (AggResult, ScanCounters) {
    let opts = ExecOptions {
        threads,
        ..ExecOptions::default()
    };
    execute_plan_with(source, query, plan, &opts)
}

/// The one way to run a plan: clamps it to the source, scans its ranges —
/// serially, or as morsels across a pool when [`ExecOptions::threads`] and
/// the plan's size warrant it — and folds in its pre-folded partials.
/// Results and counters are bit-identical for every `opts`; see the module
/// docs for the morsel decomposition behind that guarantee.
pub fn execute_plan_with(
    source: &dyn ScanSource,
    query: &Query,
    plan: &ScanPlan,
    opts: &ExecOptions<'_>,
) -> (AggResult, ScanCounters) {
    let plan = plan.clamped(source.num_rows());
    let plan = plan.as_ref();
    let resolved = ResolvedQuery::new(source, plan.residual(query), query.aggregation());
    let (mut acc, mut counters) = match plan_morsels(plan, opts) {
        // Serial: every range is one unit, scanned with a stack scratch —
        // deliberately NOT `with_thread_scratch`, see `THREAD_SCRATCH`.
        None => {
            let mut ranges = plan.ranges().iter();
            let mut next = || ranges.next().map(|sr| (sr.range.clone(), sr.exact, true));
            scan_units(&resolved, opts.tier, &mut BlockScratch::new(), &mut next)
        }
        // Pooled: the caller and `helpers` workers claim morsels from a
        // shared cursor and merge their private results once at the end.
        Some((pool, helpers, units)) => {
            let cursor = AtomicUsize::new(0);
            let merged = Mutex::new((AggAccumulator::new(resolved.agg), ScanCounters::default()));
            pool.join_helpers(helpers, &|| {
                let mut next = || units.get(cursor.fetch_add(1, Ordering::Relaxed)).cloned();
                let (acc, counters) = with_thread_scratch(|scratch| {
                    scan_units(&resolved, opts.tier, scratch, &mut next)
                });
                let mut m = merged.lock().expect("merging never panics");
                m.0.merge(&acc);
                m.1.merge(&counters);
            });
            merged.into_inner().expect("merging never panics")
        }
    };
    apply_partials(plan, &mut acc, &mut counters);
    (acc.finish(), counters)
}

/// Whether this CPU has the integer features of x86-64-v3 that the packed
/// path's second build is compiled for. The standard library caches each
/// detection, so asking costs a few loads.
fn has_x86_64_v3() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("bmi1")
            && std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("lzcnt")
            && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which build of the packed scan path this process runs:
/// `"x86-64-v3"` (AVX2, BMI1/2, LZCNT and hardware popcount) where the CPU
/// has those features, `"portable"` elsewhere. Results and counters are
/// the same either way; only the speed differs.
pub fn kernel_build() -> &'static str {
    if has_x86_64_v3() {
        "x86-64-v3"
    } else {
        "portable"
    }
}

/// One participant's scan loop — the only one there is: folds every unit
/// `next` yields into a private accumulator and counter set.
///
/// The packed tier runs [`scan_units_v3`] where the CPU has its features
/// ([`kernel_build`]), once per participant: the whole packed call tree
/// below is `#[inline(always)]`, so it is compiled into that copy with
/// hardware popcount and 256-bit compares. The scalar oracle always runs
/// the portable body, so the differential suites keep comparing the fast
/// path against code built apart from it. `next` is called once per unit
/// (a plan range or a morsel), so it is taken as a trait object: each build
/// holds one copy of the inlined tree, not one per caller.
fn scan_units(
    resolved: &ResolvedQuery<'_>,
    tier: KernelTier,
    scratch: &mut BlockScratch,
    next: &mut dyn FnMut() -> Option<Morsel>,
) -> (AggAccumulator, ScanCounters) {
    #[cfg(target_arch = "x86_64")]
    if tier == KernelTier::Packed && has_x86_64_v3() {
        // SAFETY: `scan_units_v3` only requires the target features it is
        // compiled with, and `has_x86_64_v3` just detected every one of
        // them on this CPU.
        return unsafe { scan_units_v3(resolved, scratch, next) };
    }
    scan_units_body(resolved, tier, scratch, next)
}

/// [`scan_units_body`] for the packed tier, compiled with x86-64-v3's
/// integer features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
fn scan_units_v3(
    resolved: &ResolvedQuery<'_>,
    scratch: &mut BlockScratch,
    next: &mut dyn FnMut() -> Option<Morsel>,
) -> (AggAccumulator, ScanCounters) {
    scan_units_body(resolved, KernelTier::Packed, scratch, next)
}

/// The portable body of [`scan_units`].
#[inline(always)]
fn scan_units_body(
    resolved: &ResolvedQuery<'_>,
    tier: KernelTier,
    scratch: &mut BlockScratch,
    next: &mut dyn FnMut() -> Option<Morsel>,
) -> (AggAccumulator, ScanCounters) {
    let mut acc = AggAccumulator::new(resolved.agg);
    let mut counters = ScanCounters::default();
    while let Some((range, exact, count_range)) = next() {
        resolved.scan_range(
            range,
            exact,
            count_range,
            tier,
            &mut acc,
            &mut counters,
            scratch,
        );
    }
    (acc, counters)
}

thread_local! {
    /// Per-worker reusable [`BlockScratch`]: pool workers run many morsels
    /// over their lifetime, so the selection vector and bitmap words are
    /// allocated once per thread instead of per claimed morsel. The serial
    /// path deliberately does NOT use this: funneling its range loop
    /// through the `with` closure costs measurable vectorization on
    /// near-empty scans (see `BENCH_scan.json` sel=0% entries), and one
    /// scratch allocation per query is below timer noise there.
    static THREAD_SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch::new());
}

/// Runs `f` with this thread's reusable scratch. Scan kernels never nest,
/// but if a caller ever re-enters (e.g. an aggregation callback running a
/// scan), fall back to a fresh scratch rather than panicking on the borrow.
fn with_thread_scratch<R>(f: impl FnOnce(&mut BlockScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BlockScratch::new()),
    })
}

/// One unit of scan work: `(range, exact, counts_as_new_range)`.
type Morsel = (Range<usize>, bool, bool);

/// Splits a plan's ranges into morsel work units. Only the first morsel
/// carved from a plan range increments the range counter, keeping
/// [`ScanCounters`] identical to the serial path.
fn split_morsels(plan: &ScanPlan, morsel_rows: usize) -> Vec<Morsel> {
    let mut units = Vec::new();
    for sr in plan.ranges() {
        let mut start = sr.range.start;
        let mut first = true;
        while start < sr.range.end {
            let end = (start + morsel_rows).min(sr.range.end);
            units.push((start..end, sr.exact, first));
            first = false;
            start = end;
        }
    }
    units
}

/// Decides whether a clamped plan fans out, and if so onto which pool, with
/// how many helpers, over which morsels. `None` means run it serially.
fn plan_morsels<'a>(
    plan: &ScanPlan,
    opts: &ExecOptions<'a>,
) -> Option<(&'a ThreadPool, usize, Vec<Morsel>)> {
    let threads = opts.threads;
    if threads <= 1 {
        return None;
    }
    // Parallelism only pays off once there is real work to split.
    let total = plan.total_points();
    if total < 4 * BLOCK_ROWS {
        return None;
    }
    let pool: &'a ThreadPool = match opts.pool {
        Some(pool) => pool,
        None => pool::global(),
    };
    // Cache-resident fixed-size morsels; for plans smaller than
    // threads × morsel_rows, shrink so every participant gets work.
    let configured = opts
        .morsel_rows
        .unwrap_or(DEFAULT_MORSEL_ROWS)
        .max(BLOCK_ROWS);
    let morsel = configured.min((total / threads).max(BLOCK_ROWS));
    let units = split_morsels(plan, morsel);
    let helpers = threads
        .min(units.len())
        .saturating_sub(1)
        .min(pool.worker_count());
    (helpers > 0).then_some((pool, helpers, units))
}

/// A query resolved against one source: predicate and aggregation columns
/// looked up once, so scanning many ranges (or many split pieces, in the
/// parallel executor) pays no per-range column resolution or allocation.
struct ResolvedQuery<'a> {
    /// `(column, predicate)` pairs for the residual predicates.
    preds: Vec<(ColumnData<'a>, Predicate)>,
    agg: Aggregation,
    agg_col: Option<ColumnData<'a>>,
    num_rows: usize,
    /// The source's deletion bitmap, captured only when it actually holds
    /// tombstones, so delete-free tables AND no liveness words into their
    /// selections.
    live: Option<&'a TombstoneSet>,
    /// `[lo, hi]` every row a selection keeps has its aggregation input in:
    /// the intersection of the residual predicates on the aggregated
    /// dimension ([`NO_CLIP`] when there are none). Only selections are
    /// clipped by it: an exact range folds every live row, whatever the
    /// plan claims about them.
    agg_clip: (Value, Value),
}

impl<'a> ResolvedQuery<'a> {
    fn new(source: &'a dyn ScanSource, residual: &[Predicate], agg: Aggregation) -> Self {
        let preds: Vec<(ColumnData<'a>, Predicate)> = residual
            .iter()
            .map(|&p| (source.column_data(p.dim), p))
            .collect();
        let agg_col = agg.input_dim().map(|d| source.column_data(d));
        let agg_clip = residual
            .iter()
            .filter(|p| Some(p.dim) == agg.input_dim())
            .fold(NO_CLIP, |(lo, hi), p| (lo.max(p.lo), hi.min(p.hi)));
        Self {
            preds,
            agg,
            agg_col,
            num_rows: source.num_rows(),
            live: source.tombstones().filter(|t| t.any()),
            agg_clip,
        }
    }

    /// Whether any resolved column stores the rows at `row`'s block encoded.
    #[inline(always)]
    fn chunk_encoded(&self, row: usize) -> bool {
        self.preds.iter().any(|(c, _)| c.block_at(row).is_some())
            || self
                .agg_col
                .as_ref()
                .is_some_and(|c| c.block_at(row).is_some())
    }

    /// Whether physical row `row` survives the deletion bitmap.
    #[inline(always)]
    fn alive(&self, row: usize) -> bool {
        match self.live {
            Some(t) => !t.is_deleted(row),
            None => true,
        }
    }

    /// Scans one contiguous in-bounds range into an accumulator, blockwise
    /// with the requested kernel tier.
    ///
    /// `count_range` controls whether this call increments the range counter
    /// (the parallel executor passes `false` for continuation pieces of a
    /// split range). The caller provides the reusable [`BlockScratch`].
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn scan_range(
        &self,
        range: Range<usize>,
        exact: bool,
        count_range: bool,
        tier: KernelTier,
        acc: &mut AggAccumulator,
        counters: &mut ScanCounters,
        scratch: &mut BlockScratch,
    ) {
        debug_assert!(range.end <= self.num_rows, "plans are clamped at entry");
        if range.is_empty() {
            return;
        }
        if count_range {
            counters.ranges += 1;
        }
        counters.points += range.len();

        // An exact range — or a query with no predicates left to check —
        // matches every row: aggregate the whole range without building a
        // selection. Tombstones still apply: with deletes present the range
        // is folded through liveness words instead of the raw-slice path.
        if exact || self.preds.is_empty() {
            match self.live {
                None => {
                    counters.matched += range.len();
                    self.aggregate_dense_range(range, tier, acc);
                }
                Some(t) => {
                    counters.matched += self.aggregate_dense_live(t, range, tier, acc);
                }
            }
            return;
        }

        // Blocks are aligned to the absolute BLOCK_ROWS grid (not to the
        // range start), so a chunk always falls inside one encoded block.
        // Selection semantics are per-row, so alignment never changes
        // results or counters — only which rows share a block.
        let mut start = range.start;
        while start < range.end {
            let end = grid_block_end(start, range.end);
            let matched = match tier {
                KernelTier::Scalar if self.chunk_encoded(start) => {
                    self.scan_chunk_scalar_encoded(start, end, acc, scratch)
                }
                KernelTier::Scalar => self.scan_block_scalar(start, end, acc, scratch),
                KernelTier::Packed => self.scan_chunk_packed(start, end, acc, scratch),
            };
            counters.matched += matched;
            start = end;
        }
    }

    /// The aggregation input restricted to grid chunk `start..end` (which
    /// never straddles an encoded block): a plain slice when the rows are
    /// plain — including an encoded block with a `Plain` payload, so the
    /// slice folds run — or a fetch view into the packed payload.
    #[inline(always)]
    fn agg_view(&self, start: usize, end: usize) -> AggView<'a> {
        let Some(col) = self.agg_col else {
            return AggView::None;
        };
        match col.block_at(start) {
            None => AggView::Slice(col.slice(start, end)),
            Some(eb) => {
                let offset = start % BLOCK_ROWS;
                match eb.data() {
                    BlockData::Plain(vals) => AggView::Slice(&vals[offset..offset + (end - start)]),
                    _ => AggView::Block { eb, offset },
                }
            }
        }
    }

    /// The aggregation input the packed tier reads for grid chunk
    /// `start..end` whose folded rows all lie in `clip`: none when the
    /// chunk cannot move `acc`'s running MIN/MAX
    /// ([`ResolvedQuery::settled`]), so only its matches are counted.
    #[inline(always)]
    fn pruned_view(
        &self,
        start: usize,
        end: usize,
        acc: &AggAccumulator,
        clip: (Value, Value),
    ) -> AggView<'a> {
        if self.settled(start, acc, clip) {
            AggView::None
        } else {
            self.agg_view(start, end)
        }
    }

    /// Whether no row of chunk `start..` of an encoded aggregation block
    /// whose value lies in `clip` can move `acc`'s running MIN (MAX): the
    /// block's live bounds, tightened by `clip`, bound every such row from
    /// below (above), and the running extreme is already at or past that
    /// bound. Sound because folded rows are live, and the live set only
    /// shrinks after encoding, so the encode-time live bounds still hold.
    /// Always `false` for other aggregations and for plain rows.
    #[inline(always)]
    fn settled(&self, start: usize, acc: &AggAccumulator, clip: (Value, Value)) -> bool {
        let live = || {
            let eb = self.agg_col?.block_at(start)?;
            eb.live_bounds()
        };
        let (min, max) = acc.extremes();
        match self.agg {
            Aggregation::Min(_) => min
                .zip(live())
                .is_some_and(|(m, (lo, _))| m <= lo.max(clip.0)),
            Aggregation::Max(_) => max
                .zip(live())
                .is_some_and(|(m, (_, hi))| m >= hi.min(clip.1)),
            _ => false,
        }
    }

    /// Aggregates every row of a dense (exact, tombstone-free) range. On
    /// the packed tier, an encoded block goes through
    /// [`ResolvedQuery::aggregate_dense_packed`]; the scalar oracle fetches
    /// every row.
    #[inline(always)]
    fn aggregate_dense_range(
        &self,
        range: Range<usize>,
        tier: KernelTier,
        acc: &mut AggAccumulator,
    ) {
        let Some(col) = self.agg_col else {
            return aggregate_dense_view(self.agg, &AggView::None, range.len(), acc);
        };
        if col.is_plain() {
            let view = AggView::Slice(col.slice(range.start, range.end));
            return aggregate_dense_view(self.agg, &view, range.len(), acc);
        }
        let mut start = range.start;
        while start < range.end {
            let end = grid_block_end(start, range.end);
            match col.block_at(start) {
                Some(eb) if tier == KernelTier::Packed => {
                    self.aggregate_dense_packed(eb, start, end, acc)
                }
                _ => aggregate_dense_view(self.agg, &self.agg_view(start, end), end - start, acc),
            }
            start = end;
        }
    }

    /// The packed tier's aggregate of every row of chunk `start..end` of
    /// encoded block `eb`, on a tombstone-free source. MIN/MAX over the
    /// whole block take the block's physical bounds, since every stored row
    /// is live and selected; any other chunk folds its packed codes under
    /// an all-set bitmap ([`ResolvedQuery::aggregate_chunk_live`]).
    #[inline(always)]
    fn aggregate_dense_packed(
        &self,
        eb: &EncodedBlock,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
    ) {
        let len = end - start;
        let extreme = matches!(self.agg, Aggregation::Min(_) | Aggregation::Max(_));
        if extreme && start.is_multiple_of(BLOCK_ROWS) && len == eb.len() {
            let (lo, hi) = eb.bounds();
            return acc.add_block(len as u64, 0, Some(lo), Some(hi));
        }
        self.aggregate_chunk_live(None, start, end, KernelTier::Packed, acc);
    }

    /// Aggregates a dense (exact) range under tombstones, one grid chunk at
    /// a time ([`ResolvedQuery::aggregate_chunk_live`]). Returns the number
    /// of live rows aggregated.
    #[inline(always)]
    fn aggregate_dense_live(
        &self,
        t: &TombstoneSet,
        range: Range<usize>,
        tier: KernelTier,
        acc: &mut AggAccumulator,
    ) -> usize {
        let mut matched = 0usize;
        let mut start = range.start;
        while start < range.end {
            let end = grid_block_end(start, range.end);
            matched += self.aggregate_chunk_live(Some(t), start, end, tier, acc);
            start = end;
        }
        matched
    }

    /// Aggregates the rows of grid chunk `start..end` that `live` keeps
    /// (every row when `None`): their liveness words are the selection
    /// bitmap fed to the mask-native aggregation kernels. Returns how many
    /// rows it aggregated. The packed tier runs over the chunk's
    /// [`packed_window`] and prunes on the block's live bounds alone; the
    /// oracle reads every live row from the chunk's own start.
    #[inline(always)]
    fn aggregate_chunk_live(
        &self,
        live: Option<&TombstoneSet>,
        start: usize,
        end: usize,
        tier: KernelTier,
        acc: &mut AggAccumulator,
    ) -> usize {
        let from = match tier {
            KernelTier::Packed => packed_window(start),
            KernelTier::Scalar => start,
        };
        // A stack array: a slice fill of the scratch bitmap compiles to a
        // `memset` call, portable code in the x86-64-v3 build.
        let mut words = [u64::MAX; kernels::BLOCK_WORDS];
        let words = &mut words[..(end - from).div_ceil(kernels::WORD_BITS)];
        if let Some(t) = live {
            for (w, word) in words.iter_mut().enumerate() {
                *word = t.live_word(from + w * kernels::WORD_BITS);
            }
        }
        clip_window(words, start - from, end - from);
        let view = match tier {
            KernelTier::Packed => self.pruned_view(from, end, acc, NO_CLIP),
            KernelTier::Scalar => self.agg_view(from, end),
        };
        aggregate_mask(self.agg, &view, words, tier, acc)
    }

    /// Reference branchy selection loop (the oracle tier) over plain rows.
    /// Both oracle loops stay out of line, so the packed path's inlining
    /// does not move them: inlined into [`ResolvedQuery::scan_range`], this
    /// one read ~1.8× slower per row at 0 % selectivity in `fig12kern`.
    #[inline(never)]
    fn scan_block_scalar(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let sel = &mut scratch.sel;
        let (col0, p0) = &self.preds[0];
        let mut n = 0usize;
        for (i, &v) in col0.slice(start, end).iter().enumerate() {
            if p0.matches(v) && self.alive(start + i) {
                sel[n] = i as u32;
                n += 1;
            }
        }
        for (col, p) in &self.preds[1..] {
            if n == 0 {
                break;
            }
            let block = col.slice(start, end);
            let mut out = 0usize;
            for k in 0..n {
                let i = sel[k];
                if p.matches(block[i as usize]) {
                    sel[out] = i;
                    out += 1;
                }
            }
            n = out;
        }
        let view = self.agg_view(start, end);
        aggregate_selected(self.agg, &view, &scratch.sel[..n], acc);
        n
    }

    /// The oracle tier on a chunk with encoded columns: the same branchy
    /// row-at-a-time loop, reading rows through [`ColumnData::value_at`].
    /// Deliberately uses **no** block metadata — no skip, no all-match — so
    /// the differential suites catch any unsound pruning in the packed path.
    #[inline(never)]
    fn scan_chunk_scalar_encoded(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        let sel = &mut scratch.sel;
        let (col0, p0) = &self.preds[0];
        let mut n = 0usize;
        for i in 0..end - start {
            let row = start + i;
            if p0.matches(col0.value_at(row)) && self.alive(row) {
                sel[n] = i as u32;
                n += 1;
            }
        }
        for (col, p) in &self.preds[1..] {
            if n == 0 {
                break;
            }
            let mut out = 0usize;
            for k in 0..n {
                let i = sel[k];
                if p.matches(col.value_at(start + i as usize)) {
                    sel[out] = i;
                    out += 1;
                }
            }
            n = out;
        }
        let view = self.agg_view(start, end);
        aggregate_selected(self.agg, &view, &scratch.sel[..n], acc);
        n
    }

    /// The packed tier's one path, for every chunk. Per predicate on an
    /// encoded block, the block's metadata classifies the test
    /// ([`EncodedBlock::classify`]): a `Skip` ends the chunk before touching
    /// any payload (skip-before-decode); an `AllLive` drops the predicate
    /// (every live row passes, and dead rows are masked by liveness below);
    /// otherwise the predicate is evaluated as a SWAR code-range compare
    /// directly on the packed words ([`kernels::packed_mask`]). Plain
    /// payloads and plain columns take the 8-lane mask kernels
    /// ([`kernels::mask_first`] / [`kernels::mask_refine`]). Every kernel
    /// runs over the chunk's [`packed_window`], so packed columns are read
    /// from a packed word on. Liveness is ANDed in last, and then the
    /// window's head rows are cleared.
    #[inline(always)]
    fn scan_chunk_packed(
        &self,
        start: usize,
        end: usize,
        acc: &mut AggAccumulator,
        scratch: &mut BlockScratch,
    ) -> usize {
        // Fold every predicate into one selection bitmap over the window
        // `from..end` (bit `i` = row `from + i`).
        let from = packed_window(start);
        let (wlen, woffset) = (end - from, from % BLOCK_ROWS);
        let nw = wlen.div_ceil(kernels::WORD_BITS);
        let mut first = true;
        let mut any = 0u64;
        for (col, p) in &self.preds {
            let mode = if first {
                kernels::MaskMode::Set
            } else {
                kernels::MaskMode::And
            };
            let words = &mut scratch.words[..nw];
            let eb = col.block_at(start);
            any = match eb.map_or(BlockTest::Plain, |eb| eb.classify(p.lo, p.hi)) {
                BlockTest::Skip => return 0,
                BlockTest::AllLive => continue,
                BlockTest::Packed { lo, hi } => {
                    let (packed, class) = packed_payload(eb.expect("only a block packs"));
                    kernels::packed_mask(packed, class, woffset, wlen, lo, hi, mode, words)
                }
                BlockTest::Plain => {
                    let block = match eb.map(EncodedBlock::data) {
                        Some(BlockData::Plain(vals)) => &vals[woffset..woffset + wlen],
                        Some(_) => unreachable!("Plain classification implies plain payload"),
                        None => col.slice(from, end),
                    };
                    match mode {
                        kernels::MaskMode::Set => kernels::mask_first(block, *p, words),
                        kernels::MaskMode::And => kernels::mask_refine(block, *p, words),
                    }
                }
            };
            first = false;
            if any == 0 {
                return 0;
            }
        }

        // Every predicate was AllLive: the chunk is dense up to liveness.
        if first {
            return match self.live {
                None => {
                    self.aggregate_dense_range(start..end, KernelTier::Packed, acc);
                    end - start
                }
                Some(t) => self.aggregate_dense_live(t, start..end, KernelTier::Packed, acc),
            };
        }

        let words = &mut scratch.words[..nw];
        if let Some(t) = self.live {
            any = 0;
            for (w, word) in words.iter_mut().enumerate() {
                *word &= t.live_word(from + w * kernels::WORD_BITS);
                any |= *word;
            }
        }
        if any == 0 {
            return 0;
        }
        // `any` may have seen only head rows: the selection is then empty
        // after the clip, and the fold below adds nothing.
        clip_window(words, start - from, wlen);
        let view = self.pruned_view(from, end, acc, self.agg_clip);
        aggregate_mask(self.agg, &view, words, KernelTier::Packed, acc)
    }
}

/// The packed words and class of a FOR or Dict payload.
#[inline(always)]
fn packed_payload(eb: &EncodedBlock) -> (&[u64], PackClass) {
    match eb.data() {
        BlockData::For { class, packed } => (packed, *class),
        BlockData::Dict { class, packed, .. } => (packed, *class),
        BlockData::Plain(_) => unreachable!("packed payload requested for plain block"),
    }
}

/// Where the packed tier's window over a chunk starting at row `start`
/// begins: `start` rounded down to the [`kernels::PACK_GRID`], so every
/// packed column's window starts on a packed word. The ≤ 7 head rows it
/// adds lie in the chunk's own block, since blocks start on that grid, and
/// [`clip_window`] clears them from the selection before it is aggregated.
#[inline(always)]
fn packed_window(start: usize) -> usize {
    start & !(kernels::PACK_GRID - 1)
}

/// Keeps only rows `head..len` of a window's selection bitmap: clears the
/// head rows a [`packed_window`] adds before its chunk, and the bits of a
/// partial last word past the window's end.
#[inline(always)]
fn clip_window(words: &mut [u64], head: usize, len: usize) {
    let tail = len % kernels::WORD_BITS;
    if tail != 0 {
        words[words.len() - 1] &= (1u64 << tail) - 1;
    }
    words[0] &= u64::MAX << head;
}

/// The aggregation input for one grid chunk, with **window-local** row
/// indexing (index `i` = physical row `window_start + i`, the window being
/// the chunk or its [`packed_window`]): a plain slice, a window into an
/// encoded block's packed payload, or nothing (`COUNT`, or no input
/// column).
#[derive(Clone, Copy)]
enum AggView<'a> {
    None,
    Slice(&'a [Value]),
    Block { eb: &'a EncodedBlock, offset: usize },
}

impl AggView<'_> {
    /// Chunk-local row `i`'s aggregation input value. Only called on
    /// [`AggView::Slice`] / [`AggView::Block`]. Decodes in place instead of
    /// calling [`EncodedBlock::value_at`], which is not inlined: in the
    /// x86-64-v3 build that call would leave for portable code on every
    /// fetched row.
    #[inline(always)]
    fn fetch(&self, i: usize) -> Value {
        match self {
            AggView::Slice(s) => s[i],
            AggView::Block { eb, offset } => match eb.data() {
                BlockData::For { class, packed } => {
                    eb.bounds().0 + extract(packed, *class, offset + i)
                }
                BlockData::Dict {
                    class,
                    uniques,
                    packed,
                } => uniques[extract(packed, *class, offset + i) as usize],
                BlockData::Plain(vals) => vals[offset + i],
            },
            AggView::None => unreachable!("no aggregation input to fetch"),
        }
    }
}

/// Mask-native aggregation of one chunk's selection bitmap, shared by the
/// packed path and the tombstone-aware dense path of both tiers. `tier`
/// picks the fold over an encoded block: the packed tier, whose windows
/// start on a packed word, folds packed codes (SUM of a FOR block, and
/// MIN/MAX, see [`mask_extreme`]); the scalar oracle fetches every
/// selected row. Returns the number of selected rows.
#[inline(always)]
fn aggregate_mask(
    agg: Aggregation,
    col: &AggView,
    words: &[u64],
    tier: KernelTier,
    acc: &mut AggAccumulator,
) -> usize {
    match (agg, col) {
        (Aggregation::Count, _) | (_, AggView::None) => {
            let n = kernels::mask_count(words);
            acc.add_bulk(n as u64, 0);
            n
        }
        (Aggregation::Sum(_) | Aggregation::Avg(_), AggView::Slice(s)) => {
            let (n, sum) = kernels::mask_sum(s, words);
            acc.add_bulk(n, sum);
            n as usize
        }
        (Aggregation::Sum(_) | Aggregation::Avg(_), AggView::Block { eb, offset }) => {
            // A FOR block on the packed tier sums its packed codes straight
            // off the selection bitmap.
            if let (KernelTier::Packed, BlockData::For { class, packed }) = (tier, eb.data()) {
                let (n, code_sum) = kernels::mask_sum_packed(words, packed, *class, *offset);
                let reference = eb.bounds().0 as u128;
                acc.add_bulk(n, code_sum + n as u128 * reference);
                return n as usize;
            }
            let (n, sum) = kernels::mask_sum_fetch(
                words,
                #[inline(always)]
                |i| col.fetch(i),
            );
            acc.add_bulk(n, sum);
            n as usize
        }
        (Aggregation::Min(_), _) => {
            let (n, lo) = mask_extreme(col, words, tier, kernels::Extreme::Min);
            acc.add_block(n, 0, lo, None);
            n as usize
        }
        (Aggregation::Max(_), _) => {
            let (n, hi) = mask_extreme(col, words, tier, kernels::Extreme::Max);
            acc.add_block(n, 0, None, hi);
            n as usize
        }
    }
}

/// `(selected rows, their MIN or MAX)` of one chunk's selection bitmap: a
/// plain slice folds directly; on the packed tier a FOR or Dict block folds
/// its codes ([`kernels::mask_extreme_packed`]), its window starting on a
/// packed word; the scalar oracle fetches the selected rows of a block one
/// at a time.
#[inline(always)]
fn mask_extreme(
    col: &AggView,
    words: &[u64],
    tier: KernelTier,
    extreme: kernels::Extreme,
) -> (u64, Option<Value>) {
    use kernels::Extreme::{Max, Min};
    let AggView::Block { eb, offset } = *col else {
        let AggView::Slice(s) = *col else {
            unreachable!("no aggregation input to fold")
        };
        return match extreme {
            Min => kernels::mask_min(s, words),
            Max => kernels::mask_max(s, words),
        };
    };
    if tier == KernelTier::Packed {
        let (packed, class) = packed_payload(eb);
        let (n, code) = kernels::mask_extreme_packed(words, packed, class, offset, extreme);
        let value = code.map(|c| match eb.data() {
            BlockData::Dict { uniques, .. } => uniques[c as usize],
            _ => eb.bounds().0 + c,
        });
        return (n, value);
    }
    let (identity, fold): (Value, fn(Value, Value) -> Value) = match extreme {
        Min => (Value::MAX, Value::min),
        Max => (Value::MIN, Value::max),
    };
    kernels::mask_extreme_fetch(
        words,
        identity,
        fold,
        #[inline(always)]
        |i| col.fetch(i),
    )
}

/// Aggregates every row of one dense chunk (exact-range fast path): plain
/// rows on either tier, and an encoded block on the scalar oracle, which
/// fetches every row (the packed tier folds encoded blocks under a bitmap,
/// [`ResolvedQuery::aggregate_dense_packed`]). Its folds are plain loops:
/// iterator `sum`/`min`/`max` here were left out of line, so the x86-64-v3
/// build called portable code for every chunk.
#[inline(always)]
fn aggregate_dense_view(agg: Aggregation, col: &AggView, len: usize, acc: &mut AggAccumulator) {
    let n = len as u64;
    match (agg, col) {
        (Aggregation::Count, _) | (_, AggView::None) => acc.add_bulk(n, 0),
        (Aggregation::Sum(_) | Aggregation::Avg(_), AggView::Slice(s)) => {
            let mut sum = 0u128;
            for &v in &s[..len] {
                sum += v as u128;
            }
            acc.add_bulk(n, sum);
        }
        (Aggregation::Sum(_) | Aggregation::Avg(_), _) => {
            let mut sum = 0u128;
            for i in 0..len {
                sum += col.fetch(i) as u128;
            }
            acc.add_bulk(n, sum);
        }
        // MIN/MAX cannot use the bulk-sum shortcut: even an exact range needs
        // its values inspected.
        (Aggregation::Min(_), _) => {
            acc.add_block(n, 0, dense_extreme(col, len, Value::MAX, Value::min), None);
        }
        (Aggregation::Max(_), _) => {
            acc.add_block(n, 0, None, dense_extreme(col, len, Value::MIN, Value::max));
        }
    }
}

/// `fold` (MIN or MAX, starting from its `identity`) over chunk-local rows
/// `0..len`; `None` when there are none. A slice folds tightly.
#[inline(always)]
fn dense_extreme(
    col: &AggView,
    len: usize,
    identity: Value,
    fold: fn(Value, Value) -> Value,
) -> Option<Value> {
    let mut best = identity;
    if let AggView::Slice(s) = col {
        for &v in &s[..len] {
            best = fold(best, v);
        }
    } else {
        for i in 0..len {
            best = fold(best, col.fetch(i));
        }
    }
    (len > 0).then_some(best)
}

/// Aggregates the selected rows of one chunk (`sel` holds chunk-local
/// indices).
fn aggregate_selected(agg: Aggregation, col: &AggView, sel: &[u32], acc: &mut AggAccumulator) {
    if sel.is_empty() {
        return;
    }
    let n = sel.len() as u64;
    match (agg, col) {
        (Aggregation::Count, _) | (_, AggView::None) => acc.add_bulk(n, 0),
        (Aggregation::Sum(_) | Aggregation::Avg(_), _) => {
            let sum: u128 = sel.iter().map(|&i| col.fetch(i as usize) as u128).sum();
            acc.add_bulk(n, sum);
        }
        (Aggregation::Min(_), _) => {
            let lo = sel.iter().map(|&i| col.fetch(i as usize)).min();
            acc.add_block(n, 0, lo, None);
        }
        (Aggregation::Max(_), _) => {
            let hi = sel.iter().map(|&i| col.fetch(i as usize)).max();
            acc.add_block(n, 0, None, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, Query};

    fn source() -> Dataset {
        // dim0: 0..1000, dim1: reversed, dim2: i*3 % 101.
        Dataset::from_columns(vec![
            (0..1000u64).collect(),
            (0..1000u64).rev().collect(),
            (0..1000u64).map(|v| v * 3 % 101).collect(),
        ])
        .unwrap()
    }

    fn count(preds: Vec<Predicate>) -> Query {
        Query::count(preds).unwrap()
    }

    /// Runs a plan with a pinned tier on `threads` participants of the
    /// global pool (`1` = serial).
    fn run(
        source: &dyn ScanSource,
        query: &Query,
        plan: &ScanPlan,
        threads: usize,
        tier: KernelTier,
    ) -> (AggResult, ScanCounters) {
        let opts = ExecOptions {
            tier,
            threads,
            ..ExecOptions::default()
        };
        execute_plan_with(source, query, plan, &opts)
    }

    #[test]
    fn plan_push_merges_adjacent_equal_exactness() {
        let mut plan = ScanPlan::new();
        plan.push(0..10, false);
        plan.push(10..20, false);
        plan.push(20..30, true);
        plan.push(30..40, true);
        plan.push(50..60, true);
        plan.push(60..60, true); // dropped: empty
        assert_eq!(plan.num_ranges(), 3);
        assert_eq!(plan.ranges()[0].range, 0..20);
        assert!(!plan.ranges()[0].exact);
        assert_eq!(plan.ranges()[1].range, 20..40);
        assert!(plan.ranges()[1].exact);
        assert_eq!(plan.ranges()[2].range, 50..60);
        assert_eq!(plan.total_points(), 50);
    }

    #[test]
    fn clamped_borrows_in_bounds_plans_and_trims_others() {
        let plan = ScanPlan::from_ranges([(0..10, false), (20..30, true)]);
        assert!(matches!(plan.clamped(30), Cow::Borrowed(_)));

        let plan = ScanPlan::from_ranges([(0..10, false), (20..50, true), (60..70, false)]);
        let clamped = plan.clamped(25);
        assert!(matches!(clamped, Cow::Owned(_)));
        assert_eq!(clamped.num_ranges(), 2);
        assert_eq!(clamped.ranges()[1].range, 20..25);
        assert!(clamped.ranges()[1].exact);
        assert_eq!(clamped.total_points(), 15);
    }

    #[test]
    fn executor_matches_oracle_on_full_scan() {
        let ds = source();
        let q = count(vec![Predicate::range(0, 100, 499).unwrap()]);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::full(ds.len()));
        assert_eq!(res, q.execute_full_scan(&ds));
        assert_eq!(counters.ranges, 1);
        assert_eq!(counters.points, 1000);
        assert_eq!(counters.matched, 400);
    }

    #[test]
    fn executor_handles_multi_predicate_blocks() {
        let ds = source();
        let q = count(vec![
            Predicate::range(0, 0, 899).unwrap(),
            Predicate::range(1, 200, 999).unwrap(),
            Predicate::range(2, 0, 50).unwrap(),
        ]);
        let (res, _) = execute_plan(&ds, &q, &ScanPlan::full(ds.len()));
        assert_eq!(res, q.execute_full_scan(&ds));
    }

    #[test]
    fn every_tier_is_bit_identical_including_counters() {
        let ds = source();
        let plan = ScanPlan::from_ranges([(0..300, false), (450..700, false), (800..1000, true)]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(
                vec![
                    Predicate::range(0, 50, 650).unwrap(),
                    Predicate::range(2, 5, 95).unwrap(),
                ],
                agg,
            )
            .unwrap();
            let (expected, expected_counters) = run(&ds, &q, &plan, 1, KernelTier::Scalar);
            for tier in KernelTier::ALL {
                let (res, counters) = run(&ds, &q, &plan, 1, tier);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, expected_counters, "{agg:?} counters via {tier:?}");
            }
        }
    }

    #[test]
    fn bitmap_tier_handles_all_aggregations_on_dense_selections() {
        // ~99% dense selection on a plain Dataset, through the packed tier's
        // plain branch: the selection bitmap's fully-set-word fast paths run.
        let ds = source();
        let preds = vec![Predicate::range(0, 5, 994).unwrap()];
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(preds.clone(), agg).unwrap();
            let (res, _) = run(&ds, &q, &ScanPlan::full(ds.len()), 1, KernelTier::Packed);
            assert_eq!(res, q.execute_full_scan(&ds), "{agg:?}");
        }
    }

    #[test]
    fn exact_ranges_skip_residual_checks() {
        let ds = source();
        // The filter matches only 0..10 but the plan claims 0..20 is exact:
        // the executor must trust the plan and count all 20.
        let q = count(vec![Predicate::range(0, 0, 9).unwrap()]);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(0..20, true)]));
        assert_eq!(res, AggResult::Count(20));
        assert_eq!(counters.matched, 20);
    }

    #[test]
    fn exact_min_max_uses_value_fold() {
        let ds = source();
        let q = Query::new(vec![], Aggregation::Min(1)).unwrap();
        let (res, _) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(5..10, true)]));
        assert_eq!(res, AggResult::Min(Some(990)));
        let q = Query::new(vec![], Aggregation::Max(1)).unwrap();
        let (res, _) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(5..10, true)]));
        assert_eq!(res, AggResult::Max(Some(994)));
    }

    #[test]
    fn residual_predicates_replace_query_predicates() {
        let ds = source();
        // Query filters dim0 and dim2, but the plan declares only dim2 as
        // residual (claiming dim0 is guaranteed by construction).
        let q = count(vec![
            Predicate::range(0, 500, 509).unwrap(),
            Predicate::range(2, 0, 100).unwrap(),
        ]);
        let plan = ScanPlan::from_ranges([(500..510, false)])
            .with_residual(vec![Predicate::range(2, 0, 100).unwrap()]);
        let (res, _) = execute_plan(&ds, &q, &plan);
        // dim2 predicate matches everything (domain is 0..=100): all 10 rows.
        assert_eq!(res, AggResult::Count(10));
    }

    #[test]
    fn out_of_bounds_ranges_are_clamped() {
        let ds = source();
        let q = count(vec![]);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(990..5000, false)]));
        assert_eq!(res, AggResult::Count(10));
        assert_eq!(counters.points, 10);
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::from_ranges([(5000..6000, false)]));
        assert_eq!(res, AggResult::Count(0));
        assert_eq!(counters.ranges, 0);
    }

    #[test]
    fn all_aggregations_match_oracle_over_fragmented_plans() {
        let ds = source();
        let preds = vec![Predicate::range(2, 10, 60).unwrap()];
        let plan = ScanPlan::from_ranges([(0..300, false), (300..700, false), (800..1000, false)]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(preds.clone(), agg).unwrap();
            // The oracle over the same rows: 0..700 and 800..1000.
            let rows: Vec<usize> = (0..700).chain(800..1000).collect();
            let expected = q.execute_full_scan(&ds.select_rows(&rows));
            let (res, _) = execute_plan(&ds, &q, &plan);
            assert_eq!(res, expected, "{agg:?}");
        }
    }

    #[test]
    fn parallel_executor_matches_serial_results_and_counters() {
        // Big enough to clear the parallel threshold, with a mix of exact and
        // non-exact fragments.
        let n = 40_000u64;
        let ds = Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v * 7 % 1_000).collect(),
        ])
        .unwrap();
        let plan = ScanPlan::from_ranges([
            (0..15_000, false),
            (15_000..16_000, true),
            (20_000..40_000, false),
        ]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(vec![Predicate::range(1, 100, 800).unwrap()], agg).unwrap();
            let (serial, serial_counters) = execute_plan(&ds, &q, &plan);
            for threads in [2, 3, 8] {
                for tier in KernelTier::ALL {
                    let (parallel, parallel_counters) = run(&ds, &q, &plan, threads, tier);
                    assert_eq!(parallel, serial, "{agg:?} with {threads} threads {tier:?}");
                    assert_eq!(
                        parallel_counters, serial_counters,
                        "{agg:?} counters with {threads} threads {tier:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_executor_matches_serial_across_morsel_sizes() {
        // Morsel sizes deliberately straddling BLOCK_ROWS boundaries: pieces
        // that start mid-block re-align blockwise inside scan_range, so
        // selection (and thus results and counters) must not change.
        let n = 30_000u64;
        let ds = Dataset::from_columns(vec![
            (0..n).collect(),
            (0..n).map(|v| v * 13 % 509).collect(),
        ])
        .unwrap();
        let plan = ScanPlan::from_ranges([
            (0..11_111, false),
            (11_111..12_000, true),
            (13_001..30_000, false),
        ]);
        let q = Query::new(
            vec![Predicate::range(1, 40, 333).unwrap()],
            Aggregation::Avg(0),
        )
        .unwrap();
        let (serial, sc) = execute_plan(&ds, &q, &plan);
        let pool = ThreadPool::new(2);
        for morsel in [BLOCK_ROWS, BLOCK_ROWS + 1, 1_500, 3 * BLOCK_ROWS + 17] {
            for threads in [2, 5] {
                let opts = ExecOptions {
                    threads,
                    pool: Some(&pool),
                    morsel_rows: Some(morsel),
                    ..ExecOptions::default()
                };
                let (pooled, pc) = execute_plan_with(&ds, &q, &plan, &opts);
                assert_eq!(serial, pooled, "morsel={morsel} threads={threads}");
                assert_eq!(sc, pc, "counters morsel={morsel} threads={threads}");
            }
        }
    }

    #[test]
    fn a_morsel_is_never_smaller_than_a_block() {
        let pool = ThreadPool::new(2);
        let opts = ExecOptions {
            threads: 2,
            pool: Some(&pool),
            morsel_rows: Some(1),
            ..ExecOptions::default()
        };
        let (_, helpers, units) = plan_morsels(&ScanPlan::full(8 * BLOCK_ROWS), &opts).unwrap();
        assert_eq!(helpers, 1);
        assert_eq!(units.len(), 8);
        assert!(units.iter().all(|(range, ..)| range.len() == BLOCK_ROWS));
    }

    #[test]
    fn parallel_executor_degrades_to_serial_for_tiny_plans() {
        let ds = source();
        let q = count(vec![Predicate::range(0, 0, 99).unwrap()]);
        let plan = ScanPlan::full(ds.len());
        let (serial, sc) = execute_plan(&ds, &q, &plan);
        let (parallel, pc) = execute_plan_parallel(&ds, &q, &plan, 8);
        assert_eq!(serial, parallel);
        assert_eq!(sc, pc);
    }

    #[test]
    fn empty_plan_yields_empty_aggregates() {
        let ds = source();
        let q = Query::new(vec![], Aggregation::Min(0)).unwrap();
        let (res, counters) = execute_plan(&ds, &q, &ScanPlan::new());
        assert_eq!(res, AggResult::Min(None));
        assert_eq!(counters, ScanCounters::default());
    }

    /// A dataset with a deletion bitmap bolted on, for exercising the
    /// executor's liveness paths without the store crate.
    struct TombSource {
        ds: Dataset,
        t: TombstoneSet,
    }

    impl ScanSource for TombSource {
        fn num_rows(&self) -> usize {
            self.ds.len()
        }
        fn num_dims(&self) -> usize {
            self.ds.num_dims()
        }
        fn column_data(&self, dim: usize) -> ColumnData<'_> {
            self.ds.column_data(dim)
        }
        fn tombstones(&self) -> Option<&TombstoneSet> {
            Some(&self.t)
        }
    }

    #[test]
    fn tombstones_are_excluded_by_every_tier_and_path() {
        let ds = source();
        let mut t = TombstoneSet::new(ds.len());
        // A mix of deletions: word-aligned runs, scattered rows, a row
        // inside the exact range of the plan below.
        for row in (0..200).chain([255, 256, 300, 511, 512, 513, 850, 999]) {
            t.mark(row);
        }
        let live: Vec<usize> = t.live_rows();
        let tomb = TombSource { ds: ds.clone(), t };
        // Oracle: the same plan rows with deleted rows physically absent.
        let plan = ScanPlan::from_ranges([(0..300, false), (450..700, false), (800..1000, true)]);
        let plan_rows: Vec<usize> = (0..300)
            .chain(450..700)
            .chain(800..1000)
            .filter(|r| live.binary_search(r).is_ok())
            .collect();
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(1),
            Aggregation::Min(1),
            Aggregation::Max(1),
            Aggregation::Avg(1),
        ] {
            let q = Query::new(
                vec![
                    Predicate::range(0, 50, 950).unwrap(),
                    Predicate::range(2, 5, 95).unwrap(),
                ],
                agg,
            )
            .unwrap();
            // Exact ranges trust the plan, so the oracle applies predicates
            // only to the non-exact prefix rows.
            let oracle_rows: Vec<usize> = plan_rows
                .iter()
                .copied()
                .filter(|&r| r >= 800 || q.predicates().iter().all(|p| p.matches(ds.get(r, p.dim))))
                .collect();
            let no_pred = Query::new(vec![], agg).unwrap();
            let expected = no_pred.execute_full_scan(&ds.select_rows(&oracle_rows));
            let (scalar, scalar_counters) = run(&tomb, &q, &plan, 1, KernelTier::Scalar);
            assert_eq!(scalar, expected, "{agg:?} scalar vs rebuilt oracle");
            assert_eq!(scalar_counters.matched, oracle_rows.len());
            for tier in KernelTier::ALL {
                let (res, counters) = run(&tomb, &q, &plan, 1, tier);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, scalar_counters, "{agg:?} counters via {tier:?}");
                let (par, par_counters) = run(&tomb, &q, &plan, 4, tier);
                assert_eq!(par, expected, "{agg:?} parallel via {tier:?}");
                assert_eq!(par_counters, scalar_counters, "{agg:?} parallel counters");
            }
        }
    }

    #[test]
    fn empty_tombstone_set_changes_nothing() {
        let ds = source();
        let tomb = TombSource {
            ds: ds.clone(),
            t: TombstoneSet::new(ds.len()),
        };
        let q = count(vec![Predicate::range(0, 100, 499).unwrap()]);
        let plan = ScanPlan::full(ds.len());
        let (plain, pc) = execute_plan(&ds, &q, &plan);
        let (with_t, tc) = execute_plan(&tomb, &q, &plan);
        assert_eq!(plain, with_t);
        assert_eq!(pc, tc);
    }

    #[test]
    fn tier_labels_are_stable() {
        let labels: Vec<&str> = KernelTier::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["scalar", "packed"]);
        assert_eq!(KernelTier::default(), KernelTier::Packed);
    }

    /// A scan source with per-block encoded columns plus a plain tail, for
    /// exercising the packed executor paths without the store crate.
    struct EncodedSource {
        cols: Vec<(Vec<EncodedBlock>, Vec<Value>)>,
        num_rows: usize,
        t: Option<TombstoneSet>,
    }

    impl EncodedSource {
        /// Encodes every full block of `ds`'s columns, leaving `tail_rows`
        /// rows plain. Rows already tombstoned in `t` are dead at encode
        /// time, so block live bounds reflect them.
        fn encode(ds: &Dataset, tail_rows: usize, t: Option<TombstoneSet>) -> Self {
            let encoded_rows = (ds.len() - tail_rows) / BLOCK_ROWS * BLOCK_ROWS;
            let cols = (0..ds.num_dims())
                .map(|d| {
                    let col = ds.column(d);
                    let blocks: Vec<EncodedBlock> = (0..encoded_rows / BLOCK_ROWS)
                        .map(|b| {
                            let start = b * BLOCK_ROWS;
                            EncodedBlock::encode(&col[start..start + BLOCK_ROWS], |i| {
                                t.as_ref().is_none_or(|t| !t.is_deleted(start + i))
                            })
                        })
                        .collect();
                    (blocks, col[encoded_rows..].to_vec())
                })
                .collect();
            Self {
                cols,
                num_rows: ds.len(),
                t,
            }
        }
    }

    impl ScanSource for EncodedSource {
        fn num_rows(&self) -> usize {
            self.num_rows
        }
        fn num_dims(&self) -> usize {
            self.cols.len()
        }
        fn column_data(&self, dim: usize) -> ColumnData<'_> {
            let (blocks, tail) = &self.cols[dim];
            ColumnData { blocks, tail }
        }
        fn tombstones(&self) -> Option<&TombstoneSet> {
            self.t.as_ref()
        }
    }

    /// Columns spanning every encoding: dim0 FOR-compressible (12-bit
    /// domain), dim1 low-cardinality (dict), dim2 incompressible (plain
    /// fallback), dim3 a second FOR column in dim0's pack class.
    fn encodable_dataset(n: u64) -> Dataset {
        Dataset::from_columns(vec![
            (0..n).map(|v| v * 37 % 4096).collect(),
            (0..n).map(|v| (v * 13 % 23) * 1_000_000_007).collect(),
            (0..n)
                .map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            (0..n).map(|v| v * 91 % 4096).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn encoded_source_matches_plain_dataset_across_tiers() {
        let n = 6 * BLOCK_ROWS as u64 + 700;
        let ds = encodable_dataset(n);
        // Mixed: 4 encoded blocks, then 2 full blocks + 700 rows plain tail.
        for tail in [700, 2 * BLOCK_ROWS + 700] {
            let src = EncodedSource::encode(&ds, tail, None);
            let plan = ScanPlan::from_ranges([
                (3..2_000, false),
                (2_000..2_500, true),
                (2_600..ds.len(), false),
            ]);
            for agg in [
                Aggregation::Count,
                Aggregation::Sum(3),
                Aggregation::Sum(2),
                Aggregation::Min(3),
                Aggregation::Max(2),
                Aggregation::Avg(0),
            ] {
                for preds in [
                    vec![Predicate::range(0, 1000, 3000).unwrap()],
                    vec![Predicate::range(1, 5 * 1_000_000_007, 14 * 1_000_000_007).unwrap()],
                    vec![Predicate::range(2, 0, u64::MAX / 2).unwrap()],
                    vec![
                        Predicate::range(0, 100, 3800).unwrap(),
                        Predicate::range(1, 2 * 1_000_000_007, 20 * 1_000_000_007).unwrap(),
                        Predicate::range(2, u64::MAX / 4, u64::MAX).unwrap(),
                    ],
                    // Out-of-domain bounds: every block classifies Skip /
                    // AllLive in turn.
                    vec![Predicate::range(0, 5000, 6000).unwrap()],
                    vec![Predicate::range(0, 0, 4100).unwrap()],
                ] {
                    let q = Query::new(preds.clone(), agg).unwrap();
                    let (expected, expected_counters) = run(&ds, &q, &plan, 1, KernelTier::Scalar);
                    for tier in KernelTier::ALL {
                        let (res, counters) = run(&src, &q, &plan, 1, tier);
                        assert_eq!(res, expected, "tail={tail} {agg:?} {preds:?} via {tier:?}");
                        assert_eq!(counters, expected_counters, "counters via {tier:?}");
                        let (par, pc) = run(&src, &q, &plan, 4, tier);
                        assert_eq!(par, expected, "parallel tail={tail} {agg:?} via {tier:?}");
                        assert_eq!(pc, expected_counters, "parallel counters via {tier:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn encoded_source_respects_tombstones_in_every_tier() {
        let n = 5 * BLOCK_ROWS as u64 + 321;
        let ds = encodable_dataset(n);
        let mut t = TombstoneSet::new(ds.len());
        // Kill a whole block (its live bounds go None => Skip), the extreme
        // rows of another, scattered rows, and some tail rows.
        for row in BLOCK_ROWS..2 * BLOCK_ROWS {
            t.mark(row);
        }
        for row in (0..ds.len()).step_by(97) {
            t.mark(row);
        }
        for row in 5 * BLOCK_ROWS..5 * BLOCK_ROWS + 100 {
            t.mark(row);
        }
        let src = EncodedSource::encode(&ds, 321, Some(t.clone()));
        let tomb = TombSource { ds: ds.clone(), t };
        let plan = ScanPlan::from_ranges([(0..4_000, false), (4_000..ds.len(), false)]);
        for agg in [Aggregation::Count, Aggregation::Sum(3), Aggregation::Min(0)] {
            let q = Query::new(
                vec![
                    Predicate::range(0, 200, 3900).unwrap(),
                    Predicate::range(1, 1_000_000_007, 21 * 1_000_000_007).unwrap(),
                ],
                agg,
            )
            .unwrap();
            let (expected, expected_counters) = run(&tomb, &q, &plan, 1, KernelTier::Scalar);
            for tier in KernelTier::ALL {
                let (res, counters) = run(&src, &q, &plan, 1, tier);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, expected_counters, "{agg:?} counters via {tier:?}");
                let (par, pc) = run(&src, &q, &plan, 4, tier);
                assert_eq!(par, expected, "{agg:?} parallel via {tier:?}");
                assert_eq!(pc, expected_counters, "{agg:?} parallel counters");
            }
        }
    }

    #[test]
    fn fully_dead_encoded_block_is_skipped_but_results_stay_oracle_equal() {
        // One block entirely tombstoned: the packed path classifies it Skip
        // without touching payload, and the scalar oracle (which ignores
        // metadata) must agree because liveness masks every row anyway.
        let n = 3 * BLOCK_ROWS as u64;
        let ds = encodable_dataset(n);
        let mut t = TombstoneSet::new(ds.len());
        for row in 0..BLOCK_ROWS {
            t.mark(row);
        }
        let src = EncodedSource::encode(&ds, 0, Some(t));
        let q = Query::new(
            vec![Predicate::range(0, 0, 4095).unwrap()],
            Aggregation::Sum(3),
        )
        .unwrap();
        let plan = ScanPlan::full(ds.len());
        let (expected, ec) = run(&src, &q, &plan, 1, KernelTier::Scalar);
        for tier in KernelTier::ALL {
            let (res, counters) = run(&src, &q, &plan, 1, tier);
            assert_eq!(res, expected, "via {tier:?}");
            assert_eq!(counters, ec, "counters via {tier:?}");
        }
    }

    #[test]
    fn min_max_pruning_matches_the_oracle_after_block_extremes_die() {
        let n = 6 * BLOCK_ROWS + 300;
        let ds = encodable_dataset(n as u64);
        // Encoded with every row live, so each block's live bounds are its
        // physical bounds; then the rows holding each block's extremes on
        // every aggregated dimension die, leaving those bounds loose.
        let clean = EncodedSource::encode(&ds, 300, None);
        let mut t = TombstoneSet::new(n);
        for dim in [0, 1, 3] {
            let col = ds.column(dim);
            for (b, block) in col[..6 * BLOCK_ROWS].chunks(BLOCK_ROWS).enumerate() {
                let (lo, hi) = (block.iter().min(), block.iter().max());
                for (i, v) in block.iter().enumerate() {
                    if Some(v) == lo || Some(v) == hi {
                        t.mark(b * BLOCK_ROWS + i);
                    }
                }
            }
        }
        let tombed = EncodedSource {
            t: Some(t),
            ..EncodedSource::encode(&ds, 300, None)
        };
        // Whole exact blocks, a partial exact range, non-exact ranges that
        // start mid-block, and a plain non-exact full scan.
        let plans = [
            ScanPlan::from_ranges([
                (0..2 * BLOCK_ROWS, true),
                (2 * BLOCK_ROWS..3_000, false),
                (3_000..3_500, true),
                (3_500..5 * BLOCK_ROWS, false),
                (5 * BLOCK_ROWS..n, true),
            ]),
            ScanPlan::full(n),
        ];
        // A residual predicate `[lo, hi]` on each aggregated dimension, plus
        // one on another dimension.
        let cases = [
            (0, 300, 3_800, 3),
            (1, 3 * 1_000_000_007, 19 * 1_000_000_007, 0),
            (3, 100, 4_000, 0),
        ];
        for (source, label) in [(&clean, "clean"), (&tombed, "tombstoned")] {
            for (dim, lo, hi, other) in cases {
                let preds = vec![
                    Predicate::range(dim, lo, hi).unwrap(),
                    Predicate::range(other, 0, 3_000).unwrap(),
                ];
                for agg in [Aggregation::Min(dim), Aggregation::Max(dim)] {
                    let q = Query::new(preds.clone(), agg).unwrap();
                    for plan in &plans {
                        let (expected, ec) = run(source, &q, plan, 1, KernelTier::Scalar);
                        for threads in [1, 4] {
                            let (res, counters) =
                                run(source, &q, plan, threads, KernelTier::Packed);
                            let at = format!("{label} {agg:?} {threads} threads {plan:?}");
                            assert_eq!(res, expected, "{at}");
                            assert_eq!(counters, ec, "counters: {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn encoded_exact_ranges_aggregate_densely() {
        let n = 4 * BLOCK_ROWS as u64;
        let ds = encodable_dataset(n);
        let src = EncodedSource::encode(&ds, 0, None);
        // Exact ranges deliberately misaligned to the block grid.
        let plan = ScanPlan::from_ranges([(100..1_500, true), (1_700..3_900, true)]);
        for agg in [
            Aggregation::Count,
            Aggregation::Sum(0),
            Aggregation::Sum(2),
            Aggregation::Min(1),
            Aggregation::Max(3),
            Aggregation::Avg(2),
        ] {
            let q = Query::new(vec![], agg).unwrap();
            let (expected, ec) = run(&ds, &q, &plan, 1, KernelTier::Scalar);
            for tier in KernelTier::ALL {
                let (res, counters) = run(&src, &q, &plan, 1, tier);
                assert_eq!(res, expected, "{agg:?} via {tier:?}");
                assert_eq!(counters, ec, "{agg:?} counters via {tier:?}");
            }
        }
    }

    /// Strictly monotone columns (FOR W15 falling, FOR W31 rising), so
    /// each exact range's MIN of dim 0 and MAX of dim 1 sit in its last
    /// row alone, and that row ends a partial bitmap word. SUM and AVG are
    /// checked against the column's own sum: the packed tier folds an
    /// exact FOR chunk under a bitmap and the oracle fetches every row, so
    /// neither is the other's reference.
    #[test]
    fn exact_chunks_fold_their_last_row() {
        let n = 3 * BLOCK_ROWS as u64;
        let ds = Dataset::from_columns(vec![
            (0..n).map(|v| (n - v) * 5).collect(),
            (0..n).map(|v| v << 20).collect(),
        ])
        .unwrap();
        let src = EncodedSource::encode(&ds, 0, None);
        for (blocks, _) in &src.cols {
            assert!(blocks.iter().all(|eb| eb.kind_label() == "for"));
        }
        for range in [100..1_000, 1_124..2_000, 2_052..2_900] {
            let plan = ScanPlan::from_ranges([(range.clone(), true)]);
            for agg in [
                Aggregation::Min(0),
                Aggregation::Max(1),
                Aggregation::Sum(0),
                Aggregation::Sum(1),
                Aggregation::Avg(0),
                Aggregation::Avg(1),
            ] {
                let q = Query::new(vec![], agg).unwrap();
                let col = &ds.column(agg.input_dim().unwrap())[range.clone()];
                let last = col.last().copied();
                let sum: u128 = col.iter().map(|&v| v as u128).sum();
                let want = match agg {
                    Aggregation::Min(_) => AggResult::Min(last),
                    Aggregation::Max(_) => AggResult::Max(last),
                    Aggregation::Sum(_) => AggResult::Sum(sum),
                    _ => AggResult::Avg(Some(sum as f64 / col.len() as f64)),
                };
                assert_eq!(run(&ds, &q, &plan, 1, KernelTier::Scalar).0, want);
                for tier in KernelTier::ALL {
                    let (res, _) = run(&src, &q, &plan, 1, tier);
                    assert_eq!(res, want, "{agg:?} over {range:?} via {tier:?}");
                }
            }
        }
    }

    /// The two builds of the packed path agree: the portable body and the
    /// dispatched loop (the x86-64-v3 copy, where this CPU has its
    /// features) leave bit-identical accumulators and counters. On such a
    /// CPU nothing else runs the portable packed path, which CPUs without
    /// the features and other architectures run. The source packs every
    /// class: FOR W15 (dims 0 and 3), Dict W7 (dim 1), FOR W7 (dim 4) and
    /// FOR W31 (dim 5).
    #[test]
    fn the_portable_and_dispatched_packed_builds_agree() {
        let n = 6 * BLOCK_ROWS + 700;
        let base = encodable_dataset(n as u64);
        let mut cols: Vec<Vec<Value>> = (0..base.num_dims())
            .map(|d| base.column(d).to_vec())
            .collect();
        cols.push((0..n as u64).map(|v| v * 53 % 100).collect());
        cols.push(
            (0..n as u64)
                .map(|v| v.wrapping_mul(2_654_435_761) % (1 << 22))
                .collect(),
        );
        let ds = Dataset::from_columns(cols).unwrap();
        let mut t = TombstoneSet::new(n);
        for row in (0..n)
            .step_by(89)
            .chain(2 * BLOCK_ROWS..2 * BLOCK_ROWS + 300)
        {
            t.mark(row);
        }
        // FOR, Dict and Plain (dim 2) blocks and a 700-row plain tail, with
        // and without tombstones.
        let sources = [
            EncodedSource::encode(&ds, 700, None),
            EncodedSource::encode(&ds, 700, Some(t)),
        ];
        let classes: Vec<String> = sources[0]
            .cols
            .iter()
            .map(|(blocks, _)| match blocks[0].data() {
                BlockData::For { class, .. } => format!("for w{}", class.width()),
                BlockData::Dict { class, .. } => format!("dict w{}", class.width()),
                BlockData::Plain(_) => "plain".into(),
            })
            .collect();
        assert_eq!(
            classes,
            ["for w15", "dict w7", "plain", "for w15", "for w7", "for w31"]
        );
        // Exact and non-exact ranges starting at every residue mod 8: 0
        // (0, 1_000), then 1 to 7 (2_049, 2_210, 3_403, 2_300, 3_333,
        // 4_006, 4_503).
        let plan = ScanPlan::from_ranges([
            (0..1_000, false),
            (1_000..2_048, true),
            (2_049..2_210, false),
            (2_210..2_300, true),
            (2_300..3_333, false),
            (3_333..3_400, true),
            (3_403..4_006, false),
            (4_006..4_500, true),
            (4_503..n, false),
        ]);
        let pred_sets = [
            vec![Predicate::range(0, 1_000, 3_000).unwrap()],
            vec![Predicate::range(1, 5 * 1_000_000_007, 14 * 1_000_000_007).unwrap()],
            vec![Predicate::range(2, 0, u64::MAX / 2).unwrap()],
            vec![Predicate::range(3, 0, 4_100).unwrap()],
            vec![
                Predicate::range(0, 100, 3_800).unwrap(),
                Predicate::range(3, 500, 3_000).unwrap(),
            ],
            vec![
                Predicate::range(0, 100, 3_800).unwrap(),
                Predicate::range(1, 2 * 1_000_000_007, 20 * 1_000_000_007).unwrap(),
                Predicate::range(2, u64::MAX / 4, u64::MAX).unwrap(),
            ],
            vec![Predicate::range(4, 10, 60).unwrap()],
            vec![Predicate::range(5, 1 << 20, 3 << 20).unwrap()],
            vec![
                Predicate::range(4, 10, 75).unwrap(),
                Predicate::range(5, 1 << 19, 3 << 20).unwrap(),
            ],
            vec![
                Predicate::range(5, 0, 2 << 20).unwrap(),
                Predicate::range(4, 20, 90).unwrap(),
                Predicate::range(0, 100, 3_800).unwrap(),
            ],
        ];
        let aggs = [
            Aggregation::Count,
            Aggregation::Sum(0),
            Aggregation::Sum(3),
            Aggregation::Sum(4),
            Aggregation::Sum(5),
            Aggregation::Avg(2),
            Aggregation::Min(0),
            Aggregation::Min(2),
            Aggregation::Min(4),
            Aggregation::Min(5),
            Aggregation::Max(1),
            Aggregation::Max(3),
            Aggregation::Max(4),
            Aggregation::Max(5),
        ];
        for (source, label) in sources.iter().zip(["clean", "tombstoned"]) {
            for preds in &pred_sets {
                for agg in aggs {
                    let q = Query::new(preds.clone(), agg).unwrap();
                    let resolved = ResolvedQuery::new(source, plan.residual(&q), agg);
                    // Whole plan ranges, then morsels that split them
                    // mid-block and mid-word: 1_001 rows (≡ 1 mod 8) start
                    // successive morsels at every residue.
                    for morsel in [n, 1_500, 1_001] {
                        let units = split_morsels(&plan, morsel);
                        let mut portable_units = units.iter().cloned();
                        let (pa, pc) = scan_units_body(
                            &resolved,
                            KernelTier::Packed,
                            &mut BlockScratch::new(),
                            &mut || portable_units.next(),
                        );
                        let mut dispatched_units = units.iter().cloned();
                        let (da, dc) = scan_units(
                            &resolved,
                            KernelTier::Packed,
                            &mut BlockScratch::new(),
                            &mut || dispatched_units.next(),
                        );
                        let at = format!("{label} {agg:?} {preds:?} morsel {morsel}");
                        assert_eq!(format!("{pa:?}"), format!("{da:?}"), "{at}");
                        assert_eq!(pc, dc, "counters: {at}");
                    }
                }
            }
        }
    }

    /// The packed tier widens a chunk that starts off the 8-row grid down
    /// to it and clears the head rows that adds. Single ranges starting
    /// and ending at every residue mod 8 — inside one block, from one
    /// block across the next into the plain tail, and inside the tail —
    /// over FOR W7/W15/W31 and Dict W7 columns, exact and not, clean and
    /// tombstoned, under one predicate on each column, two and three
    /// predicates, and every aggregation,
    /// match the scalar oracle in results and counters, run serially and
    /// split into 203-row morsels (≡ 3 mod 8).
    #[test]
    fn chunks_starting_at_every_residue_match_the_oracle() {
        let (b, n) = (BLOCK_ROWS, 3 * BLOCK_ROWS + 300);
        let g = 1_000_000_007;
        let ds = Dataset::from_columns(vec![
            (0..n as u64).map(|v| v * 53 % 100).collect(),
            (0..n as u64).map(|v| v * 37 % 4096).collect(),
            (0..n as u64)
                .map(|v| v.wrapping_mul(2_654_435_761) % (1 << 22))
                .collect(),
            (0..n as u64).map(|v| (v * 13 % 23) * g).collect(),
        ])
        .unwrap();
        let mut t = TombstoneSet::new(n);
        for row in (0..n).step_by(5).chain(b + 600..b + 700) {
            t.mark(row);
        }
        let sources = [
            EncodedSource::encode(&ds, 300, None),
            EncodedSource::encode(&ds, 300, Some(t)),
        ];
        let classes: Vec<String> = sources[0]
            .cols
            .iter()
            .map(|(blocks, _)| {
                format!(
                    "{} w{}",
                    blocks[0].kind_label(),
                    packed_payload(&blocks[0]).1.width()
                )
            })
            .collect();
        assert_eq!(classes, ["for w7", "for w15", "for w31", "dict w7"]);
        let pred_sets = [
            vec![Predicate::range(1, 500, 3_000).unwrap()],
            vec![
                Predicate::range(0, 10, 70).unwrap(),
                Predicate::range(2, 1 << 20, 3 << 20).unwrap(),
            ],
            vec![
                Predicate::range(3, 3 * g, 18 * g).unwrap(),
                Predicate::range(1, 200, 3_500).unwrap(),
                Predicate::range(0, 0, 80).unwrap(),
            ],
            vec![Predicate::range(0, 10, 70).unwrap()],
            vec![Predicate::range(2, 1 << 20, 3 << 20).unwrap()],
            vec![Predicate::range(3, 3 * g, 18 * g).unwrap()],
        ];
        for (source, label) in sources.iter().zip(["clean", "tombstoned"]) {
            for (s, e) in (0..8).flat_map(|s| (0..8).map(move |e| (s, e))) {
                // The aggregated column cycles through the four classes.
                let d = e % 4;
                let aggs = [
                    Aggregation::Count,
                    Aggregation::Sum(d),
                    Aggregation::Avg(d),
                    Aggregation::Min(d),
                    Aggregation::Max(d),
                ];
                let ranges = [
                    b + 200 + s..b + 260 + e,
                    b + 600 + s..3 * b + 150 + e,
                    3 * b + 16 + s..3 * b + 250 + e,
                ];
                for (range, exact) in ranges.iter().flat_map(|r| [(r, false), (r, true)]) {
                    let plan = ScanPlan::from_ranges([(range.clone(), exact)]);
                    // An exact range checks no predicate: one set will do.
                    let sets = if exact {
                        &pred_sets[..1]
                    } else {
                        &pred_sets[..]
                    };
                    for (preds, agg) in sets.iter().flat_map(|p| aggs.map(|a| (p, a))) {
                        let q = Query::new(preds.clone(), agg).unwrap();
                        let at = format!("{label} {range:?} exact={exact} {agg:?} {preds:?}");
                        let expected = run(source, &q, &plan, 1, KernelTier::Scalar);
                        assert_eq!(
                            run(source, &q, &plan, 1, KernelTier::Packed),
                            expected,
                            "{at}"
                        );
                        let resolved = ResolvedQuery::new(source, plan.residual(&q), agg);
                        let mut units = split_morsels(&plan, 203).into_iter();
                        let (acc, counters) = scan_units(
                            &resolved,
                            KernelTier::Packed,
                            &mut BlockScratch::new(),
                            &mut || units.next(),
                        );
                        assert_eq!((acc.finish(), counters), expected, "morsels: {at}");
                    }
                }
            }
        }
    }
}
