//! Seeded inputs: the measured query sets, the mutation streams, and the
//! open loop's due-time schedule. Everything here is a pure function of its
//! arguments, so the same `--seed` always gives the same operations and an
//! oracle can regenerate any op from its index.

use std::time::Duration;

use tsunami_core::{Aggregation, Dataset, Point, Predicate, Query, Value, Workload};
use tsunami_workloads::queries::{range_at, sorted_column};
use tsunami_workloads::rng::{Rng, SeedableRng, StdRng};
use tsunami_workloads::tpch;

use crate::consts;

/// Sub-seed of the measured read queries: distinct from the sample
/// workload's, so memoising the sample workload cannot win.
pub fn query_seed(seed: u64) -> u64 {
    seed ^ 1
}

/// A generator for op `op` of stream `stream` under `seed`.
fn op_rng(seed: u64, stream: u64, op: usize) -> StdRng {
    let mut rng = StdRng::seed_from_u64(
        seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (op as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
    );
    // One draw of distance from the raw seed, so neighbouring ops decorrelate.
    rng.next_u64();
    rng
}

/// Re-targets query `i` at aggregation kind `i % 5` over dimension
/// `i % dims`, so a stream exercises all five result types.
fn rotate_aggregations(queries: &[Query], dims: usize) -> Vec<Query> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let dim = i % dims;
            let agg = match i % 5 {
                0 => Aggregation::Count,
                1 => Aggregation::Sum(dim),
                2 => Aggregation::Min(dim),
                3 => Aggregation::Max(dim),
                _ => Aggregation::Avg(dim),
            };
            Query::new(q.predicates().to_vec(), agg).expect("predicates were already valid")
        })
        .collect()
}

/// The sample workload a Tsunami table's layout is optimised for.
pub fn sample_workload(data: &Dataset) -> Workload {
    tpch::workload(data, consts::SAMPLE_QUERIES_PER_TYPE, consts::DATA_SEED)
}

/// `distinct` selective TPC-H-style read queries (the paper's five query
/// types in equal shares), all five aggregations rotated.
pub fn selective_queries(data: &Dataset, distinct: usize, seed: u64) -> Vec<Query> {
    let per_type = distinct.div_ceil(5);
    let mut queries = rotate_aggregations(
        tpch::workload(data, per_type, query_seed(seed)).queries(),
        data.num_dims(),
    );
    queries.truncate(distinct);
    queries
}

/// Column order of the TPC-H generator.
pub const PRICE: usize = 1;
pub const DISCOUNT: usize = 2;
pub const SHIP_DATE: usize = 5;
pub const RECEIPT_DATE: usize = 7;

/// Sorted copies of the columns the wide-scan queries draw ranges from.
pub struct ScanDomains {
    price: Vec<Value>,
    ship_date: Vec<Value>,
}

impl ScanDomains {
    pub fn of(data: &Dataset) -> Self {
        Self {
            price: sorted_column(data.column(PRICE)),
            ship_date: sorted_column(data.column(SHIP_DATE)),
        }
    }
}

/// `n` wide-scan queries: a 25 % ship-date range (the dimension SingleDim
/// sorts by, because it is the most selective) plus two residual predicates,
/// a 50 % price band and a six-value discount band.
pub fn scan_queries(domains: &ScanDomains, dims: usize, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let queries: Vec<Query> = (0..n)
        .map(|_| {
            let sel = consts::scan::SORT_DIM_SELECTIVITY;
            let (s_lo, s_hi) = range_at(&domains.ship_date, rng.gen::<f64>() * (1.0 - sel), sel);
            let band = consts::scan::PRICE_BAND;
            let (p_lo, p_hi) = range_at(&domains.price, rng.gen::<f64>() * (1.0 - band), band);
            let d_lo: u64 = rng.gen_range(0..=5);
            Query::count(vec![
                Predicate::range(SHIP_DATE, s_lo, s_hi).expect("ordered range"),
                Predicate::range(PRICE, p_lo, p_hi).expect("ordered range"),
                Predicate::range(DISCOUNT, d_lo, d_lo + 5).expect("ordered range"),
            ])
            .expect("three distinct dimensions")
        })
        .collect();
    rotate_aggregations(&queries, dims)
}

/// The rows insert op `op` of stream `stream` adds: `n` rows drawn from the
/// base table, so they follow its distribution and correlations.
pub fn insert_rows(base: &Dataset, seed: u64, stream: u64, op: usize, n: usize) -> Vec<Point> {
    let mut rng = op_rng(seed, stream, op);
    (0..n)
        .map(|_| base.row(rng.gen_range(0..base.len())))
        .collect()
}

/// The predicate delete op `op` removes: one receipt-date day, about 0.04 %
/// of the rows.
pub fn delete_band(seed: u64, op: usize) -> Vec<Predicate> {
    let day: u64 = op_rng(seed, 0xde1e7e, op).gen_range(0..tpch::DATE_DOMAIN);
    vec![Predicate::eq(RECEIPT_DATE, day)]
}

/// One operation of the mixed ingest stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedOp {
    Read,
    Insert,
    Delete,
}

/// The mixed stream: `blocks` blocks of [`consts::ingest::BLOCK`] ops, each
/// holding the same number of reads, inserts and deletes in seeded order —
/// so every seed does the same amount of each, and only the order differs.
pub fn mixed_ops(blocks: usize, seed: u64) -> Vec<MixedOp> {
    use consts::ingest::{BLOCK, DELETES_PER_BLOCK, INSERTS_PER_BLOCK};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_7865_645f_6f70);
    let mut ops = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut block = vec![MixedOp::Read; BLOCK];
        block[..INSERTS_PER_BLOCK].fill(MixedOp::Insert);
        block[INSERTS_PER_BLOCK..INSERTS_PER_BLOCK + DELETES_PER_BLOCK].fill(MixedOp::Delete);
        for i in (1..BLOCK).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
        ops.extend(block);
    }
    ops
}

/// Whether op `op` of the served stream is an insert (every
/// [`consts::served::INSERT_EVERY`]-th is).
pub fn served_op_is_insert(op: usize) -> bool {
    op % consts::served::INSERT_EVERY == consts::served::INSERT_EVERY - 1
}

/// The open loop's closed-form schedule: op `i` at `rate` ops/s is due
/// `i / rate` seconds after the step's epoch, however long earlier ops took.
pub fn due(op: usize, rate: u64) -> Duration {
    Duration::from_nanos((op as u128 * 1_000_000_000 / rate.max(1) as u128) as u64)
}

/// Ops in a step of `seconds` at `rate`.
pub fn step_ops(rate: u64, seconds: f64) -> usize {
    ((rate as f64 * seconds).round() as usize).max(1)
}

/// One op's timing against the schedule, all measured from the step's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// How late the generator sent the op (0 if on time).
    pub lateness: Duration,
    /// Completion minus *due* time: a stall charges every op queued behind it.
    pub latency: Duration,
}

/// Charges an op sent at `sent` and completed at `done` against its `due`
/// time. An op is never sent early (the generator sleeps until due), but
/// clock granularity could make `sent < due` by nanoseconds: saturate.
pub fn charge(due: Duration, sent: Duration, done: Duration) -> OpTiming {
    OpTiming {
        lateness: sent.saturating_sub(due),
        latency: done.saturating_sub(due),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        tpch::generate(4_000, consts::DATA_SEED)
    }

    #[test]
    fn equal_seeds_give_identical_streams_and_different_seeds_do_not() {
        let data = small();
        assert_eq!(
            selective_queries(&data, 50, 7),
            selective_queries(&data, 50, 7)
        );
        assert_ne!(
            selective_queries(&data, 50, 7),
            selective_queries(&data, 50, 8)
        );
        let domains = ScanDomains::of(&data);
        assert_eq!(
            scan_queries(&domains, 8, 20, 7),
            scan_queries(&domains, 8, 20, 7)
        );
        assert_ne!(
            scan_queries(&domains, 8, 20, 7),
            scan_queries(&domains, 8, 20, 8)
        );
        assert_eq!(mixed_ops(6, 7), mixed_ops(6, 7));
        assert_ne!(mixed_ops(6, 7), mixed_ops(6, 8));
        assert_eq!(
            insert_rows(&data, 7, 0, 3, 64),
            insert_rows(&data, 7, 0, 3, 64)
        );
        assert_ne!(
            insert_rows(&data, 7, 0, 3, 64),
            insert_rows(&data, 8, 0, 3, 64)
        );
        assert_ne!(
            insert_rows(&data, 7, 0, 3, 64),
            insert_rows(&data, 7, 0, 4, 64)
        );
        assert_ne!(
            insert_rows(&data, 7, 0, 3, 64),
            insert_rows(&data, 7, 1, 3, 64)
        );
        assert_eq!(delete_band(7, 5), delete_band(7, 5));
    }

    #[test]
    fn measured_queries_are_not_the_sample_workload() {
        let data = small();
        let sample = sample_workload(&data);
        let measured = selective_queries(&data, 125, consts::DATA_SEED);
        // One of the five types (ship mode x small quantity) has only seven
        // possible filters, so it repeats; the other four draw ranges from
        // the data and coincide only by accident on a table this small.
        let repeated = measured
            .iter()
            .filter(|q| {
                sample
                    .queries()
                    .iter()
                    .any(|s| s.predicates() == q.predicates())
            })
            .count();
        assert!(repeated <= measured.len() / 3, "{repeated} of 125 repeat");
    }

    #[test]
    fn query_sets_have_the_requested_shape() {
        let data = small();
        let queries = selective_queries(&data, 103, 1);
        assert_eq!(queries.len(), 103);
        let kinds: std::collections::BTreeSet<u8> = queries
            .iter()
            .map(|q| match q.aggregation() {
                Aggregation::Count => 0,
                Aggregation::Sum(_) => 1,
                Aggregation::Min(_) => 2,
                Aggregation::Max(_) => 3,
                Aggregation::Avg(_) => 4,
            })
            .collect();
        assert_eq!(kinds.len(), 5);

        let domains = ScanDomains::of(&data);
        for q in scan_queries(&domains, data.num_dims(), 40, 3) {
            assert_eq!(q.filtered_dims(), vec![PRICE, DISCOUNT, SHIP_DATE]);
            let sel = q.dim_selectivity(&data, SHIP_DATE);
            assert!((0.2..0.3).contains(&sel), "ship-date selectivity {sel}");
            // Ship date stays the most selective dimension, so SingleDim sorts by it.
            assert!(q.dim_selectivity(&data, PRICE) > 0.4);
            assert!(q.dim_selectivity(&data, DISCOUNT) > 0.4);
        }
    }

    #[test]
    fn mixed_stream_holds_the_same_mix_in_every_block() {
        use consts::ingest::{BLOCK, DELETES_PER_BLOCK, INSERTS_PER_BLOCK};
        let ops = mixed_ops(9, 11);
        assert_eq!(ops.len(), 9 * BLOCK);
        for block in ops.chunks(BLOCK) {
            let count = |k| block.iter().filter(|&&o| o == k).count();
            assert_eq!(count(MixedOp::Insert), INSERTS_PER_BLOCK);
            assert_eq!(count(MixedOp::Delete), DELETES_PER_BLOCK);
        }
    }

    #[test]
    fn inserted_rows_come_from_the_base_table() {
        let data = small();
        let rows = insert_rows(&data, 3, 0, 9, 16);
        assert_eq!(rows.len(), 16);
        let base: std::collections::BTreeSet<Point> = data.rows().collect();
        assert!(rows.iter().all(|r| base.contains(r)));
    }

    #[test]
    fn due_time_schedule_and_lateness_accounting() {
        assert_eq!(due(0, 200), Duration::ZERO);
        assert_eq!(due(1, 200), Duration::from_millis(5));
        assert_eq!(due(200, 200), Duration::from_secs(1));
        assert_eq!(due(3, 0), Duration::from_secs(3));
        assert_eq!(step_ops(200, 4.0), 800);
        assert_eq!(step_ops(150, 0.001), 1);

        let ms = Duration::from_millis;
        // Sent on time, served in 2 ms.
        let on_time = charge(ms(10), ms(10), ms(12));
        assert_eq!(on_time.lateness, Duration::ZERO);
        assert_eq!(on_time.latency, ms(2));
        // Stuck 30 ms behind an earlier op: the wait is charged to latency
        // even though the server then took only 2 ms.
        let stalled = charge(ms(10), ms(40), ms(42));
        assert_eq!(stalled.lateness, ms(30));
        assert_eq!(stalled.latency, ms(32));
        // Clock granularity never yields a negative lateness.
        assert_eq!(charge(ms(10), ms(9), ms(11)).lateness, Duration::ZERO);

        let inserts = (0..100).filter(|&op| served_op_is_insert(op)).count();
        assert_eq!(inserts, 100 / consts::served::INSERT_EVERY);
    }
}
