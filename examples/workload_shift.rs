//! Workload shift: the Fig 9a scenario through the engine facade, end to
//! end. A table's Tsunami index is optimized for one TPC-H-like workload; at
//! "midnight" the workload is replaced by five new query types, performance
//! degrades, the table's observation log detects the shift, and
//! `Database::auto_reoptimize` re-optimizes: it rebuilds the layout for the
//! observed workload and swaps it into the catalog while the old handle
//! keeps serving.
//!
//! Run with: `cargo run --release --example workload_shift`

use std::time::Instant;

use tsunami_core::{TsunamiError, Workload};
use tsunami_index::TsunamiConfig;
use tsunami_suite::{Database, IndexSpec, Table};
use tsunami_workloads::tpch;

fn average_query_us(table: &Table, workload: &Workload) -> Result<f64, TsunamiError> {
    let prepared = table.prepare_workload(workload)?;
    let start = Instant::now();
    for q in &prepared {
        std::hint::black_box(q.execute());
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / prepared.len() as f64)
}

fn main() -> Result<(), TsunamiError> {
    let rows = 40_000;
    let data = tpch::generate(rows, 3);
    let day_workload = tpch::workload(&data, 30, 4);
    let night_workload = tpch::shifted_workload(&data, 30, 5);
    println!(
        "lineitem-like dataset: {} rows x {} dims",
        data.len(),
        data.num_dims()
    );

    // Phase 1: optimized for the daytime workload. Moderate build effort
    // (the benchmark harness's settings) keeps the index builds quick.
    let spec = IndexSpec::Tsunami(TsunamiConfig {
        optimizer_sample_size: 800,
        optimizer_max_iters: 6,
        max_cells_per_grid: 1 << 13,
        max_tree_depth: 5,
        ..TsunamiConfig::default()
    });
    let mut db = Database::new();
    let stale = db.create_table("lineitem", &tpch::COLUMNS, data, &day_workload, &spec)?;
    let day_us = average_query_us(&stale, &day_workload)?;
    println!("[before shift]  avg query on daytime workload:      {day_us:8.1} us");

    // Phase 2: the workload shifts at midnight; the stale layout suffers.
    // Production queries are fed to the table's observation log as they are
    // served — this is all the bookkeeping the monitor needs.
    let stale_us = average_query_us(&stale, &night_workload)?;
    println!("[after shift]   avg query on new workload (stale):   {stale_us:8.1} us");
    for q in night_workload.queries() {
        stale.record_query(q)?;
    }

    // Phase 3: the engine notices the drift on its own. `auto_reoptimize`
    // compares the observation log against the workload the layout was
    // optimized for and — only because the mix shifted — rebuilds the layout
    // for the observed queries. The old handle keeps serving (stale) answers
    // throughout: the swap is zero-downtime.
    let t0 = Instant::now();
    let fresh = db
        .auto_reoptimize("lineitem", &spec)?
        .expect("a fully replaced workload must trigger re-optimization");
    let reopt_secs = t0.elapsed().as_secs_f64();
    let fresh_us = average_query_us(&fresh, &night_workload)?;
    println!(
        "[re-optimized]  avg query on new workload (fresh):   {fresh_us:8.1} us  (re-optimization took {reopt_secs:.2}s)"
    );

    let recovery = stale_us / fresh_us.max(1e-9);
    println!("\nre-optimization recovered a {recovery:.1}x latency improvement");

    // Correctness is never affected by staleness, only performance.
    for q in night_workload.queries().iter().take(10) {
        assert_eq!(stale.execute(q)?, fresh.execute(q)?);
    }
    println!("stale and re-optimized handles agree on all checked results");
    Ok(())
}
