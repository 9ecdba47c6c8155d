//! Network serving: shard a table across K independent `Database` shards,
//! serve it over the `tsunami-server` wire protocol on loopback, and talk
//! to it with the blocking client — queries, an insert, and the typed
//! error path.
//!
//! Run with: `cargo run --release --example network_server [SHARDS] [BIND]`
//! — `SHARDS` defaults to 4, `BIND` to `127.0.0.1:0` (port 0 picks a free
//! port).

use std::net::SocketAddr;
use std::sync::{Arc, RwLock};

use tsunami_core::{Aggregation, Dataset, Predicate, Query, Workload};
use tsunami_server::{Client, ClientError, Server, ServerConfig};
use tsunami_suite::{IndexSpec, ShardedDatabase};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------------------------------------------------------------------
    // 1. A sharded database: rows hash-partitioned across K shards, each
    //    with its own Tsunami index specialized to the workload.
    // ---------------------------------------------------------------------
    let mut args = std::env::args().skip(1);
    let shards = args.next().map_or(Ok(4), |arg| arg.parse::<usize>());
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:0".to_string());
    let (Ok(shards @ 1..), Ok(addr), None) = (shards, addr.parse::<SocketAddr>(), args.next())
    else {
        eprintln!(
            "usage: network_server [SHARDS] [BIND] — SHARDS a positive integer (default 4), \
             BIND an ip:port to listen on (default 127.0.0.1:0)"
        );
        std::process::exit(2);
    };
    let n: u64 = 60_000;
    let data = Dataset::from_columns(vec![
        (0..n).collect(),
        (0..n).map(|i| 1 + (i * 7919) % 50).collect(),
        (0..n)
            .map(|i| (1 + (i * 7919) % 50) * 1_000 + i % 500)
            .collect(),
    ])?;
    let workload = Workload::new(
        (0..40u64)
            .map(|i| {
                Query::count(vec![
                    Predicate::range(0, i * 1_000, i * 1_000 + 5_000).unwrap()
                ])
                .unwrap()
            })
            .collect(),
    );
    let mut db = ShardedDatabase::new(shards);
    let table = db.create_table(
        "orders",
        &["order_id", "quantity", "price"],
        &data,
        &workload,
        &IndexSpec::tsunami(),
    )?;
    println!(
        "sharded table: {} rows across {} shards",
        table.num_rows(),
        table.num_shards()
    );

    // ---------------------------------------------------------------------
    // 2. Serve it. Port 0 binds an ephemeral port; the handle reports it.
    // ---------------------------------------------------------------------
    let mut server = Server::spawn(
        Arc::new(RwLock::new(db)),
        ServerConfig {
            addr: addr.to_string(),
            ..ServerConfig::default()
        },
    )?;
    println!("serving on {}", server.addr());

    // ---------------------------------------------------------------------
    // 3. A client round trip: ping, all five aggregations, an insert.
    // ---------------------------------------------------------------------
    let mut client = Client::connect(server.addr())?;
    client.ping()?;
    let band = vec![Predicate::range(0, 10_000, 19_999).unwrap()];
    for agg in [
        Aggregation::Count,
        Aggregation::Sum(2),
        Aggregation::Min(2),
        Aggregation::Max(2),
        Aggregation::Avg(2),
    ] {
        let result = client.query("orders", band.clone(), agg)?;
        println!("  {agg:?} over order_id in [10000, 19999] = {result}");
    }

    let appended = client.insert(
        "orders",
        (n..n + 1_000).map(|i| vec![i, 7, 7_777]).collect(),
    )?;
    let count = client.query("orders", vec![], Aggregation::Count)?;
    println!("inserted {appended} rows over the wire; total count = {count}");

    // Semantic errors come back typed, and the connection keeps serving.
    match client.query("no_such_table", vec![], Aggregation::Count) {
        Err(ClientError::Server { code, message }) => {
            println!("typed error as expected: code={code} ({message})")
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    client.ping()?;

    // ---------------------------------------------------------------------
    // 4. Graceful shutdown: in-flight responses finish, threads join.
    // ---------------------------------------------------------------------
    let stats = server.stats();
    println!(
        "served {} queries, {} rows inserted, {} errors",
        stats.queries.load(std::sync::atomic::Ordering::Relaxed),
        stats
            .rows_inserted
            .load(std::sync::atomic::Ordering::Relaxed),
        stats.errors.load(std::sync::atomic::Ordering::Relaxed),
    );
    server.shutdown();
    println!("server shut down cleanly");
    Ok(())
}
