//! `tsunami-server`: a TCP wire-protocol front-end over a sharded
//! scatter-gather [`ShardedDatabase`](tsunami_engine::ShardedDatabase).
//!
//! The crate is three small layers:
//!
//! * [`protocol`] — a length-prefixed binary protocol (version byte,
//!   max-frame-size guard, strict encode/decode over the composites of
//!   `tsunami_store::codec`, the write-ahead log's too) carrying
//!   range-aggregation requests and typed results/errors.
//! * [`server`] — a blocking accept loop with per-connection reader threads
//!   that park in `read()`; all query execution lands on the shared
//!   thread pool through the engine's scheduler, so connection count
//!   never multiplies CPU work. Includes the watermark-triggered
//!   [`ReoptDaemon`] that keeps shard indexes adapted under drift.
//! * [`client`] — a minimal blocking client (one request in flight per
//!   connection), the building block of the benchmark's open-loop load
//!   generator (`benchmark/src/served.rs`).
//!
//! # Example
//!
//! ```
//! use std::sync::{Arc, RwLock};
//! use tsunami_core::{Aggregation, Dataset, Predicate, Workload};
//! use tsunami_engine::{IndexSpec, ShardedDatabase};
//! use tsunami_server::{Client, Server, ServerConfig};
//!
//! let data = Dataset::from_columns(vec![
//!     (0..1_000u64).collect(),
//!     (0..1_000u64).map(|v| v % 50).collect(),
//! ])
//! .unwrap();
//! let mut db = ShardedDatabase::new(4);
//! db.create_table("orders", &["id", "qty"], &data, &Workload::default(), &IndexSpec::FullScan)
//!     .unwrap();
//!
//! let mut server =
//!     Server::spawn(Arc::new(RwLock::new(db)), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let count = client
//!     .query(
//!         "orders",
//!         vec![Predicate::range(0, 100, 299).unwrap()],
//!         Aggregation::Count,
//!     )
//!     .unwrap();
//! assert_eq!(count.as_count(), Some(200));
//! server.shutdown();
//! ```

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod server;

pub use client::{transient_connect_error, Client, ClientConfig, ClientError};
pub use daemon::ReoptDaemon;
pub use protocol::{Request, Response, WireError};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
