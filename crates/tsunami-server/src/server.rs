//! The TCP front-end: a blocking accept loop with one reader thread per
//! connection, feeding query work into the shared pool.
//!
//! # Why threads, not epoll
//!
//! The two candidate shapes were a non-blocking epoll loop (raw `libc`) and
//! a blocking accept loop with per-connection reader threads. This server
//! uses the latter:
//!
//! * Connection threads do nothing but park in `read()` and decode frames —
//!   all query execution lands on the shared thread pool via the
//!   [`Scheduler`](tsunami_engine::Scheduler) inside
//!   [`ShardedTable::execute`](tsunami_engine::ShardedTable::execute), so thread count does not multiply CPU work,
//!   and the pool (not the connection count) bounds execution parallelism.
//! * At benchmark-scale connection counts (tens to low hundreds) the ~8 KiB
//!   kernel stack cost per parked thread is noise, while epoll readiness
//!   tracking, partial-read buffering, and write backpressure state would
//!   triple the code for no measurable throughput on loopback.
//! * Blocking reads give frame parsing a linear control flow, which is what
//!   makes the strict protocol (`read_frame` → decode → serve → respond)
//!   easy to audit.
//!
//! An epoll front-end remains a drop-in evolution: the protocol and the
//! serve path are transport-agnostic, only this module would change.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] flips the stop flag, pokes the listener with a
//! loopback connect to unblock `accept`, then half-closes (`Shutdown::Read`)
//! every live connection: parked readers wake with EOF and exit after
//! finishing any in-flight response (the write side stays open), so clients
//! never see a torn frame.

use std::io::{BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use tsunami_core::{Query, TsunamiError};
use tsunami_engine::ShardedDatabase;

use crate::daemon::ReoptDaemon;
use crate::protocol::{
    self, code, error_code, read_frame, write_frame, FrameError, FrameRead, Request, Response,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port `0` picks a free port; read the bound address off
    /// [`ServerHandle::addr`].
    pub addr: String,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
    /// Re-optimization watermark: served operations between drift checks
    /// (`0` disables the daemon). See [`ReoptDaemon`].
    pub reopt_watermark: u64,
    /// Per-connection idle read timeout: a connection that sends no frame
    /// for this long is reaped (socket shut down, reader thread exits).
    /// `None` — the default — keeps silent connections, and their threads,
    /// forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_frame: protocol::DEFAULT_MAX_FRAME,
            reopt_watermark: 8_192,
            idle_timeout: None,
        }
    }
}

/// Served-operation counters, all monotonic.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Queries answered (including ones that resolved to typed errors).
    pub queries: AtomicU64,
    /// Rows inserted.
    pub rows_inserted: AtomicU64,
    /// Error responses sent.
    pub errors: AtomicU64,
    /// Connections reaped by the idle read timeout
    /// ([`ServerConfig::idle_timeout`]).
    pub reaped_idle: AtomicU64,
}

/// Live connections: the stream (for half-close on shutdown) and the
/// reader thread serving it.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener_thread: Option<JoinHandle<()>>,
    conns: ConnRegistry,
    stats: Arc<ServerStats>,
    daemon: ReoptDaemon,
}

/// The server entry point: spawn over a shared sharded database.
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns the accept loop, and returns a handle.
    /// Queries take the database's read lock (concurrent with each other);
    /// inserts and daemon re-optimizations take the write lock.
    pub fn spawn(
        db: Arc<RwLock<ShardedDatabase>>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::default();
        let stats = Arc::new(ServerStats::default());
        let daemon = ReoptDaemon::new(Arc::clone(&db), config.reopt_watermark);

        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let accept_stats = Arc::clone(&stats);
        let accept_daemon = daemon.clone();
        let max_frame = config.max_frame;
        let idle_timeout = config.idle_timeout;
        let listener_thread = std::thread::Builder::new()
            .name("tsunami-accept".to_string())
            .spawn(move || {
                for incoming in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                    let conn_db = Arc::clone(&db);
                    let conn_stats = Arc::clone(&accept_stats);
                    let conn_daemon = accept_daemon.clone();
                    let reader = stream.try_clone().expect("clone accepted stream");
                    let handle = std::thread::Builder::new()
                        .name("tsunami-conn".to_string())
                        .spawn(move || {
                            handle_connection(
                                reader,
                                conn_db,
                                conn_daemon,
                                conn_stats,
                                max_frame,
                                idle_timeout,
                            )
                        })
                        .expect("spawn connection thread");
                    let mut registry = accept_conns.lock().unwrap();
                    // Opportunistically reap finished connections so the
                    // registry tracks live streams, not connection history.
                    registry.retain(|(_, h)| !h.is_finished());
                    registry.push((stream, handle));
                }
            })?;

        Ok(ServerHandle {
            addr,
            stop,
            listener_thread: Some(listener_thread),
            conns,
            stats,
            daemon,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Served-operation counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The re-optimization daemon (observability: passes, applied count).
    pub fn daemon(&self) -> &ReoptDaemon {
        &self.daemon
    }

    /// Graceful shutdown: stop accepting, half-close live connections so
    /// in-flight responses finish, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for (stream, handle) in conns {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = handle.join();
        }
        self.daemon.quiesce();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("stats", &self.stats)
            .finish()
    }
}

/// One connection's read → decode → serve → respond loop.
fn handle_connection(
    mut reader: TcpStream,
    db: Arc<RwLock<ShardedDatabase>>,
    daemon: ReoptDaemon,
    stats: Arc<ServerStats>,
    max_frame: usize,
    idle_timeout: Option<Duration>,
) {
    let _ = reader.set_nodelay(true);
    if reader.set_read_timeout(idle_timeout).is_err() {
        return;
    }
    let Ok(writer) = reader.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(writer);
    loop {
        let payload = match read_frame(&mut reader, max_frame) {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Eof) => break,
            Err(FrameError::Oversized { len, max }) => {
                // The oversized payload was never consumed, so the stream
                // cannot be resynchronized: report and close.
                stats.errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: code::BAD_REQUEST,
                    message: format!("frame of {len} bytes exceeds the {max}-byte limit"),
                };
                send(&mut writer, &resp);
                break;
            }
            // The idle read timeout fired (WouldBlock on unix, TimedOut on
            // windows): reap the silent connection.
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stats.reaped_idle.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        // Framing is self-delimiting, so a frame that decodes to garbage is
        // safely skippable: answer with a typed error and keep serving.
        let response = match Request::decode(&payload) {
            Ok(request) => serve(request, &db, &daemon, &stats),
            Err(e) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    code: code::BAD_REQUEST,
                    message: e.to_string(),
                }
            }
        };
        if !send(&mut writer, &response) {
            break;
        }
    }
    // Fully close the socket here: the shutdown registry holds another
    // clone of this stream, so without an explicit shutdown a reaped
    // connection's peer would never observe EOF.
    let _ = writer.flush();
    let _ = reader.shutdown(Shutdown::Both);
}

fn send(writer: &mut BufWriter<TcpStream>, response: &Response) -> bool {
    match response.encode() {
        Ok(payload) => write_frame(writer, &payload).is_ok(),
        Err(_) => false,
    }
}

/// Executes one decoded request against the shared database.
fn serve(
    request: Request,
    db: &RwLock<ShardedDatabase>,
    daemon: &ReoptDaemon,
    stats: &ServerStats,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Query {
            table,
            predicates,
            aggregation,
        } => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            daemon.notify(1);
            let query = match Query::new(predicates, aggregation) {
                Ok(query) => query,
                Err(e) => return error_response(e, stats),
            };
            // Take the read lock only long enough to snapshot a handle;
            // execution proceeds lock-free so a slow scan cannot starve
            // writers.
            let handle = match db.read() {
                Ok(db) => db.table(&table),
                Err(_) => return poisoned_response(stats),
            };
            let result = handle.and_then(|handle| {
                handle.record_query(&query)?;
                handle.execute(&query)
            });
            match result {
                Ok(r) => Response::Result(r),
                Err(e) => error_response(e, stats),
            }
        }
        Request::Insert { table, rows } => {
            daemon.notify(rows.len() as u64);
            let Ok(mut db) = db.write() else {
                return poisoned_response(stats);
            };
            match db.insert_batch(&table, &rows) {
                Ok(()) => {
                    stats
                        .rows_inserted
                        .fetch_add(rows.len() as u64, Ordering::Relaxed);
                    Response::Inserted(rows.len() as u64)
                }
                Err(e) => error_response(e, stats),
            }
        }
    }
}

/// The answer to every request once a writer panicked holding the database
/// lock: the tables may be half-mutated, so nothing reads or writes them
/// again, and each request gets this error instead of a panic of its own.
fn poisoned_response(stats: &ServerStats) -> Response {
    stats.errors.fetch_add(1, Ordering::Relaxed);
    Response::Error {
        code: code::INTERNAL,
        message: "database lock poisoned: an earlier write panicked holding it".to_string(),
    }
}

fn error_response(e: TsunamiError, stats: &ServerStats) -> Response {
    stats.errors.fetch_add(1, Ordering::Relaxed);
    Response::Error {
        code: error_code(&e),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use tsunami_core::{Aggregation, Dataset, Predicate, Workload};
    use tsunami_engine::IndexSpec;

    #[test]
    fn a_poisoned_database_lock_answers_typed_errors() {
        let rows = Dataset::from_columns(vec![(0..100).collect(), (0..100).rev().collect()]);
        let mut sharded = ShardedDatabase::new(2);
        sharded
            .create_table(
                "t",
                &["a", "b"],
                &rows.unwrap(),
                &Workload::default(),
                &IndexSpec::FullScan,
            )
            .unwrap();
        let db = Arc::new(RwLock::new(sharded));
        // Disabled here, so the requests below spawn no pass of their own.
        let daemon = ReoptDaemon::new(Arc::clone(&db), 0);
        let stats = ServerStats::default();
        let query = || Request::Query {
            table: "t".to_string(),
            predicates: vec![Predicate::range(0, 10, 19).unwrap()],
            aggregation: Aggregation::Count,
        };
        let insert = || Request::Insert {
            table: "t".to_string(),
            rows: vec![vec![7, 7]],
        };
        assert!(matches!(
            serve(query(), &db, &daemon, &stats),
            Response::Result(_)
        ));
        assert_eq!(serve(insert(), &db, &daemon, &stats), Response::Inserted(1));

        // A writer panics while it holds the lock.
        let writer = Arc::clone(&db);
        let panicked = std::thread::spawn(move || {
            let _db = writer.write().unwrap();
            panic!("a write panics mid-mutation");
        })
        .join();
        assert!(panicked.is_err() && db.is_poisoned());

        // Every later request is answered with a typed error, not a panic.
        for request in [query(), insert(), query()] {
            match serve(request, &db, &daemon, &stats) {
                Response::Error { code, message } => {
                    assert_eq!(code, code::INTERNAL);
                    assert!(message.contains("poisoned"), "{message}");
                }
                other => panic!("expected a typed error, got {other:?}"),
            }
        }
        assert_eq!(stats.errors.load(Ordering::Relaxed), 3);

        // A daemon's passes over the poisoned lock still land, so it keeps
        // running instead of staying in flight for good.
        let daemon = ReoptDaemon::new(Arc::clone(&db), 1);
        for pass in 1..=2 {
            daemon.notify(1);
            let deadline = Instant::now() + Duration::from_secs(30);
            while daemon.passes() < pass {
                assert!(Instant::now() < deadline, "pass {pass} never landed");
                std::thread::yield_now();
            }
        }
    }
}
