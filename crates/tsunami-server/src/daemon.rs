//! The auto-reoptimize daemon: a watermark-triggered background task on the
//! shared thread pool.
//!
//! Connection handlers call [`ReoptDaemon::notify`] after every served
//! operation. Once the count of operations since the last pass crosses the
//! watermark, the daemon spawns **one** task onto the pool that runs
//! [`ShardedDatabase::auto_reoptimize_all`] — each shard's
//! `Database::auto_reoptimize` then decides, per table, whether observed
//! workload drift or ingest-driven data drift actually warrants
//! re-optimizing. Quiet shards are a cheap no-op, so the watermark only
//! bounds how often the check runs, not how often indexes rebuild.
//!
//! There are no dedicated threads and no polling loop: with no traffic
//! there are no notifications, hence no work — the "daemon" is latent state
//! plus an occasional pool task, which is the right shape for a pool that
//! also carries query scans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use tsunami_core::exec::pool::ThreadPool;
use tsunami_engine::ShardedDatabase;

/// Watermark-triggered re-optimization over a shared [`ShardedDatabase`].
/// Cheap to clone; all clones share one trigger state.
#[derive(Clone)]
pub struct ReoptDaemon {
    inner: Arc<Inner>,
}

struct Inner {
    db: Arc<RwLock<ShardedDatabase>>,
    pool: Arc<ThreadPool>,
    /// Operations between drift checks; `0` disables the daemon.
    watermark: u64,
    /// Operations observed since the last pass was scheduled.
    since: AtomicU64,
    /// Bit [`IN_FLIGHT`]: a pass is queued or running — at most one in
    /// flight. The bits above it: completed passes (drift checks), for
    /// observability and tests. One word, so a pass lands and counts itself
    /// in one step ([`Landed::count`]): whoever sees the count rise also
    /// sees the daemon idle, and whoever sees it idle sees the count.
    state: AtomicU64,
    /// Total shard re-optimizations those passes applied.
    reoptimized: AtomicU64,
}

impl ReoptDaemon {
    /// A daemon over `db` firing every `watermark` operations (`0` = never).
    pub fn new(db: Arc<RwLock<ShardedDatabase>>, watermark: u64) -> Self {
        // Only the pool handle is read, which a panicked writer cannot have
        // left half-made.
        let pool = Arc::clone(db.read().unwrap_or_else(PoisonError::into_inner).pool());
        Self {
            inner: Arc::new(Inner {
                db,
                pool,
                watermark,
                since: AtomicU64::new(0),
                state: AtomicU64::new(0),
                reoptimized: AtomicU64::new(0),
            }),
        }
    }

    /// Records `ops` served operations and, when the watermark is crossed
    /// and no pass is already in flight, spawns one drift-check pass onto
    /// the pool. Never blocks: the caller is a connection handler on its
    /// latency path.
    pub fn notify(&self, ops: u64) {
        let inner = &self.inner;
        if inner.watermark == 0 {
            return;
        }
        if inner.since.fetch_add(ops, Ordering::Relaxed) + ops < inner.watermark {
            return;
        }
        if inner.state.fetch_or(IN_FLIGHT, Ordering::AcqRel) & IN_FLIGHT != 0 {
            return;
        }
        inner.since.store(0, Ordering::Relaxed);
        let task = Arc::clone(inner);
        inner.pool.spawn(move || {
            // Lands the pass on every way out, a panicking one included, so
            // one bad pass cannot stop the daemon for good.
            let landed = Landed(&task.state);
            // A poisoned lock means a writer panicked mid-mutation: there is
            // nothing safe to re-optimize, and the served requests already
            // answer errors.
            let applied = match task.db.write() {
                Ok(mut db) => db.auto_reoptimize_all().unwrap_or(0),
                Err(_) => 0,
            };
            task.reoptimized
                .fetch_add(applied as u64, Ordering::Relaxed);
            landed.count();
        });
    }

    /// The configured watermark (`0` = disabled).
    pub fn watermark(&self) -> u64 {
        self.inner.watermark
    }

    /// Completed drift-check passes.
    pub fn passes(&self) -> u64 {
        self.inner.state.load(Ordering::Acquire) >> 1
    }

    /// Total shard re-optimizations applied across all passes.
    pub fn reoptimized(&self) -> u64 {
        self.inner.reoptimized.load(Ordering::Relaxed)
    }

    /// Blocks until any in-flight pass has finished (tests and shutdown).
    pub fn quiesce(&self) {
        while self.inner.state.load(Ordering::Acquire) & IN_FLIGHT != 0 {
            std::thread::yield_now();
        }
    }
}

/// The bit of `Inner::state` that marks a pass in flight.
const IN_FLIGHT: u64 = 1;

/// Lands the in-flight pass: counted by [`Landed::count`] once it finished,
/// uncounted when dropped on the way out of a panic.
struct Landed<'a>(&'a AtomicU64);

impl Landed<'_> {
    /// Clears [`IN_FLIGHT`] and counts the pass in one atomic add: the state
    /// is odd while a pass is in flight, so adding one carries into the
    /// count. Release, paired with the Acquire loads of `passes` and
    /// `quiesce` and the `fetch_or` in `notify`: a caller that sees the new
    /// count and notifies at once finds no pass in flight, so its
    /// notification cannot be dropped.
    fn count(self) {
        self.0.fetch_add(1, Ordering::Release);
        std::mem::forget(self);
    }
}

impl Drop for Landed<'_> {
    fn drop(&mut self) {
        self.0.fetch_and(!IN_FLIGHT, Ordering::Release);
    }
}

impl std::fmt::Debug for ReoptDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReoptDaemon")
            .field("watermark", &self.inner.watermark)
            .field("passes", &self.passes())
            .field("reoptimized", &self.reoptimized())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_notify_right_after_a_pass_lands_starts_the_next_pass() {
        let db = Arc::new(RwLock::new(ShardedDatabase::new(1)));
        let daemon = ReoptDaemon::new(db, 1);
        for pass in 1..=10_000 {
            // Notify the moment the previous pass is counted, as a
            // connection handler would.
            daemon.notify(1);
            if pass % 2 == 0 {
                // `quiesce` returns only once the pass has counted itself.
                daemon.quiesce();
                assert_eq!(daemon.passes(), pass, "pass {pass} missing after quiesce");
                continue;
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while daemon.passes() < pass {
                assert!(
                    std::time::Instant::now() < deadline,
                    "pass {pass} never landed: the notify after pass {} was dropped",
                    pass - 1
                );
                std::thread::yield_now();
            }
        }
    }
}
