//! A persistent thread pool: the workspace's single execution substrate for
//! both intra-query scan helpers and whole inter-query tasks.
//!
//! # Why hand-rolled
//!
//! The container has no rayon (offline workspace), and the executor needs a
//! *persistent* pool anyway: spawning fresh `std::thread`s per
//! `execute_parallel` call pays ~tens of microseconds of spawn latency per
//! query — more than a whole small scan — and a per-`Scheduler` dedicated
//! worker set cannot lend idle threads to a big concurrent scan. One shared
//! pool runs one huge scan, or many small queries, or any mix, without idle
//! workers or spawn overhead.
//!
//! # Architecture
//!
//! * **One locked queue** — every task travels through one `Mutex`. The unit
//!   balanced across cores is the ~1 MiB morsel, and morsels never become
//!   pool tasks: the participants of one scan claim them from an atomic
//!   cursor. What the pool carries is one drainer closure per scheduler
//!   wake-up and one helper closure per extra scan participant. Counted
//!   over one whole run of each benchmark workload (`benchmark/run.sh`,
//!   seed 42, 2 vCPUs; the timed 10 s plus set-up and verification):
//!
//!   | workload         | operations | `spawn`ed tasks | join helpers | deepest queue |
//!   |------------------|-----------:|----------------:|-------------:|--------------:|
//!   | `olap_selective` |     52,000 |               0 |            0 |             — |
//!   | `ingest_mixed`   |      2,400 |               0 |            0 |             — |
//!   | `served_mixed`   |      4,600 |           9,750 |            0 |             2 |
//!   | `scan_wide`      |     36,400 |           6,924 |       36,326 |             1 |
//!
//!   That is a push and two pops, each a few instructions under the lock,
//!   per ~230 µs query: nothing for lock-free queues to win. The per-worker
//!   Chase–Lev deques and steal sweep this pool used to have were all of
//!   the workspace's raw-pointer code, and no end-to-end number moved when
//!   they went (CHANGES.md, PR 16).
//! * **Two lanes** under that lock — *helpers* (the borrowed closures of
//!   scoped joins, short and bounded by their scan's morsel cursor) are
//!   popped ahead of *tasks* (`spawn`ed `'static` closures, FIFO).
//! * **Parking** — an idle worker waits on the one condvar with the queue
//!   lock held up to the wait, and every push happens under the same lock
//!   before its notify, so a wakeup cannot be lost and the wait needs no
//!   timeout.
//! * **Scoped joins** — [`ThreadPool::join_helpers`] runs a borrowed closure
//!   on up to N workers plus the calling thread and returns only when every
//!   invocation finished, which is what makes lifetime erasure of the borrow
//!   sound. A thread waiting on its join first drains the helper lane and
//!   only then blocks: once the lane is empty each of its helpers has been
//!   claimed by a thread that is running it. So a `spawn`ed task that fans
//!   out into a scoped join cannot deadlock the pool, even a 1-worker one,
//!   and a join waiter never picks up an unrelated `spawn`ed task.
//!
//! The process-wide pool is created lazily by [`global`] and lives for the
//! process lifetime. Its size comes from `TSUNAMI_POOL_THREADS` (default:
//! `std::thread::available_parallelism`), read once at first use.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A `spawn`ed pool task.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One queued invocation of a scoped join's closure. The borrow is erased
/// to `'static` by [`ThreadPool::join_helpers`], which outlives the helper.
struct Helper {
    work: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

impl Helper {
    /// Runs the invocation and reports to the join's latch, with the panic
    /// message if it panicked.
    fn run(self) {
        let result = panic::catch_unwind(AssertUnwindSafe(self.work));
        self.latch.arrive(result.err().map(panic_message));
    }
}

/// Runs one spawned task. Panics are caught so a poisoned task can never
/// kill a pool worker.
fn run_task(task: Task) {
    let _ = panic::catch_unwind(AssertUnwindSafe(task));
}

/// Everything the one lock guards.
#[derive(Default)]
struct Queue {
    /// Scoped-join invocations; popped ahead of `tasks`, by workers and by
    /// threads waiting on a join.
    helpers: VecDeque<Helper>,
    /// Spawned tasks, FIFO; popped by workers only.
    tasks: VecDeque<Task>,
    /// Set by `shutdown`. Under the lock, so a submission either lands
    /// before the flag (and a worker runs it before exiting) or sees it
    /// (and runs on the submitting thread).
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
#[derive(Default)]
struct PoolShared {
    queue: Mutex<Queue>,
    /// Idle workers wait here; every push notifies it.
    wake: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .expect("no task runs with the queue lock held")
    }

    /// A function of its own so the guard is gone before the caller runs
    /// the helper (as a `while let` scrutinee it would live through the
    /// loop body).
    fn pop_helper(&self) -> Option<Helper> {
        self.lock().helpers.pop_front()
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut queue = shared.lock();
    loop {
        if let Some(helper) = queue.helpers.pop_front() {
            drop(queue);
            helper.run();
            queue = shared.lock();
        } else if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            run_task(task);
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared
                .wake
                .wait(queue)
                .expect("no task runs with the queue lock held");
        }
    }
}

/// Completion latch for one scoped join: counts outstanding helper
/// invocations and records the first helper panic.
struct Latch {
    state: Mutex<(usize, Option<String>)>,
    done: Condvar,
}

impl Latch {
    fn new(outstanding: usize) -> Self {
        Self {
            state: Mutex::new((outstanding, None)),
            done: Condvar::new(),
        }
    }

    fn arrive(&self, panic_msg: Option<String>) {
        let mut state = self.state.lock().unwrap();
        state.0 -= 1;
        if let Some(msg) = panic_msg {
            state.1.get_or_insert(msg);
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut state = self.state.lock().unwrap();
        while state.0 > 0 {
            state = self.done.wait(state).unwrap();
        }
    }

    fn take_panic(&self) -> Option<String> {
        self.state.lock().unwrap().1.take()
    }
}

/// The message a caught panic carried, for reporting it as an error.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A persistent thread pool (see the module docs).
///
/// Dropping the pool (or calling [`ThreadPool::shutdown`]) joins every
/// worker, after the workers ran everything still queued, so scoped joins
/// can never be stranded. Shutdown is idempotent, and a pool that was shut
/// down runs later submissions on the submitting thread.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// A pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared::default());
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tsunami-pool-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Number of worker threads the pool was built with.
    pub fn worker_count(&self) -> usize {
        self.threads
    }

    /// Submits an independent `'static` task (the inter-query path: the
    /// engine scheduler submits whole queries this way). Tasks start in
    /// submission order. A panic in the task is caught and dropped.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let task: Task = Box::new(task);
        let mut queue = self.shared.lock();
        if queue.shutdown {
            drop(queue);
            run_task(task);
            return;
        }
        queue.tasks.push_back(task);
        drop(queue);
        self.shared.wake.notify_one();
    }

    /// Runs `work` on up to `helpers` pool workers *and* the calling thread,
    /// returning once every invocation has finished (the intra-query path:
    /// each invocation is one morsel-claiming loop). There are exactly
    /// `helpers + 1` invocations.
    ///
    /// The borrow is erased to `'static` internally; that is sound because
    /// this function never returns — not even by unwinding — before all
    /// helper invocations completed, so `work` outlives every use. A helper
    /// panic is re-raised here on the calling thread; a caller panic
    /// propagates after the helpers finish.
    ///
    /// A waiting caller runs queued helper invocations (its own or another
    /// join's) but never a `spawn`ed task, so tasks that fan out into
    /// scoped joins cannot deadlock the pool.
    pub fn join_helpers<'scope>(&self, helpers: usize, work: &(dyn Fn() + Sync + 'scope)) {
        if helpers == 0 {
            work();
            return;
        }
        // SAFETY: lifetime erasure only; see the doc comment for why `work`
        // outlives every helper invocation.
        let work_static: &'static (dyn Fn() + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync + 'scope), &'static (dyn Fn() + Sync)>(work)
        };
        let latch = Arc::new(Latch::new(helpers));
        let mut queue = self.shared.lock();
        if queue.shutdown {
            drop(queue);
            for _ in 0..=helpers {
                work();
            }
            return;
        }
        queue.helpers.extend((0..helpers).map(|_| Helper {
            work: work_static,
            latch: Arc::clone(&latch),
        }));
        drop(queue);
        if helpers == 1 {
            self.shared.wake.notify_one();
        } else {
            self.shared.wake.notify_all();
        }
        let caller = panic::catch_unwind(AssertUnwindSafe(work));
        // Helpers still borrow `work` (and whatever it captures): wait for
        // them before unwinding even if the caller's own invocation panicked.
        // An empty lane means every helper of this join was claimed and is
        // running, so blocking on the latch cannot wait on queued work.
        while let Some(helper) = self.shared.pop_helper() {
            helper.run();
        }
        latch.wait();
        if let Err(payload) = caller {
            panic::resume_unwind(payload);
        }
        if let Some(msg) = latch.take_panic() {
            panic!("pool helper panicked: {msg}");
        }
    }

    /// Stops and joins every worker; the workers run whatever is still
    /// queued before they exit. Idempotent — safe to call before `drop`,
    /// twice, or never.
    pub fn shutdown(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.worker_count())
            .finish()
    }
}

/// The lazily-created process-wide pool every query hot path routes
/// through; lives for the process lifetime. Sized once, at first use, by
/// `TSUNAMI_POOL_THREADS` — or `std::thread::available_parallelism` when
/// that is unset. A value that is not a positive integer panics here, at
/// first use, instead of silently meaning "all cores".
pub fn global() -> &'static Arc<ThreadPool> {
    static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let value =
            std::env::var_os("TSUNAMI_POOL_THREADS").map(|v| v.to_string_lossy().into_owned());
        let threads = parse_pool_threads(value.as_deref())
            .unwrap_or_else(|bad| panic!("{bad}"))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Arc::new(ThreadPool::new(threads))
    })
}

/// Parses `TSUNAMI_POOL_THREADS`; `None` (unset) leaves the choice to the
/// host's parallelism.
fn parse_pool_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(value) = value else { return Ok(None) };
    match value.trim().parse::<usize>() {
        Ok(threads) if threads > 0 => Ok(Some(threads)),
        _ => Err(format!(
            "TSUNAMI_POOL_THREADS={value:?} is not recognised: use a positive integer"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn the_thread_count_variable_is_strict() {
        assert_eq!(parse_pool_threads(None), Ok(None));
        assert_eq!(parse_pool_threads(Some(" 4 ")), Ok(Some(4)));
        for bad in ["0", "", "four", "-1", "2.5"] {
            assert!(parse_pool_threads(Some(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn spawned_tasks_all_run() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let latch = Arc::new(Latch::new(100));
        for i in 0..100u64 {
            let counter = Arc::clone(&counter);
            let latch = Arc::clone(&latch);
            pool.spawn(move || {
                counter.fetch_add(i + 1, Ordering::Relaxed);
                latch.arrive(None);
            });
        }
        latch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn join_helpers_runs_on_caller_and_helpers() {
        let pool = ThreadPool::new(2);
        let invocations = AtomicU64::new(0);
        let mut local = 0u64; // borrowed non-'static state
        let claimed = AtomicUsize::new(0);
        pool.join_helpers(2, &|| {
            invocations.fetch_add(1, Ordering::Relaxed);
            while claimed.fetch_add(1, Ordering::Relaxed) < 1000 {}
        });
        // All invocations finished before join_helpers returned.
        assert_eq!(invocations.load(Ordering::Relaxed), 3);
        assert!(claimed.load(Ordering::Relaxed) >= 1001);
        local += 1;
        assert_eq!(local, 1);
    }

    #[test]
    fn join_helpers_resurfaces_helper_panics() {
        let pool = ThreadPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let hits = AtomicU64::new(0);
            pool.join_helpers(2, &|| {
                if hits.fetch_add(1, Ordering::Relaxed) > 0 {
                    panic!("helper boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps executing work.
        let ran = Arc::new(AtomicBool::new(false));
        let latch = Arc::new(Latch::new(1));
        let flag = Arc::clone(&ran);
        let l = Arc::clone(&latch);
        pool.spawn(move || {
            flag.store(true, Ordering::Relaxed);
            l.arrive(None);
        });
        latch.wait();
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn nested_joins_from_worker_tasks_do_not_deadlock() {
        // A task that itself fans out: the scheduler-runs-parallel-query
        // shape. Must complete even when the pool has a single worker.
        for threads in [1, 2, 4] {
            let pool = Arc::new(ThreadPool::new(threads));
            let latch = Arc::new(Latch::new(4));
            let total = Arc::new(AtomicU64::new(0));
            for _ in 0..4 {
                let pool2 = Arc::clone(&pool);
                let latch = Arc::clone(&latch);
                let total = Arc::clone(&total);
                pool.spawn(move || {
                    let inner = AtomicU64::new(0);
                    pool2.join_helpers(2, &|| {
                        inner.fetch_add(7, Ordering::Relaxed);
                    });
                    total.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
                    latch.arrive(None);
                });
            }
            latch.wait();
            // 4 tasks × 3 invocations × 7.
            assert_eq!(total.load(Ordering::Relaxed), 84, "threads={threads}");
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_runs_queued_tasks() {
        let mut pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        pool.shutdown(); // double shutdown is a no-op
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        drop(pool); // drop after explicit shutdown is safe too
    }

    #[test]
    fn zero_threads_clamp_to_one_worker() {
        assert_eq!(ThreadPool::new(0).worker_count(), 1);
    }

    #[test]
    fn a_join_waiter_runs_helpers_never_spawned_tasks() {
        // Task A, on the pool's only worker, spawns task B and then joins.
        // While A waits on its join it may run its own helper but must not
        // start B: a waiter that picked up spawned tasks would nest whole
        // unrelated queries inside a scan's join.
        let pool = Arc::new(ThreadPool::new(1));
        let events = Arc::new(Mutex::new(Vec::new()));
        let latch = Arc::new(Latch::new(2));
        let (pool_a, events_a, latch_a) =
            (Arc::clone(&pool), Arc::clone(&events), Arc::clone(&latch));
        pool.spawn(move || {
            let (events_b, latch_b) = (Arc::clone(&events_a), Arc::clone(&latch_a));
            pool_a.spawn(move || {
                events_b.lock().unwrap().push("B starts");
                latch_b.arrive(None);
            });
            let invocations = AtomicU64::new(0);
            pool_a.join_helpers(1, &|| {
                invocations.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(invocations.load(Ordering::Relaxed), 2);
            events_a.lock().unwrap().push("A joined");
            latch_a.arrive(None);
        });
        latch.wait();
        assert_eq!(*events.lock().unwrap(), ["A joined", "B starts"]);
    }

    #[test]
    fn submissions_after_shutdown_run_on_the_caller() {
        // Driven from a thread so that a pool which strands post-shutdown
        // work fails this test on the timeout instead of hanging the suite.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut pool = ThreadPool::new(2);
            pool.shutdown();
            let me = std::thread::current().id();
            let joined_here = AtomicU64::new(0);
            pool.join_helpers(2, &|| {
                if std::thread::current().id() == me {
                    joined_here.fetch_add(1, Ordering::Relaxed);
                }
            });
            let spawned_here = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&spawned_here);
            pool.spawn(move || flag.store(std::thread::current().id() == me, Ordering::Relaxed));
            // `spawn` returned, so an inline task has already run.
            let _ = tx.send((
                joined_here.load(Ordering::Relaxed),
                spawned_here.load(Ordering::Relaxed),
            ));
        });
        let (joined_here, spawned_here) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a submission to a shut-down pool never returned");
        assert_eq!(joined_here, 3, "helpers + 1 invocations, all on the caller");
        assert!(spawned_here, "the spawned task ran inline on the caller");
    }
}
