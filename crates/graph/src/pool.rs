//! A shared work-stealing worker pool for the sharded stages and the server.
//!
//! Before this module existed every sharded stage (candidate generation,
//! graph preparation, pivot-path search) spawned *scoped* threads per batch —
//! cheap for one-shot CLI runs, wasteful for long-lived processes like
//! `ec serve`, where the incremental grouper re-spawned a handful of threads
//! for every speculative batch of every request. [`WorkerPool`] keeps a fixed
//! set of long-lived workers instead:
//!
//! * an **injected queue** receives jobs submitted from outside the pool,
//!   and every detached job ([`WorkerPool::spawn_fifo`], how `ec serve`
//!   hands out connections) wherever it is submitted from;
//! * each worker owns a **deque** for batch tasks submitted *from* that
//!   worker (nested fan-out), which idle workers **steal** from;
//! * jobs are **panic-isolated**: a panicking job never kills its worker —
//!   batch panics are captured and re-raised in the submitting thread,
//!   detached-job panics are counted and dropped.
//!
//! Batches ([`WorkerPool::run`]) block the submitting thread, but the
//! submitter *participates*: it claims unclaimed tasks of its own batch while
//! waiting, so a batch submitted from inside a pool worker (a server
//! connection handler fanning out a pivot-path search, say) can always make
//! progress even when every worker is busy — the pool is deadlock-free by
//! construction.
//!
//! Because every sharded stage is bit-identical for *any* thread count, the
//! number of pool workers never affects results; it only trades wall-clock
//! time for cores. Stages therefore share one process-wide pool ([`shared`]),
//! sized on first use (`ec serve --threads` pins it via [`configure_shared`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Instant;

/// A detached job: runs once on some worker, result discarded.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Registry handles for the pool's runtime signals — exactly the ones that
/// would have caught the PR 6 LIFO starvation in minutes instead of a day:
/// queue depth, steal traffic, submit-path split, and how long jobs wait
/// versus run.
struct PoolMetrics {
    /// Jobs currently sitting in the injector or a worker deque.
    queue_depth: ec_obs::Gauge,
    /// Jobs taken from another worker's deque.
    steals: ec_obs::Counter,
    /// Jobs pushed onto the submitting worker's own LIFO deque.
    submit_lifo: ec_obs::Counter,
    /// Jobs pushed onto the shared FIFO injector.
    submit_fifo: ec_obs::Counter,
    /// Time from submit to dequeue.
    queue_seconds: ec_obs::Histogram,
    /// Time a job spends executing on its worker.
    wall_seconds: ec_obs::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        queue_depth: ec_obs::gauge(
            "ec_pool_queue_depth",
            "Jobs waiting in the shared pool's injector and worker deques.",
        ),
        steals: ec_obs::counter(
            "ec_pool_steals_total",
            "Jobs taken from another worker's deque.",
        ),
        submit_lifo: ec_obs::counter_with(
            "ec_pool_submit_total",
            "Jobs submitted to the pool, by queue path.",
            &[("path", "lifo")],
        ),
        submit_fifo: ec_obs::counter_with(
            "ec_pool_submit_total",
            "Jobs submitted to the pool, by queue path.",
            &[("path", "fifo")],
        ),
        queue_seconds: ec_obs::histogram(
            "ec_pool_task_queue_seconds",
            "Time pool jobs wait between submit and dequeue.",
            ec_obs::Unit::Seconds,
            ec_obs::LATENCY_BUCKETS_US,
        ),
        wall_seconds: ec_obs::histogram(
            "ec_pool_task_wall_seconds",
            "Time pool jobs spend executing on a worker.",
            ec_obs::Unit::Seconds,
            ec_obs::LATENCY_BUCKETS_US,
        ),
    })
}

/// A queued job plus its submit time (for the queue-wait histogram).
struct Queued {
    job: Job,
    submitted: Instant,
}

impl Queued {
    fn new(job: Job) -> Self {
        Queued {
            job,
            submitted: Instant::now(),
        }
    }
}

/// One task of a [`WorkerPool::run`] batch.
pub type PoolTask<R> = Box<dyn FnOnce() -> R + Send + 'static>;

/// Queues plus the sleep/wake coordination shared by all workers of a pool.
struct PoolShared {
    /// Jobs submitted from threads outside the pool.
    injector: Mutex<VecDeque<Queued>>,
    /// Per-worker deques for jobs submitted from inside the pool; idle
    /// workers steal from the front.
    worker_queues: Vec<Mutex<VecDeque<Queued>>>,
    /// Guards the wake generation: bumped (under the lock) on every push so a
    /// worker that scanned all queues empty can detect a concurrent push and
    /// re-scan instead of sleeping through it.
    generation: Mutex<u64>,
    /// Signalled (under `generation`) on every push and on shutdown.
    wake: Condvar,
    shutdown: AtomicBool,
    /// Detached jobs whose panic was swallowed (observability only).
    detached_panics: AtomicUsize,
    /// Jobs executed per worker (used by the fairness tests).
    executed: Vec<AtomicUsize>,
}

std::thread_local! {
    /// Which pool (and worker slot) the current thread belongs to, if any.
    static WORKER: std::cell::RefCell<Option<(Weak<PoolShared>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

impl PoolShared {
    /// Pushes a job: onto the current worker's own deque when called from
    /// inside this pool, onto the injector otherwise; then wakes sleepers.
    fn push(self: &Arc<Self>, job: Job) {
        let own_slot = WORKER.with(|w| {
            w.borrow().as_ref().and_then(|(pool, idx)| {
                let same = pool
                    .upgrade()
                    .is_some_and(|strong| Arc::ptr_eq(&strong, self));
                same.then_some(*idx)
            })
        });
        let metrics = pool_metrics();
        match own_slot {
            Some(idx) => {
                metrics.submit_lifo.inc();
                self.worker_queues[idx]
                    .lock()
                    .unwrap()
                    .push_back(Queued::new(job));
            }
            None => {
                metrics.submit_fifo.inc();
                self.injector.lock().unwrap().push_back(Queued::new(job));
            }
        }
        metrics.queue_depth.add(1);
        let mut generation = self.generation.lock().unwrap();
        *generation += 1;
        self.wake.notify_all();
    }

    /// Pushes a job onto the shared injector regardless of the calling
    /// thread; then wakes sleepers. The own-deque shortcut in
    /// [`PoolShared::push`] is wrong for a job that re-submits *itself*
    /// (a server connection yielding its worker): the deque is popped
    /// LIFO, so the worker would take the same job straight back and
    /// starve everything queued behind it.
    fn push_injected(&self, job: Job) {
        let metrics = pool_metrics();
        metrics.submit_fifo.inc();
        self.injector.lock().unwrap().push_back(Queued::new(job));
        metrics.queue_depth.add(1);
        let mut generation = self.generation.lock().unwrap();
        *generation += 1;
        self.wake.notify_all();
    }

    /// Claims the next job: own deque first (most recently pushed), then a
    /// steal sweep over the other workers' deques (oldest first), then the
    /// injector. `slot` is `None` for non-worker threads (they only steal).
    fn find_job(&self, slot: Option<usize>) -> Option<Queued> {
        if let Some(idx) = slot {
            if let Some(job) = self.worker_queues[idx].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        for (idx, queue) in self.worker_queues.iter().enumerate() {
            if Some(idx) == slot {
                continue;
            }
            if let Some(job) = queue.lock().unwrap().pop_front() {
                pool_metrics().steals.inc();
                return Some(job);
            }
        }
        self.injector.lock().unwrap().pop_front()
    }

    fn worker_loop(self: Arc<Self>, slot: usize) {
        WORKER.with(|w| *w.borrow_mut() = Some((Arc::downgrade(&self), slot)));
        loop {
            // Snapshot the generation *before* scanning so a push that the
            // scan raced past is caught by the re-check below.
            let seen = *self.generation.lock().unwrap();
            if let Some(queued) = self.find_job(Some(slot)) {
                let metrics = pool_metrics();
                metrics.queue_depth.sub(1);
                metrics
                    .queue_seconds
                    .observe_duration(queued.submitted.elapsed());
                self.executed[slot].fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                (queued.job)();
                metrics.wall_seconds.observe_duration(started.elapsed());
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let mut generation = self.generation.lock().unwrap();
            while *generation == seen && !self.shutdown.load(Ordering::Acquire) {
                generation = self.wake.wait(generation).unwrap();
            }
        }
        WORKER.with(|w| *w.borrow_mut() = None);
    }
}

/// One batch in flight: its unclaimed tasks, its result slots and the
/// completion signal the submitter waits on.
struct BatchState<R> {
    pending: Mutex<VecDeque<(usize, PoolTask<R>)>>,
    results: Mutex<Vec<Option<std::thread::Result<R>>>>,
    finished: Mutex<usize>,
    done: Condvar,
}

impl<R: Send + 'static> BatchState<R> {
    fn new(total: usize) -> Self {
        BatchState {
            pending: Mutex::new(VecDeque::with_capacity(total)),
            results: Mutex::new((0..total).map(|_| None).collect()),
            finished: Mutex::new(0),
            done: Condvar::new(),
        }
    }

    /// Claims and runs one unclaimed task of this batch; false when every
    /// task is already claimed. Panics are captured into the result slot.
    fn run_one(&self) -> bool {
        let Some((index, task)) = self.pending.lock().unwrap().pop_front() else {
            return false;
        };
        let outcome = catch_unwind(AssertUnwindSafe(task));
        self.results.lock().unwrap()[index] = Some(outcome);
        let mut finished = self.finished.lock().unwrap();
        *finished += 1;
        self.done.notify_all();
        true
    }
}

/// A fixed-size pool of long-lived worker threads with an injected queue and
/// per-worker work-stealing deques. See the module docs for the full design.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            worker_queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            generation: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            detached_panics: AtomicUsize::new(0),
            executed: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
        });
        let handles = (0..threads)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ec-pool-{slot}"))
                    .spawn(move || shared.worker_loop(slot))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.worker_queues.len()
    }

    /// Submits a detached job that always joins the back of the shared
    /// FIFO injector, even from inside a pool worker. The worker's own LIFO
    /// deque is right for nested batch work (locality), wrong for a job
    /// that re-queues itself to *give up* the worker: LIFO would hand the
    /// worker straight back and starve every other waiting job. A panicking
    /// job is swallowed (the worker survives) and counted in
    /// [`WorkerPool::detached_panics`].
    pub fn spawn_fifo(&self, job: impl FnOnce() + Send + 'static) {
        let shared = Arc::clone(&self.shared);
        self.shared.push_injected(Box::new(move || {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared.detached_panics.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    /// Number of detached jobs that panicked so far.
    pub fn detached_panics(&self) -> usize {
        self.shared.detached_panics.load(Ordering::Relaxed)
    }

    /// Jobs executed per worker since the pool started (fairness probes).
    pub fn executed_per_worker(&self) -> Vec<usize> {
        self.shared
            .executed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Runs `tasks` to completion and returns their results in task order.
    ///
    /// The submitting thread participates: while any task of the batch is
    /// unclaimed it claims and runs tasks itself, and only blocks once every
    /// task is claimed by some thread. A batch may therefore be submitted
    /// from *inside* a pool worker without risk of deadlock — a claimed task
    /// is always actively being executed by somebody.
    ///
    /// If any task panicked, the first panic (in task order) is re-raised
    /// here after the whole batch has finished; the workers themselves
    /// survive.
    pub fn run<R: Send + 'static>(&self, tasks: Vec<PoolTask<R>>) -> Vec<R> {
        let total = tasks.len();
        match total {
            0 => return Vec::new(),
            // A lone task gains nothing from the queues.
            1 => return tasks.into_iter().map(|t| t()).collect(),
            _ => {}
        }
        let state = Arc::new(BatchState::new(total));
        state
            .pending
            .lock()
            .unwrap()
            .extend(tasks.into_iter().enumerate());
        // One claim ticket per task beyond the one the submitter starts on;
        // a ticket that finds the batch fully claimed is a cheap no-op.
        for _ in 1..total {
            let state = Arc::clone(&state);
            self.shared.push(Box::new(move || {
                state.run_one();
            }));
        }
        while state.run_one() {}
        let mut finished = state.finished.lock().unwrap();
        while *finished < total {
            finished = state.done.wait(finished).unwrap();
        }
        drop(finished);
        let collected: Vec<std::thread::Result<R>> = state
            .results
            .lock()
            .unwrap()
            .iter_mut()
            .map(|slot| slot.take().expect("finished batch has all results"))
            .collect();
        let mut out = Vec::with_capacity(total);
        let mut panic_payload = None;
        for result in collected {
            match result {
                Ok(value) => out.push(value),
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.generation.lock().unwrap();
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

static SHARED: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool every sharded stage runs on, created on first use
/// with [`crate::Parallelism::AUTO`]'s thread count (`EC_THREADS` or the
/// machine, clamped). The worker count never affects results — every sharded
/// stage is bit-identical for any thread count — so one pool can serve
/// stages configured with different [`crate::Parallelism`] values at once.
pub fn shared() -> &'static WorkerPool {
    SHARED.get_or_init(|| WorkerPool::new(crate::Parallelism::AUTO.threads()))
}

/// Sizes the shared pool to `threads` workers (0 = auto) if it has not been
/// created yet, and returns it. The first caller wins: once any stage has
/// used the pool its size is pinned, so long-lived processes (`ec serve`)
/// should call this during startup, before any consolidation work runs.
pub fn configure_shared(threads: usize) -> &'static WorkerPool {
    SHARED.get_or_init(|| {
        if threads == 0 {
            WorkerPool::new(crate::Parallelism::AUTO.threads())
        } else {
            WorkerPool::new(threads)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    fn task<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> PoolTask<R> {
        Box::new(f)
    }

    #[test]
    fn batch_results_come_back_in_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<PoolTask<usize>> = (0..64).map(|i| task(move || i * 2)).collect();
        let results = pool.run(tasks);
        assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = WorkerPool::new(2);
        assert!(pool.run::<usize>(Vec::new()).is_empty());
        assert_eq!(pool.run(vec![task(|| 7usize)]), vec![7]);
    }

    #[test]
    fn work_is_stolen_across_workers() {
        // Slow tasks submitted in one batch must not all run on one thread:
        // the claim tickets land in the injector and every idle worker (plus
        // the submitter) picks one up.
        let pool = WorkerPool::new(4);
        let tasks: Vec<PoolTask<std::thread::ThreadId>> = (0..8)
            .map(|_| {
                task(|| {
                    std::thread::sleep(Duration::from_millis(40));
                    std::thread::current().id()
                })
            })
            .collect();
        let threads: HashSet<_> = pool.run(tasks).into_iter().collect();
        assert!(
            threads.len() >= 2,
            "8 x 40ms tasks on 4 workers + submitter must overlap: {threads:?}"
        );
    }

    #[test]
    fn nested_batches_on_worker_deques_are_stolen() {
        // A batch submitted from inside a worker pushes its tickets onto that
        // worker's own deque; other workers must steal them.
        let pool = Arc::new(WorkerPool::new(4));
        let inner_pool = Arc::clone(&pool);
        let outer: Vec<PoolTask<usize>> = vec![task(move || {
            let tasks: Vec<PoolTask<std::thread::ThreadId>> = (0..8)
                .map(|_| {
                    task(|| {
                        std::thread::sleep(Duration::from_millis(40));
                        std::thread::current().id()
                    })
                })
                .collect();
            let threads: HashSet<_> = inner_pool.run(tasks).into_iter().collect();
            threads.len()
        })];
        let distinct = pool.run(outer)[0];
        assert!(
            distinct >= 2,
            "nested 8 x 40ms tasks must be stolen off the submitting worker's deque"
        );
        let executed = pool.executed_per_worker();
        assert!(
            executed.iter().filter(|&&n| n > 0).count() >= 2,
            "at least two workers must have executed jobs: {executed:?}"
        );
    }

    #[test]
    fn batch_panics_propagate_but_workers_survive() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<PoolTask<usize>> = (0..6)
            .map(|i| {
                task(move || {
                    if i == 3 {
                        panic!("task 3 exploded");
                    }
                    i
                })
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        let payload = outcome.expect_err("the batch panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(message.contains("exploded"), "{message}");
        // The pool still works afterwards.
        let results = pool.run((0..8).map(|i| task(move || i + 1)).collect::<Vec<_>>());
        assert_eq!(results.iter().sum::<usize>(), 36);
    }

    #[test]
    fn detached_panics_are_isolated_and_counted() {
        let pool = WorkerPool::new(1);
        pool.spawn_fifo(|| panic!("detached job panicked"));
        // The job runs asynchronously; wait for the swallowed panic to land.
        for _ in 0..400 {
            if pool.detached_panics() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.detached_panics(), 1);
        // A follow-up batch proves the lone worker survived the panic.
        let results = pool.run((0..4).map(|i| task(move || i)).collect::<Vec<_>>());
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn deeply_nested_batches_complete_on_a_tiny_pool() {
        // With 1 worker, every level of nesting relies on submitter
        // participation — this deadlocks unless claimed-task progress is
        // guaranteed.
        let pool = Arc::new(WorkerPool::new(1));
        fn nest(pool: &Arc<WorkerPool>, depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            let tasks: Vec<PoolTask<usize>> = (0..2)
                .map(|_| {
                    let pool = Arc::clone(pool);
                    task(move || nest(&pool, depth - 1))
                })
                .collect();
            pool.run(tasks).into_iter().sum()
        }
        assert_eq!(nest(&pool, 4), 16);
    }

    #[test]
    fn spawn_fifo_from_a_worker_queues_behind_the_injector() {
        // A job that re-submits itself to give up the worker must land
        // *behind* jobs already waiting in the injector; a push onto the
        // worker's own LIFO deque would make it run first again.
        use std::sync::mpsc;
        let pool = Arc::new(WorkerPool::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let pool = Arc::clone(&pool);
            let order = Arc::clone(&order);
            let done_tx = done_tx.clone();
            pool.clone().spawn_fifo(move || {
                started_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                // The injector now holds "waiting"; a fair re-queue of
                // "yielded" must run after it.
                let order2 = Arc::clone(&order);
                pool.spawn_fifo(move || {
                    order2.lock().unwrap().push("yielded");
                    done_tx.send(()).unwrap();
                });
            });
        }
        started_rx.recv().unwrap();
        {
            let order = Arc::clone(&order);
            pool.spawn_fifo(move || order.lock().unwrap().push("waiting"));
        }
        go_tx.send(()).unwrap();
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["waiting", "yielded"]);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared() as *const WorkerPool;
        let b = configure_shared(3) as *const WorkerPool;
        assert_eq!(a, b, "configure after first use returns the same pool");
        assert!(shared().threads() >= 1);
    }
}
