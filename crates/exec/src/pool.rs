//! A fixed-size worker pool over a shared blocking job queue.

use blockingq::BlockingQueue;
// Worker threads spawn through the parking_lot shim so the whole pool is
// virtualized under --cfg schedtest (see DESIGN.md § "Schedule
// exploration").
use parking_lot::thread::JoinHandle;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size thread pool.
///
/// Jobs are drawn FIFO from a shared unbounded queue by `threads` workers.
/// Dropping the pool closes the queue and joins the workers after the
/// already-queued jobs have drained.
pub struct ThreadPool {
    queue: BlockingQueue<Job>,
    workers: Vec<JoinHandle<()>>,
    /// Job panics contained by the workers (see [`ThreadPool::execute`]).
    contained: std::sync::Arc<parking_lot::sync::atomic::AtomicU64>,
}

/// A job rejected by [`ThreadPool::try_submit`]: the pool is shut down.
///
/// Carries the boxed job and its [`Task`] handle so no work is lost —
/// [`SubmitError::run_inline`] executes the job on the calling thread and
/// the handle resolves exactly as if a worker had run it.
pub struct SubmitError<T> {
    job: Job,
    task: Task<T>,
}

impl<T> SubmitError<T> {
    /// Run the rejected job on the calling thread and return its task
    /// handle (already resolved; a job panic is captured and re-raised by
    /// [`Task::join`], not here).
    pub fn run_inline(self) -> Task<T> {
        (self.job)();
        self.task
    }
}

impl<T> std::fmt::Debug for SubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SubmitError(\"pool is shut down\")")
    }
}

impl ThreadPool {
    /// Create a pool with `threads` worker threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue: BlockingQueue<Job> = BlockingQueue::unbounded();
        let contained = std::sync::Arc::new(parking_lot::sync::atomic::AtomicU64::new(0));
        let workers = (0..threads)
            .map(|i| {
                let queue = queue.clone();
                let contained = contained.clone();
                obs_on!(crate::stats::pool().workers_spawned.inc(););
                parking_lot::thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.take() {
                            obs_on!(let _busy = crate::stats::pool().busy.start(););
                            // Contain job panics: a panicking `execute`
                            // job must not kill the worker and silently
                            // shrink the pool for the rest of the
                            // process. (`submit` jobs already route their
                            // payload through the Task slot and never
                            // unwind out of the wrapper.)
                            let run =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    faultpoint!("exec.worker.job");
                                    job()
                                }));
                            if run.is_err() {
                                contained.fetch_add(1, parking_lot::sync::atomic::Ordering::AcqRel);
                                obs_on!(crate::stats::pool().contained_panics.inc(););
                            }
                            obs_on!(crate::stats::pool().tasks_run.inc(););
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            queue,
            workers,
            contained,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Job panics contained by workers so far (each one a fire-and-forget
    /// `execute` job that would otherwise have killed its worker).
    pub fn contained_panics(&self) -> u64 {
        self.contained
            .load(parking_lot::sync::atomic::Ordering::Acquire)
    }

    /// Enqueue a fire-and-forget job.
    ///
    /// # Panics
    ///
    /// If the pool has been shut down ("pool is shut down"). Use
    /// [`ThreadPool::try_submit`] to handle rejection without panicking.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.queue
            .put(Box::new(job))
            .unwrap_or_else(|_| panic!("pool is shut down"));
        obs_on!(crate::stats::pool().tasks_queued.inc(););
    }

    /// Enqueue a job and get a [`Task`] handle resolving to its result.
    ///
    /// If the job panics the panic payload is captured and re-raised in
    /// [`Task::join`], mirroring `std::thread::JoinHandle`.
    ///
    /// # Panics
    ///
    /// If the pool has been shut down, like [`ThreadPool::execute`]. Use
    /// [`ThreadPool::try_submit`] for the non-panicking variant.
    pub fn submit<T, F>(&self, job: F) -> Task<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match self.try_submit(job) {
            Ok(task) => task,
            Err(_) => panic!("pool is shut down"),
        }
    }

    /// Enqueue a job, or hand it back if the pool is shut down.
    ///
    /// The rejection carries the (boxed) job and its task handle, so the
    /// caller can degrade gracefully — most simply by running the job on
    /// its own thread via [`SubmitError::run_inline`], which is how the
    /// mapreduce/wordcount drivers stay alive across a shut-down global
    /// pool instead of panicking mid-reduction.
    pub fn try_submit<T, F>(&self, job: F) -> Result<Task<T>, SubmitError<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = BlockingQueue::bounded(1);
        let slot2 = slot.clone();
        let wrapped: Job = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            // The slot is never closed and this is its only put: no refund.
            let _ = slot2.put(result);
        });
        match self.queue.put(wrapped) {
            Ok(()) => {
                obs_on!(crate::stats::pool().tasks_queued.inc(););
                Ok(Task { slot })
            }
            Err(blockingq::PutError(job)) => Err(SubmitError {
                job,
                task: Task { slot },
            }),
        }
    }

    /// Drain all queued jobs and stop the workers, blocking until done.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Handle to a submitted job's eventual result: a `bounded(1)` queue the
/// job puts its outcome into once, the paper's singleton pipe as a future.
pub struct Task<T> {
    slot: BlockingQueue<std::thread::Result<T>>,
}

impl<T> std::fmt::Debug for Task<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> Task<T> {
    /// Block until the job completes and return its result.
    ///
    /// # Panics
    /// Re-raises the job's panic, like `JoinHandle::join().unwrap()`.
    pub fn join(self) -> T {
        match self.slot.take().expect("a task slot is never closed") {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// True iff the job has completed (successfully or by panicking).
    pub fn is_done(&self) -> bool {
        self.slot.len() == 1
    }
}

/// The worker count the global pool will use (or already uses): the
/// `EXEC_THREADS` environment variable when set to a positive integer,
/// otherwise the number of available cores.
///
/// Exposed so harnesses (the figure 6 runner) can record the effective
/// size in their output without forcing the pool into existence.
pub fn global_threads() -> usize {
    if let Ok(raw) = std::env::var("EXEC_THREADS") {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("exec: ignoring invalid EXEC_THREADS={raw:?} (want a positive integer)"),
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

/// The process-wide default pool, sized by [`global_threads`]: the
/// `EXEC_THREADS` environment variable when set, else the number of
/// available cores.
///
/// This mirrors the common-pool role of Java's `ForkJoinPool.commonPool()`
/// that backs parallel streams in the paper's baseline suite (and
/// `EXEC_THREADS` plays the role of
/// `java.util.concurrent.ForkJoinPool.common.parallelism`: scaling
/// experiments pin the pool width without recompiling).
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(global_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = counter.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn submit_returns_result() {
        let pool = ThreadPool::new(2);
        let t = pool.submit(|| 6 * 7);
        assert_eq!(t.join(), 42);
    }

    #[test]
    fn submit_many_ordered_by_handle() {
        let pool = ThreadPool::new(3);
        let tasks: Vec<Task<usize>> = (0..50).map(|i| pool.submit(move || i * i)).collect();
        let results: Vec<usize> = tasks.into_iter().map(Task::join).collect();
        assert_eq!(results, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_propagates_on_join() {
        let pool = ThreadPool::new(1);
        let t: Task<()> = pool.submit(|| panic!("boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.join()))
            .expect_err("join re-raises the job's panic");
        // The joiner sees the job's own payload, not a wrapper.
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom"));
        // Pool survives the panic and keeps executing jobs.
        assert_eq!(pool.submit(|| 5).join(), 5);
    }

    #[test]
    fn single_thread_pool_runs_sequentially() {
        let pool = ThreadPool::new(1);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..10 {
            let log = log.clone();
            pool.execute(move || log.lock().push(i));
        }
        pool.shutdown();
        assert_eq!(*log.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn uses_multiple_workers() {
        // With 4 workers and 4 jobs that each wait for all jobs to start,
        // completion requires genuine parallelism.
        let pool = ThreadPool::new(4);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let tasks: Vec<Task<()>> = (0..4)
            .map(|_| {
                let b = barrier.clone();
                pool.submit(move || {
                    b.wait();
                })
            })
            .collect();
        for t in tasks {
            t.join();
        }
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
        assert_eq!(global().submit(|| "ok").join(), "ok");
    }

    #[test]
    fn exec_threads_env_overrides_width() {
        // Runs in its own process-state bubble: no other test in this
        // binary reads EXEC_THREADS outside `global()`, which is forced
        // *without* the variable first so the OnceLock is already settled.
        let _ = global().threads();
        std::env::set_var("EXEC_THREADS", "3");
        assert_eq!(global_threads(), 3);
        std::env::set_var("EXEC_THREADS", "  7 ");
        assert_eq!(global_threads(), 7);
        std::env::set_var("EXEC_THREADS", "0");
        let fallback = global_threads(); // invalid: falls back to cores
        assert!(fallback >= 1);
        std::env::set_var("EXEC_THREADS", "lots");
        assert!(global_threads() >= 1);
        std::env::remove_var("EXEC_THREADS");
        assert!(global_threads() >= 1);
    }

    #[test]
    fn try_submit_rejected_job_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.try_submit(|| 11).expect("pool live").join(), 11);
        pool.shutdown();
        // Shutdown consumed the pool; build another and shut it down while
        // keeping the handle to exercise the rejection path.
        let pool = ThreadPool::new(1);
        pool.queue.close();
        let rejected = pool.try_submit(|| 6 * 7).expect_err("pool shut down");
        assert_eq!(
            format!("{rejected:?}"),
            "SubmitError(\"pool is shut down\")"
        );
        // No work lost: the job runs on this thread, the handle resolves.
        let task = rejected.run_inline();
        assert!(task.is_done());
        assert_eq!(task.join(), 42);
    }

    #[test]
    fn run_inline_captures_job_panics_for_join() {
        let pool = ThreadPool::new(1);
        pool.queue.close();
        let task: Task<()> = pool
            .try_submit(|| panic!("inline boom"))
            .expect_err("rejected")
            .run_inline();
        // The panic is deferred to join, exactly like a worker run.
        assert!(task.is_done());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.join()))
            .expect_err("join re-raises the inline panic");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"inline boom"));
    }

    #[test]
    fn submit_panics_when_pool_is_shut_down() {
        let pool = ThreadPool::new(1);
        pool.queue.close();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.submit(|| 1);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().expect("str payload");
        assert!(msg.contains("pool is shut down"), "{msg}");
    }

    #[test]
    fn worker_survives_panicking_execute_job() {
        // Pre-containment, a panicking fire-and-forget job killed its
        // worker: a 1-thread pool would then never run another job.
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("fire-and-forget boom"));
        assert_eq!(pool.submit(|| 5).join(), 5, "worker still alive");
        assert_eq!(pool.contained_panics(), 1);
    }

    #[test]
    fn is_done_stays_false_while_the_job_is_blocked() {
        let pool = ThreadPool::new(1);
        let started = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let (s, r) = (started.clone(), release.clone());
        let t = pool.submit(move || {
            s.wait();
            r.wait();
            7
        });
        started.wait();
        // The job is running but parked on `release`: no result yet.
        assert!(!t.is_done());
        release.wait();
        assert_eq!(t.join(), 7);
    }

    #[test]
    fn is_done_flips_after_completion() {
        let pool = ThreadPool::new(1);
        let t = pool.submit(|| 1);
        // Ensure the job has run by submitting a second and joining it.
        pool.submit(|| 2).join();
        assert!(t.is_done());
        assert_eq!(t.join(), 1);
    }
}
