//! Exhaustive model tests for the `exec` worker pool under the virtual
//! scheduler. Compiled only under `RUSTFLAGS="--cfg schedtest"`.
//!
//! The pool's shutdown contract is the target: `shutdown()` (and `Drop`)
//! must drain every already-queued job and join every worker, under any
//! interleaving of job submission, worker pickup, and queue close.
#![cfg(schedtest)]

use exec::ThreadPool;
use schedtest::sync::{Arc, Mutex};
use schedtest::{check, Config};

/// Shutdown drains: every job queued before `shutdown()` runs exactly
/// once, and shutdown itself returns (worker join completes) on every
/// interleaving. Two workers plus the driver make three threads on one
/// job queue, so this runs preemption-bounded.
#[test]
fn pool_shutdown_drains_all_queued_jobs() {
    let cfg = Config {
        preemption_bound: Some(2),
        ..Config::default()
    };
    let report = check("exec_pool_shutdown", &cfg, || {
        let pool = ThreadPool::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = log.clone();
            pool.execute(move || log.lock().push(i));
        }
        pool.shutdown();
        let mut ran = log.lock().clone();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2], "each queued job ran exactly once");
    });
    assert!(report.explored_schedules < 100_000, "{report:?}");
    assert!(report.failure.is_none(), "{report:?}");
}

/// submit/Task::join round-trip: the one-slot result queue resolves under
/// every interleaving of worker and joiner, including a panicking job
/// whose payload must re-raise in `join` without poisoning the pool.
#[test]
fn submit_join_delivers_result_and_panic() {
    let report = check("exec_submit_join", &Config::default(), || {
        let pool = ThreadPool::new(1);
        let t = pool.submit(|| 6 * 7);
        assert_eq!(t.join(), 42);
        let boom: exec::Task<()> = pool.submit(|| panic!("boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| boom.join()));
        assert!(err.is_err(), "panic payload re-raises in join");
        // The worker survives the caught panic and keeps serving.
        assert_eq!(pool.submit(|| 5).join(), 5);
    });
    assert!(report.complete, "DFS must drain: {report:?}");
    assert!(report.explored_schedules > 1, "{report:?}");
}

/// A single-worker pool serializes jobs FIFO under every interleaving of
/// submitter and worker.
#[test]
fn single_worker_pool_is_fifo() {
    let report = check("exec_single_worker_fifo", &Config::default(), || {
        let pool = ThreadPool::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = log.clone();
            pool.execute(move || log.lock().push(i));
        }
        pool.shutdown();
        assert_eq!(*log.lock(), vec![0, 1, 2], "one worker preserves order");
    });
    assert!(report.complete, "{report:?}");
}
