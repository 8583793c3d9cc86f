//! Exact transport counts for a fully drained `Pipe`. Each number is a
//! function of the item count, the batch and the queue protocol alone (one
//! `put_all` per flushed chunk, one close per run), never of the schedule,
//! so a refactor of the producer or the queue must leave them equal. With
//! restarts and retries only the spawn count is pinned: a run spawns once,
//! on the consumer's thread, while how far an abandoned producer gets is
//! schedule-dependent.
#![cfg(feature = "obs")]

use gde::comb::to_range;
use gde::{BoxGen, Gen, GenExt};
use pipes::{FaultPolicy, Pipe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The obs registry is process-global: one scenario at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Deltas of `family`'s three counters and the queue's four over `run`.
fn deltas(family: [&str; 3], run: impl FnOnce()) -> Vec<u64> {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let queue = ["puts", "batch_puts", "takes", "closes"].map(|c| format!("blockingq.queue.{c}"));
    let counters: Vec<_> = family
        .iter()
        .copied()
        .chain(queue.iter().map(String::as_str))
        .map(obs::counter)
        .collect();
    let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
    run();
    counters
        .iter()
        .zip(before)
        .map(|(c, b)| c.get() - b)
        .collect()
}

const PIPE_FAMILY: [&str; 3] = [
    "pipes.pipe.spawned",
    "pipes.pipe.items",
    "pipes.pipe.batch_flushes",
];

#[test]
fn pipe_counts_are_exact() {
    let d = deltas(PIPE_FAMILY, || {
        let mut pipe = Pipe::batched(|| Box::new(to_range(1, 1000, 1)) as BoxGen, 64, 16);
        assert_eq!(pipe.count(), 1000);
    });
    // 1000 = 62 × 16 + 8: 63 flushes, the last one partial.
    assert_eq!(d, [1, 1000, 63, 1000, 63, 1000, 1]);
}

#[test]
fn retry_spawns_once_per_run() {
    // The factory panics on run 0 only: one retry, so 1 + 1 spawns.
    let runs = AtomicUsize::new(0);
    let d = deltas(PIPE_FAMILY, || {
        let mut pipe = Pipe::batched(
            move || {
                assert!(runs.fetch_add(1, Ordering::SeqCst) > 0, "run 0 faults");
                Box::new(to_range(1, 100, 1)) as BoxGen
            },
            64,
            16,
        )
        .with_policy(FaultPolicy::Retry {
            limit: 2,
            backoff: Duration::ZERO,
        });
        assert_eq!(pipe.count(), 100);
        assert_eq!(pipe.retries(), 1);
    });
    assert_eq!(d[0], 2, "pipes.pipe.spawned = 1 + retries");
}

#[test]
fn restart_spawns_once_per_run() {
    // Two restarts, one mid-stream and one after the drain: 1 + 2 spawns.
    let d = deltas(PIPE_FAMILY, || {
        let mut pipe = Pipe::batched(|| Box::new(to_range(1, 100, 1)) as BoxGen, 64, 16);
        assert!(pipe.next_value().is_some());
        Gen::restart(&mut pipe);
        assert_eq!(pipe.count(), 100);
        Gen::restart(&mut pipe);
        assert_eq!(pipe.count(), 100);
    });
    assert_eq!(d[0], 3, "pipes.pipe.spawned = 1 + restarts");
}
