//! Exact transport counts for two fully drained scenarios, one `Pipe` and
//! one `merge`. Each number is a function of the item count, the batch and
//! the queue protocol alone (one `put_all` per flushed chunk, one close per
//! run), never of the schedule, so a refactor of the producer or the queue
//! must leave them equal. Restarts are left out (how far an abandoned
//! producer gets is schedule-dependent), and so are merge's `batch_takes`
//! (its consumer batches by design).
#![cfg(feature = "obs")]

use gde::comb::to_range;
use gde::{BoxGen, GenExt};
use pipes::{merge, Pipe};
use std::sync::Mutex;

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

#[test]
fn pipe_counts_are_exact() {
    let family = [
        "pipes.pipe.spawned",
        "pipes.pipe.items",
        "pipes.pipe.batch_flushes",
    ];
    let d = deltas(family, || {
        let mut pipe = Pipe::batched(|| Box::new(to_range(1, 1000, 1)) as BoxGen, 64, 16);
        assert_eq!(pipe.count(), 1000);
    });
    // 1000 = 62 × 16 + 8: 63 flushes, the last one partial.
    assert_eq!(d, [1, 1000, 63, 1000, 63, 1000, 1]);
}

#[test]
fn merge_counts_are_exact() {
    let family = [
        "pipes.fan.merge_sources",
        "pipes.fan.merge_items",
        "pipes.fan.merge_batch_flushes",
    ];
    let d = deltas(family, || {
        let sources = (0..3i64)
            .map(|k| {
                Box::new(move || Box::new(to_range(k * 100, k * 100 + 49, 1)) as BoxGen)
                    as Box<dyn Fn() -> BoxGen + Send + Sync>
            })
            .collect();
        assert_eq!(merge(sources, 8).with_batch(4).count(), 150);
    });
    // Per source 50 = 12 × 4 + 2: 13 flushes, three sources.
    assert_eq!(d, [3, 150, 39, 150, 39, 150, 1]);
}
