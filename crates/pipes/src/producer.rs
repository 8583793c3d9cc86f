//! The one producer loop behind [`crate::Pipe`].
//!
//! A producer thread calls its factory, drives the generator to failure,
//! deep-copies each result at the thread boundary and moves results across
//! the queue `batch` at a time, one `put_all` per chunk. The factory and
//! the drive loop run under `catch_unwind`, and so does the final flush of
//! the clean prefix (fault injection arms the transport too), so the
//! producer always closes its queue with the run's cause.

use blockingq::{BlockingQueue, CloseCause, Fault};
use gde::{BoxGen, Step, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A generator recipe, invoked afresh on every (re)spawn.
pub(crate) type Factory = Arc<dyn Fn() -> BoxGen + Send + Sync>;

/// The stage label stamped into every pipe fault.
pub(crate) const STAGE: &str = "pipe";

/// Spawn a producer thread that runs `factory`'s generator into a fresh
/// queue of `capacity` in chunks of `batch`, and return the queue. The
/// producer's exit closes it with the run's cause: `Finished` when the
/// generator failed normally or the consumer hung up (a `put_all` was
/// refused), `Failed` with the contained fault otherwise.
pub(crate) fn spawn_run(factory: &Factory, capacity: usize, batch: usize) -> BlockingQueue<Value> {
    obs_on!(crate::stats::producers().spawned.inc(););
    let queue = BlockingQueue::bounded(capacity);
    let out = queue.clone();
    let factory = Arc::clone(factory);
    // Through the parking_lot shim so the producer is a virtual thread
    // under --cfg schedtest (see DESIGN.md § "Schedule exploration").
    parking_lot::thread::Builder::new()
        .name("pipe-producer".to_string())
        .spawn(move || {
            obs_on!(let started = std::time::Instant::now(););
            obs_on!(let forwarded = std::cell::Cell::new(0u64););
            // One `put_all` per chunk; `false` means the consumer hung up.
            let flush = |chunk: &mut Vec<Value>| {
                if chunk.is_empty() {
                    return true;
                }
                obs_on!(let n = chunk.len(););
                let sent = out.put_all(std::mem::take(chunk)).is_ok();
                obs_on!(if sent {
                    forwarded.set(forwarded.get() + n as u64);
                    crate::stats::producers().items.add(n as u64);
                    crate::stats::producers().flushes.inc();
                });
                sent
            };
            let mut chunk = Vec::with_capacity(batch);
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut g = factory();
                loop {
                    faultpoint!("pipes.producer.resume");
                    match g.resume() {
                        Step::Suspend(v) => {
                            // Deep-copy at the thread boundary.
                            chunk.push(v.deep_copy());
                            if chunk.len() >= batch {
                                if !flush(&mut chunk) {
                                    return;
                                }
                                chunk.reserve(batch);
                            }
                        }
                        Step::Fail => return,
                    }
                }
            }));
            let mut fault = run.err().map(|p| Fault::from_panic(STAGE, &*p));
            // Every exit path gets here: flush the clean prefix.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| flush(&mut chunk))) {
                fault.get_or_insert_with(|| Fault::from_panic(STAGE, &*p));
            }
            obs_on!({
                let stats = crate::stats::producers();
                stats.per_producer.record(forwarded.get());
                stats.wall.observe(started.elapsed());
            });
            out.close_with(fault.map_or(CloseCause::Finished, CloseCause::Failed));
        })
        .expect("failed to spawn producer");
    queue
}
