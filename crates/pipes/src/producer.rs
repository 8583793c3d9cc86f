//! The one producer loop behind [`crate::Pipe`] and [`crate::merge`].
//!
//! A producer thread calls its factory, drives the generator to failure,
//! deep-copies each result at the thread boundary and moves results across
//! the queue `batch` at a time, one `put_all` per chunk. The factory and
//! the drive loop run under `catch_unwind`, and so does the final flush of
//! the clean prefix (fault injection arms the transport too), so the
//! caller's exit action always runs and always learns whether the run
//! faulted. Closing the queue is that action's job: a pipe closes with the
//! cause, a merge source runs the fan-in's departure protocol.

use blockingq::{BlockingQueue, Fault};
use gde::{BoxGen, Step, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A generator recipe, invoked afresh on every (re)spawn.
pub(crate) type Factory = Arc<dyn Fn() -> BoxGen + Send + Sync>;

/// Whom a producer works for: names its thread, its fault-injection site
/// and the obs family (`crate::stats::producers`) it books under.
#[derive(Clone, Copy)]
pub(crate) enum Site {
    Pipe,
    Merge,
}

/// Spawn a producer thread that runs `factory`'s generator into `queue`
/// in chunks of `batch`, then calls `on_exit` with the queue and the
/// contained fault, if any — `None` when the generator failed normally or
/// the consumer hung up (a `put_all` was refused). Faults are labelled
/// `label`.
pub(crate) fn spawn_producer(
    queue: BlockingQueue<Value>,
    factory: Factory,
    batch: usize,
    label: Arc<str>,
    site: Site,
    on_exit: impl FnOnce(&BlockingQueue<Value>, Option<Fault>) + Send + 'static,
) {
    obs_on!(crate::stats::producers(site).spawned.inc(););
    let role = match site {
        Site::Pipe => "pipe-producer",
        Site::Merge => "fan-merge-producer",
    };
    // Through the parking_lot shim so the producer is a virtual thread
    // under --cfg schedtest (see DESIGN.md § "Schedule exploration").
    parking_lot::thread::Builder::new()
        .name(format!("{role}:{label}"))
        .spawn(move || {
            obs_on!(let started = std::time::Instant::now(););
            obs_on!(let forwarded = std::cell::Cell::new(0u64););
            // One `put_all` per chunk; `false` means the consumer hung up.
            let flush = |chunk: &mut Vec<Value>| {
                if chunk.is_empty() {
                    return true;
                }
                obs_on!(let n = chunk.len(););
                let sent = queue.put_all(std::mem::take(chunk)).is_ok();
                obs_on!(if sent {
                    forwarded.set(forwarded.get() + n as u64);
                    crate::stats::producers(site).items.add(n as u64);
                    crate::stats::producers(site).flushes.inc();
                });
                sent
            };
            let mut chunk = Vec::with_capacity(batch);
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut g = factory();
                loop {
                    faultpoint!(match site {
                        Site::Pipe => "pipes.producer.resume",
                        Site::Merge => "pipes.merge.resume",
                    });
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
            let mut fault = run.err().map(|p| Fault::from_panic(&*label, &*p));
            // Every exit path gets here: flush the clean prefix.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| flush(&mut chunk))) {
                fault.get_or_insert_with(|| Fault::from_panic(&*label, &*p));
            }
            obs_on!({
                let stats = crate::stats::producers(site);
                stats.per_producer.record(forwarded.get());
                if let Some(wall) = &stats.wall {
                    wall.observe(started.elapsed());
                }
            });
            on_exit(&queue, fault);
        })
        .expect("failed to spawn producer");
}
