//! Instrumentation points for the blocking channels (`obs` feature only).
//!
//! All queue instances share one family of process-wide metrics in the
//! global [`obs::Registry`] — the snapshot answers "what did the runtime's
//! queues do", which is what the Fig. 6 evaluation needs, at the cost of a
//! single relaxed atomic op per event. Call sites are wrapped in the
//! crate-local `obs_on!` macro, so none of this exists without the
//! feature.

use std::sync::{Arc, OnceLock};

/// Metrics for [`crate::BlockingQueue`].
pub(crate) struct QueueStats {
    /// Successful `put`s (elements enqueued).
    pub puts: Arc<obs::Counter>,
    /// Successful `take`s (elements dequeued).
    pub takes: Arc<obs::Counter>,
    /// `put` wait episodes: a producer found the queue full and blocked.
    pub blocked_puts: Arc<obs::Counter>,
    /// `take` wait episodes: a consumer found the queue empty and blocked.
    pub blocked_takes: Arc<obs::Counter>,
    /// `close` calls.
    pub closes: Arc<obs::Counter>,
    /// Closes that recorded a `Failed(Fault)` cause (first close only —
    /// later closes of an already-closed queue are no-ops).
    pub close_failed: Arc<obs::Counter>,
    /// High-water buffered depth across all queues.
    pub depth_highwater: Arc<obs::Gauge>,
    /// Batch-put transactions (`put_all` calls moving ≥ 1
    /// element under one lock acquisition). Items still count in `puts`.
    pub batch_puts: Arc<obs::Counter>,
    /// Batch-take transactions (`take_batch` / `drain_into` moving ≥ 1
    /// element). Items still count in `takes`.
    pub batch_takes: Arc<obs::Counter>,
    /// Elements moved per batch transaction (both directions) — the
    /// amortization factor. `p50 ≈ batch size` means the chunked
    /// transport is actually filling its chunks.
    pub batch_fill: Arc<obs::Histogram>,
}

pub(crate) fn queue() -> &'static QueueStats {
    static STATS: OnceLock<QueueStats> = OnceLock::new();
    STATS.get_or_init(|| QueueStats {
        puts: obs::counter("blockingq.queue.puts"),
        takes: obs::counter("blockingq.queue.takes"),
        blocked_puts: obs::counter("blockingq.queue.blocked_puts"),
        blocked_takes: obs::counter("blockingq.queue.blocked_takes"),
        closes: obs::counter("blockingq.queue.closes"),
        close_failed: obs::counter("blockingq.close.failed"),
        depth_highwater: obs::gauge("blockingq.queue.depth_highwater"),
        batch_puts: obs::counter("blockingq.queue.batch_puts"),
        batch_takes: obs::counter("blockingq.queue.batch_takes"),
        batch_fill: obs::histogram("blockingq.queue.batch_fill"),
    })
}
