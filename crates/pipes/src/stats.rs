//! Instrumentation points for pipes (`obs` feature only).
//!
//! Shared process-wide metric families in the global [`obs::Registry`];
//! see `blockingq::stats` for the design rationale.

use std::sync::{Arc, OnceLock};

/// What the producer loop books, under `pipes.pipe.*`.
pub(crate) struct ProducerStats {
    /// Producers spawned: one per run, so construction plus restarts,
    /// refreshes and `Retry` respawns.
    pub spawned: Arc<obs::Counter>,
    /// Values forwarded across the thread boundary (successful puts).
    pub items: Arc<obs::Counter>,
    /// Chunk flushes, one `put_all` transaction each; `items / flushes`
    /// is the realized transport amortization.
    pub flushes: Arc<obs::Counter>,
    /// Items forwarded per finished producer.
    pub per_producer: Arc<obs::Histogram>,
    /// Wall-clock lifetime of each producer, spawn to exit — items / time
    /// is per-pipe throughput.
    pub wall: Arc<obs::Timer>,
}

pub(crate) fn producers() -> &'static ProducerStats {
    static STATS: OnceLock<ProducerStats> = OnceLock::new();
    STATS.get_or_init(|| ProducerStats {
        spawned: obs::counter("pipes.pipe.spawned"),
        items: obs::counter("pipes.pipe.items"),
        flushes: obs::counter("pipes.pipe.batch_flushes"),
        per_producer: obs::histogram("pipes.pipe.items_per_producer"),
        wall: obs::timer("pipes.pipe.producer_wall"),
    })
}

/// Fault-policy metrics for [`crate::Pipe`].
pub(crate) struct PipeStats {
    /// Producer faults surfaced to the consumer (`Propagate`, including
    /// exhausted retries).
    pub faults_propagated: Arc<obs::Counter>,
    /// Producer respawns consumed by `FaultPolicy::Retry`.
    pub faults_retried: Arc<obs::Counter>,
}

pub(crate) fn pipe() -> &'static PipeStats {
    static STATS: OnceLock<PipeStats> = OnceLock::new();
    STATS.get_or_init(|| PipeStats {
        faults_propagated: obs::counter("pipes.faults.propagated"),
        faults_retried: obs::counter("pipes.faults.retries"),
    })
}
