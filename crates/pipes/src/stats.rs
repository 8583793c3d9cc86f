//! Instrumentation points for pipes and fan-ins (`obs` feature only).
//!
//! Shared process-wide metric families in the global [`obs::Registry`];
//! see `blockingq::stats` for the design rationale. The per-producer
//! histograms are what make *merge fairness* visible: if one fan-in
//! source starves, `pipes.fan.items_per_source` shows a wide min/max
//! spread.

use crate::producer::Site;
use std::sync::{Arc, OnceLock};

/// What the shared producer loop books, one family per [`Site`]: pipe
/// producers under `pipes.pipe.*`, merge sources under `pipes.fan.*`.
pub(crate) struct ProducerStats {
    /// Producers spawned (for pipes, including restarts and refreshes).
    pub spawned: Arc<obs::Counter>,
    /// Values forwarded across the thread boundary (successful puts).
    pub items: Arc<obs::Counter>,
    /// Chunk flushes, one `put_all` transaction each; `items / flushes`
    /// is the realized transport amortization (for merge, capped by
    /// [`crate::MERGE_BATCH_FAIRNESS_CAP`]).
    pub flushes: Arc<obs::Counter>,
    /// Items forwarded per finished producer (for merge, the fairness
    /// distribution).
    pub per_producer: Arc<obs::Histogram>,
    /// Wall-clock lifetime of each producer, spawn to exit — items / time
    /// is per-pipe throughput. Pipes only.
    pub wall: Option<Arc<obs::Timer>>,
}

pub(crate) fn producers(site: Site) -> &'static ProducerStats {
    static PIPE: OnceLock<ProducerStats> = OnceLock::new();
    static MERGE: OnceLock<ProducerStats> = OnceLock::new();
    match site {
        Site::Pipe => PIPE.get_or_init(|| ProducerStats {
            spawned: obs::counter("pipes.pipe.spawned"),
            items: obs::counter("pipes.pipe.items"),
            flushes: obs::counter("pipes.pipe.batch_flushes"),
            per_producer: obs::histogram("pipes.pipe.items_per_producer"),
            wall: Some(obs::timer("pipes.pipe.producer_wall")),
        }),
        Site::Merge => MERGE.get_or_init(|| ProducerStats {
            spawned: obs::counter("pipes.fan.merge_sources"),
            items: obs::counter("pipes.fan.merge_items"),
            flushes: obs::counter("pipes.fan.merge_batch_flushes"),
            per_producer: obs::histogram("pipes.fan.items_per_source"),
            wall: None,
        }),
    }
}

/// Fault-policy metrics for [`crate::Pipe`] (merge propagations count
/// here too).
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

/// Consumer-side metrics for [`crate::Merge`] / [`crate::RoundRobin`].
pub(crate) struct FanStats {
    /// Values yielded by round-robin fan-ins.
    pub rr_items: Arc<obs::Counter>,
    /// Round-robin visits to already-exhausted sources (skips).
    pub rr_skips: Arc<obs::Counter>,
    /// Merge sources dropped by `FanPolicy::Degrade` after a fault.
    pub degraded_sources: Arc<obs::Counter>,
}

pub(crate) fn fan() -> &'static FanStats {
    static STATS: OnceLock<FanStats> = OnceLock::new();
    STATS.get_or_init(|| FanStats {
        rr_items: obs::counter("pipes.fan.rr_items"),
        rr_skips: obs::counter("pipes.fan.rr_skips"),
        degraded_sources: obs::counter("pipes.faults.degraded_sources"),
    })
}
