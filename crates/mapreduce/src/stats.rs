//! Instrumentation points for the map-reduce layer (`obs` feature only).
//!
//! Shared process-wide metric family in the global [`obs::Registry`];
//! see `blockingq::stats` for the design rationale.

use std::sync::{Arc, OnceLock};

/// Metrics for [`crate::DataParallel`].
pub(crate) struct MapReduceStats {
    /// Chunks submitted to the pool by map-reduce launches.
    pub chunks: Arc<obs::Counter>,
    /// Time spent draining + chunking the source and submitting tasks
    /// (the serial prefix of every map-reduce run).
    pub launch: Arc<obs::Timer>,
    /// Per-chunk map(+reduce) work on pool workers.
    pub chunk_run: Arc<obs::Timer>,
}

pub(crate) fn mr() -> &'static MapReduceStats {
    static STATS: OnceLock<MapReduceStats> = OnceLock::new();
    STATS.get_or_init(|| MapReduceStats {
        chunks: obs::counter("mapreduce.chunks"),
        launch: obs::timer("mapreduce.launch"),
        chunk_run: obs::timer("mapreduce.chunk_run"),
    })
}
