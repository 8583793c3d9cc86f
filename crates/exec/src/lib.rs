//! Task execution substrate: a fixed thread pool and task handles.
//!
//! The paper's pipes "leverage Java's facilities for thread pool management
//! and support for multi-core execution" (Sec. V.D). This crate is that
//! facility for the Rust reproduction: a small fixed-size pool fed from a
//! shared [`blockingq::BlockingQueue`] of jobs, plus a [`Task`] handle that
//! waits for the job's result on a `bounded(1)` queue of its own.

#![forbid(unsafe_code)]

/// Expands its body only when the `obs` feature is on (see the identical
/// shim in `blockingq`): instrumentation sites vanish entirely when
/// observability is disabled.
#[cfg(feature = "obs")]
macro_rules! obs_on {
    ($($body:tt)*) => { $($body)* };
}
#[cfg(not(feature = "obs"))]
macro_rules! obs_on {
    ($($body:tt)*) => {};
}

/// A deterministic fault-injection site (see the `faultinj` crate): a
/// no-op unless this crate's `faultinj` feature is on *and* the site is
/// armed. Armed sites panic; the worker's containment turns that into a
/// counted contained panic instead of a dead worker.
#[cfg(feature = "faultinj")]
macro_rules! faultpoint {
    ($site:expr) => {
        faultinj::hit($site)
    };
}
#[cfg(not(feature = "faultinj"))]
macro_rules! faultpoint {
    ($site:expr) => {};
}

mod pool;
#[cfg(feature = "obs")]
mod stats;

pub use pool::{global, global_threads, SubmitError, Task, ThreadPool};

/// Force-create this crate's metric family so snapshots carry explicit
/// zeros before any pool runs. No-op without the `obs` feature.
pub fn obs_register() {
    #[cfg(feature = "obs")]
    stats::pool();
}
