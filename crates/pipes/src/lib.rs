//! Generator proxies ("pipes"): `|> e` from the paper's calculus (Fig. 1).
//!
//! "A pipe is simply a generator proxy for a co-expression that runs in a
//! separate thread and iterates until failure, and that uses a blocking
//! channel for the communication of results" (Sec. III.B):
//!
//! ```text
//! |>e → new Iterator() { next() { new Thread { run() {
//!    c=|<>e; while (!fail) { out.put(@c); }}}.start() }}
//! ```
//!
//! A [`Pipe`] spawns one producer thread per run, the first on creation;
//! the consuming side is an ordinary [`gde::Gen`], so pipes compose with
//! every other combinator — `x * !(|> factorial(!(|> sqrt(y))))` really is
//! a two-stage parallel pipeline. Values are
//! [deep-copied](gde::Value::deep_copy) as they enter the channel, so the
//! consumer can never alias the producer's structures (the isolation the
//! paper otherwise gets from environment shadowing).
//!
//! The output queue "is exposed as a public field to permit further
//! manipulation" — here via [`Pipe::queue`] — and "bounding the output queue
//! buffer size can also be used to throttle a threaded co-expression" — via
//! [`Pipe::with_capacity`].
//!
//! `|>e` is the crate's only concurrent construct: the paper builds
//! pipelining and map-reduce (Fig. 4) from it alone, and a fan-in over
//! several pipes is written the same way, `suspend ! (! tasks)`.

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
/// armed, in which case it panics and the panic takes the normal
/// containment path (producer `catch_unwind` → `Failed(Fault)` close).
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

mod pipe;
mod producer;
#[cfg(feature = "obs")]
mod stats;

pub use blockingq::{CloseCause, Fault};
pub use pipe::{drain, pipe, pipe_value, FaultPolicy, Pipe, DEFAULT_BATCH, DEFAULT_CAPACITY};

/// Force-create this crate's metric families (and the queue substrate's)
/// so snapshots carry explicit zeros before any pipe runs. No-op without
/// the `obs` feature.
pub fn obs_register() {
    #[cfg(feature = "obs")]
    {
        stats::producers();
        stats::pipe();
    }
    blockingq::obs_register();
}
