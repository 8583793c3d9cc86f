//! Blocking channels: the communication substrate for generator proxies.
//!
//! The paper (Sec. III.B) builds pipes — multithreaded generator proxies —
//! on *blocking queues*: "A blocking channel, or blocking queue, has put and
//! take operations that wait until the queue of results is not full or not
//! empty, respectively", and notes that "bounding the output queue buffer
//! size can also be used to throttle a threaded co-expression". This crate
//! provides that substrate:
//!
//! [`BlockingQueue`], a bounded (or unbounded) MPMC FIFO with blocking
//! `put`/`take`, their batch forms, and close semantics used to signal
//! generator failure across threads. It is the only blocking primitive.
//! A future needs no type of its own: "a singleton piped iterator that
//! produces one result forms a future" (Sec. III.B), which is a pipe over
//! a `bounded(1)` queue, and `exec`'s task handles wait on exactly that.

#![forbid(unsafe_code)]

/// Expands its body only when the `obs` feature is on, so instrumentation
/// call sites vanish from the compilation entirely (not even a no-op call)
/// when observability is disabled. Textual macro scoping makes this
/// visible in the modules declared below.
#[cfg(feature = "obs")]
macro_rules! obs_on {
    ($($body:tt)*) => { $($body)* };
}
#[cfg(not(feature = "obs"))]
macro_rules! obs_on {
    ($($body:tt)*) => {};
}

/// A deterministic fault-injection site (see the `faultinj` crate).
/// Compiles to nothing without the `faultinj` feature — the same
/// zero-cost pattern as `obs_on!` — so production builds carry no
/// injection code at all.
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

pub mod fault;
mod queue;
#[cfg(feature = "obs")]
mod stats;
pub mod testkit;

pub use fault::{CloseCause, Fault};
pub use queue::{BlockingQueue, PutError};

/// Force-register this crate's obs metrics so snapshots carry explicit
/// zeros (`blockingq.close.failed` in particular) even before any event
/// fires. No-op without the `obs` feature.
pub fn obs_register() {
    #[cfg(feature = "obs")]
    stats::queue();
}
