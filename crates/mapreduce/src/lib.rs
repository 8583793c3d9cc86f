//! Higher-order concurrency abstractions built from concurrent generators.
//!
//! Fig. 4 of the paper builds map-reduce *as a library* on top of the
//! calculus: `chunk` partitions a source generator into fixed-size lists,
//! and `mapReduce` spawns, for each chunk, a threaded task that maps a
//! function over the chunk's elements and reduces the results, finally
//! yielding each task's reduction in order:
//!
//! ```text
//! def mapReduce(f,s,r,i) {
//!     var c, t, tasks = [];
//!     every (c = chunk(<>s)) do {
//!         t = |> { var x=i; every (x=r(x, f(!c) )); x };
//!         ((List) tasks)::add(t);
//!     };
//!     suspend ! (! tasks);
//! }
//! ```
//!
//! This crate provides that construction ([`DataParallel::map_reduce`]),
//! the map-only variant that "splits out the reduction and effects
//! serialization" ([`DataParallel::map_flat`]) and the [`chunks`]
//! combinator. Fig. 2's fixed-code model (`f(!|>s)`), which it contrasts
//! with the fixed-data model, needs no builder: it is one `pipes::Pipe`
//! per stage (`Pipe::staged` runs a stage plan on the producer thread).

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

mod chunk;
mod data_parallel;
#[cfg(feature = "obs")]
mod stats;

pub use chunk::{chunks, Chunks};
pub use data_parallel::DataParallel;
