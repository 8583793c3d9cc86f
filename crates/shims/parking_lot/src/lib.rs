//! Hermetic in-tree shim for [`parking_lot`](https://docs.rs/parking_lot)
//! — and the single swap point for schedule exploration.
//!
//! Two build modes (see DESIGN.md § "Schedule exploration"):
//!
//! * **Normal** (tier-1): the `std::sync`-backed reimplementation in
//!   [`std_impl`] — parking_lot's panic-free guard API over real OS
//!   locks. This is what production code gets.
//! * **Model-checked** (`RUSTFLAGS="--cfg schedtest"`): every type is
//!   re-exported from the `schedtest` crate's virtual scheduler instead,
//!   so `blockingq`, `pipes`, and `exec` run *unmodified* under the
//!   exhaustive interleaving explorer. Outside an active exploration the
//!   virtual types degrade to real locks, so mixed binaries stay correct.
//!
//! The [`thread`] and [`sync`] modules extend the same swap to thread
//! spawning/joining and the atomics, which the runtime crates route
//! through here (instead of `std::thread`/`std::sync::atomic`) for the
//! same reason.

#![forbid(unsafe_code)]

#[cfg(not(schedtest))]
mod std_impl;

#[cfg(not(schedtest))]
pub use std_impl::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(schedtest)]
pub use schedtest::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

/// Thread spawning/joining, virtualized under `--cfg schedtest`.
///
/// The subset the runtime crates use: `spawn`, `Builder::new().name(..)
/// .spawn(..)`, `JoinHandle::join`, `Result`, `yield_now`, `sleep`.
pub mod thread {
    #[cfg(not(schedtest))]
    pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle, Result};

    #[cfg(schedtest)]
    pub use schedtest::thread::{sleep, spawn, yield_now, Builder, JoinHandle, Result};
}

/// `Arc` and the atomics, virtualized under `--cfg schedtest`.
pub mod sync {
    pub use std::sync::Arc;

    /// Atomic integer types whose every access is a scheduling point
    /// under the explorer.
    pub mod atomic {
        #[cfg(not(schedtest))]
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

        #[cfg(schedtest)]
        pub use schedtest::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }
}

// Keep the dependency edge unconditional: cargo cannot gate a dependency
// on a custom --cfg, and schedtest is std-only, so the normal build just
// carries an unused (tiny) rlib.
#[cfg(schedtest)]
extern crate schedtest;
