//! Timing-free synchronization helpers for concurrency tests.
//!
//! Stress and integration tests used to approximate "wait until the peer
//! thread is parked" with `thread::sleep`, which is both slow (the sleep
//! always pays its full duration) and flaky (a loaded machine can stretch
//! a 20 ms window past any bound). These helpers replace that pattern
//! with *conditions*: poll an observable predicate
//! ([`BlockingQueue::blocked_producers`](crate::BlockingQueue::blocked_producers),
//! a queue length, an epoch count) and fail loudly if it never comes true.
//!
//! Under `--cfg schedtest` none of this is needed — the virtual scheduler
//! *proves* wake-ups instead of waiting for them — so the model suites in
//! `crates/schedtest/tests/` don't use this module. It exists for the
//! real-thread tier-1 stress tests.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long [`wait_until`] and [`Epoch::await_at_least`] poll before
/// declaring the condition unreachable. Generous on purpose: it is only
/// ever paid on genuine failure (or a pathologically loaded machine), and
/// a late loud panic beats a silently weakened test.
pub const WATCHDOG: Duration = Duration::from_secs(30);

/// Spin (with `yield_now`) until `cond` returns true; panic with `what`
/// after [`WATCHDOG`].
///
/// The condition must be *monotone for the duration of the wait* (once
/// true it stays true until the caller acts) for the return to be
/// meaningful — waiter counts while the test holds the only wake-up
/// trigger, queue lengths while the test holds the only consumer, etc.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + WATCHDOG;
    loop {
        if cond() {
            return;
        }
        if Instant::now() >= deadline {
            panic!("testkit::wait_until timed out after {WATCHDOG:?}: {what}");
        }
        std::thread::yield_now();
    }
}

/// A monotone arrival counter: threads [`arrive`](Epoch::arrive), other
/// threads [`await_at_least`](Epoch::await_at_least) a count. Unlike a
/// `Barrier` the waiter doesn't have to participate, and unlike a sleep
/// the wait ends the instant the count is reached.
#[derive(Clone, Default)]
pub struct Epoch {
    inner: Arc<EpochInner>,
}

#[derive(Default)]
struct EpochInner {
    count: Mutex<u64>,
    changed: Condvar,
}

impl Epoch {
    /// A new epoch counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one arrival and return the new count.
    pub fn arrive(&self) -> u64 {
        let mut c = self.inner.count.lock();
        *c += 1;
        let now = *c;
        drop(c);
        self.inner.changed.notify_all();
        now
    }

    /// Current arrival count.
    pub fn count(&self) -> u64 {
        *self.inner.count.lock()
    }

    /// Block until at least `n` arrivals have been recorded; panics after
    /// [`WATCHDOG`].
    pub fn await_at_least(&self, n: u64) {
        let deadline = Instant::now() + WATCHDOG;
        let mut c = self.inner.count.lock();
        while *c < n {
            if Instant::now() >= deadline {
                panic!(
                    "testkit::Epoch::await_at_least({n}) timed out after {WATCHDOG:?} \
                     (reached {})",
                    *c
                );
            }
            self.inner
                .changed
                .wait_for(&mut c, Duration::from_millis(100));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_until_returns_once_true() {
        let mut calls = 0;
        wait_until("three polls", || {
            calls += 1;
            calls >= 3
        });
        assert_eq!(calls, 3);
    }

    #[test]
    #[should_panic(expected = "testkit::wait_until timed out")]
    #[ignore = "pays the full watchdog; run explicitly"]
    fn wait_until_watchdog_fires() {
        wait_until("never", || false);
    }

    #[test]
    fn epoch_arrivals_unblock_waiter() {
        let e = Epoch::new();
        let e2 = e.clone();
        let h = std::thread::spawn(move || {
            e2.await_at_least(3);
            e2.count()
        });
        for _ in 0..3 {
            e.arrive();
        }
        assert!(h.join().unwrap() >= 3);
    }
}
