//! Timing-free synchronization helpers for concurrency tests.
//!
//! Stress and integration tests used to approximate "wait until the peer
//! thread is parked" with `thread::sleep`, which is both slow (the sleep
//! always pays its full duration) and flaky (a loaded machine can stretch
//! a 20 ms window past any bound). These helpers replace that pattern
//! with *conditions*: poll an observable predicate
//! ([`BlockingQueue::blocked_producers`](crate::BlockingQueue::blocked_producers),
//! or a queue length) and fail loudly if it never comes true.
//!
//! Under `--cfg schedtest` none of this is needed — the virtual scheduler
//! *proves* wake-ups instead of waiting for them — so the model suites in
//! `crates/schedtest/tests/` don't use this module. It exists for the
//! real-thread tier-1 stress tests.

use std::time::{Duration, Instant};

/// How long [`wait_until`] polls before declaring the condition
/// unreachable. Generous on purpose: it is only ever paid on genuine
/// failure (or a pathologically loaded machine), and a late loud panic
/// beats a silently weakened test.
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
}
