//! Edge-case tests for `pipes::fan::{merge, round_robin}` (ISSUE 1
//! satellite): zero sources, single exhausted source, and capacity-1
//! throttling including mid-stream abandonment.

use gde::comb::{fail, to_range};
use gde::{BoxGen, Gen, GenExt, Step};
use pipes::{merge, round_robin};

fn range_src(lo: i64, hi: i64) -> Box<dyn Fn() -> BoxGen + Send + Sync> {
    Box::new(move || Box::new(to_range(lo, hi, 1)) as BoxGen)
}

fn drain_ints(g: &mut (impl Gen + ?Sized)) -> Vec<i64> {
    g.collect_values()
        .iter()
        .map(|v| v.as_int().expect("integer stream"))
        .collect()
}

// --- zero sources -----------------------------------------------------------

#[test]
fn merge_zero_sources_fails_and_stays_failed() {
    let mut m = merge(vec![], 1);
    // Failure must be stable under repeated resumption, not a one-shot.
    for _ in 0..3 {
        assert_eq!(m.resume(), Step::Fail);
    }
}

#[test]
fn round_robin_zero_sources_fails_and_stays_failed() {
    let mut rr = round_robin(vec![]);
    for _ in 0..3 {
        assert_eq!(rr.resume(), Step::Fail);
    }
}

#[test]
fn merge_zero_sources_restart_is_harmless() {
    let mut m = merge(vec![], 1);
    assert_eq!(m.resume(), Step::Fail);
    m.restart();
    assert_eq!(m.resume(), Step::Fail);
}

// --- single exhausted source ------------------------------------------------

#[test]
fn merge_single_exhausted_source_terminates() {
    let mut m = merge(vec![Box::new(|| Box::new(fail()) as BoxGen)], 1);
    assert_eq!(m.resume(), Step::Fail);
    assert_eq!(m.resume(), Step::Fail);
}

#[test]
fn merge_all_sources_exhausted_terminates() {
    let mut m = merge(
        vec![
            Box::new(|| Box::new(fail()) as BoxGen),
            Box::new(|| Box::new(fail()) as BoxGen),
            Box::new(|| Box::new(fail()) as BoxGen),
        ],
        1,
    );
    assert_eq!(drain_ints(&mut m), Vec::<i64>::new());
}

#[test]
fn round_robin_single_exhausted_source_terminates() {
    let mut rr = round_robin(vec![Box::new(fail()) as BoxGen]);
    assert_eq!(rr.resume(), Step::Fail);
    assert_eq!(rr.resume(), Step::Fail);
}

#[test]
fn round_robin_exhausted_source_between_live_ones() {
    // The dead middle source must be skipped without disturbing the
    // deterministic interleave of its neighbours.
    let mut rr = round_robin(vec![
        Box::new(to_range(1, 2, 1)) as BoxGen,
        Box::new(fail()) as BoxGen,
        Box::new(to_range(10, 20, 10)) as BoxGen,
    ]);
    assert_eq!(drain_ints(&mut rr), vec![1, 10, 2, 20]);
}

#[test]
fn round_robin_single_exhausted_source_restarts_fresh() {
    // A one-shot source fails immediately; restart() revives it.
    let mut rr = round_robin(vec![Box::new(to_range(5, 5, 1)) as BoxGen]);
    assert_eq!(drain_ints(&mut rr), vec![5]);
    assert_eq!(rr.resume(), Step::Fail);
    rr.restart();
    assert_eq!(drain_ints(&mut rr), vec![5]);
}

// --- capacity-1 throttling --------------------------------------------------

#[test]
fn merge_capacity_1_conserves_all_values() {
    // A 1-slot queue forces every producer to hand values over one at a
    // time; nothing may be lost or duplicated under that throttling.
    let mut m = merge(
        vec![range_src(1, 50), range_src(51, 100), range_src(101, 150)],
        1,
    );
    let mut got = drain_ints(&mut m);
    got.sort_unstable();
    assert_eq!(got, (1..=150).collect::<Vec<_>>());
}

#[test]
fn merge_capacity_zero_is_clamped_to_one() {
    // Capacity 0 would deadlock a put-before-take queue; merge clamps it.
    let mut m = merge(vec![range_src(1, 10)], 0);
    let mut got = drain_ints(&mut m);
    got.sort_unstable();
    assert_eq!(got, (1..=10).collect::<Vec<_>>());
}

#[test]
fn merge_capacity_1_slow_consumer_still_conserves() {
    let mut m = merge(vec![range_src(1, 12), range_src(13, 24)], 1);
    let mut got = Vec::new();
    // Yield between takes so the producers get scheduled and park on the
    // full queue repeatedly — schedule pressure, not wall-clock delay.
    while let Step::Suspend(v) = m.resume() {
        got.push(v.as_int().expect("int"));
        for _ in 0..4 {
            std::thread::yield_now();
        }
    }
    got.sort_unstable();
    assert_eq!(got, (1..=24).collect::<Vec<_>>());
}

#[test]
fn merge_capacity_1_abandoned_midstream_shuts_down_producers() {
    // Take a couple of values from a long stream, then drop the merge:
    // producers blocked in put() must observe the closed queue and exit
    // rather than deadlock. The test finishing (under the harness
    // timeout) is the assertion — drop closes the queue, which fails the
    // producers' pending puts. The schedtest model suite proves the
    // close-under-fire wakeup exhaustively; no wall-clock grace needed.
    let mut m = merge(vec![range_src(1, 100_000), range_src(1, 100_000)], 1);
    let mut seen = 0;
    while seen < 3 {
        match m.resume() {
            Step::Suspend(_) => seen += 1,
            Step::Fail => panic!("stream ended early"),
        }
    }
    drop(m);
}

// --- a source factory that panics ---------------------------------------------

/// A source whose factory itself panics (before any generator exists).
fn panicking_factory() -> Box<dyn Fn() -> BoxGen + Send + Sync> {
    Box::new(|| panic!("factory blew up"))
}

#[test]
fn merge_degrade_contains_a_panicking_factory() {
    // The factory runs on the producer thread, inside its catch_unwind:
    // the fan-in drops that source and merges the survivor in full.
    let mut m = merge(vec![range_src(1, 10), panicking_factory()], 4)
        .with_policy(pipes::FanPolicy::Degrade);
    let mut got = drain_ints(&mut m);
    got.sort_unstable();
    assert_eq!(got, (1..=10).collect::<Vec<_>>());
    assert_eq!(m.degraded_sources(), 1);
    assert!(m.fault().is_none(), "degrade never cancels the fan-in");
}

#[test]
fn merge_fail_fast_reports_a_panicking_factory_and_cancels_siblings() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;
    // Source 0 is endless: only the fan-in's Failed close can stop it.
    let spawns = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&spawns);
    let endless: Box<dyn Fn() -> BoxGen + Send + Sync> = Box::new(move || {
        counted.fetch_add(1, SeqCst);
        Box::new(to_range(1, i64::MAX, 1))
    });
    let mut m = merge(vec![endless, panicking_factory()], 4);
    let err = catch_unwind(AssertUnwindSafe(|| m.collect_values())).unwrap_err();
    let msg = err.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("merge failed"), "{msg}");
    assert!(msg.contains("merge-source-1"), "names the source: {msg}");
    let fault = m.fault().expect("fault recorded");
    assert_eq!(fault.stage(), "merge-source-1");
    assert!(fault.message().contains("factory blew up"));
    // The failure is sticky and respawns nothing.
    assert_eq!(m.resume(), Step::Fail);
    assert_eq!(spawns.load(SeqCst), 1);
}

#[test]
fn merge_capacity_1_restart_midstream_replays() {
    // restart() closes the old queue (unblocking throttled producers)
    // and spawns a fresh run on next resume.
    let mut m = merge(vec![range_src(1, 30)], 1);
    for _ in 0..5 {
        assert!(matches!(m.resume(), Step::Suspend(_)));
    }
    m.restart();
    let mut got = drain_ints(&mut m);
    got.sort_unstable();
    assert_eq!(got, (1..=30).collect::<Vec<_>>());
}
