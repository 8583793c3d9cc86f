//! Exhaustive model tests for the pipe transport (`pipes`) under the
//! virtual scheduler. Compiled only under `RUSTFLAGS="--cfg schedtest"`.
//!
//! These are the model-checked versions of the highest-value stress
//! scenarios: close-under-fire (the consumer slams the queue shut while
//! the producer is mid-flight) and restart replay (the paper's `^t`
//! refresh semantics: a restarted pipe re-evaluates the expression from
//! scratch while the abandoned producer dies quietly on its next put).
#![cfg(schedtest)]

use gde::comb::values;
use gde::{Gen, Step, Value};
use pipes::Pipe;
use schedtest::{check, Config};

fn ints(n: i64) -> impl Fn() -> gde::BoxGen + Send + Sync + 'static {
    move || Box::new(values((1..=n).map(Value::Int).collect()))
}

fn drain(g: &mut dyn Gen) -> Vec<i64> {
    let mut got = Vec::new();
    while let Step::Suspend(v) = g.resume() {
        got.push(v.as_int().expect("int stream"));
    }
    got
}

/// Close-under-fire: the consumer takes one value, closes the queue out
/// from under the producer, then drains. Over every interleaving the
/// observed values must be a clean prefix of the stream — no loss before
/// the close point, no duplication, no hang (a deadlock would fail the
/// exploration), and the producer thread always terminates.
#[test]
fn pipe_close_under_fire_yields_clean_prefix() {
    let report = check("pipes_close_under_fire", &Config::default(), || {
        let mut p = Pipe::batched(ints(3), 1, 1);
        let first = match p.resume() {
            Step::Suspend(v) => v.as_int().unwrap(),
            Step::Fail => panic!("stream of 3 failed immediately"),
        };
        assert_eq!(first, 1, "FIFO: first value is 1");
        p.queue().close();
        let rest = drain(&mut p);
        let mut seen = vec![first];
        seen.extend(rest);
        // Clean prefix: 1, 1..2, or 1..3 — contiguous from the start.
        assert!(
            seen.len() <= 3 && seen == (1..=seen.len() as i64).collect::<Vec<_>>(),
            "not a clean prefix: {seen:?}"
        );
    });
    assert!(report.complete, "DFS must drain: {report:?}");
    assert!(report.explored_schedules > 1, "{report:?}");
}

/// Restart replay: after a mid-stream restart the pipe re-produces the
/// entire stream from scratch, over interleavings of the abandoned
/// producer, the fresh producer, and the consumer. Three threads on one
/// queue defeat sleep-set pruning, so this runs preemption-bounded.
#[test]
fn pipe_restart_replays_from_scratch() {
    let cfg = Config {
        preemption_bound: Some(2),
        ..Config::default()
    };
    let report = check("pipes_restart_replay", &cfg, || {
        let mut p = Pipe::batched(ints(3), 1, 1);
        match p.resume() {
            Step::Suspend(v) => assert_eq!(v.as_int().unwrap(), 1),
            Step::Fail => panic!("stream of 3 failed immediately"),
        }
        p.restart();
        let replayed = drain(&mut p);
        assert_eq!(replayed, vec![1, 2, 3], "restart re-evaluates from scratch");
    });
    assert!(report.explored_schedules < 100_000, "{report:?}");
    assert!(report.failure.is_none(), "{report:?}");
}

/// Batched transport conservation: with capacity 2 and batch 2 the
/// producer crosses the queue in chunks; the consumer still sees the
/// exact stream in order. Five values force a trailing *partial* chunk
/// (5 = 2 + 2 + 1), covering the flush-after-generator-failure path.
#[test]
fn pipe_batched_transport_preserves_stream() {
    let report = check("pipes_batched_transport", &Config::default(), || {
        let mut p = Pipe::batched(ints(5), 2, 2);
        assert_eq!(drain(&mut p), vec![1, 2, 3, 4, 5]);
    });
    assert!(report.complete, "{report:?}");
}

/// The singleton pipe forms a future ("a singleton piped iterator that
/// produces one result forms a future", Sec. III.B): over a one-slot
/// queue its one result arrives exactly once under every interleaving of
/// producer and reader, and the stream then ends cleanly.
#[test]
fn singleton_pipe_delivers_once() {
    let report = check("pipes_singleton", &Config::default(), || {
        let mut p = Pipe::with_capacity(ints(1), 1);
        assert_eq!(drain(&mut p), vec![1], "one result, exactly once");
        assert!(p.fault().is_none(), "a clean end, not a fault");
        assert_eq!(p.queue().close_cause(), Some(pipes::CloseCause::Finished));
    });
    assert!(report.complete, "{report:?}");
}
