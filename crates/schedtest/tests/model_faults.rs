//! Fault-propagation model tests: deterministic fault injection under the
//! virtual scheduler. Compiled only under `RUSTFLAGS="--cfg schedtest"`.
//!
//! Each test arms a [`faultinj`] scenario at the top of the explored body
//! — `scenario()` replaces the registry and resets hit counters, so every
//! explored schedule sees the identical fault placement. The armed sites
//! are hit by a *single* vthread per test (pruning stays sound: hidden
//! hit-counter state never couples two threads' ops). The invariant
//! checked throughout is the fault-accounting lattice of DESIGN.md
//! § "Fault propagation and injection": over every interleaving, every
//! item is delivered exactly once, refunded, or attributed to a reported
//! [`Fault`] — never lost, never duplicated, and a panicking stage never
//! masquerades as clean end-of-stream.
#![cfg(schedtest)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use blockingq::{BlockingQueue, CloseCause, Fault};
use gde::comb::values;
use gde::{Gen, Step, Value};
use pipes::{FaultPolicy, Pipe};
use schedtest::{check, thread, Config};

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

/// Producer panic under the default `Propagate` policy: over every
/// interleaving the consumer sees the clean prefix, then a propagation
/// panic — never a clean end-of-stream — and the pipe records the fault
/// with the injection site in its message.
#[test]
fn injected_producer_panic_propagates_not_clean_eos() {
    let report = check("faults_propagate", &Config::default(), || {
        // Hit #1 precedes value 1; the panic lands before value 2.
        faultinj::scenario("pipes.producer.resume:panic@2");
        let mut p = Pipe::batched(ints(3), 1, 1);
        match p.resume() {
            Step::Suspend(v) => assert_eq!(v.as_int(), Some(1)),
            Step::Fail => panic!("clean prefix lost"),
        }
        let boom = catch_unwind(AssertUnwindSafe(|| p.resume()));
        assert!(boom.is_err(), "fault must propagate, not end cleanly");
        let fault = p.fault().expect("fault recorded");
        assert!(
            fault.message().contains("pipes.producer.resume"),
            "fault names the injection site: {fault}"
        );
        // A caught propagation is sticky: the pipe stays failed.
        assert_eq!(p.resume(), Step::Fail);
        faultinj::disarm_all();
    });
    assert!(report.complete, "DFS must drain: {report:?}");
    assert!(report.explored_schedules > 1, "{report:?}");
}

/// `Retry` replays the stream bitwise after an injected producer panic,
/// over every interleaving of the dying producer, its replacement, and
/// the consumer; the virtual clock is charged for the backoff.
#[test]
fn injected_panic_retry_replays_bitwise_and_charges_backoff() {
    let cfg = Config {
        preemption_bound: Some(2),
        ..Config::default()
    };
    let report = check("faults_retry_replay", &cfg, || {
        faultinj::scenario("pipes.producer.resume:panic@2");
        let backoff = Duration::from_millis(1);
        let mut p =
            Pipe::batched(ints(3), 1, 1).with_policy(FaultPolicy::Retry { limit: 1, backoff });
        assert_eq!(drain(&mut p), vec![1, 2, 3], "bitwise replay");
        assert_eq!(p.retries(), 1, "exactly one respawn");
        let fault = p.fault().expect("retried fault stays inspectable");
        assert!(
            fault.message().contains("pipes.producer.resume"),
            "fault names the injection site: {fault}"
        );
        assert!(
            schedtest::time::now() >= backoff,
            "retry backoff must run on the virtual clock"
        );
        faultinj::disarm_all();
    });
    assert!(report.explored_schedules < 100_000, "{report:?}");
    assert!(report.failure.is_none(), "{report:?}");
}

/// `close_with(Failed)` against a mid-flight `put_all`: conservation
/// (taken ++ refunded == sent) holds over every interleaving, and the
/// cause read by the drained consumer is exactly the injected fault —
/// first close wins, the producer's implicit path never overwrites it.
#[test]
fn close_with_failed_conserves_items_and_keeps_cause() {
    let report = check("faults_close_with", &Config::default(), || {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(1);
        let sent = vec![1i64, 2, 3];

        let qp = q.clone();
        let to_send = sent.clone();
        let producer = thread::spawn(move || match qp.put_all(to_send) {
            Ok(()) => Vec::new(),
            Err(blockingq::PutError(rest)) => rest,
        });

        let fault = Fault::from_panic("model-close", &"injected close");
        q.close_with(CloseCause::Failed(fault));

        let taken: Vec<i64> = q.iter().collect();
        // Read after end of stream: closed and drained stays that way.
        let cause = q.close_cause().expect("drained means closed");
        let refunded = producer.join().unwrap();

        let mut reassembled = taken.clone();
        reassembled.extend(refunded.iter().copied());
        assert_eq!(
            reassembled, sent,
            "taken {taken:?} ++ refunded {refunded:?} must equal sent"
        );
        let fault = cause.fault().expect("cause must stay Failed");
        assert_eq!(fault.stage(), "model-close");
    });
    assert!(report.complete, "{report:?}");
    assert!(report.explored_schedules > 1, "{report:?}");
}

/// An injected panic in a fire-and-forget pool job is contained: the
/// worker survives, later jobs still run, and the containment counter
/// attributes exactly the injected fault.
#[test]
fn injected_worker_panic_is_contained_and_counted() {
    let report = check("faults_exec_contained", &Config::default(), || {
        faultinj::scenario("exec.worker.job:panic@1");
        let pool = exec::ThreadPool::new(1);
        let victim_ran = BlockingQueue::bounded(1);
        let v2 = victim_ran.clone();
        // Hit #1 fires before the job body: this job is the casualty.
        pool.execute(move || v2.put(true).unwrap());
        let done = BlockingQueue::bounded(1);
        let d2 = done.clone();
        pool.execute(move || d2.put(42i64).unwrap());
        assert_eq!(done.take(), Some(42), "the worker survived the panic");
        assert_eq!(pool.contained_panics(), 1, "exactly one containment");
        assert!(
            victim_ran.is_empty(),
            "the injected panic preempted the job"
        );
        pool.shutdown();
        faultinj::disarm_all();
    });
    assert!(report.complete, "{report:?}");
    assert!(report.explored_schedules > 1, "{report:?}");
}
