//! Exhaustive model tests for `blockingq` under the virtual scheduler.
//!
//! Compiled only under `RUSTFLAGS="--cfg schedtest"` (the parking_lot shim
//! then re-exports the virtual primitives, so `BlockingQueue` runs
//! unmodified inside the explorer); tier-1 builds see an empty file.
//!
//! The central invariant is the refund accounting the batched transport
//! leans on (DESIGN.md § "Batched pipe transport"): over *every*
//! interleaving, `taken ++ refunded == sent` — a value handed to `put_all`
//! is either delivered to a consumer exactly once or handed back in the
//! `PutError`, never both and never dropped, no matter where `close()`
//! lands relative to the partial fills.
#![cfg(schedtest)]

use blockingq::BlockingQueue;
use schedtest::sync::{Arc, Mutex};
use schedtest::{check, thread, Config};

/// put_all vs take vs close: the refund suffix plus the consumed prefix
/// reassemble the sent batch exactly, over all interleavings.
#[test]
fn put_all_refund_accounting_under_close() {
    let report = check("blockingq_put_all_refund", &Config::default(), || {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(1);
        let sent = vec![1i64, 2, 3];

        let qp = q.clone();
        let to_send = sent.clone();
        let producer = thread::spawn(move || match qp.put_all(to_send) {
            Ok(()) => Vec::new(),
            Err(blockingq::PutError(rest)) => rest,
        });

        let qc = q.clone();
        let closer = thread::spawn(move || qc.close());

        // Consumer: drain until end-of-stream (close() + empty).
        let mut taken = Vec::new();
        while let Some(v) = q.take() {
            taken.push(v);
        }

        let refunded = producer.join().unwrap();
        closer.join().unwrap();

        let mut reassembled = taken.clone();
        reassembled.extend(refunded.iter().copied());
        assert_eq!(
            reassembled, sent,
            "taken {taken:?} ++ refunded {refunded:?} must equal sent"
        );
    });
    assert!(report.complete, "DFS must drain: {report:?}");
    assert!(report.explored_schedules > 1, "{report:?}");
}

/// Same conservation with the batch consumer (`take_batch`), capacity 2.
#[test]
fn take_batch_conservation_under_close() {
    let report = check("blockingq_take_batch_close", &Config::default(), || {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(2);
        let sent = vec![1i64, 2, 3, 4];

        let qp = q.clone();
        let to_send = sent.clone();
        let producer = thread::spawn(move || match qp.put_all(to_send) {
            Ok(()) => Vec::new(),
            Err(blockingq::PutError(rest)) => rest,
        });

        let qc = q.clone();
        let closer = thread::spawn(move || qc.close());

        let mut taken = Vec::new();
        while let Some(chunk) = q.take_batch(2) {
            assert!(!chunk.is_empty() && chunk.len() <= 2, "batch bound");
            taken.extend(chunk);
        }

        let refunded = producer.join().unwrap();
        closer.join().unwrap();

        let mut reassembled = taken;
        reassembled.extend(refunded);
        assert_eq!(reassembled, sent);
    });
    assert!(report.complete, "{report:?}");
}

/// Two producers, one consumer: nothing lost, nothing duplicated, and
/// each producer's stream stays FIFO in the consumed sequence.
///
/// Four threads contending on one queue lock defeat sleep-set pruning
/// (every op is dependent), so this scenario runs under a preemption
/// bound instead — the classic result that almost all concurrency bugs
/// need only a couple of preemptions applies: with ≤ 2 the schedule space
/// drains in a few thousand runs.
#[test]
fn two_producers_conserve_and_stay_fifo() {
    let cfg = Config {
        preemption_bound: Some(2),
        ..Config::default()
    };
    let report = check("blockingq_two_producers", &cfg, || {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(1);

        let spawn_producer = |vals: Vec<i64>| {
            let qp = q.clone();
            thread::spawn(move || {
                for v in vals {
                    qp.put(v).expect("queue open while producing");
                }
            })
        };
        let p1 = spawn_producer(vec![1, 2]);
        let p2 = spawn_producer(vec![10]);

        let qd = q.clone();
        let drainer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = qd.take() {
                got.push(v);
            }
            got
        });

        p1.join().unwrap();
        p2.join().unwrap();
        q.close();
        let got = drainer.join().unwrap();

        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 10], "conservation: {got:?}");
        let stream1: Vec<i64> = got.iter().copied().filter(|v| *v < 10).collect();
        assert_eq!(stream1, vec![1, 2], "per-producer FIFO: {got:?}");
    });
    // Bounded search: not exhaustive, but it must fit the budget (i.e.
    // actually drain at the committed bound) and find nothing.
    assert!(report.explored_schedules < 100_000, "{report:?}");
    assert!(report.failure.is_none(), "{report:?}");
}

/// Blocked putters on a full queue get their value refunded by close().
#[test]
fn close_refunds_blocked_putter() {
    let report = check("blockingq_blocked_put_refund", &Config::default(), || {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(1);
        q.put(1).unwrap();

        let qp = q.clone();
        let putter = thread::spawn(move || qp.put(2));

        let qc = q.clone();
        let closer = thread::spawn(move || qc.close());

        let put_result = putter.join().unwrap();
        closer.join().unwrap();

        let mut drained = Vec::new();
        drained.extend(q.iter());
        match put_result {
            Ok(()) => drained.sort_unstable(),
            Err(blockingq::PutError(v)) => {
                drained.push(v);
                drained.sort_unstable();
            }
        }
        assert_eq!(
            drained,
            vec![1, 2],
            "1 was queued; 2 delivered xor refunded"
        );
    });
    assert!(report.complete, "{report:?}");
}

/// The explorer's enabled-set accounting must agree with a shared-counter
/// workload guarded by the real queue mutex path (sanity anchor that the
/// cfg wiring actually virtualizes blockingq's parking_lot import).
#[test]
fn queue_locks_are_virtualized() {
    let counter = Arc::new(Mutex::new(0usize));
    let c = counter.clone();
    let report = check("blockingq_cfg_wiring", &Config::default(), move || {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(1);
        let qp = q.clone();
        let h = thread::spawn(move || {
            qp.put(7).unwrap();
        });
        assert_eq!(q.take(), Some(7));
        h.join().unwrap();
        *c.lock() += 1;
    });
    assert!(report.complete, "{report:?}");
    // More than one interleaving implies the queue's internal lock/condvar
    // traffic produced scheduling points — i.e. the shim swap is live.
    assert!(
        report.explored_schedules > 1,
        "queue ops produced no scheduling points — shim swap broken? {report:?}"
    );
    assert!(*counter.lock() >= 1);
}
