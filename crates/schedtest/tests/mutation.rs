//! Mutation sanity checks: the explorer must *find* known races, not just
//! bless correct code.
//!
//! Each test embeds a deliberately broken miniature of a real bug class
//! from this codebase (as a self-contained copy, so the production crates
//! stay correct and these run in the plain tier-1 build with no cfg):
//!
//! * **Mutation A** — `blockingq::BlockingQueue::put_all`'s closed flag is
//!   checked only on entry, not re-checked after waking from
//!   `not_full.wait`. A close that lands while the producer is parked then
//!   lets the producer push its suffix into a closed queue after the
//!   consumer has already seen end-of-stream: values vanish, violating
//!   `taken ++ refunded == sent`.
//! * **Mutation B** — the pipe producer closes its output queue *before*
//!   flushing the trailing partial chunk (the real code flushes first,
//!   then the producer's exit action closes). The flush hits a closed
//!   queue and the stream's tail is silently dropped.
//!
//! For each: the DFS explorer must catch the bug within 10 000
//! interleavings, the reported schedule must replay to the identical
//! failure, and the corrected twin must verify clean over the same space.

use schedtest::sync::{Arc, Condvar, Mutex};
use schedtest::{explore, parse_schedule, thread, Config, Mode};
use std::collections::VecDeque;

struct MiniState {
    buf: VecDeque<i64>,
    closed: bool,
}

/// Self-contained miniature of `blockingq::BlockingQueue`: bounded buffer,
/// close semantics, batch put with refund. Just enough surface to express
/// mutation A against.
struct MiniQueue {
    state: Mutex<MiniState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl MiniQueue {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(MiniQueue {
            state: Mutex::new(MiniState {
                buf: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        })
    }

    /// Batch put returning the refused suffix. `recheck_closed` is the
    /// mutation knob: `false` reproduces mutation A (closed is only
    /// examined before the first wait).
    fn put_all(&self, items: Vec<i64>, recheck_closed: bool) -> Vec<i64> {
        let mut iter = items.into_iter().peekable();
        let mut st = self.state.lock();
        let mut first = true;
        loop {
            if (first || recheck_closed) && st.closed {
                return iter.collect();
            }
            first = false;
            let mut moved = false;
            while iter.peek().is_some() && st.buf.len() < self.capacity {
                st.buf.push_back(iter.next().unwrap());
                moved = true;
            }
            if iter.peek().is_none() {
                drop(st);
                self.not_empty.notify_all();
                return Vec::new();
            }
            if moved {
                self.not_empty.notify_all();
            }
            self.not_full.wait(&mut st);
        }
    }

    fn take(&self) -> Option<i64> {
        let mut st = self.state.lock();
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.not_full.notify_all();
                return Some(v);
            }
            if st.closed {
                return None;
            }
            self.not_empty.wait(&mut st);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The refund-accounting scenario from `model_blockingq.rs`, parameterized
/// over the mutation knob: producer `put_all`s [1, 2, 3] into a capacity-1
/// queue, a second thread closes it, the body drains. The invariant is
/// `taken ++ refunded == sent`.
fn refund_scenario(recheck_closed: bool) {
    let q = MiniQueue::new(1);
    let sent = vec![1i64, 2, 3];

    let qp = q.clone();
    let to_send = sent.clone();
    let producer = thread::spawn(move || qp.put_all(to_send, recheck_closed));
    let qc = q.clone();
    let closer = thread::spawn(move || qc.close());

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
}

#[test]
fn mutation_a_missing_closed_recheck_is_caught_and_replays() {
    // The mutated twin: the explorer must find the lost value quickly.
    let report = explore("mutation_a_buggy", &Config::default(), || {
        refund_scenario(false)
    });
    let failure = report
        .failure
        .as_ref()
        .expect("explorer must catch the missing closed re-check");
    assert!(
        report.explored_schedules < 10_000,
        "took {} schedules to find mutation A",
        report.explored_schedules
    );
    assert!(
        failure.message.contains("must equal sent"),
        "wrong failure: {}",
        failure.message
    );

    // The reported schedule replays to the identical failure, first try.
    let replay_cfg = Config {
        mode: Mode::Replay(parse_schedule(&failure.schedule).unwrap()),
        ..Config::default()
    };
    let replayed = explore("mutation_a_replay", &replay_cfg, || refund_scenario(false));
    let refailure = replayed.failure.expect("replay must reproduce");
    assert_eq!(replayed.explored_schedules, 1);
    assert_eq!(refailure.schedule, failure.schedule);
    assert_eq!(refailure.message, failure.message);
}

#[test]
fn mutation_a_fixed_twin_verifies_clean() {
    let report = explore("mutation_a_fixed", &Config::default(), || {
        refund_scenario(true)
    });
    assert!(report.failure.is_none(), "{report:?}");
    assert!(report.complete, "{report:?}");
}

/// The pipe producer's exit path from `pipes::spawn_producer`,
/// parameterized over mutation B: stream 1..=3 crosses a capacity-2 queue
/// in chunks of 2, leaving [3] as the trailing partial chunk. The real
/// code flushes the partial chunk and *then* closes (guard drop); the
/// mutant closes first, so the flush lands on a closed queue and 3 is
/// dropped.
fn partial_flush_scenario(close_before_flush: bool) {
    let q = MiniQueue::new(2);

    let qp = q.clone();
    let producer = thread::spawn(move || {
        let mut chunk = Vec::new();
        for v in 1..=3i64 {
            chunk.push(v);
            if chunk.len() >= 2 {
                let refused = qp.put_all(std::mem::take(&mut chunk), true);
                if !refused.is_empty() {
                    return;
                }
            }
        }
        if close_before_flush {
            qp.close();
        }
        if !chunk.is_empty() {
            qp.put_all(chunk, true);
        }
        qp.close();
    });

    let mut got = Vec::new();
    while let Some(v) = q.take() {
        got.push(v);
    }
    producer.join().unwrap();
    assert_eq!(got, vec![1, 2, 3], "stream tail must survive the flush");
}

#[test]
fn mutation_b_close_before_final_flush_is_caught_and_replays() {
    let report = explore("mutation_b_buggy", &Config::default(), || {
        partial_flush_scenario(true)
    });
    let failure = report
        .failure
        .as_ref()
        .expect("explorer must catch close-before-flush");
    assert!(
        report.explored_schedules < 10_000,
        "took {} schedules to find mutation B",
        report.explored_schedules
    );
    assert!(
        failure.message.contains("stream tail"),
        "wrong failure: {}",
        failure.message
    );

    let replay_cfg = Config {
        mode: Mode::Replay(parse_schedule(&failure.schedule).unwrap()),
        ..Config::default()
    };
    let replayed = explore("mutation_b_replay", &replay_cfg, || {
        partial_flush_scenario(true)
    });
    let refailure = replayed.failure.expect("replay must reproduce");
    assert_eq!(replayed.explored_schedules, 1);
    assert_eq!(refailure.schedule, failure.schedule);
}

#[test]
fn mutation_b_fixed_twin_verifies_clean() {
    let report = explore("mutation_b_fixed", &Config::default(), || {
        partial_flush_scenario(false)
    });
    assert!(report.failure.is_none(), "{report:?}");
    assert!(report.complete, "{report:?}");
}
