//! Property tests for the batch queue APIs (`put_all` / `take_batch` /
//! `drain_into`).
//!
//! The single-threaded suite checks random operation sequences — with
//! batch sizes deliberately spanning 0, 1, and well past the capacity —
//! against a plain `VecDeque` + closed-flag oracle, so any divergence
//! shrinks to a minimal op sequence. The concurrent suite exercises the
//! *blocking* straddle path (`put_all` larger than the queue bound parks
//! and resumes as space frees) and the refund accounting under mid-stream
//! close: `taken ++ refunded == original`, always.

use blockingq::{BlockingQueue, PutError};
use std::collections::VecDeque;
use tinyprop::prelude::*;

/// One batch-flavored operation in a generated scenario.
#[derive(Clone, Debug)]
enum Op {
    PutAll(Vec<i64>),
    TakeBatch(usize),
    DrainInto,
    Put(i64),
    Take,
    Close,
    Len,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Batch sizes 0..=12 against capacities 1..8: empty batches and
        // batches larger than the whole queue are both routine.
        4 => prop::collection::vec(any::<i64>(), 0..13).prop_map(Op::PutAll),
        3 => (0usize..13).prop_map(Op::TakeBatch),
        2 => Just(Op::DrainInto),
        2 => any::<i64>().prop_map(Op::Put),
        2 => Just(Op::Take),
        1 => Just(Op::Close),
        1 => Just(Op::Len),
    ]
}

proptest! {
    /// The batch APIs behave exactly like a capacity-bounded `VecDeque`
    /// with a closed flag: a closed queue refunds a whole batch,
    /// `take_batch` drains up to `max` in FIFO order, `drain_into`
    /// empties the buffer — under any interleaved sequence of batch and
    /// single-element operations. Single-threaded, so an op is only
    /// issued when the model predicts it will not block (a put that does
    /// not fit an open queue, a take from an empty open one); the rest
    /// are skipped. The straddling put is the concurrent suite's job.
    #[test]
    fn batch_ops_match_reference_model(
        capacity in 1usize..8,
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(capacity);
        let mut model: VecDeque<i64> = VecDeque::new();
        let mut closed = false;

        for op in ops {
            let room = capacity - model.len();
            match op {
                // The degenerate batch is a no-op even when closed.
                Op::PutAll(items) if items.is_empty() => prop_assert_eq!(q.put_all(items), Ok(())),
                Op::PutAll(items) if closed => {
                    prop_assert_eq!(q.put_all(items.clone()), Err(PutError(items)));
                }
                Op::PutAll(items) if items.len() <= room => {
                    prop_assert_eq!(q.put_all(items.clone()), Ok(()));
                    model.extend(items);
                }
                Op::TakeBatch(max) if max == 0 || closed || !model.is_empty() => {
                    let got = q.take_batch(max);
                    if max == 0 {
                        prop_assert_eq!(got, Some(Vec::new()));
                    } else if model.is_empty() {
                        prop_assert_eq!(got, None);
                    } else {
                        let n = model.len().min(max);
                        let want: Vec<i64> = model.drain(..n).collect();
                        prop_assert_eq!(got, Some(want));
                    }
                }
                Op::DrainInto if closed || !model.is_empty() => {
                    let mut out = vec![-1, -2]; // pre-existing content must survive
                    let got = q.drain_into(&mut out);
                    let mut want = vec![-1, -2];
                    want.extend(model.drain(..));
                    prop_assert_eq!(got, want.len() - 2);
                    prop_assert_eq!(out, want);
                }
                Op::Put(v) if closed => prop_assert_eq!(q.put(v), Err(PutError(v))),
                Op::Put(v) if room > 0 => {
                    prop_assert_eq!(q.put(v), Ok(()));
                    model.push_back(v);
                }
                Op::Take if closed || !model.is_empty() => {
                    prop_assert_eq!(q.take(), model.pop_front());
                }
                Op::PutAll(_) | Op::TakeBatch(_) | Op::DrainInto | Op::Put(_) | Op::Take => {}
                Op::Close => {
                    q.close();
                    closed = true;
                }
                Op::Len => {
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(q.is_empty(), model.is_empty());
                    prop_assert_eq!(q.close_cause().is_some(), closed);
                }
            }
        }
        // Post-sequence drain: exactly the model's remainder, in order.
        q.close();
        let drained: Vec<i64> = q.iter().collect();
        let expected: Vec<i64> = model.into_iter().collect();
        prop_assert_eq!(drained, expected);
    }

    /// Blocking straddle roundtrip: a single `put_all` far larger than the
    /// queue bound must park, resume as the consumer frees space, and land
    /// every element in order — whatever the consumer's batch maximum is.
    #[test]
    fn straddling_put_all_delivers_everything_in_order(
        capacity in 1usize..6,
        len in 0usize..300,
        max in 1usize..9,
    ) {
        let q: BlockingQueue<usize> = BlockingQueue::bounded(capacity);
        let items: Vec<usize> = (0..len).collect();
        let producer = {
            let q = q.clone();
            let items = items.clone();
            std::thread::spawn(move || {
                q.put_all(items).expect("queue open for the whole batch");
                q.close();
            })
        };
        let mut taken: Vec<usize> = Vec::new();
        while let Some(chunk) = q.take_batch(max) {
            prop_assert!(!chunk.is_empty(), "blocking take_batch yielded an empty chunk");
            prop_assert!(chunk.len() <= max, "chunk exceeded max");
            taken.extend(chunk);
        }
        producer.join().expect("producer ok");
        prop_assert_eq!(taken, items);
    }

    /// Refund accounting under mid-stream close: whatever instant the
    /// close lands — before, during, or after the straddling `put_all` —
    /// the elements the consumer took plus the refunded suffix reassemble
    /// the original sequence exactly. Nothing is lost, duplicated, or
    /// reordered.
    #[test]
    fn taken_plus_refund_reassembles_the_batch(
        capacity in 1usize..6,
        len in 1usize..200,
        take_before_close in 0usize..64,
    ) {
        let q: BlockingQueue<usize> = BlockingQueue::bounded(capacity);
        let items: Vec<usize> = (0..len).collect();
        let producer = {
            let q = q.clone();
            let items = items.clone();
            std::thread::spawn(move || match q.put_all(items) {
                Ok(()) => Vec::new(),
                Err(PutError(refund)) => refund,
            })
        };
        // Take a bounded number of elements, then slam the queue shut
        // under the producer (who may be parked mid-straddle). Every one
        // of the first `len` takes is eventually satisfied, so they block.
        let mut taken: Vec<usize> = Vec::new();
        for _ in 0..take_before_close.min(len) {
            taken.push(q.take().expect("the producer is still sending"));
        }
        q.close();
        let refunded = producer.join().expect("producer ok");
        // Anything accepted before the close is still in the buffer.
        let mut buf = Vec::new();
        q.drain_into(&mut buf);
        taken.extend(buf);
        taken.extend(refunded);
        prop_assert_eq!(taken, items, "taken ++ drained ++ refund != original");
    }
}
