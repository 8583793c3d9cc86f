//! Model-based property tests: the blocking queue against a plain
//! `VecDeque` reference model (single-threaded op sequences), plus
//! randomized multi-threaded conservation checks.

use blockingq::{BlockingQueue, PutError};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tinyprop::prelude::*;

/// One operation in a generated scenario.
#[derive(Clone, Debug)]
enum Op {
    Put(i64),
    Take,
    Close,
    Len,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<i64>().prop_map(Op::Put),
        4 => Just(Op::Take),
        1 => Just(Op::Close),
        1 => Just(Op::Len),
    ]
}

/// How a stress consumer pulls from the queue — one of the three blocking
/// take shapes, so generated schedules interleave all of them.
fn consume(queue: &BlockingQueue<(u8, u64)>, mode: usize) -> Vec<(u8, u64)> {
    let mut seen = Vec::new();
    match mode % 3 {
        // Item-at-a-time.
        0 => {
            while let Some(v) = queue.take() {
                seen.push(v);
            }
        }
        // Bounded batches, cycling through small maxima.
        1 => {
            let mut max = 1;
            while let Some(chunk) = queue.take_batch(max) {
                seen.extend(chunk);
                max = max % 7 + 1;
            }
        }
        // Whole-buffer drains.
        _ => {
            let mut buf = Vec::new();
            while queue.drain_into(&mut buf) > 0 {
                seen.append(&mut buf);
            }
        }
    }
    seen
}

proptest! {
    /// The queue behaves exactly like a capacity-bounded VecDeque with a
    /// closed flag. Single-threaded, so an op is only issued when the
    /// model predicts it will not block (a put into a full open queue, a
    /// take from an empty open one); the rest are skipped.
    #[test]
    fn matches_reference_model(
        capacity in 1usize..8,
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let q: BlockingQueue<i64> = BlockingQueue::bounded(capacity);
        let mut model: VecDeque<i64> = VecDeque::new();
        let mut closed = false;

        for op in ops {
            match op {
                Op::Put(v) if closed => prop_assert_eq!(q.put(v), Err(PutError(v))),
                Op::Put(v) if model.len() < capacity => {
                    prop_assert_eq!(q.put(v), Ok(()));
                    model.push_back(v);
                }
                Op::Take if closed || !model.is_empty() => {
                    prop_assert_eq!(q.take(), model.pop_front());
                }
                Op::Put(_) | Op::Take => {}
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
        // Drain after close: exactly the model's remainder, in order.
        q.close();
        let drained: Vec<i64> = q.iter().collect();
        let expected: Vec<i64> = model.into_iter().collect();
        prop_assert_eq!(drained, expected);
    }

    /// Conservation under concurrency: every element put by any producer
    /// is taken exactly once by some consumer, for random thread/queue
    /// shapes.
    #[test]
    fn concurrent_conservation(
        capacity in 1usize..16,
        producers in 1usize..4,
        per_producer in 1u64..200,
    ) {
        let q: BlockingQueue<u64> = BlockingQueue::bounded(capacity);
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    q.put(p as u64 * 1_000_000 + i).expect("queue open");
                }
            }));
        }
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(v) = q.take() {
                    seen.push(v);
                }
                seen
            })
        };
        for h in handles {
            h.join().expect("producer ok");
        }
        q.close();
        let mut seen = consumer.join().expect("consumer ok");
        seen.sort_unstable();
        let mut expect: Vec<u64> = (0..producers as u64)
            .flat_map(|p| (0..per_producer).map(move |i| p * 1_000_000 + i))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect);
    }

    /// Per-producer FIFO: even with multiple producers, each producer's
    /// own elements arrive in its send order.
    #[test]
    fn per_producer_order_is_preserved(per in 1u64..300) {
        let q: BlockingQueue<(u8, u64)> = BlockingQueue::bounded(4);
        let producers: Vec<_> = (0..2u8)
            .map(|id| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        q.put((id, i)).expect("open");
                    }
                })
            })
            .collect();
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || {
            let mut last: [Option<u64>; 2] = [None, None];
            while let Some((id, i)) = q2.take() {
                let slot = &mut last[id as usize];
                assert!(slot.is_none_or(|prev| i > prev), "out of order for {id}");
                *slot = Some(i);
            }
            last
        });
        for p in producers {
            p.join().expect("producer ok");
        }
        q.close();
        let last = consumer.join().expect("consumer ok");
        prop_assert_eq!(last, [Some(per - 1), Some(per - 1)]);
    }

    /// Interleaved-schedule stress: N producers × M consumers, each
    /// producer mixing single `put`s with `put_all` chunks (sizes cycling
    /// through a generated pattern), each consumer using a different
    /// blocking take shape (`take` / `take_batch` / `drain_into`).
    /// Invariants, for every schedule the OS happens to produce:
    /// conservation (every element arrives exactly once — no loss, no
    /// duplication) and per-producer FIFO within each consumer's local
    /// stream.
    #[test]
    fn mixed_batch_schedules_conserve_and_order(
        capacity in 1usize..16,
        producers in 1usize..4,
        consumers in 1usize..4,
        per_producer in 1u64..200,
        pattern in prop::collection::vec(1usize..9, 1..5),
    ) {
        let q: BlockingQueue<(u8, u64)> = BlockingQueue::bounded(capacity);
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            let pattern = pattern.clone();
            handles.push(std::thread::spawn(move || {
                let mut next = 0u64;
                let mut pi = p; // offset the pattern per producer
                while next < per_producer {
                    let n = pattern[pi % pattern.len()].min((per_producer - next) as usize);
                    pi += 1;
                    if n == 1 {
                        q.put((p as u8, next)).expect("queue open");
                        next += 1;
                    } else {
                        let chunk: Vec<(u8, u64)> =
                            (next..next + n as u64).map(|i| (p as u8, i)).collect();
                        next += n as u64;
                        q.put_all(chunk).expect("queue open");
                    }
                }
            }));
        }
        let takers: Vec<_> = (0..consumers)
            .map(|c| {
                let q = q.clone();
                std::thread::spawn(move || consume(&q, c))
            })
            .collect();
        for h in handles {
            h.join().expect("producer ok");
        }
        q.close();
        let mut all: Vec<(u8, u64)> = Vec::new();
        for t in takers {
            let local = t.join().expect("consumer ok");
            // Per-producer FIFO within this consumer's local stream.
            let mut last: Vec<Option<u64>> = vec![None; producers];
            for &(id, i) in &local {
                let slot = &mut last[id as usize];
                prop_assert!(
                    slot.is_none_or(|prev| i > prev),
                    "consumer saw producer {} out of order", id
                );
                *slot = Some(i);
            }
            all.extend(local);
        }
        // Conservation: exactly the produced multiset, no dup, no loss.
        all.sort_unstable();
        let expect: Vec<(u8, u64)> = (0..producers as u8)
            .flat_map(|p| (0..per_producer).map(move |i| (p, i)))
            .collect();
        prop_assert_eq!(all, expect);
    }

    /// Close-under-fire accounting: a closer thread slams the queue shut
    /// while producers are mid-stream (some blocked inside a straddling
    /// `put_all`). For every producer, the consumed items must be a
    /// *prefix* of its sequence and the refunded suffix must resume
    /// exactly where consumption stopped: consumed ++ refunded ++
    /// never-attempted == the original sequence. Total conservation:
    /// puts == takes + refunds.
    #[test]
    fn close_under_fire_refunds_exact_suffixes(
        capacity in 1usize..8,
        producers in 1usize..4,
        chunk_size in 1usize..12,
        close_after in 0u64..64,
    ) {
        let q: BlockingQueue<(u8, u64)> = BlockingQueue::bounded(capacity);
        let total_per_producer = 400u64;
        let remaining = Arc::new(std::sync::atomic::AtomicUsize::new(producers));
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            let remaining = Arc::clone(&remaining);
            handles.push(std::thread::spawn(move || {
                let mut refunded: Vec<(u8, u64)> = Vec::new();
                let mut sent = 0u64;
                'send: while sent < total_per_producer {
                    let n = (chunk_size as u64).min(total_per_producer - sent);
                    let chunk: Vec<(u8, u64)> =
                        (sent..sent + n).map(|i| (p as u8, i)).collect();
                    sent += n;
                    if let Err(e) = q.put_all(chunk) {
                        // Whatever the queue did not accept comes back;
                        // everything after it was never attempted.
                        refunded = e.0;
                        break 'send;
                    }
                }
                // If the closer never fires, the last producer out closes
                // (close is idempotent) so the run always terminates.
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    q.close();
                }
                (sent, refunded)
            }));
        }
        let closer = {
            let q = q.clone();
            std::thread::spawn(move || {
                // Let roughly `close_after` items through, then slam shut.
                // The running tally is a racy heuristic — precision is not
                // needed, only that close lands at varied points mid-run.
                let mut seen = 0u64;
                while seen < close_after && q.close_cause().is_none() {
                    seen += q.len() as u64;
                    std::thread::yield_now();
                }
                q.close();
            })
        };
        let consumed: Vec<(u8, u64)> = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut buf = Vec::new();
                while q.drain_into(&mut buf) > 0 {
                    seen.append(&mut buf);
                }
                seen
            })
            .join()
            .expect("consumer ok")
        };
        let mut attempted_totals = 0u64;
        let mut refunds: Vec<Vec<(u8, u64)>> = vec![Vec::new(); producers];
        for (p, h) in handles.into_iter().enumerate() {
            let (sent, refunded) = h.join().expect("producer ok");
            attempted_totals += sent;
            refunds[p] = refunded;
        }
        closer.join().expect("closer ok");
        // Split consumption per producer; FIFO makes each a sorted run.
        let mut consumed_per: Vec<Vec<(u8, u64)>> = vec![Vec::new(); producers];
        for v in consumed {
            consumed_per[v.0 as usize].push(v);
        }
        let mut accounted = 0u64;
        for p in 0..producers {
            let got = &consumed_per[p];
            // Consumed is exactly the prefix 0..got.len() of p's sequence.
            for (k, &(id, i)) in got.iter().enumerate() {
                prop_assert_eq!((id, i), (p as u8, k as u64), "gap or dup in producer {}", p);
            }
            // Refund resumes exactly where consumption stopped.
            for (k, &(id, i)) in refunds[p].iter().enumerate() {
                prop_assert_eq!(
                    (id, i),
                    (p as u8, (got.len() + k) as u64),
                    "refund for producer {} is not the straddle suffix", p
                );
            }
            accounted += (got.len() + refunds[p].len()) as u64;
        }
        // Conservation: every attempted item was either taken or refunded.
        prop_assert_eq!(accounted, attempted_totals);
    }
}
