//! A bounded MPMC blocking queue with close semantics and batch
//! operations that amortize the per-element lock/condvar cost.
//!
//! Every blocking operation is a short body over one of two private waits,
//! `wait_for_room` and `wait_for_items`: the paper's "put and take
//! operations that wait until the queue of results is not full or not
//! empty, respectively" (Sec. III.B).

use crate::fault::CloseCause;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Error returned by [`BlockingQueue::put`] / [`BlockingQueue::put_all`]
/// when the queue has been closed; carries the rejected element (or the
/// unaccepted suffix of a batch) back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct PutError<T>(pub T);

struct State<T> {
    buf: VecDeque<T>,
    /// `Some(cause)` once closed. The first close wins: a later
    /// `close`/`close_with` never overwrites a recorded cause.
    cause: Option<CloseCause>,
    /// Threads currently parked waiting for space / for data. Maintained
    /// under the state lock (no extra synchronization); exposed through
    /// [`BlockingQueue::blocked_producers`]/[`BlockingQueue::blocked_consumers`]
    /// so tests can wait for a peer to actually park instead of sleeping.
    put_waiters: usize,
    take_waiters: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// A multi-producer multi-consumer FIFO with blocking `put`/`take`.
///
/// Cloning the handle is cheap and shares the same queue. Capacity `0` is
/// normalized to `1` (a rendezvous-ish single slot, as a `SynchronousQueue`
/// substitute); [`BlockingQueue::unbounded`] never blocks producers.
///
/// Closing the queue wakes all waiters: producers get their element back via
/// [`PutError`]; consumers drain the remaining buffered elements and then
/// observe end-of-stream (`None`, or `0` from `drain_into`). This is how a
/// pipe signals that its underlying generator failed (terminated). The
/// close carries a [`CloseCause`]: plain [`BlockingQueue::close`] records
/// `Finished` (clean end-of-stream), while [`BlockingQueue::close_with`]
/// can record `Failed(Fault)`; a consumer that has seen end-of-stream
/// reads [`BlockingQueue::close_cause`] to tell a crash from completion.
/// That read cannot race: the first close wins, and a closed, drained
/// queue stays that way.
pub struct BlockingQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for BlockingQueue<T> {
    fn clone(&self) -> Self {
        BlockingQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> BlockingQueue<T> {
    /// Create a bounded queue holding at most `capacity` elements
    /// (minimum 1).
    pub fn bounded(capacity: usize) -> Self {
        BlockingQueue::with_bound(capacity.max(1))
    }

    /// Create a queue with no capacity bound; `put` never blocks.
    pub fn unbounded() -> Self {
        BlockingQueue::with_bound(usize::MAX)
    }

    fn with_bound(capacity: usize) -> Self {
        BlockingQueue {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    buf: VecDeque::new(),
                    cause: None,
                    put_waiters: 0,
                    take_waiters: 0,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity,
            }),
        }
    }

    /// The configured capacity (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Number of elements currently buffered.
    pub fn len(&self) -> usize {
        self.shared.state.lock().buf.len()
    }

    /// True iff no elements are buffered.
    pub fn is_empty(&self) -> bool {
        self.shared.state.lock().buf.is_empty()
    }

    /// Number of threads currently parked in a blocking put waiting for
    /// space. Instantaneously accurate (maintained under the state lock),
    /// but of course stale the moment it returns; meant for tests and
    /// diagnostics — see [`crate::testkit::wait_until`].
    pub fn blocked_producers(&self) -> usize {
        self.shared.state.lock().put_waiters
    }

    /// Number of threads currently parked in a blocking take/batch-take
    /// waiting for data. Same caveats as
    /// [`BlockingQueue::blocked_producers`].
    pub fn blocked_consumers(&self) -> usize {
        self.shared.state.lock().take_waiters
    }

    /// The one wait for room: park until the queue has space or is
    /// closed. `waited` spans a whole public call, so a `put_all` that
    /// parks several times counts one blocked put.
    fn wait_for_room(&self, st: &mut MutexGuard<'_, State<T>>, waited: &mut bool) {
        while st.cause.is_none() && st.buf.len() >= self.shared.capacity {
            obs_on!(if !*waited {
                crate::stats::queue().blocked_puts.inc();
            });
            *waited = true;
            st.put_waiters += 1;
            self.shared.not_full.wait(st);
            st.put_waiters -= 1;
        }
    }

    /// The one wait for items: park until an element is buffered or the
    /// queue is closed. Still empty afterwards means closed and drained
    /// for good.
    fn wait_for_items(&self, st: &mut MutexGuard<'_, State<T>>) {
        obs_on!(if st.buf.is_empty() && st.cause.is_none() {
            crate::stats::queue().blocked_takes.inc();
        });
        while st.buf.is_empty() && st.cause.is_none() {
            st.take_waiters += 1;
            self.shared.not_empty.wait(st);
            st.take_waiters -= 1;
        }
    }

    /// Block until space is available, then enqueue `v`.
    ///
    /// Returns `Err(PutError(v))` if the queue is (or becomes, while
    /// waiting) closed.
    pub fn put(&self, v: T) -> Result<(), PutError<T>> {
        faultpoint!("blockingq.put");
        let mut st = self.shared.state.lock();
        self.wait_for_room(&mut st, &mut false);
        if st.cause.is_some() {
            return Err(PutError(v));
        }
        st.buf.push_back(v);
        obs_on!(let depth = st.buf.len(););
        drop(st);
        self.shared.not_empty.notify_one();
        obs_on!({
            crate::stats::queue().puts.inc();
            crate::stats::queue()
                .depth_highwater
                .record_max(depth as i64);
        });
        Ok(())
    }

    /// Enqueue a whole batch, blocking for space as needed, in one (or as
    /// few as possible) mutex acquisitions. FIFO order within the batch is
    /// preserved, and elements of a batch are never interleaved with a
    /// *concurrent* `put_all` from another producer unless this call had
    /// to block for space part-way through.
    ///
    /// A batch larger than the remaining capacity *straddles the bound*:
    /// the fitting prefix is enqueued (and consumers are woken) before the
    /// producer blocks for space for the rest. If the queue is — or
    /// becomes, while waiting — closed, the **unaccepted suffix** is
    /// refunded via `Err(PutError(suffix))`; everything before it was
    /// enqueued and will be seen by consumers. An empty batch succeeds
    /// trivially (even on a closed queue).
    pub fn put_all(&self, items: Vec<T>) -> Result<(), PutError<Vec<T>>> {
        if items.is_empty() {
            return Ok(());
        }
        faultpoint!("blockingq.put_all");
        obs_on!(let total = items.len(););
        let mut iter = items.into_iter().peekable();
        let mut st = self.shared.state.lock();
        let mut waited = false;
        loop {
            if st.cause.is_some() {
                drop(st);
                let rest: Vec<T> = iter.collect();
                obs_on!(record_batch_put(total - rest.len(), 0););
                return Err(PutError(rest));
            }
            let mut moved = false;
            while iter.peek().is_some() && st.buf.len() < self.shared.capacity {
                st.buf.push_back(iter.next().expect("peeked"));
                moved = true;
            }
            if iter.peek().is_none() {
                obs_on!(let depth = st.buf.len(););
                drop(st);
                self.shared.not_empty.notify_all();
                obs_on!(record_batch_put(total, depth););
                return Ok(());
            }
            // Partial fill: make the accepted prefix visible to consumers
            // before sleeping, or a full queue with a blocked consumer
            // elsewhere could deadlock on a never-sent wakeup.
            if moved {
                self.shared.not_empty.notify_all();
            }
            self.wait_for_room(&mut st, &mut waited);
        }
    }

    /// Block until an element is available and dequeue it.
    ///
    /// Returns `None` once the queue is closed *and* drained; the reason
    /// is [`BlockingQueue::close_cause`].
    pub fn take(&self) -> Option<T> {
        faultpoint!("blockingq.take");
        let mut st = self.shared.state.lock();
        self.wait_for_items(&mut st);
        let v = st.buf.pop_front()?;
        drop(st);
        self.shared.not_full.notify_one();
        obs_on!(crate::stats::queue().takes.inc(););
        Some(v)
    }

    /// Block until at least one element is available, then dequeue up to
    /// `max` elements in a single mutex acquisition, preserving FIFO
    /// order. Returns `None` once the queue is closed *and* drained; the
    /// reason is [`BlockingQueue::close_cause`].
    ///
    /// `max == 0` yields an empty batch immediately, without blocking or
    /// consulting the queue (the degenerate no-op batch).
    pub fn take_batch(&self, max: usize) -> Option<Vec<T>> {
        if max == 0 {
            return Some(Vec::new());
        }
        faultpoint!("blockingq.take");
        let mut out = Vec::new();
        (self.take_into(max, &mut out) > 0).then_some(out)
    }

    /// Block until at least one element is available, then move the
    /// *entire* buffered contents into `out` (appending, FIFO order) in a
    /// single mutex acquisition. Returns the number of elements moved;
    /// `0` means the queue is closed and drained (end-of-stream; the
    /// reason is [`BlockingQueue::close_cause`]).
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        self.take_into(usize::MAX, out)
    }

    /// Move up to `max` (≥ 1) buffered elements into `out` once any are
    /// available; `0` is end-of-stream.
    fn take_into(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut st = self.shared.state.lock();
        self.wait_for_items(&mut st);
        let n = st.buf.len().min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        out.extend(st.buf.drain(..n));
        drop(st);
        self.shared.not_full.notify_all();
        obs_on!(record_batch_take(n););
        n
    }

    /// Close the queue: pending and future `put`s fail, consumers drain the
    /// buffer and then observe end-of-stream. Records `Finished` — the
    /// clean end-of-stream cause. Idempotent; see
    /// [`BlockingQueue::close_with`].
    pub fn close(&self) {
        self.close_with(CloseCause::Finished);
    }

    /// Close the queue recording `cause`. The first close wins: if a
    /// cause is already recorded, this is a no-op (so a producer's
    /// exit action running *after* a fault was recorded cannot launder a
    /// `Failed` into a `Finished`, and vice versa a consumer that already
    /// hung up keeps its `Finished`).
    pub fn close_with(&self, cause: CloseCause) {
        let mut st = self.shared.state.lock();
        if st.cause.is_some() {
            return;
        }
        obs_on!({
            crate::stats::queue().closes.inc();
            if cause.is_failed() {
                crate::stats::queue().close_failed.inc();
            }
        });
        st.cause = Some(cause);
        drop(st);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// The recorded close cause, or `None` while the queue is open.
    pub fn close_cause(&self) -> Option<CloseCause> {
        self.shared.state.lock().cause.clone()
    }

    /// A blocking iterator over the queue: yields until end-of-stream.
    pub fn iter(&self) -> Drain<'_, T> {
        Drain { queue: self }
    }
}

/// Record one batch-put transaction of `n` elements (obs only): items
/// count toward `puts` (throughput is measured in *items*, whatever the
/// transport granularity), the transaction toward `batch_puts`, and the
/// fill toward the `batch_fill` histogram. No-op for an empty batch.
#[cfg(feature = "obs")]
fn record_batch_put(n: usize, depth: usize) {
    if n == 0 {
        return;
    }
    let stats = crate::stats::queue();
    stats.puts.add(n as u64);
    stats.batch_puts.inc();
    stats.batch_fill.record(n as u64);
    if depth > 0 {
        stats.depth_highwater.record_max(depth as i64);
    }
}

/// Record one batch-take transaction of `n` elements (obs only); see
/// [`record_batch_put`].
#[cfg(feature = "obs")]
fn record_batch_take(n: usize) {
    let stats = crate::stats::queue();
    stats.takes.add(n as u64);
    stats.batch_takes.inc();
    stats.batch_fill.record(n as u64);
}

impl<T> fmt::Debug for BlockingQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("BlockingQueue")
            .field("len", &st.buf.len())
            .field("capacity", &self.shared.capacity)
            .field("closed", &st.cause)
            .finish()
    }
}

/// Blocking consuming iterator returned by [`BlockingQueue::iter`].
pub struct Drain<'a, T> {
    queue: &'a BlockingQueue<T>,
}

impl<T> Iterator for Drain<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.queue.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let q = BlockingQueue::bounded(10);
        for i in 0..5 {
            q.put(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.take(), Some(i));
        }
    }

    #[test]
    fn capacity_zero_is_one_slot() {
        let q = BlockingQueue::bounded(0);
        assert_eq!(q.capacity(), 1);
        q.put(1).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.put(2));
        testkit::wait_until("second put parked", || q.blocked_producers() == 1);
        assert_eq!(q.take(), Some(1));
        h.join().unwrap().unwrap();
        assert_eq!(q.take(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BlockingQueue::bounded(4);
        q.put(1).unwrap();
        q.put(2).unwrap();
        q.close();
        assert!(q.put(3).is_err());
        assert_eq!(q.take(), Some(1));
        assert_eq!(q.take(), Some(2));
        assert_eq!(q.take(), None);
        assert_eq!(q.take(), None); // stays ended
    }

    #[test]
    fn blocked_producer_wakes_on_take() {
        let q = BlockingQueue::bounded(1);
        q.put(0).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.put(1));
        testkit::wait_until("putter parked", || q.blocked_producers() == 1);
        assert_eq!(q.take(), Some(0));
        h.join().unwrap().unwrap();
        assert_eq!(q.take(), Some(1));
    }

    #[test]
    fn blocked_consumer_wakes_on_put() {
        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.take());
        testkit::wait_until("taker parked", || q.blocked_consumers() == 1);
        q.put(42).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn blocked_producer_wakes_on_close() {
        let q = BlockingQueue::bounded(1);
        q.put(0).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.put(1));
        testkit::wait_until("putter parked", || q.blocked_producers() == 1);
        q.close();
        assert_eq!(h.join().unwrap(), Err(PutError(1)));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.take());
        testkit::wait_until("taker parked", || q.blocked_consumers() == 1);
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn unbounded_never_blocks_producer() {
        let q = BlockingQueue::unbounded();
        for i in 0..10_000 {
            q.put(i).unwrap();
        }
        assert_eq!(q.len(), 10_000);
        assert_eq!(q.take(), Some(0));
    }

    #[test]
    fn mpmc_sum_is_conserved() {
        let q = BlockingQueue::bounded(8);
        let n_producers = 4;
        let per_producer = 1000u64;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let q = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..per_producer {
                    q.put(p * per_producer + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            consumers.push(thread::spawn(move || {
                let mut sum = 0u64;
                while let Some(v) = q.take() {
                    sum += v;
                }
                sum
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let expect: u64 = (0..n_producers * per_producer).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn drain_iterator_ends_at_close() {
        let q = BlockingQueue::bounded(16);
        for i in 0..6 {
            q.put(i).unwrap();
        }
        q.close();
        let got: Vec<i32> = q.iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn put_all_take_batch_roundtrip_fifo() {
        let q = BlockingQueue::bounded(16);
        q.put_all((0..5).collect()).unwrap();
        q.put(5).unwrap();
        q.put_all(vec![6, 7]).unwrap();
        assert_eq!(q.take_batch(3), Some(vec![0, 1, 2]));
        assert_eq!(q.take(), Some(3));
        assert_eq!(q.take_batch(100), Some(vec![4, 5, 6, 7]));
    }

    #[test]
    fn empty_batch_is_a_noop_even_when_closed() {
        let q: BlockingQueue<i32> = BlockingQueue::bounded(2);
        q.close();
        assert_eq!(q.put_all(vec![]), Ok(()));
        assert_eq!(q.take_batch(0), Some(vec![]));
    }

    #[test]
    fn put_all_on_closed_refunds_everything() {
        let q: BlockingQueue<i32> = BlockingQueue::bounded(4);
        q.close();
        assert_eq!(q.put_all(vec![1, 2, 3]), Err(PutError(vec![1, 2, 3])));
    }

    #[test]
    fn put_all_straddles_capacity_then_blocks() {
        // Batch of 6 into capacity 2: the prefix lands immediately, the
        // producer blocks, and the consumer receives everything in order.
        let q = BlockingQueue::bounded(2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.put_all((0..6).collect()));
        testkit::wait_until("producer parked mid-batch", || q.blocked_producers() == 1);
        assert_eq!(q.len(), 2, "prefix visible before producer unblocks");
        let mut got = Vec::new();
        while got.len() < 6 {
            got.extend(q.take_batch(4).expect("open"));
        }
        h.join().unwrap().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn put_all_close_mid_straddle_refunds_suffix() {
        let q = BlockingQueue::bounded(2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.put_all((0..6).collect()));
        testkit::wait_until("producer parked mid-batch", || q.blocked_producers() == 1);
        q.close();
        let refund = h.join().unwrap().expect_err("closed mid-batch").0;
        // Accepted prefix drains; refund is exactly the untaken suffix.
        let drained: Vec<i32> = q.iter().collect();
        let mut all = drained;
        all.extend(refund);
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn take_batch_blocks_until_data_or_close() {
        let q: BlockingQueue<i32> = BlockingQueue::bounded(4);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.take_batch(8));
        testkit::wait_until("batch taker parked", || q.blocked_consumers() == 1);
        q.put_all(vec![1, 2]).unwrap();
        assert_eq!(h.join().unwrap(), Some(vec![1, 2]));
        let q3 = q.clone();
        let h = thread::spawn(move || q3.take_batch(8));
        testkit::wait_until("batch taker parked", || q.blocked_consumers() == 1);
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn drain_into_appends_and_signals_eos() {
        let q = BlockingQueue::bounded(8);
        q.put_all(vec![1, 2, 3]).unwrap();
        let mut out = vec![0];
        assert_eq!(q.drain_into(&mut out), 3);
        assert_eq!(out, vec![0, 1, 2, 3]);
        q.put(4).unwrap();
        assert_eq!(q.drain_into(&mut out), 1);
        q.close();
        assert_eq!(q.drain_into(&mut out), 0, "end-of-stream");
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn batch_take_wakes_multiple_blocked_producers() {
        // Draining a full queue in one batch must wake every producer
        // blocked on space, not just one.
        let q = BlockingQueue::bounded(2);
        q.put_all(vec![0, 1]).unwrap();
        let producers: Vec<_> = (0..3)
            .map(|i| {
                let q = q.clone();
                thread::spawn(move || q.put(10 + i))
            })
            .collect();
        testkit::wait_until("all three putters parked", || q.blocked_producers() == 3);
        let mut got = q.take_batch(16).expect("open");
        while got.len() < 5 {
            got.extend(q.take_batch(16).expect("open"));
        }
        for p in producers {
            p.join().unwrap().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 10, 11, 12]);
    }

    #[test]
    fn close_with_failed_surfaces_the_cause() {
        use crate::fault::{CloseCause, Fault};
        let q = BlockingQueue::bounded(4);
        q.put_all(vec![1, 2]).unwrap();
        q.close_with(CloseCause::Failed(Fault::new("stage-x", "boom")));
        // The buffered prefix still drains...
        assert_eq!(q.take(), Some(1));
        assert_eq!(q.take_batch(8), Some(vec![2]));
        // ...then every take shape ends, repeatably, and the cause says why.
        assert_eq!(q.take(), None);
        assert_eq!(q.take_batch(8), None);
        assert_eq!(q.drain_into(&mut Vec::new()), 0);
        let cause = q.close_cause().expect("closed");
        assert!(cause.is_failed());
        assert_eq!(cause.fault().unwrap().stage(), "stage-x");
        assert_eq!(cause.fault().unwrap().message(), "boom");
    }

    #[test]
    fn first_close_cause_wins() {
        use crate::fault::{CloseCause, Fault};
        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        q.close_with(CloseCause::Failed(Fault::new("s", "first")));
        q.close(); // the late Finished must not launder the failure
        assert!(q.close_cause().unwrap().is_failed());

        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        q.close();
        q.close_with(CloseCause::Failed(Fault::new("s", "late")));
        assert_eq!(q.close_cause(), Some(CloseCause::Finished));
    }

    #[test]
    fn plain_close_reports_finished() {
        use crate::fault::CloseCause;
        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        assert_eq!(q.close_cause(), None);
        q.close();
        assert_eq!(q.take(), None);
        assert_eq!(q.close_cause(), Some(CloseCause::Finished));
    }

    #[test]
    fn blocked_takers_wake_with_the_cause() {
        use crate::fault::{CloseCause, Fault};
        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.take());
        testkit::wait_until("taker parked", || q.blocked_consumers() == 1);
        q.close_with(CloseCause::Failed(Fault::new("producer", "died")));
        assert_eq!(h.join().unwrap(), None);
        let cause = q.close_cause().expect("closed");
        assert_eq!(cause.fault().unwrap().message(), "died");
    }

    #[test]
    fn bounded_capacity_throttles() {
        // A slow consumer bounds how far ahead the producer can run.
        let q = BlockingQueue::bounded(2);
        let q2 = q.clone();
        let produced = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let produced2 = produced.clone();
        let h = thread::spawn(move || {
            for i in 0..100 {
                q2.put(i).unwrap();
                produced2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        });
        // Once the producer is parked on a full queue its progress
        // counter is stable: no consumer exists yet to free space.
        testkit::wait_until("producer throttled", || q.blocked_producers() == 1);
        let ahead = produced.load(std::sync::atomic::Ordering::SeqCst);
        assert!(ahead <= 3, "producer ran ahead: {ahead}");
        for _ in 0..100 {
            q.take().unwrap();
        }
        h.join().unwrap();
    }
}
