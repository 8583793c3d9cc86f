//! A bounded MPMC blocking queue with close semantics and batch
//! operations that amortize the per-element lock/condvar cost.

use crate::fault::CloseCause;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Error returned by [`BlockingQueue::put`] when the queue has been closed;
/// carries the rejected element back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct PutError<T>(pub T);

/// Error returned by [`BlockingQueue::try_put`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryPutError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The queue has been closed.
    Closed(T),
}

/// Error returned by [`BlockingQueue::take_timeout`] when the deadline
/// passes without an element or a close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut;

/// Error returned by [`BlockingQueue::try_take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryTakeError {
    /// The queue is currently empty (but not closed).
    Empty,
    /// The queue is closed and fully drained.
    Closed,
}

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
/// observe end-of-stream (`None`). This is how a pipe signals that its
/// underlying generator failed (terminated). The close carries a
/// [`CloseCause`]: plain [`BlockingQueue::close`] records `Finished`
/// (clean end-of-stream), while [`BlockingQueue::close_with`] can record
/// `Failed(Fault)` so consumers — via the `*_with_cause` take variants or
/// [`BlockingQueue::close_cause`] — can tell a crash from completion.
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
                capacity: capacity.max(1),
            }),
        }
    }

    /// Create a queue with no capacity bound; `put` never blocks.
    pub fn unbounded() -> Self {
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
                capacity: usize::MAX,
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

    /// True iff [`BlockingQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.shared.state.lock().cause.is_some()
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

    /// Block until space is available, then enqueue `v`.
    ///
    /// Returns `Err(PutError(v))` if the queue is (or becomes, while
    /// waiting) closed.
    pub fn put(&self, v: T) -> Result<(), PutError<T>> {
        faultpoint!("blockingq.put");
        let mut st = self.shared.state.lock();
        obs_on!(let mut waited = false;);
        loop {
            if st.cause.is_some() {
                return Err(PutError(v));
            }
            if st.buf.len() < self.shared.capacity {
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
                return Ok(());
            }
            obs_on!(if !waited {
                waited = true;
                crate::stats::queue().blocked_puts.inc();
            });
            st.put_waiters += 1;
            self.shared.not_full.wait(&mut st);
            st.put_waiters -= 1;
        }
    }

    /// Enqueue without blocking.
    pub fn try_put(&self, v: T) -> Result<(), TryPutError<T>> {
        let mut st = self.shared.state.lock();
        if st.cause.is_some() {
            return Err(TryPutError::Closed(v));
        }
        if st.buf.len() >= self.shared.capacity {
            return Err(TryPutError::Full(v));
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
        obs_on!(let total = items.len(); let mut accepted = 0usize;);
        let mut iter = items.into_iter().peekable();
        let mut st = self.shared.state.lock();
        obs_on!(let mut waited = false;);
        loop {
            if st.cause.is_some() {
                drop(st);
                let rest: Vec<T> = iter.collect();
                obs_on!({
                    accepted = total - rest.len();
                    record_batch_put(accepted, 0);
                });
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
                obs_on!({
                    let _ = accepted;
                    record_batch_put(total, depth);
                });
                return Ok(());
            }
            // Partial fill: make the accepted prefix visible to consumers
            // before sleeping, or a full queue with a blocked consumer
            // elsewhere could deadlock on a never-sent wakeup.
            if moved {
                self.shared.not_empty.notify_all();
            }
            obs_on!(if !waited {
                waited = true;
                crate::stats::queue().blocked_puts.inc();
            });
            st.put_waiters += 1;
            self.shared.not_full.wait(&mut st);
            st.put_waiters -= 1;
        }
    }

    /// Enqueue as much of a batch as fits, without blocking.
    ///
    /// * `Ok(())` — every element was enqueued.
    /// * `Err(TryPutError::Closed(items))` — the queue is closed; nothing
    ///   was enqueued, the whole batch is refunded.
    /// * `Err(TryPutError::Full(suffix))` — the fitting prefix **was
    ///   enqueued**; `suffix` is the refunded remainder (non-empty). The
    ///   accepted count is the original length minus `suffix.len()`.
    ///
    /// An empty batch succeeds trivially.
    pub fn try_put_all(&self, items: Vec<T>) -> Result<(), TryPutError<Vec<T>>> {
        if items.is_empty() {
            return Ok(());
        }
        let mut st = self.shared.state.lock();
        if st.cause.is_some() {
            return Err(TryPutError::Closed(items));
        }
        let room = self.shared.capacity - st.buf.len();
        if room == 0 {
            return Err(TryPutError::Full(items));
        }
        if items.len() <= room {
            obs_on!(let n = items.len(););
            st.buf.extend(items);
            obs_on!(let depth = st.buf.len(););
            drop(st);
            self.shared.not_empty.notify_all();
            obs_on!(record_batch_put(n, depth););
            Ok(())
        } else {
            let mut iter = items.into_iter();
            for _ in 0..room {
                st.buf.push_back(iter.next().expect("room < len"));
            }
            obs_on!(let depth = st.buf.len(););
            drop(st);
            self.shared.not_empty.notify_all();
            obs_on!(record_batch_put(room, depth););
            Err(TryPutError::Full(iter.collect()))
        }
    }

    /// Block until an element is available and dequeue it.
    ///
    /// Returns `None` once the queue is closed *and* drained. Callers
    /// that need to distinguish a clean end from a failure use
    /// [`BlockingQueue::take_with_cause`].
    pub fn take(&self) -> Option<T> {
        self.take_with_cause().ok()
    }

    /// Like [`BlockingQueue::take`], but end-of-stream returns the
    /// recorded [`CloseCause`] instead of a bare `None`.
    pub fn take_with_cause(&self) -> Result<T, CloseCause> {
        faultpoint!("blockingq.take");
        let mut st = self.shared.state.lock();
        obs_on!(let mut waited = false;);
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                obs_on!(crate::stats::queue().takes.inc(););
                return Ok(v);
            }
            if let Some(cause) = &st.cause {
                return Err(cause.clone());
            }
            obs_on!(if !waited {
                waited = true;
                crate::stats::queue().blocked_takes.inc();
            });
            st.take_waiters += 1;
            self.shared.not_empty.wait(&mut st);
            st.take_waiters -= 1;
        }
    }

    /// Dequeue without blocking.
    pub fn try_take(&self) -> Result<T, TryTakeError> {
        let mut st = self.shared.state.lock();
        if let Some(v) = st.buf.pop_front() {
            drop(st);
            self.shared.not_full.notify_one();
            obs_on!(crate::stats::queue().takes.inc(););
            return Ok(v);
        }
        if st.cause.is_some() {
            Err(TryTakeError::Closed)
        } else {
            Err(TryTakeError::Empty)
        }
    }

    /// Block until at least one element is available, then dequeue up to
    /// `max` elements in a single mutex acquisition, preserving FIFO
    /// order. Returns `None` once the queue is closed *and* drained.
    ///
    /// `max == 0` yields an empty batch immediately, without blocking or
    /// consulting the queue (the degenerate no-op batch).
    pub fn take_batch(&self, max: usize) -> Option<Vec<T>> {
        self.take_batch_with_cause(max).ok()
    }

    /// Like [`BlockingQueue::take_batch`], but end-of-stream returns the
    /// recorded [`CloseCause`] instead of a bare `None`.
    pub fn take_batch_with_cause(&self, max: usize) -> Result<Vec<T>, CloseCause> {
        if max == 0 {
            return Ok(Vec::new());
        }
        faultpoint!("blockingq.take");
        let mut st = self.shared.state.lock();
        obs_on!(let mut waited = false;);
        loop {
            if !st.buf.is_empty() {
                let n = st.buf.len().min(max);
                let out: Vec<T> = st.buf.drain(..n).collect();
                drop(st);
                self.shared.not_full.notify_all();
                obs_on!(record_batch_take(n););
                return Ok(out);
            }
            if let Some(cause) = &st.cause {
                return Err(cause.clone());
            }
            obs_on!(if !waited {
                waited = true;
                crate::stats::queue().blocked_takes.inc();
            });
            st.take_waiters += 1;
            self.shared.not_empty.wait(&mut st);
            st.take_waiters -= 1;
        }
    }

    /// Block until at least one element is available, then move the
    /// *entire* buffered contents into `out` (appending, FIFO order) in a
    /// single mutex acquisition. Returns the number of elements moved;
    /// `0` means the queue is closed and drained (end-of-stream; the
    /// reason is [`BlockingQueue::close_cause`]).
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut st = self.shared.state.lock();
        obs_on!(let mut waited = false;);
        loop {
            if !st.buf.is_empty() {
                let n = st.buf.len();
                out.reserve(n);
                out.extend(st.buf.drain(..));
                drop(st);
                self.shared.not_full.notify_all();
                obs_on!(record_batch_take(n););
                return n;
            }
            if st.cause.is_some() {
                return 0;
            }
            obs_on!(if !waited {
                waited = true;
                crate::stats::queue().blocked_takes.inc();
            });
            st.take_waiters += 1;
            self.shared.not_empty.wait(&mut st);
            st.take_waiters -= 1;
        }
    }

    /// Like [`BlockingQueue::take`] but gives up after `timeout`,
    /// returning `Ok(None)` on end-of-stream and `Err(TimedOut)` on timeout.
    ///
    /// `Err(TimedOut)` is only returned when the queue is genuinely empty
    /// and open when the wait ends: an element enqueued (or a close
    /// recorded) at-or-before the deadline is returned even if the
    /// condvar wait itself reports a timeout — a timed wake re-checks the
    /// state before giving up, so a put that landed at the deadline is
    /// never lost to a spurious `TimedOut`.
    pub fn take_timeout(&self, timeout: Duration) -> Result<Option<T>, TimedOut> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        obs_on!(let mut waited = false;);
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                obs_on!(crate::stats::queue().takes.inc(););
                return Ok(Some(v));
            }
            if st.cause.is_some() {
                return Ok(None);
            }
            obs_on!(if !waited {
                waited = true;
                crate::stats::queue().blocked_takes.inc();
            });
            st.take_waiters += 1;
            let timed_out = self
                .shared
                .not_empty
                .wait_until(&mut st, deadline)
                .timed_out();
            st.take_waiters -= 1;
            if timed_out {
                // Timed out *and* raced a put/close: the state re-check
                // wins over the timeout report.
                if let Some(v) = st.buf.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    obs_on!(crate::stats::queue().takes.inc(););
                    return Ok(Some(v));
                }
                if st.cause.is_some() {
                    return Ok(None);
                }
                return Err(TimedOut);
            }
        }
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
    /// close-on-exit guard running *after* a fault was recorded cannot
    /// launder a `Failed` into a `Finished`, and vice versa a consumer
    /// that already hung up keeps its `Finished`).
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
    if n == 0 {
        return;
    }
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
    use std::time::Duration;

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
        assert!(matches!(q.try_put(2), Err(TryPutError::Full(2))));
    }

    #[test]
    fn try_take_empty_and_closed() {
        let q: BlockingQueue<i32> = BlockingQueue::bounded(2);
        assert_eq!(q.try_take(), Err(TryTakeError::Empty));
        q.close();
        assert_eq!(q.try_take(), Err(TryTakeError::Closed));
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
    fn take_timeout_times_out_then_succeeds() {
        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        assert_eq!(q.take_timeout(Duration::from_millis(10)), Err(TimedOut));
        q.put(5).unwrap();
        assert_eq!(q.take_timeout(Duration::from_millis(10)), Ok(Some(5)));
        q.close();
        assert_eq!(q.take_timeout(Duration::from_millis(10)), Ok(None));
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
        assert_eq!(q.try_put_all(vec![]), Ok(()));
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
    fn try_put_all_partial_accept_reports_suffix() {
        let q = BlockingQueue::bounded(3);
        q.put(0).unwrap();
        match q.try_put_all(vec![1, 2, 3, 4]) {
            Err(TryPutError::Full(rest)) => assert_eq!(rest, vec![3, 4]),
            other => panic!("expected Full suffix, got {other:?}"),
        }
        assert_eq!(q.take_batch(10), Some(vec![0, 1, 2]));
        // At capacity: nothing accepted, whole batch refunded.
        q.put_all(vec![9, 9, 9]).unwrap();
        assert_eq!(q.try_put_all(vec![5]), Err(TryPutError::Full(vec![5])));
        q.close();
        assert_eq!(
            q.try_put_all(vec![6, 7]),
            Err(TryPutError::Closed(vec![6, 7]))
        );
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
        assert_eq!(q.take_with_cause(), Ok(1));
        assert_eq!(q.take_batch_with_cause(8), Ok(vec![2]));
        // ...then every take shape reports the cause, repeatably.
        let cause = q.take_with_cause().expect_err("ended");
        assert!(cause.is_failed());
        assert_eq!(cause.fault().unwrap().stage(), "stage-x");
        assert_eq!(cause.fault().unwrap().message(), "boom");
        assert_eq!(q.take_batch_with_cause(8).expect_err("ended"), cause);
        assert_eq!(q.close_cause(), Some(cause));
        // The legacy shapes still see a plain end-of-stream.
        assert_eq!(q.take(), None);
        assert_eq!(q.take_batch(8), None);
        assert_eq!(q.drain_into(&mut Vec::new()), 0);
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
        assert_eq!(q.take_with_cause(), Err(CloseCause::Finished));
        assert_eq!(q.close_cause(), Some(CloseCause::Finished));
    }

    #[test]
    fn blocked_takers_wake_with_the_cause() {
        use crate::fault::{CloseCause, Fault};
        let q: BlockingQueue<i32> = BlockingQueue::bounded(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.take_with_cause());
        testkit::wait_until("taker parked", || q.blocked_consumers() == 1);
        q.close_with(CloseCause::Failed(Fault::new("producer", "died")));
        let cause = h.join().unwrap().expect_err("ended");
        assert_eq!(cause.fault().unwrap().message(), "died");
    }

    #[test]
    fn take_timeout_prefers_item_over_concurrent_deadline() {
        // Deterministic corner: an element already buffered is returned
        // even when the deadline has long passed (a zero-length timeout
        // with data present must not report TimedOut).
        let q = BlockingQueue::bounded(2);
        q.put(7).unwrap();
        assert_eq!(q.take_timeout(Duration::from_millis(0)), Ok(Some(7)));
        q.close();
        assert_eq!(q.take_timeout(Duration::from_millis(0)), Ok(None));
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
