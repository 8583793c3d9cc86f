//! The pipe proxy itself.

use crate::producer::{spawn_run, Factory};
use blockingq::{BlockingQueue, CloseCause, Fault};
use gde::{BoxGen, Gen, GenExt, Step, Value};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Default output-queue capacity for pipes.
///
/// Finite so that an unconsumed pipe cannot buffer unboundedly, large
/// enough that a well-matched producer/consumer pair rarely blocks;
/// sweep A of `bench --bin ablations` varies it.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Default transport batch for pipes: the producer accumulates up to this
/// many results locally and moves them across the queue in one
/// `put_all`, and the consumer refills its local buffer with one
/// `take_batch` — one lock/condvar transaction per *chunk* instead of per
/// item. When the consumer outruns the producer it parks at most once per
/// flush, so its blocking episodes are bounded by items/batch: at 128 that
/// bound is two orders of magnitude under item-at-a-time transport, while
/// the batch stays an order of magnitude below [`DEFAULT_CAPACITY`] so a
/// producer still runs several chunks ahead before it throttles. (On the
/// benchmark's `pipe_light`, 20 000 words per pass, that is 157 flushes.)
/// The effective batch is always clamped to the queue capacity so a small
/// capacity still throttles at its configured bound.
pub const DEFAULT_BATCH: usize = 128;

/// What the consumer side of a pipe does when the producer *faults*
/// (its generator — or the transport under fault injection — panics).
///
/// The producer always contains the panic (`catch_unwind`), flushes the
/// clean prefix of results it had already accumulated, and closes the
/// queue with `Failed(Fault)`; the policy decides what the consumer's
/// next take does with that cause.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Default: the consumer's next `resume` surfaces the fault by
    /// panicking with the fault's stage label (`"pipe"`) and message. A
    /// crashed producer is never reported as clean end-of-stream.
    #[default]
    Propagate,
    /// Pre-fault-plane behavior, now opt-in: the stream simply ends
    /// after the clean prefix. The fault is still recorded
    /// ([`Pipe::fault`]) and counted — truncated, but never *silently*.
    Truncate,
    /// Respawn the producer from its factory (the restart `^` machinery)
    /// up to `limit` times, sleeping `backoff` before each respawn, and
    /// resume the stream via clean-prefix replay: the fresh run's first
    /// `produced`-so-far results are discarded, so a deterministic
    /// generator replays bitwise-identically to an unfaulted run. A
    /// fault past the last retry propagates.
    Retry {
        /// Maximum respawns before the fault propagates.
        limit: u32,
        /// Sleep before each respawn (virtual time under schedtest).
        backoff: Duration,
    },
}

/// A multithreaded generator proxy.
///
/// Construction spawns a producer thread that drives the underlying
/// generator to failure, `put`ting each result into a bounded blocking
/// queue; the `Pipe` itself is a [`Gen`] whose `resume` is a `take` from
/// that queue. The surrounding expression therefore "runs in parallel to
/// the piped expression" (Sec. III.B).
///
/// Each run spawns exactly one producer: construction is run 0, and only
/// a restart, a refresh or a `Retry` respawn starts another. Restarting a
/// pipe abandons the current producer (its next `put` fails and the thread
/// exits) and spawns a fresh one over a fresh queue, matching the
/// restart-re-evaluates contract of [`Gen`].
pub struct Pipe {
    factory: Factory,
    batch: usize,
    /// The output queue; its capacity is the pipe's.
    queue: BlockingQueue<Value>,
    /// Consumer-side local buffer: refilled by one `take_batch`, then
    /// handed out item by item without touching the queue lock.
    buf: VecDeque<Value>,
    done: bool,
    produced: u64,
    policy: FaultPolicy,
    /// Last fault observed from the producer (terminal under
    /// `Propagate`/`Truncate`; most recent recovered one under `Retry`).
    fault: Option<Fault>,
    /// Respawns consumed by the `Retry` policy so far.
    retries: u32,
    /// During a retry replay: results of the fresh run still to discard
    /// before the stream continues where the consumer left off.
    replay_skip: u64,
}

impl Pipe {
    /// `|>e` with the default queue capacity. The factory is invoked on the
    /// producer thread to build the generator (and again on restart).
    pub fn new(make: impl Fn() -> BoxGen + Send + Sync + 'static) -> Pipe {
        Pipe::with_capacity(make, DEFAULT_CAPACITY)
    }

    /// `|>e` with a bounded output queue of `capacity` results — the
    /// throttling knob — and the default transport batch.
    pub fn with_capacity(
        make: impl Fn() -> BoxGen + Send + Sync + 'static,
        capacity: usize,
    ) -> Pipe {
        Pipe::batched(make, capacity, DEFAULT_BATCH)
    }

    /// `|>e` with explicit queue capacity *and* transport batch. The
    /// producer accumulates up to `batch` results before crossing the
    /// queue (flushing early on generator failure); the consumer refills
    /// its local buffer with up to `batch` results per queue transaction.
    /// `batch` is clamped to `[1, capacity]` so throttling still binds at
    /// the configured capacity. `batch == 1` reproduces the pre-batching
    /// item-at-a-time transport exactly.
    pub fn batched(
        make: impl Fn() -> BoxGen + Send + Sync + 'static,
        capacity: usize,
        batch: usize,
    ) -> Pipe {
        Pipe::start(
            Arc::new(make),
            capacity,
            batch.clamp(1, capacity.max(1)),
            FaultPolicy::default(),
        )
    }

    /// `|> plan(e)`: a pipe whose producer runs a combinator
    /// [`StagePlan`](gde::comb::fuse::StagePlan) over a source generator,
    /// **fused at `Pipe` construction**. The plan is rewritten once (its
    /// monogenic runs collapse into single composed closures —
    /// `gde.comb.fused_stages` counts the seams eliminated) and the fused
    /// recipe is instantiated afresh on every producer (re)spawn, so
    /// restart re-evaluation still sees a brand-new generator tree while
    /// paying the fusion rewrite exactly once.
    pub fn staged(
        make_source: impl Fn() -> BoxGen + Send + Sync + 'static,
        plan: &gde::comb::fuse::StagePlan,
        capacity: usize,
        batch: usize,
    ) -> Pipe {
        let fused = plan.fuse();
        Pipe::batched(move || fused.instantiate(make_source()), capacity, batch)
    }

    /// The one place a `Pipe` is built: a producer for the recipe over a
    /// fresh queue, and the consumer at the start of its stream.
    fn start(factory: Factory, capacity: usize, batch: usize, policy: FaultPolicy) -> Pipe {
        Pipe {
            queue: spawn_run(&factory, capacity, batch),
            factory,
            batch,
            buf: VecDeque::new(),
            done: false,
            produced: 0,
            policy,
            fault: None,
            retries: 0,
            replay_skip: 0,
        }
    }

    /// A fresh run of the same recipe (factory, capacity, batch, policy):
    /// what restart and refresh both are.
    fn rerun(&self) -> Pipe {
        Pipe::start(
            Arc::clone(&self.factory),
            self.queue.capacity(),
            self.batch,
            self.policy.clone(),
        )
    }

    /// Builder-style fault policy override. Purely consumer-side: it
    /// does not respawn the producer and may be set at any point before
    /// the fault is observed.
    pub fn with_policy(mut self, policy: FaultPolicy) -> Pipe {
        self.policy = policy;
        self
    }

    /// The transport batch actually in effect (post-clamping).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The last fault observed from the producer, if any: terminal under
    /// `Propagate`/`Truncate`, the most recently *recovered* one under
    /// `Retry`. Reset by [`Gen::restart`].
    pub fn fault(&self) -> Option<&Fault> {
        self.fault.as_ref()
    }

    /// Producer respawns consumed by the `Retry` policy since the last
    /// restart.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// The output blocking queue, exposed for further manipulation
    /// (draining, length inspection, early close). Note that with
    /// batching, up to `batch - 1` further results may sit in the
    /// consumer's local buffer rather than in this queue.
    pub fn queue(&self) -> &BlockingQueue<Value> {
        &self.queue
    }

    /// Box the pipe as a generic generator.
    pub fn boxed(self) -> BoxGen {
        Box::new(self)
    }

    /// Policy dispatch on a `Failed` close cause. `None` means the fault
    /// was recovered (`Retry` respawned the producer) and the consumer
    /// should take again; `Some(step)` ends the stream; `Propagate` (and
    /// an exhausted `Retry`) panics with the fault instead.
    fn handle_fault(&mut self, fault: Fault) -> Option<Step> {
        match self.policy {
            FaultPolicy::Retry { limit, backoff } if self.retries < limit => {
                self.retries += 1;
                obs_on!(crate::stats::pipe().faults_retried.inc(););
                self.fault = Some(fault);
                if !backoff.is_zero() {
                    // Virtual time under --cfg schedtest.
                    parking_lot::thread::sleep(backoff);
                }
                // Clean-prefix replay: anything still in the local buffer
                // belongs to the dead run; the fresh run re-produces the
                // whole stream and the consumer discards the first
                // `produced` results it has already handed out.
                self.buf.clear();
                self.replay_skip = self.produced;
                let capacity = self.queue.capacity();
                self.queue = spawn_run(&self.factory, capacity, self.batch);
                None
            }
            FaultPolicy::Truncate => {
                // Pre-fault-plane behavior: end the stream after the
                // clean prefix, but keep the fault inspectable.
                self.fault = Some(fault);
                self.done = true;
                Some(Step::Fail)
            }
            _ => {
                obs_on!(crate::stats::pipe().faults_propagated.inc(););
                // done first: a caught propagation followed by another
                // resume must observe end-of-stream, not re-take.
                self.done = true;
                self.fault = Some(fault.clone());
                panic!("{fault}");
            }
        }
    }
}

impl Gen for Pipe {
    fn resume(&mut self) -> Step {
        if let Some(v) = self.buf.pop_front() {
            self.produced += 1;
            return Step::Suspend(v);
        }
        if self.done {
            return Step::Fail;
        }
        // Local buffer dry: refill with up to a whole batch in one queue
        // transaction (blocking until the producer delivers a chunk). The
        // loop re-takes after a retry respawn or an all-replay chunk.
        loop {
            let Some(mut chunk) = self.queue.take_batch(self.batch) else {
                // End of stream: the (first, final) close cause says why.
                if let Some(CloseCause::Failed(fault)) = self.queue.close_cause() {
                    match self.handle_fault(fault) {
                        Some(step) => return step,
                        None => continue,
                    }
                }
                self.done = true;
                return Step::Fail;
            };
            if self.replay_skip > 0 {
                let skip = (self.replay_skip as usize).min(chunk.len());
                chunk.drain(..skip);
                self.replay_skip -= skip as u64;
                if chunk.is_empty() {
                    continue;
                }
            }
            self.buf = VecDeque::from(chunk);
            let v = self.buf.pop_front().expect("non-empty after replay skip");
            self.produced += 1;
            return Step::Suspend(v);
        }
    }

    fn restart(&mut self) {
        // Abandon the old producer (dropping the old pipe closes its
        // queue, so the producer exits on its next put) and start a fresh
        // run: restart re-evaluates the piped expression. Locally buffered
        // results and the fault/retry state belong to the abandoned run.
        *self = self.rerun();
    }
}

/// A pipe is also a first-class iterator in the calculus: `t := |>e`
/// assigns the proxy, `@t` steps it, `!t` promotes it back to a generator,
/// and `^t` spawns a refreshed copy. This impl is what lets a pipe live
/// inside a [`Value::Co`].
impl gde::Coroutine for Pipe {
    fn step(&mut self) -> Option<Value> {
        self.next_value()
    }
    fn restart(&mut self) {
        Gen::restart(self)
    }
    fn refreshed(&self) -> Option<gde::CoRef> {
        Some(std::sync::Arc::new(parking_lot::Mutex::new(self.rerun())))
    }
    fn produced(&self) -> u64 {
        self.produced
    }
}

/// `|>e` as a first-class [`Value`]: spawns the producer thread and wraps
/// the proxy as a co-expression value.
pub fn pipe_value(make: impl Fn() -> BoxGen + Send + Sync + 'static, capacity: usize) -> Value {
    Value::Co(std::sync::Arc::new(parking_lot::Mutex::new(
        Pipe::with_capacity(make, capacity),
    )))
}

impl Drop for Pipe {
    fn drop(&mut self) {
        // Unblock and terminate the producer if it is still running.
        self.queue.close();
    }
}

/// Convenience constructor mirroring the paper's `|>e` notation.
pub fn pipe(make: impl Fn() -> BoxGen + Send + Sync + 'static) -> Pipe {
    Pipe::new(make)
}

/// Drain a pipe into a vector (drives it to failure).
pub fn drain(mut p: Pipe) -> Vec<Value> {
    p.collect_values()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockingq::testkit;
    use gde::comb::{thunk, to_range, values};
    use gde::Var;

    fn ints(vals: &[Value]) -> Vec<i64> {
        vals.iter().map(|v| v.as_int().unwrap()).collect()
    }

    #[test]
    fn pipe_preserves_sequence_and_order() {
        let p = pipe(|| Box::new(to_range(1, 100, 1)));
        assert_eq!(ints(&drain(p)), (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_generator_fails_immediately() {
        let mut p = pipe(|| Box::new(gde::comb::fail()));
        assert_eq!(p.resume(), Step::Fail);
        assert_eq!(p.resume(), Step::Fail);
    }

    #[test]
    fn pipe_runs_concurrently_with_consumer() {
        // The producer makes progress while the consumer merely watches:
        // the queue fills with buffered results before the first take.
        let p = Pipe::with_capacity(|| Box::new(to_range(1, 64, 1)), 64);
        testkit::wait_until("producer ran ahead", || !p.queue().is_empty());
        assert_eq!(ints(&drain(p)), (1..=64).collect::<Vec<_>>());
    }

    /// An infinite counting source that records its progress in `progress`.
    fn counting_src(progress: Var) -> impl Fn() -> BoxGen + Send + Sync + 'static {
        move || {
            let progress = progress.clone();
            let counter = std::sync::Arc::new(std::sync::atomic::AtomicI64::new(0));
            Box::new(gde::comb::repeat_alt(thunk(move || {
                let n = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                progress.set(Value::from(n));
                Some(Value::from(n))
            }))) as BoxGen
        }
    }

    #[test]
    fn capacity_throttles_producer() {
        let progress = Var::new(Value::from(0));
        // batch(1): item-at-a-time transport, the pre-batching bound.
        let p = Pipe::batched(counting_src(progress.clone()), 4, 1);
        // Producer is unbounded but must stall within capacity + 1: wait
        // for it to park in `put` on the full queue, then check how far
        // it got. No consumer runs, so the parked state is stable.
        testkit::wait_until("producer throttled", || p.queue().blocked_producers() == 1);
        let ahead = progress.get().as_int().unwrap();
        assert!(
            ahead <= 5,
            "producer ran ahead of the bounded queue: {ahead}"
        );
        drop(p); // close unblocks the producer thread
    }

    #[test]
    fn capacity_throttles_batched_producer() {
        // With chunking the producer may additionally hold one local chunk
        // (clamped to capacity), so the run-ahead bound is
        // capacity + effective_batch + 1; the default batch (128) clamps to
        // the capacity (4) here.
        let progress = Var::new(Value::from(0));
        let p = Pipe::with_capacity(counting_src(progress.clone()), 4);
        assert_eq!(p.batch(), 4, "batch clamps to capacity");
        // Full queue + full local chunk: the producer parks in `put_all`.
        testkit::wait_until("producer throttled", || p.queue().blocked_producers() == 1);
        let ahead = progress.get().as_int().unwrap();
        assert!(
            ahead <= 4 + 4 + 1,
            "producer ran ahead of capacity + batch: {ahead}"
        );
        drop(p);
    }

    #[test]
    fn batch_sizes_preserve_sequence() {
        for batch in [1, 2, 7, 32, 1000] {
            let p = Pipe::batched(|| Box::new(to_range(1, 100, 1)), 16, batch);
            assert_eq!(
                ints(&drain(p)),
                (1..=100).collect::<Vec<_>>(),
                "batch {batch} changed the sequence"
            );
        }
    }

    #[test]
    fn staged_pipe_fuses_at_construction_and_survives_restart() {
        // The plan fuses once; each producer (re)spawn instantiates the
        // fused recipe over a fresh source, so restart re-evaluation holds.
        let plan = gde::comb::fuse::StagePlan::new()
            .map(|v| Value::from(v.as_int().unwrap() * 2))
            .filter(|v| v.as_int().unwrap() % 4 == 0);
        let mut p = Pipe::staged(|| Box::new(to_range(1, 10, 1)), &plan, 8, 4);
        let want: Vec<i64> = (1..=10).map(|i| i * 2).filter(|i| i % 4 == 0).collect();
        assert_eq!(ints(&p.collect_values()), want);
        Gen::restart(&mut p);
        assert_eq!(ints(&p.collect_values()), want);
    }

    #[test]
    fn restart_discards_locally_buffered_chunk() {
        let mut p = Pipe::batched(|| Box::new(to_range(1, 9, 1)), 16, 4);
        // Consume one value: the consumer buffer now holds 2..=4.
        assert_eq!(p.next_value().and_then(|v| v.as_int()), Some(1));
        p.restart();
        assert_eq!(ints(&p.collect_values()), (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn chained_pipes_form_a_pipeline() {
        // stage 1: 1..10; stage 2: squares of stage-1 results; both threaded.
        let stage1 = || Box::new(to_range(1, 10, 1)) as BoxGen;
        let p2 = pipe(move || {
            let inner = pipe(stage1);
            Box::new(gde::comb::filter_map(inner, |v| gde::ops::mul(v, v)))
        });
        assert_eq!(
            ints(&drain(p2)),
            (1..=10).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn restart_respawns_and_reevaluates() {
        let bound = Var::new(Value::from(3));
        let bound2 = bound.clone();
        let mut p = pipe(move || {
            let n = bound2.get().as_int().unwrap();
            Box::new(to_range(1, n, 1))
        });
        assert_eq!(ints(&p.collect_values()), vec![1, 2, 3]);
        bound.set(Value::from(5));
        p.restart();
        assert_eq!(ints(&p.collect_values()), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn values_are_deep_copied_across_the_boundary() {
        let shared = Value::list(vec![Value::from(1)]);
        let shared2 = shared.clone();
        let p = pipe(move || Box::new(values(vec![shared2.clone()])));
        let got = drain(p);
        // Mutating the received list must not affect the producer's.
        if let Value::List(l) = &got[0] {
            l.lock().push(Value::from(2));
        }
        assert_eq!(shared.size(), Some(1));
    }

    #[test]
    fn dropping_unconsumed_pipe_does_not_hang() {
        // An infinite producer must be reaped when the pipe is dropped.
        let p = Pipe::with_capacity(
            || Box::new(gde::comb::repeat_alt(thunk(|| Some(Value::from(1))))),
            2,
        );
        // Wait until the producer is genuinely parked on the full queue so
        // the drop exercises the close-wakes-blocked-put path every run.
        testkit::wait_until("producer parked", || p.queue().blocked_producers() == 1);
        drop(p);
        // Reaching here without deadlock is the assertion: drop closes the
        // queue, which fails the pending put and reaps the producer.
    }

    /// A source that yields `0..` but panics when it is about to yield
    /// `panic_at` — on its first `runs_before_clean` runs only, so retry
    /// respawns eventually see a clean pass.
    fn faulty_src(
        panic_at: i64,
        runs_before_clean: usize,
        end: i64,
    ) -> impl Fn() -> BoxGen + Send + Sync + 'static {
        let runs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        move || {
            let run = runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let counter = std::sync::Arc::new(std::sync::atomic::AtomicI64::new(0));
            let faulty = run < runs_before_clean;
            Box::new(gde::comb::repeat_alt(thunk(move || {
                let n = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if faulty {
                    assert!(n != panic_at, "injected producer failure");
                }
                if n > end {
                    return None;
                }
                Some(Value::from(n))
            }))) as BoxGen
        }
    }

    /// Each way a run faults, with the clean prefix it delivers and the
    /// fault's message: the generator panics mid-stream, or the factory
    /// panics before any generator exists.
    fn faulting_pipes() -> [(Pipe, Vec<i64>, &'static str); 2] {
        let src = faulty_src(3, usize::MAX, 10);
        [
            (pipe(src), vec![0, 1, 2], "injected producer failure"),
            (pipe(|| panic!("factory failed")), vec![], "factory failed"),
        ]
    }

    #[test]
    fn panicking_producer_fails_the_stream_not_clean_eos() {
        // A producer that panics must yield `Failed(..)` to the consumer —
        // under the default `Propagate` policy that surfaces as a panic
        // from resume naming the fault, never as a clean end-of-stream
        // (and never a hang).
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for (mut p, _, message) in faulting_pipes() {
            let err = catch_unwind(AssertUnwindSafe(|| p.collect_values())).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains(message), "panic names the fault: {msg}");
            assert_eq!(msg.matches("failed:").count(), 1, "one stage name: {msg}");
            let fault = p.fault().expect("fault recorded");
            assert_eq!(fault.stage(), "pipe");
            assert!(fault.message().contains(message), "{fault}");
            // The cause on the queue itself is Failed, not Finished.
            assert!(p.queue().close_cause().expect("closed").is_failed());
            // After a caught propagation the stream reports end-of-stream.
            assert_eq!(p.resume(), Step::Fail);
        }
    }

    #[test]
    fn truncate_policy_keeps_clean_prefix_and_records_fault() {
        for (p, prefix, message) in faulting_pipes() {
            let mut p = p.with_policy(FaultPolicy::Truncate);
            // With the default batch the clean prefix arrives in the chunk
            // flushed by the producer's exit path.
            assert_eq!(ints(&p.collect_values()), prefix, "clean prefix only");
            let fault = p.fault().expect("fault recorded");
            assert_eq!(fault.stage(), "pipe");
            assert!(fault.message().contains(message), "{fault}");
            assert_eq!(p.resume(), Step::Fail); // stream is closed, not hung
        }
    }

    #[test]
    fn retry_policy_replays_bitwise_identically() {
        // Differential fixture: a deterministic source that faults on its
        // first run must, under Retry, deliver exactly the sequence an
        // unfaulted run would have — clean-prefix replay discards the
        // fresh run's already-delivered prefix.
        for batch in [1, 2, 128] {
            // Construction spawns run 0 (faulty); the retry respawn is
            // run 1 (clean).
            let src = faulty_src(3, 1, 9);
            let mut p = Pipe::batched(src, 16, batch).with_policy(FaultPolicy::Retry {
                limit: 2,
                backoff: Duration::ZERO,
            });
            let got = ints(&p.collect_values());
            assert_eq!(got, (0..=9).collect::<Vec<_>>(), "batch {batch}");
            assert_eq!(p.retries(), 1);
            // The recovered fault stays inspectable.
            assert_eq!(p.fault().expect("recovered fault").stage(), "pipe");
        }
    }

    #[test]
    fn retry_exhaustion_propagates() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Faults on every run: two respawns are consumed, then the third
        // fault propagates.
        let src = faulty_src(2, usize::MAX, 9);
        let mut p = pipe(src).with_policy(FaultPolicy::Retry {
            limit: 2,
            backoff: Duration::ZERO,
        });
        let err = catch_unwind(AssertUnwindSafe(|| p.collect_values())).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected producer failure"), "{msg}");
        assert_eq!(p.fault().expect("fault recorded").stage(), "pipe");
        assert_eq!(p.retries(), 2, "both respawns consumed");
        assert_eq!(p.resume(), Step::Fail);
    }

    #[test]
    fn restart_resets_fault_state() {
        // Construction spawns run 0 (faulty), the retry run 1 (clean).
        let src = faulty_src(3, 1, 5);
        let mut p = pipe(src).with_policy(FaultPolicy::Retry {
            limit: 1,
            backoff: Duration::ZERO,
        });
        assert_eq!(ints(&p.collect_values()), (0..=5).collect::<Vec<_>>());
        assert_eq!(p.retries(), 1);
        Gen::restart(&mut p);
        assert_eq!(p.retries(), 0);
        assert!(p.fault().is_none());
        // The restart spawns run 2, which is clean like run 1.
        assert_eq!(ints(&p.collect_values()), (0..=5).collect::<Vec<_>>());
    }

    #[test]
    fn pipe_composes_with_product() {
        // x * !(|> y): cross product where the right factor is threaded.
        let g = gde::comb::product_map(
            to_range(1, 2, 1),
            |_| pipe(|| Box::new(to_range(10, 11, 1))).boxed(),
            gde::ops::mul,
        );
        let mut g = g;
        assert_eq!(ints(&g.collect_values()), vec![10, 11, 20, 22]);
    }
}
