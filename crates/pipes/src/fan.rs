//! Fan-in combinators over multiple pipes.
//!
//! The paper's calculus composes pipes one at a time; real pipelines often
//! fan several producers into one consumer. Two disciplines are provided,
//! matching the two orderings a goal-directed program can want:
//!
//! * [`merge`] — *arrival order*: values are forwarded to a shared queue as
//!   each producer makes them, so the consumer sees an interleaving
//!   determined by runtime speed (maximum throughput, no ordering);
//! * [`round_robin`] — *deterministic interleave*: one value from each
//!   source in turn (skipping exhausted ones), the ordered analogue of
//!   alternately activating co-expressions with `@`.

use crate::producer::{spawn_producer, Factory, Site};
use blockingq::{BlockingQueue, CloseCause, Fault};
use gde::{BoxGen, Gen, Step, Value};
use parking_lot::sync::atomic::{AtomicUsize, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

/// Fairness cap on the per-source transport batch in [`merge`]: however
/// large a batch is requested, no single source may move more than this
/// many values per queue transaction, so one fast producer cannot
/// monopolize arbitrarily long runs of the arrival-order stream while the
/// others are starved of queue space.
pub const MERGE_BATCH_FAIRNESS_CAP: usize = 8;

/// What a [`merge`] fan-in does when one of its source producers faults
/// (its factory or generator panics). Either way the panic is contained in
/// the source's thread and the source's clean prefix is still delivered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FanPolicy {
    /// Default: the first fault cancels the whole fan-in — the shared
    /// queue closes `Failed(Fault)` (cancelling the sibling producers,
    /// whose next put fails) and the consumer's next `resume` surfaces
    /// the fault by panicking.
    #[default]
    FailFast,
    /// Drop the faulted source and keep merging the survivors: the
    /// stream ends cleanly when the remaining sources are exhausted, and
    /// [`Merge::degraded_sources`] (plus the
    /// `pipes.faults.degraded_sources` counter) reports how many sources
    /// were lost.
    Degrade,
}

/// Merge several generator factories into one generator, each running on
/// its own producer thread, values in arrival order. The stream ends when
/// every producer has failed.
///
/// The default transport is item-at-a-time (`batch == 1`), preserving the
/// finest arrival-order interleaving; [`Merge::with_batch`] enables
/// chunked transport (capped by [`MERGE_BATCH_FAIRNESS_CAP`] per source).
pub fn merge(sources: Vec<Box<dyn Fn() -> BoxGen + Send + Sync>>, capacity: usize) -> Merge {
    Merge {
        sources: sources.into_iter().map(Factory::from).collect(),
        capacity: capacity.max(1),
        batch: 1,
        policy: FanPolicy::default(),
        state: None,
        buf: VecDeque::new(),
        fault: None,
    }
}

pub struct Merge {
    sources: Vec<Factory>,
    capacity: usize,
    batch: usize,
    policy: FanPolicy,
    state: Option<MergeState>,
    /// Consumer-side local buffer, refilled by one `take_batch`.
    buf: VecDeque<Value>,
    /// The fault that cancelled the fan-in (`FailFast` only). Once set,
    /// later resumes report end-of-stream instead of respawning.
    fault: Option<Fault>,
}

struct MergeState {
    queue: BlockingQueue<Value>,
    /// Sources dropped by [`FanPolicy::Degrade`] in this run.
    degraded: Arc<AtomicUsize>,
}

impl Merge {
    /// Builder-style transport batch: each source producer accumulates up
    /// to `batch` values (clamped to `[1, MERGE_BATCH_FAIRNESS_CAP]` and
    /// to the shared queue capacity) and moves them in one `put_all`.
    /// Chunks from different sources never interleave *within* a chunk,
    /// so per-source FIFO order is preserved; the cap keeps round-robin-ish
    /// arrival fairness honest. Takes effect immediately: if producers are
    /// already running with the old batch, their queue is closed and the
    /// next `resume` respawns them with the new one (the stream restarts
    /// from the top, exactly like [`Gen::restart`]).
    pub fn with_batch(mut self, batch: usize) -> Merge {
        self.batch = batch.clamp(1, MERGE_BATCH_FAIRNESS_CAP).min(self.capacity);
        self.stop();
        self
    }

    /// The per-source transport batch in effect (post-clamping).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Builder-style fault policy. Takes effect on the next (re)spawn:
    /// like [`Merge::with_batch`], setting it after the producers are
    /// running closes the stale state so the next `resume` restarts the
    /// stream under the new policy.
    pub fn with_policy(mut self, policy: FanPolicy) -> Merge {
        self.policy = policy;
        self.stop();
        self
    }

    /// The fault that cancelled the fan-in, if any (`FailFast` only;
    /// `Degrade` never cancels). Reset by [`Gen::restart`].
    pub fn fault(&self) -> Option<&Fault> {
        self.fault.as_ref()
    }

    /// Sources dropped by [`FanPolicy::Degrade`] since the last
    /// (re)spawn.
    pub fn degraded_sources(&self) -> usize {
        self.state
            .as_ref()
            .map_or(0, |st| st.degraded.load(Ordering::Acquire))
    }

    /// Abandon the running producers, if any (closing their queue fails
    /// their next put), and the values buffered from them.
    fn stop(&mut self) {
        if let Some(st) = self.state.take() {
            st.queue.close();
        }
        self.buf.clear();
    }

    /// The shared queue, spawning one producer per source on first use.
    fn queue(&mut self) -> &BlockingQueue<Value> {
        let state = self.state.get_or_insert_with(|| {
            let queue = BlockingQueue::bounded(self.capacity);
            // Atomics go through the parking_lot shim so they are visible
            // to the explorer under --cfg schedtest.
            let remaining = Arc::new(AtomicUsize::new(self.sources.len()));
            let degraded = Arc::new(AtomicUsize::new(0));
            if self.sources.is_empty() {
                queue.close();
            }
            for (idx, src) in self.sources.iter().enumerate() {
                let (remaining, degraded, policy) =
                    (Arc::clone(&remaining), Arc::clone(&degraded), self.policy);
                // The departure protocol: a faulted source either cancels
                // the whole fan-in (`FailFast`: close `Failed`, first
                // cause wins, siblings' next put fails) or just departs
                // (`Degrade`: counted); the last producer out closes
                // `Finished`.
                let depart = move |queue: &BlockingQueue<Value>, fault: Option<Fault>| match fault {
                    Some(fault) if policy == FanPolicy::FailFast => {
                        queue.close_with(CloseCause::Failed(fault));
                        remaining.fetch_sub(1, Ordering::AcqRel);
                    }
                    departed => {
                        if departed.is_some() {
                            degraded.fetch_add(1, Ordering::AcqRel);
                            obs_on!(crate::stats::fan().degraded_sources.inc(););
                        }
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            queue.close();
                        }
                    }
                };
                let label = Arc::from(format!("merge-source-{idx}"));
                spawn_producer(
                    queue.clone(),
                    Arc::clone(src),
                    self.batch,
                    label,
                    Site::Merge,
                    depart,
                );
            }
            MergeState { queue, degraded }
        });
        &state.queue
    }
}

impl Gen for Merge {
    fn resume(&mut self) -> Step {
        if self.buf.is_empty() && self.fault.is_none() {
            let capacity = self.capacity;
            let queue = self.queue();
            match queue.take_batch(capacity) {
                Some(chunk) => self.buf = VecDeque::from(chunk),
                None => {
                    if let Some(CloseCause::Failed(fault)) = queue.close_cause() {
                        obs_on!(crate::stats::pipe().faults_propagated.inc(););
                        // Recorded first: a caught propagation followed by
                        // another resume must observe end-of-stream, not a
                        // respawn.
                        self.fault = Some(fault.clone());
                        panic!("merge failed: {fault}");
                    }
                }
            }
        }
        match self.buf.pop_front() {
            Some(v) => Step::Suspend(v),
            None => Step::Fail,
        }
    }
    fn restart(&mut self) {
        self.stop();
        self.fault = None;
    }
}

impl Drop for Merge {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Deterministic fan-in: one value from each live source per round,
/// skipping exhausted sources, until all are exhausted. Sources run in
/// *this* thread (compose with [`crate::Pipe`] per source for parallelism).
pub fn round_robin(sources: Vec<BoxGen>) -> RoundRobin {
    let len = sources.len();
    RoundRobin {
        sources,
        alive: vec![true; len],
        next: 0,
    }
}

pub struct RoundRobin {
    sources: Vec<BoxGen>,
    alive: Vec<bool>,
    next: usize,
}

impl Gen for RoundRobin {
    fn resume(&mut self) -> Step {
        let n = self.sources.len();
        if n == 0 {
            return Step::Fail;
        }
        for _ in 0..n {
            let i = self.next;
            self.next = (self.next + 1) % n;
            if !self.alive[i] {
                obs_on!(crate::stats::fan().rr_skips.inc(););
                continue;
            }
            match self.sources[i].resume() {
                Step::Suspend(v) => {
                    obs_on!(crate::stats::fan().rr_items.inc(););
                    return Step::Suspend(v);
                }
                Step::Fail => self.alive[i] = false,
            }
        }
        // The sweep visited every source once: each live one either
        // yielded (returned above) or is now dead.
        Step::Fail
    }
    fn restart(&mut self) {
        for s in &mut self.sources {
            s.restart();
        }
        self.alive.fill(true);
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde::comb::to_range;
    use gde::GenExt;

    /// All values of a merged fan-in, sorted for order-insensitive checks.
    fn drain_sorted(mut g: impl Gen) -> Vec<i64> {
        let mut out: Vec<i64> = g
            .collect_values()
            .iter()
            .filter_map(|v| v.as_int())
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn merge_delivers_everything_once() {
        let m = merge(
            vec![
                Box::new(|| Box::new(to_range(1, 10, 1)) as BoxGen),
                Box::new(|| Box::new(to_range(11, 20, 1)) as BoxGen),
                Box::new(|| Box::new(to_range(21, 30, 1)) as BoxGen),
            ],
            8,
        );
        assert_eq!(drain_sorted(m), (1..=30).collect::<Vec<_>>());
    }

    #[test]
    fn merge_of_nothing_fails_immediately() {
        let mut m = merge(vec![], 4);
        assert_eq!(m.resume(), Step::Fail);
    }

    #[test]
    fn merge_with_one_empty_source() {
        let m = merge(
            vec![
                Box::new(|| Box::new(gde::comb::fail()) as BoxGen),
                Box::new(|| Box::new(to_range(1, 3, 1)) as BoxGen),
            ],
            4,
        );
        assert_eq!(drain_sorted(m), vec![1, 2, 3]);
    }

    #[test]
    fn merge_restart_reruns_producers() {
        let mut m = merge(vec![Box::new(|| Box::new(to_range(1, 5, 1)) as BoxGen)], 4);
        assert_eq!(m.count(), 5);
        m.restart();
        assert_eq!(m.count(), 5);
    }

    #[test]
    fn round_robin_interleaves_deterministically() {
        let mut rr = round_robin(vec![
            Box::new(to_range(1, 3, 1)) as BoxGen,
            Box::new(to_range(10, 30, 10)) as BoxGen,
        ]);
        let got: Vec<i64> = rr
            .collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(got, vec![1, 10, 2, 20, 3, 30]);
    }

    #[test]
    fn round_robin_skips_exhausted_sources() {
        let mut rr = round_robin(vec![
            Box::new(to_range(1, 1, 1)) as BoxGen, // one value
            Box::new(to_range(10, 13, 1)) as BoxGen,
        ]);
        let got: Vec<i64> = rr
            .collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(got, vec![1, 10, 11, 12, 13]);
    }

    #[test]
    fn round_robin_restart() {
        let mut rr = round_robin(vec![Box::new(to_range(1, 2, 1)) as BoxGen]);
        assert_eq!(rr.count(), 2);
        rr.restart();
        assert_eq!(rr.count(), 2);
    }

    #[test]
    fn merge_batched_delivers_everything_once() {
        for batch in [1, 2, 7, 64] {
            let m = merge(
                vec![
                    Box::new(|| Box::new(to_range(1, 10, 1)) as BoxGen),
                    Box::new(|| Box::new(to_range(11, 20, 1)) as BoxGen),
                    Box::new(|| Box::new(to_range(21, 30, 1)) as BoxGen),
                ],
                8,
            )
            .with_batch(batch);
            assert_eq!(
                drain_sorted(m),
                (1..=30).collect::<Vec<_>>(),
                "batch {batch} lost or duplicated values"
            );
        }
    }

    #[test]
    fn merge_batch_clamps_to_fairness_cap_and_capacity() {
        let sources = || {
            vec![Box::new(|| Box::new(to_range(1, 3, 1)) as BoxGen)
                as Box<dyn Fn() -> BoxGen + Send + Sync>]
        };
        let m = merge(sources(), 64).with_batch(1000);
        assert_eq!(m.batch(), super::MERGE_BATCH_FAIRNESS_CAP);
        let m = merge(sources(), 2).with_batch(1000);
        assert_eq!(m.batch(), 2, "capacity bounds the per-source grab");
        let m = merge(sources(), 64).with_batch(0);
        assert_eq!(m.batch(), 1, "batch 0 normalizes to 1");
    }

    #[test]
    fn merge_with_batch_after_start_respawns_with_new_batch() {
        // Regression: with_batch used to be silently ignored once the
        // producers were running (start() only reads self.batch when the
        // state is first built). It must now close the stale state so the
        // next resume runs the requested transport.
        let mut m = merge(
            vec![Box::new(|| Box::new(to_range(1, 20, 1)) as BoxGen)
                as Box<dyn Fn() -> BoxGen + Send + Sync>],
            16,
        );
        assert!(matches!(m.resume(), Step::Suspend(_)), "producers running");
        let m = m.with_batch(7);
        assert_eq!(m.batch(), 7);
        assert_eq!(
            drain_sorted(m),
            (1..=20).collect::<Vec<_>>(),
            "post-start with_batch must restart the full stream"
        );
    }

    #[test]
    fn merge_batched_preserves_per_source_order() {
        // Arrival order across sources is nondeterministic, but each
        // source's own values must stay in sequence even when moved in
        // chunks.
        let m = merge(
            (0..3)
                .map(|k: i64| {
                    Box::new(move || Box::new(to_range(k * 100, k * 100 + 49, 1)) as BoxGen)
                        as Box<dyn Fn() -> BoxGen + Send + Sync>
                })
                .collect(),
            4,
        )
        .with_batch(7);
        let mut m = m;
        let mut last = [i64::MIN; 3];
        while let Step::Suspend(v) = m.resume() {
            let n = v.as_int().expect("int");
            let src = (n / 100) as usize;
            assert!(last[src] < n, "source {src} out of order: {n}");
            last[src] = n;
        }
        assert_eq!(last, [49, 149, 249]);
    }

    #[test]
    fn round_robin_over_batched_pipes_stays_deterministic() {
        // rr fairness is consumer-side and must survive chunked pipe
        // transport: one value from each live source per round.
        let mk = |lo: i64, hi: i64| {
            Box::new(crate::Pipe::batched(
                move || Box::new(to_range(lo, hi, 1)) as BoxGen,
                16,
                5,
            )) as BoxGen
        };
        let mut rr = round_robin(vec![mk(1, 3), mk(10, 50)]);
        let got: Vec<i64> = rr
            .collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(&got[..6], &[1, 10, 2, 11, 3, 12]);
        assert_eq!(got.len(), 3 + 41);
    }

    /// A source factory that panics when its generator is about to yield
    /// `panic_at` (yields `lo..` until then).
    fn faulty_source(lo: i64, panic_at: i64) -> Box<dyn Fn() -> BoxGen + Send + Sync> {
        Box::new(move || {
            let counter = std::sync::Arc::new(std::sync::atomic::AtomicI64::new(lo));
            Box::new(gde::comb::repeat_alt(gde::comb::thunk(move || {
                let n = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                assert!(n != panic_at, "injected merge-source failure");
                Some(Value::from(n))
            }))) as BoxGen
        })
    }

    #[test]
    fn fail_fast_merge_surfaces_the_fault_not_clean_eos() {
        // Fan-in analogue of the producer-panic regression: a faulted
        // source must yield Failed(..) to the consumer under the default
        // FailFast policy — never a clean end-of-stream.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut m = merge(
            vec![
                faulty_source(0, 2), // yields 0, 1, then panics
                Box::new(|| Box::new(to_range(100, 200, 1)) as BoxGen),
            ],
            4,
        );
        let err = catch_unwind(AssertUnwindSafe(|| m.collect_values())).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("merge-source-0"), "names the source: {msg}");
        let fault = m.fault().expect("fault recorded");
        assert_eq!(fault.stage(), "merge-source-0");
        assert!(fault.message().contains("injected merge-source failure"));
        // After a caught propagation the stream reports end-of-stream
        // (and does not respawn the producers).
        assert_eq!(m.resume(), Step::Fail);
    }

    #[test]
    fn degrade_merge_drops_faulted_source_and_keeps_merging() {
        let m = merge(
            vec![
                faulty_source(0, 0), // panics before yielding anything
                Box::new(|| Box::new(to_range(1, 10, 1)) as BoxGen),
                Box::new(|| Box::new(to_range(11, 20, 1)) as BoxGen),
            ],
            8,
        )
        .with_policy(FanPolicy::Degrade);
        let mut m = m;
        let mut got: Vec<i64> = m
            .collect_values()
            .iter()
            .filter_map(|v| v.as_int())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (1..=20).collect::<Vec<_>>(), "survivors fully merged");
        assert_eq!(m.degraded_sources(), 1);
        assert!(m.fault().is_none(), "degrade never cancels the fan-in");
    }

    #[test]
    fn merge_restart_clears_fault_state() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut m = merge(vec![faulty_source(0, 0)], 4);
        assert!(catch_unwind(AssertUnwindSafe(|| m.collect_values())).is_err());
        assert!(m.fault().is_some());
        m.restart();
        assert!(m.fault().is_none());
        // The faulty source faults again on the fresh run; the restarted
        // fan-in surfaces it again rather than reporting clean EOS.
        assert!(catch_unwind(AssertUnwindSafe(|| m.resume())).is_err());
    }

    #[test]
    fn merged_pipes_fan_into_one_consumer() {
        // Each source is itself a pipe: N producer threads, one consumer.
        let m = merge(
            (0..4)
                .map(|k: i64| {
                    Box::new(move || Box::new(to_range(k * 100 + 1, k * 100 + 25, 1)) as BoxGen)
                        as Box<dyn Fn() -> BoxGen + Send + Sync>
                })
                .collect(),
            16,
        );
        let got = drain_sorted(m);
        assert_eq!(got.len(), 100);
        assert_eq!(got[0], 1);
        assert_eq!(*got.last().expect("non-empty"), 325);
    }
}
