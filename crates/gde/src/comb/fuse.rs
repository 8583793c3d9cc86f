//! Emit-time combinator stage fusion.
//!
//! Every combinator stage in a pipeline costs one virtual `resume` (plus
//! one [`Step`] construction and match) per produced value: a
//! `hash(parse(split(lines)))` chain pays three boxed dispatches per word
//! before any real work happens. Stream-fusion folklore (Coutts et al.,
//! "Stream Fusion"; Kiselyov et al., "Stream Fusion, to Completeness")
//! says adjacent *monogenic* stages — stages that produce at most one
//! output per input: map, filter, filter-map — compose into a single
//! closure with no observable difference, because goal-directed skipping
//! (`None` prunes the value) and failure propagation (`Fail` passes
//! through untouched) are both preserved by ordinary function
//! composition.
//!
//! This module reifies a pipeline as data first — a [`Stage`] IR — so a
//! [`fuse`](StagePlan::fuse) rewriter can collapse maximal runs of
//! adjacent monogenic stages into one composed filter-map closure with
//! exactly one `resume` per emitted value. [`Stage::Flat`] (one input →
//! a whole sub-generator of outputs, the `splitWords(!lines)` shape) is a
//! *fusion barrier*: its inner generator has its own suspension points,
//! so stages cannot move across it. A run *following* a barrier can
//! still be absorbed into it ([`FlatFused`]) — the flat node applies the
//! composed closure inline to each inner suspension instead of paying a
//! separate boxed stage.
//!
//! Fusion is a pure rewrite: [`StagePlan::instantiate_unfused`] builds
//! the traditional one-node-per-stage tree, and the differential suite
//! (`gde/tests/fusion_diff.rs`) proves fused ≡ unfused — identical
//! outputs, identical per-stage evaluation counts, identical failure
//! points — over randomized pipelines, restarts and schedules.
//!
//! With the `obs` feature on, fusion is visible at runtime:
//! `gde.comb.fused_stages` counts the dispatch seams eliminated by each
//! `fuse()`, and `gde.comb.fusion_barriers` counts the flat barriers that
//! cut runs short. Its consumers are `pipes::Pipe::staged` and the
//! hand-built `wordcount::embedded` trees; transpiled Junicon lowers a
//! product to the paper's product of bound iterators and fuses nothing.

use super::{filter_map, flat};
use crate::gen::{BoxGen, Gen, Step};
use crate::value::Value;
use std::sync::Arc;

/// A composed (or single-stage) monogenic transform: at most one output
/// per input, `None` skips the value.
pub type FusedFn = Arc<dyn Fn(&Value) -> Option<Value> + Send + Sync>;

/// One pipeline stage, as data. Closures are `Arc`ed so a plan can be
/// fused once and instantiated many times (pipe producers re-instantiate
/// on every restart).
#[derive(Clone)]
pub enum Stage {
    /// Total per-value transform: always one output per input.
    Map(Arc<dyn Fn(&Value) -> Value + Send + Sync>),
    /// Goal-directed guard: the value passes through unchanged or is
    /// skipped.
    Filter(Arc<dyn Fn(&Value) -> bool + Send + Sync>),
    /// The general monogenic stage: transform or skip.
    FilterMap(FusedFn),
    /// One input value → a whole sub-generator of outputs (stage
    /// concatenation, [`super::flat`]). Not monogenic: a fusion barrier.
    Flat(Arc<dyn Fn(&Value) -> BoxGen + Send + Sync>),
}

impl Stage {
    /// The stage as a monogenic closure (barriers have none).
    fn as_fn(&self) -> Option<FusedFn> {
        match self {
            Stage::Map(f) => {
                let f = Arc::clone(f);
                Some(Arc::new(move |v| Some(f(v))))
            }
            Stage::Filter(p) => {
                let p = Arc::clone(p);
                Some(Arc::new(move |v| if p(v) { Some(v.clone()) } else { None }))
            }
            Stage::FilterMap(f) => Some(Arc::clone(f)),
            Stage::Flat(_) => None,
        }
    }
}

/// An ordered pipeline description: a source-agnostic list of stages.
///
/// Build one with the chaining constructors, then either
/// [`fuse`](StagePlan::fuse) it (production path) or
/// [`instantiate_unfused`](StagePlan::instantiate_unfused) it (the
/// reference semantics the differential suite compares against).
#[derive(Clone, Default)]
pub struct StagePlan {
    stages: Vec<Stage>,
}

impl StagePlan {
    pub fn new() -> StagePlan {
        StagePlan::default()
    }

    /// Append a total map stage.
    pub fn map(mut self, f: impl Fn(&Value) -> Value + Send + Sync + 'static) -> StagePlan {
        self.stages.push(Stage::Map(Arc::new(f)));
        self
    }

    /// Append a filter stage.
    pub fn filter(mut self, p: impl Fn(&Value) -> bool + Send + Sync + 'static) -> StagePlan {
        self.stages.push(Stage::Filter(Arc::new(p)));
        self
    }

    /// Append a filter-map stage.
    pub fn filter_map(
        mut self,
        f: impl Fn(&Value) -> Option<Value> + Send + Sync + 'static,
    ) -> StagePlan {
        self.stages.push(Stage::FilterMap(Arc::new(f)));
        self
    }

    /// Append a flattening stage (fusion barrier).
    pub fn flat(mut self, f: impl Fn(&Value) -> BoxGen + Send + Sync + 'static) -> StagePlan {
        self.stages.push(Stage::Flat(Arc::new(f)));
        self
    }

    /// Append an already-built [`Stage`].
    pub fn stage(mut self, s: Stage) -> StagePlan {
        self.stages.push(s);
        self
    }

    /// The number of stages in the plan.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Collapse maximal runs of adjacent monogenic stages into single
    /// composed closures, absorbing each run that follows a flat barrier
    /// into the barrier itself. The result instantiates with one
    /// `resume` per emitted value per segment.
    pub fn fuse(&self) -> FusedPlan {
        let mut segments: Vec<Segment> = Vec::new();
        let mut run: Vec<Stage> = Vec::new();
        let mut seams: u64 = 0;
        let mut barriers: u64 = 0;

        let flush = |segments: &mut Vec<Segment>, run: &mut Vec<Stage>, seams: &mut u64| {
            if run.is_empty() {
                return;
            }
            let k = run.len() as u64;
            let fused = compose(run.drain(..));
            match segments.last_mut() {
                // A run directly after a flat barrier: absorb it into the
                // barrier node — all k stage dispatches disappear.
                Some(seg @ Segment::Flat(_)) => {
                    let Segment::Flat(f) = std::mem::replace(seg, Segment::Apply(fused.clone()))
                    else {
                        unreachable!("matched Flat above")
                    };
                    *seg = Segment::FlatApply(f, fused);
                    *seams += k;
                }
                // A standalone run collapses k nodes into one: k-1 seams.
                _ => {
                    segments.push(Segment::Apply(fused));
                    *seams += k - 1;
                }
            }
        };

        for st in &self.stages {
            match st {
                Stage::Flat(f) => {
                    flush(&mut segments, &mut run, &mut seams);
                    segments.push(Segment::Flat(Arc::clone(f)));
                    barriers += 1;
                }
                monogenic => run.push(monogenic.clone()),
            }
        }
        flush(&mut segments, &mut run, &mut seams);

        obs_on!({
            crate::obs_hot::fused_stages().add(seams);
            crate::obs_hot::fusion_barriers().add(barriers);
        });
        #[cfg(not(feature = "obs"))]
        let _ = (seams, barriers);
        FusedPlan {
            segments: Arc::new(segments),
        }
    }

    /// Build the traditional one-combinator-node-per-stage tree over
    /// `source` — the reference semantics fusion must preserve. Every
    /// produced value pays one virtual `resume` per stage.
    pub fn instantiate_unfused(&self, source: BoxGen) -> BoxGen {
        let mut g = source;
        for st in &self.stages {
            g = match st {
                Stage::Flat(f) => {
                    let f = Arc::clone(f);
                    Box::new(flat(g, move |v| f(v)))
                }
                monogenic => {
                    let f = monogenic.as_fn().expect("non-flat stage is monogenic");
                    Box::new(filter_map(g, move |v| f(v)))
                }
            };
        }
        g
    }

    /// Fuse and instantiate in one step (convenience for one-shot
    /// pipelines; reuse [`StagePlan::fuse`]'s result when the pipeline is
    /// rebuilt per restart, e.g. under a pipe).
    pub fn instantiate(&self, source: BoxGen) -> BoxGen {
        self.fuse().instantiate(source)
    }
}

/// Compose a run of monogenic stages into one closure, left to right.
/// Evaluation order and skip behavior are exactly the unfused tree's:
/// stage i+1 sees stage i's output, a `None` anywhere prunes the value
/// without touching later stages.
fn compose(run: impl IntoIterator<Item = Stage>) -> FusedFn {
    let mut acc: Option<FusedFn> = None;
    for st in run {
        let f = st.as_fn().expect("fuse runs contain only monogenic stages");
        acc = Some(match acc {
            None => f,
            Some(g) => Arc::new(move |v| g(v).and_then(|x| f(&x))),
        });
    }
    acc.expect("compose of a non-empty run")
}

/// One instantiable segment of a fused pipeline.
#[derive(Clone)]
enum Segment {
    /// A fused monogenic run: one [`Apply`] node.
    Apply(FusedFn),
    /// A bare flat barrier (no following run to absorb).
    Flat(Arc<dyn Fn(&Value) -> BoxGen + Send + Sync>),
    /// A flat barrier with the following fused run applied inline to
    /// each inner suspension: one [`FlatFused`] node.
    FlatApply(Arc<dyn Fn(&Value) -> BoxGen + Send + Sync>, FusedFn),
}

/// The output of [`StagePlan::fuse`]: a reusable, thread-shareable
/// instantiation recipe. Cloning is cheap (one `Arc`); a pipe factory
/// can instantiate the same fused plan on every producer (re)spawn.
#[derive(Clone)]
pub struct FusedPlan {
    segments: Arc<Vec<Segment>>,
}

impl FusedPlan {
    /// Build the fused generator tree over `source`.
    pub fn instantiate(&self, source: BoxGen) -> BoxGen {
        let mut g = source;
        for seg in self.segments.iter() {
            g = match seg {
                Segment::Apply(f) => Box::new(Apply {
                    inner: g,
                    f: Arc::clone(f),
                }),
                Segment::Flat(factory) => {
                    let factory = Arc::clone(factory);
                    Box::new(flat(g, move |v| factory(v)))
                }
                Segment::FlatApply(factory, f) => Box::new(FlatFused {
                    left: g,
                    factory: Arc::clone(factory),
                    f: Arc::clone(f),
                    cur: None,
                    live: false,
                }),
            };
        }
        g
    }

    /// The number of instantiated nodes per pipeline (segments), for
    /// tests and diagnostics.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

/// A fused monogenic run over an inner generator: semantically
/// [`super::FilterMap`], but holding the shareable composed closure.
struct Apply {
    inner: BoxGen,
    f: FusedFn,
}

impl Gen for Apply {
    fn resume(&mut self) -> Step {
        loop {
            match self.inner.resume() {
                Step::Suspend(v) => {
                    if let Some(out) = (self.f)(&v) {
                        return Step::Suspend(out);
                    }
                }
                Step::Fail => return Step::Fail,
            }
        }
    }
    fn restart(&mut self) {
        self.inner.restart();
    }
}

/// A flat barrier with an absorbed monogenic run: for each value of
/// `left`, iterate the sub-generator `factory` builds, applying the
/// composed closure inline to each inner suspension. Equivalent to
/// `Apply(f) ∘ Flat(factory)` with one fewer boxed dispatch per emitted
/// value.
pub struct FlatFused {
    left: BoxGen,
    factory: Arc<dyn Fn(&Value) -> BoxGen + Send + Sync>,
    f: FusedFn,
    /// The sub-generator for the current (or, between outer values, the
    /// previous) `left` suspension. An exhausted generator is kept so a
    /// [`Gen::rebind`]-capable one can be recycled for the next outer
    /// value instead of paying a factory call + box per value.
    cur: Option<BoxGen>,
    /// Whether `cur` is bound to a not-yet-exhausted `left` value.
    live: bool,
}

impl Gen for FlatFused {
    fn resume(&mut self) -> Step {
        loop {
            if !self.live {
                match self.left.resume() {
                    Step::Suspend(lv) => {
                        let recycled = match self.cur.as_mut() {
                            Some(g) => g.rebind(&lv),
                            None => false,
                        };
                        if !recycled {
                            self.cur = Some((self.factory)(&lv));
                        }
                        self.live = true;
                    }
                    Step::Fail => return Step::Fail,
                }
            }
            match self.cur.as_mut().expect("live implies cur").resume() {
                Step::Suspend(rv) => {
                    if let Some(out) = (self.f)(&rv) {
                        return Step::Suspend(out);
                    }
                }
                Step::Fail => self.live = false,
            }
        }
    }
    fn restart(&mut self) {
        self.left.restart();
        self.live = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::{to_range, values};
    use crate::gen::GenExt;

    fn ints(g: &mut dyn Gen) -> Vec<i64> {
        g.collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    fn plan_double_even_squares() -> StagePlan {
        StagePlan::new()
            .map(|v| Value::from(v.as_int().unwrap() * 2))
            .filter(|v| v.as_int().unwrap() % 4 == 0)
            .filter_map(|v| Some(Value::from(v.as_int()? * v.as_int()?)))
    }

    #[test]
    fn fused_and_unfused_agree_on_a_monogenic_run() {
        let plan = plan_double_even_squares();
        let mut fused = plan.instantiate(Box::new(to_range(1, 8, 1)));
        let mut unfused = plan.instantiate_unfused(Box::new(to_range(1, 8, 1)));
        assert_eq!(ints(&mut fused), ints(&mut unfused));
        assert_eq!(ints(&mut fused), Vec::<i64>::new()); // both exhausted
        fused.restart();
        unfused.restart();
        assert_eq!(ints(&mut fused), ints(&mut unfused));
    }

    #[test]
    fn monogenic_run_collapses_to_one_segment() {
        let fused = plan_double_even_squares().fuse();
        assert_eq!(fused.segment_count(), 1);
    }

    #[test]
    fn flat_is_a_barrier_and_absorbs_the_following_run() {
        // map | flat | filter | map  →  Apply, FlatApply: 2 segments.
        let plan = StagePlan::new()
            .map(|v| v.clone())
            .flat(|v| {
                let n = v.as_int().unwrap_or(0);
                Box::new(to_range(0, n, 1))
            })
            .filter(|v| v.as_int().unwrap() % 2 == 0)
            .map(|v| Value::from(v.as_int().unwrap() + 100));
        let fused = plan.fuse();
        assert_eq!(fused.segment_count(), 2);
        let mut f = fused.instantiate(Box::new(to_range(1, 3, 1)));
        let mut u = plan.instantiate_unfused(Box::new(to_range(1, 3, 1)));
        assert_eq!(ints(&mut f), ints(&mut u));
        assert_eq!(ints(&mut u), Vec::<i64>::new());
    }

    #[test]
    fn empty_plan_is_the_identity() {
        let plan = StagePlan::new();
        let mut g = plan.instantiate(Box::new(to_range(1, 3, 1)));
        assert_eq!(ints(&mut g), vec![1, 2, 3]);
        assert_eq!(plan.fuse().segment_count(), 0);
    }

    #[test]
    fn skip_then_emit_interleaving_is_preserved() {
        // A filter that rejects odd values between accepted ones: the
        // fused closure must keep skipping inside one resume.
        let plan = StagePlan::new().filter(|v| v.as_int().unwrap() % 2 == 0);
        let src = || Box::new(values((1..=7).map(Value::from).collect())) as BoxGen;
        let mut f = plan.instantiate(src());
        let mut u = plan.instantiate_unfused(src());
        assert_eq!(ints(&mut f), vec![2, 4, 6]);
        assert_eq!(ints(&mut u), vec![2, 4, 6]);
    }
}
