//! Differential property suite for combinator stage fusion.
//!
//! `gde::comb::fuse` claims that fusing a pipeline ([`StagePlan::fuse`])
//! is a pure rewrite of the one-node-per-stage tree
//! ([`StagePlan::instantiate_unfused`]). This suite generates random
//! stage pipelines — arbitrary map/filter/filter_map/flat compositions,
//! including always-failing stages, empty flat expansions, and empty or
//! immediately-failing sources — and runs each both ways, asserting:
//!
//! * **identical outputs** (value for value, in order);
//! * **identical failure points**: every stage closure carries an
//!   invocation counter, and the per-stage counts must match exactly — a
//!   fused closure that evaluated a stage one extra time (or stopped one
//!   input early) diverges here even when the output streams agree;
//! * **identical restart behavior**: both pipelines restart and replay to
//!   the same stream and the same counts;
//! * **identical item counts through the obs counters** (with the `obs`
//!   feature on): fusing bumps `gde.comb.fused_stages` by exactly the
//!   dispatch seams the plan's shape predicts, and `fusion_barriers` by
//!   its flat-stage count — so fusion silently not happening is itself a
//!   failure.
//!
//! A mutation sanity check at the bottom proves the oracle has teeth: a
//! test-local mutant of a composed closure with an off-by-one in its skip
//! path (the classic "value after a rejection leaks through raw" bug),
//! run through the same [`StagePlan`] as a filter-map stage, is caught as a
//! divergence.

use gde::comb::fuse::StagePlan;
use gde::comb::{fail, to_range, values};
use gde::{BoxGen, GenExt, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tinyprop::prelude::*;

// ---------------------------------------------------------------------------
// Pipeline generator
// ---------------------------------------------------------------------------
//
// A pipeline is rendered from a vector of small opcode tuples, like the
// resolver suite's program generator: every recipe is valid by
// construction, and shrinking the vector shrinks the pipeline stage by
// stage.

/// One stage recipe: (opcode, parameter).
type StageOp = (u8, i64);

/// Per-stage invocation counters, shared between a plan and the test.
type Counters = Vec<Arc<AtomicUsize>>;

/// Build a [`StagePlan`] from a recipe, instrumenting every stage closure
/// with an invocation counter. Two calls with the same recipe build
/// independent counter sets, so a fused and an unfused instance can be
/// compared stage for stage.
fn build_plan(ops: &[StageOp]) -> (StagePlan, Counters) {
    let mut plan = StagePlan::new();
    let mut counters: Counters = Vec::with_capacity(ops.len());
    for &(code, k) in ops {
        let c = Arc::new(AtomicUsize::new(0));
        counters.push(Arc::clone(&c));
        let m = k.rem_euclid(5) + 1; // 1..=5
        plan = match code % 8 {
            // Total arithmetic map.
            0 => plan.map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                Value::from(
                    v.as_int()
                        .unwrap_or(0)
                        .wrapping_mul(m)
                        .wrapping_add(k % 100),
                )
            }),
            // Modulus filter (drops a data-dependent subset).
            1 => plan.filter(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                v.as_int().unwrap_or(0).rem_euclid(m) != 0
            }),
            // Filter-map: transform half the inputs, reject the rest.
            2 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                let n = v.as_int()?;
                (n.rem_euclid(2) == 0).then(|| Value::from(n / 2 + m))
            }),
            // Always-failing stage: prunes the whole stream from here on.
            3 => plan.filter_map(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                None
            }),
            // Pass-everything filter (identity with a side-effect count).
            4 => plan.filter(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                true
            }),
            // Flat: expand each value to a small data-dependent range
            // (empty for some inputs) — the fusion barrier.
            5 => plan.flat(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                let n = v.as_int().unwrap_or(0).rem_euclid(m + 1);
                Box::new(to_range(1, n, 1)) as BoxGen
            }),
            // Flat that always expands to nothing.
            6 => plan.flat(move |_| {
                c.fetch_add(1, Ordering::Relaxed);
                Box::new(fail()) as BoxGen
            }),
            // Negating map (exercises sign handling in later stages).
            _ => plan.map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                Value::from(v.as_int().unwrap_or(0).wrapping_neg())
            }),
        };
    }
    (plan, counters)
}

/// Build the source generator for a recipe: a value list, a range, an
/// empty stream, or an immediate failure.
fn build_source(kind: u8, len: i64) -> BoxGen {
    let len = len.rem_euclid(9);
    match kind % 4 {
        0 => Box::new(values((0..len).map(|i| Value::from(i * 3 - 7)).collect())),
        1 => Box::new(to_range(-2, len, 1)),
        2 => Box::new(values(Vec::new())),
        _ => Box::new(fail()),
    }
}

fn ints(g: &mut dyn gde::Gen) -> Vec<Option<i64>> {
    g.collect_values().iter().map(|v| v.as_int()).collect()
}

/// The obs counters are process-global; tests that fuse plans while
/// another test measures counter deltas must not interleave. (Only the
/// delta *measurement* needs the lock, but taking it in every fusing
/// test keeps the invariant local.)
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counts(cs: &Counters) -> Vec<usize> {
    cs.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// The dispatch seams and barriers `fuse()` must report for a recipe:
/// a standalone monogenic run of `k` stages collapses k nodes into one
/// (k−1 seams); a run directly after a flat barrier is absorbed into the
/// barrier node (k seams); every flat stage is one barrier.
fn expected_obs(ops: &[StageOp]) -> (u64, u64) {
    let (mut seams, mut barriers) = (0u64, 0u64);
    let mut run = 0u64;
    let mut after_flat = false;
    for &(code, _) in ops {
        if code % 8 == 5 || code % 8 == 6 {
            if run > 0 {
                seams += if after_flat { run } else { run - 1 };
                run = 0;
            }
            barriers += 1;
            after_flat = true;
        } else {
            run += 1;
        }
    }
    if run > 0 {
        seams += if after_flat { run } else { run - 1 };
    }
    (seams, barriers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: a fused pipeline is observationally
    /// identical to the stage-per-node tree — outputs, per-stage
    /// evaluation counts (= failure points), and restart replay.
    #[test]
    fn fused_and_unfused_pipelines_agree(
        ops in prop::collection::vec((0u8..=7, any::<i64>()), 0..8),
        src_kind in 0u8..=3,
        src_len in any::<i64>(),
    ) {
        let _obs_guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (plan_f, counters_f) = build_plan(&ops);
        let (plan_u, counters_u) = build_plan(&ops);

        #[cfg(feature = "obs")]
        let seams_before = obs::counter("gde.comb.fused_stages").get();
        #[cfg(feature = "obs")]
        let barriers_before = obs::counter("gde.comb.fusion_barriers").get();

        let mut fused = plan_f.instantiate(build_source(src_kind, src_len));
        let mut unfused = plan_u.instantiate_unfused(build_source(src_kind, src_len));

        // Fusion is visible in the obs counters, and by exactly the
        // amount the plan's shape predicts.
        #[cfg(feature = "obs")]
        {
            let (want_seams, want_barriers) = expected_obs(&ops);
            prop_assert_eq!(
                obs::counter("gde.comb.fused_stages").get() - seams_before,
                want_seams,
                "fused_stages delta for ops {:?}", ops
            );
            prop_assert_eq!(
                obs::counter("gde.comb.fusion_barriers").get() - barriers_before,
                want_barriers,
                "fusion_barriers delta for ops {:?}", ops
            );
        }
        #[cfg(not(feature = "obs"))]
        let _ = expected_obs(&ops);

        // Identical outputs.
        let out_f = ints(&mut *fused);
        let out_u = ints(&mut *unfused);
        prop_assert_eq!(&out_f, &out_u, "outputs diverged for ops {:?}", ops);

        // Identical per-stage evaluation counts: the fused closure hit
        // every stage exactly as often as the stage-per-node tree, so
        // failure points and side-effect order match.
        prop_assert_eq!(
            counts(&counters_f),
            counts(&counters_u),
            "per-stage counts diverged for ops {:?}", ops
        );

        // Restart replay: both rewind to the same stream and stay in
        // lockstep on evaluation counts.
        fused.restart();
        unfused.restart();
        prop_assert_eq!(ints(&mut *fused), out_u.clone(), "fused restart replay diverged");
        prop_assert_eq!(ints(&mut *unfused), out_u, "unfused restart replay diverged");
        prop_assert_eq!(
            counts(&counters_f),
            counts(&counters_u),
            "post-restart counts diverged for ops {:?}", ops
        );
    }

    /// Mutation sanity check: the suite's oracle catches the classic
    /// fused-skip off-by-one. The mutant composes the same filter and map
    /// but leaks the value following every rejection through the closure
    /// raw; any pipeline that rejects a value and then transforms the next
    /// one must diverge.
    #[test]
    fn skip_path_mutation_is_caught(
        reject_mod in 2i64..5,
        scale in 2i64..6,
    ) {
        let _obs_guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let keep = move |v: &Value| v.as_int().unwrap_or(0).rem_euclid(reject_mod) != 0;
        let times = move |v: &Value| Value::from(v.as_int().unwrap_or(0).wrapping_mul(scale));
        let plan = StagePlan::new().filter(keep).map(times);
        let mutant = StagePlan::new().filter_map(skip_leaks(move |v| keep(v).then(|| times(v))));
        let mut honest = plan.instantiate(Box::new(to_range(0, 16, 1)));
        let mut mutant = mutant.instantiate(Box::new(to_range(0, 16, 1)));
        let out_honest = ints(&mut *honest);
        let out_mutant = ints(&mut *mutant);
        // (If this ever passes, the oracle failed to catch the mutant.)
        prop_assert_ne!(out_honest, out_mutant);
    }
}

/// The mutant: `composed` with an off-by-one in its skip path — after it
/// skips a value, the next value bypasses it and passes through raw.
fn skip_leaks(
    composed: impl Fn(&Value) -> Option<Value> + Send + Sync + 'static,
) -> impl Fn(&Value) -> Option<Value> + Send + Sync + 'static {
    let skipped = std::sync::atomic::AtomicBool::new(false);
    move |v| {
        if skipped.swap(false, Ordering::Relaxed) {
            return Some(v.clone());
        }
        let out = composed(v);
        skipped.store(out.is_none(), Ordering::Relaxed);
        out
    }
}

// ---------------------------------------------------------------------------
// Targeted regressions (fixed pipelines for each fusion shape)
// ---------------------------------------------------------------------------

fn assert_agree(plan: &StagePlan, mk_src: impl Fn() -> BoxGen) {
    let mut fused = plan.instantiate(mk_src());
    let mut unfused = plan.instantiate_unfused(mk_src());
    assert_eq!(ints(&mut *fused), ints(&mut *unfused));
}

#[test]
fn empty_source_through_a_deep_monogenic_run() {
    let _obs_guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = StagePlan::new()
        .map(|v| v.clone())
        .filter(|_| true)
        .filter_map(|v| Some(v.clone()))
        .map(|v| v.clone());
    assert_agree(&plan, || Box::new(values(Vec::new())) as BoxGen);
}

#[test]
fn failing_stage_prunes_identically_mid_run() {
    // map | always-fail | map: the trailing map must never run, fused or
    // not.
    let _obs_guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tail = Arc::new(AtomicUsize::new(0));
    let (t1, t2) = (Arc::clone(&tail), Arc::clone(&tail));
    let mk = |t: Arc<AtomicUsize>| {
        StagePlan::new()
            .map(|v| Value::from(v.as_int().unwrap_or(0) + 1))
            .filter_map(|_| None)
            .map(move |v| {
                t.fetch_add(1, Ordering::Relaxed);
                v.clone()
            })
    };
    let mut fused = mk(t1).instantiate(Box::new(to_range(1, 10, 1)));
    let mut unfused = mk(t2).instantiate_unfused(Box::new(to_range(1, 10, 1)));
    assert_eq!(ints(&mut *fused), Vec::<Option<i64>>::new());
    assert_eq!(ints(&mut *unfused), Vec::<Option<i64>>::new());
    assert_eq!(
        tail.load(Ordering::Relaxed),
        0,
        "stage after a total failure ran"
    );
}

#[test]
fn flat_barriers_split_runs_without_changing_results() {
    // run | flat | run | flat | run: three fused segments, same stream.
    let _obs_guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = StagePlan::new()
        .map(|v| Value::from(v.as_int().unwrap_or(0) * 2))
        .flat(|v| {
            let n = v.as_int().unwrap_or(0).rem_euclid(4);
            Box::new(to_range(0, n, 1)) as BoxGen
        })
        .filter(|v| v.as_int().unwrap_or(0) != 1)
        .flat(|v| Box::new(values(vec![v.clone(), v.clone()])) as BoxGen)
        .map(|v| Value::from(v.as_int().unwrap_or(0) - 1));
    assert_eq!(plan.fuse().segment_count(), 3);
    assert_agree(&plan, || Box::new(to_range(1, 6, 1)) as BoxGen);
}

#[test]
fn empty_flat_expansions_do_not_stall_the_fused_node() {
    // Every input expands to nothing: the FlatFused node must keep
    // pulling from the left generator instead of spinning or failing.
    let _obs_guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = StagePlan::new()
        .flat(|_| Box::new(fail()) as BoxGen)
        .map(|v| v.clone());
    assert_agree(&plan, || Box::new(to_range(1, 8, 1)) as BoxGen);
}
