//! Differential property suite for the compact value representation.
//!
//! `gde::Value` claims that its two string forms — owned `Str` and
//! borrowed `Win` — are *representations*, not types: any pipeline must
//! compute the same thing whichever form its string payloads arrive in.
//! This suite generates random word lists and random stage pipelines over
//! them (coercions, concatenation, table-key counting, char expansion,
//! explicit promotion), and runs each pipeline twice — once fed boxed
//! `Value::str` words, once fed compact words (`Value::slice` windows
//! into one shared line buffer, interleaved with promoted windows) —
//! asserting:
//!
//! * **identical outputs** (rendered value for value, in order);
//! * **identical per-stage evaluation counts** (failure points match);
//! * **identical table contents**: a counting stage keyed by the words
//!   themselves must produce the same multiset through owned-string,
//!   promoted-window and window keys;
//! * **identical restart replay**.
//!
//! A mutation sanity check proves the oracle has teeth: comparing a
//! pipeline against one whose source drops the last word diverges.
//!
//! With the `obs` feature on, the suite also pins the *exact* refcount,
//! promotion and concat counts of the embedded word-count programs over
//! one fixed corpus, so a representation change that costs an extra
//! refcount per word fails here and not only in the external benchmark.

use gde::comb::fuse::StagePlan;
use gde::comb::values;
use gde::{BoxGen, Gen, GenExt, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tinyprop::prelude::*;

/// The `gde.value.*` counters are process-global: every test in this
/// binary moves them, so all of them serialize on this lock and
/// [`refcount_traffic_is_pinned`] reads exact deltas.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Word and source generators
// ---------------------------------------------------------------------------

/// Render a deterministic word from a recipe integer: numeric words (the
/// coercion path), alphanumeric words, a non-ASCII word (slice boundary
/// checks), and a small high-collision set (table-key hits).
fn word(n: u16) -> String {
    match n % 4 {
        0 => format!("{}", n / 4),
        1 => format!("w{}", n / 4),
        2 => format!("é{}", n % 8),
        _ => format!("x{}", n % 4),
    }
}

/// The boxed source: one owned `Value::str` per word.
fn boxed_source(words: &[String]) -> BoxGen {
    Box::new(values(words.iter().map(Value::str).collect()))
}

/// The compact source: the words live in ONE shared line buffer and are
/// handed out as `Value::slice` windows; every third word is promoted to
/// an owned string of its own instead.
fn compact_source(words: &[String]) -> BoxGen {
    let line: Arc<str> = Arc::from(words.join(" ").as_str());
    let mut out = Vec::with_capacity(words.len());
    let mut pos = 0usize;
    for (i, w) in words.iter().enumerate() {
        let window = Value::slice(line.clone(), pos, pos + w.len());
        out.push(if i % 3 == 2 { window.promote() } else { window });
        pos += w.len() + 1;
    }
    Box::new(values(out))
}

// ---------------------------------------------------------------------------
// Pipeline generator
// ---------------------------------------------------------------------------

type StageOp = (u8, i64);
type Counters = Vec<Arc<AtomicUsize>>;

/// Build a string-flavored [`StagePlan`] from a recipe, instrumenting
/// every stage with an invocation counter. Each call builds independent
/// counters and tables, so a boxed and a compact instance compare stage
/// for stage.
fn build_plan(ops: &[StageOp]) -> (StagePlan, Counters) {
    let mut plan = StagePlan::new();
    let mut counters: Counters = Vec::with_capacity(ops.len());
    for &(code, k) in ops {
        let c = Arc::new(AtomicUsize::new(0));
        counters.push(Arc::clone(&c));
        let m = k.rem_euclid(4) + 1; // 1..=4
        plan = match code % 7 {
            // Numeric coercion: parses numeric words, drops the rest.
            0 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                let n = gde::ops::to_num(v)?;
                match n {
                    gde::ops::Num::Int(i) => Some(Value::from(i.wrapping_add(k % 10))),
                    _ => Some(Value::from(0i64)),
                }
            }),
            // Length filter: keeps words whose char count % m != 0.
            1 => plan.filter(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                v.size().unwrap_or(0).rem_euclid(m) != 0
            }),
            // Concatenation: coerces to string, allocates an owned result.
            2 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                gde::ops::concat(v, &Value::str("-t"))
            }),
            // Table-key counting: every value is counted under its own
            // key; the stage emits the running count for that key. Boxed
            // and compact runs must agree — this is the owned / promoted /
            // window key coherence property.
            3 => {
                let table = Value::table();
                plan.filter_map(move |v| {
                    c.fetch_add(1, Ordering::Relaxed);
                    let Value::Table(t) = &table else { return None };
                    let mut t = t.lock();
                    let n = t.lookup(v)?.and_then(Value::as_int).unwrap_or(0) + 1;
                    t.store(v, Value::from(n))?;
                    Some(Value::from(n))
                })
            }
            // Explicit promotion: the escape hatch itself is a stage.
            4 => plan.map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                v.clone().promote()
            }),
            // Char expansion (flat barrier): `!word` — each string
            // explodes into its characters.
            5 => plan.flat(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                Box::new(gde::comb::promote_value(v.clone())) as BoxGen
            }),
            // First-char subscript: 1-based indexing through the string.
            _ => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                gde::ops::index(v, &Value::from(1))
            }),
        };
    }
    (plan, counters)
}

/// Canonical rendering: Debug prints both string forms identically
/// (quoted text), so representation differences vanish and only meaning
/// remains.
fn rendered(g: &mut dyn Gen) -> Vec<String> {
    g.collect_values()
        .iter()
        .map(|v| format!("{v:?}"))
        .collect()
}

fn counts(cs: &Counters) -> Vec<usize> {
    cs.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: compact ≡ boxed on random word pipelines —
    /// outputs, per-stage counts, and restart replay.
    #[test]
    fn compact_and_boxed_sources_agree(
        word_recipe in prop::collection::vec(any::<u16>(), 0..24),
        ops in prop::collection::vec((0u8..=6, any::<i64>()), 0..6),
    ) {
        let _obs = obs_guard();
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let (plan_b, counters_b) = build_plan(&ops);
        let (plan_c, counters_c) = build_plan(&ops);

        let mut boxed = plan_b.instantiate(boxed_source(&words));
        let mut compact = plan_c.instantiate(compact_source(&words));

        let out_b = rendered(&mut *boxed);
        let out_c = rendered(&mut *compact);
        prop_assert_eq!(&out_b, &out_c, "outputs diverged for ops {:?} words {:?}", ops, words);
        prop_assert_eq!(
            counts(&counters_b),
            counts(&counters_c),
            "per-stage counts diverged for ops {:?} words {:?}", ops, words
        );

        // Restart replay: the counting stage is stateful (its table
        // persists across restarts), so the replayed stream need not
        // equal the first pass — but boxed and compact must still move in
        // lockstep.
        boxed.restart();
        compact.restart();
        prop_assert_eq!(
            rendered(&mut *boxed),
            rendered(&mut *compact),
            "restart replay diverged for ops {:?} words {:?}", ops, words
        );
        prop_assert_eq!(
            counts(&counters_b),
            counts(&counters_c),
            "post-restart counts diverged for ops {:?} words {:?}", ops, words
        );
    }

    /// Mutation sanity check: the oracle notices a single dropped word.
    #[test]
    fn dropped_word_mutation_is_caught(
        word_recipe in prop::collection::vec(any::<u16>(), 1..16),
    ) {
        let _obs = obs_guard();
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let mut full = compact_source(&words);
        let mut truncated = compact_source(&words[..words.len() - 1]);
        let out_full = rendered(&mut *full);
        let out_short = rendered(&mut *truncated);
        prop_assert_ne!(out_full, out_short);
    }
}

// ---------------------------------------------------------------------------
// Targeted regressions
// ---------------------------------------------------------------------------

/// The wordcount shape exactly: split-style slices → numeric parse →
/// arithmetic, compared against the same words boxed.
#[test]
fn wordcount_shape_agrees() {
    let _obs = obs_guard();
    let words: Vec<String> = (0..40).map(|i| format!("{}", i * 37)).collect();
    let mk_plan = || {
        StagePlan::new()
            .filter_map(|v| {
                let n = gde::ops::to_num(v)?;
                match n {
                    gde::ops::Num::Int(i) => Some(Value::from(i * 3)),
                    _ => None,
                }
            })
            .map(|v| Value::Real(v.as_int().unwrap_or(0) as f64 * 0.5))
    };
    let mut b = mk_plan().instantiate(boxed_source(&words));
    let mut c = mk_plan().instantiate(compact_source(&words));
    assert_eq!(rendered(&mut *b), rendered(&mut *c));
}

/// A table populated through compact keys is observationally the same
/// table as one populated through boxed keys, probed through either form.
#[test]
fn tables_agree_across_key_forms() {
    let _obs = obs_guard();
    let words = ["alpha", "beta", "alpha", "é7", "beta", "alpha"];
    let fill = |mk: &dyn Fn(&str) -> Value| {
        let t = Value::table();
        for w in words {
            let k = mk(w);
            let n = gde::ops::index(&t, &k)
                .and_then(|v| v.as_int())
                .unwrap_or(0);
            gde::ops::index_assign(&t, &k, Value::from(n + 1));
        }
        t
    };
    let line: Arc<str> = Arc::from(words.join(" ").as_str());
    let mut pos = 0usize;
    let mut slice_vals = Vec::new();
    for w in words {
        slice_vals.push(Value::slice(line.clone(), pos, pos + w.len()));
        pos += w.len() + 1;
    }
    let window_of = |w: &str| {
        let at = line.find(w).unwrap();
        Value::slice(line.clone(), at, at + w.len())
    };
    let it = std::cell::RefCell::new(slice_vals.into_iter());
    let boxed = fill(&|w| Value::str(w));
    let promoted = fill(&|w| window_of(w).promote());
    let sliced = fill(&|_| it.borrow_mut().next().unwrap());
    for t in [&boxed, &promoted, &sliced] {
        assert_eq!(t.size(), Some(3));
        for (w, want) in [("alpha", 3), ("beta", 2), ("é7", 1)] {
            for probe in [Value::str(w), window_of(w)] {
                assert_eq!(
                    gde::ops::index(t, &probe).and_then(|v| v.as_int()),
                    Some(want),
                    "{w} through {probe:?}"
                );
            }
        }
    }
}

/// Refcount traffic of the embedded programs, exactly. The counts were
/// recorded when the borrowed form was still two structs (one per owner);
/// a string representation may change only if they do not. The report
/// promotes each of its 7 distinct words once, on insert. While table
/// reads promoted too, it read 22 promotions (two per word), each after
/// a clone of the window: 47 clones. Its `"="` separator, made once per
/// run, is an owned string, which counts no inline hit.
#[cfg(feature = "obs")]
#[test]
fn refcount_traffic_is_pinned() {
    use wordcount::{embedded, Corpus, Weight};
    const COUNTERS: [&str; 3] = [
        "gde.value.arc_clones",
        "gde.value.inline_hits",
        "gde.value.promotions",
    ];
    let _obs = obs_guard();
    let delta = |run: &dyn Fn()| {
        let before = COUNTERS.map(|name| obs::counter(name).get());
        run();
        let after = COUNTERS.map(|name| obs::counter(name).get());
        std::array::from_fn::<u64, 3, _>(|i| after[i] - before[i])
    };
    // Repeats, a multi-byte word, unparsable words, stray whitespace.
    let corpus = Corpus::from_lines(vec![
        "10 zz 7 abc 10".to_string(),
        "héllo 42 zz".to_string(),
        "  7 7 q1 ".to_string(),
    ]);
    let sequential = delta(&|| {
        embedded::sequential(&corpus, Weight::Light);
    });
    assert_eq!(sequential, [9, 11, 0], "embedded::sequential");
    let report = delta(&|| {
        embedded::frequency_report(&corpus);
    });
    assert_eq!(report, [32, 22, 7], "embedded::frequency_report");
}
