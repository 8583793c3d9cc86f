//! Differential suite for the builder-arena string plane.
//!
//! `ops::concat` claims to be a pure *representation* change over the old
//! allocate-per-`||` implementation (kept as [`gde::ops::concat_owned`]):
//! whatever mix of widening, tail extension, and fresh appends a pipeline
//! hits, the texts computed must be byte-identical to the boxed results.
//! This suite generates random word lists and random concat-heavy stage
//! pipelines, builds each pipeline twice — once with the builder-backed
//! `concat`, once with the boxed `concat_owned` — and asserts:
//!
//! * **identical outputs** (rendered value for value, in order);
//! * **identical per-stage evaluation counts** (failure points match);
//! * **identical table contents** through a counting stage keyed by the
//!   concatenated values themselves (builder windows promote to the same
//!   keys owned strings produce);
//! * **identical restart replay**.
//!
//! A mutation sanity check proves the oracle has teeth: a test-local
//! mutant of `concat` whose borrowed results come back one byte short —
//! the classic widening off-by-one — runs through the same plans, and the
//! differential catches it.

use gde::comb::fuse::StagePlan;
use gde::comb::values;
use gde::{BoxGen, Gen, GenExt, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tinyprop::prelude::*;

/// Deterministic word from a recipe integer: numeric words (coercion +
/// small-int image cache), plain ASCII, and multi-byte text (widening
/// windows must respect char boundaries).
fn word(n: u16) -> String {
    match n % 4 {
        0 => format!("{}", n % 300),
        1 => format!("w{}", n / 4),
        2 => format!("é{}", n % 8),
        _ => format!("x{}", n % 4),
    }
}

/// Words as slice windows into one shared line (every third interned):
/// the form hot generators actually feed `||`.
fn compact_source(words: &[String]) -> BoxGen {
    let line: Arc<str> = Arc::from(words.join(" ").as_str());
    let mut out = Vec::with_capacity(words.len());
    let mut pos = 0usize;
    for (i, w) in words.iter().enumerate() {
        if i % 3 == 2 {
            out.push(Value::interned(w));
        } else {
            out.push(Value::slice(line.clone(), pos, pos + w.len()));
        }
        pos += w.len() + 1;
    }
    Box::new(values(out))
}

type StageOp = (u8, i64);
type Counters = Vec<Arc<AtomicUsize>>;
type ConcatFn = fn(&Value, &Value) -> Option<Value>;

/// `left[1] || right[2]` (just `left[1]` when `right` has no second
/// char): subscripts are windows into the subscripted value's own owner,
/// so whether the pair widens depends on whose windows they are.
fn first_then_second(cat: ConcatFn, left: &Value, right: &Value) -> Option<Value> {
    let first = gde::ops::index(left, &Value::from(1))?;
    match gde::ops::index(right, &Value::from(2)) {
        Some(second) => cat(&first, &second),
        None => Some(first),
    }
}

/// Build a concat-heavy [`StagePlan`] from a recipe, parameterized by the
/// concatenation implementation under test. Each call builds independent
/// counters and tables, so a builder and a boxed instance compare stage
/// for stage.
fn build_plan(ops: &[StageOp], cat: ConcatFn) -> (StagePlan, Counters) {
    let mut plan = StagePlan::new();
    let mut counters: Counters = Vec::with_capacity(ops.len());
    for &(code, k) in ops {
        let c = Arc::new(AtomicUsize::new(0));
        counters.push(Arc::clone(&c));
        plan = match code % 9 {
            // Suffix concat: the report-assembly shape (`w || "-t"`).
            // Chained occurrences make the tail-extension regime hot.
            0 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                cat(v, &Value::str("-t"))
            }),
            // Numeric image concat: the right operand coerces through the
            // small-int cache / stack formatter (`w || count`).
            1 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                cat(v, &Value::from(k.rem_euclid(300)))
            }),
            // Self concat: both operands alias the same text.
            2 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                cat(v, v)
            }),
            // Adjacent-window concat: subscripting hands out windows into
            // the value's own owner, so `v[1] || v[2]` is exactly the
            // adjacency-widening fast path (when both chars exist).
            3 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                first_then_second(cat, v, v)
            }),
            // Table-key counting: concatenated values escape as keys; the
            // stage emits the running count for its key.
            4 => {
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
            // Lexical comparison: coerces through the borrowed text path
            // (`NumBuf`), keeping words below the threshold.
            5 => {
                let threshold = Value::str(word((k.rem_euclid(64)) as u16));
                plan.filter(move |v| {
                    c.fetch_add(1, Ordering::Relaxed);
                    gde::ops::str_lt(v, &threshold).is_some()
                })
            }
            // Explicit promotion: the escape hatch itself as a stage.
            6 => plan.map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                v.clone().promote()
            }),
            // Mixed owners: a window into the value's own owner (line
            // buffer, interner node) against a window into the arena
            // chunk a concat just wrote. These never widen, whatever
            // their coordinates are.
            7 => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                first_then_second(cat, v, &cat(v, &Value::str("+"))?)
            }),
            // Chunk adjacency: a sub-window of a concat result and its
            // right neighbour widen within the chunk.
            _ => plan.filter_map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                let built = cat(v, v)?;
                first_then_second(cat, &built, &built)
            }),
        };
    }
    (plan, counters)
}

/// Canonical rendering: Debug prints every string form as quoted text,
/// so representation differences vanish and only meaning remains.
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

    /// The headline property: builder-backed concat ≡ boxed concat on
    /// random concat-heavy pipelines — outputs, per-stage counts, and
    /// restart replay.
    #[test]
    fn builder_and_boxed_concat_agree(
        word_recipe in prop::collection::vec(any::<u16>(), 0..24),
        ops in prop::collection::vec((0u8..=8, any::<i64>()), 0..6),
    ) {
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let (plan_built, counters_built) = build_plan(&ops, gde::ops::concat);
        let (plan_boxed, counters_boxed) = build_plan(&ops, gde::ops::concat_owned);

        let mut built = plan_built.instantiate(compact_source(&words));
        let mut boxed = plan_boxed.instantiate(compact_source(&words));

        let out_built = rendered(&mut *built);
        let out_boxed = rendered(&mut *boxed);
        prop_assert_eq!(
            &out_built, &out_boxed,
            "outputs diverged for ops {:?} words {:?}", ops, words
        );
        prop_assert_eq!(
            counts(&counters_built),
            counts(&counters_boxed),
            "per-stage counts diverged for ops {:?} words {:?}", ops, words
        );

        // Restart replay: counting stages persist across restarts, so the
        // replay need not equal the first pass — but both concat
        // implementations must move in lockstep.
        built.restart();
        boxed.restart();
        prop_assert_eq!(
            rendered(&mut *built),
            rendered(&mut *boxed),
            "restart replay diverged for ops {:?} words {:?}", ops, words
        );
        prop_assert_eq!(
            counts(&counters_built),
            counts(&counters_boxed),
            "post-restart counts diverged for ops {:?} words {:?}", ops, words
        );
    }
}

/// The mutant: [`gde::ops::concat`] with a borrowed result that comes
/// back one byte short (callers feed it ASCII, so the cut is a char
/// boundary).
fn concat_one_short(a: &Value, b: &Value) -> Option<Value> {
    let joined = gde::ops::concat(a, b)?;
    match joined.as_str() {
        Some(text) if joined.is_borrowed() && !text.is_empty() => {
            Some(Value::str(&text[..text.len() - 1]))
        }
        _ => Some(joined),
    }
}

/// Mutation sanity check: an off-by-one in adjacency widening is exactly
/// the kind of bug this differential exists to catch. Through the
/// adjacent-window stage, `v[1] || v[2]` over a shared owner comes back
/// one byte short from the mutant, and the boxed oracle disagrees.
#[test]
fn adjacency_off_by_one_is_caught() {
    let words = ["hello".to_string(), "world".to_string()];
    let run = |cat: ConcatFn| {
        let (plan, _) = build_plan(&[(3, 0)], cat);
        rendered(&mut *plan.instantiate(compact_source(&words)))
    };
    let oracle = run(gde::ops::concat_owned);

    // Sanity: unmutated, the fast path is exact.
    assert_eq!(run(gde::ops::concat), oracle);
    assert_eq!(oracle, [r#""he""#, r#""wo""#]);

    let mutant = run(concat_one_short);
    assert_ne!(
        mutant, oracle,
        "a short adjacency widening must diverge from the boxed oracle"
    );
    assert_eq!(mutant, [r#""h""#, r#""w""#]);
}

/// The report-assembly shape exactly: `word || "=" || count` chains, the
/// concat sequence `wordcount::embedded::frequency_report` performs.
#[test]
fn report_chains_agree() {
    let words: Vec<String> = (0..40).map(|i| format!("w{}", i % 7)).collect();
    let eq = Value::interned("=");
    let chain = |cat: ConcatFn| -> Vec<String> {
        let mut src = compact_source(&words);
        let mut out = Vec::new();
        let mut n = 0i64;
        while let Some(w) = src.next_value() {
            n += 1;
            let line = cat(&w, &eq)
                .and_then(|l| cat(&l, &Value::from(n % 260)))
                .unwrap();
            out.push(line.to_string());
        }
        out
    };
    assert_eq!(chain(gde::ops::concat), chain(gde::ops::concat_owned));
}
