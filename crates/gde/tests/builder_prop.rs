//! Property suite for builder-arena lifetime: no builder window outlives
//! its chunk, and no escaped value pins the arena.
//!
//! [`ops::concat`](gde::ops::concat) hands out windows into shared
//! [`gde::StrBuf`] chunks. Like slice handles, these are borrowed: they
//! pin their chunk alive, and every escape route out of a stage must
//! promote them to an owned form first —
//!
//! * storing into a [`Var`] cell (env slots, assignment, in-place update);
//! * being inserted as a table key ([`gde::TableData::store`]);
//! * crossing a thread boundary ([`Value::deep_copy`]);
//!
//! The suite drives random schedules of concat results through random
//! escape routes and asserts, for every schedule: no escaped value is
//! borrowed ([`Value::is_borrowed`]); every escaped value reads back the
//! right text; and once the schedule's local handles drop and the
//! thread's builder retires its chunk, every observed chunk is freed —
//! escaped values do not pin the arena.

use gde::{Env, Value, Var};
use std::sync::{Arc, Weak};
use tinyprop::prelude::*;

/// Deterministic word for a recipe integer (numeric, ASCII, multi-byte).
fn word(n: u16) -> String {
    match n % 3 {
        0 => format!("{}", n % 300),
        1 => format!("w{}", n % 32),
        _ => format!("é{}", n % 8),
    }
}

/// Build `word || "-"` through the arena: a builder window (plus the
/// expected text), and a weak observer on the chunk it pins — the
/// thread's current chunk, which the concat just wrote into.
fn built_value(w: &str) -> (Value, String, Option<Weak<gde::StrBuf>>) {
    let line: Arc<str> = Arc::from(w);
    let v = gde::ops::concat(&Value::slice(line, 0, w.len()), &Value::str("-"))
        .expect("strings concatenate");
    let weak = v
        .is_borrowed()
        .then(|| gde::strbuf::with_builder(|b| Arc::downgrade(b.chunk())));
    (v, format!("{w}-"), weak)
}

/// Drop the calling thread's current chunk from the builder: an oversize
/// push forces retirement, so only outstanding windows keep old chunks
/// alive.
fn retire_current_chunk() {
    gde::strbuf::with_builder(|b| {
        let _ = b.push_str(&"x".repeat(1 << 17));
    });
}

/// Assert an escaped value upholds the invariant: owned form, right text.
fn assert_promoted(v: &Value, want: &str, how: &str) {
    assert!(
        !v.is_borrowed(),
        "{how}: a builder window escaped unpromoted"
    );
    assert_eq!(v.as_str(), Some(want), "{how}: text corrupted by promotion");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random schedules of escape events over arena-built values:
    /// whatever route a concat result takes out of its stage, the stored
    /// form is owned, reads back exactly, and the chunk is released once
    /// the stage-local windows drop.
    #[test]
    fn no_builder_window_outlives_its_chunk(
        word_recipe in prop::collection::vec(any::<u16>(), 1..12),
        routes in prop::collection::vec(0u8..=4, 1..12),
    ) {
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let mut escaped: Vec<(Value, String)> = Vec::new();
        let mut weaks: Vec<Weak<gde::StrBuf>> = Vec::new();
        let env = Env::root();
        let table = Value::table();

        for (i, w) in words.iter().enumerate() {
            let (v, text, weak) = built_value(w);
            weaks.extend(weak);
            match routes[i % routes.len()] {
                // Env declaration: slot storage goes through Var::new.
                0 => {
                    let cell = env.declare(&format!("x{i}"), v);
                    escaped.push((cell.get(), text));
                }
                // Bare Var assignment.
                1 => {
                    let cell = Var::null();
                    cell.set(v);
                    escaped.push((cell.get(), text));
                }
                // In-place update writing a builder window.
                2 => {
                    let cell = Var::new(Value::Null);
                    cell.update(move |slot| *slot = v);
                    escaped.push((cell.get(), text));
                }
                // Table key: the key escapes into the table's storage.
                3 => {
                    gde::ops::index_assign(&table, &v, Value::from(i as i64));
                    let got = gde::ops::index(&table, &Value::str(&text));
                    prop_assert!(got.is_some(), "table lost key {}", text);
                }
                // Thread-boundary isolation (the pipe producer's step).
                _ => {
                    escaped.push((v.deep_copy(), text));
                }
            }
        }

        for (v, want) in &escaped {
            assert_promoted(v, want, "escape route");
        }

        // All stage-local windows are gone; only escaped (promoted)
        // values and the env/table remain. Once the thread's builder
        // lets go of the chunk, nothing may pin it.
        retire_current_chunk();
        for (i, weak) in weaks.iter().enumerate() {
            prop_assert!(
                weak.upgrade().is_none(),
                "escaped values still pin chunk {} (words {:?})", i, words
            );
        }
    }

    /// Deep copies of compound values reach *into* structures: a list or
    /// table cell holding a builder window is promoted on the way across
    /// a pipe, and the copy does not pin the arena.
    #[test]
    fn deep_copy_promotes_nested_windows(
        word_recipe in prop::collection::vec(any::<u16>(), 1..8),
    ) {
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let mut weaks: Vec<Weak<gde::StrBuf>> = Vec::new();
        let mut items = Vec::new();
        let mut texts = Vec::new();
        for w in &words {
            let (v, text, weak) = built_value(w);
            weaks.extend(weak);
            items.push(v);
            texts.push(text);
        }
        let list = Value::list(items);
        let crossed = list.deep_copy();
        drop(list);
        retire_current_chunk();
        for (i, weak) in weaks.iter().enumerate() {
            prop_assert!(
                weak.upgrade().is_none(),
                "deep copy pinned chunk {} (words {:?})", i, words
            );
        }
        let Value::List(l) = &crossed else {
            panic!("deep copy of a list is a list");
        };
        for (v, want) in l.lock().iter().zip(&texts) {
            assert_promoted(v, want, "nested deep copy");
        }
    }
}

/// Restart-replay: a loop that rebuilds its concat chain every replay
/// keeps its escapes sound, and no previous replay's chunk stays pinned.
#[test]
fn restart_replay_escapes_stay_sound() {
    let cell = Var::null();
    let mut weaks = Vec::new();
    for replay in 0..3 {
        let (v, text, weak) = built_value(&format!("r{replay}"));
        weaks.extend(weak);
        cell.set(v);
        assert_promoted(&cell.get(), &text, "replay escape");
        retire_current_chunk();
    }
    for (i, weak) in weaks.iter().enumerate() {
        assert!(
            weak.upgrade().is_none(),
            "replay {i}'s chunk is still pinned"
        );
    }
}
