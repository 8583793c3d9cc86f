//! Property suite for the promote-to-owned escape hatch.
//!
//! Borrowed string handles ([`Value::slice`]) pin their line buffer — the
//! pipeline's arena — alive. The runtime's claim is that a borrowed
//! handle can never *outlive* that arena, because every escape point a
//! value can take out of its stage promotes it to an owned form first:
//!
//! * storing into a [`Var`] cell (and therefore any `Env` slot,
//!   declaration, assignment, or in-place update);
//! * being inserted as a table key ([`gde::TableData::store`]; a read
//!   probes with the window in place and stores nothing);
//! * crossing a thread boundary ([`Value::deep_copy`], the pipe
//!   producer's isolation step);
//! * deferred bodies capture environments, not raw values, so a deferred
//!   read goes through a `Var` and observes only promoted values.
//!
//! The suite drives random schedules of escape events over words sliced
//! from shared line buffers and asserts, for every schedule: no escaped
//! value is borrowed; every escaped value still reads the right text;
//! and once the schedule's local handles drop, every line buffer is freed
//! (checked through `Weak` observers — escaped values do not pin the
//! arena).

use gde::{Env, Value, Var};
use std::sync::{Arc, Weak};
use tinyprop::prelude::*;

/// Deterministic word for a recipe integer (mix of numeric, ASCII and
/// multi-byte text so slice windows land on interesting boundaries).
fn word(n: u16) -> String {
    match n % 3 {
        0 => format!("{}", n),
        1 => format!("w{}", n % 32),
        _ => format!("é{}", n % 8),
    }
}

/// One arena line holding `words`, plus the slice handles into it and a
/// weak observer on the buffer.
fn build_line(words: &[String]) -> (Vec<Value>, Weak<str>) {
    let line: Arc<str> = Arc::from(words.join(" ").as_str());
    let weak = Arc::downgrade(&line);
    let mut out = Vec::with_capacity(words.len());
    let mut pos = 0usize;
    for w in words {
        out.push(Value::slice(line.clone(), pos, pos + w.len()));
        pos += w.len() + 1;
    }
    (out, weak)
}

/// Assert an escaped value upholds the invariant: owned form, right text.
fn assert_promoted(v: &Value, want: &str, how: &str) {
    assert!(
        !v.is_borrowed(),
        "{how}: a borrowed handle escaped unpromoted"
    );
    assert_eq!(v.as_str(), Some(want), "{how}: text corrupted by promotion");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random schedules of escape events: whatever route a word takes out
    /// of its stage, the stored form is owned, reads back exactly, and
    /// the arena is released as soon as the pipeline-local handles drop.
    #[test]
    fn no_borrowed_handle_outlives_its_arena(
        word_recipe in prop::collection::vec(any::<u16>(), 1..12),
        routes in prop::collection::vec(0u8..=4, 1..12),
    ) {
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let (slices, weak) = build_line(&words);

        // Escaped values outlive the local slice handles below.
        let mut escaped: Vec<(Value, String)> = Vec::new();
        let env = Env::root();
        let table = Value::table();

        for (i, v) in slices.into_iter().enumerate() {
            let text = words[i % words.len()].clone();
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
                // In-place update writing a borrowed handle.
                2 => {
                    let cell = Var::new(Value::Null);
                    cell.update(move |slot| *slot = v);
                    escaped.push((cell.get(), text));
                }
                // Table key: the key escapes into the table's storage.
                3 => {
                    gde::ops::index_assign(&table, &v, Value::from(i as i64));
                    // Probe through an owned key; the entry must exist.
                    let got = gde::ops::index(&table, &Value::str(&text));
                    prop_assert!(got.is_some(), "table lost key {text}");
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

        // All local slice handles are gone; only escaped (promoted)
        // values and the env/table remain. The arena must be free.
        prop_assert!(
            weak.upgrade().is_none(),
            "escaped values still pin their line buffer (words {:?})",
            words
        );
    }

    /// Deferred-body reads go through `Var` cells, so a body resumed long
    /// after its pipeline finished observes only promoted values.
    #[test]
    fn deferred_bodies_observe_promoted_values(
        word_recipe in prop::collection::vec(any::<u16>(), 1..8),
    ) {
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let (slices, weak) = build_line(&words);

        let env = Env::root();
        for (i, v) in slices.into_iter().enumerate() {
            env.declare(&format!("w{i}"), v);
        }
        // The pipeline is gone; the environment (and any deferred body
        // closing over it) lives on, without pinning the arena.
        prop_assert!(weak.upgrade().is_none(), "env capture pinned the arena");
        for (i, w) in words.iter().enumerate() {
            let got = env.get(&format!("w{i}"));
            assert_promoted(&got, w, "deferred env read");
        }
    }

    /// A table filled through `store` with windows of a line, each word
    /// stored and then updated through a second window, keeps owned keys
    /// only and does not keep the line alive.
    #[test]
    fn stored_windows_do_not_pin_their_line(
        word_recipe in prop::collection::vec(any::<u16>(), 1..12),
    ) {
        let words: Vec<String> = word_recipe.iter().map(|&n| word(n)).collect();
        let (slices, weak) = build_line(&words);
        let (again, weak_again) = build_line(&words);
        let Value::Table(t) = Value::table() else { unreachable!() };
        let mut t = t.lock();
        for (i, (v, w)) in slices.into_iter().zip(again).enumerate() {
            prop_assert!(t.store(&v, Value::from(i as i64)).is_some());
            prop_assert!(t.store(&w, Value::from(-(i as i64))).is_some());
        }
        prop_assert!(t.keys().all(|k| !k.is_borrowed()), "a window was stored as a key");
        prop_assert!(weak.upgrade().is_none(), "the table pins its keys' line (words {:?})", words);
        prop_assert!(weak_again.upgrade().is_none(), "an update pinned its window's line");
        for w in &words {
            prop_assert!(t.lookup(&Value::str(w)).flatten().is_some(), "table lost key {}", w);
        }
    }
}

/// Reads probe with the window in place: a hit, a miss and an indexed
/// read each leave the table's keys as they were, and the probed line is
/// freed with the probe.
#[test]
fn a_lookup_leaves_no_window_in_the_table() {
    let table = Value::table();
    gde::ops::index_assign(&table, &Value::str("hit"), Value::from(1)).expect("a key");
    let (probes, weak) = build_line(&["hit".to_string(), "miss".to_string()]);
    let Value::Table(t) = &table else {
        unreachable!()
    };
    assert_eq!(t.lock().lookup(&probes[0]), Some(Some(&Value::from(1))));
    assert_eq!(t.lock().lookup(&probes[1]), Some(None));
    for probe in &probes {
        gde::ops::index(&table, probe).expect("a read with default");
    }
    drop(probes);
    assert!(
        weak.upgrade().is_none(),
        "a read kept its probe's line alive"
    );
    let t = t.lock();
    assert_eq!(t.len(), 1);
    assert!(t.keys().all(|k| !k.is_borrowed()));
}

/// Restart-replay: a generator that re-slices its line on every restart
/// keeps its escapes sound across replays (the arena of a *previous*
/// replay is never pinned by values escaped during it).
#[test]
fn restart_replay_escapes_stay_sound() {
    let words: Vec<String> = (0..6).map(|i| format!("r{i}")).collect();
    let cell = Var::null();
    let mut weaks = Vec::new();
    for _replay in 0..3 {
        let (slices, weak) = build_line(&words);
        weaks.push(weak);
        for v in slices {
            cell.set(v);
        }
        assert_promoted(&cell.get(), words.last().unwrap(), "replay escape");
    }
    for (i, weak) in weaks.iter().enumerate() {
        assert!(
            weak.upgrade().is_none(),
            "replay {i}'s arena is still pinned"
        );
    }
}
