//! Pipe-crossing stress for the compact-value promote hatch.
//!
//! The producer thread isolates every value with `Value::deep_copy`
//! before it enters the queue, which promotes borrowed [`Value::slice`]
//! handles to owned form. These tests drive slice-producing pipelines
//! through the batched transport — including mid-stream restarts and
//! close-under-fire schedules — and assert the consumer side never
//! observes a borrowed handle and always reads the right text.

use gde::comb::fuse::StagePlan;
use gde::comb::values;
use gde::{BoxGen, Gen, GenExt, Step, Value};
use pipes::Pipe;
use std::sync::Arc;

/// A generator that slices one shared line buffer into word windows —
/// the `WordSplit` shape, self-contained for this crate's tests.
struct SliceWords {
    line: Arc<str>,
    pos: usize,
}

impl Gen for SliceWords {
    fn resume(&mut self) -> Step {
        let bytes = self.line.as_bytes();
        let mut start = self.pos;
        while start < bytes.len() && bytes[start] == b' ' {
            start += 1;
        }
        if start >= bytes.len() {
            self.pos = bytes.len();
            return Step::Fail;
        }
        let mut end = start;
        while end < bytes.len() && bytes[end] != b' ' {
            end += 1;
        }
        self.pos = end;
        Step::Suspend(Value::slice(self.line.clone(), start, end))
    }
    fn restart(&mut self) {
        self.pos = 0;
    }
}

fn line_of(n: usize) -> Arc<str> {
    let words: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
    Arc::from(words.join(" ").as_str())
}

fn assert_owned_words(got: &[Value], want_count: usize, tag: &str) {
    assert_eq!(got.len(), want_count, "{tag}: wrong word count");
    for (i, v) in got.iter().enumerate() {
        assert!(
            !v.is_borrowed(),
            "{tag}: a borrowed handle crossed the pipe"
        );
        assert_eq!(
            v.as_str(),
            Some(format!("w{i}").as_str()),
            "{tag}: word {i}"
        );
    }
}

#[test]
fn slices_cross_the_pipe_promoted() {
    // Every delivered value is owned: nothing the consumer receives can
    // pin the producer's line buffer. (Arena release itself is proven
    // deterministically in gde/tests/promote_prop.rs — here the factory
    // and producer thread own the line, and when they drop is a
    // scheduling detail.)
    let line = line_of(100);
    let mk = move || {
        Box::new(SliceWords {
            line: line.clone(),
            pos: 0,
        }) as BoxGen
    };
    let p = Pipe::with_capacity(mk, 8);
    let got = pipes::drain(p);
    assert_owned_words(&got, 100, "plain pipe");
}

#[test]
fn staged_pipe_promotes_through_fused_stages() {
    // Slices flow through a fused monogenic run before the thread
    // boundary: promotion happens at the boundary, not per stage.
    let line = line_of(50);
    let mk = move || {
        Box::new(SliceWords {
            line: line.clone(),
            pos: 0,
        }) as BoxGen
    };
    let plan = StagePlan::new()
        .filter(|v| v.as_str().is_some_and(|s| !s.is_empty()))
        .map(|v| v.clone());
    let p = Pipe::staged(mk, &plan, 8, 4);
    let got = pipes::drain(p);
    assert_owned_words(&got, 50, "staged pipe");
}

#[test]
fn restart_replay_delivers_promoted_values_every_time() {
    // Restart respawns the producer over a fresh generator tree; every
    // replay must deliver owned values with identical text.
    let line = line_of(30);
    let mk = move || {
        Box::new(SliceWords {
            line: line.clone(),
            pos: 0,
        }) as BoxGen
    };
    let mut p = Pipe::batched(mk, 4, 4);
    for replay in 0..3 {
        let mut got = Vec::new();
        while let Some(v) = p.next_value() {
            got.push(v);
        }
        assert_owned_words(&got, 30, &format!("replay {replay}"));
        Gen::restart(&mut p);
    }
}

#[test]
fn close_under_fire_never_leaks_borrowed_handles() {
    // Restart the pipe mid-stream at varying depths while the producer is
    // still firing: whatever prefix was consumed, plus the full replay
    // after the final restart, contains only owned values.
    for cut in [0usize, 1, 7, 23] {
        let line = line_of(40);
        let mk = move || {
            Box::new(SliceWords {
                line: line.clone(),
                pos: 0,
            }) as BoxGen
        };
        let mut p = Pipe::batched(mk, 2, 3);
        let mut prefix = Vec::new();
        for _ in 0..cut {
            match p.next_value() {
                Some(v) => prefix.push(v),
                None => break,
            }
        }
        for v in &prefix {
            assert!(
                !v.is_borrowed(),
                "cut {cut}: borrowed handle in consumed prefix"
            );
        }
        // Close the running producer and replay from the top.
        Gen::restart(&mut p);
        let mut got = Vec::new();
        while let Some(v) = p.next_value() {
            got.push(v);
        }
        assert_owned_words(&got, 40, &format!("post-restart cut {cut}"));
    }
}

#[test]
fn mixed_compact_forms_cross_intact() {
    // A window, a promoted window and a Str all cross the boundary with
    // their text (and owned forms keep their representation — only the
    // window rewrites).
    let line: Arc<str> = Arc::from("alpha beta gamma");
    let mk = move || {
        Box::new(values(vec![
            Value::slice(line.clone(), 0, 5),
            Value::slice(line.clone(), 6, 10).promote(),
            Value::str("gamma"),
        ])) as BoxGen
    };
    let got = pipes::drain(Pipe::with_capacity(mk, 4));
    assert_eq!(got.len(), 3);
    assert_eq!(got[0].as_str(), Some("alpha"));
    assert!(!got[0].is_borrowed());
    assert!(
        matches!(got[1], Value::Str(_)),
        "a promoted window crosses as Str"
    );
    assert!(matches!(got[2], Value::Str(_)), "Str crosses as Str");
    assert_eq!(got[1].as_str(), Some("beta"));
    assert_eq!(got[2].as_str(), Some("gamma"));
}
