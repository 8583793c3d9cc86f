//! An interpreter's lifetime: when the last `Interp` handle and the last
//! generator from `Interp::gen` are dropped, the session ends and what the
//! interpreter loaded is freed.
//!
//! Each probe is a `Weak` (the pattern of `gde/tests/promote_prop.rs`):
//! dead means freed. [`shared_probe`] watches the interpreter itself — a
//! native's closure owns the `Arc`, and only the interpreter's globals hold
//! its natives — so it dies exactly when the session ends and clears them.

// Byte-exact emitter output (see emit_fixture.rs), so rustfmt leaves it.
#[rustfmt::skip]
#[path = "fixtures/classes_emitted.rs"]
mod classes;

use blockingq::testkit::wait_until;
use gde::{comb, GenExt, ObjData, ProcValue, Value};
use junicon::Interp;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// A `Weak` that dies when `interp`'s session ends.
fn shared_probe(interp: &Interp) -> Weak<()> {
    let marker = Arc::new(());
    let probe = Arc::downgrade(&marker);
    interp.register_native("probe", move |_, _| {
        let _held = &marker;
        None
    });
    probe
}

fn strings(vals: Vec<Value>) -> Vec<String> {
    vals.iter().map(Value::to_string).collect()
}

/// (a) Procedures and the globals refer to each other.
#[test]
fn globals_are_freed_with_the_last_handle() {
    let interp = Interp::new();
    interp
        .load(
            "def double(x) { return 2 * x; }\n\
             def doubled() { suspend double(!keep); }\n\
             keep := [1, 2];",
        )
        .unwrap();
    assert_eq!(strings(interp.eval("doubled()").unwrap()), ["2", "4"]);
    let keep = match interp.globals().get("keep") {
        Value::List(l) => Arc::downgrade(&l),
        other => panic!("keep is {other:?}"),
    };
    let shared = shared_probe(&interp);

    let handle = interp.clone();
    drop(interp);
    assert!(keep.upgrade().is_some(), "a handle is still alive");
    drop(handle);
    assert!(keep.upgrade().is_none(), "the global list is freed");
    assert!(shared.upgrade().is_none(), "the interpreter is freed");
}

/// (b) An object holds itself as `self` in its own field frame.
#[test]
fn objects_are_freed_with_the_session() {
    let interp = Interp::new();
    let seen: Arc<Mutex<Vec<Weak<ObjData>>>> = Arc::default();
    let record = Arc::clone(&seen);
    interp.register_proc(ProcValue::native("seen", move |args| {
        if let Value::Object(o) = args[0].deref() {
            record.lock().push(Arc::downgrade(&o));
        }
        Some(args[0].clone())
    }));
    interp
        .load(
            "class Node(label) {\n\
                 method named() { return self.label; }\n\
             }\n\
             def scratch() { local n; n := Node(\"local\"); seen(n); return n.named(); }\n\
             kept := Node(\"global\");",
        )
        .unwrap();
    assert_eq!(strings(interp.eval("scratch()").unwrap()), ["local"]);
    assert_eq!(strings(interp.eval("kept.named()").unwrap()), ["global"]);
    let kept = match interp.globals().get("kept") {
        Value::Object(o) => Arc::downgrade(&o),
        other => panic!("kept is {other:?}"),
    };
    let local = seen.lock().pop().expect("scratch() saw its object");
    let shared = shared_probe(&interp);
    // Objects live for the session, even one only a finished call held.
    assert!(local.upgrade().is_some() && kept.upgrade().is_some());

    drop(interp);
    assert!(kept.upgrade().is_none(), "the global object is freed");
    assert!(
        local.upgrade().is_none(),
        "the finished call's object is freed"
    );
    assert!(shared.upgrade().is_none(), "the interpreter is freed");
}

/// (c) A generator keeps its session: it outlives the handle it came from.
#[test]
fn a_generator_outlives_the_handle() {
    const PROGRAM: &str = "def readLines() { suspend !lines; }\n\
                           def splitWords(line) { suspend ! line::split(\" \"); }\n\
                           def hashWords(line) { suspend *splitWords(line); }";
    const ENTRY: &str = "hashWords(readLines())";
    let loaded = || {
        let interp = Interp::new();
        let lines = ["a bb", "ccc dddd eeeee"].map(Value::str).to_vec();
        interp.globals().declare("lines", Value::list(lines));
        interp.load(PROGRAM).unwrap();
        interp
    };
    let expected = strings(loaded().eval(ENTRY).unwrap());
    assert_eq!(expected, ["1", "2", "3", "4", "5"]);

    let interp = loaded();
    let shared = shared_probe(&interp);
    let mut started = interp.gen(ENTRY).unwrap();
    let mut fresh = interp.gen(ENTRY).unwrap();
    let first = started.next_value().expect("a first result");
    drop(interp);
    let mut got = vec![first];
    got.extend(started.collect_values());
    assert_eq!(strings(got), expected);
    drop(started);
    assert!(shared.upgrade().is_some(), "a generator is still alive");
    assert_eq!(strings(fresh.collect_values()), expected);
    drop(fresh);
    assert!(shared.upgrade().is_none(), "the interpreter is freed");
}

/// (d) Ending a session while a `|>` producer is blocked in `put` neither
/// panics nor hangs: dropping the pipe closes its queue, and the producer
/// exits and drops its generator.
#[test]
fn dropping_everything_while_a_pipe_producer_is_blocked() {
    let interp = Interp::new();
    let producing = Arc::new(()); // one more strong count per live producer
    let produced = Arc::new(AtomicUsize::new(0));
    let (watch, count) = (Arc::downgrade(&producing), Arc::clone(&produced));
    interp.register_proc(ProcValue::new("ticks", move |_| {
        let (live, count) = (watch.upgrade(), Arc::clone(&count));
        Box::new(comb::repeat_alt(comb::thunk(move || {
            let _held = &live;
            Some(Value::from(count.fetch_add(1, Ordering::SeqCst) as i64))
        })))
    }));
    interp.load("def numbers() { suspend ticks(); }").unwrap();

    let mut g = interp.gen("!(|> numbers())").unwrap();
    assert_eq!(g.next_value().and_then(|v| v.as_int()), Some(0));
    // The consumer took at most one batch, so past this count the queue is
    // full but for at most one batch: the producer waits in `put` or is
    // about to.
    let full = pipes::DEFAULT_CAPACITY + pipes::DEFAULT_BATCH;
    wait_until("the producer fills the queue", || {
        produced.load(Ordering::SeqCst) >= full
    });
    drop(g);
    drop(interp);
    wait_until("the producer exits and drops its generator", || {
        Arc::strong_count(&producing) == 1
    });
}

/// (e) A table key minted from a subscript window is an owned string of
/// the program's: it is freed with the session, not kept for the process.
#[test]
fn a_promoted_table_key_is_freed_with_the_session() {
    let interp = Interp::new();
    interp
        .load("s := \"alphabet\"; t := table(0); t[s[3]] := 1;")
        .unwrap();
    let read_back = interp.eval("key(t)").unwrap();
    let key = match read_back.as_slice() {
        [Value::Str(text)] if &**text == "p" => Arc::downgrade(text),
        other => panic!("key(t) is {other:?}"),
    };
    drop(read_back);
    assert!(key.upgrade().is_some(), "the table holds its key");
    drop(interp);
    assert!(key.upgrade().is_none(), "the key is freed with the session");
}

/// (f) An emitted class installed into an interpreter's globals: its
/// objects are adopted by those globals, as loaded ones are, and freed
/// when the session ends.
#[test]
fn emitted_objects_are_freed_with_the_session() {
    let interp = Interp::new();
    classes::install(interp.globals());
    interp.load("kept := Counter(1);").unwrap();
    let got = interp.eval("Counter(2).bump(3).total() | kept.bump(1).total()");
    assert_eq!(strings(got.unwrap()), ["5", "2"]);
    let kept = match interp.globals().get("kept") {
        Value::Object(o) => Arc::downgrade(&o),
        other => panic!("kept is {other:?}"),
    };
    let dropped = match interp.eval("Counter(4)").unwrap().remove(0) {
        Value::Object(o) => Arc::downgrade(&o),
        other => panic!("Counter(4) is {other:?}"),
    };
    let shared = shared_probe(&interp);
    assert!(kept.upgrade().is_some() && dropped.upgrade().is_some());

    drop(interp);
    assert!(kept.upgrade().is_none(), "the global object is freed");
    assert!(dropped.upgrade().is_none(), "the dropped object is freed");
    assert!(shared.upgrade().is_none(), "the interpreter is freed");
}

/// (g) A `::` native is declared in the globals, so it lives as long as a
/// handle or a generator does, and no longer.
#[test]
fn natives_are_freed_with_the_session() {
    let interp = Interp::new();
    let held = Arc::new(());
    let native = Arc::downgrade(&held);
    interp.register_native("held", move |_, _| {
        Some(Value::from(Arc::strong_count(&held) as i64))
    });
    interp
        .load("def twice() { suspend this::held() | this::held(); }")
        .unwrap();
    let mut g = interp.gen("twice()").unwrap();
    assert_eq!(strings(g.next_value().into_iter().collect()), ["1"]);
    drop(interp);
    assert!(native.upgrade().is_some(), "a generator is still alive");
    assert_eq!(strings(g.collect_values()), ["1"]);
    drop(g);
    assert!(
        native.upgrade().is_none(),
        "the native is freed with the session"
    );
}
