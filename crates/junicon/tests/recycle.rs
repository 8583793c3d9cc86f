//! A call site re-runs its activation: called again on the procedure it
//! ran last, it runs that activation over the new arguments instead of
//! building one — while the procedure's scope keeps the name generation it
//! had when the activation was built, so a fresh activation would bind the
//! same cells. A declaration in the scope or its parents (a), or a `::`
//! native registered with the host (c), moves the generation.
//!
//! Each case drives one call site over several calls and runs twice: in
//! the resolving interpreter and in `load_with_resolve(src, false)`, where
//! every name stays by-name. Both must give the expected values.

use blockingq::testkit::wait_until;
use gde::{comb, GenExt, ProcValue, Value};
use junicon::Interp;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// `src` loaded into a fresh interpreter, resolved and by-name.
fn loaded(src: &str) -> [(bool, Interp); 2] {
    [true, false].map(|resolve| {
        let i = Interp::new();
        i.load_with_resolve(src, resolve).unwrap();
        (resolve, i)
    })
}

fn ints(vals: Vec<Value>) -> Vec<i64> {
    vals.iter()
        .map(|v| v.as_int().expect("an integer"))
        .collect()
}

fn first_int(g: &mut gde::BoxGen) -> Option<i64> {
    g.next_value().and_then(|v| v.as_int())
}

/// (a) A by-name callee that now names another cell is seen by the next call.
#[test]
fn a_procedure_redefined_mid_iteration_is_called_from_the_next_call_on() {
    for (resolve, i) in loaded("def h(x) { return x; }  def k(x) { return h(x); }") {
        let mut g = i.gen("k(1 to 4)").unwrap();
        assert_eq!(first_int(&mut g), Some(1));
        i.load_with_resolve("def h(x) { return 100 * x; }", resolve)
            .unwrap();
        assert_eq!(
            ints(g.collect_values()),
            [200, 300, 400],
            "resolve {resolve}"
        );
    }
}

/// A call site whose callee is not a procedure fails, and calls the next
/// procedure its callee names (and re-runs it after the failures between).
#[test]
fn a_call_site_fails_on_a_non_procedure_and_calls_the_next_procedure() {
    for (resolve, i) in loaded("def id(x) { return x; }") {
        let got = i.eval(r#"(f := (3 | "s" | &null | id | 4 | id)) & f(7)"#);
        assert_eq!(ints(got.unwrap()), [7, 7], "resolve {resolve}");
        assert!(i.eval("(x := 3) & x(1)").unwrap().is_empty());
    }
}

/// (b) Implicit and declared locals start null on every call.
#[test]
fn locals_start_null_on_every_call() {
    let src = "def f(x) { if y === 7 then return -1; y := 7; return x; }
               def g(x) { local z; if z === 7 then return -1; z := 7; return x; }";
    for (resolve, i) in loaded(src) {
        for call in ["f(1 to 4)", "g(1 to 4)"] {
            let got = ints(i.eval(call).unwrap());
            assert_eq!(got, [1, 2, 3, 4], "{call}, resolve {resolve}");
        }
    }
}

/// (c) A native registered between calls is seen from the next call on,
/// by a procedure and by a method, whose scope is its object's field frame
/// over the globals.
#[test]
fn a_native_registered_between_calls_is_seen_by_the_next_call() {
    let src = "def n(x) { return x::length(); }
               class C(f) { method n(x) { return x::length(); } }";
    for call in [r#"n("abc" | "de" | "f")"#, r#"C(0).n("abc" | "de" | "f")"#] {
        for (resolve, i) in loaded(src) {
            let mut g = i.gen(call).unwrap();
            assert_eq!(first_int(&mut g), Some(3), "{call}");
            i.register_native("length", |_, _| Some(Value::from(99)));
            let got = ints(g.collect_values());
            assert_eq!(got, [99, 99], "{call}, resolve {resolve}");
        }
    }
}

/// (d) A recursive procedure: each depth is a call site of its own.
#[test]
fn recursion_re_runs_each_depth() {
    let src = "def fact(n) { if n <= 1 then return 1; return n * fact(n - 1); }";
    for (resolve, i) in loaded(src) {
        let got = ints(i.eval("fact(1 to 8)").unwrap());
        assert_eq!(
            got,
            [1, 2, 6, 24, 120, 720, 5040, 40320],
            "resolve {resolve}"
        );
    }
}

/// (e) A co-expression over a call's locals keeps them after later calls:
/// its procedure captures its environment, so it is never re-run.
#[test]
fn a_captured_local_outlives_later_calls() {
    for (resolve, i) in loaded("def c(x) { local y; y := x; return <> y; }") {
        let made = i.eval("c(1 to 3)").unwrap();
        let seen: Vec<Value> = made.iter().filter_map(coexpr::activate).collect();
        assert_eq!(ints(seen), [1, 2, 3], "resolve {resolve}");
    }
}

/// (f) A scan in a re-run procedure, restarted while suspended inside the
/// scan, leaves the caller's `&subject` in place and the stack balanced.
#[test]
fn a_scan_in_a_re_run_procedure_keeps_subject_balanced() {
    for (resolve, i) in loaded("def pre(x) { suspend x ? tab(2 to 3); }") {
        let got = i.eval(r#""outer" ? (pre("abc" | "xyz") || &subject)"#);
        let got: Vec<String> = got.unwrap().iter().map(Value::to_string).collect();
        // `tab` does not undo its move when resumed: the second result is
        // `tab(3)` from position 2.
        let want = ["aouter", "bouter", "xouter", "youter"];
        assert_eq!(got, want, "resolve {resolve}");
        assert!(i.eval("pos()").unwrap().is_empty(), "no scan is left open");
    }
}

/// (g) A `|>` producer exits when the call that made it is over: the
/// procedure holding the pipe is never re-run, and one that calls it in a
/// bounded position or a `return` drops that call when it is done.
#[test]
fn a_pipe_producer_exits_when_its_call_is_over() {
    let src = "def p(x) { suspend x + !(|> ticks()); }
               def once(x) { return p(x); }
               def test(x) { if p(x) > 0 then return x; }";
    for (resolve, i) in loaded(src) {
        let producing = Arc::new(()); // one more strong count per live producer
        let watch = Arc::downgrade(&producing);
        i.register_proc(ProcValue::new("ticks", move |_| {
            let (live, n) = (watch.upgrade(), AtomicI64::new(0));
            Box::new(comb::repeat_alt(comb::thunk(move || {
                let _held = &live;
                Some(Value::from(n.fetch_add(1, Ordering::SeqCst)))
            })))
        }));
        let live = || Arc::strong_count(&producing) - 1;
        let mut g = i.gen("once(1 to 3)").unwrap();
        for x in 1..=3 {
            assert_eq!(first_int(&mut g), Some(x), "resolve {resolve}");
            wait_until("earlier producers exit", || live() <= 1);
        }
        drop(g);
        wait_until("the last producer exits", || live() == 0);
        let mut g = i.gen("test(1 to 3)").unwrap();
        for x in 1..=3 {
            assert_eq!(first_int(&mut g), Some(x), "resolve {resolve}");
            wait_until("the condition's producer exits", || live() == 0);
        }
    }
}
