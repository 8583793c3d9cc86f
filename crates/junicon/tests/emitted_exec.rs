//! Compile-and-run proof for emitted code.
//!
//! The `*_emitted.rs` fixtures (generated by `junicon::emit` from
//! `fixtures/sources.rs`; `spawnmap` is the Fig. 5 translation) are compiled
//! into this test binary and executed, and their behaviour is checked
//! against the interpreter running the identical source — interpreted and
//! transpiled programs must agree result for result.

// The fixtures are byte-exact emitter output (see emit_fixture.rs);
// rustfmt must not rewrite them or the snapshot comparison drifts.
#[rustfmt::skip]
#[path = "fixtures/spawnmap_emitted.rs"]
mod spawnmap;

#[rustfmt::skip]
#[path = "fixtures/countdown_emitted.rs"]
mod countdown;

#[rustfmt::skip]
#[path = "fixtures/prims_emitted.rs"]
mod prims;

#[rustfmt::skip]
#[path = "fixtures/fig4_emitted.rs"]
mod fig4;

#[rustfmt::skip]
#[path = "fixtures/classes_emitted.rs"]
mod classes;

#[path = "fixtures/sources.rs"]
mod sources;

use gde::func::arg;
use gde::{GenExt, ProcValue, Value};
use junicon::Interp;

/// Evaluate each call three times — over the emitted procedures installed
/// into a fresh interpreter's globals (so builtins such as `put`/`table`
/// resolve), over the interpreter loaded with the same source, and over the
/// interpreter loaded with everything left by-name (every operand looked up
/// in the frame, not read from a resolved slot) — and require the same
/// result sequence. Returns the sequences, one per call.
fn emitted_equals_interpreted(
    src: &str,
    install: fn(&gde::env::Env),
    setup: impl Fn(&Interp),
    calls: &[&str],
) -> Vec<Vec<String>> {
    let emitted = Interp::new();
    install(emitted.globals());
    let interpreted = Interp::new();
    interpreted.load(src).unwrap();
    let by_name = Interp::new();
    by_name.load_with_resolve(src, false).unwrap();
    [&emitted, &interpreted, &by_name]
        .into_iter()
        .for_each(&setup);
    let run = |i: &Interp, call: &str| -> Vec<String> {
        let results = i.eval(call).unwrap();
        results.iter().map(|v| format!("{v:?}")).collect()
    };
    calls
        .iter()
        .map(|call| {
            let got = run(&emitted, call);
            assert_eq!(got, run(&interpreted, call), "{call}");
            assert_eq!(got, run(&by_name, call), "{call}, by name");
            got
        })
        .collect()
}

#[test]
fn emitted_toplevel_runs_like_load() {
    let emitted = Interp::new();
    countdown::install(emitted.globals());
    countdown::toplevel(emitted.globals());
    let interpreted = Interp::new();
    interpreted.load(sources::COUNTDOWN_SRC).unwrap();
    assert_eq!(emitted.output(), interpreted.output());
    assert_eq!(emitted.output(), ["a", "b", "t=12 i=2"]);
}

#[test]
fn emitted_prims_agree_with_interpreter_row_by_row() {
    let got = emitted_equals_interpreted(
        sources::PRIMS_SRC,
        prims::install,
        |_| {},
        &[
            "binops(7, 2)",
            "binops(2, 7)",
            "binops(\"ab\", \"ab\")",
            "binops(3, 0)",
            "shapes(4, \"hello\")",
            "deferred(3)",
            "control(3, \"hello\")",
            "control(4, \"hello\")",
        ],
    );
    // Each of the 20 operators standing alone, then each as a product's
    // last link; the comparisons that fail on (7, 2) drop out of both halves alike.
    assert_eq!(got[0].len() % 2, 0);
    assert_eq!(got[0][..got[0].len() / 2], got[0][got[0].len() / 2..]);
    assert!(got[0].len() >= 2 * 13 && got[4].len() >= 30, "{got:?}");
    // Per pass: the pipe's sum 1 + … + i, then the co-expression's value
    // — its `break` must not end the enclosing `every`.
    let ints = |xs: &[i64]| {
        xs.iter()
            .map(|x| format!("{:?}", Value::from(*x)))
            .collect()
    };
    let want: Vec<String> = ints(&[1, 10, 3, 20, 6, 30]);
    assert_eq!(got[5], want);
    // `control(3, …)` ends by returning 4; `control(4, …)` by failing.
    assert_eq!(got[6].last(), ints(&[4]).last(), "{got:?}");
    assert!(got[7].last().unwrap().starts_with("1234567890"), "{got:?}");
}

#[test]
fn emitted_fig4_agrees_with_interpreter() {
    let lines = ["a bb ccc a", "bb a dddd", "ccc a"];
    let got = emitted_equals_interpreted(
        sources::FIG4_SRC,
        fig4::install,
        |i| {
            let lines = lines.iter().map(Value::str).collect();
            i.globals().declare("lines", Value::list(lines));
            i.globals().declare("chunkSize", Value::from(4));
        },
        &[
            "mapReduce(wordSize, <> splitWords(readLines()), sum, 0)",
            "chunk(<> (1 to 9))",
            "freqReport()",
        ],
    );
    // Nine words in chunks of four: three partial sums of word sizes.
    assert_eq!(got[0].len(), 3);
    let report: Vec<String> = ["a=4", "bb=2", "ccc=2", "dddd=1"]
        .iter()
        .map(|l| format!("{:?}", Value::str(l)))
        .collect();
    assert_eq!(got[2], report);
}

#[test]
fn emitted_code_calls_the_natives_the_host_registered() {
    // A `split` that differs from the builtin (`rt::native_method` splits
    // on white space), and Fig. 3's `this::` hashers, which have no
    // builtin: emitted code binds the host's natives, as `load` does.
    let got = emitted_equals_interpreted(
        sources::FIG4_SRC,
        fig4::install,
        |i| {
            i.register_native("split", |line, _| {
                let parts = line.as_str()?.split(',').map(Value::str).collect();
                Some(Value::list(parts))
            });
            i.register_native("wordToNumber", |_, args| {
                args.first()?.size().map(Value::from)
            });
            i.register_native("hashNumber", |_, args| {
                gde::ops::mul(args.first()?, &Value::from(10))
            });
        },
        &["splitWords(\"a b,cc\")", "hashWords(\"a b,cc\")"],
    );
    let shown =
        |vals: Vec<Value>| -> Vec<String> { vals.iter().map(|v| format!("{v:?}")).collect() };
    assert_eq!(got[0], shown(vec![Value::str("a b"), Value::str("cc")]));
    assert_eq!(got[1], shown(vec![Value::from(30), Value::from(20)]));
}

#[test]
fn emitted_classes_agree_with_interpreter() {
    let got = emitted_equals_interpreted(
        sources::CLASSES_SRC,
        classes::install,
        |_| {},
        &[
            "DataParallel(3).mapReduce(square, <> (1 to 7), sum, 0)",
            "DataParallel(2).chunk(<> (1 to 5))",
            "Counter(1).bump(2).bump(3).total()",
            "(c := Counter(10)) & c.bump(5) === c & c.n",
            "type(Counter(4).bump)",
            "Counter(4).self",
            "Counter(4).total := 1",
            "(p := Pair(1)) & (p.second := 2) & p.first + p.second",
            // One call site each, re-run per value: emitted procedures
            // re-run their activation by the interpreter's rule.
            "square(1 to 5)",
            "sum(square(1 to 3), 10)",
        ],
    );
    let shown = |vals: &[Value]| -> Vec<String> { vals.iter().map(|v| format!("{v:?}")).collect() };
    let ints = |xs: &[i64]| shown(&xs.iter().map(|&x| Value::from(x)).collect::<Vec<_>>());
    // Fig. 4 over 1..7 in chunks of three, squared and summed per chunk:
    // `mapReduce` reaches its sibling `chunk` unqualified, as the paper has it.
    assert_eq!(got[0], ints(&[14, 77, 49]));
    assert_eq!(got[1].len(), 3, "{got:?}");
    assert_eq!(got[2], ints(&[6]));
    assert_eq!(got[3], ints(&[15]));
    assert_eq!(got[4], shown(&[Value::str("procedure")]));
    assert!(got[5].is_empty() && got[6].is_empty(), "{got:?}");
    assert_eq!(got[7], ints(&[3]));
    assert_eq!(got[8], ints(&[1, 4, 9, 16, 25]));
    assert_eq!(got[9], ints(&[11, 14, 19]));
}

fn double_proc() -> ProcValue {
    ProcValue::native("double", |args| {
        gde::ops::mul(&arg(args, 0), &Value::from(2))
    })
}

#[test]
fn emitted_spawnmap_compiles_and_runs() {
    let globals = gde::env::Env::root();
    spawnmap::install(&globals);
    let p = match globals.get("spawnMap") {
        Value::Proc(p) => p,
        other => panic!("spawnMap not installed: {other:?}"),
    };
    let chunk = Value::list(vec![Value::from(1), Value::from(2), Value::from(3)]);
    let mut g = p.invoke(vec![Value::Proc(double_proc()), chunk]);
    let got: Vec<i64> = g
        .collect_values()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(got, vec![2, 4, 6]);
}

#[test]
fn emitted_agrees_with_interpreter() {
    // Interpreter side: same source, same workload.
    let interp = Interp::new();
    interp.load(sources::SPAWNMAP_SRC).unwrap();
    interp.register_proc(double_proc());
    interp
        .globals()
        .declare("c", Value::list((1..=5).map(Value::from).collect()));
    let interpreted: Vec<i64> = interp
        .eval("spawnMap(double, c)")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();

    // Emitted side.
    let globals = gde::env::Env::root();
    spawnmap::install(&globals);
    let p = match globals.get("spawnMap") {
        Value::Proc(p) => p,
        _ => unreachable!(),
    };
    let chunk = Value::list((1..=5).map(Value::from).collect());
    let emitted: Vec<i64> = p
        .invoke(vec![Value::Proc(double_proc()), chunk])
        .collect_values()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();

    assert_eq!(interpreted, emitted);
    assert_eq!(emitted, vec![2, 4, 6, 8, 10]);
}

#[test]
fn emitted_loop_with_suspend_runs() {
    // The countdown fixture: suspend inside a while loop, emitted to Rust.
    let globals = gde::env::Env::root();
    countdown::install(&globals);
    let p = match globals.get("countdown") {
        Value::Proc(p) => p,
        other => panic!("countdown not installed: {other:?}"),
    };
    let got: Vec<i64> = p
        .invoke(vec![Value::from(5)])
        .collect_values()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(got, vec![5, 4, 3, 2, 1]);

    // And it agrees with the interpreter.
    let interp = Interp::new();
    interp.load(sources::COUNTDOWN_SRC).unwrap();
    let interpreted: Vec<i64> = interp
        .eval("countdown(5)")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(interpreted, got);
}

#[test]
fn emitted_pipe_is_threaded() {
    // The emitted spawnMap really spawns a producer thread: a slow mapper
    // still completes, and results arrive in order.
    let globals = gde::env::Env::root();
    spawnmap::install(&globals);
    let p = match globals.get("spawnMap") {
        Value::Proc(p) => p,
        _ => unreachable!(),
    };
    let slow = ProcValue::native("slow", |args| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Some(arg(args, 0))
    });
    let chunk = Value::list((1..=10).map(Value::from).collect());
    let got: Vec<i64> = p
        .invoke(vec![Value::Proc(slow), chunk])
        .collect_values()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(got, (1..=10).collect::<Vec<_>>());
}
