//! End-to-end reproductions of the paper's figures as executable checks
//! (see DESIGN.md's experiment index).

use concurrent_generators::gde::{GenExt, Value};
use concurrent_generators::junicon::mixed::{run_mixed, transpile_mixed};
use concurrent_generators::junicon::Interp;
use concurrent_generators::wordcount::{run_cell, Corpus, Suite, Variant, Weight};

/// Fig. 2: the pipeline model (`f(!|>s)`) and the data-parallel model
/// (`every (c=chunk(s)) |> f(!c)`) compute the same stream.
#[test]
fn figure2_models_agree() {
    let i = Interp::new();
    i.load(
        r#"
        def f(x) { return x * x; }
        def chunk(e) {
            local c;
            c := [];
            while put(c, @e) do { if *c >= 5 then { suspend c; c := []; }; };
            if *c > 0 then { return c; };
        }
        def pipelineModel(n) { suspend f( ! (|> (1 to n)) ); }
        def dataParallelModel(n) {
            local c, tasks, t;
            tasks := [];
            every c := chunk(<> (1 to n)) do {
                t := |> f(!c);
                tasks::add(t);
            };
            suspend ! (! tasks);
        }
        "#,
    )
    .unwrap();
    let pipeline: Vec<i64> = i
        .eval("pipelineModel(20)")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let data_parallel: Vec<i64> = i
        .eval("dataParallelModel(20)")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let expect: Vec<i64> = (1..=20).map(|x| x * x).collect();
    assert_eq!(pipeline, expect);
    assert_eq!(data_parallel, expect);
}

/// Fig. 3: the full WordCount embedding — mixed-language source, host
/// natives, pipeline iteration from the host — agrees with native Rust.
#[test]
fn figure3_wordcount_embedding() {
    let corpus = Corpus::generate(40, 6, 3);
    let interp = Interp::new();
    interp.globals().declare("lines", corpus.as_value());
    interp.register_native("wordToNumber", |_t, args| {
        let w = args.first()?.as_str()?;
        concurrent_generators::bigint::BigUint::from_str_radix(w, 36)
            .ok()
            .map(|n| Value::big(n.into()))
    });
    interp.register_native("hashNumber", |_t, args| {
        let mag = match args.first()?.deref() {
            Value::Int(v) if v >= 0 => v as f64,
            Value::Big(b) => b.to_f64(),
            _ => return None,
        };
        Some(Value::Real(mag.sqrt()))
    });
    let loaded = run_mixed(
        r#"@<script lang="junicon">
            def readLines() { suspend !lines; }
            def splitWords(line) { suspend ! line::split("\\s+"); }
        @</script>"#,
        &interp,
    )
    .unwrap();
    assert_eq!(loaded, 1);

    let mut total = 0.0;
    let g = interp
        .gen("this::hashNumber( ! (|> this::wordToNumber( splitWords(readLines()))))")
        .unwrap();
    for v in concurrent_generators::gde::GenIter(g) {
        total += v.as_real().unwrap();
    }
    let reference =
        concurrent_generators::wordcount::native::sequential(corpus.lines(), Weight::Light);
    assert!((total - reference).abs() < reference * 1e-9);
}

/// Fig. 4: mapReduce written in Junicon with per-chunk pipes matches the
/// library DataParallel and the sequential reference.
#[test]
fn figure4_mapreduce_three_ways() {
    let i = Interp::new();
    i.load(
        r#"
        def chunk(e) {
            local c;
            c := [];
            while put(c, @e) do { if *c >= 10 then { suspend c; c := []; }; };
            if *c > 0 then { return c; };
        }
        def mapReduce(f, s, r, init) {
            local c, t, tasks;
            tasks := [];
            every c := chunk(s) do {
                t := |> { local x; x := init; every x := r(x, f(!c)); x };
                tasks::add(t);
            };
            suspend ! (! tasks);
        }
        def cube(x) { return x * x * x; }
        def plus(a, b) { return a + b; }
        "#,
    )
    .unwrap();
    let junicon_total: i64 = i
        .eval("mapReduce(cube, <> (1 to 50), plus, 0)")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .sum();

    let dp = concurrent_generators::mapreduce::DataParallel::new(10);
    let library_total: i64 = dp
        .map_reduce(
            |v| {
                let n = v.as_int()?;
                Some(Value::from(n * n * n))
            },
            concurrent_generators::gde::comb::to_range(1, 50, 1),
            |a, b| concurrent_generators::gde::ops::add(&a, &b),
            Value::from(0),
        )
        .collect_values()
        .iter()
        .map(|v| v.as_int().unwrap())
        .sum();

    let reference: i64 = (1..=50).map(|x| x * x * x).sum();
    assert_eq!(junicon_total, reference);
    assert_eq!(library_total, reference);
}

/// Fig. 5: the transpiled form of spawnMap exists as a checked fixture and
/// the transpile driver handles the whole mixed file (the executable check
/// of the emitted code itself lives in crates/junicon/tests/emitted_exec).
#[test]
fn figure5_transpilation_path() {
    let out = transpile_mixed(
        "@<script lang=\"junicon\"> def spawnMap(f, chunk) { suspend ! (|> f(!chunk)); } @</script>",
    )
    .unwrap();
    assert!(out.contains("pub fn proc_spawnMap"));
    assert!(out.contains("rt::pipe(&env, |env| {"));
}

/// Fig. 6: all sixteen cells compute the same answer (the performance
/// shape itself is measured by `cargo run -p bench --bin figure6`).
#[test]
fn figure6_cells_are_consistent() {
    let corpus = Corpus::generate(30, 6, 6);
    for weight in [Weight::Light, Weight::Heavy] {
        let reference = run_cell(Suite::Native, Variant::Sequential, &corpus, weight);
        for suite in [Suite::Native, Suite::Embedded] {
            for variant in Variant::ALL {
                let v = run_cell(suite, variant, &corpus, weight);
                assert!(
                    (v - reference).abs() < reference.abs() * 1e-9,
                    "{}/{} diverged",
                    suite.name(),
                    variant.name()
                );
            }
        }
    }
}
