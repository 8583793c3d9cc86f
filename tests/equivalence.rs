//! Three-way equivalence: for a battery of programs, the interpreter, the
//! hand-built combinator trees, and (where a fixture exists) the emitted
//! Rust must produce identical sequences. This is the paper's refinement
//! story — "the relative observed performance among experimental
//! alternatives is preserved under refinement" presupposes the *results*
//! are preserved, which is what this file pins down.

use concurrent_generators::gde::comb::{alt, filter_map, limit, product_map, to_range};
use concurrent_generators::gde::{GenExt, Value};
use concurrent_generators::junicon::Interp;

fn interp_ints(src: &str) -> Vec<i64> {
    Interp::new()
        .eval(src)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect()
}

#[test]
fn ranges_agree() {
    assert_eq!(
        interp_ints("1 to 10 by 3"),
        to_range(1, 10, 3)
            .collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect::<Vec<_>>()
    );
}

#[test]
fn alternation_agrees() {
    let mut comb = alt(to_range(1, 2, 1), to_range(8, 9, 1));
    assert_eq!(
        interp_ints("(1 to 2) | (8 to 9)"),
        comb.collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect::<Vec<_>>()
    );
}

#[test]
fn product_with_filter_agrees() {
    // interpreter: (1 to 4) * ((1 to 4) % 2 = 0 filtered via comparison)
    let via_interp = interp_ints("(1 to 3) * isprime(2 to 5)");
    let mut comb = product_map(
        to_range(1, 3, 1),
        |_| {
            Box::new(filter_map(to_range(2, 5, 1), |v| {
                let n = v.as_int()?;
                if (2..n).all(|d| n % d != 0) {
                    Some(v.clone())
                } else {
                    None
                }
            }))
        },
        concurrent_generators::gde::ops::mul,
    );
    assert_eq!(
        via_interp,
        comb.collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect::<Vec<_>>()
    );
}

#[test]
fn limitation_agrees() {
    let mut comb = limit(to_range(1, 1000, 1), 4);
    assert_eq!(
        interp_ints("(1 to 1000) \\ 4"),
        comb.collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect::<Vec<_>>()
    );
}

#[test]
fn procedure_vs_native_function() {
    // A junicon generator function vs a registered Rust native of the
    // same meaning.
    let i = Interp::new();
    i.load("def doubleJ(x) { return x * 2; }").unwrap();
    i.register_proc(concurrent_generators::gde::ProcValue::native(
        "doubleR",
        |args| {
            concurrent_generators::gde::ops::mul(
                &concurrent_generators::gde::func::arg(args, 0),
                &Value::from(2),
            )
        },
    ));
    let a: Vec<i64> = i
        .eval("doubleJ(1 to 5)")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let b: Vec<i64> = i
        .eval("doubleR(1 to 5)")
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn pipe_transparency_in_interpreter() {
    // Piping any expression must not change its sequence.
    for expr in ["1 to 7", "(1 to 3) * (1 to 3)", "isprime(2 to 30)"] {
        let direct = interp_ints(expr);
        let piped = interp_ints(&format!("! (|> ({expr}))"));
        assert_eq!(direct, piped, "pipe changed the sequence of {expr}");
    }
}

#[test]
fn coexpression_transparency_in_interpreter() {
    for expr in ["1 to 7", "(2 | 4 | 8) * 3"] {
        let direct = interp_ints(expr);
        let via_co = interp_ints(&format!("! (<> ({expr}))"));
        assert_eq!(direct, via_co, "co-expression changed {expr}");
    }
}

#[test]
fn wordcount_embedded_vs_native_vs_interpreted() {
    use concurrent_generators::wordcount::{embedded, native, Corpus, Weight};
    let corpus = Corpus::generate(30, 6, 123);

    // native Rust
    let a = native::sequential(corpus.lines(), Weight::Light);
    // combinator-built embedded
    let b = embedded::sequential(&corpus, Weight::Light);
    // fully interpreted
    let i = Interp::new();
    i.globals().declare("lines", corpus.as_value());
    i.register_native("wordToNumber", |_t, args| {
        let w = args.first()?.as_str()?;
        concurrent_generators::bigint::BigUint::from_str_radix(w, 36)
            .ok()
            .map(|n| Value::big(n.into()))
    });
    i.register_native("hashNumber", |_t, args| {
        let mag = match args.first()?.deref() {
            Value::Int(v) if v >= 0 => v as f64,
            Value::Big(b) => b.to_f64(),
            _ => return None,
        };
        Some(Value::Real(mag.sqrt()))
    });
    i.load(
        r#"
        def hashAll() {
            local line;
            every line := !lines do {
                suspend this::hashNumber(this::wordToNumber( ! line::split("\\s+") ));
            };
        }
        "#,
    )
    .unwrap();
    let mut c = 0.0;
    for v in i.eval("hashAll()").unwrap() {
        c += v.as_real().unwrap_or(0.0);
    }

    assert!(
        (a - b).abs() < a.abs() * 1e-9,
        "native vs embedded: {a} vs {b}"
    );
    assert!(
        (a - c).abs() < a.abs() * 1e-9,
        "native vs interpreted: {a} vs {c}"
    );
}

/// The transport batch is a pure performance knob: for every batch size —
/// including the item-at-a-time degenerate case and batches wider than
/// the queue — the pipelined word-count must produce a sum *byte-identical*
/// to the sequential fold of the same suite. Checked for both the Junicon
/// (embedded) and the native suite, at both corpus weights.
#[test]
fn batched_pipelines_are_bitwise_sequential_across_batch_sizes() {
    use concurrent_generators::wordcount::{embedded, native, Corpus, Weight};
    let corpora = [
        (Corpus::generate(60, 8, 2016), Weight::Light),
        (Corpus::generate(12, 6, 2017), Weight::Heavy),
    ];
    for (corpus, weight) in &corpora {
        let native_seq = native::sequential(corpus.lines(), *weight);
        let embedded_seq = embedded::sequential(corpus, *weight);
        for batch in [1, 2, 7, 64] {
            let n = native::pipeline_batched(corpus.lines(), *weight, 16, batch);
            assert_eq!(
                native_seq.to_bits(),
                n.to_bits(),
                "native pipeline diverged at batch {batch} ({weight:?})"
            );
            let e = embedded::pipeline_batched(corpus, *weight, 16, batch);
            assert_eq!(
                embedded_seq.to_bits(),
                e.to_bits(),
                "embedded pipeline diverged at batch {batch} ({weight:?})"
            );
        }
    }
}

/// Stage fusion under the batched transport: the embedded variants now
/// fuse their stage plans ([`gde::comb::fuse`]) at construction, so this
/// sweep pins fused ≡ *unfused* across every producer/consumer schedule
/// the batch knob can produce — not just inline evaluation. The unfused
/// stage-per-node fold is the reference on the left of every assert.
#[test]
fn fused_pipelines_are_bitwise_unfused_across_batch_sizes() {
    use concurrent_generators::wordcount::{embedded, Corpus, Weight};
    let corpora = [
        (Corpus::generate(60, 8, 2019), Weight::Light),
        (Corpus::generate(12, 6, 2020), Weight::Heavy),
    ];
    for (corpus, weight) in &corpora {
        let unfused = embedded::sequential_unfused(corpus, *weight);
        assert_eq!(
            unfused.to_bits(),
            embedded::sequential(corpus, *weight).to_bits(),
            "fused sequential diverged from unfused ({weight:?})"
        );
        for batch in [1, 2, 7, 64] {
            let fused_piped = embedded::pipeline_batched(corpus, *weight, 16, batch);
            assert_eq!(
                unfused.to_bits(),
                fused_piped.to_bits(),
                "fused staged pipe diverged from unfused at batch {batch} ({weight:?})"
            );
        }
    }
}

/// Close-under-fire for staged (fused-at-construction) pipes: restarting
/// mid-consumption abandons a producer mid-chunk (its next `put` fails on
/// the closed queue), and the respawned producer must re-instantiate the
/// fused plan and replay the exact stream; dropping mid-consumption must
/// not hang. Swept across the same batch schedule as the other suites.
#[test]
fn staged_pipe_close_under_fire_replays_exactly() {
    use concurrent_generators::gde::comb::fuse::StagePlan;
    use concurrent_generators::gde::comb::to_range;
    use concurrent_generators::gde::{BoxGen, Gen, GenExt, Value};
    use concurrent_generators::pipes::Pipe;
    let plan = StagePlan::new()
        .map(|v| Value::from(v.as_int().unwrap_or(0) * 3))
        .filter(|v| v.as_int().unwrap_or(0) % 2 == 0)
        .flat(|v| Box::new(to_range(0, v.as_int().unwrap_or(0) % 5, 1)) as BoxGen)
        .filter_map(|v| Some(Value::from(v.as_int()? + 1)));
    let want: Vec<Option<i64>> = plan
        .instantiate(Box::new(to_range(1, 200, 1)))
        .collect_values()
        .iter()
        .map(|v| v.as_int())
        .collect();
    assert!(!want.is_empty());
    for batch in [1, 2, 7, 64] {
        // Small capacity: the producer is still in full flight when the
        // restart closes its queue out from under it.
        let mut p = Pipe::staged(|| Box::new(to_range(1, 200, 1)) as BoxGen, &plan, 8, batch);
        for _ in 0..5 {
            let _ = p.next_value();
        }
        Gen::restart(&mut p);
        let got: Vec<Option<i64>> = p.collect_values().iter().map(|v| v.as_int()).collect();
        assert_eq!(want, got, "staged pipe replay diverged at batch {batch}");
        // Drop mid-consumption: reaching the next iteration without a
        // hang is the assertion.
        let mut q = Pipe::staged(|| Box::new(to_range(1, 200, 1)) as BoxGen, &plan, 4, batch);
        let _ = q.next_value();
        drop(q);
    }
}

/// Fig. 2's fixed-code pipeline, one `Pipe::staged` per stage, must
/// likewise be batch-invariant: identical value sequences at every
/// transport batch.
#[test]
fn generic_pipeline_stage_is_batch_invariant() {
    use concurrent_generators::gde::comb::fuse::StagePlan;
    use concurrent_generators::gde::comb::to_range;
    use concurrent_generators::gde::{ops, BoxGen};
    use concurrent_generators::pipes::{Pipe, DEFAULT_CAPACITY};
    let expect: Vec<i64> = (1..=50).map(|i| i * i + 1).collect();
    let square = StagePlan::new().filter_map(|v| ops::mul(v, v));
    let inc = StagePlan::new().filter_map(|v| ops::add(v, &Value::from(1)));
    for batch in [1, 2, 7, 64] {
        let square = square.clone();
        let squares = move || {
            let source = || Box::new(to_range(1, 50, 1)) as BoxGen;
            Pipe::staged(source, &square, DEFAULT_CAPACITY, batch).boxed()
        };
        let mut g = Pipe::staged(squares, &inc, DEFAULT_CAPACITY, batch);
        let got: Vec<i64> = g
            .collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(got, expect, "generic pipeline diverged at batch {batch}");
    }
}
