//! Observability demo: instrument a threaded pipeline.
//!
//! Builds a Fig. 2-style pipeline — one `Pipe` per stage, each stage a
//! producer thread over a blocking queue — drains it, then prints the
//! process-wide `obs` registry snapshot. Every queue put/take and pipe
//! item seen below happened on the real runtime hot paths — the demo only
//! *reads* the counters at the end.
//!
//! Run with: `cargo run --example obs_pipeline`

use concurrent_generators::gde::comb::fuse::StagePlan;
use concurrent_generators::gde::comb::to_range;
use concurrent_generators::gde::{ops, BoxGen, GenExt, Value};
use concurrent_generators::obs;
use concurrent_generators::pipes::{Pipe, DEFAULT_BATCH};

fn main() {
    // A two-pipe threaded pipeline: 1..=64 squared on one producer
    // thread, +1 on the next; each pipe carries all 64 values.
    let square = StagePlan::new().filter_map(|v| ops::mul(v, v));
    let inc = StagePlan::new().filter_map(|v| ops::add(v, &Value::from(1)));
    let squares = move || {
        let source = || Box::new(to_range(1, 64, 1)) as BoxGen;
        Pipe::staged(source, &square, 8, DEFAULT_BATCH).boxed()
    };
    let piped = Pipe::staged(squares, &inc, 8, DEFAULT_BATCH).collect_values();
    println!(
        "pipeline produced {} values (last = {:?})",
        piped.len(),
        piped.last()
    );

    // Everything above was instrumented as a side effect; read it back.
    let snap = obs::snapshot();
    println!("\nRuntime observability snapshot:");
    for line in snap.render_text().lines() {
        println!("  {line}");
    }

    // The results must be right in either build; the counters only exist
    // when instrumentation is compiled in (the root `obs` feature).
    assert_eq!(piped.len(), 64);
    if cfg!(feature = "obs") {
        assert!(snap.counter("pipes.pipe.items").unwrap_or(0) >= 64 * 2);
        assert_eq!(snap.counter("pipes.pipe.spawned"), Some(2));
        assert!(snap.counter("blockingq.queue.puts").unwrap_or(0) > 0);
        println!("\nok: counters match the work performed");
    } else {
        assert!(snap.rows().is_empty(), "uninstrumented build metered work");
        println!("\nok: results verified (instrumentation compiled out)");
    }
}
