//! Observability demo: the Fig. 6 word-count cells, metered.
//!
//! Runs a few cells of the evaluation matrix (both suites, several
//! variants) on a small corpus, then prints the `obs` snapshot: queue
//! traffic, pool utilization, chunk counts, and per-cell wall-time
//! percentiles — the same numbers `figure6` prints after its table.
//!
//! Run with: `cargo run --example obs_wordcount`

use concurrent_generators::obs;
use concurrent_generators::wordcount::{run_cell, Corpus, Suite, Variant, Weight};

fn main() {
    let corpus = Corpus::generate(400, 12, 42);
    println!(
        "corpus: {} lines, {} words",
        corpus.lines().len(),
        corpus.word_count()
    );

    let variants = [
        Variant::Sequential,
        Variant::DataParallel,
        Variant::MapReduce,
    ];
    let mut reference = None;
    for suite in [Suite::Native, Suite::Embedded] {
        for variant in variants {
            let total = run_cell(suite, variant, &corpus, Weight::Light);
            println!(
                "  {:<8} {:<13} total = {total}",
                suite.name(),
                variant.name()
            );
            // Every cell computes the same hash up to float summation
            // order; the variants differ only in how the work is
            // scheduled, so the totals must agree to relative precision.
            match reference {
                None => reference = Some(total),
                Some(r) => assert!(
                    ((total - r) / r).abs() < 1e-9,
                    "variant disagreed on the hash: {total} vs {r}"
                ),
            }
        }
    }

    let snap = obs::snapshot();
    println!("\nRuntime observability snapshot:");
    for line in snap.render_text().lines() {
        println!("  {line}");
    }

    // Six cells ran; the parallel ones exercised the pool and the queues.
    // The counters only exist when instrumentation is compiled in (the
    // root `obs` feature); the cell agreement above holds either way.
    if cfg!(feature = "obs") {
        assert_eq!(snap.counter("wordcount.cells"), Some(6));
        assert!(snap.counter("mapreduce.chunks").unwrap_or(0) > 0);
        assert!(snap.counter("exec.pool.tasks_run").unwrap_or(0) > 0);
        assert!(snap.counter("blockingq.queue.takes").unwrap_or(0) > 0);
        println!("\nok: all six cells agree and the runtime was metered");
    } else {
        assert!(snap.rows().is_empty(), "uninstrumented build metered work");
        println!("\nok: all six cells agree (instrumentation compiled out)");
    }
}
