//! Ablations A–D (EXPERIMENTS.md): the parameter sweeps the benchmark's
//! ladder has no rung for, as one table of median wall times.
//!
//! ```text
//! cargo run -p bench --release --bin ablations [-- --quick]
//! ```
//!
//! `--quick` (tiny corpus, one iteration) is what this file's test runs so
//! the sweeps cannot rot; its times mean nothing.

#![forbid(unsafe_code)]

use bench::median_of;
use gde::comb::{limit, to_range};
use gde::{BoxGen, GenExt};
use std::hint::black_box;
use std::time::Duration;
use wordcount::{embedded, native, Corpus, Weight};

struct Row {
    sweep: &'static str,
    lane: &'static str,
    param: usize,
    time: Duration,
    /// What the timed call returned: lanes of one (sweep, param) must agree.
    total: f64,
}

fn sweeps(quick: bool) -> Vec<Row> {
    let (lines, heavy_lines, n, warmup, iterations) = if quick {
        (20, 4, 1_000, 0, 1)
    } else {
        (400, 40, 100_000, 2, 10)
    };
    let mut rows = Vec::new();
    let mut time = |sweep, lane, param, f: &dyn Fn() -> f64| {
        let mut total = 0.0;
        let time = median_of(warmup, iterations, || total = black_box(f()));
        rows.push(Row {
            sweep,
            lane,
            param,
            time,
            total,
        });
    };
    let corpus = Corpus::generate(lines, 10, 7);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // A (Sec. III.B): bounding the output queue throttles a pipe.
    for capacity in [1, 4, 16, 64, 256, 1024] {
        time("A queue capacity", "native", capacity, &|| {
            native::pipeline_with_capacity(corpus.lines(), Weight::Light, capacity)
        });
        time("A queue capacity", "embedded", capacity, &|| {
            embedded::pipeline_with_capacity(&corpus, Weight::Light, capacity)
        });
    }

    // B (Sec. V.B, "zero cost for suspends"): a range driven to failure
    // under `depth` pass-through wrappers, over a plain iterator floor.
    time("B wrapper depth", "iterator", 0, &|| {
        (1..=n).map(black_box).sum::<i64>() as f64
    });
    for depth in [0, 1, 2, 4, 8] {
        time("B wrapper depth", "gde", depth, &|| {
            let mut g: BoxGen = Box::new(to_range(1, n, 1));
            for _ in 0..depth {
                g = Box::new(limit(g, usize::MAX));
            }
            g.count() as f64
        });
    }

    // C (Fig. 4): the `DataParallel(size)` chunk size.
    let pool = exec::ThreadPool::new(cores);
    for chunk in [10, 100, 1_000, 10_000] {
        time("C chunk size", "native", chunk, &|| {
            native::map_reduce_on(corpus.lines(), Weight::Light, chunk, &pool)
        });
        time("C chunk size", "embedded", chunk, &|| {
            embedded::map_reduce_sized(&corpus, Weight::Light, chunk)
        });
    }

    // D: worker threads, heavyweight nodes in fine-grained chunks so the
    // parallel fraction dominates and every worker gets fed.
    let heavy = Corpus::generate(heavy_lines, 10, 9);
    let mut threads: Vec<usize> = [1, 2, 4, 8].into_iter().filter(|&t| t < cores).collect();
    threads.push(cores);
    for threads in threads {
        let pool = exec::ThreadPool::new(threads);
        time("D worker threads", "native", threads, &|| {
            native::map_reduce_on(heavy.lines(), Weight::Heavy, 10, &pool)
        });
    }
    rows
}

/// How many (sweep, param) rows ran on both lanes; panics unless the two
/// lanes of each returned the same total to 1e-9 relative.
fn agreeing_pairs(rows: &[Row]) -> usize {
    let lane = |name: &'static str| rows.iter().filter(move |r| r.lane == name);
    let mut pairs = 0;
    for native in lane("native") {
        for embedded in
            lane("embedded").filter(|r| (r.sweep, r.param) == (native.sweep, native.param))
        {
            assert!(
                (embedded.total - native.total).abs() <= native.total.abs() * 1e-9,
                "{} {}: embedded {} vs native {}",
                native.sweep,
                native.param,
                embedded.total,
                native.total
            );
            pairs += 1;
        }
    }
    pairs
}

fn main() {
    let quick = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--quick") => true,
        Some(other) => {
            eprintln!("ablations: unknown argument {other}; the only flag is --quick");
            std::process::exit(2);
        }
    };
    let rows = sweeps(quick);
    println!(
        "{:<18}{:<10}{:>8}{:>14}",
        "sweep", "lane", "param", "median"
    );
    for r in &rows {
        println!(
            "{:<18}{:<10}{:>8}{:>14.3?}",
            r.sweep, r.lane, r.param, r.time
        );
    }
    println!(
        "{} native/embedded pairs agree to 1e-9",
        agreeing_pairs(&rows)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweeps_time_every_row_and_lanes_agree() {
        let rows = sweeps(true);
        for sweep in ["A", "B", "C", "D"] {
            assert!(rows.iter().any(|r| r.sweep.starts_with(sweep)), "{sweep}");
        }
        for r in &rows {
            assert!(
                r.time > Duration::ZERO,
                "{} {} {}",
                r.sweep,
                r.lane,
                r.param
            );
        }
        assert_eq!(
            agreeing_pairs(&rows),
            6 + 4,
            "every A and C row has both lanes"
        );
    }
}
