//! The Fig. 3 / Fig. 6 evaluation workload.
//!
//! Sec. VII of the paper benchmarks a word-count-style hash program: "takes
//! lines of text, and computes a hash of the lines by splitting each line
//! into words, converting the words into numbers, taking their square root,
//! and then summing the result". Two suites are measured:
//!
//! * a **native** suite (the paper's "Java" programs): a sequential
//!   word-count, a pipelined version "built using BlockingQueues over two
//!   threads", a parallel map-reduce version, and a data-parallel version
//!   "that split out the reduction" — here written in plain Rust over the
//!   same substrates ([`native`]);
//! * an **embedded** suite (the paper's "Junicon" programs): the same four
//!   programs expressed with concurrent generators over the dynamic
//!   [`gde::Value`] runtime — the combinator trees that transpiled Junicon
//!   builds ([`embedded`]).
//!
//! Both suites use arbitrary-precision arithmetic (the [`bigint`] crate),
//! "which is implicit in Unicon but must be made explicit in Java", and
//! come in a **lightweight** and a **heavyweight** variant; the heavyweight
//! hash inflates the per-word work "by a factor of roughly 80, achieved
//! using trigonometry and prime number functions" ([`hash`]).

#![forbid(unsafe_code)]

/// Expands its body only when the `obs` feature is on (see the identical
/// shim in `blockingq`): instrumentation sites vanish entirely when
/// observability is disabled.
#[cfg(feature = "obs")]
macro_rules! obs_on {
    ($($body:tt)*) => { $($body)* };
}
#[cfg(not(feature = "obs"))]
macro_rules! obs_on {
    ($($body:tt)*) => {};
}

pub mod corpus;
pub mod embedded;
pub mod hash;
pub mod native;

pub use corpus::Corpus;
pub use hash::Weight;

/// The four program variants of the evaluation suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Sequential,
    Pipeline,
    DataParallel,
    MapReduce,
}

impl Variant {
    /// All four, in the order of Fig. 6's histograms.
    pub const ALL: [Variant; 4] = [
        Variant::Sequential,
        Variant::Pipeline,
        Variant::DataParallel,
        Variant::MapReduce,
    ];

    /// Display name matching the paper's axis labels.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Sequential => "Sequential",
            Variant::Pipeline => "Pipeline",
            Variant::DataParallel => "DataParallel",
            Variant::MapReduce => "MapReduce",
        }
    }
}

/// Which suite a measurement belongs to (Fig. 6's bar colours).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// Embedded concurrent generators (the paper's "Junicon" bars).
    Embedded,
    /// Plain Rust (the paper's "Java" bars).
    Native,
}

impl Suite {
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Embedded => "Junicon",
            Suite::Native => "Native",
        }
    }
}

/// Pick a chunk size that yields roughly four chunks per worker, so the
/// chunked variants actually distribute even on small corpora (Fig. 3's
/// fixed `DataParallel(1000)` assumes a large input file).
fn adaptive_chunk(total_items: usize) -> usize {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    (total_items / (4 * workers).max(4)).max(1)
}

/// Run one (suite, variant, weight) cell of the Fig. 6 matrix and return
/// the total hash. Chunked variants use an adaptive chunk size
/// (see [`native::map_reduce_on`] / [`embedded::map_reduce_sized`] to pin
/// it explicitly).
pub fn run_cell(suite: Suite, variant: Variant, corpus: &Corpus, weight: Weight) -> f64 {
    // Per-phase wall time: one timer per (suite, variant) cell, e.g.
    // `wordcount.Junicon.Pipeline.wall`, plus a run counter — this is
    // what the figure6 JSON embeds next to the timings.
    obs_on!(
        obs::counter("wordcount.cells").inc();
        let cell_started = std::time::Instant::now();
    );
    let line_chunk = adaptive_chunk(corpus.lines().len());
    let word_chunk = adaptive_chunk(corpus.word_count());
    let pool = exec::global();
    let result = match (suite, variant) {
        (Suite::Native, Variant::Sequential) => native::sequential(corpus.lines(), weight),
        (Suite::Native, Variant::Pipeline) => native::pipeline(corpus.lines(), weight),
        (Suite::Native, Variant::MapReduce) => {
            native::map_reduce_on(corpus.lines(), weight, line_chunk, pool)
        }
        (Suite::Native, Variant::DataParallel) => {
            native::data_parallel_on(corpus.lines(), weight, line_chunk, pool)
        }
        (Suite::Embedded, Variant::Sequential) => embedded::sequential(corpus, weight),
        (Suite::Embedded, Variant::Pipeline) => embedded::pipeline(corpus, weight),
        (Suite::Embedded, Variant::MapReduce) => {
            embedded::map_reduce_sized(corpus, weight, word_chunk)
        }
        (Suite::Embedded, Variant::DataParallel) => {
            embedded::data_parallel_sized(corpus, weight, word_chunk)
        }
    };
    obs_on!({
        let name = format!("wordcount.{}.{}.wall", suite.name(), variant.name());
        obs::timer(&name).observe(cell_started.elapsed());
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= a.abs().max(b.abs()) * 1e-9 + 1e-9
    }

    #[test]
    fn all_eight_cells_agree_lightweight() {
        let corpus = Corpus::generate(60, 8, 42);
        let reference = native::sequential(corpus.lines(), Weight::Light);
        assert!(reference > 0.0);
        for suite in [Suite::Native, Suite::Embedded] {
            for variant in Variant::ALL {
                let got = run_cell(suite, variant, &corpus, Weight::Light);
                assert!(
                    close(got, reference),
                    "{}/{} disagreed: {got} vs {reference}",
                    suite.name(),
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn all_eight_cells_agree_heavyweight() {
        let corpus = Corpus::generate(12, 4, 7);
        let reference = native::sequential(corpus.lines(), Weight::Heavy);
        for suite in [Suite::Native, Suite::Embedded] {
            for variant in Variant::ALL {
                let got = run_cell(suite, variant, &corpus, Weight::Heavy);
                assert!(
                    close(got, reference),
                    "{}/{} disagreed: {got} vs {reference}",
                    suite.name(),
                    variant.name()
                );
            }
        }
    }
}
