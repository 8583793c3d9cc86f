//! The five workloads. Each is one Junicon program plus generated input,
//! run on three paths: `native` (`wordcount::native`), `embedded`
//! (`wordcount::embedded`, the hand-built combinator trees) and `interp`
//! (`junicon::Interp` on the committed source text).

use crate::hostfns;
use crate::inputs::{replicated_source, uniform_lines, zipf_lines};
use crate::programs::{self, FREQREPORT, MAPREDUCE, WORDCOUNT};
use crate::trace::Tracer;
use gde::{GenExt, Value};
use junicon::mixed::run_mixed;
use junicon::Interp;
use wordcount::{embedded, native, Corpus, Weight};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SeqLight,
    PipeLight,
    MapReduceHeavy,
    StringsReport,
    CompileHeavy,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::SeqLight,
        Kind::PipeLight,
        Kind::MapReduceHeavy,
        Kind::StringsReport,
        Kind::CompileHeavy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SeqLight => "seq_light",
            Kind::PipeLight => "pipe_light",
            Kind::MapReduceHeavy => "mapreduce_heavy",
            Kind::StringsReport => "strings_report",
            Kind::CompileHeavy => "compile_heavy",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn weight(self) -> Weight {
        match self {
            Kind::MapReduceHeavy => Weight::Heavy,
            _ => Weight::Light,
        }
    }
}

/// The discriminant indexes per-path arrays (`Path::ALL` order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    Native,
    Embedded,
    Interp,
}

impl Path {
    /// The order the timed blocks interleave in.
    pub const ALL: [Path; 3] = [Path::Native, Path::Embedded, Path::Interp];

    pub fn name(self) -> &'static str {
        match self {
            Path::Native => "native",
            Path::Embedded => "embedded",
            Path::Interp => "interp",
        }
    }
}

/// What one iteration produces.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// The hash total (or the sum of the per-chunk / per-shard totals).
    Total(f64),
    /// The frequency report, one `word=count` line per distinct word.
    Report(Vec<String>),
}

impl Output {
    /// The stream-equivalence criterion: totals agree to 1e-9 relative
    /// (chunked paths associate the sum differently), reports byte for byte.
    pub fn agrees_with(&self, reference: &Output) -> bool {
        match (self, reference) {
            (Output::Total(a), Output::Total(b)) => (a - b).abs() <= a.abs().max(b.abs()) * 1e-9,
            (Output::Report(a), Output::Report(b)) => a == b,
            _ => false,
        }
    }
}

/// Lines × words of the lightweight corpora (Fig. 6's lightweight set).
const LIGHT_LINES: usize = 2_000;
/// Lines of the heavyweight corpus: each word costs ~30 µs of `bigint`.
const HEAVY_LINES: usize = 100;
const WORDS_PER_LINE: usize = 10;
const VOCABULARY: usize = 4_096;
/// Replicas of the Fig. 3 class in the compile-heavy source; also its
/// shard count (one line each).
const REPLICAS: usize = LIGHT_LINES;
/// What `replicated_source` renames per replica: the Fig. 3 procedures
/// and the `lines` global they read.
const FIG3_NAMES: [&str; 4] = ["readLines", "splitWords", "hashWords", "lines"];

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Chunk size giving four chunks per core, as `wordcount::run_cell` picks.
fn chunk_of(items: usize) -> usize {
    (items / (4 * cores())).max(1)
}

/// A workload set up and ready to iterate.
pub struct Prepared {
    pub kind: Kind,
    /// Input words per iteration (the throughput numerator).
    pub words: usize,
    /// The mixed-language sources the interpreter loaded, in load order —
    /// also what the compile path compiles.
    pub sources: Vec<String>,
    /// The native twin's result: what every iteration must produce.
    pub reference: Output,
    corpus: Corpus,
    /// `compile_heavy` only: one single-line corpus per replica.
    shards: Vec<Corpus>,
    interp: Interp,
    /// Entry expressions: one, or one per shard.
    entries: Vec<String>,
}

/// The lines a workload reads for `seed`.
pub fn input_lines(kind: Kind, seed: u64) -> Vec<String> {
    match kind {
        Kind::SeqLight | Kind::PipeLight | Kind::CompileHeavy => {
            uniform_lines(LIGHT_LINES, WORDS_PER_LINE, seed)
        }
        Kind::MapReduceHeavy => uniform_lines(HEAVY_LINES, WORDS_PER_LINE, seed),
        Kind::StringsReport => zipf_lines(LIGHT_LINES, WORDS_PER_LINE, VOCABULARY, seed),
    }
}

/// The mixed sources of a workload and its entry expressions.
fn program(kind: Kind) -> (Vec<String>, Vec<String>) {
    let own = |srcs: &[&str]| srcs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match kind {
        Kind::SeqLight => (
            own(&[WORDCOUNT]),
            vec![programs::entry(WORDCOUNT, "sequential")],
        ),
        Kind::PipeLight => (
            own(&[WORDCOUNT]),
            vec![programs::entry(WORDCOUNT, "pipeline")],
        ),
        Kind::MapReduceHeavy => (
            own(&[WORDCOUNT, MAPREDUCE]),
            vec![programs::entry(MAPREDUCE, "mapreduce")],
        ),
        Kind::StringsReport => (
            own(&[WORDCOUNT, FREQREPORT]),
            vec![programs::entry(FREQREPORT, "report")],
        ),
        Kind::CompileHeavy => {
            let region = &programs::junicon_regions(WORDCOUNT)[0];
            let entry = programs::entry(WORDCOUNT, "sequential");
            let entries = (0..REPLICAS)
                .map(|k| crate::inputs::rename_identifiers(&entry, &FIG3_NAMES, &format!("_{k}")))
                .collect();
            (
                vec![replicated_source(region, &FIG3_NAMES, REPLICAS)],
                entries,
            )
        }
    }
}

impl Prepared {
    /// Set the workload up: generate the input, build and load the
    /// interpreter, touch the pool, compute the reference result.
    pub fn new(kind: Kind, seed: u64, tr: &Tracer) -> Prepared {
        tr.span("setup", || {
            let lines = tr.span("inputs", || input_lines(kind, seed));
            let (sources, entries) = tr.span("sources", || program(kind));
            let shards: Vec<Corpus> = if kind == Kind::CompileHeavy {
                lines
                    .iter()
                    .map(|l| Corpus::from_lines(vec![l.clone()]))
                    .collect()
            } else {
                Vec::new()
            };
            let corpus = Corpus::from_lines(lines);
            let interp = tr.span("load", || {
                let interp = Interp::new();
                hostfns::register(&interp, kind.weight());
                let g = interp.globals();
                g.declare("lines", corpus.as_value());
                g.declare(
                    "chunkSize",
                    Value::from(chunk_of(corpus.word_count()) as i64),
                );
                for (k, shard) in shards.iter().enumerate() {
                    g.declare(&format!("lines_{k}"), shard.as_value());
                }
                for src in &sources {
                    run_mixed(src, &interp).expect("benchmark source loads");
                }
                interp
            });
            tr.span("pool", exec::global);
            let mut prepared = Prepared {
                kind,
                words: corpus.word_count(),
                sources,
                reference: Output::Total(0.0),
                corpus,
                shards,
                interp,
                entries,
            };
            prepared.reference = tr.span("reference", || prepared.run(Path::Native, tr));
            prepared
        })
    }

    /// One iteration of one path. Spans go around every call into a
    /// measured crate.
    pub fn run(&self, path: Path, tr: &Tracer) -> Output {
        let lines = self.corpus.lines();
        let weight = self.kind.weight();
        match (self.kind, path) {
            (Kind::SeqLight, Path::Native) => {
                Output::Total(tr.span("native::sequential", || native::sequential(lines, weight)))
            }
            (Kind::SeqLight, Path::Embedded) => {
                Output::Total(tr.span("embedded::sequential", || {
                    embedded::sequential(&self.corpus, weight)
                }))
            }
            (Kind::PipeLight, Path::Native) => {
                Output::Total(tr.span("native::pipeline", || native::pipeline(lines, weight)))
            }
            (Kind::PipeLight, Path::Embedded) => {
                Output::Total(tr.span("embedded::pipeline", || {
                    embedded::pipeline(&self.corpus, weight)
                }))
            }
            (Kind::MapReduceHeavy, Path::Native) => {
                Output::Total(tr.span("native::map_reduce_on", || {
                    native::map_reduce_on(lines, weight, chunk_of(lines.len()), exec::global())
                }))
            }
            (Kind::MapReduceHeavy, Path::Embedded) => {
                Output::Total(tr.span("embedded::map_reduce_sized", || {
                    embedded::map_reduce_sized(&self.corpus, weight, chunk_of(self.words))
                }))
            }
            (Kind::StringsReport, Path::Native) => {
                Output::Report(tr.span("native::frequency_report", || {
                    native::frequency_report(lines)
                }))
            }
            (Kind::StringsReport, Path::Embedded) => {
                Output::Report(tr.span("embedded::frequency_report", || {
                    embedded::frequency_report(&self.corpus)
                }))
            }
            (Kind::StringsReport, Path::Interp) => {
                let mut g = tr.span("gen", || self.gen(0));
                Output::Report(tr.span("drain", || {
                    let mut report = Vec::new();
                    while let Some(line) = g.next_value() {
                        report.push(line.to_string());
                    }
                    report
                }))
            }
            (Kind::CompileHeavy, Path::Native) => Output::Total(
                self.shards
                    .iter()
                    .map(|s| {
                        tr.span("native::sequential", || {
                            native::sequential(s.lines(), weight)
                        })
                    })
                    .sum(),
            ),
            (Kind::CompileHeavy, Path::Embedded) => Output::Total(
                self.shards
                    .iter()
                    .map(|s| tr.span("embedded::sequential", || embedded::sequential(s, weight)))
                    .sum(),
            ),
            (_, Path::Interp) => Output::Total(
                (0..self.entries.len())
                    .map(|k| {
                        let mut g = tr.span("gen", || self.gen(k));
                        tr.span("drain", || {
                            let mut total = 0.0;
                            while let Some(v) = g.next_value() {
                                total += v.as_real().unwrap_or(f64::NAN);
                            }
                            total
                        })
                    })
                    .sum(),
            ),
        }
    }

    /// `Interp::gen` on entry expression `k` (not resumed).
    pub fn gen(&self, k: usize) -> gde::BoxGen {
        self.interp
            .gen(&self.entries[k])
            .expect("entry expression compiles")
    }

    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn output_comparison_follows_the_criterion() {
        let t = Output::Total(1.0e9);
        assert!(Output::Total(1.0e9 + 0.5).agrees_with(&t));
        assert!(!Output::Total(1.0e9 + 5.0).agrees_with(&t));
        assert!(!Output::Total(f64::NAN).agrees_with(&t));
        let r = Output::Report(vec!["a=1".into()]);
        assert!(r.agrees_with(&r.clone()));
        assert!(!Output::Report(vec!["a=2".into()]).agrees_with(&r));
        assert!(!t.agrees_with(&r));
    }

    #[test]
    fn compile_heavy_source_is_seed_independent() {
        let (a, entries) = program(Kind::CompileHeavy);
        assert_eq!(entries.len(), REPLICAS);
        assert_eq!(entries[17], "hashWords_17(readLines_17())");
        assert!(a[0].len() > 500_000, "source is {} bytes", a[0].len());
    }
}
