//! The run itself: set-up, the timed phase, the end-to-end metrics, and
//! the result in both human and machine form.

use crate::compile::{compile, Compiled};
use crate::json::Json;
use crate::metrics::{self, END_TO_END};
use crate::oracle;
use crate::stats::{second_fastest, Blocks};
use crate::trace::Tracer;
use crate::workload::{Kind, Output, Path, Prepared};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed blocks per path in the untraced run. The block *count* is fixed;
/// `--seconds` sets their length.
pub const BLOCKS: usize = 7;
/// Timed blocks per path in the traced run.
pub const TRACED_BLOCKS: usize = 2;
/// Warm-up iterations per path inside every set-up.
const WARM_UPS: usize = 3;
/// Slowest block median over fastest above which a path is `noisy`.
pub const NOISY_SPREAD: f64 = 1.25;

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured phase; one block is a 28th of it
    /// (7 blocks × 4 lanes).
    pub seconds: f64,
    pub out_dir: PathBuf,
    /// Traced run only: `embedded_words_per_s` of an untraced run of the
    /// same workload, for `trace.overhead_pct`.
    pub untraced_embedded_wps: Option<f64>,
}

impl Options {
    pub fn block_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / (BLOCKS * LANES.len()) as f64)
    }
}

/// Operations attempted and failed. Every result any path produces —
/// warm-up, timed or probe — is compared with the reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(|| what.to_string());
        }
    }

    pub fn check_output(&mut self, what: &str, got: &Output, reference: &Output) {
        self.check(what, got.agrees_with(reference));
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value, where it is an estimate.
    pub samples: Option<usize>,
    /// `noisy`, `nondeterministic` or `unmeasurable`.
    pub tag: Option<&'static str>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: None,
            tag: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    pub fn tag(mut self, tag: Option<&'static str>) -> Metric {
        self.tag = tag;
        self
    }
}

pub struct Report {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Report-only numbers: printed and written to the result file, not
    /// part of the result line.
    pub notes: Vec<(String, f64, &'static str)>,
}

/// One set-up: everything before the first timed block.
pub fn set_up(kind: Kind, seed: u64, tr: &Tracer, tally: &mut Tally) -> Prepared {
    let prepared = Prepared::new(kind, seed, tr);
    if let Some(ok) = oracle::check(kind, seed, &prepared.reference) {
        tally.check("reference result vs expected/ oracle", ok);
    }
    // Warm-up calls are not traced one by one: the trace is for the timed
    // iterations.
    let quiet = Tracer::new(false);
    tr.span("warm_up", || {
        for path in Path::ALL {
            for _ in 0..WARM_UPS {
                let got = prepared.run(path, &quiet);
                tally.check_output(path.name(), &got, &prepared.reference);
            }
        }
    });
    prepared
}

/// One lane of the timed phase: an execution path, or the compile path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    Path(Path),
    Compile,
}

/// The order the timed blocks interleave in.
pub const LANES: [Lane; 4] = [
    Lane::Path(Path::Native),
    Lane::Path(Path::Embedded),
    Lane::Path(Path::Interp),
    Lane::Compile,
];

/// What the timed phase measured.
#[derive(Default)]
pub struct Timed {
    /// Seconds per iteration, in `Path::ALL` order.
    pub paths: [Blocks; 3],
    /// Seconds per compile, source text to emitted Rust; one sample per
    /// batch of compiles.
    pub compile: Blocks,
    /// Seconds per compile phase (`compile::PHASES` order), one sample per
    /// batch.
    pub phases: [Vec<f64>; 5],
    /// The first compile: its emitted text is what every later one must
    /// reproduce.
    pub compiled: Option<Compiled>,
}

/// Compiles per timed sample: small sources compile in microseconds, so
/// they are timed in batches of about this many source bytes.
const COMPILE_BATCH_BYTES: usize = 100_000;

/// The timed phase: `blocks` rounds of one block per lane, interleaved
/// (native, embedded, interp, compile, native, …) so drift in the host's
/// speed hits all lanes alike. Closed loop, one driver thread: the next
/// iteration starts when the previous one has returned and been checked.
pub fn timed_phase(
    prepared: &Prepared,
    lanes: &[Lane],
    blocks: usize,
    block_len: Duration,
    tr: &Tracer,
    tally: &mut Tally,
) -> Timed {
    let mut out = Timed::default();
    for _ in 0..blocks {
        out.round(prepared, lanes, block_len, tr, tally);
    }
    out
}

impl Timed {
    /// One round: one block of each lane.
    pub fn round(
        &mut self,
        prepared: &Prepared,
        lanes: &[Lane],
        block_len: Duration,
        tr: &Tracer,
        tally: &mut Tally,
    ) {
        for lane in lanes {
            let mut samples = Vec::new();
            let block_start = Instant::now();
            while samples.is_empty() || block_start.elapsed() < block_len {
                samples.push(match *lane {
                    Lane::Path(path) => {
                        tr.begin_iteration();
                        let t0 = Instant::now();
                        let got = tr.span(path.name(), || prepared.run(path, tr));
                        let seconds = t0.elapsed().as_secs_f64();
                        tr.end_iteration();
                        tally.check_output(path.name(), &got, &prepared.reference);
                        seconds
                    }
                    Lane::Compile => self.compile_batch(prepared, tr, tally),
                });
            }
            match *lane {
                Lane::Path(path) => self.paths[path as usize].blocks.push(samples),
                Lane::Compile => self.compile.blocks.push(samples),
            }
        }
    }

    /// One timed sample of the compile lane: the mean of a batch of
    /// compiles. The time is the phases' own, so the comparison of the
    /// emitted text is outside it.
    fn compile_batch(&mut self, prepared: &Prepared, tr: &Tracer, tally: &mut Tally) -> f64 {
        let source_bytes: usize = prepared.sources.iter().map(String::len).sum();
        let batch = (COMPILE_BATCH_BYTES / source_bytes.max(1)).clamp(1, 100);
        let mut phase_s = [0.0; 5];
        for i in 0..batch {
            // One compile's output alive at a time (plus the first).
            let c = compile(&prepared.sources, tr);
            for (sum, t) in phase_s.iter_mut().zip(c.phase_s) {
                *sum += t / batch as f64;
            }
            match &self.compiled {
                None => self.compiled = Some(c),
                // One comparison per timed sample.
                Some(first) if i + 1 == batch => tally.check(
                    "emitted text identical on recompile",
                    first.emitted == c.emitted,
                ),
                Some(_) => {}
            }
        }
        for (all, t) in self.phases.iter_mut().zip(phase_s) {
            all.push(t);
        }
        phase_s.iter().sum()
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(opt: &Options) -> Report {
    let tr = Tracer::new(false);
    let mut tally = Tally::default();

    // Set-up is a lane too: two before the first round (the first pays the
    // one-time process costs), then a fresh one after every round, so the
    // set-ups are spread over the run like the blocks are. Always
    // `BLOCKS + 2` of them: an interpreter is never freed (its procedures
    // and its globals refer to each other), so their number shows in
    // `peak_rss_mb` and must not vary.
    let mut setup_s = Vec::with_capacity(BLOCKS + 2);
    let mut timed_set_up = |tally: &mut Tally| {
        let t0 = Instant::now();
        let prepared = set_up(opt.kind, opt.seed, &tr, tally);
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared
    };
    drop(timed_set_up(&mut tally));
    let mut prepared = timed_set_up(&mut tally);
    let mut timed = Timed::default();
    for _ in 0..BLOCKS {
        timed.round(&prepared, &LANES, opt.block_len(), &tr, &mut tally);
        drop(prepared);
        prepared = timed_set_up(&mut tally);
    }
    let compiled = timed.compiled.as_ref().expect("the compile lane ran");

    let words = prepared.words as f64;
    let mut metrics = vec![
        Metric::new("setup_s", second_fastest(&setup_s)).samples(setup_s.len()),
        Metric::new("compile_ms", timed.compile.iteration_time() * 1e3)
            .samples(timed.compile.samples()),
        Metric::new("emitted_bytes", compiled.emitted_bytes() as f64),
    ];
    let mut notes = vec![
        ("setup_first_s".to_string(), setup_s[0], "s"),
        ("input_words".to_string(), words, "count"),
        (
            "compile_block_spread".to_string(),
            timed.compile.spread(),
            "ratio",
        ),
    ];
    for (path, b) in Path::ALL.into_iter().zip(&timed.paths) {
        let noisy = (b.spread() > NOISY_SPREAD).then_some("noisy");
        metrics.push(
            Metric::new(metrics::words_per_s(path), words / b.iteration_time())
                .samples(b.samples())
                .tag(noisy),
        );
        notes.push((
            format!("{}_iter_ms", path.name()),
            b.iteration_time() * 1e3,
            "ms",
        ));
        notes.push((format!("{}_iter_p95_ms", path.name()), b.p95() * 1e3, "ms"));
        notes.push((format!("{}_block_spread", path.name()), b.spread(), "ratio"));
    }
    let [native, embedded, interp] = timed.paths.each_ref().map(Blocks::iteration_time);
    notes.push((
        "embedded_over_native".to_string(),
        embedded / native,
        "ratio",
    ));
    notes.push(("interp_over_native".to_string(), interp / native, "ratio"));
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb()));

    Report {
        kind: opt.kind,
        seed: opt.seed,
        seconds: opt.seconds,
        traced: false,
        tally,
        metrics,
        notes,
    }
}

/// `embedded_words_per_s` alone, from `TRACED_BLOCKS` blocks — what the
/// traced run compares itself with for `trace.overhead_pct`.
pub fn untraced_embedded_wps(opt: &Options) -> f64 {
    let tr = Tracer::new(false);
    let mut tally = Tally::default();
    let prepared = set_up(opt.kind, opt.seed, &tr, &mut tally);
    let lanes = [Lane::Path(Path::Embedded)];
    let timed = timed_phase(
        &prepared,
        &lanes,
        TRACED_BLOCKS,
        opt.block_len(),
        &tr,
        &mut tally,
    );
    prepared.words as f64 / timed.paths[Path::Embedded as usize].iteration_time()
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn human(v: f64) -> String {
    let a = v.abs();
    if v.fract() == 0.0 && a < 1e15 {
        format!("{v:.0}")
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The contract's result object: exactly these four keys.
    pub fn result_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(metrics::unit(m.name))),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything, for `out/result-<workload>-trace<N>.json`.
    pub fn result_file(&self) -> Json {
        let tags = self
            .metrics
            .iter()
            .filter_map(|m| Some((m.name.to_string(), Json::str(m.tag?))))
            .collect();
        let samples = self
            .metrics
            .iter()
            .filter_map(|m| Some((m.name.to_string(), Json::Num(m.samples? as f64))))
            .collect();
        let notes = self
            .notes
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.kind.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("result", self.result_line()),
            ("tags", Json::Obj(tags)),
            ("samples", Json::Obj(samples)),
            ("notes", Json::Obj(notes)),
        ])
    }

    /// Every metric by name and unit, then the result line last.
    pub fn print(&self) {
        let w = self.kind.name();
        println!(
            "# workload {w}  seed {}  seconds {}  trace {}  cores {}",
            self.seed,
            self.seconds,
            u8::from(self.traced),
            crate::workload::cores()
        );
        let section = if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        for m in &self.metrics {
            let mut extra = String::new();
            if let Some(n) = m.samples {
                extra.push_str(&format!("  n={n}"));
            }
            if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
                extra.push_str(&format!(
                    "  {} is better, bound {:.0}%",
                    e.better,
                    e.bound * 100.0
                ));
            }
            if let Some(tag) = m.tag {
                extra.push_str(&format!("  [{tag}]"));
            }
            println!(
                "{section:<10} {w:<16} {:<34} {:>16} {:<6}{extra}",
                m.name,
                human(m.value),
                metrics::unit(m.name)
            );
        }
        for (name, value, unit) in &self.notes {
            println!(
                "{:<10} {w:<16} {name:<34} {:>16} {unit}",
                "note",
                human(*value)
            );
        }
        println!(
            "{:<10} {w:<16} operations attempted {}  failed {}{}",
            "check",
            self.tally.attempted,
            self.tally.failed,
            self.tally
                .first_failure
                .as_ref()
                .map_or(String::new(), |f| format!("  (first failure: {f})"))
        );
        println!("{}", self.result_line().render());
    }

    pub fn write(&self, out_dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let name = format!(
            "result-{}-trace{}.json",
            self.kind.name(),
            u8::from(self.traced)
        );
        std::fs::write(out_dir.join(name), self.result_file().render() + "\n")
    }
}
