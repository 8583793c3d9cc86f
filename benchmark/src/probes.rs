//! Per-layer probes: each times calls into one crate's public functions,
//! from outside. The ladder (ROADMAP item 2) runs the seq-light word
//! count at ten levels of machinery, each rung adding one layer to the
//! rung before, so the gap between a raw loop and an embedded concurrent
//! pipeline can be read off per layer. Every rung must produce the same
//! total; each probe is checked once.

use crate::hostfns::{hash_value, word_to_value};
use crate::run::Tally;
use crate::stats::median;
use crate::trace::Tracer;
use bigint::BigUint;
use blockingq::BlockingQueue;
use exec::ThreadPool;
use gde::comb::fuse::StagePlan;
use gde::comb::{fail, filter_map, promote_value, unit};
use gde::{BoxGen, Gen, GenExt, Step, Value};
use mapreduce::DataParallel;
use pipes::Pipe;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wordcount::hash::{hash_int, hash_number, hash_word, sum_hash, word_to_number};
use wordcount::{native, Weight};

const LIGHT: Weight = Weight::Light;

/// Fewest repetitions behind any probe's median.
const MIN_REPS: usize = 5;

/// Median seconds per call of `body`, repeated for `budget` (and at least
/// [`MIN_REPS`] times).
pub fn time_reps(budget: Duration, mut body: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_REPS || start.elapsed() < budget {
        let t0 = Instant::now();
        body();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// What the ladder reads: the seq-light corpus in the forms its rungs need.
pub struct LadderInput {
    pub lines: Vec<String>,
    shared: Arc<Vec<Arc<str>>>,
    as_value: Value,
    /// The pool the chunked rung runs on: the rung adds chunking and pool
    /// tasks, not a pool spawn per call.
    pool: Arc<ThreadPool>,
    pub words: usize,
    pub reference: f64,
}

impl LadderInput {
    pub fn new(lines: Vec<String>) -> LadderInput {
        let shared: Arc<Vec<Arc<str>>> =
            Arc::new(lines.iter().map(|l| Arc::from(l.as_str())).collect());
        let as_value = Value::list(lines.iter().map(Value::str).collect());
        let words = lines.iter().map(|l| l.split_whitespace().count()).sum();
        let reference = native::sequential(&lines, LIGHT);
        LadderInput {
            lines,
            shared,
            as_value,
            pool: Arc::new(ThreadPool::new(crate::workload::cores())),
            words,
            reference,
        }
    }
}

/// Next whitespace-delimited word of `line` at or after `pos`, as a byte
/// range (the scan `wordcount::embedded`'s splitter does).
fn next_word(line: &str, pos: usize) -> Option<(usize, usize)> {
    let bytes = line.as_bytes();
    let start = pos + bytes[pos..].iter().position(|b| !b.is_ascii_whitespace())?;
    let end = bytes[start..]
        .iter()
        .position(u8::is_ascii_whitespace)
        .map_or(bytes.len(), |off| start + off);
    Some((start, end))
}

/// Rung `gde.gen_ns`: a generator over machine integers. Splitting and
/// parsing happen natively inside `resume`; what this rung adds over the
/// iterator is the boxed suspend/resume protocol, one `Step` per word.
struct IntWords {
    lines: Arc<Vec<Arc<str>>>,
    line: usize,
    pos: usize,
}

impl Gen for IntWords {
    fn resume(&mut self) -> Step {
        while let Some(line) = self.lines.get(self.line) {
            while let Some((start, end)) = next_word(line, self.pos) {
                self.pos = end;
                if let Some(n) = word_to_number(&line[start..end], LIGHT).and_then(|n| n.to_u64()) {
                    return Step::Suspend(Value::Int(n as i64));
                }
            }
            self.line += 1;
            self.pos = 0;
        }
        Step::Fail
    }
    fn restart(&mut self) {
        self.line = 0;
        self.pos = 0;
    }
}

/// Rung `gde.value_ns` and the stage rungs' source: every word of every
/// line as a borrowed string value (a window into its line, one refcount
/// per word).
struct SliceWords {
    lines: Arc<Vec<Arc<str>>>,
    line: usize,
    pos: usize,
}

impl Gen for SliceWords {
    fn resume(&mut self) -> Step {
        while let Some(line) = self.lines.get(self.line) {
            if let Some((start, end)) = next_word(line, self.pos) {
                self.pos = end;
                return Step::Suspend(Value::slice_at_ascii_delims(line.clone(), start, end));
            }
            self.line += 1;
            self.pos = 0;
        }
        Step::Fail
    }
    fn restart(&mut self) {
        self.line = 0;
        self.pos = 0;
    }
}

/// Rung `gde.flat_ns`: the per-line splitter a flat barrier instantiates
/// (and recycles through `rebind`), as `wordcount::embedded` does.
struct LineWords {
    line: Arc<str>,
    pos: usize,
}

fn line_of(v: &Value) -> Option<Arc<str>> {
    match v {
        Value::Str(s) => Some(s.clone()),
        other => other.as_str().map(Arc::from),
    }
}

impl Gen for LineWords {
    fn resume(&mut self) -> Step {
        match next_word(&self.line, self.pos) {
            Some((start, end)) => {
                self.pos = end;
                Step::Suspend(Value::slice_at_ascii_delims(self.line.clone(), start, end))
            }
            None => {
                self.pos = self.line.len();
                Step::Fail
            }
        }
    }
    fn restart(&mut self) {
        self.pos = 0;
    }
    fn rebind(&mut self, v: &Value) -> bool {
        match line_of(v) {
            Some(line) => {
                self.line = line;
                self.pos = 0;
                true
            }
            None => false,
        }
    }
}

fn split_line(line: &Value) -> BoxGen {
    match line_of(line) {
        Some(line) => Box::new(LineWords { line, pos: 0 }),
        None => Box::new(fail()),
    }
}

fn parse_stage(w: &Value) -> Option<Value> {
    word_to_value(w, LIGHT)
}

fn hash_stage(n: &Value) -> Option<Value> {
    hash_value(n, LIGHT)
}

/// `splitWords` (flat barrier) → `wordToNumber`: the producer half.
fn parse_plan() -> StagePlan {
    StagePlan::new().flat(split_line).filter_map(parse_stage)
}

fn sum_reals(mut g: BoxGen) -> f64 {
    let mut total = 0.0;
    while let Some(v) = g.next_value() {
        total += v.as_real().unwrap_or(f64::NAN);
    }
    total
}

fn sum_hashed(mut g: BoxGen) -> f64 {
    let mut total = 0.0;
    while let Some(v) = g.next_value() {
        total += hash_stage(&v).and_then(|h| h.as_real()).unwrap_or(f64::NAN);
    }
    total
}

/// One ladder rung: its metric name and the function computing the total.
type Rung = (&'static str, fn(&LadderInput) -> f64);

/// The rungs timed in ns per word, in ladder order.
pub const RUNGS: [Rung; 10] = [
    ("wordcount.raw_loop_ns", raw_loop),
    ("wordcount.iterator_ns", iterator),
    ("gde.gen_ns", gen_over_int),
    ("gde.value_ns", string_values),
    ("gde.stages_unfused_ns", stages_unfused),
    ("gde.stages_fused_ns", stages_fused),
    ("gde.flat_ns", flat_barrier),
    ("blockingq.queue_hop_ns", queue_hop),
    ("pipes.thread_hop_ns", thread_hop),
    ("mapreduce.chunk_ns", chunked),
];

/// Explicit loops, no adaptor: the floor.
fn raw_loop(input: &LadderInput) -> f64 {
    let mut total = 0.0;
    for line in &input.lines {
        let mut pos = 0;
        while let Some((start, end)) = next_word(line, pos) {
            pos = end;
            if let Some(n) = word_to_number(&line[start..end], LIGHT) {
                total = sum_hash(total, hash_number(&n, LIGHT));
            }
        }
    }
    total
}

/// Adds the `Iterator` adaptor chain: exactly the native path.
fn iterator(input: &LadderInput) -> f64 {
    native::sequential(&input.lines, LIGHT)
}

/// Adds a boxed generator, values are machine integers.
fn gen_over_int(input: &LadderInput) -> f64 {
    let mut g: BoxGen = Box::new(IntWords {
        lines: input.shared.clone(),
        line: 0,
        pos: 0,
    });
    let mut total = 0.0;
    while let Some(v) = g.next_value() {
        total += hash_int(v.as_int().unwrap_or(0) as u64, LIGHT);
    }
    total
}

/// Adds string values: words cross the generator as string values; parsed by the consumer.
fn string_values(input: &LadderInput) -> f64 {
    let mut g = slice_words(input);
    let mut total = 0.0;
    while let Some(w) = g.next_value() {
        if let Some(n) = w.as_str().and_then(|s| word_to_number(s, LIGHT)) {
            total = sum_hash(total, hash_number(&n, LIGHT));
        }
    }
    total
}

fn slice_words(input: &LadderInput) -> BoxGen {
    Box::new(SliceWords {
        lines: input.shared.clone(),
        line: 0,
        pos: 0,
    })
}

/// Adds the stage chain: `wordToNumber` and `hashNumber` as two combinator nodes.
fn stages_unfused(input: &LadderInput) -> f64 {
    let parsed = filter_map(slice_words(input), parse_stage);
    sum_reals(Box::new(filter_map(parsed, hash_stage)))
}

/// The same two stages fused into one node by `StagePlan`.
fn stages_fused(input: &LadderInput) -> f64 {
    let plan = StagePlan::new()
        .filter_map(parse_stage)
        .filter_map(hash_stage);
    sum_reals(plan.instantiate(slice_words(input)))
}

/// Adds the flat barrier: lines are values too, one splitter per line —
/// the shape of `embedded::sequential`.
fn flat_barrier(input: &LadderInput) -> f64 {
    let plan = parse_plan().filter_map(hash_stage);
    sum_reals(plan.instantiate(Box::new(promote_value(input.as_value.clone()))))
}

/// Adds one queue hop on the same thread: parsed numbers cross a
/// `BlockingQueue` in batches (capacity 1024, batch 128) before hashing.
fn queue_hop(input: &LadderInput) -> f64 {
    let queue: BlockingQueue<Value> = BlockingQueue::bounded(pipes::DEFAULT_CAPACITY);
    let mut numbers = parse_plan().instantiate(Box::new(promote_value(input.as_value.clone())));
    let mut total = 0.0;
    let mut inbound = Vec::new();
    loop {
        let mut batch = Vec::with_capacity(pipes::DEFAULT_BATCH);
        while batch.len() < pipes::DEFAULT_BATCH {
            match numbers.next_value() {
                Some(n) => batch.push(n),
                None => break,
            }
        }
        if batch.is_empty() {
            return total;
        }
        queue.put_all(batch).expect("queue stays open");
        queue.drain_into(&mut inbound);
        for n in inbound.drain(..) {
            total += hash_stage(&n).and_then(|h| h.as_real()).unwrap_or(f64::NAN);
        }
    }
}

/// Adds a producer thread: the same batches, through a `|>` pipe.
fn thread_hop(input: &LadderInput) -> f64 {
    let lines = input.as_value.clone();
    let pipe = Pipe::staged(
        move || Box::new(promote_value(lines.clone())),
        &parse_plan(),
        pipes::DEFAULT_CAPACITY,
        pipes::DEFAULT_BATCH,
    );
    sum_hashed(Box::new(pipe))
}

/// Adds `DataParallel` chunking over pool tasks (four chunks per core).
fn chunked(input: &LadderInput) -> f64 {
    let chunk = (input.words / (4 * input.pool.threads())).max(1);
    let dp = DataParallel::with_pool(chunk, input.pool.clone());
    let numbers = parse_plan().instantiate(Box::new(promote_value(input.as_value.clone())));
    let mut partials = dp.map_reduce(
        hash_stage,
        numbers,
        |acc, h| gde::ops::add(&acc, &h),
        Value::Real(0.0),
    );
    let mut total = 0.0;
    while let Some(p) = partials.next_value() {
        total += p.as_real().unwrap_or(f64::NAN);
    }
    total
}

/// Run the ladder: `(metric, ns per word)` per rung. The rungs are timed
/// round-robin, one call each per round, and each rung reports the median
/// over the rounds — so a change in the host's speed reaches all rungs
/// alike and the differences between rungs survive it.
pub fn ladder(
    input: &LadderInput,
    budget: Duration,
    tr: &Tracer,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    for (name, rung) in RUNGS {
        let got = rung(input);
        tally.check(
            name,
            (got - input.reference).abs() <= input.reference.abs() * 1e-9,
        );
    }
    let mut samples: [Vec<f64>; RUNGS.len()] = Default::default();
    let start = Instant::now();
    tr.span("ladder", || {
        while samples[0].len() < MIN_REPS || start.elapsed() < budget * RUNGS.len() as u32 {
            for ((_, rung), times) in RUNGS.iter().zip(&mut samples) {
                let t0 = Instant::now();
                black_box(rung(black_box(input)));
                times.push(t0.elapsed().as_secs_f64());
            }
        }
    });
    RUNGS
        .iter()
        .zip(&samples)
        .map(|((name, _), times)| (*name, median(times) * 1e9 / input.words as f64))
        .collect()
}

/// `gde.plan_build_us`: build, fuse and instantiate the Fig. 3 stage plan
/// over a one-line source, without resuming it.
pub fn plan_build_us(budget: Duration) -> f64 {
    let line = Value::list(vec![Value::str("abc def")]);
    time_reps(budget, || {
        let plan = parse_plan().filter_map(hash_stage);
        black_box(plan.instantiate(Box::new(promote_value(line.clone()))));
    }) * 1e6
}

/// `exec.submit_join_us`: an empty task through the global pool and back.
pub fn submit_join_us(budget: Duration) -> f64 {
    let pool = exec::global();
    time_reps(budget, || {
        black_box(pool.submit(|| black_box(1u64)).join());
    }) * 1e6
}

/// `gde.concat_ns` (per `||`) and `gde.as_key_ns` (per key) over the
/// ladder's words as borrowed string values.
pub fn string_plane_ns(input: &LadderInput, budget: Duration) -> (f64, f64) {
    let words = slice_words(input).collect_values();
    let eq = Value::interned("=");
    let count = Value::from(7);
    let concat = time_reps(budget, || {
        for w in &words {
            black_box(gde::ops::concat(w, &eq).and_then(|l| gde::ops::concat(&l, &count)));
        }
    });
    let as_key = time_reps(budget, || {
        for w in &words {
            black_box(w.as_key());
        }
    });
    let n = words.len() as f64;
    (concat * 1e9 / (2.0 * n), as_key * 1e9 / n)
}

/// `blockingq.handoff_us`: items through a capacity-1 queue between two
/// threads, one at a time — every put and every take can block.
pub fn handoff_us(budget: Duration) -> f64 {
    const ITEMS: u64 = 2_000;
    time_reps(budget, || {
        let queue: BlockingQueue<u64> = BlockingQueue::bounded(1);
        let producer_end = queue.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..ITEMS {
                if producer_end.put(i).is_err() {
                    return;
                }
            }
            producer_end.close();
        });
        let mut taken = 0;
        while queue.take().is_some() {
            taken += 1;
        }
        producer.join().expect("handoff producer does not panic");
        assert_eq!(taken, ITEMS);
    }) * 1e6
        / ITEMS as f64
}

/// `pipes.spawn_us` (a pipe over an empty generator, created and driven
/// to its end) and `pipes.first_result_us` (creation to first result).
pub fn pipe_us(budget: Duration) -> (f64, f64) {
    let spawn = time_reps(budget, || {
        let mut p = Pipe::new(|| Box::new(fail()));
        black_box(p.next_value());
    });
    let first = time_reps(budget, || {
        let mut p = Pipe::new(|| Box::new(unit(Value::from(1))));
        black_box(p.next_value());
    });
    (spawn * 1e6, first * 1e6)
}

/// `bigint.parse36_ns`, `bigint.sqrt_ns` (the light `hashNumber`: to
/// double, square root) and `bigint.heavy_hash_us` (the heavy per-word
/// hash, over the first `HEAVY_WORDS` words).
pub fn bigint(input: &LadderInput, budget: Duration) -> (f64, f64, f64) {
    const HEAVY_WORDS: usize = 200;
    let words: Vec<&str> = input
        .lines
        .iter()
        .flat_map(|l| l.split_whitespace())
        .collect();
    let parse = time_reps(budget, || {
        for w in &words {
            black_box(BigUint::from_str_radix(black_box(w), 36).ok());
        }
    });
    let numbers: Vec<BigUint> = words
        .iter()
        .filter_map(|w| BigUint::from_str_radix(w, 36).ok())
        .collect();
    let sqrt = time_reps(budget, || {
        for n in &numbers {
            black_box(hash_number(black_box(n), LIGHT));
        }
    });
    let heavy_words = &words[..HEAVY_WORDS.min(words.len())];
    let heavy = time_reps(budget, || {
        for w in heavy_words {
            black_box(hash_word(black_box(w), Weight::Heavy));
        }
    });
    (
        parse * 1e9 / words.len() as f64,
        sqrt * 1e9 / numbers.len() as f64,
        heavy * 1e6 / heavy_words.len() as f64,
    )
}

/// `exec.parallel_speedup`: native sequential over native map-reduce on
/// the heavy corpus, four chunks per core on the global pool; the two are
/// timed alternately.
pub fn parallel_speedup(heavy_lines: &[String], budget: Duration) -> f64 {
    let chunk = (heavy_lines.len() / (4 * crate::workload::cores())).max(1);
    let (mut sequential, mut parallel) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while sequential.len() < MIN_REPS || start.elapsed() < budget * 2 {
        let t0 = Instant::now();
        black_box(native::sequential(heavy_lines, Weight::Heavy));
        sequential.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(native::map_reduce_on(
            heavy_lines,
            Weight::Heavy,
            chunk,
            exec::global(),
        ));
        parallel.push(t0.elapsed().as_secs_f64());
    }
    median(&sequential) / median(&parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::uniform_lines;

    #[test]
    fn every_rung_computes_the_reference_total() {
        let input = LadderInput::new(uniform_lines(40, 10, 11));
        assert_eq!(input.words, 400);
        for (name, rung) in RUNGS {
            let got = rung(&input);
            assert!(
                (got - input.reference).abs() <= input.reference * 1e-9,
                "{name}: {got} vs {}",
                input.reference
            );
        }
    }

    #[test]
    fn word_scan_handles_edges() {
        assert_eq!(next_word("  ab  c", 0), Some((2, 4)));
        assert_eq!(next_word("  ab  c", 4), Some((6, 7)));
        assert_eq!(next_word("  ab  c", 7), None);
        assert_eq!(next_word("", 0), None);
        assert_eq!(next_word("   ", 0), None);
    }

    #[test]
    fn small_probes_return_positive_finite_numbers() {
        let input = LadderInput::new(uniform_lines(20, 10, 5));
        let b = Duration::from_millis(1);
        let (concat, as_key) = string_plane_ns(&input, b);
        let (spawn, first) = pipe_us(b);
        let (parse, sqrt, heavy) = bigint(&input, b);
        for v in [
            concat,
            as_key,
            spawn,
            first,
            parse,
            sqrt,
            heavy,
            plan_build_us(b),
            submit_join_us(b),
            handoff_us(b),
            parallel_speedup(&uniform_lines(4, 5, 1), b),
        ] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }
}
