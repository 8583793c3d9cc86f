//! The CI regression gates as a tested library.
//!
//! CI gates on the one measured surface: the ten result files a
//! `benchmark/run.sh` run leaves in `benchmark/out/` (five workloads,
//! each untraced and traced; `BENCHMARK.json` is the contract), and the
//! untraced re-runs of a workload that a median row reads ([`RERUNS`]).
//! [`run_gates`] first checks that every file is there and reports a
//! correct, non-empty run with no failed operation (`results`), then
//! evaluates [`TABLE`], one row per cap, and `counts`: every
//! deterministic count of the run equals the one the last line of
//! `BENCH_history.jsonl` recorded. Nothing here skips: a renamed, dead or
//! new count is a moved key, a loud FAIL.
//!
//! The two gates over other files ([`schedtest_gate`], [`faults_gate`])
//! keep their own readers. [`history_line`] and [`drift_table`] turn the
//! documents the gates just read into the record `BENCH_history.jsonl`
//! keeps and a report-only comparison with its last line.

use crate::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    Pass,
    Fail,
    /// The caller passed no input for this gate (`schedtest`, `faults`
    /// only). `--strict` turns this into a failure at the exit-code level.
    Skip,
}

#[derive(Debug)]
pub struct GateReport {
    pub name: &'static str,
    pub status: GateStatus,
    pub detail: String,
}

impl GateReport {
    /// `Ok` is a PASS and `Err` a FAIL; either way the text is the detail.
    fn of(name: &'static str, outcome: Result<String, String>) -> Self {
        let (status, detail) = match outcome {
            Ok(detail) => (GateStatus::Pass, detail),
            Err(detail) => (GateStatus::Fail, detail),
        };
        GateReport {
            name,
            status,
            detail,
        }
    }
}

/// The benchmark's workloads and ladder rungs, by the names
/// `BENCHMARK.json` gives them (`tests/gates.rs` checks them against it).
pub const WORKLOADS: [&str; 5] = [
    "seq_light",
    "pipe_light",
    "mapreduce_heavy",
    "strings_report",
    "compile_heavy",
];
const LADDER: [&str; 10] = [
    "wordcount.raw_loop_ns",
    "wordcount.iterator_ns",
    "gde.gen_ns",
    "gde.value_ns",
    "gde.stages_unfused_ns",
    "gde.stages_fused_ns",
    "gde.flat_ns",
    "blockingq.queue_hop_ns",
    "pipes.thread_hop_ns",
    "mapreduce.chunk_ns",
];

/// Result documents by (workload, run): run 0 is the untraced run, 1 the
/// traced run, and [`RERUNS`] the untraced re-runs. An `Err` is a file
/// that could not be read or parsed; a missing entry is a missing file.
pub type Results = BTreeMap<(&'static str, u8), Result<Json, String>>;

/// The untraced re-runs of a workload that a [`Check::MedianAtMost`] row
/// reads, beside its run 0: `scripts/ci.sh` re-runs the workload twice
/// untraced and copies each result aside as `result-<workload>-run<k>.json`.
pub const RERUNS: [u8; 2] = [2, 3];

/// The file a run's result is in.
fn file_name(workload: &str, run: u8) -> String {
    match run {
        0 | 1 => format!("result-{workload}-trace{run}.json"),
        _ => format!("result-{workload}-run{run}.json"),
    }
}

/// Read the untraced and the traced run of every workload from `dir`, and
/// the re-runs of each workload a median row reads.
pub fn load_results(dir: &Path) -> Results {
    let mut out = Results::new();
    for workload in WORKLOADS {
        let median =
            |row: &Row| row.workload == workload && matches!(row.check, Check::MedianAtMost(_));
        let reruns = TABLE.iter().any(median).then_some(RERUNS);
        for run in [0, 1].into_iter().chain(reruns.into_iter().flatten()) {
            let path = dir.join(file_name(workload, run));
            let doc = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|text| {
                    Json::parse(&text).map_err(|e| format!("{}: bad JSON: {e}", path.display()))
                });
            out.insert((workload, run), doc);
        }
    }
    out
}

/// What a table row asks of `notes.<key>.value`.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Present and at most the cap (`MetricAtMost`: `result.metrics.<key>`).
    AtMost(f64),
    MetricAtMost(f64),
    /// `key / <this note>` at most the cap. The numerator may be a true
    /// zero (absent from `notes`) only while `result.metrics` still lists
    /// the metric it splits by path; the denominator must be positive.
    RatioAtMost(&'static str, f64),
    /// The median over the untraced run and its [`RERUNS`] at most the cap:
    /// a ratio to one quick run's `native_words_per_s`, which swings by a
    /// quarter from one quick run to the next on a one-core host. A re-run
    /// whose `seed` or `seconds` differs from the run's FAILs: it is not a
    /// re-run of that run.
    MedianAtMost(f64),
}

/// One gate: a note of one result file and what must hold of it.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub gate: &'static str,
    pub workload: &'static str,
    pub trace: u8,
    pub key: &'static str,
    pub check: Check,
    /// What a FAIL means, appended to the detail.
    pub guards: &'static str,
}

/// Blocking episodes per transported item on the embedded `pipe_light`
/// lane. The cap is the pre-batching seed baseline (28 262 blocked takes
/// over 378 288 takes; scale-free, DESIGN.md § Batched transport); the
/// batched transport reads 150 / 20 000 = 0.0075.
pub const MAX_BLOCKED_TAKES_PER_WORD: f64 = 0.0747;

/// `embedded_over_native` on untraced `seq_light`, the median of three
/// quick runs ([`Check::MedianAtMost`]). Derived 2026-10-03 from
/// ten `benchmark/run.sh --quick --workload seq_light --trace 0` readings
/// on the 2-vCPU reference VM (1.172 1.570 1.531 1.516 1.516 1.567 1.525
/// 1.539 1.544 1.505): their maximum 1.570 × 1.15 headroom = 1.8055. When
/// a legitimate change moves the ratio, re-derive it the same way and let
/// the PR's `BENCH_history.jsonl` line record the move.
pub const MAX_SEQ_LIGHT_EMBEDDED_OVER_NATIVE: f64 = 1.81;

/// `peak_rss_mb` on untraced `compile_heavy` (118.6 while set-ups leaked; 54.1–55.0 while
/// emitted text was twice its size; 39.4 with its growth slack kept). Memory spreads far
/// less than a rate, so the cap is max + max(10 × (max − min), 1 MB) over ten quick readings,
/// derived 2026-10-20 (35.820 35.789 35.820 35.902 35.887 35.820 35.813 35.805 35.887 35.809):
/// 35.902 + 10 × 0.113 = 37.04. It was 41.3 (max × 1.15), which 39.4 passed.
pub const MAX_COMPILE_HEAVY_PEAK_RSS_MB: f64 = 37.04;

/// `interp_over_native` on untraced `seq_light`, the median of three quick
/// runs (9.78–10.28 while every call built its activation), derived
/// 2026-10-15 as above: max(6.512 6.593 6.554
/// 6.618 6.676 6.639 6.694 6.520 6.614 6.619) × 1.15 = 7.698.
pub const MAX_SEQ_LIGHT_INTERP_OVER_NATIVE: f64 = 7.70;

/// `embedded_over_native` on untraced `strings_report` (3.31–3.48 while table
/// reads promoted and the map ran SipHash), derived 2026-10-16 as above once
/// `||` made an owned string per call: max(1.835 2.190 2.298 2.302 2.922
/// 2.731 2.332 2.296 2.276 2.166) × 1.15 = 3.360 (it was 3.12 over the
/// builder arena's readings, 2.438–2.716). SipHash alone put back read
/// 3.058–3.151 over the arena, so this cap does not catch it;
/// `scripts/verify.sh` pins the hasher.
pub const MAX_STRINGS_REPORT_EMBEDDED_OVER_NATIVE: f64 = 3.36;

pub const TABLE: [Row; 5] = [
    Row {
        gate: "contention",
        workload: "pipe_light",
        trace: 1,
        key: "blockingq.blocked_takes.embedded",
        check: Check::RatioAtMost("input_words", MAX_BLOCKED_TAKES_PER_WORD),
        guards: "per-item transport is back on the hot path (DESIGN.md § Batched transport)",
    },
    Row {
        gate: "seq-lw-ratio",
        workload: "seq_light",
        trace: 0,
        key: "embedded_over_native",
        check: Check::MedianAtMost(MAX_SEQ_LIGHT_EMBEDDED_OVER_NATIVE),
        guards: "per-word allocation, by-name lookup or an unfused hot path is back (DESIGN.md § String plane)",
    },
    Row {
        gate: "interp-freed",
        workload: "compile_heavy",
        trace: 0,
        key: "peak_rss_mb",
        check: Check::MetricAtMost(MAX_COMPILE_HEAVY_PEAK_RSS_MB),
        guards: "a dropped interpreter is no longer freed (DESIGN.md § 6, Interpreter lifetime), or emitted text is back at its pre-cut size or keeps its growth slack (DESIGN.md § One lowering)",
    },
    Row {
        gate: "interp-recycled",
        workload: "seq_light",
        trace: 0,
        key: "interp_over_native",
        check: Check::MedianAtMost(MAX_SEQ_LIGHT_INTERP_OVER_NATIVE),
        guards: "calls build an activation each again, or bind natives per evaluation (DESIGN.md § One lowering)",
    },
    Row {
        gate: "strings-keyed",
        workload: "strings_report",
        trace: 0,
        key: "embedded_over_native",
        check: Check::AtMost(MAX_STRINGS_REPORT_EMBEDDED_OVER_NATIVE),
        guards: "table reads promote their key again, or the table map hashes with SipHash (DESIGN.md § String plane)",
    },
];

fn note(doc: &Json, key: &str) -> Option<f64> {
    doc.path(&["notes", key, "value"]).and_then(Json::as_f64)
}

fn metric(doc: &Json, name: &str) -> Option<f64> {
    doc.path(&["result", "metrics", name, "value"])
        .and_then(Json::as_f64)
}

/// The `results` gate on one document: `Err` says what is wrong with it.
fn check_result(doc: &Json) -> Result<(), String> {
    let field = |name: &str| doc.path(&["result", name]);
    let count = |name| field(name).and_then(Json::as_u64);
    match (field("correct"), count("failed"), count("attempted")) {
        (Some(Json::Bool(true)), Some(0), Some(n)) if n > 0 => Ok(()),
        (correct, failed, attempted) => Err(format!(
            "result.correct is {correct:?}, result.failed {failed:?} and result.attempted \
             {attempted:?}; expected true, 0 and > 0"
        )),
    }
}

/// A re-run repeats its run: the same `seed` and `seconds` (a quick and a
/// full-size run differ in the second). `Err` names the first that differs.
fn same_run(run: &Json, rerun: &Json) -> Result<(), String> {
    for field in ["seed", "seconds"] {
        let (want, got) = (
            run.get(field).and_then(Json::as_f64),
            rerun.get(field).and_then(Json::as_f64),
        );
        if want.is_none() || got != want {
            return Err(format!("{field} is {got:?}, not {want:?}"));
        }
    }
    Ok(())
}

impl Row {
    /// Evaluate on `results`, whose runs 0 and 1 the `results` gate
    /// vouched for; a re-run is checked here, as that gate checks a run.
    fn evaluate(&self, results: &Results) -> Result<String, String> {
        let doc = |run| {
            let file = file_name(self.workload, run);
            match results.get(&(self.workload, run)) {
                None => Err(format!("{file} is missing")),
                Some(Err(e)) => Err(e.clone()),
                Some(Ok(doc)) => check_result(doc)
                    .map(|()| doc)
                    .map_err(|e| format!("{file}: {e}")),
            }
        };
        let key = self.key;
        let metric_row = matches!(self.check, Check::MetricAtMost(_));
        let read = if metric_row { metric } else { note };
        let place = if metric_row { "metrics" } else { "notes" };
        let at = format!("{} trace{} {place}.\"{key}\"", self.workload, self.trace);
        let absent = |run| {
            format!(
                "{at} is absent from {} (renamed key?)",
                file_name(self.workload, run)
            )
        };
        let (detail, holds) = match self.check {
            Check::AtMost(cap) | Check::MetricAtMost(cap) => {
                let v = read(doc(self.trace)?, key).ok_or_else(|| absent(self.trace))?;
                (format!("{at} = {v:.3} (cap {cap})"), v <= cap)
            }
            Check::MedianAtMost(cap) => {
                let first = doc(self.trace)?;
                let mut vs = vec![read(first, key).ok_or_else(|| absent(self.trace))?];
                for run in RERUNS {
                    let rerun = doc(run)?;
                    let (file, of) = (
                        file_name(self.workload, run),
                        file_name(self.workload, self.trace),
                    );
                    same_run(first, rerun).map_err(|e| format!("{file}: {e} as in {of}"))?;
                    vs.push(read(rerun, key).ok_or_else(|| absent(run))?);
                }
                let shown: Vec<String> = vs.iter().map(|v| format!("{v:.3}")).collect();
                vs.sort_by(f64::total_cmp);
                let median = vs[vs.len() / 2];
                let runs = shown.join(", ");
                (
                    format!("{at} = median {median:.3} of {runs} (cap {cap})"),
                    median <= cap,
                )
            }
            Check::RatioAtMost(den_key, cap) => {
                let doc = doc(self.trace)?;
                let den = match note(doc, den_key) {
                    Some(d) if d > 0.0 => d,
                    other => return Err(format!("notes.\"{den_key}\" is {other:?}, expected > 0")),
                };
                let base = key.rsplit_once('.').map_or(key, |(base, _path)| base);
                let num = match note(doc, key) {
                    Some(n) => n,
                    None if metric(doc, base).is_some() => 0.0,
                    None => return Err(format!("{at} and metrics.\"{base}\" are absent")),
                };
                let ratio = num / den;
                let detail = format!("{at} / {den_key} = {num}/{den} = {ratio:.4} (cap {cap})");
                (detail, ratio <= cap)
            }
        };
        if holds {
            Ok(detail)
        } else {
            Err(detail)
        }
    }
}

/// Run the `results` gate, every [`TABLE`] row and `counts` against
/// `history`, the last `BENCH_history.jsonl` line. When a result file is
/// missing, unreadable or reports a wrong or failed run, the numbers in
/// the rest are not trustworthy: the rows FAIL as "not evaluated".
pub fn run_gates(results: &Results, suites: &Suites, history: &Json) -> Vec<GateReport> {
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        for trace in [0, 1] {
            let file = file_name(workload, trace);
            match results.get(&(workload, trace)) {
                None => problems.push(format!("{file} is missing")),
                Some(Err(e)) => problems.push(e.clone()),
                Some(Ok(doc)) => {
                    if let Err(e) = check_result(doc) {
                        problems.push(format!("{file}: {e}"));
                    }
                }
            }
        }
    }
    let trusted = problems.is_empty();
    let results_gate = if trusted {
        Ok("10 result files, every one correct with 0 failed operations".into())
    } else {
        Err(problems.join("; "))
    };
    let untrusted = || Err("not evaluated: results gate failed".into());
    let rows = TABLE.iter().map(|row| {
        let outcome = match trusted {
            true => row
                .evaluate(results)
                .map_err(|detail| format!("{detail} — {}", row.guards)),
            false => untrusted(),
        };
        GateReport::of(row.gate, outcome)
    });
    let counts = trusted.then(|| compare_counts(results, suites, history));
    std::iter::once(GateReport::of("results", results_gate))
        .chain(rows)
        .chain([GateReport::of("counts", counts.unwrap_or_else(untrusted))])
        .collect()
}

/// Per-path count notes that depend on the thread schedule even when the
/// iterations of one run agree. They join the contract once a lane runs
/// the concurrent workloads under a fixed, seeded schedule.
const SCHEDULE_DEPENDENT: [&str; 2] = ["blockingq.blocked_puts", "blockingq.blocked_takes"];

/// Counts as JSON literals under flat keys: `<workload>.<metric>.<path>`
/// for the per-path count notes of a traced run, `<workload>.emitted_bytes`
/// and `schedtest.<suite>.explored_schedules` / `.complete`.
type Counts = BTreeMap<String, String>;

/// A count as the history line spells it.
fn literal(value: Option<&Json>) -> String {
    match value {
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        _ => "null".into(),
    }
}

/// The run's [`Counts`], and the `<workload>.<metric>.` prefixes of the
/// notes left out: metrics the traced run tagged, and [`SCHEDULE_DEPENDENT`].
fn run_counts(results: &Results, suites: &Suites) -> (Counts, Vec<String>) {
    let mut counts = Counts::new();
    let mut skipped = Vec::new();
    for w in WORKLOADS {
        let doc = |trace| results.get(&(w, trace)).and_then(|doc| doc.as_ref().ok());
        let bytes = doc(0).and_then(|d| d.path(&["result", "metrics", "emitted_bytes", "value"]));
        counts.insert(format!("{w}.emitted_bytes"), literal(bytes));
        let traced = doc(1).unwrap_or(&Json::Null);
        let members = |name| traced.get(name).into_iter().flat_map(Json::members);
        let tagged = members("tags").map(|(metric, _)| metric.as_str());
        for metric in tagged.chain(SCHEDULE_DEPENDENT) {
            skipped.push(format!("{w}.{metric}."));
        }
        for (key, note) in members("notes") {
            let (_, path) = key.rsplit_once('.').unwrap_or_default();
            if ["native", "embedded", "interp"].contains(&path) {
                counts.insert(format!("{w}.{key}"), literal(note.get("value")));
            }
        }
    }
    for (suite, (explored, complete)) in suites {
        let suite = format!("schedtest.{suite}");
        counts.insert(format!("{suite}.explored_schedules"), explored.to_string());
        counts.insert(format!("{suite}.complete"), complete.to_string());
    }
    counts.retain(|key, _| !skipped.iter().any(|prefix| key.starts_with(prefix)));
    (counts, skipped)
}

/// The `counts` gate: the run's [`Counts`] against the ones the history
/// line recorded, key for key and exactly. A FAIL lists each moved key as
/// `history → current`: a change that moves a count on purpose pastes
/// those lines into CHANGES.md and commits a new history line.
fn compare_counts(results: &Results, suites: &Suites, history: &Json) -> Result<String, String> {
    let Some(recorded) = history.get("counts") else {
        return Err("the history line records no counts".into());
    };
    let (current, skipped) = run_counts(results, suites);
    let was = recorded
        .members()
        .map(|(key, v)| (key.clone(), literal(Some(v))));
    let mut was: Counts = was.collect();
    was.retain(|key, _| !skipped.iter().any(|prefix| key.starts_with(prefix)));
    let mut moved = Vec::new();
    for key in current.keys().chain(was.keys()).collect::<BTreeSet<_>>() {
        let [from, to] = [&was, &current].map(|c| c.get(key).map_or("absent", String::as_str));
        if from != to {
            moved.push(format!("{key}: {from} → {to}"));
        }
    }
    if !moved.is_empty() {
        return Err(format!("history → current:\n  {}", moved.join("\n  ")));
    }
    let (cells, suites) = (WORKLOADS.len(), suites.len());
    let notes = current.len() - cells - 2 * suites;
    Ok(format!(
        "{notes} count notes, {cells} emitted_bytes cells and {suites} suites equal"
    ))
}

/// The end-to-end cells: every metric of every untraced run (7 × 5) and
/// the ratio the harness derives from the same iterations, the headline.
fn end_to_end(results: &Results) -> Result<Vec<(&'static str, &str, f64)>, String> {
    let mut cells = Vec::new();
    for workload in WORKLOADS {
        let Some(Ok(doc)) = results.get(&(workload, 0)) else {
            return Err(format!("no untraced result for {workload}"));
        };
        let Some(Json::Obj(metrics)) = doc.path(&["result", "metrics"]) else {
            return Err(format!("{workload}: no result.metrics object"));
        };
        for name in metrics.keys() {
            let value =
                metric(doc, name).ok_or_else(|| format!("{workload}: {name} has no value"))?;
            cells.push((workload, name.as_str(), value));
        }
        let ratio = note(doc, "embedded_over_native")
            .ok_or_else(|| format!("{workload}: no embedded_over_native note"))?;
        cells.push((workload, "embedded_over_native", ratio));
    }
    Ok(cells)
}

/// One `bench-history-v1` line for `BENCH_history.jsonl`: the commit, the
/// host's cores, the end-to-end cells, the `seq_light` ladder and every
/// count the `counts` gate compares.
pub fn history_line(results: &Results, commit: &str, suites: &Suites) -> Result<String, String> {
    let Some(Ok(traced)) = results.get(&("seq_light", 1)) else {
        return Err("no traced result for seq_light".into());
    };
    let traced_metric = |name: &str| {
        metric(traced, name).ok_or_else(|| format!("seq_light trace1: no metric \"{name}\""))
    };
    let cells = end_to_end(results)?;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut metrics = Vec::new();
        for (_, name, value) in cells.iter().filter(|cell| cell.0 == w) {
            metrics.push(format!("\"{name}\":{value}"));
        }
        workloads.push(format!("\"{w}\":{{{}}}", metrics.join(",")));
    }
    let mut ladder = Vec::new();
    for rung in LADDER {
        ladder.push(format!("\"{rung}\":{}", traced_metric(rung)?));
    }
    let counts = run_counts(results, suites).0;
    let counts: Vec<String> = counts.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
    Ok(format!(
        "{{\"schema\":\"bench-history-v1\",\"commit\":{commit:?},\"host.cores\":{cores},\
         \"end_to_end\":{{{workloads}}},\"ladder\":{{{ladder}}},\"counts\":{{{counts}}}}}",
        cores = traced_metric("host.cores")?,
        workloads = workloads.join(","),
        ladder = ladder.join(","),
        counts = counts.join(","),
    ))
}

/// Render the report-only drift table: the end-to-end cells of this run
/// against one parsed `bench-history-v1` line. A quick CI run against
/// a full-size history line is noisy cell by cell; the direction across
/// many cells is what is worth a look in every CI log.
pub fn drift_table(results: &Results, history: &Json) -> Result<String, String> {
    if history.get("schema").and_then(Json::as_str) != Some("bench-history-v1") {
        return Err("history line is not a bench-history-v1 object".into());
    }
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>8}\n",
        "workload", "metric", "current", "history", "delta"
    );
    for (workload, name, cur) in end_to_end(results)? {
        let base = history.path(&["end_to_end", workload, name]);
        let (base, delta) = match base.and_then(Json::as_f64) {
            Some(b) if b != 0.0 => (
                format!("{b:.4}"),
                format!("{:+.1}%", (cur / b - 1.0) * 100.0),
            ),
            _ => ("-".into(), "new".into()),
        };
        out += &format!("{workload:<16} {name:<22} {cur:>14.4} {base:>14} {delta:>8}\n");
    }
    Ok(out)
}

/// Each schedtest suite's (explored schedules, complete), by test name.
pub type Suites = BTreeMap<String, (u64, bool)>;

/// Read the JSON-lines summary the schedtest model suites append under
/// `SCHEDTEST_JSON` (one `schedtest-v1` object per `explore()` call — see
/// `crates/schedtest/src/lib.rs`). `Err` is a malformed line, a suite
/// summarized twice or an exploration that found a failing schedule.
pub fn schedtest_suites(text: &str) -> Result<Suites, String> {
    let mut suites = Suites::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = format!("summary line {}", i + 1);
        let doc = Json::parse(line).map_err(|e| format!("{at}: bad JSON: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some("schedtest-v1") {
            return Err(format!("{at}: schema is not \"schedtest-v1\""));
        }
        let test = doc
            .get("test")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>");
        let explored = doc.get("explored_schedules").and_then(Json::as_u64);
        let (Some(explored), Some(Json::Bool(complete))) = (explored, doc.get("complete")) else {
            return Err(format!(
                "{at}: no integer \"explored_schedules\" or no \"complete\""
            ));
        };
        if let Some(Json::Bool(true)) = doc.get("failed") {
            return Err(format!(
                "exploration \"{test}\" found a failing schedule ({at})"
            ));
        }
        if suites.insert(test.into(), (explored, *complete)).is_some() {
            return Err(format!("suite \"{test}\" is summarized twice"));
        }
    }
    Ok(suites)
}

/// The schedule-exploration smoke gate over [`schedtest_suites`]: every
/// line well-formed and no exploration failed. What each suite explored
/// is `counts`' to compare, so a suite that compiled out is a moved key
/// there; the only skip is the caller not passing a summary at all.
pub fn schedtest_gate(text: &str) -> GateReport {
    let outcome = schedtest_suites(text).map(|suites| {
        let schedules: u64 = suites.values().map(|(explored, _)| explored).sum();
        format!(
            "{} explorations, {schedules} schedules explored",
            suites.len()
        )
    });
    GateReport::of("schedtest", outcome)
}

/// Evaluate the fault-plane wiring gate on the `fault-smoke-v1` snapshot
/// the `fault_smoke` binary writes (`FAULTS_ci.json`). The smoke run arms
/// deterministic fault scenarios against every policy surface, so a
/// healthy snapshot shows *every* fault counter non-zero: a zero (or a
/// missing key — what a silent rename looks like) means that surface no
/// longer reaches the fault plane and FAILs loudly. The only skip is the
/// caller not passing a snapshot at all (`--faults-json` absent), which
/// strict CI turns into a failure.
pub fn faults_gate(doc: &Json) -> GateReport {
    GateReport::of("faults", check_faults(doc))
}

fn check_faults(doc: &Json) -> Result<String, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("fault-smoke-v1") {
        return Err("schema is not \"fault-smoke-v1\"".into());
    }
    if !matches!(doc.get("injected").and_then(Json::as_u64), Some(n) if n > 0) {
        return Err(
            "injected is 0 or absent — the smoke armed no faults (FAULTS \
                    mis-parsed or the faultinj feature compiled out)"
                .into(),
        );
    }
    let Some(Json::Obj(obs)) = doc.get("obs") else {
        return Err("no obs snapshot (fault_smoke built without the obs feature)".into());
    };
    // Every surface of the fault plane, by its committed counter key.
    let mut details = Vec::new();
    for metric in [
        "faults.injected",
        "pipes.faults.propagated",
        "pipes.faults.retries",
        "blockingq.close.failed",
    ] {
        let counter = obs
            .get(metric)
            .filter(|entry| entry.get("kind").and_then(Json::as_str) == Some("counter"));
        match counter
            .and_then(|entry| entry.get("value"))
            .and_then(Json::as_u64)
        {
            None => {
                return Err(format!(
                    "obs snapshot has no counter \"{metric}\" (renamed?)"
                ))
            }
            Some(0) => {
                return Err(format!(
                    "{metric} = 0 — this fault surface no longer fires under the smoke \
                     scenarios (DESIGN.md § Fault propagation and injection)"
                ))
            }
            Some(v) => details.push(format!("{metric} = {v}")),
        }
    }
    Ok(details.join(", "))
}
