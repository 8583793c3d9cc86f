//! The CI regression gates as a tested library.
//!
//! CI gates on the one measured surface: the ten result files a
//! `benchmark/run.sh` run leaves in `benchmark/out/` (five workloads,
//! each untraced and traced; `BENCHMARK.json` is the contract).
//! [`run_gates`] first checks that every file is there and reports a
//! correct, non-empty run with no failed operation (`results`), then
//! evaluates [`TABLE`], one row per gate. Nothing here skips: the harness
//! omits a note whose value is 0, so for a `NonZero` row a renamed key and
//! a dead mechanism are the same loud FAIL.
//!
//! The two gates over other files ([`schedtest_gate`], [`faults_gate`])
//! keep their own readers. [`history_line`] and [`drift_table`] turn the
//! documents the gates just read into the record `BENCH_history.jsonl`
//! keeps and a report-only comparison with its last line.

use crate::json::Json;
use std::collections::BTreeMap;
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

/// One run's result documents by (workload, trace). An `Err` is a file
/// that could not be read or parsed; a missing entry is a missing file.
pub type Results = BTreeMap<(&'static str, u8), Result<Json, String>>;

/// Read `result-<workload>-trace{0,1}.json` for every workload from `dir`.
pub fn load_results(dir: &Path) -> Results {
    let mut out = Results::new();
    for workload in WORKLOADS {
        for trace in [0, 1] {
            let path = dir.join(format!("result-{workload}-trace{trace}.json"));
            let doc = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|text| {
                    Json::parse(&text).map_err(|e| format!("{}: bad JSON: {e}", path.display()))
                });
            out.insert((workload, trace), doc);
        }
    }
    out
}

/// What a table row asks of `notes.<key>.value`.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Present and > 0: the mechanism is still on the measured path.
    NonZero,
    /// Present and at most the cap (`MetricAtMost`: `result.metrics.<key>`).
    AtMost(f64),
    MetricAtMost(f64),
    /// `key / <this note>` at most the cap. The numerator may be a true
    /// zero (absent from `notes`) only while `result.metrics` still lists
    /// the metric it splits by path; the denominator must be positive.
    RatioAtMost(&'static str, f64),
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

/// `embedded_over_native` on untraced `seq_light`. Derived 2026-10-03 from
/// ten `benchmark/run.sh --quick --workload seq_light --trace 0` readings
/// on the 2-vCPU reference VM (1.172 1.570 1.531 1.516 1.516 1.567 1.525
/// 1.539 1.544 1.505): their maximum 1.570 × 1.15 headroom = 1.8055. When
/// a legitimate change moves the ratio, re-derive it the same way and let
/// the PR's `BENCH_history.jsonl` line record the move.
pub const MAX_SEQ_LIGHT_EMBEDDED_OVER_NATIVE: f64 = 1.81;

/// `peak_rss_mb` on untraced `compile_heavy` (118.6 while set-ups leaked), derived
/// 2026-10-15 as above: max(54.99 54.82 54.90 54.94 54.92 54.94 54.89 54.93 54.82 54.91) × 1.15.
pub const MAX_COMPILE_HEAVY_PEAK_RSS_MB: f64 = 63.3;

/// `interp_over_native` on untraced `seq_light` (9.78–10.28 while every call
/// built its activation), derived 2026-10-15 as above: max(6.512 6.593 6.554
/// 6.618 6.676 6.639 6.694 6.520 6.614 6.619) × 1.15 = 7.698.
pub const MAX_SEQ_LIGHT_INTERP_OVER_NATIVE: f64 = 7.70;

pub const TABLE: [Row; 8] = [
    Row {
        gate: "fusion",
        workload: "seq_light",
        trace: 1,
        key: "gde.fused_stages.embedded",
        check: Check::NonZero,
        guards: "the embedded lane no longer reaches stage fusion (DESIGN.md § Stage fusion)",
    },
    Row {
        gate: "compact-values",
        workload: "seq_light",
        trace: 1,
        key: "gde.inline_hits_per_word.embedded",
        check: Check::NonZero,
        guards: "no value took an inline (Sym/window/scalar) form (DESIGN.md § String plane)",
    },
    Row {
        gate: "concat-slices",
        workload: "strings_report",
        trace: 1,
        key: "gde.concat_slices.embedded",
        check: Check::NonZero,
        guards: "no concat reached the string builder's zero-copy regimes (DESIGN.md § String plane)",
    },
    Row {
        gate: "resolve",
        workload: "seq_light",
        trace: 1,
        key: "gde.slot_hits_per_word.interp",
        check: Check::NonZero,
        guards: "interpreted source reads no variable through a resolved slot (DESIGN.md § Slot-resolved environments)",
    },
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
        check: Check::AtMost(MAX_SEQ_LIGHT_EMBEDDED_OVER_NATIVE),
        guards: "per-word allocation, by-name lookup or an unfused hot path is back (DESIGN.md § String plane)",
    },
    Row {
        gate: "interp-freed",
        workload: "compile_heavy",
        trace: 0,
        key: "peak_rss_mb",
        check: Check::MetricAtMost(MAX_COMPILE_HEAVY_PEAK_RSS_MB),
        guards: "a dropped interpreter is no longer freed (DESIGN.md § 6, Interpreter lifetime)",
    },
    Row {
        gate: "interp-recycled",
        workload: "seq_light",
        trace: 0,
        key: "interp_over_native",
        check: Check::AtMost(MAX_SEQ_LIGHT_INTERP_OVER_NATIVE),
        guards: "calls build an activation each again, or bind natives per evaluation (DESIGN.md § One lowering)",
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
    match field("correct") {
        Some(Json::Bool(true)) => {}
        other => return Err(format!("result.correct is {other:?}, expected true")),
    }
    match field("failed").and_then(Json::as_u64) {
        Some(0) => {}
        other => return Err(format!("result.failed is {other:?}, expected 0")),
    }
    match field("attempted").and_then(Json::as_u64) {
        Some(n) if n > 0 => Ok(()),
        other => Err(format!("result.attempted is {other:?}, expected > 0")),
    }
}

impl Row {
    fn evaluate(&self, doc: &Json) -> Result<String, String> {
        let key = self.key;
        let metric_row = matches!(self.check, Check::MetricAtMost(_));
        let read = if metric_row { metric } else { note };
        let place = if metric_row { "metrics" } else { "notes" };
        let at = format!("{} trace{} {place}.\"{key}\"", self.workload, self.trace);
        match self.check {
            Check::NonZero => match note(doc, key) {
                Some(v) if v > 0.0 => Ok(format!("{at} = {v} > 0")),
                Some(v) => Err(format!("{at} = {v}")),
                None => Err(format!("{at} is absent (0, or a renamed key)")),
            },
            Check::AtMost(cap) | Check::MetricAtMost(cap) => match read(doc, key) {
                Some(v) if v <= cap => Ok(format!("{at} = {v:.3} (cap {cap})")),
                Some(v) => Err(format!("{at} = {v:.3} (cap {cap})")),
                None => Err(format!("{at} is absent (renamed key?)")),
            },
            Check::RatioAtMost(den_key, cap) => {
                let den = match note(doc, den_key) {
                    Some(d) if d > 0.0 => d,
                    other => return Err(format!("notes.\"{den_key}\" is {other:?}, expected > 0")),
                };
                let base = key.rsplit_once('.').map_or(key, |(base, _path)| base);
                let num = match note(doc, key) {
                    Some(n) => n,
                    None if metric(doc, base).is_some() => 0.0,
                    None => {
                        return Err(format!(
                            "{at} and result.metrics.\"{base}\" are both absent (renamed key?)"
                        ))
                    }
                };
                let ratio = num / den;
                let detail = format!("{at} / {den_key} = {num}/{den} = {ratio:.4} (cap {cap})");
                if ratio <= cap {
                    Ok(detail)
                } else {
                    Err(detail)
                }
            }
        }
    }
}

/// Run the `results` gate and every [`TABLE`] row. When a result file is
/// missing, unreadable or reports a wrong or failed run, the numbers in
/// the rest are not trustworthy: the rows FAIL as "not evaluated".
pub fn run_gates(results: &Results) -> Vec<GateReport> {
    let mut problems = Vec::new();
    for workload in WORKLOADS {
        for trace in [0, 1] {
            let file = format!("result-{workload}-trace{trace}.json");
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
    let rows = TABLE.iter().map(|row| {
        let outcome = match results.get(&(row.workload, row.trace)) {
            Some(Ok(doc)) if trusted => row
                .evaluate(doc)
                .map_err(|detail| format!("{detail} — {}", row.guards)),
            _ => Err("not evaluated: results gate failed".into()),
        };
        GateReport::of(row.gate, outcome)
    });
    std::iter::once(GateReport::of("results", results_gate))
        .chain(rows)
        .collect()
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
/// host's cores, the end-to-end cells, the `seq_light` ladder and the
/// schedules the model suites explored (`null` when no summary was read).
pub fn history_line(
    results: &Results,
    commit: &str,
    explored_schedules: Option<u64>,
) -> Result<String, String> {
    let Some(Ok(traced)) = results.get(&("seq_light", 1)) else {
        return Err("no traced result for seq_light".into());
    };
    let traced_metric = |name: &str| {
        metric(traced, name).ok_or_else(|| format!("seq_light trace1: no metric \"{name}\""))
    };
    let cells = end_to_end(results)?;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let metrics: Vec<String> = cells
                .iter()
                .filter(|(workload, _, _)| workload == w)
                .map(|(_, name, value)| format!("\"{name}\":{value}"))
                .collect();
            format!("\"{w}\":{{{}}}", metrics.join(","))
        })
        .collect();
    let mut ladder = Vec::new();
    for rung in LADDER {
        ladder.push(format!("\"{rung}\":{}", traced_metric(rung)?));
    }
    Ok(format!(
        "{{\"schema\":\"bench-history-v1\",\"commit\":{commit:?},\"host.cores\":{cores},\
         \"explored_schedules\":{explored},\"end_to_end\":{{{workloads}}},\"ladder\":{{{ladder}}}}}",
        cores = traced_metric("host.cores")?,
        explored = explored_schedules.map_or("null".to_string(), |n| n.to_string()),
        workloads = workloads.join(","),
        ladder = ladder.join(","),
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
        let line = match history
            .path(&["end_to_end", workload, name])
            .and_then(Json::as_f64)
        {
            Some(base) if base != 0.0 => format!(
                "{workload:<16} {name:<22} {cur:>14.4} {base:>14.4} {:>+7.1}%\n",
                (cur / base - 1.0) * 100.0
            ),
            _ => format!(
                "{workload:<16} {name:<22} {cur:>14.4} {:>14} {:>8}\n",
                "-", "new"
            ),
        };
        out.push_str(&line);
    }
    Ok(out)
}

/// Sum the JSON-lines summary the schedtest model suites append under
/// `SCHEDTEST_JSON` (one `schedtest-v1` object per `explore()` call — see
/// `crates/schedtest/src/lib.rs`) to (explorations, explored schedules).
/// `Err` is a malformed line or an exploration that found a failing
/// schedule.
pub fn schedtest_totals(text: &str) -> Result<(u64, u64), String> {
    let mut explorations = 0u64;
    let mut schedules = 0u64;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let doc = Json::parse(line).map_err(|e| format!("summary line {lineno}: bad JSON: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some("schedtest-v1") => {}
            other => {
                return Err(format!(
                    "summary line {lineno}: schema {other:?}, expected \"schedtest-v1\""
                ))
            }
        }
        let explored = doc
            .get("explored_schedules")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("summary line {lineno}: no integer \"explored_schedules\""))?;
        if let Some(Json::Bool(true)) = doc.get("failed") {
            let test = doc
                .get("test")
                .and_then(Json::as_str)
                .unwrap_or("<unnamed>");
            return Err(format!(
                "exploration \"{test}\" found a failing schedule (line {lineno})"
            ));
        }
        explorations += 1;
        schedules += explored;
    }
    Ok((explorations, schedules))
}

/// The schedule-exploration smoke gate over [`schedtest_totals`]. It holds
/// when the smoke actually ran: at least one summary line, every line
/// well-formed, no exploration failed, and `explored_schedules` sums to
/// more than zero. A summary that parses but explored nothing is exactly
/// what a mis-wired cfg flag looks like (the model tests compiled out), so
/// it FAILs rather than skips; the only skip is the caller not passing a
/// summary at all.
pub fn schedtest_gate(text: &str) -> GateReport {
    let outcome = schedtest_totals(text).and_then(|totals| match totals {
        (0, _) => Err("summary has no schedtest-v1 lines — the smoke ran zero explorations".into()),
        (explorations, 0) => Err(format!(
            "{explorations} explorations but explored_schedules sums to 0 — \
             the model tests compiled out (cfg flag mis-wired?)"
        )),
        (explorations, schedules) => Ok(format!(
            "{explorations} explorations, {schedules} schedules explored"
        )),
    });
    GateReport::of("schedtest", outcome)
}

/// Read a counter out of a `fault-smoke-v1` obs snapshot. `Ok(None)`
/// means the snapshot itself is absent (`"obs": null`); a *present*
/// snapshot with a missing or non-counter metric is an error, because that
/// is exactly what a silent rename looks like.
fn counter(doc: &Json, metric: &str) -> Result<Option<u64>, String> {
    let obs = doc
        .get("obs")
        .ok_or_else(|| "snapshot has no \"obs\" member".to_string())?;
    if obs.is_null() {
        return Ok(None);
    }
    let entry = obs
        .get(metric)
        .ok_or_else(|| format!("obs snapshot has no \"{metric}\" (renamed or unregistered?)"))?;
    if entry.get("kind").and_then(Json::as_str) != Some("counter") {
        return Err(format!("\"{metric}\" is not a counter"));
    }
    entry
        .get("value")
        .and_then(Json::as_u64)
        .map(Some)
        .ok_or_else(|| format!("\"{metric}\" has no integer value"))
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
    match doc.get("schema").and_then(Json::as_str) {
        Some("fault-smoke-v1") => {}
        other => return Err(format!("schema {other:?}, expected \"fault-smoke-v1\"")),
    }
    match doc.get("injected").and_then(Json::as_u64) {
        Some(0) => {
            return Err(
                "injected = 0 — the smoke armed no faults (FAULTS mis-parsed \
                        or the faultinj feature compiled out)"
                    .into(),
            )
        }
        Some(_) => {}
        None => return Err("no integer \"injected\" total".into()),
    }
    // Every surface of the fault plane, by its committed counter key.
    // All must be present AND non-zero after the smoke scenarios.
    let mut details = Vec::new();
    for metric in [
        "faults.injected",
        "pipes.faults.propagated",
        "pipes.faults.retries",
        "pipes.faults.degraded_sources",
        "blockingq.close.failed",
    ] {
        match counter(doc, metric)? {
            None => {
                return Err("no obs snapshot (fault_smoke built without the obs feature)".into())
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
