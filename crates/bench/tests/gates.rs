//! Tests for the CI gate library.
//!
//! The benchmark's ten result documents are built in code by `passing()`
//! — from the metric names of `BENCHMARK.json`, the keys of the gate
//! table and a few per-path counts — and each test doctors one field:
//! every table row trips alone, every moved count trips `counts` alone
//! against the history line `passing()` makes, every way a run can be
//! wrong fails `results` and leaves the rest "not evaluated", and a
//! renamed key FAILs, never skips. The `schedtest` and `faults` gates read
//! other files and keep their fixtures.

use bench::gates::{
    drift_table, history_line, run_gates, schedtest_suites, Check, GateReport, GateStatus, Results,
    Row, Suites, RERUNS, TABLE, WORKLOADS,
};
use bench::json::Json;
use std::collections::BTreeMap;

/// The benchmark's contract; read-only here.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The `name` of every entry of one of BENCHMARK.json's lists.
fn contract_names(list: &str) -> Vec<String> {
    let contract = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let entries = contract.get(list).and_then(Json::as_arr).expect(list);
    let name = |e: &Json| {
        e.get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string()
    };
    entries.iter().map(name).collect()
}

/// `{"value": v}`, the shape of a metric or a note.
fn value(v: f64) -> Json {
    Json::Obj(BTreeMap::from([("value".to_string(), Json::Num(v))]))
}

fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// The member map of `doc.<path>`, for doctoring.
fn members<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut BTreeMap<String, Json> {
    let mut cur = doc;
    for key in path {
        let Json::Obj(map) = cur else {
            panic!("{key}: parent is not an object")
        };
        cur = map.get_mut(*key).unwrap_or_else(|| panic!("no {key}"));
    }
    match cur {
        Json::Obj(map) => map,
        _ => panic!("{path:?} is not an object"),
    }
}

fn doc_of<'a>(results: &'a mut Results, workload: &'static str, trace: u8) -> &'a mut Json {
    results
        .get_mut(&(workload, trace))
        .expect("document exists")
        .as_mut()
        .expect("document parsed")
}

/// The members a row reads its key from, in its run `run`.
fn read_in<'a>(results: &'a mut Results, row: &Row, run: u8) -> &'a mut BTreeMap<String, Json> {
    let place: &[&str] = match row.check {
        Check::MetricAtMost(_) => &["result", "metrics"],
        _ => &["notes"],
    };
    members(doc_of(results, row.workload, run), place)
}

/// The members a row reads its key from (in the untraced run, for a
/// median row).
fn read_by<'a>(results: &'a mut Results, row: &Row) -> &'a mut BTreeMap<String, Json> {
    read_in(results, row, row.trace)
}

/// Every run a row reads: its own, and the re-runs for a median row.
fn runs_read(row: &Row) -> Vec<u8> {
    let reruns = matches!(row.check, Check::MedianAtMost(_)).then_some(RERUNS);
    [row.trace]
        .into_iter()
        .chain(reruns.into_iter().flatten())
        .collect()
}

/// Set `key` to `v` in every run `row` reads.
fn set_everywhere(results: &mut Results, row: &Row, key: &str, v: f64) {
    for run in runs_read(row) {
        read_in(results, row, run).insert(key.to_string(), value(v));
    }
}

/// Ten minimal result documents on which every gate passes, and the two
/// `seq_light` re-runs the median rows read: an untraced one carries the
/// end-to-end metrics, a traced one the per-layer metrics and per-path
/// count notes, and each table row's key holds a passing value in every
/// run the row reads.
fn passing() -> Results {
    let mut results = Results::new();
    for workload in WORKLOADS {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let metrics = contract_names(list)
                .into_iter()
                .map(|name| (name, value(1.0)))
                .collect();
            let doc = obj([
                ("workload", Json::Str(workload.to_string())),
                (
                    "result",
                    obj([
                        ("correct", Json::Bool(true)),
                        ("attempted", Json::Num(100.0)),
                        ("failed", Json::Num(0.0)),
                        ("metrics", Json::Obj(metrics)),
                    ]),
                ),
                ("notes", obj([("embedded_over_native", value(1.5))])),
            ]);
            results.insert((workload, trace), Ok(doc));
        }
    }
    for (workload, key, count) in [
        ("seq_light", "gde.fused_stages.embedded", 2.0),
        ("seq_light", "gde.slot_hits_per_word.interp", 0.2001),
        ("pipe_light", "pipes.batch_flushes.embedded", 157.0),
        ("pipe_light", "blockingq.blocked_puts.native", 1.0),
    ] {
        notes_of(&mut results, workload).insert(key.into(), value(count));
    }
    for run in RERUNS {
        let untraced = results[&("seq_light", 0)].clone();
        results.insert(("seq_light", run), untraced);
    }
    for row in TABLE {
        let passing = match row.check {
            Check::AtMost(cap) | Check::MetricAtMost(cap) | Check::MedianAtMost(cap) => cap * 0.9,
            Check::RatioAtMost(denominator, cap) => {
                read_by(&mut results, &row).insert(denominator.to_string(), value(20_000.0));
                20_000.0 * cap * 0.1
            }
        };
        set_everywhere(&mut results, &row, row.key, passing);
    }
    results
}

/// The notes of `workload`'s traced run.
fn notes_of<'a>(
    results: &'a mut Results,
    workload: &'static str,
) -> &'a mut BTreeMap<String, Json> {
    members(doc_of(results, workload, 1), &["notes"])
}

/// The schedtest summary every test runs with: three suites, one of them
/// budget-bounded.
fn suites() -> Suites {
    schedtest_suites(include_str!("fixtures/schedtest_passing.jsonl")).expect("fixture parses")
}

/// The history line of `passing()` and `suites()`, which `counts` compares
/// with.
fn recorded() -> Json {
    let line = history_line(&passing(), "abc1234", &suites()).expect("history line");
    Json::parse(&line).expect("the line is JSON")
}

fn report<'a>(reports: &'a [GateReport], name: &str) -> &'a GateReport {
    reports
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no report for gate {name}"))
}

/// Exactly the gates in `failing` FAIL; every other gate PASSes. Hands
/// back the reports for a look at their details.
fn assert_only_fails(results: &Results, failing: &[&str]) -> Vec<GateReport> {
    assert_only_fails_with(results, &suites(), &recorded(), failing)
}

fn assert_only_fails_with(
    results: &Results,
    suites: &Suites,
    history: &Json,
    failing: &[&str],
) -> Vec<GateReport> {
    let reports = run_gates(results, suites, history);
    assert_eq!(reports.len(), 2 + TABLE.len());
    for r in &reports {
        let want = if failing.contains(&r.name) {
            GateStatus::Fail
        } else {
            GateStatus::Pass
        };
        assert_eq!(r.status, want, "{}: {}", r.name, r.detail);
    }
    reports
}

#[test]
fn passing_results_pass_every_gate_under_its_name() {
    let reports = assert_only_fails(&passing(), &[]);
    let names: Vec<&str> = reports.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "results",
            "contention",
            "seq-lw-ratio",
            "interp-freed",
            "interp-recycled",
            "strings-keyed",
            "counts"
        ]
    );
    let counts = &report(&reports, "counts").detail;
    assert!(
        counts.contains("3 count notes, 5 emitted_bytes cells and 3 suites"),
        "{counts}"
    );
}

#[test]
fn every_row_trips_alone() {
    for row in TABLE {
        let mut results = passing();
        let (tripping, shown) = match row.check {
            Check::AtMost(cap) | Check::MetricAtMost(cap) | Check::MedianAtMost(cap) => {
                (cap * 1.3, format!("{:.3}", cap * 1.3))
            }
            Check::RatioAtMost(_, cap) => (20_000.0 * cap * 6.0, format!("{:.4}", cap * 6.0)),
        };
        set_everywhere(&mut results, &row, row.key, tripping);
        let reports = assert_only_fails(&results, &[row.gate]);
        let detail = &report(&reports, row.gate).detail;
        assert!(
            detail.contains(&shown),
            "detail carries the reading: {detail}"
        );
        assert!(
            detail.contains(row.guards),
            "detail says what it guards: {detail}"
        );
    }
}

#[test]
fn interp_freed_trips_at_the_leaking_and_the_pre_cut_readings() {
    // `compile_heavy` `peak_rss_mb` with nine leaked interpreters, then the
    // largest reading with them freed and emitted text twice its size,
    // then the text cut but returned with its growth slack, then the
    // largest of the ten readings the cap is derived from.
    let readings = [
        (118.6, &["interp-freed"][..]),
        (54.99, &["interp-freed"]),
        (39.4, &["interp-freed"]),
        (35.902, &[]),
    ];
    for (peak_rss_mb, failing) in readings {
        let mut results = passing();
        let metrics = members(
            doc_of(&mut results, "compile_heavy", 0),
            &["result", "metrics"],
        );
        metrics.insert("peak_rss_mb".into(), value(peak_rss_mb));
        let reports = assert_only_fails(&results, failing);
        let detail = &report(&reports, "interp-freed").detail;
        assert!(detail.contains(&format!("{peak_rss_mb:.3}")), "{detail}");
    }
}

#[test]
fn interp_recycled_trips_at_the_per_call_reading_only() {
    // `seq_light` interp/native while every call built its activation, then
    // the largest reading with activations re-run.
    let row = TABLE
        .iter()
        .find(|row| row.gate == "interp-recycled")
        .unwrap();
    for (ratio, failing) in [(10.3, &["interp-recycled"][..]), (6.694, &[])] {
        let mut results = passing();
        set_everywhere(&mut results, row, "interp_over_native", ratio);
        let reports = assert_only_fails(&results, failing);
        let detail = &report(&reports, "interp-recycled").detail;
        assert!(detail.contains(&format!("{ratio:.3}")), "{detail}");
    }
}

#[test]
fn a_median_row_reads_three_runs_and_one_high_reading_passes() {
    // A ratio to one quick run's native rate swings with that run: one
    // high reading of three passes, two fail, whichever runs they are in,
    // and the detail shows all three.
    let medians = TABLE
        .iter()
        .filter(|row| matches!(row.check, Check::MedianAtMost(_)));
    let gates: Vec<&str> = medians.clone().map(|row| row.gate).collect();
    assert_eq!(gates, ["seq-lw-ratio", "interp-recycled"]);
    for row in medians {
        let Check::MedianAtMost(cap) = row.check else {
            unreachable!()
        };
        let (low, high) = (cap * 0.9, cap * 1.1);
        for mask in 0..8 {
            let mut results = passing();
            for (k, run) in runs_read(row).into_iter().enumerate() {
                let v = if mask & (1 << k) != 0 { high } else { low };
                read_in(&mut results, row, run).insert(row.key.into(), value(v));
            }
            let highs = (mask as u32).count_ones() as usize;
            let failing: &[&str] = if highs >= 2 { &[row.gate] } else { &[] };
            let reports = assert_only_fails(&results, failing);
            let detail = &report(&reports, row.gate).detail;
            let median = if highs >= 2 { high } else { low };
            assert!(
                detail.contains(&format!("median {median:.3} of ")),
                "{detail}"
            );
            assert_eq!(
                detail.matches(&format!("{high:.3}")).count(),
                highs + (highs >= 2) as usize
            );
        }
    }
}

#[test]
fn a_missing_or_failed_rerun_fails_the_median_rows_alone() {
    // The `results` gate vouches for the ten files every run makes; a
    // re-run is checked by the rows that read it.
    type Doctor = fn(&mut Results);
    let doctored: [(&str, Doctor); 3] = [
        ("result-seq_light-run2.json is missing", |r| {
            r.remove(&("seq_light", 2));
        }),
        ("cannot read", |r| {
            r.insert(("seq_light", 3), Err("cannot read it".into()));
        }),
        (
            "result-seq_light-run3.json: result.correct is Some(Bool(true)), result.failed Some(1)",
            |r| {
                let result = members(doc_of(r, "seq_light", 3), &["result"]);
                result.insert("failed".into(), Json::Num(1.0));
            },
        ),
    ];
    for (says, doctor) in doctored {
        let mut results = passing();
        doctor(&mut results);
        let reports = assert_only_fails(&results, &["seq-lw-ratio", "interp-recycled"]);
        for gate in ["seq-lw-ratio", "interp-recycled"] {
            let detail = &report(&reports, gate).detail;
            assert!(detail.contains(says), "{detail}");
        }
    }
}

#[test]
fn strings_keyed_trips_at_the_promoting_reading_only() {
    // The largest `strings_report` embedded/native while reads promoted and
    // the map ran SipHash, then the largest reading with reads probing in
    // place and `||` making an owned string.
    for (ratio, failing) in [(3.48, &["strings-keyed"][..]), (2.922, &[])] {
        let mut results = passing();
        let notes = members(doc_of(&mut results, "strings_report", 0), &["notes"]);
        notes.insert("embedded_over_native".into(), value(ratio));
        let reports = assert_only_fails(&results, failing);
        let detail = &report(&reports, "strings-keyed").detail;
        assert!(detail.contains(&format!("{ratio:.3}")), "{detail}");
    }
}

#[test]
fn renamed_note_key_fails_never_skips() {
    for row in TABLE {
        let mut results = passing();
        let notes = read_by(&mut results, &row);
        let renamed = notes.remove(row.key).expect("passing() sets the note");
        notes.insert(format!("{}_v2", row.key), renamed);
        if let Check::RatioAtMost(..) = row.check {
            // The harness omits a note that is 0: with the per-layer metric
            // still reported, an absent numerator is a true zero…
            assert_only_fails(&results, &[]);
            // …and a rename takes the metric's name with it.
            let base = row.key.rsplit_once('.').expect("path suffix").0;
            let doc = doc_of(&mut results, row.workload, row.trace);
            members(doc, &["result", "metrics"])
                .remove(base)
                .expect("metric");
        }
        let reports = assert_only_fails(&results, &[row.gate]);
        let detail = &report(&reports, row.gate).detail;
        assert!(detail.contains(row.key), "detail names the key: {detail}");
    }
    // A ratio's denominator has no zero reading: absent is a FAIL.
    let mut results = passing();
    members(doc_of(&mut results, "pipe_light", 1), &["notes"]).remove("input_words");
    assert_only_fails(&results, &["contention"]);
}

#[test]
fn a_wrong_or_missing_run_fails_results_and_nothing_else_is_evaluated() {
    type Doctor = fn(&mut Results);
    let doctored: [(&str, Doctor); 5] = [
        ("result-pipe_light-trace1.json is missing", |r| {
            r.remove(&("pipe_light", 1));
        }),
        ("cannot read", |r| {
            r.insert(("pipe_light", 1), Err("cannot read it".into()));
        }),
        ("result.failed", |r| {
            let result = members(doc_of(r, "strings_report", 0), &["result"]);
            result.insert("failed".into(), Json::Num(1.0));
        }),
        ("result.correct", |r| {
            let result = members(doc_of(r, "seq_light", 1), &["result"]);
            result.insert("correct".into(), Json::Bool(false));
        }),
        ("result.attempted", |r| {
            let result = members(doc_of(r, "compile_heavy", 0), &["result"]);
            result.insert("attempted".into(), Json::Num(0.0));
        }),
    ];
    for (names, doctor) in doctored {
        let mut results = passing();
        doctor(&mut results);
        let reports = run_gates(&results, &suites(), &recorded());
        let results_gate = report(&reports, "results");
        assert_eq!(results_gate.status, GateStatus::Fail);
        assert!(
            results_gate.detail.contains(names),
            "{}",
            results_gate.detail
        );
        for gate in TABLE.iter().map(|row| row.gate).chain(["counts"]) {
            let r = report(&reports, gate);
            assert_eq!(r.status, GateStatus::Fail, "{}: {}", r.name, r.detail);
            assert!(r.detail.contains("not evaluated"), "{}", r.detail);
        }
    }
}

#[test]
fn the_gate_table_names_only_what_the_benchmark_reports() {
    let reported: Vec<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|list| contract_names(list))
        .collect();
    // Notes the harness writes beside the per-path splits of a metric.
    let harness_notes = ["input_words", "embedded_over_native", "interp_over_native"];
    let known = |key: &str| {
        let base = [".embedded", ".interp", ".native"]
            .iter()
            .find_map(|suffix| key.strip_suffix(suffix))
            .unwrap_or(key);
        harness_notes.contains(&base) || reported.iter().any(|name| name == base)
    };
    for row in TABLE {
        assert!(
            known(row.key),
            "{}: BENCHMARK.json has no {}",
            row.gate,
            row.key
        );
        if let Check::RatioAtMost(denominator, _) = row.check {
            assert!(known(denominator), "{}: no {denominator}", row.gate);
        }
    }
    assert_eq!(contract_names("workloads"), WORKLOADS);
}

#[test]
fn history_line_records_the_run_and_drift_compares_with_it() {
    let mut results = passing();
    let line = history_line(&results, "abc1234", &suites()).expect("history line");
    assert!(!line.contains('\n'), "one line: {line}");
    let history = Json::parse(&line).expect("the line is JSON");
    assert_eq!(history, recorded());
    let text = |key| history.get(key).and_then(Json::as_str);
    assert_eq!(text("schema"), Some("bench-history-v1"));
    assert_eq!(text("commit"), Some("abc1234"));
    assert_eq!(history.get("host.cores").and_then(Json::as_u64), Some(1));
    let cells = |doc: &Json, path: &[&str]| match doc.path(path) {
        Some(Json::Obj(map)) => map.len(),
        other => panic!("{path:?}: {other:?}"),
    };
    for workload in WORKLOADS {
        assert_eq!(cells(&history, &["end_to_end", workload]), 8, "{workload}");
    }
    assert_eq!(cells(&history, &["ladder"]), 10);
    // 3 count notes, 5 `emitted_bytes` and 3 suites × 2; no schedule-dependent note.
    assert_eq!(cells(&history, &["counts"]), 3 + 5 + 6);
    let count = |key| history.get("counts").and_then(|c| c.get(key));
    assert_eq!(
        count("seq_light.gde.slot_hits_per_word.interp"),
        Some(&Json::Num(0.2001))
    );
    assert_eq!(count("pool_shutdown"), None);
    assert_eq!(
        count("schedtest.pool_shutdown.complete"),
        Some(&Json::Bool(false))
    );
    assert!(!line.contains("blockingq.blocked_"), "{line}");

    // Against its own record nothing moved; then one cell doubles and one
    // is missing from the record.
    let table = drift_table(&results, &history).expect("drift table");
    assert_eq!(table.lines().count(), 1 + 40, "table:\n{table}");
    assert_eq!(table.matches("+0.0%").count(), 40, "table:\n{table}");
    let metrics = members(doc_of(&mut results, "seq_light", 0), &["result", "metrics"]);
    metrics.insert("setup_s".into(), value(2.0));
    metrics.insert("brand_new".into(), value(1.0));
    let table = drift_table(&results, &history).expect("drift table");
    assert!(table.contains("+100.0%"), "table:\n{table}");
    assert!(table.contains("new"), "table:\n{table}");
    assert!(drift_table(&results, &Json::parse("{}").unwrap()).is_err());
}

// --- the counts contract ----------------------------------------------------
//
// `counts` compares every deterministic count of the run with the history
// line `recorded()`, which `passing()` and `suites()` make: each way a
// count can move FAILs `counts` alone and names the key with both values.

/// `doctor` moves counts; exactly `counts` FAILs, and its detail lists
/// `moved` (each `key: history → current`).
fn assert_counts_move(doctor: impl FnOnce(&mut Results, &mut Suites, &mut Json), moved: &[&str]) {
    let (mut results, mut suites, mut history) = (passing(), suites(), recorded());
    doctor(&mut results, &mut suites, &mut history);
    let reports = assert_only_fails_with(&results, &suites, &history, &["counts"]);
    let detail = &report(&reports, "counts").detail;
    for line in moved {
        assert!(detail.contains(line), "{line:?} in {detail}");
    }
    assert_eq!(detail.lines().count(), 1 + moved.len(), "{detail}");
}

#[test]
fn a_moved_count_note_fails_counts_alone() {
    assert_counts_move(
        |r, _, _| {
            let notes = notes_of(r, "seq_light");
            notes.insert("gde.fused_stages.embedded".into(), value(3.0));
        },
        &["seq_light.gde.fused_stages.embedded: 2 → 3"],
    );
}

#[test]
fn a_removed_count_note_fails_counts_alone() {
    assert_counts_move(
        |r, _, _| {
            notes_of(r, "seq_light").remove("gde.slot_hits_per_word.interp");
        },
        &["seq_light.gde.slot_hits_per_word.interp: 0.2001 → absent"],
    );
}

#[test]
fn an_added_count_note_fails_counts_alone() {
    assert_counts_move(
        |r, _, _| {
            let notes = notes_of(r, "strings_report");
            notes.insert("gde.name_fallbacks.interp".into(), value(13.0));
        },
        &["strings_report.gde.name_fallbacks.interp: absent → 13"],
    );
}

#[test]
fn moved_emitted_bytes_fail_counts_alone() {
    assert_counts_move(
        |r, _, _| {
            let metrics = members(doc_of(r, "compile_heavy", 0), &["result", "metrics"]);
            metrics.insert("emitted_bytes".into(), value(2.0));
        },
        &["compile_heavy.emitted_bytes: 1 → 2"],
    );
}

#[test]
fn a_moved_suite_fails_counts_alone() {
    assert_counts_move(
        |_, s, _| {
            s.get_mut("pipe_close_under_fire").expect("suite").0 += 1;
        },
        &["schedtest.pipe_close_under_fire.explored_schedules: 4647 → 4648"],
    );
    assert_counts_move(
        |_, s, _| {
            s.get_mut("pool_shutdown").expect("suite").1 = true;
        },
        &["schedtest.pool_shutdown.complete: false → true"],
    );
    assert_counts_move(
        |_, s, _| {
            s.remove("put_take_roundtrip");
        },
        &[
            "schedtest.put_take_roundtrip.explored_schedules: 251 → absent",
            "schedtest.put_take_roundtrip.complete: true → absent",
        ],
    );
}

#[test]
fn a_history_line_without_counts_fails_counts_alone() {
    let mut history = recorded();
    let Json::Obj(line) = &mut history else {
        panic!("the history line is an object")
    };
    line.remove("counts");
    let reports = assert_only_fails_with(&passing(), &suites(), &history, &["counts"]);
    let detail = &report(&reports, "counts").detail;
    assert!(detail.contains("records no counts"), "{detail}");
}

#[test]
fn schedule_dependent_and_tagged_counts_may_differ() {
    let mut results = passing();
    // A metric the traced run tagged is left out on both sides…
    let doc = doc_of(&mut results, "pipe_light", 1);
    let tags = obj([("pipes.batch_flushes", Json::Str("nondeterministic".into()))]);
    members(doc, &[]).insert("tags".into(), tags);
    let notes = notes_of(&mut results, "pipe_light");
    notes.insert("pipes.batch_flushes.embedded".into(), value(158.0));
    // …and blocking episodes are, tagged or not (`contention` caps them).
    notes.insert("blockingq.blocked_takes.embedded".into(), value(100.0));
    notes.insert("blockingq.blocked_takes.native".into(), value(4.0));
    notes.remove("blockingq.blocked_puts.native");
    let reports = assert_only_fails(&results, &[]);
    let detail = &report(&reports, "counts").detail;
    assert!(detail.contains("2 count notes"), "{detail}");
}

#[test]
fn malformed_json_is_a_parse_error_not_a_skip() {
    assert!(Json::parse("{\"schema\": \"bench-history-v1\",").is_err());
    assert!(Json::parse("").is_err());
}

// --- schedule-exploration smoke gate ----------------------------------------
//
// `schedtest_gate` reads the JSON-lines summary the model suites append
// under SCHEDTEST_JSON (crates/schedtest).

use bench::gates::schedtest_gate;

#[test]
fn schedtest_summary_with_explored_schedules_passes() {
    let r = schedtest_gate(include_str!("fixtures/schedtest_passing.jsonl"));
    assert_eq!(r.status, GateStatus::Pass, "{}", r.detail);
    assert!(
        r.detail.contains("3 explorations") && r.detail.contains("6863 schedules"),
        "detail sums the lines: {}",
        r.detail
    );
}

#[test]
fn schedtest_summary_that_explored_nothing_fails_counts() {
    // An empty summary (the smoke ran no model test) or a suite that
    // explored nothing (the cfg flag mis-wired, the model compiled out) is
    // well-formed, so `schedtest` PASSes; the schedules moved, so `counts`
    // FAILs.
    let zero = "{\"schema\":\"schedtest-v1\",\"test\":\"pool_shutdown\",\"mode\":\"dfs\",\
                \"explored_schedules\":0,\"complete\":false,\"failed\":false}\n";
    for (text, moved) in [
        (
            "\n\n",
            "schedtest.pool_shutdown.explored_schedules: 1965 → absent",
        ),
        (zero, "schedtest.pool_shutdown.explored_schedules: 1965 → 0"),
    ] {
        assert_eq!(schedtest_gate(text).status, GateStatus::Pass);
        let suites = schedtest_suites(text).expect("well-formed");
        let reports = assert_only_fails_with(&passing(), &suites, &recorded(), &["counts"]);
        let detail = &report(&reports, "counts").detail;
        assert!(detail.contains(moved), "{detail}");
    }
}

#[test]
fn schedtest_suite_summarized_twice_fails() {
    let fixture = include_str!("fixtures/schedtest_passing.jsonl");
    let r = schedtest_gate(&format!("{fixture}{fixture}"));
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("summarized twice"), "{}", r.detail);
}

#[test]
fn schedtest_failed_exploration_fails_and_names_the_test() {
    let text = "{\"schema\":\"schedtest-v1\",\"test\":\"ok_one\",\"mode\":\"dfs\",\
                \"explored_schedules\":10,\"complete\":true,\"failed\":false}\n\
                {\"schema\":\"schedtest-v1\",\"test\":\"bad_one\",\"mode\":\"dfs\",\
                \"explored_schedules\":7,\"complete\":false,\"failed\":true}\n";
    let r = schedtest_gate(text);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("bad_one"), "{}", r.detail);
}

#[test]
fn schedtest_malformed_line_fails_with_line_number() {
    let text = "{\"schema\":\"schedtest-v1\",\"test\":\"t\",\"mode\":\"dfs\",\
                \"explored_schedules\":5,\"complete\":true,\"failed\":false}\n\
                not json at all\n";
    let r = schedtest_gate(text);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("line 2"), "{}", r.detail);
}

// --- fault-plane smoke gate --------------------------------------------------
//
// `faults_gate` reads the `fault-smoke-v1` snapshot the fault_smoke
// binary writes: every fault counter must be present AND non-zero after
// the smoke scenarios, so a rename and a dead surface both FAIL loudly.

use bench::gates::faults_gate;

fn faults_on(fixture: &str) -> GateReport {
    faults_gate(&Json::parse(fixture).expect("fixture parses"))
}

#[test]
fn faults_smoke_snapshot_passes_and_lists_counters() {
    let r = faults_on(include_str!("fixtures/faults_passing.json"));
    assert_eq!(r.status, GateStatus::Pass, "{}", r.detail);
    for key in [
        "faults.injected",
        "pipes.faults.propagated",
        "pipes.faults.retries",
        "blockingq.close.failed",
    ] {
        assert!(r.detail.contains(key), "detail lists {key}: {}", r.detail);
    }
}

#[test]
fn faults_renamed_counter_fails_loudly() {
    // `pipes.faults.retries` renamed: an obs snapshot is present, so the
    // missing key is a rename/unregistration bug, never a skip.
    let fixture = include_str!("fixtures/faults_passing.json")
        .replace("pipes.faults.retries", "pipes.faults.retry_count");
    let r = faults_on(&fixture);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("pipes.faults.retries"), "{}", r.detail);
}

#[test]
fn faults_dead_surface_fails() {
    // A counter stuck at zero means that recovery surface no longer
    // reaches the fault plane under the smoke scenarios.
    let fixture = include_str!("fixtures/faults_passing.json").replace(
        "\"pipes.faults.propagated\": {\"kind\": \"counter\", \"value\": 1}",
        "\"pipes.faults.propagated\": {\"kind\": \"counter\", \"value\": 0}",
    );
    let r = faults_on(&fixture);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(
        r.detail.contains("pipes.faults.propagated = 0"),
        "{}",
        r.detail
    );
}

#[test]
fn faults_zero_injected_fails() {
    let fixture =
        include_str!("fixtures/faults_passing.json").replace("\"injected\": 3", "\"injected\": 0");
    let r = faults_on(&fixture);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("armed no faults"), "{}", r.detail);
}

#[test]
fn faults_wrong_schema_or_missing_obs_fails() {
    let wrong_schema =
        include_str!("fixtures/faults_passing.json").replace("fault-smoke-v1", "fault-smoke-v2");
    let r = faults_on(&wrong_schema);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("fault-smoke-v1"), "{}", r.detail);

    // An obs-less fault_smoke build is a wiring failure, not a skip: the
    // binary's whole point is producing the counters.
    let r = faults_on(r#"{"schema": "fault-smoke-v1", "injected": 3, "obs": null}"#);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("obs"), "{}", r.detail);
}

#[test]
fn schedtest_wrong_schema_or_missing_count_fails() {
    let wrong_schema = "{\"schema\":\"schedtest-v2\",\"explored_schedules\":5}\n";
    let r = schedtest_gate(wrong_schema);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("schedtest-v1"), "{}", r.detail);

    let renamed_count = "{\"schema\":\"schedtest-v1\",\"test\":\"t\",\"mode\":\"dfs\",\
                         \"schedules\":5,\"complete\":true,\"failed\":false}\n";
    let r = schedtest_gate(renamed_count);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("explored_schedules"), "{}", r.detail);
}
