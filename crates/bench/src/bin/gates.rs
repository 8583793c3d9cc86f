//! CI gate runner: evaluates the regression gates (`bench::gates`) against
//! the result files of one `benchmark/run.sh` run and the last line of the
//! history file, and prints one PASS/FAIL/SKIP line per gate, then one
//! `bench-history-v1` JSON line built from the same files (what
//! `BENCH_history.jsonl` keeps, one line per PR) and a report-only drift
//! table against that file's last line.
//!
//!     cargo run -p bench --release --bin gates -- \
//!         --results benchmark/out --commit "$(git rev-parse --short HEAD)" \
//!         --history BENCH_history.jsonl [--strict] \
//!         [--schedtest-json SCHEDTEST_ci.json] [--faults-json FAULTS_ci.json]
//!
//! Exit code 1 on any FAIL, or on any SKIP under `--strict`. The caps are
//! constants of the gate table, not flags. Only `schedtest` and `faults`
//! can SKIP — when their file is not passed — and CI sets `--strict` so it
//! cannot quietly drop either smoke.

#![forbid(unsafe_code)]

use bench::gates::{self, GateReport, GateStatus};
use bench::json::Json;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: gates --results DIR --commit ID --history PATH [--strict] \
         [--schedtest-json PATH] [--faults-json PATH]"
    );
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("gates: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn parse(path: &str, text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| {
        eprintln!("gates: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn skipped(name: &'static str, flag: &str) -> GateReport {
    GateReport {
        name,
        status: GateStatus::Skip,
        detail: format!("no {flag} (smoke not run)"),
    }
}

fn main() -> ExitCode {
    let mut paths: [Option<String>; 5] = Default::default();
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--results" => 0,
            "--commit" => 1,
            "--history" => 2,
            "--schedtest-json" => 3,
            "--faults-json" => 4,
            "--strict" => {
                strict = true;
                continue;
            }
            other => {
                eprintln!("gates: unknown argument {other}");
                usage();
            }
        };
        paths[slot] = Some(args.next().unwrap_or_else(|| {
            eprintln!("gates: {arg} needs a value");
            usage()
        }));
    }
    let [Some(results_dir), Some(commit), Some(history), schedtest, faults] = paths else {
        usage();
    };

    let results = gates::load_results(Path::new(&results_dir));
    let lines = read(&history);
    let last = lines.lines().rfind(|l| !l.trim().is_empty()).unwrap_or("");
    let last = parse(&history, last);
    let schedtest = schedtest.map(|path| read(&path));
    let suites = schedtest.as_deref().map(gates::schedtest_suites);
    let suites = suites.and_then(Result::ok).unwrap_or_default();
    let mut reports = gates::run_gates(&results, &suites, &last);
    reports.push(match &schedtest {
        None => skipped("schedtest", "--schedtest-json"),
        Some(text) => gates::schedtest_gate(text),
    });
    reports.push(match &faults {
        None => skipped("faults", "--faults-json"),
        Some(path) => gates::faults_gate(&parse(path, &read(path))),
    });
    for r in &reports {
        let tag = match r.status {
            GateStatus::Pass => "PASS",
            GateStatus::Fail => "FAIL",
            GateStatus::Skip => "SKIP",
        };
        println!("[gate] {tag} {}: {}", r.name, r.detail);
    }

    // The record and the drift table read the documents the `results`
    // gate vouched for; without it there is nothing worth recording.
    if reports[0].status == GateStatus::Pass {
        match gates::history_line(&results, &commit, &suites) {
            Ok(line) => println!("{line}"),
            Err(e) => println!("[history] not available: {e}"),
        }
        println!("\n[drift] end-to-end cells vs the last line of {history} (report-only):");
        match gates::drift_table(&results, &last) {
            Ok(table) => print!("{table}"),
            Err(e) => println!("[drift] not available: {e}"),
        }
    }

    let has = |status| reports.iter().any(|r| r.status == status);
    if has(GateStatus::Fail) {
        ExitCode::from(1)
    } else if strict && has(GateStatus::Skip) {
        eprintln!("gates: skipped gates are failures under --strict");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
