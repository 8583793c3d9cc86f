//! `--quick` smoke: every workload on every path, with 0.1 s blocks. Every
//! result is checked against the reference (and, at the default seed, the
//! committed oracle), so this is also the end-to-end correctness test of
//! the three paths. Run it in release (`cargo test --release --offline`):
//! the heavy hash is slow unoptimised.

use benchmark::metrics::END_TO_END;
use benchmark::oracle::ORACLE_SEED;
use benchmark::run::{self, Options, Report};
use benchmark::workload::Kind;

const QUICK_SECONDS: f64 = 2.8;

fn options(kind: Kind, seed: u64) -> Options {
    Options {
        kind,
        seed,
        seconds: QUICK_SECONDS,
        out_dir: std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/smoke"),
        untraced_embedded_wps: None,
    }
}

fn assert_complete(report: &Report, names: &[&str]) {
    let w = report.kind.name();
    assert_eq!(
        report.tally.failed, 0,
        "{w}: {:?}",
        report.tally.first_failure
    );
    assert!(report.tally.attempted > 0);
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        got, names,
        "{w}: the result names exactly the contract's metrics"
    );
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
    }
    let line = report.result_line().render();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn untraced_quick_run_of_every_workload() {
    let names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    for kind in Kind::ALL {
        let report = run::untraced(&options(kind, ORACLE_SEED));
        assert_complete(&report, &names);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} must never be 0", kind.name(), m.name);
        }
    }
}

/// `--seed 7` is the held-out seed: no oracle file, native-twin equality only.
#[test]
fn a_non_default_seed_works() {
    let names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    assert_complete(&run::untraced(&options(Kind::StringsReport, 7)), &names);
}

#[cfg(feature = "trace")]
#[test]
fn traced_quick_run_of_every_workload() {
    let names: Vec<&str> = benchmark::metrics::PER_LAYER.iter().map(|p| p.0).collect();
    for kind in Kind::ALL {
        let report = benchmark::traced::traced(&options(kind, ORACLE_SEED));
        assert_complete(&report, &names);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        // The resolver is inside a measured number: the interpreter's
        // frames are slot-addressed on every workload.
        assert!(value("gde.slot_hits_per_word") > 0.0, "{}", kind.name());
        assert!(value("junicon.procs") >= 3.0);
        assert!(value("gde.flat_ns") > value("wordcount.raw_loop_ns") * 0.5);
    }
}
