//! Command line of the benchmark binary. `run.sh` builds both binaries
//! (with and without `--features trace`) and picks one per invocation.
//!
//! ```text
//! benchmark [run] --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                 [--quick] [--out DIR] [--untraced-embedded-wps X]
//! benchmark embedded-wps --workload W [--seed N] [--seconds S] [--quick]
//! benchmark aa BENCHMARK.json DIR_A DIR_B
//! ```

use crate::oracle::ORACLE_SEED;
use crate::run::{self, Options};
use crate::workload::Kind;
use std::path::PathBuf;

/// `--quick`: 0.1 s blocks (7 blocks × 4 lanes).
const QUICK_SECONDS: f64 = 2.8;
/// Default `--seconds`: 1 s blocks.
const DEFAULT_SECONDS: f64 = 28.0;

struct Args {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    untraced_embedded_wps: Option<f64>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: "run".to_string(),
        positional: Vec::new(),
        workload: None,
        seed: ORACLE_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        untraced_embedded_wps: None,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            parsed.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{name}: cannot read {v:?}"))
        }
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => parsed.seed = num("--seed", value("--seed")?)?,
            "--seconds" => parsed.seconds = num("--seconds", value("--seconds")?)?,
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => parsed.seconds = QUICK_SECONDS,
            "--out" => parsed.out_dir = PathBuf::from(value("--out")?),
            "--untraced-embedded-wps" => {
                parsed.untraced_embedded_wps = Some(num(
                    "--untraced-embedded-wps",
                    value("--untraced-embedded-wps")?,
                )?)
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => parsed.positional.push(other.to_string()),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(parsed)
}

fn options(args: &Args) -> Result<Options, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let kind = Kind::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    Ok(Options {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        out_dir: args.out_dir.clone(),
        untraced_embedded_wps: args.untraced_embedded_wps,
    })
}

#[cfg(feature = "trace")]
fn traced(opt: &Options) -> Result<run::Report, String> {
    Ok(crate::traced::traced(opt))
}

#[cfg(not(feature = "trace"))]
fn traced(_: &Options) -> Result<run::Report, String> {
    Err("--trace 1 needs the binary built with --features trace (run.sh picks it)".to_string())
}

fn dispatch(args: &Args) -> Result<i32, String> {
    match args.command.as_str() {
        "run" => {
            let opt = options(args)?;
            let report = if args.trace {
                traced(&opt)?
            } else {
                run::untraced(&opt)
            };
            report
                .write(&opt.out_dir)
                .map_err(|e| format!("writing {}: {e}", opt.out_dir.display()))?;
            report.print();
            Ok(if report.correct() { 0 } else { 1 })
        }
        "embedded-wps" => {
            println!("{}", run::untraced_embedded_wps(&options(args)?));
            Ok(0)
        }
        "aa" => match args.positional.as_slice() {
            [bench, a, b] => crate::aa::compare(bench.as_ref(), a.as_ref(), b.as_ref()),
            _ => Err("usage: benchmark aa BENCHMARK.json DIR_A DIR_B".to_string()),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Returns the process exit code: 0 on a correct run, 1 when an output
/// check failed (or A/A left its bounds), 2 on a usage error.
pub fn main(args: &[String]) -> i32 {
    match parse(args).and_then(|a| dispatch(&a)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = parse(&strings(&[
            "--workload",
            "seq_light",
            "--seed",
            "7",
            "--seconds",
            "14",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 14.0, true));
        assert_eq!(options(&a).unwrap().kind, Kind::SeqLight);
    }

    #[test]
    fn defaults_and_quick() {
        let a = parse(&strings(&["--workload", "pipe_light", "--quick"])).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (ORACLE_SEED, QUICK_SECONDS, false)
        );
    }

    #[test]
    fn bad_usage_is_an_error_not_a_panic() {
        assert!(parse(&strings(&["--seed"])).is_err());
        assert!(parse(&strings(&["--seed", "x"])).is_err());
        assert!(parse(&strings(&["--trace", "2"])).is_err());
        assert!(parse(&strings(&["--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--bogus"])).is_err());
        assert!(options(&parse(&strings(&["--workload", "nope"])).unwrap()).is_err());
        assert_eq!(main(&strings(&["frobnicate"])), 2);
    }
}
