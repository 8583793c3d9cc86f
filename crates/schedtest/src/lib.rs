//! Deterministic schedule-exploration harness — an in-tree mini-loom.
//!
//! The paper's runtime rests on multithreaded generator proxies talking
//! through bounded blocking queues; stress tests sample the OS scheduler,
//! which is evidence, not proof. This crate provides a *cooperative*
//! model-checker in the spirit of [loom](https://docs.rs/loom): real OS
//! threads, but a virtual scheduler that owns every interleaving decision.
//! Exactly one thread runs at a time; every synchronization point
//! ([`sync::Mutex`], [`sync::Condvar`], [`sync::RwLock`], the atomics,
//! [`thread::spawn`]/[`thread::JoinHandle::join`]) hands control back to a
//! driver which picks the next thread to run. A DFS explorer enumerates
//! interleavings, pruned by DPOR-lite *sleep sets* and an optional
//! preemption bound; a deterministic PRNG sampling mode covers state spaces
//! too big to exhaust.
//!
//! # Model
//!
//! Time is virtual: `thread::sleep` is a yield point that advances a
//! per-run virtual clock ([`time::now`]) without real waiting, and timed
//! waits (`Condvar::wait_for`/`wait_until`) are modeled as *may time out* —
//! the waiter stays schedulable while waiting, and scheduling it before a
//! notify **is** the timeout branch (which also charges the consumed
//! timeout to the clock), so both outcomes are explored. No enabledness
//! ever depends on the clock — it is pure observability, so model
//! assertions should use accounting (items delivered/refunded), not
//! wall-clock arithmetic.
//! Spurious condvar wakeups are not injected. A run ends when every
//! spawned thread has terminated; a panic in any thread, or a state where
//! live threads exist but none is enabled (deadlock), fails the run.
//!
//! # Failure replay
//!
//! A failing exploration reports a compact schedule string — the chosen
//! thread index (creation order, body = `0`) at each decision point,
//! joined by `.` (e.g. `0.1.1.0.2`). Re-run the same test with
//! `SCHEDTEST_REPLAY=<string>` to execute exactly that interleaving.
//!
//! # Environment
//!
//! * `SCHEDTEST_REPLAY=<schedule>` — run only the given interleaving.
//! * `SCHEDTEST_BUDGET=<n>` — cap `max_schedules` (CI smoke budget).
//! * `SCHEDTEST_JSON=<path>` — append one JSON summary line per
//!   [`check`]/[`explore`] call (`schema`: `schedtest-v1`).
//!
//! # Integration
//!
//! The `parking_lot` shim re-exports these primitives when the `schedtest`
//! cfg is on (`RUSTFLAGS="--cfg schedtest"`), so `blockingq`, `pipes`, and
//! `exec` run unmodified under the explorer. See DESIGN.md § "Schedule
//! exploration".

#![forbid(unsafe_code)]

mod explore;
mod rt;
pub mod sync;
pub mod thread;

/// The per-run virtual clock.
pub mod time {
    use std::time::Duration;

    /// Nanoseconds of virtual time elapsed in the current model run: the
    /// sum of every `thread::sleep` and every consumed timed-wait timeout
    /// executed so far, in schedule order. Zero outside a run. Purely
    /// observational — no enabledness depends on it.
    pub fn now() -> Duration {
        Duration::from_nanos(crate::rt::clock_ns())
    }
}

use std::sync::{Arc, Mutex as StdMutex, OnceLock};

pub use rt::Tid;

/// How the explorer walks the schedule space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Exhaustive depth-first search with sleep-set pruning.
    Dfs,
    /// Deterministic random sampling: `runs` schedules drawn from a
    /// SplitMix64 stream seeded with `seed`.
    Sample { seed: u64, runs: usize },
    /// Execute exactly one given schedule (what `SCHEDTEST_REPLAY` sets).
    Replay(Vec<Tid>),
}

/// Exploration limits and strategy.
#[derive(Clone, Debug)]
pub struct Config {
    /// Stop after this many executed schedules (budget; `SCHEDTEST_BUDGET`
    /// lowers it further).
    pub max_schedules: usize,
    /// Fail any single run longer than this many scheduling decisions
    /// (guards against livelock in the program under test).
    pub max_depth: usize,
    /// If set, prune branches that preempt a still-enabled running thread
    /// more than this many times. `None` = unbounded (fully exhaustive).
    pub preemption_bound: Option<usize>,
    /// Sleep-set (DPOR-lite) pruning. On by default; turning it off makes
    /// the DFS enumerate every interleaving, which exists so the property
    /// suite can prove the pruned search reaches the same terminal states.
    pub sleep_sets: bool,
    /// DFS, sampling, or replay.
    pub mode: Mode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_schedules: 100_000,
            max_depth: 10_000,
            preemption_bound: None,
            sleep_sets: true,
            mode: Mode::Dfs,
        }
    }
}

/// A failing interleaving: the schedule that produced it and why.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Replayable schedule string (`SCHEDTEST_REPLAY` format).
    pub schedule: String,
    /// Panic message or deadlock report.
    pub message: String,
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of schedules actually executed.
    pub explored_schedules: usize,
    /// True iff the DFS drained the (sleep-set-reduced) space without
    /// hitting the budget or the preemption bound. Sampling and replay
    /// never claim completeness.
    pub complete: bool,
    /// First failing interleaving, if any (exploration stops at the first).
    pub failure: Option<Failure>,
}

/// Render a schedule as the compact replay string (`0.1.1.0`).
pub fn format_schedule(schedule: &[Tid]) -> String {
    let mut s = String::new();
    for (i, t) in schedule.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        s.push_str(&t.to_string());
    }
    s
}

/// Parse a replay string back into a schedule. Errors on anything that is
/// not `.`-separated decimal thread indices.
pub fn parse_schedule(s: &str) -> Result<Vec<Tid>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|tok| {
            tok.parse::<Tid>()
                .map_err(|_| format!("bad schedule token {tok:?} in {s:?}"))
        })
        .collect()
}

/// Explore all interleavings of `body` under `cfg`, honouring the
/// `SCHEDTEST_REPLAY` / `SCHEDTEST_BUDGET` / `SCHEDTEST_JSON` environment
/// and returning the [`Report`]. `name` labels the JSON summary line.
///
/// Explorations are serialized process-wide (the virtual scheduler is a
/// singleton), so concurrent `#[test]`s queue rather than interfere.
pub fn explore<F>(name: &str, cfg: &Config, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let _serial = driver_lock().lock().unwrap_or_else(|p| p.into_inner());
    let mut cfg = cfg.clone();
    if let Ok(replay) = std::env::var("SCHEDTEST_REPLAY") {
        match parse_schedule(replay.trim()) {
            Ok(sched) => cfg.mode = Mode::Replay(sched),
            Err(e) => panic!("schedtest: invalid SCHEDTEST_REPLAY: {e}"),
        }
    }
    if let Ok(budget) = std::env::var("SCHEDTEST_BUDGET") {
        match budget.trim().parse::<usize>() {
            Ok(n) => cfg.max_schedules = cfg.max_schedules.min(n),
            Err(_) => panic!("schedtest: invalid SCHEDTEST_BUDGET {budget:?}"),
        }
    }
    let report = explore::run(&cfg, Arc::new(body));
    emit_json(name, &cfg, &report);
    report
}

/// [`explore`] + assert: panics with a replay recipe if any interleaving
/// fails. This is the entry point model tests use.
pub fn check<F>(name: &str, cfg: &Config, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore(name, cfg, body);
    if let Some(f) = &report.failure {
        panic!(
            "schedtest: {name} failed after {n} schedule(s)\n  cause: {msg}\n  \
             replay with: SCHEDTEST_REPLAY={sched}",
            n = report.explored_schedules,
            msg = f.message,
            sched = f.schedule,
        );
    }
    report
}

fn driver_lock() -> &'static StdMutex<()> {
    static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| StdMutex::new(()))
}

fn emit_json(name: &str, cfg: &Config, report: &Report) {
    let Ok(path) = std::env::var("SCHEDTEST_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mode = match &cfg.mode {
        Mode::Dfs => "dfs",
        Mode::Sample { .. } => "sample",
        Mode::Replay(_) => "replay",
    };
    let mut esc = String::new();
    for c in name.chars() {
        match c {
            '"' | '\\' => {
                esc.push('\\');
                esc.push(c);
            }
            c if (c as u32) < 0x20 => esc.push(' '),
            c => esc.push(c),
        }
    }
    let line = format!(
        "{{\"schema\":\"schedtest-v1\",\"test\":\"{esc}\",\"mode\":\"{mode}\",\
         \"explored_schedules\":{explored},\"complete\":{complete},\"failed\":{failed}}}\n",
        explored = report.explored_schedules,
        complete = report.complete,
        failed = report.failure.is_some(),
    );
    // One write_all per line under a process-wide lock: parallel tests in
    // one binary append to the same file without tearing.
    static FILE_LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
    let _g = FILE_LOCK
        .get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(line.as_bytes());
        }
        Err(e) => eprintln!("schedtest: cannot append to SCHEDTEST_JSON={path}: {e}"),
    }
}

#[cfg(test)]
mod schedule_string_tests {
    use super::*;

    #[test]
    fn round_trips() {
        for sched in [vec![], vec![0], vec![0, 1, 1, 0, 2]] {
            assert_eq!(parse_schedule(&format_schedule(&sched)).unwrap(), sched);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_schedule("0.x.1").is_err());
        assert!(parse_schedule("..").is_err());
    }
}
