//! Fault-plane smoke: drives deterministic fault-injection scenarios
//! through every recovery surface — `Retry` replay, `Propagate` and
//! pool containment — then writes a
//! `fault-smoke-v1` snapshot for the CI `faults` gate
//! (`gates --faults-json`).
//!
//!     cargo run -p bench --release --features faultinj \
//!         --bin fault_smoke -- FAULTS_ci.json
//!
//! The run self-arms via [`faultinj::scenario`] (replacing whatever a
//! stray `FAULTS` env var configured — the gate asserts exact counter
//! behavior, so ad-hoc env scenarios cannot ride along) and asserts the
//! recovery semantics inline: a failed assertion here means the fault
//! plane regressed *before* the counter gate even runs.

#![forbid(unsafe_code)]

use gde::comb::to_range;
use gde::{Gen, Step, Value};
use pipes::{FaultPolicy, Pipe};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn drain(g: &mut dyn Gen) -> Vec<i64> {
    let mut got = Vec::new();
    while let Step::Suspend(v) = g.resume() {
        got.push(v.as_int().expect("int stream"));
    }
    got
}

fn ints(n: i64) -> impl Fn() -> gde::BoxGen + Send + Sync + 'static {
    move || Box::new(to_range(1, n, 1))
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: fault_smoke OUT.json");
        std::process::exit(2);
    });

    // Force-register every fault counter so the snapshot carries explicit
    // zeros (the gate treats a missing key as a rename, loudly).
    pipes::obs_register();
    exec::obs_register();
    faultinj::obs_register();

    // The env config (FAULTS) is parsed lazily at the first hit; burn it
    // on an unarmed warmup site so the scenarios below fully own the
    // registry.
    faultinj::hit("fault_smoke.env_warmup");

    // 1. Retry: an injected producer panic after a two-value clean prefix
    // must replay bitwise (pipes.faults.retries, faults.injected).
    faultinj::scenario("pipes.producer.resume:panic@3");
    let mut p = Pipe::batched(ints(200), 8, 8).with_policy(FaultPolicy::Retry {
        limit: 1,
        backoff: Duration::from_millis(1),
    });
    let got = drain(&mut p);
    let expect: Vec<i64> = (1..=200).collect();
    assert_eq!(got, expect, "Retry must replay the stream bitwise");
    assert_eq!(p.retries(), 1, "exactly one respawn");

    // 2. Propagate (default): the fault surfaces as a panic, never a
    // clean EOS (pipes.faults.propagated, blockingq.close.failed).
    faultinj::scenario("pipes.producer.resume:panic@2");
    let mut p = Pipe::batched(ints(10), 1, 1);
    let boom = catch_unwind(AssertUnwindSafe(|| drain(&mut p)));
    assert!(boom.is_err(), "Propagate must panic, not end cleanly");
    assert!(p.fault().is_some(), "the fault stays inspectable");

    // 3. Pool containment: an injected job panic is absorbed by the
    // worker, later jobs still run (exec.pool.contained_panics).
    faultinj::scenario("exec.worker.job:panic@1");
    let pool = exec::ThreadPool::new(1);
    pool.execute(|| {});
    let probe = pool.submit(|| Value::Int(7));
    assert_eq!(probe.join().as_int(), Some(7), "the worker survived");
    assert_eq!(pool.contained_panics(), 1, "exactly one containment");
    pool.shutdown();

    faultinj::disarm_all();

    let injected = faultinj::injected();
    assert_eq!(injected, 3, "each of the three scenarios injects once");

    let json = format!(
        "{{\n  \"schema\": \"fault-smoke-v1\",\n  \"injected\": {injected},\n  \"obs\": {}\n}}\n",
        obs::snapshot().render_json()
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("fault_smoke: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    println!("fault_smoke: {injected} faults injected, all recovery surfaces healthy");
    println!("fault_smoke: wrote {out_path}");
}
