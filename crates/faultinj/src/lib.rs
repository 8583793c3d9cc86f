//! Deterministic fault injection for the transport stack.
//!
//! Runtime crates mark interesting failure sites with an in-crate
//! `faultpoint!("crate.component.event")` macro (compiled out entirely
//! unless that crate's `faultinj` feature is on — the `obs_on!` pattern).
//! When compiled in, every site calls [`hit`], which consults a global
//! registry of *armed* sites and panics at the configured hit. The panic
//! then takes the normal containment path: producers convert it into a
//! `Failed(Fault)` close cause, so tests can enumerate
//! panic-at-every-site × schedule interleavings deterministically.
//!
//! # Arming
//!
//! From the environment (read once, on first hit):
//!
//! ```text
//! FAULTS="pipes.producer.resume:panic@3,blockingq.put:panic"
//! FAULTS_SEED=7   # only consulted by probabilistic triggers
//! ```
//!
//! or programmatically (tests): [`scenario`] replaces the whole registry
//! and resets all hit counters, so a model-checker can re-arm the same
//! spec at the top of every explored schedule.
//!
//! # Spec grammar
//!
//! `site:action` entries, comma-separated:
//!
//! * `site:panic@N` — panic on the Nth hit of `site` (1-based), once.
//! * `site:panic` — shorthand for `panic@1`.
//! * `site:panic@every:N` — panic on every Nth hit.
//! * `site:panic~P` — panic each hit with probability `P` (a SplitMix64
//!   stream seeded from `FAULTS_SEED` xor the site name, so runs are
//!   reproducible given the seed).
//!
//! Malformed specs panic immediately on arm: a typo'd site name or
//! action must fail loudly, never silently disarm a test.
//!
//! # Cost
//!
//! Sites compile out without the calling crate's `faultinj` feature.
//! Compiled in but unarmed, a hit is one `Once` fast-path check plus one
//! relaxed atomic load. The registry deliberately uses plain `std`
//! primitives (not the virtualized `parking_lot` shim): under the
//! schedtest explorer only one virtual thread runs at a time, so
//! registry accesses are already serialized by the schedule and must not
//! add scheduling points of their own.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

static ARMED: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static ENV_PARSED: Once = Once::new();

#[derive(Clone, Debug, PartialEq)]
enum Trigger {
    /// Fire once, on the Nth hit (1-based).
    At(u64),
    /// Fire on every Nth hit.
    Every(u64),
    /// Fire each hit with probability `p`, from a seeded per-site stream.
    Prob(f64),
}

struct Site {
    trigger: Trigger,
    hits: u64,
    fired: bool,
    rng: u64,
}

fn sites() -> &'static Mutex<HashMap<String, Site>> {
    static SITES: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    SITES.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_sites() -> std::sync::MutexGuard<'static, HashMap<String, Site>> {
    // An injected panic unwinds through callers, never while this lock is
    // held — but be robust to poisoning from foreign unwinds anyway.
    sites().lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a, used only to derive a per-site seed stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("FAULTS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    })
}

fn parse_spec(entry: &str) -> (String, Trigger) {
    fn bad(entry: &str) -> ! {
        panic!("faultinj: malformed FAULTS entry `{entry}` (want site:panic[@N|@every:N|~P])")
    }
    let (site, action) = entry.split_once(':').unwrap_or_else(|| bad(entry));
    let site = site.trim();
    let action = action.trim();
    if site.is_empty() {
        bad(entry);
    }
    let trigger = if let Some(p) = action.strip_prefix("panic~") {
        let p: f64 = p.parse().unwrap_or_else(|_| {
            panic!("faultinj: bad probability in `{entry}`");
        });
        assert!(
            (0.0..=1.0).contains(&p),
            "faultinj: probability out of range in `{entry}`"
        );
        Trigger::Prob(p)
    } else if let Some(rest) = action.strip_prefix("panic@") {
        if let Some(n) = rest.strip_prefix("every:") {
            let n: u64 = n
                .parse()
                .unwrap_or_else(|_| panic!("faultinj: bad period in `{entry}`"));
            assert!(n > 0, "faultinj: period must be >= 1 in `{entry}`");
            Trigger::Every(n)
        } else {
            let n: u64 = rest
                .parse()
                .unwrap_or_else(|_| panic!("faultinj: bad hit index in `{entry}`"));
            assert!(n > 0, "faultinj: hit index is 1-based in `{entry}`");
            Trigger::At(n)
        }
    } else if action == "panic" {
        Trigger::At(1)
    } else {
        bad(entry)
    };
    (site.to_string(), trigger)
}

/// Arm sites from a `site:action,site:action` spec string, *adding to*
/// (or overwriting within) the current registry. Hit counters for the
/// named sites are reset. Panics on malformed specs.
pub fn arm(config: &str) {
    let mut map = lock_sites();
    for entry in config.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, trigger) = parse_spec(entry);
        let rng = seed() ^ fnv1a(&site);
        map.insert(
            site,
            Site {
                trigger,
                hits: 0,
                fired: false,
                rng,
            },
        );
    }
    ARMED.store(!map.is_empty(), Ordering::Release);
}

/// Disarm every site and reset all hit counters. The process-wide
/// [`injected`] total is preserved (it is an audit trail, not state).
pub fn disarm_all() {
    lock_sites().clear();
    ARMED.store(false, Ordering::Release);
}

/// Replace the whole registry with `config` and reset every counter —
/// the idempotent re-arm used at the top of each explored schedule in
/// model tests.
pub fn scenario(config: &str) {
    disarm_all();
    arm(config);
}

/// True iff at least one site is armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Process-wide count of faults actually injected (monotone).
pub fn injected() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

#[cfg(feature = "obs")]
fn injected_counter() -> &'static std::sync::Arc<obs::Counter> {
    static C: OnceLock<std::sync::Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::counter("faults.injected"))
}

/// Force-register the `faults.injected` counter so snapshots carry an
/// explicit zero even before any fault fires. No-op without `obs`.
pub fn obs_register() {
    #[cfg(feature = "obs")]
    injected_counter();
}

/// One faultpoint execution. Fast no-op while unarmed; panics with a
/// recognizable `faultinj:` message when `site`'s trigger matches.
pub fn hit(site: &str) {
    ENV_PARSED.call_once(|| {
        if let Ok(cfg) = std::env::var("FAULTS") {
            arm(&cfg);
        }
    });
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let (fire, hit_no) = {
        let mut map = lock_sites();
        match map.get_mut(site) {
            None => return,
            Some(s) => {
                s.hits += 1;
                let fire = match s.trigger {
                    Trigger::At(n) => {
                        if !s.fired && s.hits == n {
                            s.fired = true;
                            true
                        } else {
                            false
                        }
                    }
                    Trigger::Every(n) => s.hits % n == 0,
                    Trigger::Prob(p) => {
                        let r = splitmix64(&mut s.rng);
                        (r as f64 / u64::MAX as f64) < p
                    }
                };
                (fire, s.hits)
            }
        }
    };
    if fire {
        INJECTED.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "obs")]
        injected_counter().inc();
        panic!("faultinj: fault injected at {site} (hit #{hit_no})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // The registry is process-global; keep every test inside one lock to
    // avoid cross-test interference under the parallel test runner.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_hits_are_noops() {
        let _g = serial();
        scenario("");
        assert!(!armed());
        for _ in 0..100 {
            hit("some.site");
        }
    }

    #[test]
    fn panic_at_nth_hit_fires_once() {
        let _g = serial();
        scenario("a.b:panic@3");
        assert!(armed());
        hit("a.b");
        hit("a.b");
        let err = catch_unwind(AssertUnwindSafe(|| hit("a.b"))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("a.b"), "payload names the site: {msg}");
        assert!(msg.contains("hit #3"), "payload names the hit: {msg}");
        // One-shot: the site stays quiet afterwards.
        for _ in 0..10 {
            hit("a.b");
        }
        disarm_all();
    }

    #[test]
    fn every_n_fires_periodically() {
        let _g = serial();
        scenario("p.q:panic@every:2");
        hit("p.q");
        assert!(catch_unwind(AssertUnwindSafe(|| hit("p.q"))).is_err());
        hit("p.q");
        assert!(catch_unwind(AssertUnwindSafe(|| hit("p.q"))).is_err());
        disarm_all();
    }

    #[test]
    fn scenario_resets_hit_counters() {
        let _g = serial();
        scenario("x.y:panic@2");
        hit("x.y");
        scenario("x.y:panic@2"); // counter back to zero
        hit("x.y");
        assert!(catch_unwind(AssertUnwindSafe(|| hit("x.y"))).is_err());
        disarm_all();
    }

    #[test]
    fn unknown_sites_ignored_while_armed() {
        let _g = serial();
        scenario("known.site:panic@1");
        hit("unknown.site"); // must not panic
        disarm_all();
    }

    #[test]
    fn probabilistic_trigger_is_seed_deterministic() {
        let _g = serial();
        // p=1.0 always fires; p=0.0 never does — the endpoints are
        // deterministic regardless of seed.
        scenario("never.fires:panic~0.0");
        for _ in 0..50 {
            hit("never.fires");
        }
        scenario("always.fires:panic~1.0");
        assert!(catch_unwind(AssertUnwindSafe(|| hit("always.fires"))).is_err());
        disarm_all();
    }

    #[test]
    fn malformed_specs_fail_loudly() {
        let _g = serial();
        for bad in ["nosite", "a.b:explode", "a.b:panic@0", "a.b:panic~2.0"] {
            assert!(
                catch_unwind(AssertUnwindSafe(|| scenario(bad))).is_err(),
                "spec `{bad}` must be rejected"
            );
        }
        disarm_all();
    }

    #[test]
    fn injected_total_is_monotone() {
        let _g = serial();
        let before = injected();
        scenario("m.n:panic@1");
        let _ = catch_unwind(AssertUnwindSafe(|| hit("m.n")));
        assert!(injected() > before);
        disarm_all();
    }
}
