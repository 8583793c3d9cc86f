//! Lock-light runtime observability for the concurrent-generator runtime.
//!
//! The paper's evaluation (Sec. VII, Fig. 6) is entirely about *measured*
//! behaviour of the word-count variants; this crate gives the runtime the
//! instrumentation that evaluation needs, cheaply enough to leave on in
//! benchmarks:
//!
//! * [`Counter`] — monotonically increasing relaxed-atomic `u64`;
//! * [`Gauge`] — relaxed-atomic `i64` with `set`/`add`/high-water
//!   [`Gauge::record_max`];
//! * [`Histogram`] — a fixed-size *window* of the most recent samples,
//!   stored in atomics (writers never lock), with nearest-rank
//!   p50/p95/p99 quantiles computed on read;
//! * [`Timer`] — count + total wall time + a latency histogram, fed
//!   either by an RAII [`TimerGuard`] or an explicit duration;
//! * [`Registry`] — a name → metric map that renders a *deterministic*
//!   (sorted, stable) text snapshot and a hand-rolled JSON snapshot (no
//!   serde: the workspace is hermetic, see DESIGN.md § "Hermetic build").
//!
//! Instrumented crates (`blockingq`, `pipes`, `exec`, `mapreduce`,
//! `wordcount`) depend on this crate **optionally**, behind a cargo
//! feature named `obs` that is off by default: with the feature off every
//! instrumentation call site is compiled out entirely (a `macro_rules!`
//! shim expands to nothing), so the hot paths carry zero cost — not even
//! a no-op function call. The `bench` crate and the `figure6` binary turn
//! the feature on by default so every benchmark run carries queue depths,
//! stage timings, and pool utilization alongside its timings.
//!
//! Process-wide aggregation: instrumentation registers into
//! [`Registry::global`], keyed by dotted metric names
//! (`blockingq.queue.puts`, `exec.pool.busy`, ...). All instances of a
//! subsystem share one family of metrics — the snapshot answers "what did
//! the runtime do", not "what did queue #17 do" — which keeps the hot
//! path to a single relaxed atomic op.

#![forbid(unsafe_code)]

mod metrics;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, Timer, TimerGuard, DEFAULT_WINDOW};
pub use registry::{Metric, Registry, Snapshot};

use std::sync::Arc;

/// Register (or fetch) a counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    Registry::global().counter(name)
}

/// Register (or fetch) a gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    Registry::global().gauge(name)
}

/// Register (or fetch) a histogram (default window) in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    Registry::global().histogram(name)
}

/// Register (or fetch) a timer in the global registry.
pub fn timer(name: &str) -> Arc<Timer> {
    Registry::global().timer(name)
}

/// Take a snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    Registry::global().snapshot()
}

/// Minimal JSON string escaping for the hand-rolled snapshot writers
/// (metric names are plain dotted identifiers, but stay robust anyway).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
