//! Source-to-result benchmark for the concurrent-generators repository.
//!
//! Five workloads, each one Junicon program plus generated input, run on
//! three execution paths (native, embedded, interpreted). The untraced run
//! reports the end-to-end metrics; the traced run (`--features trace`: the
//! crates' `obs` counters plus harness-side spans) reports the per-layer
//! ledger. See `README.md`.

pub mod aa;
pub mod cli;
pub mod compile;
pub mod hostfns;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod oracle;
#[cfg(feature = "trace")]
pub mod probes;
pub mod programs;
pub mod run;
pub mod stats;
pub mod trace;
#[cfg(feature = "trace")]
pub mod traced;
pub mod workload;
