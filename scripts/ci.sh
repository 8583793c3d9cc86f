#!/usr/bin/env bash
# The full offline CI pipeline (ISSUE 2, gates extracted in ISSUE 7).
# Runs, in order:
#
#   1. scripts/verify.sh        — tier-1: hermetic guard + build + test;
#   2. cargo fmt --check        — formatting is load-bearing;
#   3. cargo clippy -D warnings — lints are errors;
#   4. obs feature matrix       — every instrumented crate must compile
#                                 BOTH with `--features obs` and, in
#                                 isolation, without it (feature
#                                 unification hides the latter in
#                                 workspace-wide builds);
#   5. scripts/examples_smoke.sh — every example runs, fail-fast;
#   6. schedtest smoke          — the deterministic schedule-exploration
#                                 model suites under --cfg schedtest
#                                 (including the fault-injection models),
#                                 summarized to SCHEDTEST_ci.json;
#   7. benchmark + gates        — `benchmark/run.sh --quick` (Junicon
#                                 source text -> result on five
#                                 workloads, every output checked against
#                                 a native twin and a repo-independent
#                                 oracle) and the benchmark's own tests,
#                                 the fault-plane smoke emitting
#                                 FAULTS_ci.json, then the regression
#                                 gates (`bench --bin gates`, tested in
#                                 crates/bench/tests/gates.rs) over
#                                 benchmark/out/result-*.json and the
#                                 last line of BENCH_history.jsonl (the
#                                 exact counts), plus a report-only drift
#                                 table against that line.
#
# Strictness: under CI=1 (or CI=true — what GitHub Actions exports) any
# "loud skip" becomes a hard failure: a runner without rustfmt/clippy, or
# a gate with nothing to read, must fail the pipeline rather than quietly
# narrowing it. Locally (no CI env) skips stay warnings so a
# minimal toolchain can still run the rest.
#
# Everything is `--offline`: CI must pass on a machine that has never
# reached a registry. No step downloads anything.
set -euo pipefail
cd "$(dirname "$0")/.."

STRICT=0
case "${CI:-}" in
    1 | true) STRICT=1 ;;
esac

step() { echo; echo "==== ci: $*"; }

# A tool gap is a warning locally, a failure under CI=1.
loud_skip() {
    echo "   !!! SKIPPED: $*"
    if [ "$STRICT" = "1" ]; then
        echo "   !!! CI strict mode: skips are failures"
        exit 1
    fi
}

step "[1/7] tier-1 verify (hermetic guard + build + test)"
scripts/verify.sh

step "[2/7] cargo fmt --check"
if command -v rustfmt > /dev/null 2>&1; then
    cargo fmt --all -- --check
    echo "   ok: formatting clean"
else
    loud_skip "rustfmt is not installed (rustup component add rustfmt)"
fi

step "[3/7] cargo clippy --workspace --all-targets -- -D warnings"
if cargo clippy --version > /dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
    echo "   ok: clippy clean"
else
    loud_skip "clippy is not installed (rustup component add clippy)"
fi

step "[4/7] obs feature matrix (on + isolated off)"
# With the feature: the whole workspace, all targets (bench + root
# already default it on, but be explicit for the instrumented crates).
OBS_CRATES=(gde blockingq exec pipes mapreduce wordcount)
for crate in "${OBS_CRATES[@]}"; do
    cargo build --offline -q -p "$crate" --features obs
done
echo "   ok: instrumented builds"
# Without it: each crate in isolation, so feature unification from the
# root crate/bench cannot quietly re-enable obs. This is the zero-cost
# compile gate — the obs_on! macro must expand to nothing and the crates
# must carry no obs code at all.
for crate in "${OBS_CRATES[@]}" coexpr junicon bigint obs; do
    cargo build --offline -q -p "$crate"
    cargo test --offline -q -p "$crate" > /dev/null
done
echo "   ok: uninstrumented builds + tests (obs off)"
# The fault-injection plane has the same shape: `faultpoint!` must expand
# to nothing without the feature (checked above by the isolated builds)
# and compile cleanly with it — including the registry's own obs wiring.
for crate in blockingq pipes exec; do
    cargo build --offline -q -p "$crate" --features faultinj
done
cargo build --offline -q -p faultinj --features obs
echo "   ok: faultpoint builds (faultinj on)"

step "[5/7] examples smoke"
scripts/examples_smoke.sh

step "[6/7] schedtest smoke -> SCHEDTEST_ci.json (schedule-exploration model tests)"
# The deterministic schedule-exploration suites (crates/schedtest/tests/
# model_*.rs) under the virtual scheduler: RUSTFLAGS="--cfg schedtest"
# swaps the parking_lot shim to virtual primitives, so the build lands in
# its own target dir rather than thrashing the main cache. The budget is
# a backstop well above the largest committed exhaustive test (~25k
# schedules): a test that suddenly needs more fails its own `complete`
# assertion loudly instead of burning CI minutes. Each explore() call
# appends one summary line to SCHEDTEST_ci.json; the counts gate below
# checks every suite explored exactly what the history line recorded.
rm -f SCHEDTEST_ci.json
RUSTFLAGS="--cfg schedtest" CARGO_TARGET_DIR=target/schedtest \
    SCHEDTEST_BUDGET=50000 SCHEDTEST_JSON="$PWD/SCHEDTEST_ci.json" \
    cargo test --offline -q -p schedtest \
    --test model_blockingq --test model_pipes --test model_exec \
    --test model_faults \
    -- --test-threads=1
echo "   ok: model suites green ($(wc -l < SCHEDTEST_ci.json) explorations summarized)"

step "[7/7] benchmark (quick) -> benchmark/out/result-*.json, then the regression gates"
# The one measured surface, at a tenth of its run length: a wiring check
# (does every workload still run and check out on all three paths, do the
# gates hold), not a measurement. BENCH_history.jsonl holds the full-size
# runs. The benchmark is a workspace of its own, so this is also the only
# step that compiles it against the crates' current API.
# Stale result files go first, so a workload that stops running leaves a
# missing file (a FAIL of the `results` gate), not yesterday's numbers.
# The two `seq_light` ratios to native are gated on their median over
# three untraced quick runs (one quick run's native rate swings by a
# quarter): two re-runs, each copied aside as result-seq_light-run<k>.json
# before the full run writes the third.
rm -f benchmark/out/result-*.json
for k in 2 3; do
    bash benchmark/run.sh --workload seq_light --quick --trace 0 > /dev/null
    mv benchmark/out/result-seq_light-trace0.json "benchmark/out/result-seq_light-run$k.json"
done
bash benchmark/run.sh --quick > /dev/null
cargo test --offline -q --manifest-path benchmark/Cargo.toml
echo "   ok: benchmark ran and its own tests are green"
# Fault-plane smoke: deterministic injection scenarios through every
# recovery surface (Retry replay, Propagate, pool containment),
# snapshotting the fault counters for the `faults` gate.
# The injected panics print their messages on stderr; so would a
# scenario that fails, which is why stderr stays (without backtraces:
# four of the panics are the scenarios themselves).
RUST_BACKTRACE=0 cargo run --offline -q -p bench --release --features faultinj \
    --bin fault_smoke -- FAULTS_ci.json \
    | sed 's/^/   /'

# The regression gates (crates/bench/src/gates.rs holds the table, the
# caps and their derivations). One PASS/FAIL line per gate: `results`
# (ten result files, each a correct run with no failed operation), the
# table rows `contention`, `seq-lw-ratio` and `interp-recycled` (medians
# over the three untraced `seq_light` runs), `interp-freed`,
# `strings-keyed`, then `counts` (every deterministic count of this run
# — per-path count notes, emitted_bytes, each step-6 suite's schedules and
# completeness — equals the last line of BENCH_history.jsonl), then
# `schedtest` (step 6 summary well-formed, no exploration failing) and
# `faults` (every fault counter non-zero). A change that moves a count on
# purpose pastes the `counts` FAIL lines (`key: history → current`) into
# CHANGES.md and commits a new full-size history line.
# After them: this run as one bench-history-v1 line, and the report-only
# drift table; CI writes to no tracked file.
GATE_FLAGS=(--results benchmark/out
    --commit "$(git rev-parse --short HEAD 2> /dev/null || echo unknown)"
    --history BENCH_history.jsonl
    --schedtest-json SCHEDTEST_ci.json
    --faults-json FAULTS_ci.json)
if [ "$STRICT" = "1" ]; then
    GATE_FLAGS+=(--strict)
fi
cargo run --offline -q -p bench --release --bin gates -- "${GATE_FLAGS[@]}" \
    | sed 's/^/   /'

echo
echo "ci: OK"
