#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--quick] [--aa]
#
# Without --workload it runs all five; without --trace it runs the untraced
# run (end-to-end metrics) and then the traced run (per-layer metrics) of
# each. Every run is its own process. The last line of standard output is
# the result object of the last run. --aa runs the untraced suite twice on
# the same build and compares the two against the bounds in BENCHMARK.json.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workloads=(seq_light pipe_light mapreduce_heavy strings_report compile_heavy)
seed=2016
seconds=28
traces=(0 1)
aa=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) traces=("$2"); shift 2 ;;
        --quick) seconds=2.8; shift ;;
        --aa) aa=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build into a directory of the benchmark's own, so the main cache is not
# thrashed; a driver may name the directory itself.
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
build() { # build <binary name> [cargo flags]
    local name="$1"; shift
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
        --target-dir "$target" "$@" >&2
    cp "$target/release/benchmark" "$target/release/$name"
}
build benchmark-plain
if [ "$aa" = 0 ] && [[ " ${traces[*]} " == *" 1 "* ]]; then
    build benchmark-trace --features trace
fi

# One CPU. On a virtual machine a wake-up across CPUs costs more than the
# fine-grained workloads gain from the second CPU, and where the threads
# land changes from one second to the next: the same pipeline reads 2.8 or
# 6 ms per iteration. Pinned, the host is a one-core host (ROADMAP's
# parallel-honesty rule): coordination overhead is measured, speed-up is
# not. To measure on real cores, run the binaries in $target/release
# directly.
pin=()
if command -v taskset >/dev/null; then
    cpu="$(grep Cpus_allowed_list /proc/self/status | grep -o '[0-9]*$' || true)"
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
    fi
fi
[ ${#pin[@]} -gt 0 ] || echo "run.sh: taskset unavailable, running unpinned" >&2

run_one() { # run_one <workload> <trace> <out dir>
    local common=(--workload "$1" --seed "$seed" --seconds "$seconds")
    if [ "$2" = 1 ]; then
        # The traced run reports its overhead against an untraced run.
        local untraced
        untraced="$("${pin[@]}" "$target/release/benchmark-plain" embedded-wps "${common[@]}")"
        "${pin[@]}" "$target/release/benchmark-trace" run "${common[@]}" --trace 1 --out "$3" \
            --untraced-embedded-wps "$untraced"
    else
        "${pin[@]}" "$target/release/benchmark-plain" run "${common[@]}" --trace 0 --out "$3"
    fi
}

if [ "$aa" = 1 ]; then
    for set in a b; do
        for w in "${workloads[@]}"; do
            run_one "$w" 0 "$here/out/aa-$set" | grep -v '^{' || true
        done
    done
    "$target/release/benchmark-plain" aa "$root/BENCHMARK.json" "$here/out/aa-a" "$here/out/aa-b"
    exit $?
fi

for w in "${workloads[@]}"; do
    for t in "${traces[@]}"; do
        run_one "$w" "$t" "$here/out"
    done
done
