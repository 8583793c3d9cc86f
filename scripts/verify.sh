#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md) plus the hermetic-build guard (ISSUE 1):
#
#   1. grep guards — no dependency section in any Cargo.toml may name a
#                    registry (version-requirement) dependency; everything
#                    must be a `path = ...` / `workspace = true` entry;
#                    no source outside `gde/src/value.rs` may name
#                    the borrowed string representation (ISSUE 19);
#                    neither back end, the lowering nor the resolver may
#                    name a `gde::ops` primitive (ISSUE 21); neither
#                    back end may name the source IR (ISSUE 22); the
#                    second measured surface stays deleted (ISSUE 23); and
#                    the transport keeps one path (ISSUE 25);
#                    calls have one invocation node, whose `::` natives
#                    are bound per activation, not per evaluation; one
#                    blocking primitive; one fuser (`StagePlan`'s); one
#                    counts contract; every backticked repo path in the
#                    docs exists and every backticked crate path names a
#                    definition; tables probe without promoting; and
#                    `||` has one concatenation; every crate root
#                    forbids `unsafe` and no interner comes back;
#                    `|>e` is the only concurrent construct (no fan-in)
#                    and a pipe spawns once per run; a re-run call
#                    checks one generation and looks no name up;
#                    emitted code is `rt` calls, with no boxing or
#                    per-procedure scaffolding spelled out; a class is
#                    one `rt::class` call in both back ends; and a
#                    procedure is one `rt::Def` in both back ends;
#   2. metadata    — `cargo metadata` must resolve to path-only packages
#                    (every package's `source` is null), for the workspace
#                    and for the benchmark's own;
#   3. build+test  — `cargo build --release --offline` and
#                    `cargo test -q --offline` across the whole workspace.
#
# The `--offline` flag is the invariant, not an optimization: this
# repository must build on a machine that has never reached a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== [1/3] manifest guard: no registry dependencies"
# Inside [dependencies]/[dev-dependencies]/[build-dependencies]/
# [workspace.dependencies] sections, any value containing a version
# requirement (a digit, caret, tilde, wildcard or comparison after `"`)
# reintroduces the registry and fails the build.
bad=0
while IFS= read -r manifest; do
    hits="$(awk '
        /^\[/ {
            indeps = ($0 ~ /^\[(workspace\.)?(dependencies|dev-dependencies|build-dependencies)\]/)
        }
        indeps && /=[[:space:]]*"[0-9^~*<>=]/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
        indeps && /version[[:space:]]*=[[:space:]]*"/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    ' "$manifest")"
    if [ -n "$hits" ]; then
        echo "$hits"
        bad=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*')
if [ "$bad" -ne 0 ]; then
    echo "FAIL: registry (non-path) dependencies found; use an in-tree shim under crates/shims/ instead"
    exit 1
fi
echo "   ok: all dependency entries are path/workspace"

# How a borrowed string is stored is known by one file (DESIGN.md §
# String plane): everything else goes through `Value::as_str`,
# `is_borrowed`, `shared_text` and the window operations of that module.
if hits="$(grep -rnE 'Value::(Win|Slice|Built)|StrWin \{' crates/*/src \
        | grep -v '^crates/gde/src/value\.rs:')"; then
    echo "$hits"
    echo "FAIL: the borrowed string representation is named outside crates/gde/src/value.rs"
    exit 1
fi
echo "   ok: the string window is private to gde::value"

# What a primitive means and how it is spelled in Rust is one table
# (junicon/src/prim.rs, DESIGN.md § The primitive table): the lowering and
# both back ends ask a row, so none names an `ops::` function itself.
if hits="$(grep -n 'ops::' crates/junicon/src/{emit,interp,lower,resolve}.rs)"; then
    echo "$hits"
    echo "FAIL: a primitive is named outside crates/junicon/src/prim.rs"
    exit 1
fi
echo "   ok: primitives are named by the table only"

# One lowering (junicon/src/lower.rs, DESIGN.md § One lowering) holds the
# only match over `Norm` that feeds a back end: the interpreter instantiates
# the plan and the emitter prints it, so neither sees the source IR.
if hits="$(grep -n 'Norm::' crates/junicon/src/{emit,interp}.rs)"; then
    echo "$hits"
    echo "FAIL: a back end matches on Norm; lower it in crates/junicon/src/lower.rs instead"
    exit 1
fi
echo "   ok: the back ends consume Plan, not Norm"

# A call site re-runs its activation (DESIGN.md § One lowering): `rt::invoke`
# is the one invocation node, and a `::` call is bound to its native when
# the activation is built, so evaluating it never takes the natives' lock.
if hits="$(grep -rnE '\b(invoke_iter|InvokeIter)\b' crates/*/src)"; then
    echo "$hits"
    echo "FAIL: a second invocation node is back beside rt::invoke"
    exit 1
fi
eval_impl="$(sed -n '/^impl Eval {/,/^}/p' crates/junicon/src/lower.rs)"
if [ -z "$eval_impl" ] || grep -n 'natives' <<< "$eval_impl"; then
    echo "FAIL: Eval::run reads the natives (or impl Eval moved); bind a :: call when its activation is built"
    exit 1
fi
echo "   ok: one invocation node; :: natives bound per activation"

# A re-run checks one number (DESIGN.md § Two readings): `Def::call` reads
# the scope's name generation and `Def::recall` compares it, so neither
# looks a name up; the per-name re-lookups, the natives counter and the
# dead code deleted beside them stay deleted.
def_impl="$(sed -n '/^impl Def {/,/^}/p' crates/junicon/src/rt.rs)"
for f in call recall; do
    body="$(sed -n "/^    fn $f(/,/^    }/p" <<< "$def_impl")"
    if [ -z "$body" ] || grep -n 'lookup' <<< "$body"; then
        echo "FAIL: Def::$f looks a name up (or moved); a re-run compares the scope's generation"
        exit 1
    fi
done
if hits="$(grep -rnE '\bnatives_gen\b|fn by_name\b|\bcount_primes_to\b|\bis_perfect_square\b|fn lifted\b' crates/*/src)"; then
    echo "$hits"
    echo "FAIL: a per-name re-run check, the natives counter or deleted dead code is back"
    exit 1
fi
echo "   ok: a re-run call checks one generation and looks no name up"

# Emitted code at the paper's scale (DESIGN.md § One lowering): every
# constructor row is an `rt` function that hands back a `BoxGen`, and a
# procedure is one `Def::new` call, so the executed fixtures carry no
# boxing, no `gde::comb` path, no spelled-out `rt::Slot`, no per-procedure
# scaffolding and no per-procedure `declare`; the table's boxing column
# and the uncalled per-procedure entry point stay deleted.
if hits="$(grep -nE 'as BoxGen|Box::new\(|gde::comb::|rt::Slot::|ProcValue::new|FrameLayout::of|rt::frame\(|globals\.declare\(|/// Generator function' \
        crates/junicon/tests/fixtures/*_emitted.rs)"; then
    echo "$hits"
    echo "FAIL: emitted code spells out what rt holds; print one Def::new per procedure, rt::class, rt::install and the boxed rt constructors"
    exit 1
fi
if hits="$(grep -rnE 'fn emit_proc\b|macro_rules! boxed\b' crates/*/src benchmark/src)"; then
    echo "$hits"
    echo "FAIL: emit_proc or the constructor table's boxing column is back"
    exit 1
fi
echo "   ok: emitted code is rt calls only (no boxing, no scaffolding)"

# One measured surface (DESIGN.md § CI): claims are judged by
# benchmark/run.sh, so no criterion-style target, shim knob or figure6
# JSON dump may come back beside it.
if hits="$(find . -name Cargo.toml -not -path './target/*' \
        -exec grep -nHE '^\[\[bench\]\]|^[[:space:]]*criterion\b' {} +)"; then
    echo "$hits"
    echo "FAIL: a [[bench]] target or a criterion dependency is back; measure through benchmark/run.sh"
    exit 1
fi
# (Bracketed so that this file does not match itself.)
if hits="$(grep -rnE 'TINYBENCH[_]|figure6-v[2]' crates scripts .github)"; then
    echo "$hits"
    echo "FAIL: the criterion shim's knobs or figure6's JSON schema are named again"
    exit 1
fi
echo "   ok: one measured surface (no bench targets, no criterion, no figure6 JSON)"

# One transport path (DESIGN.md § Batched transport): the queue has one
# wait per direction and no try/timed/with-cause variants, and one
# producer loop moves every pipe result across it.
if hits="$(grep -rnE 'fn (try_put|try_put_all|try_take|take_timeout|is_closed|take_with_cause|take_batch_with_cause)\b|TryPutError|TryTakeError|TimedOut' \
        crates/blockingq/src)"; then
    echo "$hits"
    echo "FAIL: a deleted BlockingQueue variant is back; wait with put/take and read close_cause() after end of stream"
    exit 1
fi
if hits="$(grep -rn 'put_all(' crates/pipes/src | grep -v '^crates/pipes/src/producer\.rs:')"; then
    echo "$hits"
    echo "FAIL: put_all outside crates/pipes/src/producer.rs; move results through spawn_run"
    exit 1
fi
echo "   ok: one transport path (16-fn queue, one producer loop)"

# One blocking primitive (DESIGN.md § crate map): the queue. A future is
# a singleton pipe and a pool task waits on a bounded(1) queue, so no
# second slot type or future API may come back beside it.
if hits="$(grep -rnE 'MVar|mvar|blockingq::Future|spawn_future\(|pipe_coexpr\(' crates examples src)"; then
    echo "$hits"
    echo "FAIL: a second blocking primitive is back; wait on a BlockingQueue (bounded(1) for one result)"
    exit 1
fi
echo "   ok: one blocking primitive (no MVar, Future, spawn_future or pipe_coexpr)"

# One fuser (DESIGN.md § Stage fusion): lowering emits the paper's product
# of bound iterators, so no fused lowering form may come back; the
# fixed-code pipeline is one `Pipe` per stage, and the skip-path mutant
# lives in the test that catches it.
if hits="$(grep -rnE 'emitted_fused|fusable_suffix|is_barrier|Arg::Steps|Arg::Count' crates/*/src)"; then
    echo "$hits"
    echo "FAIL: a lowering fuser is back; lower a product to PRODUCT over its links"
    exit 1
fi
if hits="$(grep -rnE 'mapreduce::Pipeline|fuse_with_skip_mutation' crates examples src tests)"; then
    echo "$hits"
    echo "FAIL: mapreduce::Pipeline or the production mutation hook is back; use Pipe::staged, mutate in the test"
    exit 1
fi
echo "   ok: one fuser (StagePlan's); no Pipeline builder, no mutation hook in production"

# One counts contract (DESIGN.md § CI): the `counts` gate compares every
# deterministic count with the last history line, so no `> 0` wiring row
# may come back beside it.
if hits="$(grep -rnE '\bNonZero\b|"(fusion|compact-values|concat-slices|resolve)"' crates/bench/src)"; then
    echo "$hits"
    echo "FAIL: a non-zero wiring gate is back; the counts gate already holds every count equal"
    exit 1
fi
echo "   ok: one counts contract (no NonZero rows)"

# The docs name files that exist: every backticked repo path in README.md,
# DESIGN.md and EXPERIMENTS.md (a token starting with one of the top-level
# directories below; globs, placeholders and the gitignored benchmark/out/
# excepted; a trailing `:line` or punctuation dropped).
missing="$(grep -ohE '`[^`]+`' README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | tr ' ' '\n' \
    | grep -E '^(crates|benchmark|scripts|tests|examples|src|\.github)/' \
    | grep -vE '[*<{…]|^benchmark/out/' | sed -E 's/[:,;.)]+[0-9]*$//' | sort -u \
    | while IFS= read -r path; do [ -e "$path" ] || echo "$path"; done)"
if [ -n "$missing" ]; then
    echo "$missing"
    echo "FAIL: README.md, DESIGN.md or EXPERIMENTS.md names a repo path that does not exist"
    exit 1
fi
echo "   ok: every backticked repo path in the docs exists"

# …and name items that exist: every backticked path that starts with a
# workspace crate (`gde::ops::index`, `wordcount::{native,embedded}`) ends
# in an item that crate defines — a fn, type, trait, const, static or
# module, a `pub use` re-export, or a fn a macro row defines. Paper names
# (`IconIterator`, `spawnMap`) are not crate paths, so they need no list.
unresolved="$(grep -ohE '`[^`]+`' README.md DESIGN.md EXPERIMENTS.md | tr -d '`' \
    | grep -oE '\b[a-z_]+::[A-Za-z0-9_:{}, ]*[A-Za-z0-9_}]' | sort -u \
    | while IFS= read -r path; do
        src="crates/${path%%::*}/src"
        [ -d "$src" ] || src="crates/shims/${path%%::*}/src"
        [ -d "$src" ] || continue
        for item in $(tr -d '{} ' <<< "${path##*::}" | tr ',' ' '); do
            grep -rqE "\b(fn|struct|enum|trait|type|const|static|mod|macro_rules!) $item\b|pub use [^;]*\b$item\b|^ *[a-z_]+!\($item\b" "$src" \
                || [ -n "$(find "$src" -name "$item.rs" -o -type d -name "$item")" ] \
                || echo "$path ($item)"
        done
    done)"
if [ -n "$unresolved" ]; then
    echo "$unresolved"
    echo "FAIL: README.md, DESIGN.md or EXPERIMENTS.md names a crate item that crates/*/src does not define"
    exit 1
fi
echo "   ok: every backticked crate path in the docs names a definition"

# Tables probe without promoting (DESIGN.md § String plane): the map is
# private to gde::value, reads go through `TableData::lookup` and only
# `TableData::store` promotes, on insert — so no caller may reach the map
# or build an owned key to read with.
if hits="$(grep -rnE '\.entries\b' crates/*/src crates/*/tests src tests examples \
        | grep -vE '^crates/(gde/src/value|obs/src/registry)\.rs:')"; then
    echo "$hits"
    echo "FAIL: a table's map is reached outside crates/gde/src/value.rs; use TableData::{lookup,store,keys,values}"
    exit 1
fi
if hits="$(grep -rn 'as_key(' crates/gde/src/ops.rs crates/junicon/src crates/wordcount/src)"; then
    echo "$hits"
    echo "FAIL: a table subscript is promoted to an owned key; read with TableData::lookup, write with TableData::store"
    exit 1
fi
# A return to SipHash moves no count, and the `strings-keyed` cap sees it
# only on slow runs, so the map's hasher is pinned here.
if ! grep -q 'entries: HashMap<Key, Value, KeyHash>,' crates/gde/src/value.rs; then
    echo "FAIL: TableData's map no longer hashes with KeyHash (DESIGN.md § String plane, the table hasher)"
    exit 1
fi
echo "   ok: table reads probe in place; only TableData::store promotes a key; KeyHash hashes"

# One concatenation (DESIGN.md § String plane): `||` makes one owned
# string, so no builder arena, second window owner, adjacency widening or
# reference concatenation may come back beside it.
if hits="$(grep -rnE '\b(strbuf|StrBuf|StrBuilder|concat_owned|try_join|chunk_window|chunk_span|concat_slices|concat_copies)\b|\bOwner::' \
        crates/*/src crates/*/tests examples src tests)"; then
    echo "$hits"
    echo "FAIL: a second concatenation mechanism is back; ops::concat makes an owned string"
    exit 1
fi
echo "   ok: one concatenation"

# No unsafe code (DESIGN.md § String plane): every library root, and every
# binary of the bench crate, forbids it, so the compiler rejects any that
# comes back; the grep covers the tests and examples those roots do not.
for root in crates/*/src/lib.rs crates/shims/*/src/lib.rs src/lib.rs crates/*/src/bin/*.rs; do
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "$root"; then
        echo "FAIL: $root does not forbid unsafe_code"
        exit 1
    fi
done
if hits="$(grep -rnw 'unsafe' crates/*/src crates/*/tests src tests examples)"; then
    echo "$hits"
    echo "FAIL: unsafe code is back; the workspace forbids it"
    exit 1
fi
# Strings have two forms, owned and borrowed: the interner, its handle and
# its string and key forms stay deleted, and `Value::interned` is a plain
# alias of `Value::str` that only the benchmark's probes still call.
if hits="$(grep -rnE '\b(Symbol|Value::Sym|Key::Sym|gde::sym|intern_node|intern_arc|small_int_sym|PROMOTE_INTERN_MAX)\b' \
        crates/*/src crates/*/tests src tests examples)"; then
    echo "$hits"
    echo "FAIL: the interner is back; a promoted window is an owned Value::Str"
    exit 1
fi
if hits="$(grep -rn 'Value::interned(' crates src tests examples)"; then
    echo "$hits"
    echo "FAIL: Value::interned is called outside benchmark/; call Value::str"
    exit 1
fi
echo "   ok: no unsafe (every root forbids it); no interner; two string forms"

# `|>e` is the only concurrent construct (DESIGN.md § Batched transport):
# the fan-in layer, its producer-site switch, its obs family and fault
# counter stay deleted, and so do the builders that respawned a pipe's
# producer and the test kit's unused arrival counter.
if hits="$(grep -rnE '\bpipes::merge\b|\b(Merge|RoundRobin|round_robin|FanPolicy|MERGE_BATCH_FAIRNESS_CAP)\b|\bSite::|pipes\.fan\.|pipes\.merge\.resume|\bdegraded_sources\b|\bwith_label\b|\bfn with_batch\b|\btestkit::Epoch\b' \
        crates/*/src crates/*/tests src tests examples benchmark/src)"; then
    echo "$hits"
    echo "FAIL: the fan-in layer or a respawning Pipe builder is back; |>e is the only concurrent construct, and a run spawns once"
    exit 1
fi
echo "   ok: |>e is the only concurrent construct; one producer spawn per run"

# A class is one `rt::class` call in both back ends (DESIGN.md § One
# lowering): the interpreter's own class lowering, the emitter's comment in
# its place, an object's per-instance method map and the one-variant
# interpreter error stay deleted.
hits="$(grep -rnE '\bfn make_class\b|\bJuniconError\b|\binterpreter-only\b' crates/*/src; \
    grep -nHE '\bmethods: Arc<' crates/gde/src/value.rs || true)"
if [ -n "$hits" ]; then
    echo "$hits"
    echo "FAIL: a second class lowering, the per-object method map or JuniconError is back; build classes with rt::class"
    exit 1
fi
echo "   ok: a class is one rt::class call (no make_class, no method map)"

# A procedure is one `rt::Def` in both back ends (DESIGN.md § Two
# readings): `Def::bind` is the one place a procedure value gets its
# definition, so loaded and emitted procedures, methods and classes all
# re-run by one rule; the interpreter's own lowered-procedure binder and
# the free frame helper stay deleted.
defined="$(grep -rn 'ProcValue::defined(' crates/junicon/src || true)"
if [ "$(grep -c . <<< "$defined")" -ne 1 ]; then
    echo "$defined"
    echo "FAIL: ProcValue::defined( has $(grep -c . <<< "$defined") call sites in crates/junicon/src, not one; bind a procedure through rt::Def"
    exit 1
fi
if hits="$(grep -rnE '\bfn lowered\b|rt::frame\(' crates/junicon/src)"; then
    echo "$hits"
    echo "FAIL: a second procedure mechanism is back; define procedures with rt::Def"
    exit 1
fi
echo "   ok: a procedure is one rt::Def (one ProcValue::defined site)"

echo "== [2/3] cargo metadata: path-only package sources"
# Capture first: in an `if` a failing pipeline is just "false", so a
# `cargo metadata` that cannot run would pass as "no registry sources".
for manifest in Cargo.toml benchmark/Cargo.toml; do
    if ! metadata="$(cargo metadata --offline --format-version 1 --manifest-path "$manifest")"; then
        echo "FAIL: cargo metadata could not resolve $manifest"
        exit 1
    fi
    if grep -q '"source":"registry+' <<< "$metadata"; then
        echo "FAIL: cargo metadata resolves at least one registry package for $manifest"
        exit 1
    fi
done
echo "   ok: no registry sources in either resolved graph"

echo "== [3/3] build + test (offline)"
cargo build --release --offline --workspace
cargo test -q --offline --workspace

echo "verify: OK"
