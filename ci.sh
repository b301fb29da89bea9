#!/usr/bin/env bash
# Hermetic CI for tracemonkey-rs: offline, locked, zero registry
# dependencies. Must pass on a machine with no network and no cargo
# registry cache.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> policy: no registry (non-path) dependencies in any Cargo.toml"
manifests=(Cargo.toml crates/*/Cargo.toml)
# A registry dependency declares a version requirement: either an inline
# table with `version =` or a bare `name = "<semver>"`. Workspace/package
# metadata keys (version/edition/rust-version/resolver) are the only
# allowed version-like lines.
if grep -nE '=[[:space:]]*\{[^}]*version[[:space:]]*=|^[a-z0-9_-]+[[:space:]]*=[[:space:]]*"[0-9^~]' "${manifests[@]}" \
    | grep -vE 'Cargo\.toml:[0-9]+:(version|edition|rust-version|resolver)[[:space:]]*='; then
    echo "error: registry dependency declarations found above; all dependencies must be path deps" >&2
    exit 1
fi
echo "    OK: ${#manifests[@]} manifests are path-only"

echo "==> tier-1: hermetic release build"
# --workspace so the tm-bench `bench` binary is rebuilt too: the perf-gate
# stage below must never run a stale build.
cargo build --release --workspace --offline --locked

echo "==> tier-1: tests (root package: integration, fuzz, property suites)"
# Debug profile: JitOptions.verify defaults on, so every recorded trace in
# this pass goes through the tm-verifier static checks before compilation.
cargo test -q --offline --locked

echo "==> fuzz smoke: fixed seed replay, verifier enabled (debug profile)"
# Deterministic: a pinned seed list (including past regression seeds) run
# through the differential harness on every engine. Seed 30 is the
# recursive-branch resume-pc regression; keep it in the list.
TM_FUZZ_SEEDS="0,7,30,42,99,123,200,256" \
    cargo test -q --offline --locked --test fuzz_differential fuzz_replay_seeds

echo "==> multi-realm fuzz smoke: fixed seeds, 4 realms sharing one code cache"
# Differential: every realm's every repetition must print exactly what
# the single-threaded interpreter prints. Seed 6 is the step-budget
# regression (a budget-exhausting program must exhaust it in every
# realm, not run unbounded). RUST_TEST_THREADS stays unpinned — the
# suite must pass under any test-runner interleaving.
TM_FUZZ_THREADS=4 TM_FUZZ_SEEDS="0,6" \
    cargo test -q --offline --locked --test fuzz_differential fuzz_multi_realm

echo "==> native-tier fuzz smoke: native x86-64 vs decoded vs interpreter"
# Three-way differential over fixed seeds with the native backend forced
# on: every program must print identically under the native tier, the
# decoded executor, and the interpreter, and the tier accounting must
# balance (native_exits + native_fallbacks == trace_enters). Seeds 9/10/
# 33/57/71 are object/string-heavy generator outputs that exercise the
# full-coverage emitter families (shape guards, slot/element traffic,
# string helpers). TM_FUZZ_BG=1 attaches a compiler pool and runs the
# native pass with background_compile on, so off-thread native emission
# is part of the differential. The test self-skips on targets without
# the backend; the guard here keeps the stage's OK/SKIP line honest.
if [ "$(uname -sm)" = "Linux x86_64" ]; then
    TM_FUZZ_NATIVE=1 TM_FUZZ_BG=1 \
        TM_FUZZ_SEEDS="0,7,9,10,30,33,42,57,71,99,123,200,256" \
        cargo test -q --offline --locked --test fuzz_differential fuzz_native_tier
    echo "    OK: native tier differentially identical on the seed list (off-thread emission on)"
else
    echo "    SKIP: native backend needs Linux x86_64"
fi

echo "==> workspace member tests (per-crate units, tm-support, tm-bench)"
cargo test -q --workspace --exclude tracemonkey --offline --locked

echo "==> perfbench tests (the repo benchmark builds against tm-bench by path)"
# perfbench/ is its own cargo workspace, so the member tests above do not
# reach it: an API break in tm-bench fails here rather than in a
# benchmark run.
cargo test --manifest-path perfbench/Cargo.toml --offline --locked

echo "==> perf gates: bench gate (release, against BENCH_gates.json)"
# One binary runs each (program, configuration) pair the declarative gates
# in crates/bench/src/gates.rs read, once, and checks every gate against
# the checked-in BENCH_gates.json: tracing vs the interpreter, fusion
# dispatch counts, trace coverage, warm start from a .tmc cache converged
# in a separate process, multi-tenant results/sharing/throughput, and
# native-tier identity/accounting/uptake/speed. Counters carry most gates;
# the wall-clock gates compare group totals of medians (best-of-runs for
# the tenant throughput). Off x86-64 Linux the native gates print SKIP
# lines; the guard keeps this stage's OK/SKIP line honest.
./target/release/bench gate > target/bench_gate.json
if [ "$(uname -sm)" = "Linux x86_64" ]; then
    echo "    OK: every gate passed; records in target/bench_gate.json"
else
    echo "    OK: every portable gate passed; SKIP: native gates need Linux x86_64"
fi

echo "==> ThreadSanitizer: concurrency suite (nightly + rust-src only)"
# TSan needs a sanitizer-instrumented std (-Zbuild-std, which needs the
# rust-src component): with the prebuilt std every futex-based Mutex
# handoff is invisible to TSan and reports as a false-positive race.
# Skipped, not failed, when the toolchain can't do it.
if [ "$(uname -sm)" = "Linux x86_64" ] \
    && rustup toolchain list 2>/dev/null | grep -q '^nightly' \
    && rustup component list --toolchain nightly --installed 2>/dev/null \
        | grep -q '^rust-src'; then
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q --offline --locked -Zbuild-std \
        --target x86_64-unknown-linux-gnu --test concurrency
    echo "    OK: concurrency suite is race-clean under ThreadSanitizer"
else
    echo "    SKIP: needs Linux x86_64 + nightly toolchain + rust-src"
fi

echo "==> ci.sh: all green"
