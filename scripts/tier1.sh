#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   build (release)  — the artifacts the benchmarks run against
#   test             — unit + integration suites across the workspace
#   clippy           — lint wall over every target (lib, bins, tests,
#                      benches, examples); warnings are errors
#   repro smoke      — fig9/fig10 JSON artifacts regenerate and validate
#   bench smoke      — telemetry-overhead bench compiles and runs (test mode)
#
# Every step runs against the workspace manifest as committed, including
# its in-repo dependency stubs (stubs/); none is skipped.
#
# Usage: scripts/tier1.sh [extra cargo args, e.g. --offline]

set -euo pipefail
cd "$(dirname "$0")/.."

# Propagate the tier ladder level to every test and smoke run below: the
# differential suites and the http_analyzer example read HILTI_TIERING
# (TieringMode::from_env), so `HILTI_TIERING=threaded scripts/tier1.sh`
# drives the whole gate at one tier. Exported explicitly so the setting
# survives into cargo's child processes even when passed inline.
export HILTI_TIERING="${HILTI_TIERING:-}"
if [ -n "$HILTI_TIERING" ]; then
    echo "tier1: running with HILTI_TIERING=$HILTI_TIERING"
fi

cargo build --release "$@"
cargo test -q --workspace "$@"
cargo clippy --workspace --all-targets "$@" -- -D warnings

# Parallel-pipeline determinism gate: the differential suite (N workers
# vs 1 must be byte-identical).
cargo test -q -p broscript --test parallel "$@"
echo "tier1: parallel pipeline OK"

# 4-worker analyzer run that asserts its output against the sequential
# pipeline.
cargo run -q --release --example http_analyzer "$@" -- --workers 4 >/dev/null
echo "tier1: http_analyzer example OK"

# Repro artifacts: regenerate the figure JSON at the smallest scale and
# check each document carries all four component keys. Failures are
# accumulated so one bad artifact doesn't mask the next, then the script
# exits nonzero if anything was wrong.
out=target/repro-artifacts
rm -rf "$out"
REPRO_SCALE=1 REPRO_OUT="$out" cargo run -q --release -p bench --bin repro "$@" -- fig9 fig10
fail=0
for f in "$out"/fig9.json "$out"/fig10.json; do
    if [ ! -s "$f" ]; then
        echo "tier1: missing artifact $f"
        fail=1
        continue
    fi
    for key in protocol_parsing script_execution glue other; do
        if ! grep -q "\"$key\"" "$f"; then
            echo "tier1: $f lacks component $key"
            fail=1
        fi
    done
done
if [ "$fail" -ne 0 ]; then
    echo "tier1: repro artifact checks FAILED"
    exit 1
fi
echo "tier1: repro artifacts OK"

# Telemetry overhead bench in --test mode: one pass per benchmark, enough
# to prove the off/on pairs still build and run.
cargo bench -q -p bench --bench telemetry "$@" -- --test
