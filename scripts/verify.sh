#!/usr/bin/env bash
# Pre-merge verify: tier-1 (full suite, release) + a build of the
# repository benchmark (perfbench) + sanitized fault/recovery
# suite (ASan + UBSan) + race check (ThreadSanitizer over the seven
# `tsan`-labelled suites: mpc_machine, mpc_interconnect, protocol_engines,
# protocol_stream_errors, protocol_hotpath, protocol_planner, serve).
# Usage: scripts/verify.sh [--full-asan]
#   default:     tier-1 everything, sanitized `faults`-labelled tests
#   --full-asan: tier-1 everything, sanitized everything
set -euo pipefail
cd "$(dirname "$0")/.."

asan_preset="asan-faults"
if [[ "${1:-}" == "--full-asan" ]]; then
  asan_preset="asan"
fi

echo "== tier-1: configure + build + ctest (preset: default) =="
cmake --preset default
cmake --build --preset default
ctest --preset default

echo "== benchmark build: perfbench over src/ alone (compiles against engine/machine internals) =="
cmake -S perfbench -B build-perfbench
cmake --build build-perfbench --target perfbench

echo "== perf smoke: bit-identity + serving + planner gates (ctest -L perf: e13/e16/e17/e18/e19/e20/e21/e22) =="
ctest --test-dir build -L perf --output-on-failure

echo "== bench summary: committed BENCH_e*.json gate verdicts =="
python3 scripts/bench_summary.py

echo "== forced-scalar: full suite on the soft-fallback kernels (DSM_FORCE_SCALAR=1) =="
DSM_FORCE_SCALAR=1 ctest --preset default

echo "== sanitized: configure + build + ctest (preset: ${asan_preset}) =="
cmake --preset asan
cmake --build --preset asan
ctest --preset "${asan_preset}"

echo "== race check: ThreadSanitizer over the multi-threaded suites (preset: tsan) =="
cmake --preset tsan
cmake --build --preset tsan
ctest --preset tsan

echo "verify: all green"
