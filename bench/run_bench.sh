#!/usr/bin/env bash
# Runs the perf-trajectory benchmarks and records their metrics as JSON
# (BENCH_bdd.json, BENCH_full_pipeline.json, BENCH_scalability_acl.json)
# in the repo root, so each PR can diff its numbers against the committed
# baseline, then checks that the committed example pairs report
# byte-identically at 1 and 4 threads.
#
# Usage: bench/run_bench.sh [BUILD_DIR]   (default: build)
# Also wired as a CMake target: cmake --build build --target bench
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

if [[ ! -x "$BUILD_DIR/bench/bench_bdd" ]]; then
  echo "error: $BUILD_DIR/bench/bench_bdd not built (run: cmake --build $BUILD_DIR)" >&2
  exit 1
fi

run() {
  local name="$1"
  echo "--- $name ---"
  "$BUILD_DIR/bench/$name" --bench_out="BENCH_${name#bench_}.json" \
      --benchmark_min_time=0.1
  echo
}

run bench_bdd
run bench_full_pipeline
run bench_scalability_acl

# Thread parity on the committed university-core pair: the worker pool
# must be invisible in the report (byte-identical stdout serial and pooled).
echo "--- thread parity (threads 1 vs 4) ---"
PARITY_DIR="$(mktemp -d)"
trap 'rm -rf "$PARITY_DIR"' EXIT
run_pair() {
  local label="$1" threads="$2" config1="$3" config2="$4"
  "$BUILD_DIR/src/tools/campion" --threads="$threads" "$config1" "$config2" \
      > "$PARITY_DIR/report_${label}_t$threads.txt" || test $? -eq 2
}
run_pair v4 1 examples/configs/university_core_cisco.cfg \
    examples/configs/university_core_juniper.conf
run_pair v4 4 examples/configs/university_core_cisco.cfg \
    examples/configs/university_core_juniper.conf
cmp "$PARITY_DIR/report_v4_t1.txt" "$PARITY_DIR/report_v4_t4.txt"
echo "stdout parity: OK (report byte-identical at 1/4 threads)"

# Dual-stack (IPv6) parity on the committed dual-stack edge pair: 128-bit
# symbolic address fields run through the same pipeline, so the same
# thread invariant must hold there.
run_pair v6 1 examples/configs/dualstack_edge_cisco.cfg \
    examples/configs/dualstack_edge_juniper.conf
run_pair v6 4 examples/configs/dualstack_edge_cisco.cfg \
    examples/configs/dualstack_edge_juniper.conf
cmp "$PARITY_DIR/report_v6_t1.txt" "$PARITY_DIR/report_v6_t4.txt"
echo "stdout parity: OK (dual-stack report byte-identical at 1/4 threads)"

echo
echo "Wrote BENCH_bdd.json, BENCH_full_pipeline.json and" \
     "BENCH_scalability_acl.json"
