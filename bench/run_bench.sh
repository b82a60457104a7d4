#!/usr/bin/env bash
# Runs the perf-trajectory benchmarks and records their metrics as JSON
# (BENCH_bdd.json, BENCH_full_pipeline.json) in the repo root, so each PR
# can diff its numbers against the committed baseline.
#
# Also captures a campion-format trace of the university-core comparison
# (BENCH_trace_full_pipeline.json). The previous trace, if any, is archived
# to BENCH_trace_full_pipeline.prev.json first, and the run ends with a
# campion_trace_diff table of previous vs current (report only — the CI
# smoke job is what gates).
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
run bench_serve
run bench_fleet
run bench_scalability_acl

# Trace capture: one serial run of the committed university-core pair.
# --threads=1 plus the deterministic trace structure make the file
# diffable across machines and PRs (only timings and RSS vary).
TRACE=BENCH_trace_full_pipeline.json
echo "--- trace capture ($TRACE) ---"
if [[ -f "$TRACE" ]]; then
  cp "$TRACE" "${TRACE%.json}.prev.json"
fi
"$BUILD_DIR/src/tools/campion" --threads=1 --quiet --trace_out="$TRACE" \
    examples/configs/university_core_cisco.cfg \
    examples/configs/university_core_juniper.conf || status=$?
case "${status:-0}" in
  0|2) ;;  # 2 = differences found, expected for this pair.
  *) echo "error: trace capture failed (exit ${status})" >&2; exit 1 ;;
esac

if [[ -f "${TRACE%.json}.prev.json" ]]; then
  echo
  echo "--- trace diff (previous run vs this run) ---"
  "$BUILD_DIR/src/tools/campion_trace_diff" \
      "${TRACE%.json}.prev.json" "$TRACE" || true
fi

# Thread parity on the same committed pair: the worker pool must be
# invisible in the report (byte-identical stdout serial and pooled).
echo
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
echo "Wrote BENCH_bdd.json, BENCH_full_pipeline.json, BENCH_serve.json," \
     "BENCH_fleet.json, BENCH_scalability_acl.json, and $TRACE"
