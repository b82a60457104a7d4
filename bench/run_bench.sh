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

# Encoding-template A/B on the same committed pair: the template must be
# invisible in the report (byte-identical stdout with the flag off or on)
# and visible in the trace (an encode_template span and a smaller encode
# phase). The trace diff is report-only here — the extra encode_template
# span is a deliberate structural difference between the two traces, so
# --fail_if_unmatched does not apply; the CI smoke job runs the same A/B.
echo
echo "--- encoding template A/B (off vs on) ---"
AB_DIR="$(mktemp -d)"
trap 'rm -rf "$AB_DIR"' EXIT
run_ab() {
  local mode="$1"
  "$BUILD_DIR/src/tools/campion" --threads=1 --encoding_template="$mode" \
      --trace_out="$AB_DIR/trace_$mode.json" \
      examples/configs/university_core_cisco.cfg \
      examples/configs/university_core_juniper.conf \
      > "$AB_DIR/report_$mode.txt" || test $? -eq 2
}
run_ab off
run_ab on
cmp "$AB_DIR/report_off.txt" "$AB_DIR/report_on.txt"
echo "stdout parity: OK (report byte-identical with the template off and on)"
"$BUILD_DIR/src/tools/campion_trace_diff" \
    "$AB_DIR/trace_off.json" "$AB_DIR/trace_on.json" || true

# Dual-stack (IPv6) parity on the committed dual-stack edge pair: 128-bit
# symbolic address fields run through the same pipeline, so the same
# threads/template invariants must hold there.
echo
echo "--- dual-stack parity (threads x template) ---"
run_v6() {
  local threads="$1" tmpl="$2"
  "$BUILD_DIR/src/tools/campion" --threads="$threads" \
      --encoding_template="$tmpl" \
      examples/configs/dualstack_edge_cisco.cfg \
      examples/configs/dualstack_edge_juniper.conf \
      > "$AB_DIR/report_v6_${threads}_${tmpl}.txt" || test $? -eq 2
}
run_v6 1 on
run_v6 4 on
run_v6 1 off
run_v6 4 off
cmp "$AB_DIR/report_v6_1_on.txt" "$AB_DIR/report_v6_4_on.txt"
cmp "$AB_DIR/report_v6_1_on.txt" "$AB_DIR/report_v6_1_off.txt"
cmp "$AB_DIR/report_v6_1_on.txt" "$AB_DIR/report_v6_4_off.txt"
echo "stdout parity: OK (dual-stack report byte-identical at 1/4 threads, template off/on)"

echo
echo "Wrote BENCH_bdd.json, BENCH_full_pipeline.json, BENCH_serve.json," \
     "BENCH_fleet.json, BENCH_scalability_acl.json, and $TRACE"
