#!/usr/bin/env bash
# A/B-compares two builds of the end-to-end benchmark.
#
#   bench/e2e/ab.sh <parent_build> <change_build> [pairs=10] [seed=1]
#
# Each build directory holds a campion_bench built from one commit (for
# example `cmake -S bench/e2e -B /tmp/parent && cmake --build /tmp/parent`
# in a checkout of the parent). Every workload runs `pairs` times on each
# side, alternating which side goes first, with identical settings. The
# table gives, per metric and workload, both medians and quartiles, the
# change's wins, and a verdict: improved, no worse, regressed or unresolved,
# judged against the bounds in BENCHMARK.json (README.md has the rules).
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n '2,12p' "$0" >&2
  exit 2
fi
parent="$1/campion_bench"
change="$2/campion_bench"
for binary in "$parent" "$change"; do
  if [[ ! -x "$binary" ]]; then
    echo "ab.sh: $binary is not an executable campion_bench" >&2
    exit 2
  fi
done
exec "$change" --ab_parent="$parent" --ab_change="$change" \
  --pairs="${3:-10}" --seed="${4:-1}"
