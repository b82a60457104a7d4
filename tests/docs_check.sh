#!/usr/bin/env bash
# docs_check: keeps the documentation honest.
#
#   1. Extracts every fenced ```sh block from README.md and docs/*.md and
#      runs it line-by-line against the built tree. A line passes when it
#      exits 0 or 2 (2 is the CLI's "differences found" status). Blocks
#      preceded by an HTML comment `<!-- docs-check: skip -->` are not run
#      (use it for illustrative output or heavy commands like full builds).
#      Occurrences of `build/` in a command resolve to the actual build
#      directory, so docs can show the conventional layout.
#   2. Cross-checks docs/cli.md against `campion --help` and
#      `campion_serve --help`: every flag a binary advertises must be
#      documented, and every flag the manual documents must exist in one
#      of them.
#   3. Cross-checks docs/daemon.md against the daemon: every campion_serve
#      flag must appear in the API reference, and every documented
#      endpoint path must be one the daemon actually serves (and vice
#      versa for the canonical endpoint list below).
#   4. Checks quoted benchmark numbers. A number preceded on its line by
#      `<!-- bench: FILE KEY -->` (FILE a committed BENCH_*.json in the
#      repo root) must equal that file's KEY rounded to the precision
#      quoted: "1.00" passes for 1.00343, "0.0406" for 0.0406458. A number
#      followed by `%` is compared against KEY × 100, so "+4.1%" passes
#      for 0.0406458. A leading U+2212 minus reads as "-". Markdown
#      emphasis or backticks may sit between the comment and the number. Scanned: README.md, DESIGN.md,
#      EXPERIMENTS.md and docs/*.md.
#
# Usage: docs_check.sh <source_dir> <build_dir> <campion_binary> \
#                      <campion_serve_binary>

set -u

SRC_DIR=$1
BUILD_DIR=$2
CAMPION=$3
CAMPION_SERVE=$4

failures=0

# Fenced blocks run in a scratch directory that mirrors the repo layout
# for read-only inputs (examples/, docs/) so relative paths in the docs
# work while any files the commands write stay out of the source tree.
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
ln -s "$SRC_DIR/examples" "$WORKDIR/examples"
ln -s "$SRC_DIR/docs" "$WORKDIR/docs"

run_line() {
  local file=$1 lineno=$2 cmd=$3
  # Map the documented `build/...` paths onto the real build directory.
  # Normalize "./build/" first so one substitution covers both spellings
  # (the replacement text of ${var//} is not rescanned, so a BUILD_DIR
  # that itself ends in "build" cannot recurse).
  cmd=${cmd//.\/build\//build\/}
  cmd=${cmd//build\//$BUILD_DIR/}
  ( cd "$WORKDIR" && eval "$cmd" ) >/dev/null 2>&1
  local status=$?
  if [ $status -ne 0 ] && [ $status -ne 2 ]; then
    echo "FAIL $file:$lineno: exit $status: $cmd"
    failures=$((failures + 1))
  else
    echo "ok   $file:$lineno: $cmd"
  fi
}

check_file() {
  local file=$1
  local in_block=0 skip_next=0 lineno=0 pending="" block_skipped=0
  while IFS= read -r line || [ -n "$line" ]; do
    lineno=$((lineno + 1))
    if [ $in_block -eq 0 ]; then
      case $line in
        *'<!-- docs-check: skip -->'*) skip_next=1 ;;
        '```sh'*)
          in_block=1
          block_skipped=$skip_next
          skip_next=0
          ;;
        '```'*) skip_next=0 ;;  # Non-sh fence: the marker, if any, is spent.
      esac
      continue
    fi
    if [ "$line" = '```' ]; then
      in_block=0
      pending=""
      continue
    fi
    [ "$block_skipped" -eq 1 ] && continue
    case $line in
      ''|'#'*) continue ;;  # Blank lines and comments.
    esac
    # Stitch backslash continuations into one command.
    case $line in
      *\\)
        pending="$pending${line%\\} "
        continue
        ;;
    esac
    run_line "${file#"$SRC_DIR"/}" "$lineno" "$pending$line"
    pending=""
  done < "$file"
}

echo "== running fenced sh blocks =="
check_file "$SRC_DIR/README.md"
for doc in "$SRC_DIR"/docs/*.md; do
  check_file "$doc"
done

echo "== cross-checking docs/cli.md against --help =="
help_text=$("$CAMPION" --help; "$CAMPION_SERVE" --help)
help_flags=$(printf '%s\n' "$help_text" | grep -oE -- '--[a-z][a-z0-9_-]*' | sort -u)
doc_flags=$(grep -oE -- '--[a-z][a-z0-9_-]*' "$SRC_DIR/docs/cli.md" | sort -u)
for flag in $help_flags; do
  if ! printf '%s\n' "$doc_flags" | grep -qx -- "$flag"; then
    echo "FAIL docs/cli.md does not document $flag"
    failures=$((failures + 1))
  fi
done
for flag in $doc_flags; do
  case $flag in
    # Flags of the bench binaries, not of campion; cli.md may mention them
    # in its see-also section.
    --bench_out|--benchmark_min_time|--benchmark_filter) continue ;;
  esac
  if ! printf '%s\n' "$help_flags" | grep -qx -- "$flag"; then
    echo "FAIL docs/cli.md documents unknown flag $flag"
    failures=$((failures + 1))
  fi
done

echo "== cross-checking docs/daemon.md against campion_serve =="
DAEMON_MD=$SRC_DIR/docs/daemon.md
if [ ! -f "$DAEMON_MD" ]; then
  echo "FAIL docs/daemon.md is missing"
  failures=$((failures + 1))
else
  serve_flags=$("$CAMPION_SERVE" --help | grep -oE -- '--[a-z][a-z0-9_-]*' | sort -u)
  for flag in $serve_flags; do
    if ! grep -qF -- "$flag" "$DAEMON_MD"; then
      echo "FAIL docs/daemon.md does not document $flag"
      failures=$((failures + 1))
    fi
  done
  # The daemon's endpoint table, kept in sync with DiffService::Handle.
  for endpoint in /healthz /metrics /diff /batch /sessions /debug/requests /debug/result_cache /debug/sessions; do
    if ! grep -qF -- "$endpoint" "$DAEMON_MD"; then
      echo "FAIL docs/daemon.md does not document endpoint $endpoint"
      failures=$((failures + 1))
    fi
  done
  # Conversely, refuse paths documented as endpoints but never implemented:
  # any `/word` rendered in backticks must be a known prefix.
  while IFS= read -r documented; do
    case $documented in
      /healthz|/metrics|/diff|/batch|/sessions|/sessions/*|/debug/requests|/debug/requests/*|/debug/result_cache|/debug/sessions) ;;
      *)
        echo "FAIL docs/daemon.md documents unknown endpoint $documented"
        failures=$((failures + 1))
        ;;
    esac
  done < <(grep -oE '`(GET|PUT|POST|DELETE) /[^`]*`' "$DAEMON_MD" \
             | sed -E 's/`[A-Z]+ ([^`?]*).*/\1/' | sort -u)
fi

echo "== checking bench-annotated numbers against committed BENCH files =="
# Prints KEY's number in FILE (a flat JSON object of one key per line, as
# bench_util writes them), or nothing when the key is missing.
bench_value() {
  sed -nE "s/^[[:space:]]*\"$2\":[[:space:]]*([-+0-9.eE]+),?[[:space:]]*$/\1/p" \
    "$1" | head -n 1
}
check_bench_numbers() {
  local file=$1 rel=${1#"$SRC_DIR"/} lineno=0 line rest
  local re='^<!-- bench: ([^ ]+) ([^ ]+) -->[*`[:space:]]*((−|[-+])?[0-9]+(\.[0-9]+)?)(%?)'
  while IFS= read -r line || [ -n "$line" ]; do
    lineno=$((lineno + 1))
    rest=$line
    while [[ $rest == *'<!-- bench:'* ]]; do
      rest=${rest#*'<!-- bench:'}
      if [[ "<!-- bench:$rest" =~ $re ]]; then
        local bench=${BASH_REMATCH[1]} key=${BASH_REMATCH[2]}
        local quoted=${BASH_REMATCH[3]} percent=${BASH_REMATCH[6]}
        quoted=${quoted/−/-}  # Prose writes minus as U+2212.
        local value=""
        [ -f "$SRC_DIR/$bench" ] && value=$(bench_value "$SRC_DIR/$bench" "$key")
        if [ -z "$value" ]; then
          echo "FAIL $rel:$lineno: no key $key in $bench"
          failures=$((failures + 1))
          continue
        fi
        local fraction=${quoted#*.} digits=0
        [ "$fraction" != "$quoted" ] && digits=${#fraction}
        local expected
        expected=$(LC_ALL=C awk -v v="$value" -v d="$digits" -v p="$percent" \
          'BEGIN { if (p == "%") v *= 100; printf "%.*f", d, v }')
        # A leading + is prose; the rounded value never carries one.
        if [ "${quoted#+}" != "$expected" ]; then
          echo "FAIL $rel:$lineno: quotes $quoted$percent but $bench $key = $value (expected $expected$percent)"
          failures=$((failures + 1))
        else
          echo "ok   $rel:$lineno: $key $quoted$percent"
        fi
      else
        echo "FAIL $rel:$lineno: bench annotation not followed by a number"
        failures=$((failures + 1))
      fi
    done
  done < "$file"
}
for doc in "$SRC_DIR"/README.md "$SRC_DIR"/DESIGN.md "$SRC_DIR"/EXPERIMENTS.md \
           "$SRC_DIR"/docs/*.md; do
  [ -f "$doc" ] && check_bench_numbers "$doc"
done

if [ $failures -ne 0 ]; then
  echo "docs_check: $failures failure(s)"
  exit 1
fi
echo "docs_check: all documentation commands and flags verified"
