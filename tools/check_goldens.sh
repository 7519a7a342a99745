#!/bin/sh
# Golden gate for the table, figure and ablation benches.
#
# Runs each bench from a build tree and diffs its stdout against the
# checked-in bench/goldens/<bench>.txt; any byte of drift fails. The benches
# are deterministic simulations, so the output must not depend on the build
# type or on the sweep engine's job count (--jobs N; 1, the default, is the
# exact serial path).
#
# Usage: check_goldens.sh [--build DIR] [--jobs N] [bench...]
#   --build DIR  build tree holding bench/<bench> (default: build)
#   --jobs N     passed to every bench (default: 1)
#   bench...     bench names, e.g. bench_fig09_schedulers (default: every
#                bench with a golden)
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=build
JOBS=1
while [ $# -gt 0 ]; do
  case "$1" in
    --build) BUILD="$2"; shift 2 ;;
    --jobs) JOBS="$2"; shift 2 ;;
    --) shift; break ;;
    -*) echo "usage: check_goldens.sh [--build DIR] [--jobs N] [bench...]" >&2
        exit 2 ;;
    *) break ;;
  esac
done
if [ $# -eq 0 ]; then
  set -- $(cd "$ROOT/bench/goldens" && ls *.txt | sed 's/\.txt$//')
fi

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
failed=0
for bench in "$@"; do
  golden="$ROOT/bench/goldens/$bench.txt"
  if [ ! -f "$golden" ]; then
    echo "FAIL: $bench has no golden at $golden" >&2
    failed=$((failed + 1))
    continue
  fi
  if ! "$BUILD/bench/$bench" --jobs "$JOBS" > "$OUT"; then
    echo "FAIL: $bench exited nonzero" >&2
    failed=$((failed + 1))
  elif ! diff -u "$golden" "$OUT"; then
    echo "FAIL: $bench (--jobs $JOBS) differs from its golden" >&2
    failed=$((failed + 1))
  else
    echo "ok: $bench (--jobs $JOBS)"
  fi
done
if [ "$failed" -gt 0 ]; then
  echo "$failed of $# benches failed the golden check" >&2
  exit 1
fi
