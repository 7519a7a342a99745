#!/bin/sh
# Compares a fresh bench_micro_core run against the committed baseline
# (BENCH_sim.json) and fails if any benchmark regressed by more than the
# threshold (default 15%). Used by the `perf` CI job as a coarse tripwire
# against accidental hot-path regressions; benchmarks present on only one
# side (added or retired) are reported but never fail the check. It prints
# the baseline's CMAKE_BUILD_TYPE (machine.build_type, written by
# tools/record_bench.sh) next to this build's, and warns when they differ.
#
# Usage: tools/check_bench.sh [build-dir] [baseline.json] [threshold-pct]
#        (defaults: build BENCH_sim.json 15)
set -e
build_dir="${1:-build}"
baseline_name="${2:-BENCH_sim.json}"
threshold="${3:-15}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
baseline="$repo/$baseline_name"
bench="$repo/$build_dir/bench/bench_micro_core"
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
    "$repo/$build_dir/CMakeCache.txt" 2>/dev/null || true)

if [ ! -f "$baseline" ]; then
  echo "check_bench: no baseline at $baseline" >&2
  exit 1
fi
if [ ! -x "$bench" ]; then
  echo "building bench_micro_core..." >&2
  cmake --build "$repo/$build_dir" --target bench_micro_core -j "$(nproc)"
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
# Repetitions damp scheduler jitter on shared CI runners; compare medians.
"$bench" --benchmark_format=json --benchmark_out="$raw" \
    --benchmark_out_format=json --benchmark_repetitions=3 >&2

python3 - "$raw" "$baseline" "$threshold" "$build_type" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    raw = json.load(f)
with open(sys.argv[2]) as f:
    base = json.load(f)
threshold = float(sys.argv[3])

base_type = base.get("machine", {}).get("build_type") or "unrecorded"
cur_type = sys.argv[4] or "unset"
print(f"  build type: baseline {base_type}, current {cur_type}")
if base_type != cur_type:
    print(f"check_bench: warning: baseline build type {base_type} differs from "
          f"current {cur_type}; timings may not be comparable", file=sys.stderr)

# Median-of-repetitions where present, plain runs otherwise. BigO/RMS
# aggregates are fit parameters, not timings; skip them.
current = {}
for b in raw.get("benchmarks", []):
    name = b["name"]
    if b.get("run_type") == "aggregate":
        if b.get("aggregate_name") != "median":
            continue
        name = name.rsplit("_median", 1)[0]
    current[name] = b.get("cpu_time", 0.0)

failures = []
for entry in base.get("benchmarks", []):
    name = entry["name"]
    if "BigO" in name or "RMS" in name:
        continue
    if name not in current:
        print(f"  [gone] {name} (in baseline, not in this run)")
        continue
    old = entry["cpu_time_ns"]
    new = current[name]
    delta = 100.0 * (new - old) / old if old > 0 else 0.0
    marker = "REGRESSED" if delta > threshold else "ok"
    print(f"  [{marker}] {name}: {old:.1f} -> {new:.1f} ns ({delta:+.1f}%)")
    if delta > threshold:
        failures.append(name)

for name in sorted(set(current) - {e["name"] for e in base.get("benchmarks", [])}):
    if "BigO" not in name and "RMS" not in name:
        print(f"  [new] {name} (not in baseline)")

if failures:
    print(f"check_bench: {len(failures)} benchmark(s) regressed more than "
          f"{threshold:.0f}% vs {sys.argv[2]}", file=sys.stderr)
    sys.exit(1)
print("check_bench: all benchmarks within threshold")
EOF
