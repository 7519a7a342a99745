#!/bin/sh
# Records the bench_micro_core numbers into a tracked JSON baseline at the
# repo root (default BENCH_sim.json).
#
# The file is a tracked performance baseline: re-run this script on the
# reference machine after a change that is expected to move the hot paths
# (layout mapping, access planning, scheduler picks, event engine) and commit
# the diff so reviewers see the before/after. Numbers from other machines are
# for local comparison only — don't commit them.
#
# Only a Release build may be recorded: the script reads CMAKE_BUILD_TYPE
# from <build-dir>/CMakeCache.txt, refuses anything else, and stores it as
# machine.build_type so tools/check_bench.sh can tell which build a baseline
# came from.
#
# Usage: tools/record_bench.sh [build-dir] [output.json]
#        (defaults: build BENCH_sim.json)
set -e
build_dir="${1:-build}"
out_name="${2:-BENCH_sim.json}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
bench="$repo/$build_dir/bench/bench_micro_core"
cache="$repo/$build_dir/CMakeCache.txt"

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$cache" 2>/dev/null || true)
if [ "$build_type" != "Release" ]; then
  echo "record_bench: $build_dir has build type '${build_type:-unset}';" \
       "record only from a -DCMAKE_BUILD_TYPE=Release build" >&2
  exit 1
fi

if [ ! -x "$bench" ]; then
  echo "building bench_micro_core..." >&2
  cmake --build "$repo/$build_dir" --target bench_micro_core -j "$(nproc)"
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
"$bench" --benchmark_format=json --benchmark_out="$raw" \
    --benchmark_out_format=json >&2

python3 - "$raw" "$repo/$out_name" "$build_type" <<'EOF'
import json
import platform
import sys

with open(sys.argv[1]) as f:
    raw = json.load(f)

ctx = raw.get("context", {})
benchmarks = []
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "BigO":
        continue
    benchmarks.append({
        "name": b["name"],
        "real_time_ns": round(b.get("real_time", 0.0), 2),
        "cpu_time_ns": round(b.get("cpu_time", 0.0), 2),
        "iterations": b.get("iterations", 0),
    })

out = {
    "bench": "bench_micro_core",
    "machine": {
        "host_arch": platform.machine(),
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "cpu_scaling_enabled": ctx.get("cpu_scaling_enabled"),
        "library_build_type": ctx.get("library_build_type"),
        "build_type": sys.argv[3],
    },
    "benchmarks": benchmarks,
}
with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(benchmarks)} entries)")
EOF
