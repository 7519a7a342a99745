#!/bin/sh
# Same-host A/B comparison of two revisions.
#
# Exports BASE and HEAD (default: the working tree, uncommitted edits
# included) into a scratch directory and builds each in Release. It first
# checks that both revisions simulate the same thing: one traced perfbench
# run per workload and tree (`--seed 7 --seconds 2 --trace 1`) prints, per
# workload, `identical` or the differing values of result.digest,
# sim.events, sched.picks, sched.plans_per_pick and the propagation
# counters io.disk_ops, io.retries, array.delayed_completed,
# array.delayed_forced and array.delayed_discarded. Then it runs N
# alternating pairs: every perfbench workload (`perfbench/run.py ... --trace
# 0`), the serial bench and the scheduler-pick and array-build
# micro-benchmarks, with the first side of each pair alternating between BASE
# and HEAD. It prints, per workload and metric, both sides' medians and
# interquartile ranges, the HEAD/BASE ratio of the medians, and how many
# pairs HEAD won (ties count for neither side).
#
# Every A/B uses the same fixed runs, so results from different changes
# compare: 8 s perfbench runs at seed 1 on all four workloads, the serial
# bench_abl_stripe_unit timed wall-clock, and the bench_micro_core rows
# BM_RsatfPick/256 (deep RSATF queue) and BM_SatfPick/4 (shallow SATF queue),
# per-pick real time in microseconds, plus BM_ArrayBuild/2/3 and
# BM_ArrayBuild/12/3 (one MimdRaid construction of a 2x3x1 and a 12x3x1
# mirror), real time per build in microseconds. A row that one revision does
# not have prints as absent.
#
# Usage: ab_bench.sh [-n N] [--scratch DIR] BASE [HEAD]
#   -n N            pairs per workload (default 10)
#   --scratch DIR   where the exported trees and builds live
#                   (default ${TMPDIR:-/tmp}/mimdraid-ab); a commit's tree
#                   is exported and built once and reused by later calls
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
PAIRS=10
SCRATCH=${TMPDIR:-/tmp}/mimdraid-ab
SECONDS_PER_RUN=8
SEED=1
WORKLOADS=cello_sr,deepq_mixed,raid5_rmw,ec_degraded
BENCH=bench_abl_stripe_unit
MICRO=bench_micro_core
MICRO_FILTER='^BM_(RsatfPick/256|SatfPick/4|ArrayBuild/2/3|ArrayBuild/12/3)$'
# Build parallelism, as perfbench/run.py chooses it.
JOBS=$(python3 -c 'import os; print(min(4, os.cpu_count() or 1))')
usage() {
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' \
    "$0" >&2
  exit 2
}
while [ $# -gt 0 ]; do
  case "$1" in
    -n) PAIRS="$2"; shift 2 ;;
    --scratch) SCRATCH="$2"; shift 2 ;;
    -h|--help) usage ;;
    --) shift; break ;;
    -*) usage ;;
    *) break ;;
  esac
done
[ $# -ge 1 ] && [ $# -le 2 ] || usage
mkdir -p "$SCRATCH"

# Exports one revision to $SCRATCH/<name> and prints the directory. A commit
# is exported once. The working tree is re-exported on every call into a
# fresh directory, so files deleted since the last call do not linger; its
# two build directories move across and tar keeps file times, so the builds
# only redo what changed.
export_tree() {
  if [ "$1" = WORKTREE ]; then
    dir="$SCRATCH/worktree"
    rm -rf "$dir.new"
    mkdir -p "$dir" "$dir.new"
    for build in build-release .bench_build; do
      if [ -d "$dir/$build" ]; then
        mv "$dir/$build" "$dir.new/$build"
      fi
    done
    (cd "$ROOT" && git ls-files -z -co --exclude-standard |
       tar --null -cf - -T -) | tar -xf - -C "$dir.new"
    rm -rf "$dir"
    mv "$dir.new" "$dir"
  else
    commit=$(cd "$ROOT" && git rev-parse --verify "$1^{commit}")
    dir="$SCRATCH/$commit"
    if [ ! -f "$dir/.exported" ]; then
      rm -rf "$dir"
      mkdir -p "$dir"
      (cd "$ROOT" && git archive "$commit") | tar -xf - -C "$dir"
      touch "$dir/.exported"
    fi
  fi
  echo "$dir"
}

# Builds the Release serial bench and micro-benchmarks of one exported tree
# (perfbench builds itself on its first run).
build_tree() {
  cmake -S "$1" -B "$1/build-release" -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$1/build-release" --target "$BENCH" "$MICRO" -j "$JOBS" >&2
}

BASE_DIR=$(export_tree "$1")
HEAD_DIR=$(export_tree "${2:-WORKTREE}")
echo "base: $1 -> $BASE_DIR" >&2
echo "head: ${2:-working tree} -> $HEAD_DIR" >&2
build_tree "$BASE_DIR"
build_tree "$HEAD_DIR"

exec python3 - "$BASE_DIR" "$HEAD_DIR" "$PAIRS" "$SECONDS_PER_RUN" "$SEED" \
  "$WORKLOADS" "$BENCH" "$MICRO" "$MICRO_FILTER" <<'EOF'
import json
import statistics
import subprocess
import sys
import time

(base_dir, head_dir, pairs, seconds, seed, workloads, bench, micro,
 micro_filter) = sys.argv[1:]
pairs = int(pairs)
workloads = workloads.split(",")
# metric -> True when higher is better
PERFBENCH_METRICS = {"req_per_s": True, "setup_s": False, "peak_rss_mb": False}
# Traced outputs that show two revisions simulate the same thing.
IDENTITY_METRICS = ["result.digest", "sim.events", "sched.picks",
                    "sched.plans_per_pick", "io.disk_ops", "io.retries",
                    "array.delayed_completed", "array.delayed_forced",
                    "array.delayed_discarded"]
MICRO_METRICS = {"BM_RsatfPick/256": False, "BM_SatfPick/4": False,
                 "BM_ArrayBuild/2/3": False, "BM_ArrayBuild/12/3": False}
US_PER_UNIT = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


def perfbench_metrics(tree, workload, run_seed, run_seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           run_seed, "--seconds", run_seconds, "--trace", trace]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab_bench: {' '.join(cmd)} failed in {tree}:\n"
                 f"{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.rstrip("\n").splitlines()[-1])
    if result["failed"] != 0:
        sys.exit(f"ab_bench: {workload} in {tree}: {result['failed']} failed")
    return {m: v["value"] for m, v in result["metrics"].items()}


def run_perfbench(tree, workload):
    metrics = perfbench_metrics(tree, workload, seed, seconds, "0")
    return {m: metrics[m] for m in PERFBENCH_METRICS}


def run_bench(tree, bench):
    start = time.perf_counter()
    subprocess.run([f"{tree}/build-release/bench/{bench}", "--jobs", "1"],
                   check=True, stdout=subprocess.DEVNULL)
    return {"wall_s": time.perf_counter() - start}


def run_micro(tree, micro):
    cmd = [f"{tree}/build-release/bench/{micro}",
           f"--benchmark_filter={micro_filter}", "--benchmark_format=json"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab_bench: {' '.join(cmd)} failed:\n{done.stderr}")
    return {b["name"]: b["real_time"] * US_PER_UNIT[b["time_unit"]]
            for b in json.loads(done.stdout)["benchmarks"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print("identity: perfbench --seed 7 --seconds 2 --trace 1, "
      + ", ".join(IDENTITY_METRICS))
for w in workloads:
    traced = [perfbench_metrics(tree, w, "7", "2", "1")
              for tree in (base_dir, head_dir)]
    diffs = [f"{m} {traced[0][m]} -> {traced[1][m]}"
             for m in IDENTITY_METRICS if traced[0][m] != traced[1][m]]
    print(f"  {w}: {'; '.join(diffs) if diffs else 'identical'}", flush=True)

rows = []
jobs = [(w, run_perfbench, PERFBENCH_METRICS) for w in workloads]
jobs.append((bench, run_bench, {"wall_s": False}))
jobs.append((micro, run_micro, MICRO_METRICS))
for name, runner, metrics in jobs:
    samples = {"base": [], "head": []}
    for i in range(pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            tree = base_dir if side == "base" else head_dir
            samples[side].append(runner(tree, name))
        print(f"  {name} pair {i + 1}/{pairs}", file=sys.stderr, flush=True)
    for metric, higher in metrics.items():
        base = [s[metric] for s in samples["base"] if metric in s]
        head = [s[metric] for s in samples["head"] if metric in s]
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        rows.append((name, metric, base, head, wins))

print(f"A/B: {pairs} alternating pairs per row; perfbench {seconds} s runs, "
      f"seed {seed}; wins = pairs where head beat base (ties count for neither)")
width = max([len("workload")] + [len(row[0]) for row in rows])
mwidth = max([len("metric")] + [len(row[1]) for row in rows])


def summary(xs):
    if not xs:
        return "absent"
    q = quartiles(xs)
    return f"{statistics.median(xs):.4g} [{q[0]:.4g}, {q[1]:.4g}]"


print(f"{'workload':<{width}} {'metric':<{mwidth}} "
      f"{'base median [q1, q3]':>30} {'head median [q1, q3]':>30} "
      f"{'head/base':>9} {'wins':>6}")
for name, metric, base, head, wins in rows:
    ratio, won = "", ""
    if base and head:
        bm, hm = statistics.median(base), statistics.median(head)
        ratio = f"{hm / bm:.3f}" if bm else "nan"
        won = f"{wins}/{len(base)}"
    print(f"{name:<{width}} {metric:<{mwidth}} {summary(base):>30} "
          f"{summary(head):>30} {ratio:>9} {won:>6}")
EOF
