#!/usr/bin/env python3
"""Builds the MimdRAID host-throughput benchmark from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds a Release copy of the library plus the
`perfbench` binary under `.bench_build/perfbench`; later calls only rebuild
what changed. The binary's output is passed through; its last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is non-zero when the build fails or any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
JSON_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    configured = (BUILD_DIR / "CMakeCache.txt").exists() and any(
        (BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = [cmake, "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step([cmake, "--build", str(BUILD_DIR), "--target", "perfbench",
                    "-j", jobs])
    return BUILD_DIR / "perfbench"


def run_build_step(cmd):
    # Build chatter goes to stderr so stdout ends with the result line.
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def source_provenance():
    """The commit when run from a git checkout, and a digest of src/."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    binary = build()
    commit, src_digest = source_provenance()
    print(f"source: commit={commit} src_sha256={src_digest}", flush=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != JSON_KEYS:
        sys.stdout.write(done.stdout)
        fail(f"perfbench printed no result line (exit {done.returncode})", 3)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or result["correct"] is not True:
        sys.exit(done.returncode or 1)


if __name__ == "__main__":
    main()
