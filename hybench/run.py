#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 hybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (hybench/CMakeLists.txt) in .bench_build/ (or $CARGO_TARGET_DIR);
later calls only let CMake confirm the binaries are current. Build output
goes to stderr, so the last stdout line is the benchmark's result object.
Per-run records and span traces land in .bench_build/hybench-out/.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"hybench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core" / "apsp.hpp").is_file():
        fail(f"library sources not found under {ROOT}; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "hybench", "hybench_traced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    trace = "0"
    for flag, val in zip(args, args[1:]):
        if flag == "--trace":
            trace = val
    out = build_dir() / "hybench"
    build(out)
    binary = out / ("hybench_traced" if trace == "1" else "hybench")
    results = build_dir() / "hybench-out"
    try:
        proc = subprocess.run([str(binary), *args, "--out", str(results)], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
