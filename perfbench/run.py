#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload compress|point_hot|scan_cold \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness (Release) and the library
from source under .bench_build/perfbench, runs one workload, and passes
the harness's output through. The last stdout line is the result object;
it is printed only if it names exactly the metrics BENCHMARK.json declares
for the run's kind (end_to_end without --trace, per_layer with it).
Exits non-zero when the build fails, the run fails or times out, or any
output was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures and incrementally builds the harness."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs]
    for step in (configure, compile_):
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    return BUILD / "perfbench"


def check_result(line, declared):
    """Returns an error string, or None if `line` is a valid result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return f"result line is not JSON: {err}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys: {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, or units differ"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    work_dir = BUILD / f"work-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = run.stdout.splitlines()
    if not lines:
        log(f"harness printed no result (exit code {run.returncode})")
        return 1
    error = check_result(lines[-1], declared)
    if error is not None:
        log(error)
        return 1
    print("\n".join(lines), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
