#!/usr/bin/env python3
"""End-to-end benchmark of the SUPReMM pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload adhoc|ingest|federated \
        --seed N --seconds S --trace 0|1

Builds the library and the benchmark driver from this checkout's sources
(CMake, into .bench_build or $CARGO_TARGET_DIR), runs one workload, and
prints the host record, the correctness gates and every metric by name with
its unit. The last line of stdout is the result as one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run, whose
spans are kept in .perfbench_work/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adhoc", "ingest", "federated")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the driver path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SUPReMM sources next to perfbench/ (expected src/CMakeLists.txt)")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *generator, "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def check(result, trace):
    """The last line must be the result object with finite metric values."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no attempted operations")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not math.isfinite(m["value"]):
            fail("bad metric %s: %r" % (name, m))
    if not trace and "setup_s" not in result["metrics"]:
        fail("untraced run reported no setup_s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    work = os.path.join(ROOT, ".perfbench_work")
    run_dir = os.path.join(work, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    trace_file = os.path.join(run_dir, "trace-%s.jsonl" % args.workload)
    if os.path.isfile(trace_file):
        os.replace(trace_file, os.path.join(
            work, "trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line")
    check(result, args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
