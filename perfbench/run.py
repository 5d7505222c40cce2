#!/usr/bin/env python3
"""Simulator benchmark: host cost per simulated I/O, split by layer.

Builds perfbench/ddbench (and the simulator libraries from src/) in Release
with invariants off, runs one workload in its own process, and prints a run
header line followed by one JSON result line:

    python3 perfbench/run.py --workload dd-mixed --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of the measured (untraced)
repetitions. --trace 1 reports the per-layer metrics, then runs the workload
once more with spans recorded and writes them as Chrome-trace JSON to
.bench_out/trace-<workload>-seed<seed>.json (open it in ui.perfetto.dev).
Run it from the repository root. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dd-mixed", "kv-ycsb", "blkmq-slo")
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "ddbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "ddbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("ddbench exited with code %d" % proc.returncode)
    report = json.loads(lines[-1])

    header = report["header"]
    print("run header: " + json.dumps(header, sort_keys=True))
    for failure in report["failures"]:
        print("check failed: " + failure)
    metrics = report["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": bool(report["correct"]) and header["dd_invariants"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
