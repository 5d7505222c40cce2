#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json ten times (seeds 1-10, run_seconds
each), then all of it a second time, and prints for every end-to-end metric
each batch's median and quartile spread as a share of the median
(statistics.quantiles(values, n=4)), and how far the second batch's median
moved from the first's:

    python3 perfbench/steadiness.py --out perfbench/steadiness.json

Run it from the repository root. perfbench/steadiness.json is the recorded
evidence behind the bounds in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
BATCHES = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: output checks failed" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    # samples[workload][metric] holds one list of RUNS values per batch.
    samples = {w: {} for w in workloads}
    for batch in range(BATCHES):
        for workload in workloads:
            for seed in range(1, RUNS + 1):
                for name, value in run_once(workload, seed, seconds).items():
                    batches = samples[workload].setdefault(name, [])
                    if len(batches) <= batch:
                        batches.append([])
                    batches[batch].append(value)

    report = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        report["workloads"][workload] = {}
        for name, batches in samples[workload].items():
            summaries = [summarize(v) for v in batches]
            first, last = summaries[0]["median"], summaries[-1]["median"]
            change = (last - first) / first if first else 0.0
            report["workloads"][workload][name] = {
                "batches": summaries, "median_change": change}
            print("%-10s %-14s median %-12.6g spread %s  median change %+6.2f%%" %
                  (workload, name, first,
                   " ".join("%5.2f%%" % (100 * s["spread"]) for s in summaries),
                   100 * change))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
