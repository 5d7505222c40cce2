#!/usr/bin/env python3
"""perfgate: the simulator's perf gate, perfbench at a base tree against HEAD.

    python3 tools/perfgate.py BASE_TREE HEAD_TREE

Runs PAIRS alternating pairs of `perfbench/run.py --seed 1 --seconds 3`
per BENCHMARK.json workload, each tree from its own checkout and build, and
exits 1 with every reason when a run is not correct, a HEAD run header is
off HEAD's tools/perfbench-fingerprints.txt, or HEAD is slower on a
workload both trees name (signed-rank p <= ALPHA and a median more than
MIN_SLOWDOWN below the base's). The level assumes a pair's two runs are
exchangeable under no change. The table also prints each side's median
SETUP_METRIC and RSS_METRIC, which are reported and not gated. See
EXPERIMENTS.md "Perf gate".
"""

import itertools
import json
import math
import os
import statistics
import subprocess
import sys

PAIRS = 10
SEED = 1
SECONDS = 3
METRIC = "sim_ios_per_s"
SETUP_METRIC = "setup_s"
RSS_METRIC = "peak_rss_mb"
ALPHA = 0.005
MIN_SLOWDOWN = 0.05


def workloads_of(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def read_pins(path):
    """tools/perfbench-fingerprints.txt -> {workload: (fingerprint, events)}."""
    pins = {}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if len(fields) == 3 and not fields[0].startswith("#"):
                pins[fields[0]] = (fields[1], fields[2])
    return pins


def parse_run(stdout):
    """One run.py output -> {"header", "correct", "failed", "rate", "setup",
    "rss"}."""
    run = {"header": None, "correct": None, "failed": None, "rate": None,
           "setup": None, "rss": None}
    lines = stdout.strip().splitlines()
    for line in lines:
        if line.startswith("run header: "):
            run["header"] = json.loads(line[len("run header: "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return run
    run["correct"] = result.get("correct")
    run["failed"] = result.get("failed")
    metrics = result.get("metrics", {})
    run["rate"] = metrics.get(METRIC, {}).get("value")
    run["setup"] = metrics.get(SETUP_METRIC, {}).get("value")
    run["rss"] = metrics.get(RSS_METRIC, {}).get("value")
    return run


def run_once(tree, workload):
    env = dict(os.environ)
    # run.py honours CARGO_TARGET_DIR as its build dir; unset, each tree
    # builds into its own .bench_build.
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return parse_run("")  # no result: the run is not correct
    return parse_run(proc.stdout)


def signed_rank_p(pairs):
    """Exact one-sided Wilcoxon signed-rank p that HEAD is slower, over
    all 2^n won/lost patterns of the (base, head) pairs. Ties drop out.
    """
    logs = [math.log(h / b) for b, h in pairs if h != b]
    sizes = sorted(abs(x) for x in logs)
    ranks = [statistics.mean(i + 1 for i, size in enumerate(sizes)
                             if size == abs(x)) for x in logs]
    lost = sum(r for r, x in zip(ranks, logs) if x < 0)
    sums = [sum(itertools.compress(ranks, signs))
            for signs in itertools.product((0, 1), repeat=len(ranks))]
    return sum(total >= lost for total in sums) / len(sums)


def median_of(runs, key):
    values = [run[key] for run in runs if run[key] is not None]
    return statistics.median(values) if values else None


def judge(workload, base, head, pin):
    """The verdict on one workload, a pure function of its run pairs:
    (row, reasons). base[i] and head[i] are pair i's parsed runs; base is
    None for a workload only HEAD names; pin is HEAD's pinned header.
    """
    reasons = []
    for side, runs in (("base", base or []), ("HEAD", head)):
        for i, run in enumerate(runs):
            if run["correct"] is not True or run["failed"] != 0:
                reasons.append(
                    f"{workload}: {side} run {i + 1} printed correct: "
                    f"{run['correct']}, failed: {run['failed']}")
    for i, run in enumerate(head):
        header = run["header"] or {}
        got = (str(header.get("fingerprint")),
               str(header.get("events_per_rep")))
        if got != pin:
            reasons.append(
                f"{workload}: HEAD run {i + 1} header (fingerprint, "
                f"events_per_rep) {got} differs from the pin {pin}")
    pairs = [(b["rate"], h["rate"]) for b, h in zip(base or [], head)
             if b["rate"] is not None and h["rate"] is not None]
    wins = sum(h > b for b, h in pairs)
    losses = sum(h < b for b, h in pairs)
    row = {"workload": workload, "base": median_of(base or [], "rate"),
           "head": median_of(head, "rate"), "ratio": None, "p": None,
           "wins": wins, "losses": losses,
           "base_setup": median_of(base or [], "setup"),
           "head_setup": median_of(head, "setup"),
           "base_rss": median_of(base or [], "rss"),
           "head_rss": median_of(head, "rss")}
    if pairs:
        row["ratio"] = row["head"] / row["base"]
        row["p"] = signed_rank_p(pairs)
        if row["p"] <= ALPHA and 1 - row["ratio"] > MIN_SLOWDOWN:
            reasons.append(
                f"{workload}: HEAD is slower (signed-rank p = "
                f"{row['p']:.4f}, lost {losses} of {len(pairs)} pairs) and "
                f"its median {METRIC} is {1 - row['ratio']:.1%} below the "
                f"base's, beyond the {MIN_SLOWDOWN:.0%} bound")
    row["verdict"] = "FAIL" if reasons else "pass"
    if base is None:
        row["verdict"] += " (HEAD only)"
    return row, reasons


def table(rows):
    def num(x, fmt):
        return "-" if x is None else format(x, fmt)
    def ms(seconds):
        return num(None if seconds is None else seconds * 1e3, ".2f")
    out = [f"| workload | base median {METRIC} | HEAD median | HEAD/base | "
           "HEAD wins/losses | signed-rank p | verdict | "
           f"base median {SETUP_METRIC} (ms) | HEAD median (ms) | "
           f"base median {RSS_METRIC} (MB) | HEAD median (MB) |",
           "|---|---|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        out.append(
            f"| {r['workload']} | {num(r['base'], '.0f')} | "
            f"{num(r['head'], '.0f')} | {num(r['ratio'], '.3f')} | "
            f"{r['wins']}/{r['losses']} | {num(r['p'], '.4f')} | "
            f"{r['verdict']} | {ms(r['base_setup'])} | "
            f"{ms(r['head_setup'])} | {num(r['base_rss'], '.2f')} | "
            f"{num(r['head_rss'], '.2f')} |")
    return "\n".join(out)


def main(argv):
    if len(argv) != 3:
        sys.stderr.write("usage: perfgate.py BASE_TREE HEAD_TREE\n")
        return 2
    trees = {"base": os.path.abspath(argv[1]),
             "HEAD": os.path.abspath(argv[2])}
    base_workloads = set(workloads_of(trees["base"]))
    pins = read_pins(os.path.join(trees["HEAD"], "tools",
                                  "perfbench-fingerprints.txt"))
    rows, reasons = [], []
    for workload in workloads_of(trees["HEAD"]):
        runs = {"base": [], "HEAD": []}
        for i in range(PAIRS):
            order = ("base", "HEAD") if i % 2 == 0 else ("HEAD", "base")
            for side in order:
                if side == "base" and workload not in base_workloads:
                    continue
                run = run_once(trees[side], workload)
                runs[side].append(run)
                sys.stderr.write(f"perfgate: {workload} pair {i + 1}/{PAIRS} "
                                 f"{side}: {METRIC} {run['rate']}\n")
        row, why = judge(workload, runs["base"] or None, runs["HEAD"],
                         pins.get(workload))
        rows.append(row)
        reasons += why
    print(table(rows))
    print()
    for reason in reasons:
        print(f"- {reason}")
    print("perfgate: FAIL" if reasons else "perfgate: pass")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
