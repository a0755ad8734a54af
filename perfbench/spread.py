#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [workload ...]

Runs the benchmark --runs times per workload, each with another seed,
and prints each end-to-end metric's median and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
A spread should stay below a third of its bound (setup_s excepted).
Exits 1 if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for wl in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0]) if last[0].startswith("{") else {}
            if out.returncode != 0 or not result.get("correct"):
                print("%s seed %d FAILED (exit %d)\n%s" % (
                    wl, seed, out.returncode, out.stderr[-2000:]))
                status = 1
                continue
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print("%s (%d runs)" % (wl, len(values.get("setup_s", []))))
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if k == "setup_s" or spread < bounds[k] / 3 else "  <-- wide"
            print("  %-18s median %12.4f  spread %6.3f  bound %.2f%s" % (
                k, med, spread, bounds[k], flag))
        sys.stdout.flush()
    sys.exit(status)


if __name__ == "__main__":
    main()
