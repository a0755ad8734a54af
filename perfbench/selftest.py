#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size (about 15 seconds).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and for lease-open (kept out of
BENCHMARK.json, see README.md), it runs one untraced and one traced
pass with a few hundred stamps per round, and asserts that the run exits
0, that every stamp passed the checker, and that the result prints every
end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json with its unit and nothing else.  Then it injects failures:
a checker violation and a server that will not start must each exit
nonzero with correct=false, failed>0 and every metric still printed; and
the benchmark copied alone, without the repository, must exit nonzero
without a result.  Exits 1 on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMPS = "400"


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check(cond, what, out=None):
    if not cond:
        print("FAIL: " + what)
        if out is not None:
            print(out.stdout[-3000:])
            print(out.stderr[-3000:])
        sys.exit(1)


def result_of(out):
    lines = out.stdout.strip().splitlines()
    check(lines and lines[-1].startswith("{"), "last line is the JSON result", out)
    res = json.loads(lines[-1])
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          "result has exactly the four keys", out)
    return res


def check_metrics(res, expected, what, out):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(got == want, "%s: metrics and units match BENCHMARK.json "
          "(missing %s, extra %s)" % (
              what, sorted(set(want) - set(got)), sorted(set(got) - set(want))),
          out)
    for k, v in res["metrics"].items():
        check(isinstance(v["value"], (int, float)), "%s: %s is a number" % (what, k))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for wl in [w["name"] for w in bench["workloads"]] + ["lease-open"]:
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            what = "%s --trace %s" % (wl, trace)
            out = run(["--workload", wl, "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--stamps", STAMPS])
            check(out.returncode == 0, what + ": exit 0", out)
            res = result_of(out)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  what + ": every stamp served and checked", out)
            check("check=OK" in out.stdout and "FAILED" not in out.stdout,
                  what + ": checker verdict OK on every round", out)
            check_metrics(res, expected, what, out)
            print("ok   " + what)
    for wl, fault in (("wire-stamp", "violation"), ("oneshot-inproc", "violation"),
                      ("wire-stamp", "server")):
        what = "%s --fault %s" % (wl, fault)
        out = run(["--workload", wl, "--seed", "1", "--seconds", "1",
                   "--trace", "0", "--stamps", STAMPS, "--fault", fault])
        check(out.returncode != 0, what + ": nonzero exit", out)
        res = result_of(out)
        check(not res["correct"] and res["failed"] > 0,
              what + ": correct=false and failed>0", out)
        check_metrics(res, bench["end_to_end"], what, out)
        print("ok   " + what)
    # the benchmark alone, without the repository it measures
    alone = os.path.join(ROOT, ".perfbench", "alone")
    shutil.rmtree(alone, ignore_errors=True)
    os.makedirs(alone)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(["--workload", "wire-stamp", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=alone)
        check(out.returncode != 0 and "{" not in out.stdout,
              "alone: nonzero exit and no result", out)
        print("ok   benchmark alone exits %d" % out.returncode)
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    print("selftest: all passed")


if __name__ == "__main__":
    main()
