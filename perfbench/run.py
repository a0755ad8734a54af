#!/usr/bin/env python3
"""Build and run the serving-stack benchmark (perfbench/main.ml).

Run from the repository root:

    python3 perfbench/run.py --workload wire-stamp --seed 1 --seconds 20 --trace 0

Workloads: wire-stamp, lease-open, oneshot-inproc (see BENCHMARK.json and
perfbench/README.md).  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every stamp was served and passed the checker.

This script builds perfbench/main.exe with dune (output to stderr; the
build is not timed), prints a host header and runs the benchmark in the
repository root, killing it if it overruns.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def git_revision():
    # never look above the repository root for a .git
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ here: run from a full checkout")
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--stamps", type=int, default=0,
                    help="stamps per round (default: the workload's own)")
    ap.add_argument("--fault", default="none",
                    choices=["none", "violation", "server"],
                    help="inject a failure, to test failure accounting")
    args = ap.parse_args()
    build()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    print("# host: nproc=%s git=%s" % (nproc, git_revision()), flush=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stamps", str(args.stamps), "--fault", args.fault]
    # its own process group, so an overrun kills the server child too
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail("benchmark overran its time limit")
    sys.exit(rc)


if __name__ == "__main__":
    main()
