#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a fresh process (bench/perf/main.exe); its last line
of standard output is the JSON result.  The exit code is the workload's:
0 when every correctness gate passed, 1 when one failed, 2 on bad
arguments or when the tree cannot be built, and 3, with no result line,
when the workload raised an exception or ran out of time.  See README.md
beside this file for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXE = os.path.join(ROOT, "_build", "default", "bench", "perf", "main.exe")
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """Set-up (up to 45 s for hier_1024) plus the window and its legs."""
    return 100 + 3 * seconds


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a full checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./bench/perf/main.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def commit():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--commit", commit()]
    timeout = run_timeout_s(a.seconds)
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %g s" % timeout, code=3)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
