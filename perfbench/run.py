#!/usr/bin/env python3
"""Build anorad and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Everything the run builds or writes
(dune's build tree, the daemon's stderr, Chrome traces, temporary files)
lands under .bench_build/ in that checkout.  The last line of standard
output is the result JSON; the exit code is 0 only when every output
matched its reference.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["serve-distinct", "serve-repeat", "mc-explore", "churn-flaps"]
BUILD = ".bench_build"
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(env):
    for need in ("dune-project", os.path.join("lib", "serve"), "bin"):
        if not os.path.exists(need):
            fail("no %s here: run from the root of a checkout" % need)
    cmd = [
        "dune", "build", "--root", ".", "--build-dir",
        os.path.abspath(os.path.join(BUILD, "dune")), "--profile", "release",
        "./perfbench/perfbench.exe", "./bin/anorad.exe",
    ]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)
    exe = os.path.join(BUILD, "dune", "default", "perfbench", "perfbench.exe")
    anorad = os.path.join(BUILD, "dune", "default", "bin", "anorad.exe")
    return os.path.abspath(exe), os.path.abspath(anorad)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    out = os.path.abspath(os.path.join(BUILD, "out"))
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD, "cache")))
    os.makedirs(out, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    exe, anorad = build(env)

    if a.selftest:
        cmd = [exe, "--selftest"]
    else:
        cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--anorad", anorad, "--jobs", str(cores()), "--out", out]
    try:
        r = subprocess.run(cmd, env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
