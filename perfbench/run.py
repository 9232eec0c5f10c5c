#!/usr/bin/env python3
"""Trial-level benchmark of the BTR stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/trialbench.exe from source with dune into .bench_build,
runs one workload, and relays its output. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Exits 2 when the tree holds no BTR sources to build.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ["clique_campaign", "clique_parallel", "multihop_grid", "plan_admit"]
# Workloads that run on one domain. On a shared VM one vCPU can run much
# slower than another for minutes, so a one-domain run would measure
# whichever vCPU the scheduler kept it on. Moving it round the allowed
# CPUs every ROTATE_S seconds makes every run sample all of them.
ONE_DOMAIN = {"clique_campaign", "multihop_grid", "plan_admit"}
ROTATE_S = 0.1
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "trialbench.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    return code


def run(cmd, out, rotate):
    """Runs cmd with stdout to out; returns its exit code, or None on timeout."""
    cpus = sorted(os.sched_getaffinity(0)) if rotate and hasattr(os, "sched_getaffinity") else []
    proc = subprocess.Popen(cmd, stdout=out)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    turn = 0
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                return None
            if len(cpus) > 1:
                try:
                    os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
                except OSError:
                    pass
                turn += 1
            time.sleep(ROTATE_S)
        return proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            return fail("%s not found: run from the root of a BTR source checkout" % needed, 2)

    env = dict(os.environ)
    # Keep every file dune writes inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache"))
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", "-j", "2", "./perfbench/trialbench.exe"]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        return fail("dune not found on PATH", 2)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if built.returncode != 0:
        return fail("build failed (exit %d)" % built.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(BUILD_DIR, "spans-%s.jsonl" % args.workload)]
    out_path = os.path.join(BUILD_DIR, "out-%s.txt" % args.workload)
    with open(out_path, "w") as out:
        code = run(cmd, out, args.workload in ONE_DOMAIN)
    if code is None:
        return fail("benchmark timed out after %ds" % RUN_TIMEOUT_S)
    with open(out_path) as f:
        stdout = f.read()
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code != 0:
        return fail("benchmark exited %d" % code, code)
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return fail("last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("result line has unexpected keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
