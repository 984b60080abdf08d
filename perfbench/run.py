#!/usr/bin/env python3
"""Build the pbSE wall-clock benchmark from source and run one workload.

    python3 perfbench/run.py --workload solo-solver --seed 1 --seconds 35 --trace 0

Assembles the harness's dune project (perfbench/_harness plus a copy of
the engine's lib/) under _build_perfbench/ in the checkout, builds it in
release mode, runs it there, checks its result line and prints that line
as the last line of standard output. Exits non-zero without a result
when the engine's sources are missing, the build fails or the harness
fails. README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, "_build_perfbench")
SRC = os.path.join(WORK, "src")
BUILD_DIR = os.path.join(WORK, "build")
EXE = os.path.join(BUILD_DIR, "default", "pbse_perf.exe")
WORKLOADS = ("solo-solver", "pool-fork", "serve-mixed")
# the harness itself stops after its measured window plus set-up,
# warm-up and checks; this only guards against a hang
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    lib = os.path.join(ROOT, "lib")
    if not os.path.isdir(lib):
        fail("no lib/ here: run from a checkout of the engine's sources")
    # a fresh copy every run; copytree keeps modification times, so dune
    # rebuilds only what changed
    if os.path.exists(SRC):
        shutil.rmtree(SRC)
    shutil.copytree(os.path.join(HERE, "_harness"), SRC)
    shutil.copytree(lib, os.path.join(SRC, "lib"))
    cmd = ["dune", "build", "--root", SRC, "--build-dir", BUILD_DIR,
           "--profile", "release", "./pbse_perf.exe"]
    done = subprocess.run(cmd, cwd=SRC, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % done.returncode)


def check(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("nothing attempted")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        raise ValueError("metrics %s, expected %s" % (sorted(result["metrics"]), sorted(wanted)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=WORK, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %ds" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("harness exited %d without a result" % done.returncode)
    try:
        check(lines[-1], args.trace)
    except (ValueError, KeyError, OSError) as e:
        fail("bad result line: %s" % e)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
