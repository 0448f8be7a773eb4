#!/usr/bin/env python3
"""Builds and runs the served TPC-BiH benchmark.

    python3 servebench/run.py --workload point_audit --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in BENCHMARK.json in turn. Run from the
repository root. The first run configures and compiles the
library and the servebench binary (CMake, Release) into
$CARGO_TARGET_DIR/servebench, or .bench_build/servebench when that is unset;
later runs only check that the build is current. The binary's report is
passed through; its last stdout line is the result JSON. Exit codes: the
binary's (0 correct, 1 failed gate or run, 2 usage), or 1 when the build
fails or the run times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Variables that would change what the binary measures.
SCRUBBED_ENV = ("BIH_FAULT", "BIH_SCAN_THREADS")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(out_dir):
    """Configures (once) and builds the servebench target; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under " + os.path.join(ROOT, "src"))
        return False
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "servebench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    """The checkout's commit, read from .git without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run(out_dir, workload, args):
    """Runs one workload, passing its report through; its exit code."""
    work = os.path.join(out_dir, "run", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    cmd = [os.path.join(out_dir, "servebench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work, "--git-sha", git_sha()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="tiny data scale (smoke test)")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="corrupt one expected reply (gate self-test)")
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    if args.workload != "all":
        return run(out_dir, args.workload, args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    return max(run(out_dir, w, args) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
