#!/usr/bin/env python3
"""Smoke test of the served benchmark at a tiny data scale.

    python3 servebench/smoke_test.py

Run from the repository root (builds like run.py on first use). Checks that
every workload prints every metric BENCHMARK.json names, with its unit, in
both the untraced and the traced run; that every run also reports its read
tail and error ratio, and update_mix its write latencies; that a corrupted
expected reply trips the correctness gate; and that update_mix refuses to
run with BIH_NO_FSYNC set. Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, trace, extra=(), env=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, timeout=600)
    out = proc.stdout.decode()
    lines = [l for l in out.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, out, result


def report_metric(out, name):
    """The unit a 'metric <name> <value> <unit> n=<count>' line reports."""
    m = re.search(r"^metric %s\s+(\S+)\s+(\S+)\s+n=(\d+)$" % re.escape(name),
                  out, re.M)
    return m.group(2) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out, result = run(w, trace)
            check(code == 0 and result is not None and result["correct"],
                  "%s trace=%d runs and passes its gates" % (w, trace))
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s trace=%d result has exactly the contract keys" % (w, trace))
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s trace=%d attempted >= 1 and nothing failed" % (w, trace))
            metrics = result["metrics"]
            for m in bench[key]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      "%s trace=%d prints %s in %s" % (w, trace, m["name"],
                                                       m["unit"]))
            check(set(metrics) == {m["name"] for m in bench[key]},
                  "%s trace=%d prints no metric BENCHMARK.json lacks" %
                  (w, trace))
            extra = ["read_tail_ms", "error_ratio"]
            if w == "update_mix":
                extra += ["write_p50_ms", "write_tail_ms"]
            for name in extra:
                check(report_metric(out, name) is not None,
                      "%s trace=%d reports %s with unit and count" %
                      (w, trace, name))
            check('"nproc"' in out and '"git_sha"' in out and
                  '"flush_policy"' in out,
                  "%s trace=%d records its conditions" % (w, trace))

    code, out, result = run(workloads[0], 0, ["--corrupt-expected"])
    check(code != 0 and result is not None and result["correct"] is False and
          result["failed"] >= 1,
          "a corrupted expected reply trips the correctness gate")

    env = dict(os.environ, BIH_NO_FSYNC="1")
    code, out, result = run("update_mix", 0, env=env)
    check(code != 0 and result is None,
          "update_mix refuses to run with BIH_NO_FSYNC set")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
