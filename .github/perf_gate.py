#!/usr/bin/env python3
"""Perf gate: time a parent and a changed checkout side by side.

    python3 .github/perf_gate.py PARENT_DIR CHANGE_DIR

Both directories are persistsim source checkouts.  The gate reads the
parent's BENCHMARK.json (it never edits it) and, for every workload it
lists, runs `python3 perfbench/run.py --workload W --seconds
<run_seconds>` in PAIRS alternating parent/change pairs.  Each run
builds its checkout and ends with one JSON line
({"correct", "attempted", "failed", "metrics"}).

The gate fails (exit 1) when a change run is not correct, when the
change's share of failed outputs exceeds the parent's, or when the
median of an end-to-end metric is worse than the parent's median by
more than the metric's bound.  A metric whose parent runs spread (the
interquartile distance over the median) by at least its bound cannot
tell a regression from noise: it is printed as "unresolved" (or as
"ok" when every change run reads better than every parent run) and
does not fail the gate.  Exit 0 means no regression; exit 2 a run
that did not produce a result.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5


def fail(msg):
    print("perf_gate: " + msg, file=sys.stderr)
    sys.exit(2)


def run(checkout, workload, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s: %s exited with %d" % (checkout, " ".join(cmd),
                                         proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    """Interquartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare(name, metric, parent, change):
    """One table row, and whether it is a regression."""
    pm, cm = statistics.median(parent), statistics.median(change)
    lower = metric["better"] == "lower"
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    noise = spread(parent)
    bound = metric["bound"]
    if noise >= bound:
        better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
        verdict = "ok (every run better)" if better else "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    else:
        verdict = "ok"
    print("  %-14s %12.5g %12.5g %+8.1f%% %8.1f%% %6.0f%%  %s" % (
        name, pm, cm, 100 * (cm - pm) / pm, 100 * noise, 100 * bound,
        verdict))
    return verdict == "REGRESSED"


def gate_workload(bench, workload, parent_dir, change_dir):
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = [("parent", parent_dir), ("change", change_dir)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            result = run(checkout, workload, bench["run_seconds"])
            runs[side].append(result)
            print("%s pair %d %s: correct %s" % (
                workload, i + 1, side, result["correct"]),
                file=sys.stderr, flush=True)
    failures = []
    if not all(r["correct"] for r in runs["change"]):
        failures.append("%s: change outputs do not match their pins"
                        % workload)

    def failed_share(side):
        return (sum(r["failed"] for r in runs[side])
                / max(1, sum(r["attempted"] for r in runs[side])))

    if failed_share("change") > failed_share("parent"):
        failures.append("%s: change fails %.3g of its outputs, parent %.3g" % (
            workload, failed_share("change"), failed_share("parent")))
    print("%s (%d pairs; medians; spread = parent IQR / median)" % (
        workload, PAIRS))
    print("  %-14s %12s %12s %9s %9s %7s  %s" % (
        "metric", "parent", "change", "delta", "spread", "bound", "verdict"))
    for metric in bench["end_to_end"]:
        name = metric["name"]

        def values(side):
            return [r["metrics"][name]["value"] for r in runs[side]]

        if compare(name, metric, values("parent"), values("change")):
            failures.append("%s %s" % (workload, name))
    return failures


def main():
    if len(sys.argv) != 3:
        fail("usage: perf_gate.py PARENT_DIR CHANGE_DIR")
    parent_dir, change_dir = (os.path.abspath(d) for d in sys.argv[1:])
    try:
        with open(os.path.join(parent_dir, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read the parent's BENCHMARK.json: %s" % e)
    failures = []
    for workload in bench["workloads"]:
        failures += gate_workload(bench, workload["name"], parent_dir,
                                  change_dir)
    if failures:
        print("perf gate: FAIL: " + "; ".join(failures))
        sys.exit(1)
    print("perf gate: pass")


if __name__ == "__main__":
    main()
