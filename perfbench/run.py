#!/usr/bin/env python3
"""persistsim benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload repro-sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                # every workload, seed 0, 20 s each
    python3 perfbench/run.py --write-pins   # re-pin the simulated outputs

Run it from the root of a source checkout.  It builds
perfbench/main.exe with dune, runs the workload in a process of its
own on one domain, checks every simulated output against
perfbench/pins.json, prints each metric by name with its unit, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
the per-layer ones, from traced rounds run alongside untraced ones.
Results, environment and the traced spans are also written under
perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
PINS = os.path.join(BENCH_DIR, "pins.json")
RESULTS = os.path.join(BENCH_DIR, "results")

WORKLOADS = ["repro-sweep", "crash-lockfree", "recover-kv"]
# The pinned outputs cover input seeds 0..INPUT_SEEDS-1; --seed n runs
# input seed n mod INPUT_SEEDS, and an untraced run's output check also
# runs the held-out input seed (n + HELD_OUT) mod INPUT_SEEDS.
INPUT_SEEDS = 16
HELD_OUT = INPUT_SEEDS // 2
SETUPS = 7
# The nominal time of main.exe's reference computation: the time it
# takes on a quiet 2-core Xeon host, to which all times are corrected.
REFERENCE_S = 0.04


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s here: run from the root of a persistsim checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("build failed")


def run_exe(workload, seed, seconds, trace, setups, spans_out=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setups", str(setups)]
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_sets(raw):
    """Every round's outputs, untraced and traced."""
    return [r["outputs"] for r in raw["rounds"] + raw["traced"]]


def check(raw, pins):
    """(attempted, failed, first mismatch) against the pinned values."""
    pinned = pins.get(raw["workload"], {}).get(str(raw["seed"]))
    if pinned is None:
        return 1, 1, ("pins for input seed %d" % raw["seed"], "present", None)
    pairs = [(pinned["round"], got) for got in output_sets(raw)]
    pairs.append((pinned["final"], raw["final"]))
    attempted = failed = 0
    first = None
    for want, got in pairs:
        for key in sorted(set(want) | set(got)):
            attempted += 1
            if want.get(key) != got.get(key):
                failed += 1
                first = first or (key, want.get(key), got.get(key))
    return attempted, failed, first


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def environment(raw):
    git = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True)
        git = proc.stdout.strip() or git
    return {"nproc": os.cpu_count(), "jobs": 1, "ocaml": raw["ocaml"],
            "git_describe": git}


def coverage(raw):
    outs = raw["rounds"][0]["outputs"]
    return {k: v for k, v in outs.items()
            if k.endswith(".complete") or ".cuts_" in k or k.startswith("cuts_")}


def low(samples):
    """The lower quartile: the time of a round that other tenants did not
    slow down, which repeats far better than the median on a shared host."""
    return statistics.quantiles(samples, n=4)[0]


def raw_times(raw):
    rounds = raw["rounds"]
    return {
        "setup_s": low(raw["setup_s"]),
        "wall_s": low([r["wall_s"] for r in rounds]),
        "cpu_s": low([r["cpu_s"] for r in rounds]),
    }


def end_to_end(raw):
    """Times are host-speed corrected: each is scaled by REFERENCE_S over
    the lower quartile of the reference computation's times, taken next
    to it (after every set-up and every round), so they read as seconds
    on a host where the reference takes REFERENCE_S."""
    rounds = raw["rounds"]
    speed = REFERENCE_S / low(raw["ref_s"])
    times = raw_times(raw)
    wall = times["wall_s"] * speed
    return {
        "setup_s": low([s * REFERENCE_S / r
                        for s, r in zip(raw["setup_s"], raw["setup_ref_s"])]),
        "wall_s": wall,
        "cpu_s": times["cpu_s"] * speed,
        "work_per_s": rounds[0]["work"] / wall,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "alloc_mwords": statistics.median(r["alloc_words"] for r in rounds) / 1e6,
    }


def per_layer(raw, names):
    """The layer split of the traced round with the median wall clock,
    with the tracing overhead (median traced minus median untraced
    round) and the part of the wall clock no layer accounts for."""
    traced = sorted(raw["traced"], key=lambda r: r["wall_s"])
    mid = traced[len(traced) // 2]
    layers = dict(mid["layers"])
    layers.update(raw["setup_layers"])
    layers["traced.wall_s"] = mid["wall_s"]
    layers["trace.overhead_s"] = mid["wall_s"] - statistics.median(
        r["wall_s"] for r in raw["rounds"])
    layers["unattributed_s"] = mid["wall_s"] - layers.get("attributed_s", 0.0)
    return {n: layers.get(n, 0.0) for n in names}, layers


def report(workload, seed, seconds, trace, pins, bench):
    input_seed = seed % INPUT_SEEDS
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, input_seed, trace)
    spans = os.path.join(RESULTS, tag + "-spans.json") if trace else None
    raw = run_exe(workload, input_seed, seconds, trace, SETUPS, spans)
    attempted, failed, first = check(raw, pins)
    if not trace:
        held = run_exe(workload, (input_seed + HELD_OUT) % INPUT_SEEDS, 0,
                       False, 1)
        a, f, m = check(held, pins)
        attempted, failed, first = attempted + a, failed + f, first or m
    env = environment(raw)
    print("== %s  seed %d (input seed %d)  trace %d" % (
        workload, seed, input_seed, trace))
    print("environment: " + json.dumps(env))
    print("coverage: " + json.dumps(coverage(raw)))
    print("rounds: %d timed, %d traced; set-ups: %d" % (
        len(raw["rounds"]), len(raw["traced"]), len(raw["setup_s"])))
    if first:
        print("MISMATCH %s: pinned %r, got %r" % first)
    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        metrics, all_layers = per_layer(raw, names)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = end_to_end(raw)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        for name, value in raw_times(raw).items():
            print("%-32s %14.6g s" % ("raw." + name, value))
        print("%-32s %14.6g %s" % (
            raw["work_name"], metrics["work_per_s"], raw["work_unit"]))
        print("%-32s %14.6g %s" % (
            "error_rate", failed / attempted, "fraction"))
    for name, value in metrics.items():
        print("%-32s %14.6g %s" % (name, value, units[name]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump({"environment": env, "coverage": coverage(raw),
                   "result": result, "raw": raw_times(raw),
                   "layers": all_layers if trace else None,
                   "spans": spans}, f, indent=1)
    return result


def write_pins():
    pins = {}
    for w in WORKLOADS:
        pins[w] = {}
        for s in range(INPUT_SEEDS):
            raw = run_exe(w, s, 0, True, 1)
            sets = output_sets(raw)
            if any(o != sets[0] for o in sets):
                fail("%s seed %d: rounds disagree" % (w, s))
            pins[w][str(s)] = {"round": sets[0], "final": raw["final"]}
            print("pinned %s seed %d" % (w, s), file=sys.stderr)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=0, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    build()
    if args.write_pins:
        write_pins()
        return
    with open(PINS) as f:
        pins = json.load(f)
    bench = load_benchmark()
    workloads = [args.workload] if args.workload else WORKLOADS
    results = [report(w, args.seed, args.seconds, args.trace, pins, bench)
               for w in workloads]
    if len(results) == 1:
        print(json.dumps(results[0]))


if __name__ == "__main__":
    main()
