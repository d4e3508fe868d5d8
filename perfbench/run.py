#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds
perfbench/bench.exe with dune into .bench_build/, then starts fresh
bench.exe processes, one after another (a closed loop with a single
client), until S seconds have passed.  Each process sets the workload up
once and runs its measured phase once: the tuple store and the symbol
table are global and append-only, so a repeat inside one process would
measure a warm store.  The processes cycle through DRAWS inputs derived
from the seed, and every metric is the median over the processes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced processes and reports the per-layer
metrics; the traced processes record spans around the benchmark's calls
into each layer and the last one writes them as Chrome trace-event JSON
to .bench_build/traces/.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Earlier lines record the run configuration and the raw per-process values.
The result is correct only when every process exits cleanly, every
operation passes its oracle, and the deterministic counts (tuples derived,
rule applications, GC counts, snapshot bytes, ground atoms, fixpoint
counts, over-deletions, re-derivations) are identical across the processes
of one kind; otherwise the script exits with status 1.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Relative to the checkout root, where the script runs; dune wants the
# build directory absolute.
BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
TRACE_DIR = os.path.join(".bench_build", "traces")

WORKLOADS = ("closure_strat", "game_wfs", "kernel_fixpoints", "serve_churn")

# One domain, so no idle worker domain joins every minor-GC rendezvous,
# and a fixed stripe count, so both commits of a comparison run the same
# store layout whatever the host.  Engine, planner, indexing and storage
# stay at their defaults (seminaive, static, cached, hashed), which
# bench.exe reports back.
PINNED_ENV = {"NEGDL_DOMAINS": "1", "NEGDL_PARTITIONS": "2"}

# Each untraced run cycles its processes through this many input draws
# (bench seed = seed * DRAWS + k): random inputs of one size still differ
# in how much work they make, and the median over several draws moves
# less from seed to seed than one draw does.  Traced runs use draw 0 only,
# so traced and untraced processes see the same input.
DRAWS = 3
# Processes per draw, so the exact-repeat check always has a repeat.
MIN_REPEATS = 2
# Measuring stops starting processes after HARD_STOP_S and kills one still
# running at LIMIT_S, so a run ends well inside three minutes even when
# a process hangs.
HARD_STOP_S = 150
LIMIT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def child_env():
    env = dict(os.environ)
    # GC parameters are part of the measured configuration.
    env.pop("OCAMLRUNPARAM", None)
    env.update(PINNED_ENV)
    return env


def run_process(workload, seed, traced, trace_out, timeout):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("%s exited with status %d" % (workload, done.returncode))
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("%s printed no result" % workload)


def repeat_mismatches(reps):
    """Deterministic counts that differ between processes of one kind on
    one input."""
    out = []
    for key in sorted({(r["traced"], r["seed"]) for r in reps}):
        group = [r for r in reps if (r["traced"], r["seed"]) == key]
        traced = key[0]
        for r in group[1:]:
            for key in sorted(set(group[0]["det"]) | set(r["det"])):
                a, b = group[0]["det"].get(key), r["det"].get(key)
                if a != b:
                    out.append("%s%s: %s vs %s"
                               % ("traced " if traced else "", key, a, b))
            if r["config"] != group[0]["config"]:
                out.append("run configuration differs")
    return out


def median_of(reps, section, name):
    try:
        return statistics.median(r[section][name] for r in reps)
    except KeyError:
        fail("bench.exe reported no %s metric %s" % (section, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()

    traced_run = args.trace == 1
    trace_out = None
    if traced_run:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_out = os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
    minimum = 2 * MIN_REPEATS if traced_run else DRAWS * MIN_REPEATS

    start = time.monotonic()
    reps = []
    # Untraced runs end on a whole cycle of draws, so each weighs the same.
    while (len(reps) < minimum or time.monotonic() - start < args.seconds
           or (not traced_run and len(reps) % DRAWS != 0)):
        if time.monotonic() - start > HARD_STOP_S:
            break
        i = len(reps)
        traced = traced_run and i % 2 == 1
        draw = 0 if traced_run else i % DRAWS
        reps.append(run_process(args.workload, args.seed * DRAWS + draw,
                                traced, trace_out if traced else None,
                                LIMIT_S - (time.monotonic() - start)))

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    mismatches = repeat_mismatches(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for e in r["errors"]:
            print("perfbench: %s: %s" % (args.workload, e), file=sys.stderr)
    for m in mismatches:
        print("perfbench: exact-repeat check failed: " + m, file=sys.stderr)

    metrics = {}
    if traced_run:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = (median_of(traced, "e2e", "wall_s")
                         - median_of(untraced, "e2e", "wall_s"))
            elif name == "host.calib_s":
                value = statistics.median(r["calib_s"] for r in reps)
            else:
                value = median_of(traced, "layers", name)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {
                "value": median_of(untraced, "e2e", m["name"]),
                "unit": m["unit"]}

    print(json.dumps({
        "config": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "processes": len(reps),
            "pinned_env": PINNED_ENV, "nproc": os.cpu_count(),
            "python": platform.python_version(), "bench": reps[0]["config"],
            "trace_file": trace_out,
        },
        "calib_s": [r["calib_s"] for r in reps],
        "wall_s": [r["e2e"]["wall_s"] for r in reps],
    }))
    correct = failed == 0 and not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
