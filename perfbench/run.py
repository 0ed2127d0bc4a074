#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench from source and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (which compiles
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the workload, and prints two JSON lines: a `run` record (seed, nproc,
build type, and what was measured but is not listed, such as sample
counts) and, last, the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
`--seed held-out` runs the held-out seed that a claimed gain must also hold
on. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import summarize  # noqa: E402

# Never used while the benchmark was tuned; see README.md.
HELD_OUT_SEED = 90210
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary's path."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay inside
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    held_out = args.seed == "held-out"
    try:
        seed = HELD_OUT_SEED if held_out else int(args.seed)
    except ValueError:
        fail(f"bad --seed {args.seed!r}")
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {root}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    binary = build(build_dir)
    spans = os.path.join(build_dir, f"spans-{args.workload}-{seed}.tsv")
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench exited with {done.returncode}")
    doc = json.loads(lines[-1])

    measured = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
    if args.trace:
        measured.update(summarize.summarize(spans))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail(f"metric {m['name']} was not measured")
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} measured in {unit}, not {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    run = {k: doc[k] for k in ("workload", "seed", "seconds", "trace",
                               "nproc", "build_type", "wrong")}
    run["held_out"] = held_out
    # Measured but not in BENCHMARK.json (sample counts, read_p99_ms): kept
    # in the record without a bound.
    run["unlisted"] = {k: {"value": v, "unit": u}
                       for k, (v, u) in measured.items()
                       if k not in metrics}
    result = {"correct": doc["correct"], "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": metrics}
    record = os.path.join(build_dir, "results",
                          f"{args.workload}-{seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(record), exist_ok=True)
    with open(record, "w") as f:
        json.dump({"run": run, "result": result}, f, indent=1)
    print(json.dumps({"run": run}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
