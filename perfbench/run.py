#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv_open --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the simulator library and the driver
from source into .bench_build/perfbench (incrementally after the first
run), runs the driver's self-test, then one benchmark run. The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"},
where metrics are the end_to_end metrics of BENCHMARK.json (--trace 0) or
its per_layer metrics (--trace 1), each with its unit. Build output and
the run's human-readable notes go to stderr. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("kv_open", "kv_repart", "graph_pgas")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
                   "--target", "perfbench", "perfbench_test"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    if subprocess.run([str(BUILD / "perfbench_test")],
                      stdout=sys.stderr).returncode != 0:
        fail("perfbench self-test failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-out", str(BUILD / f"trace-{args.workload}.json")]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = child.stdout.strip().splitlines()
    if not lines:
        fail(f"driver exited {child.returncode} without a result")
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        value = raw["values"].get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": raw["correct"] and child.returncode == 0,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
