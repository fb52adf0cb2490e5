#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is compiled with CMake from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild only what changed.  Build output goes to stderr.  The driver's
output is passed through, and its last line is the JSON result, checked
here against the metric names and units BENCHMARK.json declares.  The
exit status is the driver's: 0 only when every answer matched its oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ip_lpm", "engine_uniform", "engine_churn_zipf")
# Build plus run must stay well inside the harness's per-run limits.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "core", "database.h")):
        fail("no CA-RAM sources next to perfbench/ (expected src/)")
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree copied from another checkout points at that
        # checkout's sources: start it afresh.
        with open(cache) as f:
            home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n"
            if home not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    # The benchmark measures the defaults; an override would change them.
    caram_vars = sorted(k for k in os.environ if k.startswith("CARAM_"))
    if caram_vars:
        fail("refusing to run with " + ", ".join(caram_vars) + " set")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    driver = build(build_dir)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result (exit %d)" % proc.returncode)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(args.trace == "1")
    if got != want:
        fail("driver metrics %s differ from BENCHMARK.json %s"
             % (sorted(got.items()), sorted(want.items())))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
