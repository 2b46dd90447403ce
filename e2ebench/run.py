#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload protect|ingest|heap-mt --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
program and the benchmark binary with CMake into $CARGO_TARGET_DIR (or
.bench_build); later runs only rebuild what changed.  Build output goes to
standard error.  The binary's output is passed through, except its last
line: the metrics it measured, by name.  BENCHMARK.json is the one list of
metric names and units; run.py prints the result with every metric it
declares for this kind of run (end-to-end with --trace 0, per-layer with
--trace 1), each with its unit.  A per-layer metric of a layer the
workload does not exercise reads 0; a missing end-to-end metric or an
undeclared one is an error.  Spans of traced runs and the servers' state
dirs go to .bench_out/.
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


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    source = cached_source_dir(build_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)  # configured for another checkout
        source = None
    if source is None:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2ebench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["protect", "ingest", "heap-mt"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"e2ebench: benchmark binary exited with {proc.returncode}",
              file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("e2ebench: last line is not a JSON result", file=sys.stderr)
        return 1
    declared = declared_metrics(args.trace)
    measured = result["metrics"]
    missing = [] if args.trace else sorted(set(declared) - set(measured))
    undeclared = sorted(set(measured) - set(declared))
    if missing or undeclared:
        print(f"e2ebench: metrics differ from BENCHMARK.json: missing "
              f"{missing}, undeclared {undeclared}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": measured.get(name, 0), "unit": unit}
                         for name, unit in declared.items()}
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
