#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload repeatedly for BENCHMARK.json's run_seconds (one seed
per run), prints the median and quartiles of every end-to-end metric, and
the spread (Q3 - Q1) / median against the metric's bound.  --compare reads
two saved sets and reports whether they agree: each spread (setup_s
excepted) within its bound, each second-set median no worse than the
first by more than the bound, and the same share of failed operations in
both sets.

    python3 e2ebench/steady.py                      # 10 runs per workload
    python3 e2ebench/steady.py --runs 5 --workloads ingest
    python3 e2ebench/steady.py --save .bench_out/a.json
    python3 e2ebench/steady.py --first-seed 11 --save .bench_out/b.json
    python3 e2ebench/steady.py --compare .bench_out/a.json .bench_out/b.json

Run from the root of a checkout; every run goes through e2ebench/run.py.
Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    host = [json.loads(line[len("# host "):]) for line in lines
            if line.startswith("# host ")]
    result["host"] = host[0] if host else {}
    return result


def run_set(workloads, seeds, seconds):
    results = {w: [] for w in workloads}
    for workload in workloads:
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            results[workload].append(result)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"host steal {result['host'].get('host_steal_pct', '?')}%",
                  file=sys.stderr)
    return results


def summarize(spec, results):
    """Per workload and metric: median, quartiles and spread."""
    table = {}
    for workload, runs in results.items():
        table[workload] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[workload][metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values)
                if statistics.median(values) else float("inf")}
    return table


def failed_share(runs):
    return [(r["failed"], r["attempted"]) for r in runs]


def check_set(spec, results, label):
    ok = True
    table = summarize(spec, results)
    for workload, runs in results.items():
        if not all(r["correct"] for r in runs):
            print(f"{label} {workload}: a run reported correct=false")
            ok = False
        shares = {f / a for f, a in failed_share(runs)}
        if len(shares) != 1:
            print(f"{label} {workload}: failed share varies: {sorted(shares)}")
            ok = False
        print(f"{label} {workload} (failed share {sorted(shares)})")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            row = table[workload][metric["name"]]
            flag = ""
            if metric["name"] != "setup_s":
                if row["spread"] > metric["bound"]:
                    flag, ok = "OVER BOUND", False
                elif row["spread"] > metric["bound"] / 3:
                    flag = "over bound/3"
            print(f"  {metric['name']:<16} {row['median']:>14.6g} "
                  f"{row['q1']:>14.6g} {row['q3']:>14.6g} "
                  f"{row['spread']:>8.3f} {metric['bound']:>6} {flag}")
    return ok, table


def compare(spec, first, second):
    """Second set's medians against the first's, within the bounds."""
    ok = True
    t1, t2 = summarize(spec, first), summarize(spec, second)
    print("second set vs first (worse-by share; bound)")
    for workload in first:
        s1 = {f / a for f, a in failed_share(first[workload])}
        s2 = {f / a for f, a in failed_share(second[workload])}
        if s1 != s2:
            print(f"  {workload}: failed share differs: {s1} vs {s2}")
            ok = False
        for metric in spec["end_to_end"]:
            m1 = t1[workload][metric["name"]]["median"]
            m2 = t2[workload][metric["name"]]["median"]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" \
                else (m1 - m2) / m1
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  {workload:<8} {metric['name']:<16} {m1:>14.6g} "
                  f"{m2:>14.6g} {worse:>+8.3f} {metric['bound']:>6} {verdict}")
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw results here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two saved sets instead of running")
    args = parser.parse_args()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = all([check_set(spec, sets[0], "first")[0],
                  check_set(spec, sets[1], "second")[0],
                  compare(spec, sets[0], sets[1])])
        print("agree" if ok else "DO NOT AGREE")
        return 0 if ok else 1

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    print(f"seeds {seeds[0]}..{seeds[-1]}", file=sys.stderr)
    results = run_set(args.workloads.split(","), seeds, spec["run_seconds"])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    ok = check_set(spec, results, "set")[0]
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
