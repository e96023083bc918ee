#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload serve [--runs 10] [--seconds S]
                                [--trace 0|1] [--first-seed N]

For every metric it prints the median of the runs and the distance between
the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json fixes
for it.  A bound is met with margin when the spread is below a third of it.
Exits 1 if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds, args.trace)
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{name}={m['value']:.6g}"
                         for name, m in sorted(result["metrics"].items()))
        print(f"seed {seed}: {shown}", file=sys.stderr, flush=True)

    print(f"{'metric':44} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"{name:44} {med:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
