#!/usr/bin/env python3
"""Compares two sets of benchmark runs of one workload.

    python3 perfbench/run.py --workload flow --seed 1 ... >> base.txt
    python3 perfbench/run.py --workload flow --seed 1 ... >> new.txt
    python3 perfbench/compare.py base.txt new.txt

Each file holds the stdout of one or more runs: `# fingerprint {...}` lines
followed by result lines.  For every metric the script prints both medians
and the change, and flags an end-to-end metric that got worse by more than
its BENCHMARK.json bound.  Exit 1 when one did.

Runs stamped with different host fingerprints (nproc, build type,
compiler, jobs) or run settings (seconds, trace, tiny) are not comparable:
the table is then printed as informational only and the exit status is 0.
Result lines whose "correct" is false are left out of the medians.
"""

import json
import statistics
import sys

FINGERPRINT_KEYS = ("nproc", "build_type", "compiler", "jobs", "seconds",
                    "trace", "tiny")


def load(path):
    fingerprints, values = set(), {}
    workloads = set()
    with open(path) as f:
        for line in f:
            if line.startswith("# fingerprint "):
                fp = json.loads(line[len("# fingerprint "):])
                fingerprints.add(tuple(fp.get(k) for k in FINGERPRINT_KEYS))
                workloads.add(fp.get("workload"))
            elif line.startswith("{"):
                result = json.loads(line)
                if result.get("correct") is not True:
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    return fingerprints, workloads, values


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metric_spec = {m["name"]: m
                   for m in bench["end_to_end"] + bench["per_layer"]}
    base_fp, base_wl, base = load(argv[0])
    new_fp, new_wl, new = load(argv[1])
    if base_wl != new_wl or len(base_wl) != 1:
        print(f"workloads differ or are mixed: {base_wl} vs {new_wl}",
              file=sys.stderr)
        return 2
    comparable = len(base_fp) == 1 and base_fp == new_fp
    if not comparable:
        print("fingerprints differ: informational only")

    regressed = False
    print(f"{'metric':44} {'base':>14} {'new':>14} {'change':>8}")
    for name in sorted(set(base) & set(new)):
        b, n = statistics.median(base[name]), statistics.median(new[name])
        change = (n - b) / b if b else 0.0
        spec = metric_spec.get(name, {})
        worse = -change if spec.get("better") == "higher" else change
        flag = ""
        if "bound" in spec and worse > spec["bound"]:
            flag = "  REGRESSED"
            regressed = True
        print(f"{name:44} {b:14.6g} {n:14.6g} {change:+8.1%}{flag}")
    return 1 if regressed and comparable else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
