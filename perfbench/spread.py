#!/usr/bin/env python3
"""Seed-to-seed spread of the benchmark's metrics.

Runs one workload once per seed through run.sh and prints, for every
metric, the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. Run it from the repository
root:

    python3 perfbench/spread.py --workload tenants --seeds 1-10 --seconds 20

For the virtual metrics, which repeat exactly at a fixed seed, the spread is
the seed noise a later change has to exceed before a move counts. For the
host metrics it is the run-to-run noise of the machine as well.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: correctness check failed\n{out}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{'metric':36} {'unit':>9} {'median':>13} {'q1':>13} {'q3':>13} {'spread':>8}")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36} {units[name]:>9} {med:13.6g} {q1:13.6g} {q3:13.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
