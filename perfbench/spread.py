#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are across seeds.

Run from the root of a nectar checkout:

    python3 perfbench/spread.py --workload rpc --runs 10 [--first-seed 1]

Runs the workload once per seed (untraced, BENCHMARK.json's run_seconds
unless --seconds is given) and prints, for every end_to_end metric, the
median of the runs and the spread: the distance between the first and the
third quartile (statistics.quantiles, n=4) as a share of the median.  A
spread is flagged when it is not below a third of the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in args.workload:
        values = {k: [] for k in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if p.returncode != 0 or not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: exit {p.returncode}, "
                      f"correct {res['correct']}, failed {res['failed']}")
            for k in bounds:
                values[k].append(res["metrics"][k]["value"])
        print(f"{w}: {args.runs} runs of {args.seconds} s")
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[k] / 3
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"  {k:22s} median {med:<14.6g} spread {spread:8.4f} "
                  f"(bound {bounds[k]}){'' if ok else '  <-- not below bound/3'}")
        print(json.dumps({"workload": w, "values": values}))
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
