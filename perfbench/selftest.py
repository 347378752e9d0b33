#!/usr/bin/env python3
"""The benchmark's own test.

Run from the root of a nectar checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes a small-round run untraced
and traced, and checks that the run is correct with no failed operation,
that the untraced run prints exactly the end_to_end metrics and the traced
run exactly the per_layer metrics, each with its declared unit, and that
two untraced runs with the same seed print the same determinism digest.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}")
    digest = next((l.split(": ", 1)[1] for l in lines
                   if l.startswith("determinism digest: ")), None)
    return json.loads(lines[-1]), digest


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (0, 1, 0):
            res, digest = run(w, 11, trace)
            digests.append(digest)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            where = f"{w} --trace {trace}"
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{where}: correct={res['correct']} "
                                f"failed={res['failed']}")
            for k in sorted(set(got) - set(want[trace])):
                problems.append(f"{where}: prints {k}, not in BENCHMARK.json")
            for k in sorted(set(want[trace]) - set(got)):
                problems.append(f"{where}: does not print {k}")
            for k in sorted(set(got) & set(want[trace])):
                if got[k] != want[trace][k]:
                    problems.append(f"{where}: {k} unit {got[k]} != "
                                    f"{want[trace][k]}")
            share = res["failed"] / res["attempted"]
            print(f"{where}: attempted {res['attempted']}, failed_share "
                  f"{share:g}, digest {digest}")
        if digests[0] is None or len(set(digests)) != 1:
            problems.append(f"{w}: determinism digests differ: {digests}")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
