#!/usr/bin/env python3
"""Allocation ceilings: fail when a benchmark workload allocates more.

Runs every perfbench workload once at seed 1

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0

and fails if a run is incorrect, if any of its operations failed, or if
its `alloc_mwords` (minor-heap words allocated per round, in millions)
exceeds the committed ceiling in scripts/alloc_ceiling.json by more than
0.5 %.  The count is deterministic for a given compiler, so the
tolerance only absorbs compiler differences: a real rise in allocation
has to come with an edit of the ceiling file.  Every reading is printed,
so a deliberate change can copy the new values into the file.

Usage: python3 scripts/alloc_ceiling.py   (from the repo root)
"""
import json
import os
import subprocess
import sys

CEILINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "alloc_ceiling.json")
TOLERANCE = 0.005


def run(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        return None
    return json.loads(lines[-1])


def main():
    with open(CEILINGS) as f:
        ceilings = json.load(f)
    problems = []
    for workload, ceiling in ceilings.items():
        result = run(workload)
        if result is None:
            problems.append(f"{workload}: perfbench run failed")
            continue
        words = result["metrics"]["alloc_mwords"]["value"]
        limit = ceiling * (1 + TOLERANCE)
        print(f"{workload}: alloc_mwords {words:.4f} (ceiling {ceiling:.4f}, "
              f"limit {limit:.4f}), correct {result['correct']}, "
              f"failed {result['failed']}")
        if not result["correct"]:
            problems.append(f"{workload}: run is not correct")
        if result["failed"] > 0:
            problems.append(f"{workload}: {result['failed']} operations failed")
        if words > limit:
            problems.append(
                f"{workload}: alloc_mwords {words:.4f} exceeds the ceiling "
                f"{ceiling:.4f} by more than {TOLERANCE:.1%}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
