#!/usr/bin/env python3
"""Allocation ceilings and schedule digests: fail when a benchmark
workload allocates more or simulates differently.

Runs every perfbench workload once at seed 1

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0

and fails if a run is incorrect, if any of its operations failed, if
its `alloc_mwords` (minor-heap words allocated per round, in millions)
exceeds the committed ceiling in scripts/alloc_ceiling.json by more than
0.5 %, or if the `determinism digest:` it prints (an MD5 over the first
round's simulated metrics) differs from the committed digest.  The word
count is deterministic for a given compiler, so the tolerance only
absorbs compiler differences: a real rise in allocation has to come with
an edit of the ceiling file.  The digest has no tolerance: a change that
means to move the simulated schedule commits the new digests.  Every
reading is printed, so a deliberate change can copy the new values into
the file.

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
        return None, None
    digest = next((l.split(": ", 1)[1] for l in lines
                   if l.startswith("determinism digest: ")), None)
    return json.loads(lines[-1]), digest


def main():
    with open(CEILINGS) as f:
        ceilings = json.load(f)
    problems = []
    for workload, committed in ceilings.items():
        result, digest = run(workload)
        if result is None:
            problems.append(f"{workload}: perfbench run failed")
            continue
        ceiling = committed["alloc_mwords"]
        words = result["metrics"]["alloc_mwords"]["value"]
        limit = ceiling * (1 + TOLERANCE)
        print(f"{workload}: alloc_mwords {words:.4f} (ceiling {ceiling:.4f}, "
              f"limit {limit:.4f}), digest {digest}, "
              f"correct {result['correct']}, failed {result['failed']}")
        if digest != committed["digest"]:
            problems.append(
                f"{workload}: determinism digest {digest} differs from the "
                f"committed {committed['digest']}")
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
