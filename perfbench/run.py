#!/usr/bin/env python3
"""Build the nectar benchmark driver from source and run one workload.

Run from the root of a nectar checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver (perfbench/main.ml) is built with dune into .bench_build/, then
runs NAME in closed-loop rounds for S wall seconds.  Its last line of
standard output is the JSON result; traced runs (--trace 1) also write a
span dump and a per-layer table to perfbench/out/.  --small shrinks every
round (used by perfbench/selftest.py).
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["bulk-1copy", "bulk-2copy", "rpc", "churn"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# A run (build included, once built) must end within 180 s.
RUN_LIMIT_S = 175


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    for prefix in [os.environ.get("OPAM_SWITCH_PREFIX", "")] + sorted(
        glob.glob(os.path.expanduser("~/.opam/*"))
    ):
        cand = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(cand, os.X_OK):
            return cand
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: not at the root of a nectar checkout "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2

    start = time.monotonic()
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    limit = max(30.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        return subprocess.run(cmd, timeout=limit).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {limit:.0f} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
