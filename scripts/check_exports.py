#!/usr/bin/env python3
"""Fail when a library export has no caller.

A `val name` in lib/*/*.mli is dead when no .ml under lib, bench,
examples, perfbench, bin or test, other than the module's own .ml,
mentions `.name`.  Prints each dead export and exits 1 if any.

Usage: python3 scripts/check_exports.py   (from the repo root)
"""
import glob, re, sys

sources = {p: open(p).read()
           for d in ("lib", "bench", "examples", "perfbench", "bin", "test")
           for p in glob.glob(f"{d}/**/*.ml", recursive=True)}
dead = []
for mli in sorted(glob.glob("lib/*/*.mli")):
    own = mli[:-1]
    for name in re.findall(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", open(mli).read(), re.M):
        use = re.compile(r"\." + re.escape(name) + r"(?![A-Za-z0-9_'])")
        if not any(use.search(text) for p, text in sources.items() if p != own):
            dead.append(f"{mli}: {name}")
print("\n".join(dead))
print(f"{len(dead)} dead export(s)")
sys.exit(1 if dead else 0)
