#!/usr/bin/env python3
"""Fail when a library export has no caller.

A `val name` declared in lib/X/m.mli counts as used only when a .ml
under lib, bench, examples, perfbench, bin or test, other than m.ml:
  - names it qualified: `M.name`, or `M.Sub.name` for a val inside a
    nested signature (`Obs.Counter.incr`);
  - names it through a local alias: `module Tw = Timer_wheel`, then
    `Tw.name`;
  - mentions the bare `name` in a file that brings M into scope:
    `open M`, `let open M in`, `include M` or `M.( ... )`.
Prints each dead export and exits 1 if any.

Usage: python3 scripts/check_exports.py   (run from the repo root)
"""
import glob, re, sys

ID = r"[A-Za-z_][A-Za-z0-9_']*"
MOD = r"[A-Z][A-Za-z0-9_']*"


def scan(text):
    """What a caller's text can reach: qualified names as (head module,
    name) pairs, module aliases, modules brought into scope, and every
    identifier it mentions."""
    qualified = set(re.findall(r"(?<![A-Za-z0-9_'.])(" + MOD + r")(?:\.(?:"
                               + MOD + r"))*\.([a-z_][A-Za-z0-9_']*)", text))
    aliases = re.findall(r"\bmodule\s+(" + MOD + r")\s*=\s*(" + MOD
                         + r")(?![A-Za-z0-9_'.])", text)
    opened = set(re.findall(r"\b(?:open!?|include)\s+(" + MOD
                            + r")(?![A-Za-z0-9_'.])", text))
    opened |= set(re.findall(r"(?<![A-Za-z0-9_'.])(" + MOD + r")\.\(", text))
    return qualified, aliases, opened, set(re.findall(ID, text))


def used(name, mod, caller):
    qualified, aliases, opened, words = caller
    heads = [mod] + [a for a, m in aliases if m == mod]
    return any((h, name) in qualified for h in heads) or \
        (mod in opened and name in words)


callers = {p: scan(open(p).read())
           for d in ("lib", "bench", "examples", "perfbench", "bin", "test")
           for p in glob.glob(f"{d}/**/*.ml", recursive=True)}
dead = []
for mli in sorted(glob.glob("lib/*/*.mli")):
    own = mli[:-1]
    base = mli.rsplit("/", 1)[1][:-4]
    mod = base[0].upper() + base[1:]
    for name in re.findall(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)",
                           open(mli).read(), re.M):
        if not any(used(name, mod, c) for p, c in callers.items() if p != own):
            dead.append(f"{mli}: {name}")
print("\n".join(dead))
print(f"{len(dead)} dead export(s)")
sys.exit(1 if dead else 0)
