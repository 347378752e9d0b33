#!/usr/bin/env python3
"""Bench gate: check the invariants each bench artifact declares.

Usage: bench_gate.py BASELINE ARTIFACT...

Every artifact bench/main.exe writes (BENCH_macro.json, BENCH_micro.json,
BENCH_soak.json, BENCH_server.json) carries its own invariants: each
"invariants" list anywhere in its JSON holds entries

  {"name": ..., "lhs": OPERAND, "op": OP, "rhs": OPERAND,
   "scale": NUMBER (optional, default 1), "severity": "fail" | "warn"}

read as `lhs OP scale * rhs`, OP one of == <= > >=.  An OPERAND is
  - a JSON constant (number, boolean, null);
  - a string: a dot path from the artifact's root, list elements by
    index and "#" for the length of a list or object; a "baseline:"
    prefix reads BASELINE instead;
  - a list [OPERAND, "-" | "/", OPERAND].

The checker prints every invariant with its resolved values.  It exits 1
when a "fail" invariant is false, when an operand cannot be resolved (a
missing row or field is a failure, never a skip), when an artifact
declares no invariants or mixes name prefixes, or when a name that
BASELINE's "required_invariants" lists under an artifact's prefix (the
part of its invariant names before the first dot) is absent.  A false
"warn" invariant prints a WARN line only.
"""

import json
import operator
import sys

COMPARE = {"==": operator.eq, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge}
ARITH = {"-": operator.sub, "/": operator.truediv}


class Unresolved(Exception):
    pass


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def lookup(doc, path):
    node = doc
    for key in path.split("."):
        if key == "#" and isinstance(node, (list, dict)):
            node = len(node)
        elif isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        else:
            raise Unresolved(f"no {key!r} in {path!r}")
    return node


def resolve(operand, doc, baseline):
    if isinstance(operand, str):
        if operand.startswith("baseline:"):
            return lookup(baseline, operand[len("baseline:"):])
        return lookup(doc, operand)
    if isinstance(operand, list):
        if len(operand) != 3 or operand[1] not in ARITH:
            raise Unresolved(f"malformed expression {operand!r}")
        a, b = resolve(operand[0], doc, baseline), resolve(operand[2], doc, baseline)
        if not (is_number(a) and is_number(b)):
            raise Unresolved(f"non-numeric term in {operand!r}")
        try:
            return ARITH[operand[1]](a, b)
        except ZeroDivisionError:
            raise Unresolved(f"division by zero in {operand!r}")
    return operand


def collect(node):
    """Every entry of every "invariants" list in the document."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "invariants" and isinstance(value, list):
                yield from value
            else:
                yield from collect(value)
    elif isinstance(node, list):
        for value in node:
            yield from collect(value)


def show(v):
    return f"{v:.6g}" if is_number(v) else json.dumps(v)


def check(inv, doc, baseline):
    """Returns (status, line): status "ok", "FAIL" or "WARN"."""
    name, op = inv.get("name", "?"), inv.get("op")
    scale = inv.get("scale", 1)
    try:
        if op not in COMPARE or not is_number(scale):
            raise Unresolved(f"malformed invariant {inv!r}")
        lhs = resolve(inv.get("lhs"), doc, baseline)
        rhs = resolve(inv.get("rhs"), doc, baseline)
        if scale != 1 or op != "==":
            if not (is_number(lhs) and is_number(rhs)):
                raise Unresolved(f"non-numeric operand ({show(lhs)} {op} {show(rhs)})")
    except Unresolved as e:
        return "FAIL", f"{name}: cannot resolve: {e}"
    scaled = "" if scale == 1 else f"{scale:g} x "
    line = f"{name}: {show(lhs)} {op} {scaled}{show(rhs)}"
    if COMPARE[op](lhs, scale * rhs if scale != 1 else rhs):
        return "ok  ", line
    return ("WARN" if inv.get("severity") == "warn" else "FAIL"), line


def gate(baseline_path, artifact_paths):
    with open(baseline_path) as f:
        baseline = json.load(f)
    required = baseline.get("required_invariants", [])
    failures = warnings = checked = 0
    for path in artifact_paths:
        print(path)
        with open(path) as f:
            doc = json.load(f)
        invariants = list(collect(doc))
        prefixes = {str(i.get("name", "")).split(".")[0] for i in invariants}
        if len(prefixes) != 1:
            found = sorted(prefixes) if prefixes else "no invariants"
            print(f"  FAIL {path}: expected one invariant-name prefix, "
                  f"found {found}")
            failures += 1
            continue
        prefix = prefixes.pop()
        names = {i.get("name") for i in invariants}
        for name in required:
            if name.split(".")[0] == prefix and name not in names:
                print(f"  FAIL {name}: required invariant missing")
                failures += 1
        for inv in invariants:
            status, line = check(inv, doc, baseline)
            print(f"  {status} {line}")
            warnings += status == "WARN"
            failures += status == "FAIL"
        checked += len(invariants)
    print(f"\n{checked} invariants, {warnings} warning(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(gate(sys.argv[1], sys.argv[2:]))
