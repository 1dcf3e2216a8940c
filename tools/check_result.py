#!/usr/bin/env python3
"""Checks one egbench result against metric ceilings.

Usage:
  python3 tools/check_result.py <result file> --max <metric>=<value> [...]

<result file> holds egbench/run.py's stdout; its last line is the JSON
result. The check fails when the run reports a failed operation or when a
named metric exceeds its ceiling. Use it only for metrics that do not depend
on the machine, such as counts: run.py --self-check asserts that counts
repeat exactly for one seed.

Exit codes: 0 ok, 1 a check failed, 2 bad input or arguments.
"""

import json
import sys


def usage(message):
    print(f"check_result.py: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    if len(argv) < 2:
        usage("need a result file and at least one --max <metric>=<value>")
    path, rest = argv[0], argv[1:]
    ceilings = {}
    while rest:
        if rest[0] != "--max" or len(rest) < 2 or "=" not in rest[1]:
            usage(f"expected --max <metric>=<value>, got {' '.join(rest[:2])}")
        name, value = rest[1].split("=", 1)
        try:
            ceilings[name] = float(value)
        except ValueError:
            usage(f"bad ceiling {rest[1]}")
        rest = rest[2:]
    try:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        failed = result["failed"]
    except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
        usage(f"cannot read a result from {path}: {e}")

    ok = True
    print(f"failed operations: {failed}")
    if failed > 0:
        ok = False
    for name, ceiling in ceilings.items():
        if name not in metrics:
            usage(f"{path} has no metric {name}")
        value = metrics[name]["value"]
        verdict = "ok" if value <= ceiling else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{name}: {value:g} (max {ceiling:g}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
