#!/usr/bin/env python3
"""Checks one egbench result against metric ceilings.

Usage:
  python3 tools/check_result.py <result file> [--max <metric>=<value>]
      [--max-ratio <metric>/<metric>=<value>] [...]

<result file> holds egbench/run.py's stdout; its last line is the JSON
result. The check fails when the run reports a failed operation, when a
named metric exceeds its ceiling (--max), or when the ratio of two metrics
from the same run exceeds its ceiling (--max-ratio). Use --max only for
metrics that do not depend on the machine, such as counts: run.py
--self-check asserts that counts repeat exactly for one seed. --max-ratio
is for same-run ratios of timings, where the machine's speed cancels.

Exit codes: 0 ok, 1 a check failed, 2 bad input or arguments.
"""

import json
import sys


def usage(message):
    print(f"check_result.py: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    if len(argv) < 2:
        usage("need a result file and at least one --max or --max-ratio")
    path, rest = argv[0], argv[1:]
    ceilings = {}
    ratio_ceilings = {}
    while rest:
        flag = rest[0]
        if flag not in ("--max", "--max-ratio") or len(rest) < 2 or "=" not in rest[1]:
            usage(f"expected --max <metric>=<value> or --max-ratio <metric>/<metric>=<value>, "
                  f"got {' '.join(rest[:2])}")
        name, value = rest[1].rsplit("=", 1)
        try:
            ceiling = float(value)
        except ValueError:
            usage(f"bad ceiling {rest[1]}")
        if flag == "--max":
            ceilings[name] = ceiling
        else:
            parts = name.split("/")
            if len(parts) != 2 or not all(parts):
                usage(f"expected <metric>/<metric> in {rest[1]}")
            ratio_ceilings[(parts[0], parts[1])] = ceiling
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
    def metric(name):
        if name not in metrics:
            usage(f"{path} has no metric {name}")
        return metrics[name]["value"]

    for name, ceiling in ceilings.items():
        value = metric(name)
        verdict = "ok" if value <= ceiling else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{name}: {value:g} (max {ceiling:g}) {verdict}")
    for (num, den), ceiling in ratio_ceilings.items():
        top, bottom = metric(num), metric(den)
        if bottom <= 0:
            ok = False
            print(f"{num}/{den}: {den} is {bottom:g}, no ratio FAIL")
            continue
        ratio = top / bottom
        verdict = "ok" if ratio <= ceiling else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{num}/{den}: {top:g}/{bottom:g} = {ratio:.4g} (max {ceiling:g}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
