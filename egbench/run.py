#!/usr/bin/env python3
"""Builds and runs the seeded eg-walker benchmark (see README.md).

Run from the repository root:

  python3 egbench/run.py --workload merge-concurrent --seed 1 --seconds 10 --trace 0
  python3 egbench/run.py --check-inputs
  python3 egbench/run.py --self-check [--runs 5] [--seconds 10] [--workload NAME ...]

A measuring run builds egbench/ into $CARGO_TARGET_DIR (default
.bench_build) and forwards the benchmark's output; its last stdout line is
the JSON result. --check-inputs verifies the seeds (same seed, same bytes;
two seeds, different bytes of the same shape). --self-check runs every
workload repeatedly and prints each end-to-end metric's median and spread
against its bound in BENCHMARK.json, then asserts that every count repeats
exactly for one seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("merge-concurrent", "edit-save-open", "server-replay")
DEFAULT_SEED = 1
# Not used while the benchmark or a change is tuned: claims are re-checked on it.
HELD_OUT_SEED = 90017
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Counts that depend on thread timing, not on the inputs.
TIMING_COUNTS = {"server.blocked_pushes"}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "doc.h")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(build_dir(), "egbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None and not os.path.isfile(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 4)
    return os.path.join(out, "egbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(binary, args, capture):
    try:
        done = subprocess.run([binary] + args, capture_output=capture, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 5)
    return done


def measure_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--git-sha", git_sha()]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out", os.path.join(spans, f"{workload}-seed{seed}.json")]
    return args


def measure(binary, workload, seed, seconds, trace):
    done = run_binary(binary, measure_args(workload, seed, seconds, trace), capture=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        fail(f"{workload} seed {seed} exited with {done.returncode}", 1)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        fail(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed", 1)
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median if median else float("inf")


def self_check(binary, workloads, runs, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        results = [measure(binary, workload, DEFAULT_SEED + i, seconds, 0) for i in range(runs)]
        print(f"{workload}: {runs} seeds from {DEFAULT_SEED}")
        for name, bound in bounds.items():
            median, iqr = spread([r["metrics"][name]["value"] for r in results])
            verdict = "ok" if iqr <= bound else "TOO WIDE"
            ok = ok and verdict == "ok"
            print(f"  {name:24s} median {median:14.6g}  iqr/median {iqr:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
        # Determinism: one seed's counts repeat exactly, untraced and traced.
        again = measure(binary, workload, DEFAULT_SEED, seconds, 0)
        traced = [measure(binary, workload, DEFAULT_SEED, seconds, 1) for _ in range(2)]
        pairs = [(results[0], again)] + [(traced[0], traced[1])]
        for a, b in pairs:
            for name, metric in a["metrics"].items():
                if metric["unit"] in ("count", "B", "ticks") and name not in TIMING_COUNTS:
                    if metric["value"] != b["metrics"][name]["value"]:
                        ok = False
                        print(f"  NOT REPEATED {name}: {metric['value']} vs "
                              f"{b['metrics'][name]['value']}")
        print(f"  counts repeat: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--check-inputs", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--runs", type=int)
    args = parser.parse_args()

    if args.check_inputs:
        if any(v is not None for v in (args.workload, args.seed, args.seconds, args.trace,
                                       args.runs)) or args.self_check:
            parser.error("--check-inputs takes no other flag")
        binary = build()
        done = run_binary(binary, ["--check-inputs", "--seed", str(DEFAULT_SEED),
                                   "--held-out-seed", str(HELD_OUT_SEED)], capture=False)
        return done.returncode
    if args.self_check:
        if args.seed is not None or args.trace is not None:
            parser.error("--self-check chooses its own seeds and trace modes")
        if args.runs is not None and args.runs < 4:
            parser.error("--runs must be at least 4 (quartiles need them)")
        binary = build()
        return self_check(binary, args.workload or WORKLOADS, args.runs or 5, args.seconds or 10)
    if args.runs is not None:
        parser.error("--runs only applies to --self-check")
    if not args.workload or len(args.workload) != 1 or None in (args.seed, args.seconds,
                                                                args.trace):
        parser.error("a run needs one --workload, --seed, --seconds and --trace")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    done = run_binary(binary, measure_args(args.workload[0], args.seed, args.seconds,
                                           args.trace), capture=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
