#!/usr/bin/env python3
"""End-to-end benchmark of DCatch-C++.

    python3 perfbench/run.py --workload batch|campaign|stream \\
        --seed N --seconds S --trace 0|1

Builds the perfbench program from the sources next to this directory
(into .bench_build/ at the checkout root), runs one workload, checks
its outputs against expected.json, and prints as the last line one
JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer ones (a layer the
workload does not exercise reads 0).  Exits nonzero when the build
fails, the program fails, or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("batch", "campaign", "stream")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the program; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                    "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def parse_lines(text):
    metrics, outputs, fails, attempted = {}, {}, [], 0
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            metrics[name] = {"value": float(value), "unit": unit}
        elif kind == "output":
            key, _, value = rest.partition(" ")
            outputs[key] = value
        elif kind == "fail":
            fails.append(rest)
        elif kind == "attempted":
            attempted = int(rest)
    return metrics, outputs, fails, attempted


def oracle_mismatches(workload, outputs):
    """Compare printed outputs with expected.json.  They do not depend
    on the seed: the seed changes order and interleaving, and the
    campaign's held-out seed base is checked by cross-path equality
    inside the program."""
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)[workload]
    wrong = []
    for key, value in sorted(expected.items()):
        if key.startswith("_"):
            continue
        got = outputs.get(key)
        if got != str(value):
            wrong.append(f"{key}: expected {value!r}, got {got!r}")
    return wrong


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # The program prints setup_s in both modes; only the declared set of
    # this mode is reported.
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: program exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: program exited with {proc.returncode}")
        return 1

    metrics, outputs, fails, attempted = parse_lines(proc.stdout)
    fails += oracle_mismatches(args.workload, outputs)
    for key, value in sorted(outputs.items()):
        print(f"{key} = {value}")
    for why in fails:
        log(f"FAIL {why}")

    unknown = sorted(set(metrics) - known)
    if unknown:
        log(f"perfbench: undeclared metrics {unknown}")
        return 1
    result = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                log(f"perfbench: end-to-end metric {m['name']} missing")
                return 1
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised
        elif got["unit"] != m["unit"]:
            log(f"perfbench: {m['name']} unit {got['unit']} != {m['unit']}")
            return 1
        result[m["name"]] = got

    attempted = max(attempted, 1)
    print(f"error_rate = {len(fails) / attempted:.6f} "
          f"({len(fails)} of {attempted} operations)")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": len(fails), "metrics": result}))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
