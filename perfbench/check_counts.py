#!/usr/bin/env python3
"""Count determinism check for the end-to-end benchmark.

    python3 perfbench/check_counts.py [--seed N] [workload ...]

Runs the traced mode of each workload (default: all) twice back to
back and fails unless every per-layer metric whose unit is `count`
(runtime.steps, trace.records, trigger.order_runs,
explore.shrink_replays, serve.epochs, ...) reads exactly the same in
both runs.  A speed-only change must leave these counts identical.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch", "campaign", "stream")


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed "
                         f"(exit {proc.returncode})")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] == "count"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    for workload in args.workloads:
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload!r}")
    args.workloads = args.workloads or list(WORKLOADS)
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        for name in differ:
            print(f"{workload}: {name} {first[name]} != {second[name]}")
        print(f"{workload}: {len(first) - len(differ)} of {len(first)} "
              f"counts identical")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
