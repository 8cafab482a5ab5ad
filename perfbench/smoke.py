#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout (about two minutes).  Runs all four
workloads briefly, untraced and traced, including `gather`, which
BENCHMARK.json does not gate, and checks that each metric BENCHMARK.json
names is printed with its unit and that verification passed.  Then runs
every workload with one result corrupted after the run and checks that the
corruption is counted as a failed operation with a non-zero exit.  Exits 1
on the first violated check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Long enough for at least 100 batches per world on every workload.
SECONDS = {"histo": 4, "gather": 4, "histo_mp": 4, "am": 10}


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(SECONDS[workload]),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{cmd}: no output; stderr:\n{p.stderr}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{cmd}: bad result keys {sorted(result)}")
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in SECONDS:
        for trace in (0, 1):
            code, result, err = run(workload, trace)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{workload} trace={trace}: exit {code}, "
                                     f"{result}\n{err}")
            if got != expected[trace]:
                raise AssertionError(f"{workload} trace={trace}: metrics "
                                     f"{got} != {expected[trace]}")
            if not all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()):
                raise AssertionError(f"{workload}: non-numeric metric value")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops verified", flush=True)
        code, result, _ = run(workload, 0, corrupt=True)
        if code == 0 or result["correct"] or result["failed"] < 1:
            raise AssertionError(f"{workload}: corrupted result not counted "
                                 f"as failed (exit {code}, {result})")
        print(f"ok   {workload} corrupted: {result['failed']} failed, "
              f"exit {code}", flush=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"smoke: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
