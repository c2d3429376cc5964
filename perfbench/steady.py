"""Steadiness of the benchmark: how far its figures move between runs.

    python3 perfbench/steady.py --runs 10

Runs ``perfbench/run.py`` once per seed (1, 2, ... ``--runs``) on each
workload, one run at a time, with the ``run_seconds`` of
``BENCHMARK.json``, and prints each run's figures and wall time. For
every end-to-end metric it then prints the median, the quartiles and
the spread (third minus first quartile, over the median) beside the
metric's bound, and the share of failed operations of every run. A bound is safe when the spread stays under a third of
it. Exits 1 when any run fails, the share of failed operations differs
between runs, or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited"
                           f" {done.returncode}:\n{done.stdout}"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(spec, workload, results) -> bool:
    """Print one workload's table; returns whether it is within
    bounds."""
    steady = True
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{workload}: {len(results)} runs, failed share"
          f" {sorted(shares)}")
    if len(shares) != 1:
        steady = False
    print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = measure.spread(values)
        bound = metric["bound"]
        flag = "" if spread <= bound / 3 else (
            "  above a third of the bound" if spread <= bound
            else "  ABOVE THE BOUND")
        if spread > bound:
            steady = False
        print(f"  {name:16s} {q2:12.4f} {q1:12.4f} {q3:12.4f}"
              f" {spread:8.4f} {bound:6.2f} {metric['unit']}{flag}")
    return steady


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(prog="python3 perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            start = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"])
            print(f"{workload} seed {seed}"
                  f" ({time.perf_counter() - start:.0f} s): " + ", ".join(
                      f"{name} {value['value']:.4g}"
                      for name, value in result["metrics"].items()),
                  flush=True)
            results.append(result)
        steady = summarize(spec, workload, results) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
