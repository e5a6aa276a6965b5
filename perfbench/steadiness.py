"""Steadiness check of the benchmark: many seeds per workload, then a repeat.

Usage, from the root of a source checkout::

    python3 perfbench/steadiness.py [--workloads engines,cli-cache] [--seeds 10]

For every workload, runs ``run.py --trace 0`` once per seed (1, 2, ...) and
prints each end-to-end metric's median, quartiles and spread, the
interquartile distance as a share of the median, next to a third of the
metric's bound in ``BENCHMARK.json``.  It then runs ``--trace 1`` twice on
the first seed and reports whether every per-layer count (unit ``count`` or
``bytes``) repeated exactly.  Prints Markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=400)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    arguments = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in manifest["end_to_end"]}
    for workload in arguments.workloads.split(","):
        seeds = range(1, arguments.seeds + 1)
        results = [run_once(workload, seed, arguments.seconds, 0) for seed in seeds]
        failed = sum(result["failed"] for result in results)
        attempted = sum(result["attempted"] for result in results)
        print(f"\n### {workload}: {len(results)} runs, {attempted} operations, {failed} failed\n")
        print("| metric | median | q1 | q3 | spread | bound / 3 |")
        print("|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else " (too wide)"
            cells = [f"{median:.6g}", f"{q1:.6g}", f"{q3:.6g}", f"{spread:.4f}{flag}"]
            print(f"| {name} | " + " | ".join(cells) + f" | {bound / 3:.4f} |")
        rows = [
            f"{seed}: " + ", ".join(f"{result['metrics'][name]['value']:.4g}" for name in bounds)
            for seed, result in zip(seeds, results)
        ]
        print("\nper seed: " + "; ".join(rows))
        first, second = (run_once(workload, 1, arguments.seconds, 1) for _ in range(2))
        metrics = first["metrics"]
        counts = sorted(name for name in metrics if metrics[name]["unit"] in ("count", "bytes"))
        moved = [name for name in counts if metrics[name] != second["metrics"][name]]
        repeated = "all" if not moved else "NOT " + ", ".join(moved)
        print(f"\nper-layer counts repeated on seed 1: {repeated}")
        print(", ".join(f"{name}={metrics[name]['value']:g}" for name in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
