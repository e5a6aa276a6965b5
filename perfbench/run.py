"""Benchmark of the majority-consensus threshold stack.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload engines --seed 1 --seconds 40 --trace 0

The workload's inputs are built from ``--seed``.  The run then

1. measures set-up: ``SETUP_SAMPLES`` fresh interpreters each import the
   package, build the inputs and run the warm-up (``--setup-probe``);
2. sets up in this process (the engine workloads) and repeats the
   workload's operation, closed loop, until ``--seconds`` have passed;
3. checks every operation's output and that all of them agree;
4. prints one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median set-up time of a fresh interpreter (import + warm-up);
* ``wall_s``: median wall time of one operation;
* ``events_per_s``: median of events / wall per operation; events are the
  simulation events the scheduler executed (on ``cli-cache``: the events
  behind the result tables, as the hit pass replays them);
* ``peak_rss_mb``: peak resident set of this process or any child.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (mean per operation), the ``cli-cache``
phase times of the untraced ones (median), and ``tracing.overhead_s``, the
median traced minus the median untraced wall time.  The spans are written
to ``.perfbench-out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB"}
PHASES = {"miss": "miss_pass_s", "hit": "hit_pass_s", "shard": "shard_s"}
PER_LAYER_UNITS = {
    "lv.ensemble.busy_s": "s",
    "lv.ensemble.events": "count",
    "lv.ensemble.events_per_s": "1/s",
    "experiments.scheduler.self_s": "s",
    "experiments.sweep.execute_calls": "count",
    "experiments.sweep.execute_s": "s",
    "experiments.sweep.fill_ratio": "ratio",
    "experiments.sweep.plan_s": "s",
    "experiments.sweep.demux_s": "s",
    "consensus.probes": "count",
    "lv.tau.busy_s": "s",
    "lv.tau.events": "count",
    "lv.tau.leap_share": "ratio",
    "scenario.engine.busy_s": "s",
    "scenario.engine.members": "count",
    "scenario.engine.events": "count",
    "cli.import_s": "s",
    "cli.cmd_s": "s",
    "store.put_chunk_calls": "count",
    "store.put_chunk_s": "s",
    "store.serialize_s": "s",
    "store.journal_bytes": "bytes",
    "store.open_s": "s",
    "store.get_chunk_calls": "count",
    "store.get_chunk_s": "s",
    "store.deserialize_s": "s",
    "store.hit_ratio": "ratio",
    "shard.plan_s": "s",
    "shard.slices": "count",
    "shard.slice_max_s": "s",
    "shard.imbalance": "ratio",
    "shard.retries": "count",
    "shard.merge_s": "s",
    "miss_pass_s": "s",
    "hit_pass_s": "s",
    "shard_s": "s",
    "tracing.overhead_s": "s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kilobytes / 1024.0


def measure_setup(arguments: argparse.Namespace) -> list[float | None]:
    """Wall time of each set-up probe; ``None`` for a probe that failed."""
    from workloads import run_command

    samples: list[float | None] = []
    for _ in range(SETUP_SAMPLES):
        command = [sys.executable, os.path.abspath(__file__), "--setup-probe"]
        command += ["--workload", arguments.workload, "--seed", str(arguments.seed)]
        started = time.perf_counter()
        completed = run_command(command, timeout=60)
        elapsed = time.perf_counter() - started
        if completed.returncode != 0:
            print(f"set-up probe failed:\n{completed.stdout[-2000:]}", file=sys.stderr)
            samples.append(None)
        else:
            samples.append(elapsed)
    return samples


def main(argv: list[str]) -> int:
    arguments = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    # Before numpy is imported anywhere in this process.
    from workloads import STRIPPED_ENV, THREAD_ENV, TMP, WORKLOADS

    for key in STRIPPED_ENV:
        os.environ.pop(key, None)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if arguments.workload not in WORKLOADS:
        print(f"unknown workload {arguments.workload!r}: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[arguments.workload](arguments.seed)
    if arguments.setup_probe:
        workload.setup()
        return 0
    try:
        return measure(arguments, workload)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def measure(arguments: argparse.Namespace, workload) -> int:
    from tracer import Tracer, write_json

    setup = measure_setup(arguments)
    attempted, failed = len(setup), setup.count(None)
    if workload.in_process:
        workload.setup()
    ops = []
    deadline = time.perf_counter() + arguments.seconds
    while True:
        traced = bool(arguments.trace) and len(ops) % 2 == 1
        attempted += 1
        try:
            op = workload.run(Tracer() if traced else None)
            op.traced = traced
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            if op.problems or (ops and op.signature != ops[0].signature):
                print(f"operation {attempted} failed its checks: {op.problems}", file=sys.stderr)
                failed += 1
            ops.append(op)
        # A traced run needs one untraced and one traced operation at least.
        if time.perf_counter() >= deadline and (len(ops) >= 1 + arguments.trace or failed):
            break
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    samples = [sample for sample in setup if sample is not None]
    if not plain or not samples or (arguments.trace and not traced):
        print("no complete operation or set-up to report", file=sys.stderr)
        return 1
    wall = statistics.median(op.wall for op in plain)
    if arguments.trace:
        metrics = {
            name: statistics.fmean(op.layers.get(name, 0.0) for op in traced)
            for name in PER_LAYER_UNITS
        }
        if plain[0].phases:
            for phase, name in PHASES.items():
                metrics[name] = statistics.median(op.phases[phase] for op in plain)
        metrics["tracing.overhead_s"] = statistics.median(op.wall for op in traced) - wall
        units = PER_LAYER_UNITS
        out = f"trace-{arguments.workload}-{arguments.seed}.json"
        write_json(
            os.path.join(ROOT, ".perfbench-out", out),
            [{"wall_s": op.wall, "processes": op.spans} for op in traced],
        )
    else:
        metrics = {
            "setup_s": statistics.median(samples),
            "wall_s": wall,
            "events_per_s": statistics.median(op.events / op.wall for op in plain),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    print(f"{arguments.workload}: {len(ops)} operation(s), seed {arguments.seed}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
