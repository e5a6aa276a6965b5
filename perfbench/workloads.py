"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Every workload is a closed loop with a single caller: the next operation
starts only after the previous one returned.  ``engines`` runs in-process on
a ``jobs=1`` scheduler pinned to the numpy engine; one of its operations runs
three parts in turn (exact threshold searches, tau sweeps, scenario sweeps).
``cli-cache`` runs its CLI commands as subprocesses, one at a time, except
that its ``--shards 2`` command runs two slice processes at once.

An operation returns an :class:`OpResult`.  Every operation of a run uses
the same inputs, so its ``signature`` (thresholds, win counts, events, result
tables) must repeat exactly; the runner counts a mismatch as a failure.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches and traces; removed when the run ends.
TMP = os.path.join(ROOT, ".perfbench-tmp")

#: Pinned so one process uses one core and BLAS never spawns threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Stripped from every environment: they would redirect caches or inject faults.
STRIPPED_ENV = ("REPRO_CACHE_DIR", "REPRO_FAULT_PLAN", "REPRO_SHARD_ATTEMPT")


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in STRIPPED_ENV}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_command(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run *argv* to completion in its own process group, killing the group on timeout.

    The group covers the shard slices a CLI command starts, so none outlives it.
    """
    process = subprocess.Popen(
        argv,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, _ = process.communicate()
        stdout += f"\n[killed after {timeout} s]"
    return subprocess.CompletedProcess(argv, process.returncode, stdout)


#: The per-layer counts of simulation events executed by the engines.
ENGINE_EVENTS = ("lv.ensemble.events", "lv.tau.events", "scenario.engine.events")


@dataclass
class OpResult:
    wall: float
    events: int
    signature: Any
    problems: list[str] = field(default_factory=list)
    #: Per-layer figures (traced operations only).
    layers: dict[str, float] | None = None
    #: Raw spans per process (traced operations only), for the trace file.
    spans: list[Any] | None = None
    #: cli-cache phase wall times in seconds.
    phases: dict[str, float] | None = None
    traced: bool = False


class EngineWorkload:
    """In-process workload: ``setup`` builds inputs and warms up; ``run`` is timed."""

    name = ""
    in_process = True

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        from repro.experiments.scheduler import SweepScheduler

        self.scheduler = SweepScheduler(jobs=1, engine="numpy", backend="exact")
        self.build()
        self.execute(self.warm_up_inputs())

    def run(self, tracer: Tracer | None) -> OpResult:
        before = self.scheduler.events_executed
        if tracer is not None:
            tracer.install()
        try:
            started = time.perf_counter()
            output = self.execute(self.inputs)
            wall = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        events = self.scheduler.events_executed - before
        signature, problems = self.check(output)
        result = OpResult(wall, events, (events, signature), problems)
        if tracer is not None:
            spans = tracer.take()
            result.layers, result.spans = layer_metrics([spans]), [spans]
        return result


class ThresholdExact(EngineWorkload):
    """``find_thresholds`` over SD and NSD requests, exact numpy engine, no store."""

    name = "threshold-exact"
    #: Sizes a factor 4 apart: the NSD gap grows like sqrt(n), so its
    #: threshold estimates at neighbouring sizes do not overlap at 50 runs.
    SIZES = (128, 512, 2048)
    RUNS = 50
    #: Independent searches per mechanism: a search's work depends on where
    #: its bisection lands, so averaging two halves the seed-to-seed variance.
    SEARCHES = 2

    def build(self) -> None:
        from repro.experiments.scheduler import ThresholdRequest
        from repro.lv.params import LVParams

        self.mechanisms = (
            LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0),
            LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0),
        )
        self.inputs = [
            ThresholdRequest(params, n, num_runs=self.RUNS, seed=self.rng.getrandbits(63))
            for _ in range(self.SEARCHES)
            for params in self.mechanisms
            for n in self.SIZES
        ]

    def warm_up_inputs(self) -> list[Any]:
        from repro.experiments.scheduler import ThresholdRequest

        return [
            ThresholdRequest(params, 64, num_runs=20, seed=index)
            for index, params in enumerate(self.mechanisms)
        ]

    def execute(self, requests: list[Any]) -> Any:
        return self.scheduler.find_thresholds(requests)

    def check(self, estimates: list[Any]) -> tuple[Any, list[str]]:
        gaps = [estimate.threshold_gap for estimate in estimates]
        problems = []
        size = len(self.SIZES)
        for start in range(0, len(gaps), 2 * size):
            sd, nsd = gaps[start : start + size], gaps[start + size : start + 2 * size]
            if None in sd + nsd:
                problems.append(f"a search found no threshold: SD {sd}, NSD {nsd}")
                continue
            for n, sd_gap, nsd_gap in zip(self.SIZES, sd, nsd):
                if n >= 256 and not sd_gap < nsd_gap:
                    problems.append(f"n={n}: SD gap {sd_gap} not below NSD gap {nsd_gap}")
            if any(later < earlier for earlier, later in zip(nsd, nsd[1:])):
                problems.append(f"NSD gaps decrease with n: {nsd}")
        probes = sum(len(estimate.probes) for estimate in estimates)
        return (tuple(gaps), probes), problems


def _win_rates(results: list[Any]) -> list[float]:
    return [float(result.majority_consensus.mean()) for result in results]


class TauXL(EngineWorkload):
    """``run_sweep`` of SD and NSD members at n = 2e5..1e6 on the tau backend."""

    name = "tau-xl"
    SIZES = (200_000, 500_000, 1_000_000)
    RUNS = 80

    def build(self) -> None:
        from repro.experiments.sweep import SweepTask
        from repro.experiments.workloads import state_with_gap
        from repro.lv.params import LVParams

        sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
        nsd = LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0)
        self.inputs = []
        for n in self.SIZES:
            state = state_with_gap(n, round(math.log(n) ** 2))
            for params in (sd, nsd):
                self.inputs.append(
                    SweepTask(
                        params,
                        state,
                        self.RUNS,
                        seed=self.rng.getrandbits(63),
                        backend="tau",
                        engine="numpy",
                    )
                )

    def warm_up_inputs(self) -> list[Any]:
        from repro.experiments.sweep import SweepTask

        return [
            SweepTask(
                task.params, task.initial_state, 2, seed=index, backend="tau", engine="numpy"
            )
            for index, task in enumerate(self.inputs[:2])
        ]

    def execute(self, tasks: list[Any]) -> Any:
        return self.scheduler.run_sweep(tasks)

    def check(self, results: list[Any]) -> tuple[Any, list[str]]:
        from repro.scenario.spec import TERM_MAX_EVENTS

        rates = _win_rates(results)
        problems = [
            f"n={task.initial_state.total}: SD win rate {sd} not above NSD {nsd}"
            for task, sd, nsd in zip(self.inputs[::2], rates[::2], rates[1::2])
            if not sd > nsd
        ]
        capped = sum(
            int((result.termination_codes == TERM_MAX_EVENTS).sum()) for result in results
        )
        if capped:
            problems.append(f"{capped} replica(s) ended at max_events")
        return tuple(rates), problems


class ScenarioKOP(EngineWorkload):
    """``run_sweep`` of opinion3, opinion4 and catalysis members, generic engine."""

    name = "scenario-kop"
    RUNS = 800

    def build(self) -> None:
        from repro.experiments.sweep import SweepTask
        from repro.lv.params import LVParams

        opinion = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
        catalysis = LVParams.self_destructive(beta=0.3, delta=0.3, alpha=0.05)
        members = []
        for k in (3, 4):
            for lead in (32, 64):
                minority = 240
                state = (minority + lead,) + (minority,) * (k - 1)
                members.append((f"opinion{k}", opinion, state))
        for catalysts in (0, 200, 800):
            members.append(("catalysis", catalysis, (360, 320, catalysts)))
        self.inputs = [
            SweepTask(
                params,
                state,
                self.RUNS,
                seed=self.rng.getrandbits(63),
                backend="exact",
                engine="numpy",
                scenario=scenario,
            )
            for scenario, params, state in members
        ]

    def warm_up_inputs(self) -> list[Any]:
        from repro.experiments.sweep import SweepTask

        return [
            SweepTask(
                task.params,
                task.initial_state,
                4,
                seed=index,
                backend="exact",
                engine="numpy",
                scenario=task.scenario,
            )
            for index, task in enumerate(self.inputs)
        ]

    def execute(self, tasks: list[Any]) -> Any:
        return self.scheduler.run_sweep(tasks)

    def check(self, results: list[Any]) -> tuple[Any, list[str]]:
        problems = []
        rates = _win_rates(results)
        for task, result, rate in zip(self.inputs, results, rates):
            k = 2 if task.scenario == "catalysis" else len(task.counts)
            label = f"{task.scenario} {task.counts}"
            if not result.reached_consensus.all():
                problems.append(f"{label}: not every replica reached consensus")
            if not rate > 1.0 / k:
                problems.append(f"{label}: plurality win rate {rate} <= 1/{k}")
        return tuple(rates), problems


class Engines(EngineWorkload):
    """The three engine parts in turn, on one scheduler: one operation runs all three.

    Each part builds its inputs from its own name and the seed, so a part's
    inputs do not depend on which other parts run beside it.  The exact
    threshold searches do seed-dependent work (where a bisection lands decides
    which gaps are probed); the fixed-size tau and scenario sweeps beside them
    dilute that.
    """

    name = "engines"
    PARTS = (ThresholdExact, TauXL, ScenarioKOP)

    def __init__(self, seed: int) -> None:
        self.parts = [part(seed) for part in self.PARTS]

    def build(self) -> None:
        for part in self.parts:
            part.scheduler = self.scheduler
            part.build()
        self.inputs = [part.inputs for part in self.parts]

    def warm_up_inputs(self) -> list[Any]:
        return [part.warm_up_inputs() for part in self.parts]

    def execute(self, inputs: list[Any]) -> list[Any]:
        return [part.execute(chunk) for part, chunk in zip(self.parts, inputs)]

    def check(self, outputs: list[Any]) -> tuple[Any, list[str]]:
        signatures, problems = [], []
        for part, output in zip(self.parts, outputs):
            signature, found = part.check(output)
            signatures.append(signature)
            problems += [f"{part.name}: {problem}" for problem in found]
        return tuple(signatures), problems


_CACHE_LINE = re.compile(
    r"cache: (\d+) chunk hit\(s\), (\d+) miss\(es\), (\d+) journaled, "
    r"(\d+) run\(s\) from cache, (\d+) event\(s\) replayed"
)


def _tables(stdout: str) -> str:
    """The result tables of a ``repro run`` output (driver and cache lines dropped)."""
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("[")), len(lines))
    return "\n".join(line for line in lines[start:] if not line.startswith("cache: "))


class CliCache:
    """Cold ``python -m repro run`` commands against a fresh cache: miss, hit, shards.

    Traced operations run the commands through ``cli_shim.py``, which records
    the spans in each process; the in-process tracer is not used.
    """

    name = "cli-cache"
    in_process = False
    #: Fixed-budget experiments, so the replayed event count barely moves with
    #: the seed (FIG-THRESH's varies by about 10%).  SCEN-KOP and SCEN-CAT are
    #: left out: their ``--shards`` runs fail with a merge conflict, because
    #: the scenario engine's kernel twin and its numpy path disagree on
    #: ``max_total_population`` for some replicas.
    EXPERIMENTS = ("FIG-GAP", "FIG-TIME")

    def __init__(self, seed: int) -> None:
        self.cli_seed = random.Random(f"{self.name}:{seed}").randrange(10**6)
        self.ops = 0

    def setup(self) -> None:
        import repro.__main__

        repro.__main__.build_parser()

    def _command(self, cache_dir: str, extra: list[str], trace_out: str | None) -> list[str]:
        args = ["run", *self.EXPERIMENTS, "--scale", "quick", "--seed", str(self.cli_seed)]
        args += ["--jobs", "1", "--backend", "exact", "--engine", "numpy"]
        args += ["--cache-dir", cache_dir, *extra]
        if trace_out is None:
            return [sys.executable, "-m", "repro", *args]
        shim = os.path.join(HERE, "cli_shim.py")
        return [sys.executable, shim, "--trace-out", trace_out, "--", *args]

    def run(self, tracer: Tracer | None) -> OpResult:
        self.ops += 1
        base = os.path.join(TMP, f"{self.name}-{os.getpid()}-op{self.ops}")
        traces = os.path.join(base, "traces") if tracer is not None else None
        problems: list[str] = []
        outputs: dict[str, str] = {}
        phases: dict[str, float] = {}
        miss_dir, shard_dir = os.path.join(base, "miss"), os.path.join(base, "shard")
        journal = os.path.join(miss_dir, "journal.jsonl")
        sizes = {}
        for phase, cache_dir, extra in (
            ("miss", miss_dir, []),
            ("hit", miss_dir, []),
            ("shard", shard_dir, ["--shards", "2"]),
        ):
            trace_out = os.path.join(traces, f"{phase}.json") if traces else None
            started = time.perf_counter()
            completed = run_command(self._command(cache_dir, extra, trace_out), timeout=120)
            phases[phase] = time.perf_counter() - started
            outputs[phase] = completed.stdout
            sizes[phase] = os.path.getsize(journal) if os.path.exists(journal) else 0
            if completed.returncode != 0:
                tail = completed.stdout[-2000:]
                problems.append(f"{phase} pass exited {completed.returncode}: {tail}")
        hit = _CACHE_LINE.search(outputs["hit"])
        events = int(hit.group(5)) if hit else 0
        if hit is None or hit.group(2) != "0" or hit.group(3) != "0":
            problems.append(f"hit pass was not served from the cache: {hit and hit.group(0)}")
        if sizes["hit"] != sizes["miss"]:
            problems.append("hit pass appended to the journal")
        tables = {phase: _tables(text) for phase, text in outputs.items()}
        for phase in ("hit", "shard"):
            if tables[phase] != tables["miss"]:
                problems.append(f"{phase} pass tables differ from the miss pass")
        signature = (events, sizes["miss"], tables["miss"])
        result = OpResult(sum(phases.values()), events, signature, problems, phases=phases)
        if traces is not None:
            processes, hit_events = [], 0
            for name in sorted(os.listdir(traces)):
                with open(os.path.join(traces, name)) as handle:
                    spans = json.load(handle)
                processes.append(spans)
                if name == "hit.json":
                    hit_layers = layer_metrics([spans])
                    hit_events = sum(hit_layers[key] for key in ENGINE_EVENTS)
            if hit_events:
                problems.append(f"hit pass executed {hit_events} events")
            result.layers = layer_metrics(processes)
            result.layers["store.journal_bytes"] = sizes["miss"]
            result.spans = processes
        shutil.rmtree(base, ignore_errors=True)
        return result


WORKLOADS = {workload.name: workload for workload in (Engines, CliCache)}
