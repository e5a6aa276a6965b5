"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps the public functions of each layer at the module
attribute its caller resolves (``execute_mega_batch`` is imported by name
into ``repro.experiments.scheduler``, so that is where it is patched), and
restores the originals on :meth:`Tracer.uninstall`.  Nothing under ``src/``
is modified.  A span is ``[name, start, end, parent, attrs]``: ``parent``
is the index of the enclosing span in the same process (``-1`` at the top)
and ``attrs`` holds the work counters read off the call's arguments and
result.  Spans stay in memory until the caller writes them out.

:func:`layer_metrics` turns the spans of one operation into per-layer
figures.  A layer's time is its *self* time: the span's duration minus the
time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Any, Callable

#: Where the shard driver's slice commands go when traced: the slices run
#: through the same shim as the top-level CLI commands.
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")


def _events(results: Any, *, lv2_only: bool) -> dict[str, int]:
    events = leaps = members = 0
    for result in results:
        if lv2_only and result.scenario != "lv2":
            continue
        members += 1
        events += int(result.total_events.sum())
        if result.leap_events is not None:
            leaps += int(result.leap_events.sum())
    return {"events": events, "leap_events": leaps, "members": members}


def _lv2_events(args, kwargs, result) -> dict[str, int]:
    return _events(result, lv2_only=True)


def _scenario_events(args, kwargs, result) -> dict[str, int]:
    return _events(result, lv2_only=False)


def _packed(args, kwargs, result) -> dict[str, int]:
    sweep_batch = args[1] if len(args) > 1 else kwargs["sweep_batch"]
    replicas = sum(spec.num_replicates for plan in result for spec in plan)
    return {"replicas": replicas, "capacity": len(result) * sweep_batch}


def _chunk_lookup(args, kwargs, result) -> dict[str, int]:
    return {"hit": int(result is not None)}


def _slices(args, kwargs, result) -> dict[str, Any]:
    return {
        "durations": [slice_result.duration for slice_result in result],
        "attempts": [slice_result.attempts for slice_result in result],
    }


_SCHEDULER = "repro.experiments.scheduler"
_SWEEP = "repro.experiments.sweep"
_STORE = "repro.store.store"

#: ``(module, attribute path, span name, counter)`` for every wrapped call.
#: Class attributes (``SweepScheduler.run_sweep``) cover every instance.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    (_SCHEDULER, "SweepScheduler.run_sweep", "experiments.scheduler", None),
    (_SCHEDULER, "SweepScheduler.find_thresholds", "experiments.scheduler", None),
    (_SCHEDULER, "drive_threshold_searches", "consensus", None),
    (_SCHEDULER, "plan_members", "experiments.sweep.plan", None),
    (_SCHEDULER, "pack_members", "experiments.sweep.plan", _packed),
    (_SCHEDULER, "execute_mega_batch", "experiments.sweep.execute", None),
    (_SCHEDULER, "demux_mega_results", "experiments.sweep.demux", None),
    (_SCHEDULER, "plan_shards", "shard.plan", None),
    (_SWEEP, "run_sweep_ensemble", "lv.ensemble", _lv2_events),
    ("repro.lv.ensemble", "run_sweep_ensemble", "lv.ensemble", _lv2_events),
    (_SWEEP, "run_tau_sweep_ensemble", "lv.tau", _lv2_events),
    ("repro.lv.tau", "run_tau_sweep_ensemble", "lv.tau", _lv2_events),
    ("repro.scenario.engine", "run_scenario_members", "scenario.engine", _scenario_events),
    ("repro.scenario.engine", "run_scenario_members_tau", "scenario.engine", _scenario_events),
    (_STORE, "ExperimentStore.__init__", "store.open", None),
    (_STORE, "ExperimentStore.get_chunk", "store.get_chunk", _chunk_lookup),
    (_STORE, "ExperimentStore.put_chunk", "store.put_chunk", None),
    (_STORE, "ExperimentStore.get_run", "store.get_run", None),
    (_STORE, "ExperimentStore.put_run", "store.put_run", None),
    (_STORE, "ensemble_to_payload", "store.serialize", None),
    (_STORE, "ensemble_from_payload", "store.deserialize", None),
    ("repro.__main__", "run_shard_processes", "shard.run", _slices),
    ("repro.__main__", "merge_cache", "shard.merge", None),
)


class Tracer:
    """Installs the layer wrappers and records spans while installed."""

    def __init__(self, *, slice_trace_dir: str | None = None) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._slice_trace_dir = slice_trace_dir

    # -- recording -----------------------------------------------------
    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close_span(self, index: int, attrs: dict[str, Any] | None = None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        if attrs:
            span[4].update(attrs)

    def take(self) -> list[list[Any]]:
        """Return and clear the recorded spans (between operations)."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, function: Callable, counter: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if name == "consensus":
                args = (args[0], tracer._probe_runner(args[1]))
            elif name == "shard.run" and tracer._slice_trace_dir is not None:
                args = (tracer._traced_slices(args[0]), *args[1:])
            index = tracer.open_span(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.close_span(index)
                raise
            tracer.close_span(index, counter(args, kwargs, result) if counter else None)
            return result

        return wrapper

    def _probe_runner(self, runner: Callable) -> Callable:
        """Give each bisection round a scheduler span that counts its probes."""

        def traced_round(probes):
            index = self.open_span("experiments.scheduler")
            try:
                return runner(probes)
            finally:
                self.close_span(index, {"probes": len(probes)})

        return traced_round

    def _traced_slices(self, command_for_slice: Callable) -> Callable:
        """Route each shard slice through the shim so its layers are traced too."""
        trace_dir = self._slice_trace_dir

        def command(slice_index, cache_dir):
            argv = list(command_for_slice(slice_index, cache_dir))
            if argv[1:3] != ["-m", "repro"]:
                return argv
            out = os.path.join(trace_dir, f"slice-{slice_index}-{time.monotonic_ns()}.json")
            return [argv[0], SHIM, "--trace-out", out, "--", *argv[3:]]

        return command

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        for module_name, path, name, counter in LAYERS:
            owner: object = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(processes: list[list[list[Any]]]) -> dict[str, float]:
    """Per-layer figures of one operation, from the spans of each process."""
    totals: dict[str, float] = {}
    counts: dict[str, float] = {}

    def add(table: dict[str, float], key: str, value: float) -> None:
        table[key] = table.get(key, 0) + value

    durations: list[float] = []
    attempts: list[int] = []
    for spans in processes:
        for span, own in zip(spans, self_times(spans)):
            name, attrs = span[0], span[4]
            add(totals, name, own)
            add(counts, name + ".calls", 1)
            for key, value in attrs.items():
                if isinstance(value, list):
                    continue
                add(counts, f"{name}.{key}", value)
            durations += attrs.get("durations", [])
            attempts += attrs.get("attempts", [])

    def total(name: str) -> float:
        return totals.get(name, 0.0)

    def count(name: str) -> float:
        return counts.get(name, 0)

    lv_busy = total("lv.ensemble")
    capacity = count("experiments.sweep.plan.capacity")
    lookups = count("store.get_chunk.calls")
    tau_events = count("lv.tau.events")
    mean_slice = sum(durations) / len(durations) if durations else 0.0
    return {
        "lv.ensemble.busy_s": lv_busy,
        "lv.ensemble.events": count("lv.ensemble.events"),
        "lv.ensemble.events_per_s": count("lv.ensemble.events") / lv_busy if lv_busy else 0.0,
        "experiments.scheduler.self_s": total("experiments.scheduler"),
        "experiments.sweep.execute_calls": count("experiments.sweep.execute.calls"),
        "experiments.sweep.execute_s": total("experiments.sweep.execute"),
        "experiments.sweep.fill_ratio": (
            count("experiments.sweep.plan.replicas") / capacity if capacity else 0.0
        ),
        "experiments.sweep.plan_s": total("experiments.sweep.plan"),
        "experiments.sweep.demux_s": total("experiments.sweep.demux"),
        "consensus.probes": count("experiments.scheduler.probes"),
        "lv.tau.busy_s": total("lv.tau"),
        "lv.tau.events": tau_events,
        "lv.tau.leap_share": count("lv.tau.leap_events") / tau_events if tau_events else 0.0,
        "scenario.engine.busy_s": total("scenario.engine"),
        "scenario.engine.members": count("scenario.engine.members"),
        "scenario.engine.events": count("scenario.engine.events"),
        "cli.import_s": total("cli.import"),
        "cli.cmd_s": total("cli.cmd"),
        "store.put_chunk_calls": count("store.put_chunk.calls"),
        "store.put_chunk_s": total("store.put_chunk"),
        "store.serialize_s": total("store.serialize"),
        "store.open_s": total("store.open"),
        "store.get_chunk_calls": lookups,
        "store.get_chunk_s": total("store.get_chunk"),
        "store.deserialize_s": total("store.deserialize"),
        "store.hit_ratio": count("store.get_chunk.hit") / lookups if lookups else 0.0,
        "shard.plan_s": total("shard.plan"),
        "shard.slices": len(durations),
        "shard.slice_max_s": max(durations, default=0.0),
        "shard.imbalance": max(durations) / mean_slice if mean_slice else 0.0,
        "shard.retries": sum(attempts) - len(attempts),
        "shard.merge_s": total("shard.merge"),
    }


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)
