"""Self-test of the benchmark: manifest validity and the span arithmetic.

Run with ``python -m pytest perfbench``.  The manifest checks mirror the
limits a benchmark runner enforces before a single run, and tie the
manifest's names to the ones ``run.py`` reports.
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        text = handle.read()
    assert len(text.encode()) <= 64 * 1024
    return json.loads(text)


def test_top_level_shape(manifest):
    assert set(manifest) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert 1 <= len(manifest["command"]) <= 32
    assert all(isinstance(part, str) and len(part) <= 200 for part in manifest["command"])
    assert 1 <= len(manifest["paths"]) <= 16
    for path in manifest["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path.split("/")
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60


def test_workloads(manifest):
    entries = manifest["workloads"]
    assert 2 <= len(entries) <= 8
    for entry in entries:
        assert set(entry) == {"name", "why"}
        assert NAME.fullmatch(entry["name"])
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [entry["name"] for entry in entries] == list(workloads.WORKLOADS)


def test_metrics(manifest):
    end_to_end, per_layer = manifest["end_to_end"], manifest["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [metric["name"] for metric in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"])
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(metric for metric in end_to_end if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in end_to_end)


def test_manifest_matches_what_run_reports(manifest):
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER_UNITS


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["experiments.scheduler", 0.0, 10.0, -1, {}],
        ["experiments.sweep.execute", 1.0, 9.0, 0, {}],
        ["lv.ensemble", 2.0, 8.0, 1, {"events": 5, "leap_events": 0, "members": 1}],
    ]
    assert tracer.self_times(spans) == [2.0, 2.0, 6.0]
    metrics = tracer.layer_metrics([spans])
    assert metrics["lv.ensemble.busy_s"] == 6.0
    assert metrics["lv.ensemble.events_per_s"] == 5 / 6.0
    assert metrics["experiments.scheduler.self_s"] == 2.0
    assert set(metrics) <= set(run.PER_LAYER_UNITS)
