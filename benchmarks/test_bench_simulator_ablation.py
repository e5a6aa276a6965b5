"""Ablation benchmark: specialised LV simulator versus the lowered generic CRN.

The LV network from :func:`repro.crn.build_lv_network`, lowered with
:meth:`Scenario.from_network`, runs on the generic scenario engine; the
specialised two-species jump-chain simulator runs the same chain directly.
This benchmark times both on identical workloads and checks that they agree
statistically on the majority-consensus probability.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crn.builders import build_lv_network
from repro.lv.params import LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState
from repro.scenario.engine import run_scenario
from repro.scenario.spec import TERM_CONSENSUS, Scenario

_PARAMS = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
_STATE = LVState(96, 64)
_RUNS = 100


def _fast_success_rate(seed: int) -> float:
    simulator = LVJumpChainSimulator(_PARAMS)
    return simulator.majority_success_count(_STATE, _RUNS, rng=seed) / _RUNS


def _generic_success_rate(seed: int) -> float:
    network = build_lv_network(
        beta=_PARAMS.beta,
        delta=_PARAMS.delta,
        alpha0=_PARAMS.alpha0,
        alpha1=_PARAMS.alpha1,
    )
    finals, _, codes, _, _ = run_scenario(
        Scenario.from_network(network), _STATE.counts, _RUNS, 10**7, seed
    )
    return float(np.mean((codes == TERM_CONSENSUS) & (finals[:, 0] > 0)))


def test_specialised_simulator(benchmark):
    rate = benchmark.pedantic(_fast_success_rate, args=(7,), rounds=1, iterations=1)
    benchmark.extra_info["success_rate"] = rate
    assert rate > 0.9


def test_generic_crn_simulator(benchmark):
    rate = benchmark.pedantic(_generic_success_rate, args=(7,), rounds=1, iterations=1)
    benchmark.extra_info["success_rate"] = rate
    assert rate > 0.9


def test_tiers_agree_statistically(benchmark):
    """The two tiers estimate the same rho (within Monte-Carlo tolerance)."""

    def compare():
        return _fast_success_rate(11), _generic_success_rate(11)

    fast_rate, generic_rate = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert fast_rate == pytest.approx(generic_rate, abs=0.12)
