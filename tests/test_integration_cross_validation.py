"""Cross-validation integration tests.

These tests tie the independent layers of the library together: the fast
two-species simulator against the generic scenario engine running the lowered
CRN, Monte-Carlo estimates against exact first-step solutions, and empirical
thresholds against the exact win-probability grid.  They are the strongest
correctness evidence in the suite because the compared implementations share
almost no code.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chains.first_step import exact_majority_probability, exact_win_probability_grid
from repro.consensus.estimator import estimate_majority_probability
from repro.consensus.threshold import ThresholdSearch
from repro.consensus.theory import high_probability_target
from repro.crn.builders import build_lv_network
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.simulator import LVJumpChainSimulator
from repro.lv.state import LVState
from repro.scenario.engine import run_scenario
from repro.scenario.spec import TERM_CONSENSUS, Scenario


class TestFastSimulatorAgainstGenericCRN:
    """The specialised LV simulator and the lowered CRN describe one chain."""

    @pytest.mark.parametrize("self_destructive", [True, False], ids=["SD", "NSD"])
    def test_single_step_distributions_match(self, self_destructive):
        params = LVParams(
            beta=0.8,
            delta=1.2,
            alpha0=0.4,
            alpha1=0.6,
            mechanism=(
                CompetitionMechanism.SELF_DESTRUCTIVE
                if self_destructive
                else CompetitionMechanism.NON_SELF_DESTRUCTIVE
            ),
        )
        fast = LVJumpChainSimulator(params)
        network = build_lv_network(
            beta=params.beta,
            delta=params.delta,
            alpha0=params.alpha0,
            alpha1=params.alpha1,
            self_destructive=self_destructive,
        )
        state = LVState(5, 3)
        expected = fast.transition_distribution(state)

        # One-step empirical distribution: every replica of the lowered
        # network stops after its first event.
        samples = 3000
        finals, *_ = run_scenario(Scenario.from_network(network), state.counts, samples, 1, seed=2)
        counts: dict[tuple[int, int], int] = {}
        for x0, x1 in finals.tolist():
            counts[(x0, x1)] = counts.get((x0, x1), 0) + 1
        for target, probability in expected.items():
            assert counts.get(target, 0) / samples == pytest.approx(probability, abs=0.03)

    def test_majority_probability_matches_exact(self, sd_params):
        """rho of the lowered network on the scenario engine is the exact one."""
        network = build_lv_network(
            beta=sd_params.beta,
            delta=sd_params.delta,
            alpha0=sd_params.alpha0,
            alpha1=sd_params.alpha1,
        )
        runs = 250
        finals, _, codes, _, _ = run_scenario(
            Scenario.from_network(network), (24, 12), runs, 10**6, seed=4
        )
        rate = float(np.mean((codes == TERM_CONSENSUS) & (finals[:, 0] > 0)))

        exact = exact_majority_probability(sd_params, (24, 12), max_count=100).win_probability
        assert rate == pytest.approx(exact, abs=0.08)


class TestMonteCarloAgainstExact:
    @pytest.mark.parametrize(
        "mechanism",
        [CompetitionMechanism.SELF_DESTRUCTIVE, CompetitionMechanism.NON_SELF_DESTRUCTIVE],
        ids=["SD", "NSD"],
    )
    def test_estimator_matches_first_step_solution(self, mechanism):
        params = LVParams(beta=1.0, delta=0.5, alpha0=0.5, alpha1=0.5, mechanism=mechanism)
        for a, b in [(10, 6), (16, 4)]:
            exact = exact_majority_probability(params, (a, b), max_count=80).win_probability
            estimate = estimate_majority_probability(
                params, LVState(a, b), num_runs=800, rng=a * 100 + b
            )
            assert estimate.success.lower - 0.03 <= exact <= estimate.success.upper + 0.03

    def test_threshold_probe_consistent_with_exact_grid(self, sd_params):
        """The threshold search's pass/fail decisions agree with the exact grid."""
        n = 24
        grid = exact_win_probability_grid(sd_params, 4 * n)
        target = high_probability_target(n)
        search = ThresholdSearch(sd_params, num_runs=400)
        estimate = search.find(n, rng=3)
        assert estimate.has_threshold

        def exact_at(gap: int) -> float:
            # The search adjusts odd gaps upwards to match the parity of n, so
            # evaluate the exact grid at the configuration actually simulated.
            adjusted = gap if (n + gap) % 2 == 0 else gap + 1
            a = (n + adjusted) // 2
            return float(grid[a, n - a])

        # The exact success probability at the found threshold clears (or is
        # within Monte-Carlo tolerance of) the target, and the gap two below
        # it does not comfortably clear the target.
        assert exact_at(estimate.threshold_gap) >= target - 0.05
        if estimate.threshold_gap - 2 >= 2:
            assert exact_at(estimate.threshold_gap - 2) <= target + 0.02


class TestMechanismSeparationEndToEnd:
    def test_sd_beats_nsd_at_matched_intermediate_gap(self):
        """The paper's qualitative separation at a gap between log^2 n and sqrt(n)."""
        n, gap = 400, 16
        state = LVState.from_gap(n, gap)
        sd = estimate_majority_probability(
            LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0),
            state,
            num_runs=400,
            rng=0,
        )
        nsd = estimate_majority_probability(
            LVParams.non_self_destructive(beta=1.0, delta=1.0, alpha=1.0),
            state,
            num_runs=400,
            rng=1,
        )
        assert sd.majority_probability > nsd.majority_probability + 0.15
        assert sd.majority_probability > 0.9

    def test_rate_constants_do_not_change_the_story(self):
        """Theorem 14 holds for any positive constants: vary beta, delta, alpha."""
        n, gap = 256, 30
        state = LVState.from_gap(n, gap)
        for beta, delta, alpha in [(0.5, 2.0, 1.0), (2.0, 0.5, 0.3), (1.0, 1.0, 3.0)]:
            params = LVParams.self_destructive(beta=beta, delta=delta, alpha=alpha)
            estimate = estimate_majority_probability(params, state, num_runs=200, rng=7)
            assert estimate.majority_probability > 0.9
            assert estimate.consensus_rate == 1.0


class TestJumpChainEventBudgetProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        total=st.integers(min_value=8, max_value=120),
        seed=st.integers(min_value=0, max_value=2**31),
        self_destructive=st.booleans(),
    )
    def test_consensus_time_linear_in_population(self, total, seed, self_destructive):
        """T(S) stays within a small multiple of n (Theorem 13a) across random inputs."""
        mechanism = (
            CompetitionMechanism.SELF_DESTRUCTIVE
            if self_destructive
            else CompetitionMechanism.NON_SELF_DESTRUCTIVE
        )
        params = LVParams(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5, mechanism=mechanism)
        state = LVState.from_gap(total, total % 2)
        result = LVJumpChainSimulator(params).run(state, rng=seed, max_events=300 * total)
        assert result.reached_consensus, "consensus not reached within 300 n events"
        assert result.bad_noncompetitive_events <= result.individual_events
