"""The scenario's affine rate override on a network lowered from crn.

Non-mass-action rates enter a scenario through its affine ``rate_linear``
slot: reaction ``m`` fires at effective rate ``k_m + l_m · x`` before the
mass-action factor, the ``k_unlig + k_lig·n_cat`` catalysis law.  These tests
attach that slot to a lowered X0/X1/C catalysis network and pin down its
contract: the override changes exactly its own reactions, the result equals
the registered ``catalysis`` family, and the vectorized rows agree with the
dict-evaluated mass-action reference on every other reaction.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.crn.network import ReactionNetwork
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.lv.params import LVParams
from repro.scenario.registry import CATALYSIS_K_LIG, build_scenario
from repro.scenario.spec import Scenario


#: The rates the catalysis network/scenario pair below is built from.  The
#: ``neutral`` constructor splits the *total* competition rate alpha across
#: the two ordered inter reactions, so each fires at ``alpha0 = alpha1``.
CAT_PARAMS = LVParams.self_destructive(beta=0.3, delta=0.3, alpha=0.05)


def _catalysis_network() -> tuple[ReactionNetwork, str, str]:
    """A 3-species X0/X1/C network mirroring the catalysis scenario."""
    network = ReactionNetwork(name="catalysis")
    x0 = network.add_species(Species("X0"))
    x1 = network.add_species(Species("X1"))
    network.add_species(Species("C"))
    beta, delta = CAT_PARAMS.beta, CAT_PARAMS.delta
    network.add_reaction(Reaction({x0: 1}, {x0: 2}, rate=beta, label="birth:X0"))
    network.add_reaction(Reaction({x1: 1}, {x1: 2}, rate=beta, label="birth:X1"))
    network.add_reaction(Reaction({x0: 1}, {}, rate=delta, label="death:X0"))
    network.add_reaction(Reaction({x1: 1}, {}, rate=delta, label="death:X1"))
    network.add_reaction(Reaction({x0: 1, x1: 1}, {}, rate=CAT_PARAMS.alpha0, label="inter:X0"))
    network.add_reaction(Reaction({x0: 1, x1: 1}, {}, rate=CAT_PARAMS.alpha1, label="inter:X1"))
    return network, "inter:X0", "inter:X1"


def _with_catalyst_coupling(network: ReactionNetwork, coefficients: dict[str, float]) -> Scenario:
    """Lower *network*, coupling the labelled reactions' rates to ``C``."""
    scenario = Scenario.from_network(network)
    labels = [reaction.label for reaction in network.reactions]
    catalyst = scenario.species.index("C")
    linear = [[0.0] * scenario.num_species for _ in labels]
    for label, coefficient in coefficients.items():
        linear[labels.index(label)][catalyst] = coefficient
    return dataclasses.replace(scenario, rate_linear=tuple(tuple(row) for row in linear))


class TestScalarOverrides:
    def test_override_only_touches_its_reaction(self):
        network, label, _ = _catalysis_network()
        plain = Scenario.from_network(network)
        patched = _with_catalyst_coupling(network, {label: 0.5})
        state = np.array([10, 8, 5])
        index = [reaction.label for reaction in network.reactions].index(label)
        expected = plain.propensities(state).copy()
        expected[index] = (CAT_PARAMS.alpha0 + 0.5 * 5.0) * 10.0 * 8.0
        assert np.array_equal(patched.propensities(state), expected)

    def test_affine_override_matches_scenario_tables(self):
        network, inter0, inter1 = _catalysis_network()
        lowered = _with_catalyst_coupling(
            network, {inter0: CATALYSIS_K_LIG, inter1: CATALYSIS_K_LIG}
        )
        scenario = build_scenario("catalysis", CAT_PARAMS)
        assert lowered.rates == scenario.rates
        assert lowered.reactants == scenario.reactants
        assert lowered.changes == scenario.changes
        assert lowered.rate_linear == scenario.rate_linear
        rng = np.random.default_rng(42)
        for state in rng.integers(0, 60, size=(20, 3)):
            assert np.array_equal(lowered.propensities(state), scenario.propensities(state))


class TestBatchOverrides:
    def test_batch_matches_dict_evaluated_reference_per_row(self):
        network, inter0, inter1 = _catalysis_network()
        lowered = _with_catalyst_coupling(
            network, {inter0: CATALYSIS_K_LIG, inter1: CATALYSIS_K_LIG}
        )
        rng = np.random.default_rng(7)
        states = rng.integers(0, 50, size=(13, 3))
        rows = lowered.propensity_rows(states)
        mass_action = ~lowered.linear_matrix.any(axis=1)
        for w in range(states.shape[0]):
            # The dict-evaluated path is the ground truth for the mass-action
            # reactions (all unary or binary in ascending species order, so
            # bitwise); the override rows must equal the scalar reference.
            reference = network.propensities(network.vector_to_state(states[w]))
            assert np.array_equal(rows[mass_action, w], reference[mass_action])
            assert np.array_equal(rows[:, w], lowered.propensities(states[w]))
