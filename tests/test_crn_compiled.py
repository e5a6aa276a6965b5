"""Tests for lowering a reaction network to scenario tables.

:meth:`Scenario.from_network` compiles a :class:`ReactionNetwork` into the
dense mass-action tables the scenario engine runs.  The central contract is
agreement with the dict-based :meth:`Reaction.propensity` path: bitwise on
unary and order-0 reactions, which both paths evaluate as ``rate · x``, and
to rounding on binary reactions, whose operands the two paths multiply in a
different grouping (the scenario tables use the canonical species order and
``x·(x−1)·0.5``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crn.builders import build_birth_death_network, build_lv_network
from repro.crn.network import ReactionNetwork
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.exceptions import InvalidConfigurationError
from repro.scenario.spec import Scenario


def _builder_networks() -> list[ReactionNetwork]:
    """Representative two-species networks from the LV builder.

    Unary (births, deaths), heterogeneous binary (interspecific), and
    homogeneous binary (intraspecific) reactions all appear, under both
    competition mechanisms and with deliberately asymmetric, non-unit rates.
    Order 0 is absent from the builders and covered separately below.
    """
    return [
        build_lv_network(
            beta=1.3,
            delta=0.7,
            alpha0=0.9,
            alpha1=1.1,
            gamma0=0.4,
            gamma1=0.2,
            self_destructive=True,
        ),
        build_lv_network(
            beta=0.5,
            delta=1.5,
            alpha0=0.25,
            alpha1=2.0,
            gamma0=0.1,
            gamma1=0.3,
            self_destructive=False,
        ),
        build_lv_network(beta=1.0, delta=1.0, alpha0=1.0, alpha1=1.0),
        build_lv_network(beta=0.0, delta=1.0, alpha0=0.5, alpha1=0.5),
    ]


NETWORKS = _builder_networks()
NETWORK_IDS = [f"{net.name}-{net.num_reactions}r" for net in NETWORKS]


def _assert_matches_dict_path(
    network: ReactionNetwork, scenario: Scenario, vector: np.ndarray
) -> None:
    expected = network.propensities(network.vector_to_state(vector))
    produced = scenario.propensities(vector)
    binary = scenario.reactant_matrix.sum(axis=1) == 2
    assert np.array_equal(produced[~binary], expected[~binary])
    np.testing.assert_allclose(produced[binary], expected[binary], rtol=1e-12)


@pytest.mark.parametrize("network", NETWORKS, ids=NETWORK_IDS)
class TestBitwiseExactness:
    def test_matches_dict_path_on_random_states(self, network, rng):
        scenario = Scenario.from_network(network)
        for _ in range(250):
            vector = rng.integers(0, 60, size=network.num_species)
            _assert_matches_dict_path(network, scenario, vector)

    def test_matches_on_boundary_states(self, network):
        scenario = Scenario.from_network(network)
        boundaries = [0, 1, 2]
        grids = np.stack(np.meshgrid(*[boundaries] * network.num_species), axis=-1)
        grids = grids.reshape(-1, network.num_species)
        for vector in grids:
            _assert_matches_dict_path(network, scenario, vector)

    def test_total_propensity_matches(self, network, rng):
        scenario = Scenario.from_network(network)
        vector = rng.integers(0, 40, size=network.num_species)
        total = network.total_propensity(network.vector_to_state(vector))
        assert float(scenario.propensities(vector).sum()) == pytest.approx(total, rel=1e-12)

    def test_batch_rows_match_single_evaluation(self, network, rng):
        scenario = Scenario.from_network(network)
        states = rng.integers(0, 60, size=(32, network.num_species))
        rows = scenario.propensity_rows(states)
        assert rows.shape == (network.num_reactions, 32)
        for column, vector in zip(rows.T, states):
            assert np.array_equal(column, scenario.propensities(vector))


class TestCompiledStructure:
    def test_changes_match_stoichiometry(self):
        network = build_lv_network(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5)
        scenario = Scenario.from_network(network)
        assert np.array_equal(scenario.change_matrix, network.stoichiometry_matrix().T)

    def test_species_and_rates_in_network_order(self):
        network = build_lv_network(beta=0.5, delta=1.0, alpha0=0.25, alpha1=0.75)
        scenario = Scenario.from_network(network)
        assert scenario.species == tuple(species.name for species in network.species)
        assert scenario.rates == tuple(reaction.rate for reaction in network.reactions)

    def test_every_species_votes_and_no_reaction_is_good(self):
        scenario = Scenario.from_network(
            build_lv_network(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5)
        )
        assert scenario.opinion_species == (0, 1)
        assert not any(scenario.good)
        assert not scenario.has_override

    def test_orders_recorded(self):
        network = build_lv_network(
            beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5, gamma0=0.2, gamma1=0.2
        )
        scenario = Scenario.from_network(network)
        expected = [reaction.order for reaction in network.reactions]
        assert list(scenario.reactant_matrix.sum(axis=1)) == expected

    def test_empty_network_rejected(self):
        network = ReactionNetwork(species=[Species("X"), Species("Y")])
        with pytest.raises(InvalidConfigurationError, match="at least one reaction"):
            Scenario.from_network(network)

    def test_single_species_network_rejected(self):
        network = build_birth_death_network(birth_rate=0.5, death_rate=1.0)
        with pytest.raises(InvalidConfigurationError, match="at least 2 species"):
            Scenario.from_network(network)

    def test_wrong_state_shape_rejected(self):
        scenario = Scenario.from_network(
            build_lv_network(beta=1.0, delta=1.0, alpha0=0.5, alpha1=0.5)
        )
        with pytest.raises(InvalidConfigurationError):
            scenario.propensities([1, 2, 3])

    def test_order_zero_reaction_compiled(self):
        x, y = Species("X"), Species("Y")
        network = ReactionNetwork(species=[x, y])
        network.add_reaction(Reaction({}, {x: 1}, rate=1.7, label="influx"))
        network.add_reaction(Reaction({y: 1}, {}, rate=0.3, label="decay"))
        scenario = Scenario.from_network(network)
        vector = np.array([5, 4])
        expected = network.propensities(network.vector_to_state(vector))
        assert np.array_equal(scenario.propensities(vector), expected)
        assert expected[0] == 1.7
