"""Tests for the scenario spec layer (:mod:`repro.scenario.spec` / registry).

Covers the frozen :class:`Scenario` validation contract, fingerprint
stability, the lv2 table derivation (which must reproduce the lock-step
engine's historical literals bit for bit), the registry families, and seeded
property-based checks of the vectorized propensity tables against the naive
per-reaction reference — and through the crn round trip
(:meth:`Scenario.from_network`) — for randomly generated k-species networks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crn.network import ReactionNetwork
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.exceptions import InvalidConfigurationError
from repro.lv.ensemble import _DX0_TABLE, _DX1_TABLE, _GOOD_TABLE
from repro.lv.params import LVParams
from repro.scenario.registry import (
    CATALYSIS_K_LIG,
    SCENARIOS,
    build_scenario,
    get_family,
    list_families,
    scenario_fingerprint,
    validate_scenario_state,
)
from repro.scenario.spec import (
    DEFAULT_SCENARIO,
    Scenario,
    lv2_change_tables,
    lv2_event_order,
    lv2_minority_good_table,
)

PARAMS = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)


def _toy_scenario(**overrides) -> Scenario:
    """A minimal valid 2-species scenario, with keyword overrides."""
    fields = dict(
        name="toy",
        species=("A", "B"),
        rates=(1.0, 0.5),
        reactants=((1, 0), (1, 1)),
        changes=((+1, 0), (-1, -1)),
        good=(False, True),
        opinion_species=(0, 1),
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestScenarioValidation:
    def test_valid_scenario_constructs(self):
        scenario = _toy_scenario()
        assert scenario.num_species == 2
        assert scenario.num_reactions == 2
        assert not scenario.has_override

    def test_single_species_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="at least 2 species"):
            _toy_scenario(
                species=("A",),
                reactants=((1,), (1,)),
                changes=((+1,), (-1,)),
                opinion_species=(0,),
            )

    def test_no_reactions_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="at least one reaction"):
            _toy_scenario(rates=(), reactants=(), changes=(), good=())

    def test_table_shape_mismatch_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="reactants"):
            _toy_scenario(reactants=((1, 0),))
        with pytest.raises(InvalidConfigurationError, match="changes"):
            _toy_scenario(changes=((+1, 0), (-1,)))
        with pytest.raises(InvalidConfigurationError, match="good"):
            _toy_scenario(good=(True,))

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="finite and >= 0"):
            _toy_scenario(rates=(-1.0, 0.5))

    def test_order_above_two_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="at most 2"):
            _toy_scenario(reactants=((1, 0), (2, 1)))
        with pytest.raises(InvalidConfigurationError, match="orders must be"):
            _toy_scenario(reactants=((3, 0), (1, 1)))

    def test_change_below_minus_order_rejected(self):
        # Reaction 0 consumes one A but removes two: counts could go negative.
        with pytest.raises(InvalidConfigurationError, match="removes more copies"):
            _toy_scenario(changes=((-2, 0), (-1, -1)))

    def test_rate_linear_shape_and_sign_validated(self):
        with pytest.raises(InvalidConfigurationError, match="rate_linear"):
            _toy_scenario(rate_linear=((0.0, 0.0),))
        with pytest.raises(InvalidConfigurationError, match="coefficients"):
            _toy_scenario(rate_linear=((0.0, -0.1), (0.0, 0.0)))

    def test_opinion_species_validated(self):
        with pytest.raises(InvalidConfigurationError, match="opinion"):
            _toy_scenario(opinion_species=(0,))
        with pytest.raises(InvalidConfigurationError, match="distinct"):
            _toy_scenario(opinion_species=(0, 0))
        with pytest.raises(InvalidConfigurationError, match="indices"):
            _toy_scenario(opinion_species=(0, 5))

    def test_has_override_requires_nonzero_coefficient(self):
        zero = _toy_scenario(rate_linear=((0.0, 0.0), (0.0, 0.0)))
        active = _toy_scenario(rate_linear=((0.0, 0.0), (0.0, 0.5)))
        assert not zero.has_override
        assert active.has_override


class TestFingerprint:
    def test_fingerprint_is_stable(self):
        assert _toy_scenario().fingerprint() == _toy_scenario().fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"name": "other"},
            {"rates": (1.0, 0.25)},
            {"reactants": ((0, 1), (1, 1))},
            {"changes": ((+1, 0), (0, -1))},
            {"good": (True, True)},
            {"opinion_species": (1, 0)},
            {"rate_linear": ((0.0, 0.0), (0.0, 0.5))},
        ],
    )
    def test_any_field_change_changes_fingerprint(self, change):
        assert _toy_scenario(**change).fingerprint() != _toy_scenario().fingerprint()

    def test_registry_fingerprint_distinguishes_families_and_params(self):
        other_params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=2.0)
        prints = {
            scenario_fingerprint(name, PARAMS) for name in SCENARIOS
        }
        assert len(prints) == len(SCENARIOS)
        assert scenario_fingerprint("lv2", PARAMS) != scenario_fingerprint(
            "lv2", other_params
        )


class TestLv2Derivation:
    """The derived lv2 tables must equal the lock-step engine's literals."""

    def test_change_tables_match_ensemble_literals(self):
        dx0, dx1 = lv2_change_tables()
        assert np.array_equal(dx0, _DX0_TABLE)
        assert np.array_equal(dx1, _DX1_TABLE)

    def test_good_table_matches_ensemble_literal(self):
        assert np.array_equal(lv2_minority_good_table(), _GOOD_TABLE)

    def test_event_order_is_the_engine_order(self):
        assert lv2_event_order() == (
            "birth0",
            "birth1",
            "death0",
            "death1",
            "inter0",
            "inter1",
            "intra0",
            "intra1",
        )

    def test_lv2_scenario_propensities_match_stack(self):
        scenario = build_scenario("lv2", PARAMS)
        state = np.array([7, 4])
        expected = np.array(
            [
                PARAMS.beta * 7.0,
                PARAMS.beta * 4.0,
                PARAMS.delta * 7.0,
                PARAMS.delta * 4.0,
                PARAMS.alpha0 * 7.0 * 4.0,
                PARAMS.alpha1 * 7.0 * 4.0,
                PARAMS.gamma0 * (7.0 * 6.0) * 0.5,
                PARAMS.gamma1 * (4.0 * 3.0) * 0.5,
            ]
        )
        assert np.array_equal(scenario.propensities(state), expected)


class TestRegistry:
    def test_default_family_first(self):
        families = list_families()
        assert families[0].name == DEFAULT_SCENARIO
        assert [f.name for f in families[1:]] == sorted(
            name for name in SCENARIOS if name != DEFAULT_SCENARIO
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidConfigurationError, match="unknown scenario"):
            get_family("no-such-scenario")

    def test_build_scenario_is_cached(self):
        assert build_scenario("opinion3", PARAMS) is build_scenario("opinion3", PARAMS)

    def test_validate_scenario_state(self):
        assert validate_scenario_state("opinion3", [10, 5, 5]) == (10, 5, 5)
        with pytest.raises(InvalidConfigurationError, match="3 species"):
            validate_scenario_state("opinion3", (10, 5))
        with pytest.raises(InvalidConfigurationError, match="non-negative"):
            validate_scenario_state("opinion3", (10, -1, 5))

    def test_opinion_family_structure(self):
        scenario = build_scenario("opinion4", PARAMS)
        assert scenario.num_species == 4
        # 4 births + 4 deaths + 12 ordered competition pairs (gamma = 0).
        assert scenario.num_reactions == 20
        assert tuple(scenario.opinion_species) == (0, 1, 2, 3)

    def test_catalysis_family_has_affine_override(self):
        scenario = build_scenario("catalysis", PARAMS)
        assert scenario.has_override
        linear = scenario.linear_matrix
        assert linear[4, 2] == CATALYSIS_K_LIG
        assert linear[5, 2] == CATALYSIS_K_LIG
        # The catalyst is inert: no reaction changes its count.
        assert np.array_equal(scenario.change_matrix[:, 2], np.zeros(6, dtype=np.int64))

    def test_catalysis_propensities_shift_with_catalyst(self):
        scenario = build_scenario("catalysis", PARAMS)
        low = scenario.propensities([10, 8, 0])
        high = scenario.propensities([10, 8, 50])
        expected_boost = CATALYSIS_K_LIG * 50 * 10 * 8
        assert high[4] - low[4] == pytest.approx(expected_boost)
        assert np.array_equal(low[:4], high[:4])


def _random_scenario(rng: np.random.Generator) -> Scenario:
    """A random valid k-species mass-action scenario (satellite property tests)."""
    k = int(rng.integers(2, 6))
    m = int(rng.integers(2, 9))
    rates = tuple(float(rate) for rate in rng.uniform(0.0, 3.0, size=m))
    reactants: list[tuple[int, ...]] = []
    changes: list[tuple[int, ...]] = []
    for _ in range(m):
        row = [0] * k
        shape = rng.integers(0, 4)
        if shape == 1:
            row[int(rng.integers(k))] = 1
        elif shape == 2:
            first, second = rng.choice(k, size=2, replace=False)
            row[int(first)] = 1
            row[int(second)] = 1
        elif shape == 3:
            row[int(rng.integers(k))] = 2
        reactants.append(tuple(row))
        # Net change bounded below by -order per species keeps counts
        # non-negative; bounded above by +2 keeps products small.
        changes.append(
            tuple(int(rng.integers(-order, 3)) for order in row)
        )
    return Scenario(
        name="random",
        species=tuple(f"S{i}" for i in range(k)),
        rates=rates,
        reactants=tuple(reactants),
        changes=tuple(changes),
        good=tuple(bool(flag) for flag in rng.integers(0, 2, size=m)),
        opinion_species=(0, 1),
    )


def _network_from_scenario(scenario: Scenario) -> ReactionNetwork:
    """Rebuild a scenario's mass-action part as a crn ReactionNetwork.

    Reactant dicts are inserted in ascending species order, so the dict
    path's heterogeneous multiply order matches the spec's canonical one.
    """
    network = ReactionNetwork(name="random")
    species = [network.add_species(Species(name)) for name in scenario.species]
    for m in range(scenario.num_reactions):
        reactants = {
            species[s]: order
            for s, order in enumerate(scenario.reactants[m])
            if order > 0
        }
        products = {
            species[s]: scenario.reactants[m][s] + scenario.changes[m][s]
            for s in range(scenario.num_species)
            if scenario.reactants[m][s] + scenario.changes[m][s] > 0
        }
        network.add_reaction(
            Reaction(reactants, products, rate=scenario.rates[m], label=f"r{m}")
        )
    return network


class TestPropensityProperties:
    """Seeded property tests: tables vs naive reference vs the crn round trip."""

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_match_naive_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        scenario = _random_scenario(rng)
        states = rng.integers(0, 40, size=(17, scenario.num_species))
        rows = scenario.propensity_rows(states)
        for w in range(states.shape[0]):
            reference = scenario.propensities(states[w])
            assert np.array_equal(rows[:, w], reference), (
                f"seed {seed}, state row {w}: vectorized table diverges "
                f"from the per-reaction reference"
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_compiled_network(self, seed):
        """The network compiled back to tables reproduces the scenario."""
        rng = np.random.default_rng(seed + 1000)
        scenario = _random_scenario(rng)
        network = _network_from_scenario(scenario)
        lowered = Scenario.from_network(network)
        assert lowered.species == scenario.species
        assert lowered.rates == scenario.rates
        assert lowered.reactants == scenario.reactants
        assert lowered.changes == scenario.changes
        states = rng.integers(0, 40, size=(11, scenario.num_species))
        homogeneous = (scenario.reactant_matrix == 2).any(axis=1)
        for w in range(states.shape[0]):
            reference = network.propensities(network.vector_to_state(states[w]))
            produced = lowered.propensities(states[w])
            # Unary and heterogeneous-binary reactions share the exact
            # operand order with the dict path, so they must be bitwise
            # equal; the homogeneous-pair factor is grouped differently
            # (x*(x-1)*0.5 vs x*(x-1)/2 after the rate multiply), so those
            # rows only agree to rounding.
            assert np.array_equal(produced[~homogeneous], reference[~homogeneous])
            np.testing.assert_allclose(produced[homogeneous], reference[homogeneous], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_affine_override_rows_match_reference(self, seed):
        rng = np.random.default_rng(seed + 2000)
        base = _random_scenario(rng)
        linear = rng.uniform(0.0, 0.1, size=(base.num_reactions, base.num_species))
        linear[rng.random(linear.shape) < 0.6] = 0.0
        scenario = Scenario(
            name="random-affine",
            species=base.species,
            rates=base.rates,
            reactants=base.reactants,
            changes=base.changes,
            good=base.good,
            opinion_species=base.opinion_species,
            rate_linear=tuple(tuple(float(c) for c in row) for row in linear),
        )
        states = rng.integers(0, 40, size=(9, scenario.num_species))
        rows = scenario.propensity_rows(states)
        for w in range(states.shape[0]):
            assert np.array_equal(rows[:, w], scenario.propensities(states[w]))
