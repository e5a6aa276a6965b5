"""Convenience constructors for the reaction networks used in the paper.

The central builder is :func:`build_lv_network`, which assembles the
two-species competitive Lotka–Volterra network of Section 1.3 for either
competition mechanism:

self-destructive (Eq. 1)::

    Xi --β--> Xi + Xi      Xi --δ--> ∅
    Xi + X(1-i) --αi--> ∅   Xi + Xi --γi--> ∅

non-self-destructive (Eq. 2)::

    Xi --β--> Xi + Xi      Xi --δ--> ∅
    Xi + X(1-i) --αi--> Xi  Xi + Xi --γi--> Xi

Reaction labels follow a fixed scheme (``birth:Xi``, ``death:Xi``,
``inter:Xi`` for the interspecific reaction in which species ``i`` is the
*aggressor* at rate ``αi``, and ``intra:Xi``), so a reaction can be looked up
by its role with :meth:`ReactionNetwork.reaction_by_label`.
"""

from __future__ import annotations


from repro.crn.network import ReactionNetwork
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.exceptions import ModelError

__all__ = [
    "build_lv_network",
    "build_birth_death_network",
    "build_pure_birth_network",
    "build_single_species_logistic_network",
]


def _check_rate(name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ModelError(f"rate {name} must be a number, got {value!r}")
    if value < 0:
        raise ModelError(f"rate {name} must be non-negative, got {value}")
    return float(value)


def build_lv_network(
    *,
    beta: float,
    delta: float,
    alpha0: float,
    alpha1: float,
    gamma0: float = 0.0,
    gamma1: float = 0.0,
    self_destructive: bool = True,
    species_names: tuple[str, str] = ("X0", "X1"),
) -> ReactionNetwork:
    """Build the two-species competitive Lotka–Volterra network.

    Parameters
    ----------
    beta, delta:
        Per-capita birth and death rates (identical for both species, as in
        the paper's neutral reproduction assumption).
    alpha0, alpha1:
        Interspecific interference rates.  ``alpha_i`` is the rate at which an
        individual of species *i* encounters an individual of the other
        species; under self-destructive competition both die, under
        non-self-destructive competition only the encountered individual of
        species ``1 - i`` dies.
    gamma0, gamma1:
        Intraspecific interference rates within species 0 and 1.
    self_destructive:
        Select the mechanism: ``True`` for Eq. (1), ``False`` for Eq. (2).
    species_names:
        Names of the two input species.

    Returns
    -------
    ReactionNetwork
        Network with species ``X0``, ``X1`` and up to eight reactions, with
        zero-rate reactions omitted.
    """
    beta = _check_rate("beta", beta)
    delta = _check_rate("delta", delta)
    alphas = (_check_rate("alpha0", alpha0), _check_rate("alpha1", alpha1))
    gammas = (_check_rate("gamma0", gamma0), _check_rate("gamma1", gamma1))

    x = (Species(species_names[0]), Species(species_names[1]))
    mechanism = "self-destructive" if self_destructive else "non-self-destructive"
    network = ReactionNetwork(species=x, name=f"LV ({mechanism})")

    for i in (0, 1):
        if beta > 0:
            network.add_reaction(
                Reaction({x[i]: 1}, {x[i]: 2}, rate=beta, label=f"birth:{x[i].name}")
            )
        if delta > 0:
            network.add_reaction(
                Reaction({x[i]: 1}, {}, rate=delta, label=f"death:{x[i].name}")
            )
        if alphas[i] > 0:
            # Species i is the aggressor: encounter at rate alpha_i.  Under
            # self-destructive competition both reactants are removed; under
            # non-self-destructive competition the aggressor survives.
            products = {} if self_destructive else {x[i]: 1}
            network.add_reaction(
                Reaction(
                    {x[i]: 1, x[1 - i]: 1},
                    products,
                    rate=alphas[i],
                    label=f"inter:{x[i].name}",
                )
            )
        if gammas[i] > 0:
            products = {} if self_destructive else {x[i]: 1}
            network.add_reaction(
                Reaction(
                    {x[i]: 2},
                    products,
                    rate=gammas[i],
                    label=f"intra:{x[i].name}",
                )
            )
    return network


def build_birth_death_network(
    *,
    birth_rate: float,
    death_rate: float,
    species_name: str = "X",
) -> ReactionNetwork:
    """Build a single-species linear birth–death network.

    The network has reactions ``X -> 2X`` at per-capita rate *birth_rate* and
    ``X -> ∅`` at per-capita rate *death_rate*.
    """
    birth_rate = _check_rate("birth_rate", birth_rate)
    death_rate = _check_rate("death_rate", death_rate)
    x = Species(species_name)
    network = ReactionNetwork(species=[x], name="birth-death")
    if birth_rate > 0:
        network.add_reaction(
            Reaction({x: 1}, {x: 2}, rate=birth_rate, label=f"birth:{x.name}")
        )
    if death_rate > 0:
        network.add_reaction(
            Reaction({x: 1}, {}, rate=death_rate, label=f"death:{x.name}")
        )
    return network


def build_pure_birth_network(*, birth_rate: float, species_name: str = "X") -> ReactionNetwork:
    """Build a single-species Yule (pure-birth) network, used by Cho et al."""
    return build_birth_death_network(
        birth_rate=birth_rate, death_rate=0.0, species_name=species_name
    )


def build_single_species_logistic_network(
    *,
    birth_rate: float,
    death_rate: float,
    intra_rate: float,
    self_destructive: bool = True,
    species_name: str = "X",
) -> ReactionNetwork:
    """Build a single-species logistic network with intraspecific competition.

    Used to study the marginal dynamics of one species when ``α = 0`` (paper,
    Section 8.2): births at per-capita rate *birth_rate*, deaths at per-capita
    rate *death_rate*, and intraspecific interference at rate *intra_rate*
    which removes two individuals (self-destructive) or one individual
    (non-self-destructive) per event.
    """
    birth_rate = _check_rate("birth_rate", birth_rate)
    death_rate = _check_rate("death_rate", death_rate)
    intra_rate = _check_rate("intra_rate", intra_rate)
    x = Species(species_name)
    network = ReactionNetwork(species=[x], name="logistic")
    if birth_rate > 0:
        network.add_reaction(
            Reaction({x: 1}, {x: 2}, rate=birth_rate, label=f"birth:{x.name}")
        )
    if death_rate > 0:
        network.add_reaction(
            Reaction({x: 1}, {}, rate=death_rate, label=f"death:{x.name}")
        )
    if intra_rate > 0:
        products = {} if self_destructive else {x: 1}
        network.add_reaction(
            Reaction({x: 2}, products, rate=intra_rate, label=f"intra:{x.name}")
        )
    return network
