"""Chemical reaction network (CRN) substrate.

The paper expresses both Lotka–Volterra variants as chemical reaction networks
with mass-action kinetics (Section 1.3).  This subpackage provides a small but
complete CRN formalism:

* :class:`~repro.crn.species.Species` — named species with optional metadata,
* :class:`~repro.crn.reaction.Reaction` — a reaction with integer stoichiometry
  and a mass-action rate constant,
* :class:`~repro.crn.network.ReactionNetwork` — a validated collection of
  species and reactions exposing propensity evaluation and the stoichiometry
  matrix,
* :mod:`~repro.crn.builders` — convenience constructors for the networks used
  throughout the paper (self-destructive / non-self-destructive LV, birth–death
  chains, the δ=0 models of prior work).

A network of at least two species runs on the one stochastic engine through
:meth:`repro.scenario.spec.Scenario.from_network`, which lowers it to dense
mass-action tables for :func:`repro.scenario.engine.run_scenario`; the
specialised two-species simulators in :mod:`repro.lv` are validated against
that path in the test suite.
"""

from repro.crn.species import Species
from repro.crn.reaction import Reaction
from repro.crn.network import ReactionNetwork
from repro.crn.builders import (
    build_birth_death_network,
    build_lv_network,
    build_pure_birth_network,
    build_single_species_logistic_network,
)

__all__ = [
    "Species",
    "Reaction",
    "ReactionNetwork",
    "build_birth_death_network",
    "build_lv_network",
    "build_pure_birth_network",
    "build_single_species_logistic_network",
]
