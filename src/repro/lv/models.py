"""High-level LV model objects that compile to reaction networks."""

from __future__ import annotations

from repro.crn.builders import build_lv_network
from repro.crn.network import ReactionNetwork
from repro.crn.species import Species
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.state import LVState

__all__ = ["LVModel"]


class LVModel:
    """A two-species competitive Lotka–Volterra model.

    The model couples an :class:`~repro.lv.params.LVParams` rate set with the
    generic CRN representation so that the same parameters can be run through

    * the fast specialised simulator (:class:`repro.lv.simulator.LVJumpChainSimulator`),
    * the generic scenario engine (via :attr:`network` and
      :meth:`repro.scenario.spec.Scenario.from_network`), and
    * the deterministic ODE (:class:`repro.lv.ode.DeterministicLV`).

    Examples
    --------
    >>> model = LVModel(LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0))
    >>> model.network.num_reactions
    6
    >>> model.state_mapping(LVState(10, 5))[model.species[0]]
    10
    """

    def __init__(self, params: LVParams):
        self.params = params
        self._network = build_lv_network(
            beta=params.beta,
            delta=params.delta,
            alpha0=params.alpha0,
            alpha1=params.alpha1,
            gamma0=params.gamma0,
            gamma1=params.gamma1,
            self_destructive=params.is_self_destructive,
        )

    # ------------------------------------------------------------------
    # CRN view
    # ------------------------------------------------------------------
    @property
    def network(self) -> ReactionNetwork:
        """The reaction-network representation of this model."""
        return self._network

    @property
    def species(self) -> tuple[Species, Species]:
        """The two input species ``(X0, X1)``."""
        species = self._network.species
        return (species[0], species[1])

    @property
    def mechanism(self) -> CompetitionMechanism:
        return self.params.mechanism

    def state_mapping(self, state: LVState) -> dict[Species, int]:
        """Convert an :class:`LVState` into a CRN configuration mapping."""
        x0, x1 = self.species
        return {x0: state.x0, x1: state.x1}

    def state_from_mapping(self, mapping) -> LVState:
        """Convert a CRN configuration mapping back to an :class:`LVState`."""
        x0, x1 = self.species
        return LVState(int(mapping.get(x0, 0)), int(mapping.get(x1, 0)))

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line description of the model and its reactions."""
        return f"{self.params.describe()}\n{self._network.describe()}"

    def __repr__(self) -> str:
        return f"<LVModel {self.params.describe()}>"
