"""Operational signaling test on bipartite entangled states.

Alice holds subsystem 0 and either measures her observable or does nothing;
Bob holds subsystem 1 and measures his observable, assigning outcome
probabilities with a configurable rule.  Reshaping psi to the d0 x d1
amplitude matrix M, every statistic of the bench follows from the cell
weights

    W[i, j] = ||(P_i (x) R_j) psi||^2 = ||P_i M R_j^T||^2

of Alice's projectors P_i and Bob's projectors R_j.  Without Alice, Bob's
rule acts on his Born weights W.sum(axis=0).  If Alice measured, the state is
the proper mixture of her collapsed branches: branch i has Born weight
W[i].sum() and Bob's rule acts on row W[i] (the rule is scale invariant), so
his arm is the weighted mixture of the per-row distributions.  The signaling
gap is the total variation distance between Bob's two arms.  Under the Born
rule the gap vanishes identically (no signaling); rules with any other
exponent produce a nonzero gap on suitable entangled states, which is what
makes them operationally inadmissible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OutcomeDistribution, StateVector, tv_distance
from .errors import InvalidInputError
from .measurement import BORN, ZERO_PROB_CUTOFF, ProbabilityRule, _transform_weights
from .observables import Observable


@dataclass(frozen=True)
class TelepathyScenario:
    """Bipartite state plus the two parties' observables and Bob's rule."""

    state: StateVector
    alice_obs: Observable
    bob_obs: Observable
    bob_rule: ProbabilityRule = BORN

    def __post_init__(self):
        if len(self.state.dims) != 2:
            raise InvalidInputError(
                f"state must have exactly 2 subsystems, got dims {self.state.dims}"
            )
        if self.alice_obs.dims != (self.state.dims[0],):
            raise InvalidInputError(
                f"alice observable dims {self.alice_obs.dims} do not match "
                f"subsystem dim {self.state.dims[0]}"
            )
        if self.bob_obs.dims != (self.state.dims[1],):
            raise InvalidInputError(
                f"bob observable dims {self.bob_obs.dims} do not match "
                f"subsystem dim {self.state.dims[1]}"
            )


def _cell_weights(scenario: TelepathyScenario) -> np.ndarray:
    # W[i, j] = ||P_i M R_j^T||^2, shape (Alice branches, Bob branches).
    m = scenario.state.amps.reshape(scenario.state.dims)
    tagged = np.stack([p.entries for p in scenario.alice_obs.projectors]) @ m
    return np.stack(
        [
            (np.abs(tagged @ r.entries.T) ** 2).sum(axis=(1, 2))
            for r in scenario.bob_obs.projectors
        ],
        axis=1,
    )


def _alice_branches(
    cells: np.ndarray, rule: ProbabilityRule
) -> tuple[np.ndarray, list[np.ndarray]]:
    # Alice's live branch weights (renormalised) and Bob's rule on each branch.
    alice = cells.sum(axis=1)
    live = alice > ZERO_PROB_CUTOFF
    rows = [_transform_weights(row, rule) for row in cells[live]]
    return alice[live] / alice[live].sum(), rows


def _bob_arms(
    scenario: TelepathyScenario,
) -> tuple[OutcomeDistribution, OutcomeDistribution]:
    # Bob's with-Alice and without-Alice distributions from one W.
    cells = _cell_weights(scenario)
    weights, rows = _alice_branches(cells, scenario.bob_rule)
    labels = tuple(range(scenario.bob_obs.branch_count))
    mixed = sum(w * probs for w, probs in zip(weights, rows))
    intact = _transform_weights(cells.sum(axis=0), scenario.bob_rule)
    return OutcomeDistribution(labels, mixed), OutcomeDistribution(labels, intact)


def swap_parties(scenario: TelepathyScenario) -> TelepathyScenario:
    """Mirror the scenario so the former Bob side becomes the measuring party."""
    d0, d1 = scenario.state.dims
    amps = scenario.state.amps.reshape(d0, d1).T.reshape(-1)
    return TelepathyScenario(
        StateVector((d1, d0), amps),
        scenario.bob_obs,
        scenario.alice_obs,
        scenario.bob_rule,
    )


def bob_distribution_with_alice(scenario: TelepathyScenario) -> OutcomeDistribution:
    """Bob's outcome distribution after Alice has measured (mixture semantics)."""
    return _bob_arms(scenario)[0]


def bob_distribution_without_alice(scenario: TelepathyScenario) -> OutcomeDistribution:
    """Bob's outcome distribution on the intact global state."""
    return _bob_arms(scenario)[1]


def signaling_gap(scenario: TelepathyScenario) -> float:
    """Total variation distance between Bob's with-Alice and without-Alice arms."""
    return tv_distance(*_bob_arms(scenario))


def channel_simulation(
    scenario: TelepathyScenario,
    bit: int,
    shots: int,
    rng: np.random.Generator,
) -> OutcomeDistribution:
    """Monte Carlo run of the one-bit channel Alice -> Bob.

    bit 1 means Alice measures before Bob; bit 0 means she does nothing.
    Returns Bob's empirical outcome distribution over shots samples.
    """
    if bit not in (0, 1):
        raise InvalidInputError(f"bit must be 0 or 1, got {bit!r}")
    if shots < 1:
        raise InvalidInputError(f"shots must be >= 1, got {shots!r}")
    nb = scenario.bob_obs.branch_count
    counts = np.zeros(nb, dtype=np.int64)
    if bit == 1:
        weights, rows = _alice_branches(_cell_weights(scenario), scenario.bob_rule)
        picks = rng.choice(len(weights), size=shots, p=weights)
        for k, probs in enumerate(rows):
            n_k = int(np.count_nonzero(picks == k))
            if n_k == 0:
                continue
            outcomes = rng.choice(nb, size=n_k, p=probs / probs.sum())
            counts += np.bincount(outcomes, minlength=nb)
    else:
        probs = bob_distribution_without_alice(scenario).probs
        outcomes = rng.choice(nb, size=shots, p=probs / probs.sum())
        counts += np.bincount(outcomes, minlength=nb)
    return OutcomeDistribution(tuple(range(nb)), counts / float(shots))
