"""Operational signaling test on bipartite entangled states.

Alice holds subsystem 0 and either measures her observable or does nothing;
Bob holds subsystem 1 and measures his observable, assigning outcome
probabilities with a configurable rule.  Reshaping psi to the d0 x d1
amplitude matrix M, every statistic of the bench follows from the cell
weights

    W[i, j] = ||(P_i (x) R_j) psi||^2 = ||P_i M R_j^T||^2

of Alice's projectors P_i and Bob's projectors R_j, computed from the parties'
eigenbases V_A and V_B as the sum of |V_A^dag M conj(V_B)|^2 over the rows of
Alice's branch i and the columns of Bob's branch j.  Without Alice, Bob's rule
acts on his Born weights W.sum(axis=0).  If Alice measured, the state is the
proper mixture of her collapsed branches: branch i has Born weight W[i].sum()
and Bob's rule acts on row W[i] (the rule is scale invariant), so his arm is
the weighted mixture of the per-row distributions, all rows transformed at
once.  Swapping the parties transposes W, since V_B^dag M^T conj(V_A) =
(V_A^dag M conj(V_B))^T.  The signaling gap is the total variation distance
between Bob's two arms.  Under the Born rule the gap vanishes identically
(no signaling); rules with any other exponent produce a nonzero gap on
suitable entangled states, which is what makes them operationally
inadmissible.  _signaling_check implements the claim once: both arms as
checked arrays and their gap, from W.  `bornsim verify`, `bornsim run` and
the public arm and gap functions all read from it.

_cell_weights takes a stack of amplitude matrices and the parties'
observables as observables._Stacks, and _signaling_check reads any number
of leading stack axes of W.  `run` and the public functions pass one
scenario as a stack of one, its observables' own stacks.  verify builds each
party's stack on its own axis of the amplitude matrices, so a scenario's
checks hold by construction, and pads its branch axis to its dimension, so
that no-signaling trials of one shape share one call.  A padded branch has
weight 0, so it is dead on Alice's side and carries no probability on Bob's.

A scenario keeps its W, read-only, and _signaling_check's result under its
rule once either is computed: the three public arm and gap functions share
one computation, and channel_simulation reads the kept W.  That is sound
because every field of a scenario is a checked value with read-only arrays,
so the kept values are the ones a fresh scenario computes, bit for bit; they
take k_A*k_B + 2*k_B + 1 floats for k_A and k_B branches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .core import (OutcomeDistribution, StateVector, _check_type, _checked_probabilities,
                   _converted, _frozen, _rebuilt)
from .errors import InvalidInputError
from .measurement import BORN, ZERO_PROB_CUTOFF, ProbabilityRule, _transform_weights
from .observables import Observable

# Largest shots count channel_simulation accepts: the shots uniforms are
# drawn as one float64 array, 2**24 of them is about 134 MB.
MAX_SHOTS = 2**24


@dataclass(frozen=True)
class TelepathyScenario:
    """Bipartite state plus the two parties' observables and Bob's rule."""

    state: StateVector
    alice_obs: Observable
    bob_obs: Observable
    bob_rule: ProbabilityRule = BORN
    # W (Alice's branches x Bob's, read-only) and _signaling_check's result
    # under bob_rule, stored by the first _scenario_cells and _arms call.
    _cells: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _check: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Each field's type, two subsystems, and each party's observable on
        # its own.
        for name, cls, kind in (("state", StateVector, "a StateVector"),
                                ("alice_obs", Observable, "an Observable"),
                                ("bob_obs", Observable, "an Observable"),
                                ("bob_rule", ProbabilityRule, "a ProbabilityRule")):
            _check_type(getattr(self, name), cls, f"{name} must be {kind}")
        dims = self.state.dims
        if len(dims) != 2:
            raise InvalidInputError(f"state must have exactly 2 subsystems, got dims {dims}")
        for party, obs, d in (("alice", self.alice_obs, dims[0]), ("bob", self.bob_obs, dims[1])):
            if obs.dims != (d,):
                raise InvalidInputError(
                    f"{party} observable dims {obs.dims} do not match subsystem dim {d}"
                )

    __reduce__ = _rebuilt


def _cell_weights(m: np.ndarray, alice, bob) -> np.ndarray:
    # W[s, i, j] = ||P_i M R_j^T||^2 for amplitude matrices m (S, d_A, d_B)
    # and the parties' _Stacks: block sums of |V_A^dag M conj(V_B)|^2 over
    # Alice's rows and Bob's columns.  A padded branch gives a zero row or
    # column.
    amps = np.abs(alice.adjoint @ m @ bob.adjoint.swapaxes(1, 2)) ** 2
    return alice.indicator.swapaxes(-1, -2) @ amps @ bob.indicator


def _scenario_cells(scenario: TelepathyScenario) -> np.ndarray:
    # W of one scenario, from a stack of one, computed once and stored on it.
    if scenario._cells is None:
        m = scenario.state.amps.reshape((1,) + scenario.state.dims)
        cells = _cell_weights(m, scenario.alice_obs._stack, scenario.bob_obs._stack)[0]
        object.__setattr__(scenario, "_cells", _frozen(cells))
    return scenario._cells


def _alice_branches(
    cells: np.ndarray, rule: ProbabilityRule
) -> tuple[np.ndarray, np.ndarray]:
    # Alice's branch weights, renormalised over her live branches, and Bob's
    # rule on each live row of W; a dead branch has weight 0 and a zero row.
    # Leading axes of cells stack scenarios.
    alice = cells.sum(axis=-1)
    live = alice > ZERO_PROB_CUTOFF
    weights = np.where(live, alice, 0.0)
    rows = np.zeros(cells.shape)
    rows[live] = _transform_weights(cells[live], rule)
    return weights / weights.sum(axis=-1, keepdims=True), rows


def _signaling_check(cells: np.ndarray, rule: ProbabilityRule) -> tuple:
    # Bob's with-Alice and without-Alice probabilities read off W, by branch,
    # each passing the check OutcomeDistribution runs, and their TV distance;
    # leading axes of cells stack scenarios.
    weights, rows = _alice_branches(cells, rule)
    arms = (weights[..., None] * rows).sum(axis=-2), _transform_weights(cells.sum(axis=-2), rule)
    mixed, intact = (_checked_probabilities(p, axis=-1) for p in arms)
    return mixed, intact, 0.5 * np.abs(mixed - intact).sum(axis=-1)


def _arms(scenario: TelepathyScenario) -> tuple:
    # _signaling_check on one scenario's W, under its own rule, computed once
    # and stored on it.
    if scenario._check is None:
        check = _signaling_check(_scenario_cells(scenario), scenario.bob_rule)
        object.__setattr__(scenario, "_check", check)
    return scenario._check


def swap_parties(scenario: TelepathyScenario) -> TelepathyScenario:
    """Mirror the scenario so the former Bob side becomes the measuring party."""
    # The transpose of checked amplitudes is finite and of norm 1 as well.
    d0, d1 = scenario.state.dims
    amps = scenario.state.amps.reshape(d0, d1).T.copy()
    return TelepathyScenario(
        StateVector._checked((d1, d0), amps),
        scenario.bob_obs,
        scenario.alice_obs,
        scenario.bob_rule,
    )


def bob_distribution_with_alice(scenario: TelepathyScenario) -> OutcomeDistribution:
    """Bob's outcome distribution after Alice has measured (mixture semantics)."""
    p = _arms(scenario)[0]
    return OutcomeDistribution(tuple(range(p.size)), p)


def bob_distribution_without_alice(scenario: TelepathyScenario) -> OutcomeDistribution:
    """Bob's outcome distribution on the intact global state."""
    p = _arms(scenario)[1]
    return OutcomeDistribution(tuple(range(p.size)), p)


def signaling_gap(scenario: TelepathyScenario) -> float:
    """Total variation distance between Bob's with-Alice and without-Alice arms."""
    return float(_arms(scenario)[2])


def _counts(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Outcome counts of rng.choice(p.size, size=u.size, p=p) that drew the
    # uniforms u: choice normalises cdf = cumsum(p) by its last entry and
    # picks outcome j for cdf[j-1] <= u < cdf[j], so the counts are the
    # differences of #(u >= cdf[j]).  p must be the exact array choice would
    # get; one ulp can move a count.
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise InvalidInputError("probabilities must be finite and non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    at_least = [u.size, *(int(np.count_nonzero(u >= c)) for c in cdf[:-1]), 0]
    return -np.diff(at_least)


def _sample_counts(rng: np.random.Generator, p: np.ndarray, n: int) -> np.ndarray:
    # Outcome counts of rng.choice(p.size, size=n, p=p), from the same n uniforms.
    return _counts(p, rng.random(n))


def channel_simulation(
    scenario: TelepathyScenario,
    bit: int,
    shots: int,
    rng: np.random.Generator,
) -> OutcomeDistribution:
    """Monte Carlo run of the one-bit channel Alice -> Bob.

    bit is the int 1 or 0: 1 means Alice measures before Bob, 0 that she
    does nothing.  Returns Bob's empirical outcome distribution over shots
    samples.  The draws consume the same uniforms as rng.choice with the
    arms' weights (first Alice's branch for every shot, then Bob's outcomes
    row by row), so a seed gives the same counts and the same final
    generator state.  shots must be between 1 and MAX_SHOTS = 2**24.
    """
    bit = _converted(operator.index, bit, "bit must be an int")
    if bit not in (0, 1):
        raise InvalidInputError(f"bit must be 0 or 1, got {bit!r}")
    shots = _converted(operator.index, shots, "shots must be an int")
    if shots < 1:
        raise InvalidInputError(f"shots must be >= 1, got {shots!r}")
    if shots > MAX_SHOTS:
        raise InvalidInputError(f"{shots} shots exceed the cap {MAX_SHOTS}")
    nb = scenario.bob_obs.branch_count
    cells = _scenario_cells(scenario)
    if bit == 1:
        weights, rows = _alice_branches(cells, scenario.bob_rule)
        alice = _sample_counts(rng, weights, shots)
        # Uniform doubles are not buffered, so one call draws the uniforms
        # of the branches' calls, branch after branch.
        bob = rng.random(shots)
        counts = np.zeros(nb, dtype=np.int64)
        for n_k, end, probs in zip(alice.tolist(), alice.cumsum().tolist(), rows):
            if n_k > 0:
                counts += _counts(probs / probs.sum(), bob[end - n_k:end])
    else:
        probs = _transform_weights(cells.sum(axis=0), scenario.bob_rule)
        counts = _sample_counts(rng, probs / probs.sum(), shots)
    return OutcomeDistribution(tuple(range(nb)), counts / float(shots))
