"""Measurement rules and channels on pure and mixed states.

The outcome probability rules form a one-parameter family acting on the Born
branch weights w_i = ||P_i psi||^2:

    p_i = w_i^q / sum_j w_j^q        (q > 0)

q = 1 is the Born rule.  Any other exponent is an intentionally non-physical
alternative kept around so its operational consequences (signaling) can be
demonstrated.  The family is deterministic on eigenstates for every q and is
defined on pure states; ensembles are handled by weighted mixing of the
per-member distributions.  _entropy_check and _target_check implement the
entropy and state-preparation claims once, for `bornsim verify` and `run`.
The kernels take a stack of states or densities and a _Stack of
observables, arrays only; `run` and the public functions call them on a
stack of one, after their one check of the observable's dims (_matched).
_collapsed is the package's one collapse P_i psi / ||P_i psi||.  State
preparation steers each collapsed branch to the target with one Householder
reflection, so this module factors no matrix.  The LL kernel applies them
as vectors to unchecked post-states, so a wrong one shows as its deviation
from the target; only the public functions build and check operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    PSD_TOL,
    DensityMatrix,
    Operator,
    OutcomeDistribution,
    StateVector,
    _check_densities,
    _converted,
    _entropies,
)
from .errors import (
    InvalidInputError,
    NotDecoheredError,
    NotUnitaryError,
    ZeroProbabilityBranchError,
)
from .observables import Observable

# Branch weights at or below this are treated as zero when conditioning,
# collapsing, or enumerating surviving branches.
ZERO_PROB_CUTOFF = 1e-12
UNITARY_TOL = 1e-10
DECOHERED_TOL = 1e-8


@dataclass(frozen=True)
class ProbabilityRule:
    """Outcome rule p_i proportional to ||P_i psi||^(2*exponent)."""

    exponent: float = 1.0

    def __post_init__(self):
        q = _converted(float, self.exponent, "rule exponent must be a number")
        if not np.isfinite(q) or q <= 0.0:
            raise InvalidInputError(f"rule exponent must be finite and > 0, got {q!r}")
        object.__setattr__(self, "exponent", q)

    @property
    def is_born(self) -> bool:
        return self.exponent == 1.0


BORN = ProbabilityRule(1.0)


def nonborn_exponent(q: float) -> ProbabilityRule:
    """Alternative rule with branch weights raised to the power q."""
    return ProbabilityRule(q)


@dataclass(frozen=True)
class MeasurementRecord:
    """One selective measurement outcome: which branch, how likely, what remains."""

    branch_index: int
    eigenvalue: float
    probability: float
    post_state: StateVector


def _matched(dims, obs: Observable) -> Observable:
    # obs after the check that it acts on dims: the public functions' one dims
    # check, since a _Stack and the kernels that take one carry no dims.
    if obs.dims != dims:
        raise InvalidInputError(f"dims mismatch {obs.dims} vs {dims}")
    return obs


def branch_weights(state: StateVector, obs: Observable) -> np.ndarray:
    """Born branch weights ||P_i psi||^2: block sums of |V^dag psi|^2."""
    return _matched(state.dims, obs).weights(state.amps)


def _transform_weights(weights: np.ndarray, rule: ProbabilityRule) -> np.ndarray:
    # The rule's probabilities along the last axis, one distribution per row.
    w = np.maximum(weights, 0.0)
    if rule.exponent != 1.0:
        # Scale each row's largest weight to 1 first, so w**q cannot
        # underflow to an all-zero row (or overflow) for large exponents.
        peak = w.max(axis=-1, keepdims=True)
        w = (w / np.where(peak > 0.0, peak, 1.0)) ** rule.exponent
    total = w.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise InvalidInputError("all branch weights vanish")
    return w / total


def rule_probabilities(
    rule: ProbabilityRule, state: StateVector, obs: Observable
) -> OutcomeDistribution:
    """Outcome distribution over branch indices under the given rule."""
    probs = _transform_weights(branch_weights(state, obs), rule)
    return OutcomeDistribution(tuple(range(obs.branch_count)), probs)


def project_update(state: StateVector, obs: Observable, branch: int) -> StateVector:
    """Collapse onto one branch: P_i psi / ||P_i psi||, with P_i = V_i V_i^dag."""
    branch = obs._check_branch(branch)
    stack = _matched(state.dims, obs)._stack
    parts = _collapsed(state.amps[None], stack, np.array([branch]), True)
    return StateVector(state.dims, parts[0, :, 0])


def _collapsed(psi: np.ndarray, obs, columns, live) -> np.ndarray:
    # P_i psi (S, D, len(columns)) for states psi (S, D) and the branches of
    # a _Stack that columns picks; the parts live (S, len(columns), or True)
    # marks are normalised, and one of weight <= ZERO_PROB_CUTOFF raises.
    parts = obs.split(psi, columns)
    norms = np.linalg.norm(parts, axis=-2)
    weak = live & (norms**2 <= ZERO_PROB_CUTOFF)
    if weak.any():
        s, j = np.argwhere(weak)[0]
        branch = np.arange(obs.indicator.shape[-1])[columns][j]
        raise ZeroProbabilityBranchError(f"branch {branch} has weight {norms[s, j]**2!r}")
    return parts / np.where(live, norms, 1.0)[..., None, :]


def measure_selective(
    state: StateVector,
    obs: Observable,
    rule: ProbabilityRule = BORN,
    *,
    rng: np.random.Generator | None = None,
    force_branch: int | None = None,
) -> MeasurementRecord:
    """Sample one outcome and collapse.

    Randomness is caller-owned: pass a seeded numpy Generator, or force a
    specific branch (which must carry nonzero weight).
    """
    dist = rule_probabilities(rule, state, obs)
    if force_branch is not None:
        branch = obs._check_branch(force_branch)
    else:
        if rng is None:
            raise InvalidInputError("either rng or force_branch is required")
        branch = int(rng.choice(obs.branch_count, p=dist.probs / dist.probs.sum()))
    post = project_update(state, obs, branch)
    return MeasurementRecord(
        branch, obs.eigenvalue(branch), float(dist.probs[branch]), post
    )


def ll_channel(
    state: StateVector, obs: Observable, post_unitaries: Sequence[Operator]
) -> list[MeasurementRecord]:
    """Two-stage selective channel: projective collapse, then a per-branch unitary.

    Probabilities are the Born weights and do not depend on the unitaries; the
    record for branch n carries U_n applied to the collapsed state.  Branches
    with zero weight are omitted.
    """
    if len(post_unitaries) != obs.branch_count:
        raise InvalidInputError(
            f"{len(post_unitaries)} unitaries for {obs.branch_count} branches"
        )
    for n, u in enumerate(post_unitaries):
        if u.dims != state.dims:
            raise InvalidInputError(f"unitary {n} dims {u.dims} != {state.dims}")
        if not u.is_unitary(UNITARY_TOL):
            raise NotUnitaryError(f"post-measurement operator {n} is not unitary")
    weights = branch_weights(state, obs)
    live = weights > ZERO_PROB_CUTOFF
    parts = _collapsed(state.amps[None], obs._stack, slice(None), live)[0]
    return [MeasurementRecord(n, obs.eigenvalue(n), float(weights[n]),
                              StateVector(state.dims, post_unitaries[n].entries @ parts[:, n]))
            for n in np.flatnonzero(live).tolist()]


def _stack_of_one(state: StateVector, obs: Observable, target: StateVector) -> tuple:
    # (states, _Stack, targets) of one state, after the target's and the
    # observable's dims checks.
    if target.dims != state.dims:
        raise InvalidInputError(f"target dims {target.dims} != {state.dims}")
    return state.amps[None], _matched(state.dims, obs)._stack, target.amps[None]


def _householder(psi: np.ndarray, obs, targets: np.ndarray) -> tuple:
    # Born weights and live mask (S, K) of states psi (S, D) under a _Stack,
    # and per branch the collapsed parts x_n (S, D, K), normalised where live,
    # and w_n, e^{ia_n}, 2 / ||w_n||^2 (||w_n||^2 >= 1 where dead too).
    weights = obs.weights(psi)
    live = weights > ZERO_PROB_CUTOFF
    x = _collapsed(psi, obs, slice(None), live)
    phases = np.exp(1j * np.angle(targets.conj()[:, None] @ x))
    w = x + phases * targets[..., None]
    return weights, live, x, w, phases[:, 0], 2.0 / np.einsum("sij,sij->sj", w.conj(), w).real


def state_preparation_unitaries(
    state: StateVector, obs: Observable, target: StateVector
) -> list[Operator]:
    """Per-branch unitaries sending every surviving collapsed state to target.

    Feeding these to ll_channel makes the channel output independent of the
    observed branch.  Live branch n gets one phase-aligned Householder
    reflection: with a = arg<target|x_n> and w = x_n + e^{ia} target,
    U_n = (2 w w^dag / ||w||^2 - 1) e^{-ia}, where ||w||^2 >= 2.  Dead
    branches get the identity.
    """
    _, live, _, w, phases, scale = _householder(*_stack_of_one(state, obs, target))
    eye = np.eye(state.dim)
    return [Operator(state.dims, (c * np.outer(wn, wn.conj()) - eye) * phase.conjugate()
                     if alive else eye)
            for alive, wn, phase, c in zip(live[0], w[0].T, phases[0], scale[0])]


def _target_check(psi: np.ndarray, obs, targets: np.ndarray) -> tuple:
    # The claim on _householder's inputs: its weights, each state's worst
    # amplitude deviation of its live posts from its target, its live mask, and
    # its parts' LL post-states U_n x_n = e^{-ia} (2 w (w^dag x_n) / ||w||^2 - x_n),
    # unchecked.
    weights, live, x, w, phases, scale = _householder(psi, obs, targets)
    overlap = (scale * np.einsum("sij,sij->sj", w.conj(), x))[:, None]
    posts = (overlap * w - x) * phases.conj()[:, None]
    miss = np.where(live[:, None], np.abs(posts - targets[..., None]), 0.0)
    return weights, miss.max(axis=(1, 2)), live, posts


def phase_unitaries(
    obs: Observable, omegas: Sequence[float], dt: float
) -> list[Operator]:
    """Branch unitaries exp(-1j * omega_n * dt) * identity.

    Pure phases: the channel's probabilities are untouched and each branch
    state changes only by a global phase.
    """
    if len(omegas) != obs.branch_count:
        raise InvalidInputError(
            f"{len(omegas)} frequencies for {obs.branch_count} branches"
        )
    eye = np.eye(obs.dim, dtype=complex)
    return [
        Operator(obs.dims, np.exp(-1j * float(w) * float(dt)) * eye) for w in omegas
    ]


def nonselective_channel(rho: DensityMatrix, obs: Observable) -> DensityMatrix:
    """Dephase in the branch decomposition: rho -> sum_i P_i rho P_i."""
    dephased = _dephase(rho.entries[None], _matched(rho.dims, obs)._stack)[1]
    return DensityMatrix(rho.dims, dephased[0])


def _dephase(rho: np.ndarray, obs) -> tuple[np.ndarray, np.ndarray]:
    # B = V^dag rho V cut to its diagonal blocks, and V B V^dag = sum_i P_i rho P_i,
    # for densities rho (S, d, d) and a _Stack.
    blocks = obs.adjoint @ rho @ obs.basis
    blocks *= obs.labels[:, :, None] == obs.labels[:, None, :]
    return blocks, obs.basis @ blocks @ obs.adjoint


def _by_count(counts: np.ndarray):
    # (count, indices) for each distinct value of counts, for work that must
    # run at each item's own length to give the bits it gives alone.
    for count in sorted(set(counts.tolist())):
        yield count, np.flatnonzero(counts == count)


def _branch_weights(blocks: np.ndarray, obs, rule: ProbabilityRule) -> tuple:
    # The Born weights Tr(P_i rho P_i), block sums of the diagonal of each B,
    # and the rule's probabilities, for a _Stack: (S, K) each, zero past a
    # row's branch count.  Rows are computed by branch count, each as its
    # observable's alone: the diagonal stays a strided view, so the product
    # takes numpy's own loop as a one-observable product does, not BLAS.
    weights, probs = np.zeros((2,) + obs.indicator.shape[::2])
    for k, at in _by_count(obs.branch_count):
        diagonal = np.diagonal(blocks[at], axis1=-2, axis2=-1).real
        weights[at, :k] = (diagonal[:, None] @ obs.indicator[at, :, :k])[:, 0]
        probs[at, :k] = _transform_weights(weights[at, :k], rule)
    return weights, probs


def _conditionals(blocks: np.ndarray, obs, weights: np.ndarray, live: np.ndarray) -> np.ndarray:
    # P_i rho P_i / w_i = V_i B_ii V_i^dag / w_i for the (stack, branch) pairs
    # that live marks, in order, as (M, d, d): V_i are the columns of branch
    # i in column order and B_ii their block of B.  Branches of one rank are
    # computed together, each as its observable's alone.
    s, i = np.nonzero(live)
    ranks = obs.indicator.sum(axis=-2)[s, i].astype(int)
    out = np.empty((len(s),) + blocks.shape[-2:], dtype=complex)
    rows = np.arange(blocks.shape[-1])[:, None]
    for r, at in _by_count(ranks):
        trial = s[at, None, None]
        cols = np.nonzero(obs.labels[s[at]] == i[at, None])[1].reshape(-1, r)  # (n, r)
        v = obs.basis[trial, rows, cols[:, None, :]]
        block = blocks[trial, cols[:, :, None], cols[:, None, :]]
        out[at] = v @ block @ v.conj().swapaxes(-1, -2) / weights[s[at], i[at], None, None]
    return out


def classical_selective(
    rho: DensityMatrix, obs: Observable, branch: int, rule: ProbabilityRule = BORN
) -> tuple[float, DensityMatrix]:
    """Read out one branch of an already-decohered mixed state.

    Requires rho to be block-diagonal in the branch decomposition within
    DECOHERED_TOL.  Returns the rule's probability for the branch and the
    conditional state P_i rho P_i / Tr(P_i rho).
    """
    branch = obs._check_branch(branch)
    stack = _matched(rho.dims, obs)._stack
    blocks, dephased = _dephase(rho.entries[None], stack)
    weights, probs = _branch_weights(blocks, stack, rule)
    live = (np.arange(obs.branch_count) == branch) & (weights > PSD_TOL)
    conditional = [DensityMatrix(rho.dims, post)
                   for post in _conditionals(blocks, stack, weights, live)]
    off = float(np.abs(rho.entries - dephased[0]).max())
    if off > DECOHERED_TOL:
        raise NotDecoheredError(
            f"off-block coherences of size {off!r} exceed {DECOHERED_TOL}"
        )
    if not conditional:
        raise ZeroProbabilityBranchError(
            f"branch {branch} has weight {weights[0, branch]!r}"
        )
    return float(probs[0, branch]), conditional[0]


def _entropy_check(rho: np.ndarray, spectrum: np.ndarray, obs) -> tuple:
    # The entropy claim on S checked densities rho (S, d, d), with
    # their ascending spectra, and a _Stack of S observables, from one
    # dephasing each: S(rho), S(sum_i P_i rho P_i), per branch (S, K) the
    # live mask (weight above PSD_TOL), p_i and S(rho_i) (0 where not live),
    # and sum_i p_i S(rho_i) in branch order.  The conditional states
    # rho_i = P_i rho P_i / Tr(P_i rho) and the dephased states pass the
    # checks of a DensityMatrix in one call, whose spectra give their
    # entropies.
    blocks, dephased = _dephase(rho, obs)
    weights, probs = _branch_weights(blocks, obs, BORN)
    live = weights > PSD_TOL
    conditionals = _conditionals(blocks, obs, weights, live)
    entropies = _entropies(_check_densities(np.concatenate([conditionals, dephased])))
    branch = np.zeros(live.shape)
    branch[live] = entropies[:len(conditionals)]
    avg = sum(np.where(live, probs * branch, 0.0).T)
    return _entropies(spectrum), entropies[len(conditionals):], (live, probs, branch), avg
