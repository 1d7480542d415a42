"""Pointer-register measurement schemes.

A small system is coupled to one or two cyclic pointer registers by shift
unitaries that are block-diagonal in an observable's branch decomposition:

    U_A = sum_i P_i (x) Shift_N(i) [(x) 1_M]
    U_B = sum_j R_j (x) 1_N (x) Shift_M(j)

where Shift_K(s)|k> = |k+s mod K> and both pointers start in basis state 0.
After the coupling, pointer position i tags branch i, so reading the pointers
in the computational basis realizes the measurement without any direct
reference to a collapse rule.  The joint statistics reproduce the projection
postulate: p(j|i) equals the Born distribution of the second observable on
the collapsed state P_i psi / ||P_i psi||.  The check collapses psi alone
onto every branch, by measurement._collapsed, normalising the live ones a
mask marks, and takes their Born rows as the second observable's branch
weights; all joints of one state and observable pair share those rows.
_pointer_check implements the claim for `bornsim verify` and `run`, and
projection_equivalence_report for one scheme, from the same kernels; only
verify and two_pointer scenarios add the oracle gap (_oracle_gap), so a
one_pointer run never runs the oracle.

Every array function of this module (the runs, the Born rows, the oracle,
_pointer_check and _oracle_gap) takes setups of one system dimension as one
stack: states (S, d) and two observables._Stacks.  _stacked makes the stack
of one setup, from its observables' own stacks of one, for `run` and the
public functions.  verify builds its stacks from its trials' arrays after
the checks of their states and observables; a setup's checks hold by
construction, as each stack is built on its states' dims, each pointer is
as wide as its branch axis (at most d) and d^3 fits POINTER_STATE_MAX_AMPS.
It pads the branch axes and both pointer registers of its small-d trials to
d, so every trial of a stack has the same shapes; padded branches have
weight 0, and since the pointers start at |0> and move by less than d,
padded pointer positions stay empty.  All branch columns are computed, per
slice, so a trial's numbers do not depend on the other trials of its stack.

Because every pointer starts in |0> and each shift moves it by less than the
register size, the final states are exactly

    U_B U_A psi (x) |0> (x) |0> = sum_ij R_j P_i psi (x) |i> (x) |j>
    U_A psi (x) |0>             = sum_i  P_i psi (x) |i>

that is, psi split into the branches of A, and each part split again into
the branches of B.  run_two_pointer and run_one_pointer write the parts
obs_b.split(obs_a.split(psi)) and obs_a.split(psi) into the pointer slots,
in O(d*n*m) memory.  brute_force_joint is the independent oracle: it applies
U_A and U_B by their definitions, wrap-around included, to one register
(d, size) at a time, never to the full register tensor, as each is the
identity on the other pointer: U_A to psi (x) |0>, then U_B to each
pointer-1 slice (x) |0>.  As sum_k P_k (x) Shift(k) =
(V (x) 1)(sum_c |c><c| (x) Shift(l_c))(V^dag (x) 1), l_c the branch of column
c of V, each coupling rotates with V^dag, shifts eigen-row c by l_c (one
gather) and rotates back.  Its cells are each final slice's Born
probabilities summed over the system axis; any mass on pointer positions
past the branch counts is an error.  A setup whose state would exceed
POINTER_STATE_MAX_AMPS amplitudes is rejected on construction.

A setup keeps the checked joint of its scheme once a run or
projection_equivalence_report has computed it, so a report after a run of
the same setup adds only the Born rows and the deviations.  A run still
computes its parts, as it returns the final state; neither is kept, so a
setup holds at most na*nb extra floats, 1/d of the final state's amplitudes.
Every field of a setup is a checked value with read-only arrays, so the
kept joint is the one a fresh setup computes, bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .core import (OutcomeDistribution, StateVector, _check_states, _check_type,
                   _checked_probabilities, _converted, _rebuilt)
from .errors import InvalidInputError, ZeroProbabilityBranchError
from .measurement import BORN, ZERO_PROB_CUTOFF, _collapsed, _transform_weights
from .observables import Observable

TWO_POINTER = "two_pointer"
ONE_POINTER = "one_pointer"

# The two scheme variants and the brute-force readout must agree this tightly.
SCHEME_AGREEMENT_TOL = 1e-12
# Largest pointer state any scheme or the oracle will allocate: d*n*m (or
# d*n) complex amplitudes, 2**24 of them is about 268 MB.
POINTER_STATE_MAX_AMPS = 2**24


@dataclass(frozen=True)
class PointerSchemeSetup:
    """A small system, two observables, and the pointer register sizes.

    n_pointer1 (>= branch count of obs_a) is the size of the first pointer;
    m_pointer2 likewise for the second pointer and obs_b.  There is no mode
    argument: m_pointer2=None makes a one-pointer setup, where the second
    observable is measured directly.
    """

    small_state: StateVector
    obs_a: Observable
    obs_b: Observable
    n_pointer1: int
    m_pointer2: int | None
    # The scheme's checked joint, stored by the first run or report that
    # computes it: na x nb cells, at most 1/d of the final state's amplitudes.
    _joint: JointDistribution | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_type(self.small_state, StateVector, "small_state must be a StateVector")
        for name in ("obs_a", "obs_b"):
            _check_type(getattr(self, name), Observable, f"{name} must be an Observable")
        n = _converted(operator.index, self.n_pointer1, "pointer-1 size must be an int")
        m = None if self.m_pointer2 is None else _converted(
            operator.index, self.m_pointer2, "pointer-2 size must be an int")
        dims = self.small_state.dims
        for which, obs in (("first", self.obs_a), ("second", self.obs_b)):
            if obs.dims != dims:
                raise InvalidInputError(f"{which} observable dims {obs.dims} != state dims {dims}")
        for which, size, obs in ((1, n, self.obs_a), (2, m, self.obs_b)):
            if size is not None and size < obs.branch_count:
                raise InvalidInputError(
                    f"pointer-{which} size {size} < branch count {obs.branch_count}")
        amps = self.small_state.dim * n * (m or 1)
        if amps > POINTER_STATE_MAX_AMPS:
            raise InvalidInputError(
                f"pointer state of {amps} amplitudes exceeds the cap {POINTER_STATE_MAX_AMPS}"
            )
        object.__setattr__(self, "n_pointer1", n)
        object.__setattr__(self, "m_pointer2", m)

    __reduce__ = _rebuilt

    @property
    def mode(self) -> str:
        """TWO_POINTER with a second pointer register, else ONE_POINTER."""
        return ONE_POINTER if self.m_pointer2 is None else TWO_POINTER


def _size(size: int | None, obs: Observable) -> int | None:
    # A register size, by default obs's branch count; the setup's own check
    # rejects an obs that is not an Observable.
    return obs.branch_count if size is None and isinstance(obs, Observable) else size


def two_pointer_setup(
    small_state: StateVector,
    obs_a: Observable,
    obs_b: Observable,
    n_pointer1: int | None = None,
    m_pointer2: int | None = None,
) -> PointerSchemeSetup:
    """Two-pointer setup; register sizes default to the branch counts."""
    return PointerSchemeSetup(
        small_state, obs_a, obs_b, _size(n_pointer1, obs_a), _size(m_pointer2, obs_b))


def one_pointer_setup(
    small_state: StateVector,
    obs_a: Observable,
    obs_b: Observable,
    n_pointer1: int | None = None,
) -> PointerSchemeSetup:
    """One-pointer setup; the second observable is measured directly."""
    return PointerSchemeSetup(small_state, obs_a, obs_b, _size(n_pointer1, obs_a), None)


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome probabilities p[i, j] over branch-index pairs."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _converted(np.array, self.probs, "joint probabilities must be numbers", float)
        if probs.ndim != 2:
            raise InvalidInputError(f"joint must be a matrix, got shape {probs.shape}")
        object.__setattr__(self, "probs", _checked_probabilities(probs, "joint "))

    __reduce__ = _rebuilt

    @property
    def branch_counts(self) -> tuple[int, int]:
        return self.probs.shape


def _stacked(setup: PointerSchemeSetup) -> tuple:
    # The setup as a stack of one: its state (1, d) and its observables' _Stacks.
    return setup.small_state.amps[None], setup.obs_a._stack, setup.obs_b._stack


def _couple(amps: np.ndarray, obs) -> np.ndarray:
    # sum_k P_k (x) Shift(k) on registers (S, d, size) and a _Stack: eigen-row
    # c of V^dag amps moves by labels[c] along the register (one gather),
    # wrap-around included, and V rotates the result back.
    size = amps.shape[-1]
    return obs.basis @ np.take_along_axis(
        obs.adjoint @ amps, (np.arange(size) - obs.labels[..., None]) % size, -1)


def _two_pointer(psi: np.ndarray, obs_a, obs_b) -> tuple[np.ndarray, np.ndarray]:
    # The parts R_j P_i psi0, (S, d, na, nb), and the joint cells
    # ||R_j P_i psi0||^2, (S, na, nb).
    parts = obs_b.split(obs_a.split(psi))
    return parts, (np.abs(parts) ** 2).sum(axis=-3)


def _one_pointer(psi: np.ndarray, obs_a, obs_b) -> tuple[np.ndarray, np.ndarray]:
    # The parts P_i psi0, (S, d, na), and the joint cells: the obs_b branch
    # weights of each part, (S, na, nb).
    parts = obs_a.split(psi)
    return parts, obs_b.weights(parts)


def _final(setup: PointerSchemeSetup, parts: np.ndarray) -> StateVector:
    # The final state of one run, whose parts _check_states has passed: its
    # parts written into the pointer slots of the setup's registers, the
    # other slots zero.
    sizes = (setup.n_pointer1,) + (() if setup.m_pointer2 is None else (setup.m_pointer2,))
    amps = np.zeros((setup.small_state.dim,) + sizes, dtype=complex)
    amps[(slice(None),) + tuple(map(slice, parts.shape[1:]))] = parts
    return StateVector._checked(setup.small_state.dims + sizes, amps)


def _kept(setup: PointerSchemeSetup, joint: np.ndarray) -> JointDistribution:
    # The setup's stored joint.  The first run or report stores its joint
    # cells (na, nb) as a JointDistribution; a later run computes the same
    # cells bit for bit and returns the stored ones.
    if setup._joint is None:
        object.__setattr__(setup, "_joint", JointDistribution(joint))
    return setup._joint


def _run(setup: PointerSchemeSetup, run) -> tuple[StateVector, JointDistribution]:
    # The final state and joint of one run of the setup, on a stack of one;
    # its parts pass the checks of a StateVector.
    parts, joint = run(*_stacked(setup))
    _check_states(parts)
    return _final(setup, parts[0]), _kept(setup, joint[0])


def run_two_pointer(setup: PointerSchemeSetup) -> tuple[StateVector, JointDistribution]:
    """Evolve psi0 (x) |0> (x) |0> through U_B U_A and read both pointers.

    The final state sum_ij R_j P_i psi0 (x) |i> (x) |j> is psi0 split into
    the branches of obs_a and each part into those of obs_b, written into
    pointer slots (i, j) without building U_A or U_B.  Returns it and the
    joint cells ||R_j P_i psi0||^2 over (obs_a branch, obs_b branch).
    """
    if setup.mode != TWO_POINTER:
        raise InvalidInputError("setup is not in two-pointer mode")
    return _run(setup, _two_pointer)


def run_one_pointer(setup: PointerSchemeSetup) -> tuple[StateVector, JointDistribution]:
    """Evolve psi0 (x) |0> through U_A, then measure obs_b on the system directly.

    The final state sum_i P_i psi0 (x) |i> is psi0 split into the branches
    of obs_a, written into pointer slot i without building U_A.  The joint
    cell (i, j) is ||R_j P_i psi0||^2, the obs_b branch weights of part i.
    """
    if setup.mode != ONE_POINTER:
        raise InvalidInputError("setup is not in one-pointer mode")
    return _run(setup, _one_pointer)


def marginal_a(joint: JointDistribution) -> OutcomeDistribution:
    """Distribution of the first observable's branch index."""
    rows = joint.probs.sum(axis=1)
    return OutcomeDistribution(tuple(range(rows.size)), rows)


def conditional_b_given_a(joint: JointDistribution, branch_a: int) -> OutcomeDistribution:
    """Distribution of the second branch index given the first one."""
    na, nb = joint.branch_counts
    branch_a = _converted(operator.index, branch_a, "branch must be an int")
    if not 0 <= branch_a < na:
        raise InvalidInputError(f"branch {branch_a} out of range for {na} branches")
    row = joint.probs[branch_a]
    p_a = float(row.sum())
    if p_a <= ZERO_PROB_CUTOFF:
        raise ZeroProbabilityBranchError(
            f"first branch {branch_a} has probability {p_a!r}"
        )
    return OutcomeDistribution(tuple(range(nb)), row / p_a)


def _born_rows(psi: np.ndarray, obs_a, obs_b, live: np.ndarray) -> np.ndarray:
    # Born_j(P_i psi0 / ||P_i psi0||) for every row i, from one collapse and
    # one product for the obs_b branch weights.  A row that live does not
    # mark holds 1/nb in every entry; no deviation reads it.  psi (S, d) and
    # live (S, na) stack setups with obs_a and obs_b; the rows are (S, na, nb).
    weights = obs_b.weights(_collapsed(psi, obs_a, slice(None), live))
    return _transform_weights(np.where(live[..., None], weights, 1.0), BORN)


def _projection_deviations(joint: np.ndarray, born: np.ndarray) -> np.ndarray:
    # Worst |p(j|i) - born[i, j]| over the live rows i of each joint, those
    # of weight above ZERO_PROB_CUTOFF; leading axes stack joints.
    rows = joint.sum(axis=-1)
    live = rows > ZERO_PROB_CUTOFF
    cond = joint / np.where(live, rows, 1.0)[..., None]
    return np.where(live[..., None], np.abs(cond - born), 0.0).max(axis=(-2, -1))


def projection_equivalence_report(setup: PointerSchemeSetup) -> float:
    """Worst |p(j|i) - Born_j(collapsed state)| over all live branch pairs.

    This is the quantitative check that the pointer readout statistics agree
    with the projection postulate applied to the small system alone.  The
    joint is the one a run or report of this setup stored; without one, the
    setup is evolved once and its joint stored.
    """
    stacked = _stacked(setup)
    joint = setup._joint
    if joint is None:
        run = _two_pointer if setup.mode == TWO_POINTER else _one_pointer
        joint = _kept(setup, run(*stacked)[1][0])
    born = _born_rows(*stacked, joint.probs.sum(axis=-1)[None] > ZERO_PROB_CUTOFF)
    return float(_projection_deviations(joint.probs, born[0]))


def _oracle_cells(psi: np.ndarray, obs_a, obs_b, n: int, m: int) -> np.ndarray:
    # The oracle's cells over pointer positions (n, m), (S, n, m) for states
    # (S, d): U_A applied by definition to psi0 (x) |0>, the one non-zero
    # slice of the second pointer, then U_B to each pointer-1 slice (x) |0>,
    # whose Born probabilities are summed over the system axis as it is made.
    # Mass on positions past a state's branch counts raises above 1e-10 and
    # is cut to zero.
    register = np.zeros(psi.shape + (n,), dtype=complex)
    register[..., 0] = psi
    after_a = _couple(register, obs_a)
    register = np.zeros(psi.shape + (m,), dtype=complex)
    cells = np.empty((len(psi), n, m))
    for i in range(n):
        register[..., 0] = after_a[..., i]
        cells[:, i] = (np.abs(_couple(register, obs_b)) ** 2).sum(axis=-2)
    outside = ((np.arange(n)[:, None] >= obs_a.branch_count[:, None, None])
               | (np.arange(m) >= obs_b.branch_count[:, None, None]))
    residual = np.where(outside, cells, 0.0).sum(axis=(-2, -1))
    residual = residual[residual > 1e-10]
    if residual.size:
        raise InvalidInputError(
            f"probability mass {float(residual[0])!r} outside the branch-indexed pointer cells"
        )
    return np.where(outside, 0.0, cells)


def brute_force_joint(setup: PointerSchemeSetup) -> JointDistribution:
    """Joint distribution by exhaustive enumeration of composite basis outcomes.

    Applies U_A and then U_B by their definitions to psi0 (x) |0> (x) |0>,
    one pointer register at a time and without building either matrix:
    U_A to psi0 (x) |0>, then U_B to each pointer-1 slice (x) |0>.  Each
    coupling rotates a register into the observable's eigenbasis, shifts
    eigen-row c by the branch label of column c (a gather, wrap-around
    included) and rotates back.  Cell (i, j) is the Born probability of
    pointer positions (i, j), summed over the system index, and it raises
    if more than 1e-10 lies on positions past the branch counts.  Its
    amplitudes are deliberately independent of the branch split in
    run_two_pointer; kept as an oracle for cross-checking.
    """
    if setup.mode != TWO_POINTER:
        raise InvalidInputError("brute force readout needs a two-pointer setup")
    cells = _oracle_cells(*_stacked(setup), setup.n_pointer1, setup.m_pointer2)[0]
    return JointDistribution(cells[:setup.obs_a.branch_count, :setup.obs_b.branch_count])


def _pointer_check(stacked: tuple, one: bool = False) -> tuple:
    # The projection claim on a stack of setups of one system dimension, in
    # one call: each setup's state and observables evolved once in the
    # two-pointer scheme and, with one, once in the one-pointer scheme.
    # Each run's final states and joints pass the checks StateVector and
    # JointDistribution run.  Returns the runs' parts, their joints
    # (S, na, nb), each joint's projection deviation against one table of
    # Born rows (every branch, normalised where live in either joint) as
    # (S, runs), and the scheme gap per setup, 0.0 without the one-pointer run.
    psi, obs_a, obs_b = stacked
    runs = [_two_pointer(psi, obs_a, obs_b)] + ([_one_pointer(psi, obs_a, obs_b)] if one else [])
    joints = []
    for parts, joint in runs:
        _check_states(parts)  # a final state holds exactly these parts
        joints.append(_checked_probabilities(joint, "joint ", axis=(-2, -1)))
    live = np.maximum.reduce([joint.sum(axis=-1) for joint in joints]) > ZERO_PROB_CUTOFF
    born = _born_rows(psi, obs_a, obs_b, live)
    deviations = np.stack([_projection_deviations(joint, born) for joint in joints], axis=-1)
    gap = np.abs(joints[0] - joints[-1]).max(axis=(-2, -1))
    return [parts for parts, _ in runs], joints, deviations, gap


def _oracle_gap(stacked: tuple, joint: np.ndarray, n: int, m: int) -> np.ndarray:
    # Worst cell gap per setup between the two-pointer joints _pointer_check
    # returned for this stack of setups and the oracle's, whose registers
    # hold n and m positions.  Padded, n and m are the padded width;
    # pointers start at |0> and shift by less than their size, so padding
    # never wraps.
    cells = _oracle_cells(*stacked, n, m)[..., :joint.shape[-2], :joint.shape[-1]]
    return np.abs(joint - _checked_probabilities(cells, "joint ", axis=(-2, -1))).max(axis=(-2, -1))
