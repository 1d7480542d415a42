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
the collapsed state P_i psi / ||P_i psi||.  The check takes the collapsed
states of all live rows from psi alone, and their Born rows as the second
observable's branch weights; the two- and one-pointer joints of one state
and observable pair can share those rows.

Because every pointer starts in |0> and each shift moves it by less than the
register size, the final states are exactly

    U_B U_A psi (x) |0> (x) |0> = sum_ij R_j P_i psi (x) |i> (x) |j>
    U_A psi (x) |0>             = sum_i  P_i psi (x) |i>

that is, psi split into the branches of A, and each part split again into
the branches of B.  run_two_pointer and run_one_pointer write the parts
obs_b.split(obs_a.split(psi)) and obs_a.split(psi) into the pointer slots,
in O(d*n*m) memory.  brute_force_joint is the independent oracle: it applies
U_A and U_B by their definitions to the full register tensor, wrap-around
included, and never builds a matrix.  As sum_k P_k (x) Shift(k) =
(V (x) 1)(sum_c |c><c| (x) Shift(l_c))(V^dag (x) 1), l_c the branch of column
c of V, each coupling rotates with V^dag, shifts eigen-row c by l_c along the
pointer axis (one gather) and rotates back.  The oracle's joint cells are the
Born probabilities of the final tensor summed over the system axis; any mass
on pointer positions past the branch counts is an error.  A setup whose state
would exceed POINTER_STATE_MAX_AMPS amplitudes is rejected on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OutcomeDistribution, StateVector, _checked_probabilities
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

    def __post_init__(self):
        if self.obs_a.dims != self.small_state.dims:
            raise InvalidInputError(
                f"first observable dims {self.obs_a.dims} != state dims "
                f"{self.small_state.dims}"
            )
        if self.obs_b.dims != self.small_state.dims:
            raise InvalidInputError(
                f"second observable dims {self.obs_b.dims} != state dims "
                f"{self.small_state.dims}"
            )
        n = int(self.n_pointer1)
        if n < self.obs_a.branch_count:
            raise InvalidInputError(
                f"pointer-1 size {n} < branch count {self.obs_a.branch_count}"
            )
        object.__setattr__(self, "n_pointer1", n)
        if self.m_pointer2 is not None:
            m = int(self.m_pointer2)
            if m < self.obs_b.branch_count:
                raise InvalidInputError(
                    f"pointer-2 size {m} < branch count {self.obs_b.branch_count}"
                )
            object.__setattr__(self, "m_pointer2", m)
        amps = self.small_state.dim * n * (self.m_pointer2 or 1)
        if amps > POINTER_STATE_MAX_AMPS:
            raise InvalidInputError(
                f"pointer state of {amps} amplitudes exceeds the cap "
                f"{POINTER_STATE_MAX_AMPS}"
            )

    @property
    def mode(self) -> str:
        """TWO_POINTER with a second pointer register, else ONE_POINTER."""
        return ONE_POINTER if self.m_pointer2 is None else TWO_POINTER


def two_pointer_setup(
    small_state: StateVector,
    obs_a: Observable,
    obs_b: Observable,
    n_pointer1: int | None = None,
    m_pointer2: int | None = None,
) -> PointerSchemeSetup:
    """Two-pointer setup; register sizes default to the branch counts."""
    return PointerSchemeSetup(
        small_state,
        obs_a,
        obs_b,
        obs_a.branch_count if n_pointer1 is None else n_pointer1,
        obs_b.branch_count if m_pointer2 is None else m_pointer2,
    )


def one_pointer_setup(
    small_state: StateVector,
    obs_a: Observable,
    obs_b: Observable,
    n_pointer1: int | None = None,
) -> PointerSchemeSetup:
    """One-pointer setup; the second observable is measured directly."""
    return PointerSchemeSetup(
        small_state,
        obs_a,
        obs_b,
        obs_a.branch_count if n_pointer1 is None else n_pointer1,
        None,
    )


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome probabilities p[i, j] over branch-index pairs."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 2:
            raise InvalidInputError(f"joint must be a matrix, got shape {probs.shape}")
        object.__setattr__(self, "probs", _checked_probabilities(probs, "joint "))

    @property
    def branch_counts(self) -> tuple[int, int]:
        return self.probs.shape


def _couple(amps: np.ndarray, obs: Observable, axis: int) -> np.ndarray:
    # sum_k P_k (x) Shift(k) on the pointer axis of a (d, ...) register tensor:
    # eigen-row c of V^dag amps moves by labels[c] along the pointer axis,
    # wrap-around included, and V rotates the result back.
    d, size = amps.shape[0], amps.shape[axis]
    rows = (obs.basis.conj().T @ amps.reshape(d, -1)).reshape(amps.shape)
    index = (np.arange(size) - obs.labels[:, None]) % size
    shifted = rows.swapaxes(1, axis)[np.arange(d)[:, None], index].swapaxes(1, axis)
    return (obs.basis @ shifted.reshape(d, -1)).reshape(amps.shape)


def run_two_pointer(setup: PointerSchemeSetup) -> tuple[StateVector, JointDistribution]:
    """Evolve psi0 (x) |0> (x) |0> through U_B U_A and read both pointers.

    The final state sum_ij R_j P_i psi0 (x) |i> (x) |j> is psi0 split into
    the branches of obs_a and each part into those of obs_b, written into
    pointer slots (i, j) without building U_A or U_B.  Returns it and the
    joint cells ||R_j P_i psi0||^2 over (obs_a branch, obs_b branch).
    """
    if setup.mode != TWO_POINTER:
        raise InvalidInputError("setup is not in two-pointer mode")
    n, m, d = setup.n_pointer1, setup.m_pointer2, setup.small_state.dim
    parts = setup.obs_b.split(setup.obs_a.split(setup.small_state.amps))
    na, nb = parts.shape[1:]
    amps = np.zeros((d, n, m), dtype=complex)
    amps[:, :na, :nb] = parts
    final = StateVector._owning(setup.small_state.dims + (n, m), amps)
    return final, JointDistribution((np.abs(parts) ** 2).sum(axis=0))


def run_one_pointer(setup: PointerSchemeSetup) -> tuple[StateVector, JointDistribution]:
    """Evolve psi0 (x) |0> through U_A, then measure obs_b on the system directly.

    The final state sum_i P_i psi0 (x) |i> is psi0 split into the branches
    of obs_a, written into pointer slot i without building U_A.  The joint
    cell (i, j) is ||R_j P_i psi0||^2, the obs_b branch weights of part i.
    """
    if setup.mode != ONE_POINTER:
        raise InvalidInputError("setup is not in one-pointer mode")
    parts = setup.obs_a.split(setup.small_state.amps)
    n, na = setup.n_pointer1, parts.shape[1]
    blocks = np.zeros((setup.small_state.dim, n), dtype=complex)
    blocks[:, :na] = parts
    final = StateVector._owning(setup.small_state.dims + (n,), blocks)
    return final, JointDistribution(setup.obs_b.weights(parts))


def marginal_a(joint: JointDistribution) -> OutcomeDistribution:
    """Distribution of the first observable's branch index."""
    rows = joint.probs.sum(axis=1)
    return OutcomeDistribution(tuple(range(rows.size)), rows)


def conditional_b_given_a(joint: JointDistribution, branch_a: int) -> OutcomeDistribution:
    """Distribution of the second branch index given the first one."""
    na, nb = joint.branch_counts
    if not 0 <= branch_a < na:
        raise InvalidInputError(f"branch {branch_a} out of range for {na} branches")
    row = joint.probs[branch_a]
    p_a = float(row.sum())
    if p_a <= ZERO_PROB_CUTOFF:
        raise ZeroProbabilityBranchError(
            f"first branch {branch_a} has probability {p_a!r}"
        )
    return OutcomeDistribution(tuple(range(nb)), row / p_a)


def _joint_gap(p: JointDistribution, q: JointDistribution) -> float:
    # Worst cell difference of two joints of the same shape.
    return float(np.abs(p.probs - q.probs).max())


def _born_rows(setup: PointerSchemeSetup, live: np.ndarray) -> np.ndarray:
    # Born_j(P_i psi0 / ||P_i psi0||), one row per branch i of obs_a in the
    # index array live.  The collapsed states of all live rows come from the
    # small state alone, in one product; their Born rows are the obs_b
    # branch weights of those states.
    collapsed = _collapsed(setup.small_state, setup.obs_a, live)
    return _transform_weights(setup.obs_b.weights(collapsed), BORN)


def _shared_born_rows(
    setup: PointerSchemeSetup, joint: JointDistribution, other: JointDistribution
) -> np.ndarray:
    # The Born rows of every branch live in either joint, at its branch index
    # (zero elsewhere): one computation for two joints of the setup's state
    # and observable pair.
    live = np.maximum(joint.probs.sum(axis=1), other.probs.sum(axis=1)) > ZERO_PROB_CUTOFF
    born = np.zeros((setup.obs_a.branch_count, setup.obs_b.branch_count))
    born[live] = _born_rows(setup, np.flatnonzero(live))
    return born


def _projection_deviation(
    setup: PointerSchemeSetup, joint: JointDistribution, born: np.ndarray | None = None
) -> float:
    # Worst |p(j|i) - Born_j(P_i psi0 / ||P_i psi0||)| over the live rows of
    # a joint the setup has already produced.  born, if given, is a
    # _shared_born_rows table that covers this joint.
    rows = joint.probs.sum(axis=1)
    live = np.flatnonzero(rows > ZERO_PROB_CUTOFF)
    ref = _born_rows(setup, live) if born is None else born[live]
    cond = joint.probs[live] / rows[live, None]
    return float(np.abs(cond - ref).max(initial=0.0))


def projection_equivalence_report(setup: PointerSchemeSetup) -> float:
    """Worst |p(j|i) - Born_j(collapsed state)| over all live branch pairs.

    This is the quantitative check that the pointer readout statistics agree
    with the projection postulate applied to the small system alone.
    """
    run = run_two_pointer if setup.mode == TWO_POINTER else run_one_pointer
    return _projection_deviation(setup, run(setup)[1])


def brute_force_joint(setup: PointerSchemeSetup) -> JointDistribution:
    """Joint distribution by exhaustive enumeration of composite basis outcomes.

    Applies U_A and then U_B by their definitions to the (d, n, m) register
    tensor of psi0 (x) |0> (x) |0>, without building either matrix: each
    coupling rotates the tensor into the observable's eigenbasis, shifts
    eigen-row c along its pointer axis by the branch label of column c (a
    gather, wrap-around included) and rotates back.  It then reads cell
    (i, j) as the Born probabilities of the composite basis states with
    pointer positions (i, j), summed over the system index, and raises if
    more than 1e-10 lies on positions past the branch counts.  Its
    amplitudes are deliberately independent of the branch split in
    run_two_pointer; kept as an oracle for cross-checking.
    """
    if setup.mode != TWO_POINTER:
        raise InvalidInputError("brute force readout needs a two-pointer setup")
    n, m = setup.n_pointer1, setup.m_pointer2
    amps = np.zeros((setup.small_state.dim, n, m), dtype=complex)
    amps[:, 0, 0] = setup.small_state.amps
    amps = _couple(_couple(amps, setup.obs_a, axis=1), setup.obs_b, axis=2)
    na, nb = setup.obs_a.branch_count, setup.obs_b.branch_count
    cells = (np.abs(amps) ** 2).sum(axis=0)
    residual = float(cells[na:].sum() + cells[:na, nb:].sum())
    if residual > 1e-10:
        raise InvalidInputError(
            f"probability mass {residual!r} outside the branch-indexed pointer cells"
        )
    return JointDistribution(cells[:na, :nb])


def _evolve_checked(
    setup: PointerSchemeSetup,
) -> tuple[StateVector, JointDistribution, float, float]:
    # Evolve the setup once; return the final state, the joint, its projection
    # deviation and the worst gap to an independent joint: the oracle for two
    # pointers, the default-size two-pointer twin for one pointer.
    if setup.mode == TWO_POINTER:
        final, joint = run_two_pointer(setup)
        other = brute_force_joint(setup)
    else:
        final, joint = run_one_pointer(setup)
        twin = two_pointer_setup(setup.small_state, setup.obs_a, setup.obs_b)
        other = run_two_pointer(twin)[1]
    return final, joint, _projection_deviation(setup, joint), _joint_gap(joint, other)
