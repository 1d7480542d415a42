"""Observables as one unitary eigenbasis V with a branch label per column.

A _Stack holds observables of one dimension as arrays with a leading stack
axis, and is the one array form the kernels of this package read: its
weights and split are the branch arithmetic.  _checked_stack is the one
builder of a _Stack and runs an Observable's checks once on the whole
stack.  An Observable is its stack of one: its basis, labels and indicator
are read-only slices of it, and its weights and split delegate to it; the
dense projectors are a cached view.  Verify's trials are stacked from
arrays and never wrapped in Observables.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite, prod
from operator import lt
from typing import NamedTuple

import numpy as np

from .core import Operator, _check_dims, _converted, _frozen, _rebuilt
from .errors import InvalidInputError, InvalidProjectorFamilyError, NotHermitianError

PROJ_TOL = 1e-10
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class Observable:
    """Hermitian observable resolved into measurement branches.

    Column c of the unitary basis belongs to branch labels[c].  Branch i
    carries eigenvalue eigenvalues[i] and projector P_i = V_i V_i^dag onto
    its columns V_i.  Branches are canonically ordered by strictly increasing
    eigenvalue, every branch owns at least one column, and V^dag V equals the
    identity within PROJ_TOL.  The branch index, not the eigenvalue, is the
    outcome label used throughout this package.
    """

    dims: tuple[int, ...]
    eigenvalues: tuple[float, ...]
    basis: np.ndarray
    labels: np.ndarray
    # D x k branch membership of the columns; x @ indicator sums x per branch.
    indicator: np.ndarray = field(init=False, repr=False, compare=False)
    # This observable as a read-only _Stack of one; basis, labels and
    # indicator are its slices.
    _stack: _Stack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = _check_dims(self.dims)
        eigenvalues = _converted(lambda v: tuple(map(float, v)), self.eigenvalues,
                                 "eigenvalues must be numbers")
        basis = _converted(np.asarray, self.basis, "basis entries must be numbers", complex)
        labels = _converted(np.asarray, self.labels, "labels must be ints")
        stack = _checked_stack(dims, [(eigenvalues, basis, labels)])
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "basis", stack.basis[0])
        object.__setattr__(self, "labels", stack.labels[0])
        object.__setattr__(self, "indicator", stack.indicator[0])
        object.__setattr__(self, "_stack", stack)

    __reduce__ = _rebuilt

    @property
    def branch_count(self) -> int:
        return len(self.eigenvalues)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @cached_property
    def projectors(self) -> tuple[Operator, ...]:
        """Dense projectors V_i V_i^dag in branch order, built on first use."""
        cols = (self.basis[:, self.labels == i] for i in range(self.branch_count))
        return tuple(Operator(self.dims, v @ v.conj().T) for v in cols)

    def weights(self, x: np.ndarray) -> np.ndarray:
        """Branch weights ||P_i x||^2 as block sums of |V^dag x|^2.

        A vector x of shape (D,) gives shape (k,); the columns of a (D, n)
        array give one row each, shape (n, k).
        """
        return self._stack.weights(x[None])[0]

    def split(self, x: np.ndarray, branches: np.ndarray | None = None) -> np.ndarray:
        """The parts P_i x, from one product V (c * 1_i) with c = V^dag x.

        A vector x of shape (D,) gives the parts as columns, shape (D, k); a
        (D, n) array gives shape (D, n, k).  branches, an index array, picks
        the parts to build and their order (all k by default).
        """
        return self._stack.split(x[None], slice(None) if branches is None else branches)[0]

    def eigenvalue(self, branch: int) -> float:
        return self.eigenvalues[self._check_branch(branch)]

    def projector(self, branch: int) -> Operator:
        return self.projectors[self._check_branch(branch)]

    def branch_basis(self, branch: int) -> np.ndarray:
        """The orthonormal columns V_i of one branch, a D x rank array."""
        return self.basis[:, self.labels == self._check_branch(branch)]

    def branch_rank(self, branch: int) -> int:
        """Multiplicity of a branch: the number of basis columns it owns."""
        return int(np.count_nonzero(self.labels == self._check_branch(branch)))

    def branches(self):
        return tuple(zip(self.eigenvalues, self.projectors))

    def matrix(self) -> Operator:
        """Reconstruct the Hermitian matrix sum_i a_i P_i = V diag(a) V^dag."""
        scaled = self.basis * np.asarray(self.eigenvalues)[self.labels]
        return Operator(self.dims, scaled @ self.basis.conj().T)

    def _check_branch(self, branch: int) -> int:
        # branch as an int in range(branch_count), or InvalidInputError.
        branch = _converted(operator.index, branch, "branch must be an int")
        if not 0 <= branch < self.branch_count:
            raise InvalidInputError(
                f"branch {branch} out of range for {self.branch_count} branches"
            )
        return branch


class _Stack(NamedTuple):
    """Observables of one dimension D as arrays with a leading stack axis.

    The S bases V (S, D, D) and their adjoints V^dag (a transposed view of
    the conjugate, made once), column labels (S, D) and branch counts (S,),
    and indicators (S, D, K) whose branch axis is padded with zero columns to
    a common width K; read-only, as _checked_stack builds them.  A padded
    branch is a branch of weight 0 in every state.  weights and split are
    Observable's, stacked: x is (S, D), one vector per observable, or
    (S, D, n), and products and reductions run per slice, so each
    observable's numbers do not depend on the others.  A _Stack carries no
    dims: the public functions check an Observable's dims against the
    state's, and verify builds each stack on its states' shape.
    """

    basis: np.ndarray
    adjoint: np.ndarray
    labels: np.ndarray
    branch_count: np.ndarray
    indicator: np.ndarray

    def _columns(self, x: np.ndarray) -> np.ndarray:
        return self.adjoint @ (x[..., None] if x.ndim == 2 else x)

    def weights(self, x: np.ndarray) -> np.ndarray:
        w = (np.abs(self._columns(x)) ** 2).swapaxes(1, 2) @ self.indicator
        return w[:, 0] if x.ndim == 2 else w

    def split(self, x: np.ndarray, branches=slice(None)) -> np.ndarray:
        cut = self._columns(x)[..., None] * self.indicator[:, :, None, branches]
        parts = (self.basis @ cut.reshape(cut.shape[:2] + (-1,))).reshape(cut.shape)
        return parts[:, :, 0] if x.ndim == 2 else parts


def _checked_stack(dims, observables, branches: int | None = None) -> _Stack:
    """The read-only _Stack of S observables of dims, given as (eigenvalues,
    basis, labels) triples, after the checks of an Observable.

    In Observable's order: at least one branch, finite and strictly
    increasing eigenvalues, a finite D x D basis, integer labels covering
    branches 0..k-1, and a basis unitary within PROJ_TOL.  Each check runs
    once on the whole stack and raises for the first observable that fails
    it.  The branch axis is padded to `branches` columns (by default the
    largest branch count).
    """
    # The eigenvalues and labels are S short rows, checked row by row in
    # Python, which costs less than a numpy call at these sizes; the bases
    # as one stacked array, by one finiteness test and one Gram product.
    eigenvalues, basis, labels = zip(*observables)
    basis, labels = np.array(basis), np.array(labels)
    d, counts = prod(dims), [len(values) for values in eigenvalues]
    if not all(counts):
        raise InvalidProjectorFamilyError("observable has no branches")
    if not all(isfinite(x) for values in eigenvalues for x in values):
        raise InvalidProjectorFamilyError("non-finite eigenvalue")
    for values in eigenvalues:
        if not all(map(lt, values, values[1:])):
            raise InvalidProjectorFamilyError(f"eigenvalues not strictly increasing: {values}")
    if basis.shape != (len(counts), d, d) or not np.isfinite(basis).all():
        raise InvalidProjectorFamilyError(f"basis must be a finite {d} x {d} matrix")
    rows = labels.tolist() if labels.shape == (len(counts), d) and labels.dtype.kind in "iu" else None
    for s, k in enumerate(counts):
        if rows is None or set(rows[s]) != set(range(k)):
            raise InvalidProjectorFamilyError(
                f"{d} basis column labels must cover branches 0..{k - 1}"
            )
    gram = basis.conj().swapaxes(-1, -2) @ basis
    gram -= np.eye(d)
    if np.abs(gram).max() > PROJ_TOL:
        raise InvalidProjectorFamilyError("basis is not unitary")
    labels = labels.astype(np.intp, copy=False)
    k = max(counts) if branches is None else branches
    indicator = (labels[..., None] == np.arange(k)).astype(float)
    return _Stack(*map(_frozen, (basis, basis.conj().swapaxes(1, 2), labels,
                                 np.array(counts), indicator)))


def _check_family(stack: np.ndarray) -> None:
    # Within PROJ_TOL: each projector Hermitian and idempotent, each pair i < j
    # orthogonal, the sum the identity; the first failure in that order is
    # reported.  One product per branch, P_i @ [P_i, ..., P_{k-1}], gives P_i P_j.
    # Near the float limit a deviation overflows to inf, or to nan (inf - inf)
    # inside a sum; each test is written so that nan fails it, as inf does.
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        devs = []
        for i in range(len(stack)):
            prods = stack[i] @ stack[i:]
            prods[0] -= stack[i]
            devs.append(np.abs(prods).max(axis=(1, 2)))
        total = np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max()
    for i, dev in enumerate(devs):
        if not (herm[i] <= PROJ_TOL and dev[0] <= PROJ_TOL):
            bad = "Hermitian" if herm[i] > PROJ_TOL else "idempotent"
            raise InvalidProjectorFamilyError(f"projector is not {bad}")
    for i, dev in enumerate(devs):
        if not dev.max() <= PROJ_TOL:
            j = i + int(np.argmax(~(dev <= PROJ_TOL)))
            raise InvalidProjectorFamilyError(f"projectors {i} and {j} are not orthogonal")
    if not total <= PROJ_TOL:
        raise InvalidProjectorFamilyError("projectors do not sum to identity")


def observable_from_branches(branches, dims=None) -> Observable:
    """Build an Observable from (eigenvalue, projector) pairs.

    Projectors may be Operator instances or raw matrices (dims required then).
    Branches are sorted into canonical increasing-eigenvalue order and the
    family (every branch of rank >= 1) is validated once, here.  V is the
    eigenbasis of sum_i i * P_i, labelled by its rounded eigenvalues.
    """
    pairs = list(branches)
    if not pairs:
        raise InvalidProjectorFamilyError("no branches given")
    if dims is None and not all(isinstance(p, Operator) for _, p in pairs):
        raise InvalidInputError("dims required for raw projector matrices")
    ops = [(float(a), p if isinstance(p, Operator) else Operator(dims, p))
           for a, p in pairs]
    ops.sort(key=lambda pair: pair[0])
    obs_dims = _check_dims(dims if dims is not None else ops[0][1].dims)
    if any(p.dims != obs_dims for _, p in ops):
        raise InvalidProjectorFamilyError(f"projector dims mismatch: expected {obs_dims}")
    stack = np.stack([p.entries for _, p in ops])
    _check_family(stack)
    evals, basis = np.linalg.eigh(np.tensordot(np.arange(len(ops)), stack, axes=1))
    return Observable(
        obs_dims, tuple(a for a, _ in ops), basis, np.rint(evals).astype(np.intp)
    )


def observable_from_matrix(
    h, degeneracy_tol: float = DEGENERACY_TOL, dims=None
) -> Observable:
    """Eigendecompose a Hermitian matrix into branches.

    Eigenvalues closer than degeneracy_tol (single-linkage on the sorted
    spectrum) are merged into one branch whose eigenvalue is the cluster mean
    and whose columns are the cluster's eigenvectors.
    """
    if isinstance(h, Operator):
        op = h
    else:
        m = np.asarray(h, dtype=complex)
        op = Operator(dims if dims is not None else (m.shape[0],), m)
    # Near the float limit an asymmetry or a gap overflows to inf, and a
    # cluster whose sum overflows is summed in parts of 1/size instead.
    with np.errstate(over="ignore"):
        if not op.is_hermitian():
            dev = float(np.abs(op.entries - op.entries.conj().T).max())
            raise NotHermitianError(f"matrix deviates from Hermitian by {dev!r}")
        evals, evecs = np.linalg.eigh(op.entries)
        labels = np.concatenate([[0], np.cumsum(np.diff(evals) >= degeneracy_tol)])
        clusters = [evals[labels == i] for i in range(labels[-1] + 1)]
        means = [float(np.mean(c)) for c in clusters]
    means = [m if isfinite(m) else float(np.sum(c / c.size)) for m, c in zip(means, clusters)]
    return Observable(op.dims, tuple(means), evecs, labels)


def embed_observable(obs: Observable, dims, subsystem: int) -> Observable:
    """Lift an observable on one subsystem to the composite system.

    The basis becomes 1 (x) ... (x) V (x) ... (x) 1 at the given subsystem
    slot, and each of its columns keeps the label of its V column;
    eigenvalues and branch order are unchanged.
    """
    dims = _check_dims(dims)
    subsystem = _converted(operator.index, subsystem, "subsystem must be an int")
    if not 0 <= subsystem < len(dims):
        raise InvalidInputError(f"subsystem {subsystem} out of range for {dims}")
    if obs.dims != (dims[subsystem],):
        raise InvalidInputError(
            f"observable dims {obs.dims} do not match subsystem dim "
            f"{dims[subsystem]}"
        )
    before = int(prod(dims[:subsystem]))
    after = int(prod(dims[subsystem + 1 :]))
    basis = np.kron(np.kron(np.eye(before), obs.basis), np.eye(after))
    labels = np.tile(np.repeat(obs.labels, after), before)
    return Observable(dims, obs.eigenvalues, basis, labels)
