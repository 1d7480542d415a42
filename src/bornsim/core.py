"""Dense linear algebra for composite finite-dimensional quantum systems.

Composite indexing is row-major with subsystem 0 slowest-varying: the flat
index of the product basis state (k_0, ..., k_{r-1}) over dims (d_0, ..., d_{r-1})
is k_0*d_1*...*d_{r-1} + k_1*d_2*...*d_{r-1} + ... + k_{r-1}.  This is exactly
the order produced by successive numpy.kron calls, factor 0 first.

All value types are immutable after construction and validate their invariants
up front, so downstream code can assume well-formed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidDensityError, InvalidInputError

NORM_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = 1e-10


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_dims(dims) -> tuple[int, ...]:
    try:
        out = tuple(map(int, dims))
    except TypeError:
        raise InvalidInputError(f"dims must be an iterable of ints, got {dims!r}")
    if not out or any(d < 1 for d in out):
        raise InvalidInputError(f"dims must be non-empty positive ints, got {out}")
    return out


def _check_finite(arr: np.ndarray, what: str) -> None:
    # isfinite of a complex entry is False if either part is non-finite.
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of a composite system.

    dims lists the subsystem dimensions; amps is the flat amplitude vector of
    length prod(dims).  Norm must be 1 within NORM_TOL.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        self._adopt(np.array(self.amps, dtype=complex))

    @classmethod
    def _owning(cls, dims, amps: np.ndarray) -> "StateVector":
        # The same checks without the copy, for a fresh complex array that no
        # caller keeps: the state takes it over and freezes it.
        state = cls.__new__(cls)
        object.__setattr__(state, "dims", dims)
        state._adopt(np.asarray(amps, dtype=complex))
        return state

    def _adopt(self, amps: np.ndarray) -> None:
        dims = _check_dims(self.dims)
        amps = amps.reshape(-1)
        if amps.size != prod(dims):
            raise InvalidInputError(
                f"amplitude count {amps.size} does not match dims {dims}"
            )
        _check_finite(amps, "state vector")
        norm = float(np.vdot(amps, amps).real) ** 0.5
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidInputError(f"state vector norm {norm!r} is not 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amps.size


@dataclass(frozen=True)
class Operator:
    """Linear operator on a composite system, stored as a dense square matrix."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        entries = np.array(self.entries, dtype=complex)
        d = prod(dims)
        if entries.shape != (d, d):
            raise InvalidInputError(
                f"operator shape {entries.shape} does not match dims {dims}"
            )
        _check_finite(entries, "operator")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", _frozen(entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return bool(np.abs(self.entries - self.entries.conj().T).max() <= tol)

    def is_unitary(self, tol: float = HERM_TOL) -> bool:
        gram = self.entries.conj().T @ self.entries
        return bool(np.abs(gram - np.eye(self.dim)).max() <= tol)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace, positive semidefinite within PSD_TOL."""

    dims: tuple[int, ...]
    entries: np.ndarray
    # Ascending eigenvalues from the positivity check, reused for the entropy.
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = _check_dims(self.dims)
        entries = np.array(self.entries, dtype=complex)
        d = prod(dims)
        if entries.shape != (d, d):
            raise InvalidDensityError(
                f"density shape {entries.shape} does not match dims {dims}"
            )
        _check_finite(entries, "density matrix")
        if np.abs(entries - entries.conj().T).max() > HERM_TOL:
            raise InvalidDensityError("density matrix is not Hermitian")
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > NORM_TOL:
            raise InvalidDensityError(f"density trace {tr!r} is not 1")
        spectrum = np.linalg.eigvalsh(entries)
        lo = float(spectrum[0])
        if lo < -PSD_TOL:
            raise InvalidDensityError(f"density has negative eigenvalue {lo!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", _frozen(entries))
        object.__setattr__(self, "spectrum", _frozen(spectrum))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _checked_probabilities(probs: np.ndarray, kind: str = "") -> np.ndarray:
    # Finite, no entry below -1e-12, total 1 within 1e-10.  Returns the
    # entries with the tiny negative round-off clipped to zero, read-only.
    if not np.isfinite(probs).all():
        raise InvalidInputError(f"{kind}probabilities contain non-finite entries")
    if probs.min(initial=0.0) < -1e-12:
        raise InvalidInputError(f"negative {kind}probability {float(probs.min())!r}")
    probs = np.maximum(probs, 0.0)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-10:
        raise InvalidInputError(f"{kind}probabilities sum to {total!r}, not 1")
    return _frozen(probs)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability distribution over a finite set of outcome labels.

    Labels are hashable outcome identifiers (branch indices in most of this
    package).  Probabilities are non-negative and sum to 1 within 1e-10; tiny
    negative round-off (> -1e-12) is clamped to zero.
    """

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"duplicate outcome labels: {labels}")
        probs = np.array(self.probs, dtype=float).reshape(-1)
        if probs.size != len(labels):
            raise InvalidInputError(
                f"{probs.size} probabilities for {len(labels)} labels"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", _checked_probabilities(probs))

    def prob_of(self, label) -> float:
        try:
            return float(self.probs[self.labels.index(label)])
        except ValueError:
            raise InvalidInputError(f"unknown outcome label {label!r}")

    def as_dict(self) -> dict:
        return {l: float(p) for l, p in zip(self.labels, self.probs)}


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis state |index> of a single dim-dimensional subsystem."""
    if not 0 <= index < dim:
        raise InvalidInputError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector((dim,), amps)


def tensor(factors: Sequence[StateVector]) -> StateVector:
    """Tensor product of states, factor 0 slowest-varying."""
    if not factors:
        raise InvalidInputError("tensor of zero factors")
    amps = factors[0].amps
    dims: tuple[int, ...] = factors[0].dims
    for f in factors[1:]:
        amps = np.kron(amps, f.amps)
        dims = dims + f.dims
    return StateVector(dims, amps)


def inner(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument."""
    if a.dims != b.dims:
        raise InvalidInputError(f"dims mismatch {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amps, b.amps))


def apply(op: Operator, s: StateVector) -> np.ndarray:
    """Apply op to s and return the raw, generally unnormalized amplitude vector.

    The caller decides whether and how to renormalize; only explicitly
    normalized vectors become StateVector instances.
    """
    if op.dims != s.dims:
        raise InvalidInputError(f"dims mismatch {op.dims} vs {s.dims}")
    return op.entries @ s.amps


def density_from_pure(s: StateVector) -> DensityMatrix:
    """Rank-1 density matrix |s><s|."""
    return DensityMatrix(s.dims, np.outer(s.amps, s.amps.conj()))


def partial_trace(rho: DensityMatrix, keep: int | Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over the kept subsystems (0-based indices).

    Kept subsystems stay in ascending index order.
    """
    keep_set = {keep} if isinstance(keep, int) else set(int(k) for k in keep)
    r = len(rho.dims)
    if not keep_set or not keep_set.issubset(range(r)):
        raise InvalidInputError(f"keep {sorted(keep_set)} invalid for {r} subsystems")
    kept = sorted(keep_set)
    traced = [k for k in range(r) if k not in keep_set]
    tens = rho.entries.reshape(rho.dims + rho.dims)
    # Trace highest-index subsystems first so remaining axis numbers stay valid.
    for k in sorted(traced, reverse=True):
        tens = np.trace(tens, axis1=k, axis2=k + (tens.ndim // 2))
    d_kept = prod(rho.dims[k] for k in kept)
    return DensityMatrix(tuple(rho.dims[k] for k in kept), tens.reshape(d_kept, d_kept))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -sum(lam * log2(lam)) in bits.

    Eigenvalues in [-PSD_TOL, 0) are treated as exact zeros; anything below
    -PSD_TOL is a positivity violation.
    """
    evals = rho.spectrum
    if float(evals[0]) < -PSD_TOL:
        raise InvalidDensityError(f"negative eigenvalue {float(evals[0])!r}")
    evals = np.maximum(evals, 0.0)
    pos = evals[evals > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def tv_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Total variation distance (1/2) * sum |p_l - q_l| over matched labels."""
    if set(p.labels) != set(q.labels):
        raise InvalidInputError(
            f"outcome label sets differ: {sorted(map(repr, p.labels))} "
            f"vs {sorted(map(repr, q.labels))}"
        )
    qd = q.as_dict()
    aligned = np.array([qd[l] for l in p.labels])
    return float(0.5 * np.abs(p.probs - aligned).sum())
