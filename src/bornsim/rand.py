"""Seeded random generators for states, unitaries, observables, densities.

Everything takes an explicit numpy Generator; nothing here owns randomness.
Used by the CLI verify batteries and by the test suite.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .core import DensityMatrix, StateVector
from .observables import Observable


def random_state(rng: np.random.Generator, dims) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian vector."""
    d = prod(dims)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return StateVector(tuple(dims), v / np.linalg.norm(v))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(rng: np.random.Generator, dims) -> DensityMatrix:
    """Full-rank random mixed state rho = A A^dag / Tr(A A^dag)."""
    d = prod(dims)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return DensityMatrix(tuple(dims), rho / np.trace(rho))


def random_observable(
    rng: np.random.Generator,
    dims,
    degenerate: bool = False,
) -> Observable:
    """Random observable with a Haar eigenbasis and well-separated eigenvalues.

    With degenerate=True the branch count is at most dim-1, so at least one
    branch has multiplicity >= 2 (requires dim >= 2).
    """
    d = prod(dims)
    if degenerate:
        if d < 2:
            raise ValueError("degenerate branch needs dim >= 2")
        k = int(rng.integers(1, d)) if d > 2 else 1
    else:
        k = int(rng.integers(1, d + 1))
    if k == 1:
        ranks = [d]
    else:
        cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
        ranks = np.diff(np.concatenate([[0], cuts, [d]])).tolist()
    # Gaps >= 0.1 keep clustering in observable_from_matrix unambiguous.
    eigenvalues = np.cumsum(rng.uniform(0.1, 2.0, size=k)) - 1.0
    basis = random_unitary(rng, d)
    labels = np.repeat(np.arange(k), ranks)
    return Observable(tuple(dims), tuple(map(float, eigenvalues)), basis, labels)
