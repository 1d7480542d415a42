"""Seeded random generators for states, unitaries, observables, densities.

Everything takes an explicit numpy Generator; nothing here owns randomness.
Used by the CLI verify batteries and by the test suite.

A Haar unitary is drawn in two steps: _ginibre makes every rng call, and
_haar turns any number of Ginibre matrices into unitaries, with one stacked
QR per matrix size.  random_unitary and random_observable run both steps on
one matrix; verify draws many trials first and runs _haar on them together.
verify draws its trials as arrays: _draw_state, _draw_density and
_draw_observable make every rng call of random_state, random_density and
random_observable and return what those would check and wrap, unchecked;
an observable's basis is still its Ginibre matrix.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from math import prod

import numpy as np

from .core import DensityMatrix, StateVector
from .observables import Observable

# Most amplitudes one stacked QR in _haar takes (one matrix, if larger);
# verify also draws trials ahead only until their Ginibre matrices reach it.
HAAR_STACK_AMPS = 2**16


def random_state(rng: np.random.Generator, dims) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian vector."""
    return StateVector(tuple(dims), _draw_state(rng, dims))


def _draw_state(rng: np.random.Generator, dims) -> np.ndarray:
    """The amplitudes random_state draws, flat and unchecked."""
    d = prod(dims)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """dim x dim complex matrix with independent standard normal parts."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _haar(ginibres: list[np.ndarray]) -> list[np.ndarray]:
    """Haar unitaries from square Ginibre matrices by phase-fixed QR, in order.

    The matrices of one size share stacked np.linalg.qr calls of at most
    HAAR_STACK_AMPS amplitudes each.  Stacked QR runs the same LAPACK call
    per matrix, so each unitary is bit-identical to a QR of its matrix alone.
    Each unitary is a slice of its stack, which lives as long as any of them.
    """
    by_size = defaultdict(list)
    for i, z in enumerate(ginibres):
        by_size[len(z)].append(i)
    out = [None] * len(ginibres)
    for d, idx in by_size.items():
        step = max(1, HAAR_STACK_AMPS // (d * d))
        for lo in range(0, len(idx), step):
            chunk = idx[lo:lo + step]
            q, r = np.linalg.qr(np.stack([ginibres[i] for i in chunk]))
            phases = np.diagonal(r, axis1=1, axis2=2).copy()
            phases /= np.abs(phases)
            q *= phases[:, None, :]
            for i, u in zip(chunk, q):
                out[i] = u
    return out


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return _haar([_ginibre(rng, dim)])[0]


def random_density(rng: np.random.Generator, dims) -> DensityMatrix:
    """Full-rank random mixed state rho = A A^dag / Tr(A A^dag)."""
    return DensityMatrix(tuple(dims), _draw_density(rng, dims))


def _draw_density(rng: np.random.Generator, dims) -> np.ndarray:
    """The entries random_density draws, unchecked."""
    a = _ginibre(rng, prod(dims))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _draw_observable(
    rng: np.random.Generator, dims, degenerate: bool = False
) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """Every draw of random_observable: the eigenvalues, basis and labels of
    its Observable, with the basis's Ginibre matrix in the basis's place."""
    d = prod(dims)
    if degenerate:
        if d < 2:
            raise ValueError("degenerate branch needs dim >= 2")
        k = int(rng.integers(1, d)) if d > 2 else 1
    else:
        k = int(rng.integers(1, d + 1))
    # choice(d - 1) + 1 consumes the generator as choice(np.arange(1, d))
    # does, and accumulate adds in order as np.cumsum does: same draws, same
    # bits, from Python scalars.
    cuts = sorted((rng.choice(d - 1, size=k - 1, replace=False) + 1).tolist()) if k > 1 else []
    ranks = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, d])]
    # Gaps >= 0.1 keep clustering in observable_from_matrix unambiguous.
    eigenvalues = tuple(x - 1.0 for x in accumulate(rng.uniform(0.1, 2.0, size=k).tolist()))
    return eigenvalues, _ginibre(rng, d), np.repeat(np.arange(k), ranks)


def random_observable(
    rng: np.random.Generator,
    dims,
    degenerate: bool = False,
) -> Observable:
    """Random observable with a Haar eigenbasis and well-separated eigenvalues.

    With degenerate=True the branch count is at most dim-1, so at least one
    branch has multiplicity >= 2 (requires dim >= 2).
    """
    eigenvalues, z, labels = _draw_observable(rng, dims, degenerate)
    return Observable(tuple(dims), eigenvalues, _haar([z])[0], labels)
