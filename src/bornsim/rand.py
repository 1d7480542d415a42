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
an observable's basis is still its Ginibre matrix.  Each complex Gaussian
array, a state's amplitudes or a Ginibre matrix, is one rng.normal call whose
first half is the real parts and second half the imaginary parts: the
doubles, and the generator state after them, of the two calls
rng.normal(size=shape) + 1j * rng.normal(size=shape).

_trial_rngs gives verify trial t of a stream its generator
default_rng([seed, stream, t]).  It runs numpy's SeedSequence mixing for a
block of trials at once, as uint32 arrays, and seeds each trial's PCG64 with
its row, so every generator's state is the one default_rng builds.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import accumulate, groupby, islice
from math import prod
from typing import Iterable, Iterator

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
    v = _complex_normal(rng, (prod(dims),))
    return v / np.linalg.norm(v)


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    # rng.normal(size=shape) + 1j * rng.normal(size=shape) from one call.
    # normal returns 0.0 + 1.0 * z, never -0.0, so the sum's signed zeros
    # are the parts' own.
    parts = rng.normal(size=(2,) + shape)
    z = np.empty(shape, dtype=complex)
    z.real = parts[0]
    z.imag = parts[1]
    return z


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """dim x dim complex matrix with independent standard normal parts."""
    return _complex_normal(rng, (dim, dim))


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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), kept as
# Python ints below 2**32 so that no numpy scalar overflows.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Trials whose seed states _trial_rngs computes in one pass.
_SEED_BLOCK = 256


def _words(n: int) -> list[int]:
    # A non-negative entropy entry as SeedSequence coerces it: its 32-bit
    # words, lowest first, at least one.
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    # SeedSequence(column).generate_state(4, np.uint64), one row per column
    # of a uint32 array (words, n), computed a step at a time for all columns:
    # the pool filled and mixed, any words past the pool mixed in, and the
    # state drawn off the pool.  uint32 arrays wrap as numpy's uint32_t does.
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L
        result -= y * _MIX_MULT_R
        result ^= result >> 16
        return result

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((entropy.shape[1], 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> 16
        state[:, i] = value
    # Word pairs as little-endian uint64, as generate_state reads them.
    return state.astype("<u4").view("<u8").astype(np.uint64)


@cache
def _seed_state_type() -> type:
    # A seed sequence whose state is computed ahead: PCG64 asks it for
    # generate_state(4, np.uint64) once, when it is built.  The class is
    # made on first use, because importing numpy.random with this module
    # would load it, about 6 MB, into every process that seeds no trial.
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


def _trial_rngs(seed: int, stream: int, trials: Iterable[int]) -> Iterator[np.random.Generator]:
    """A Generator per trial t, in order, in the state of
    np.random.default_rng([seed, stream, t]).

    The seed states are computed _SEED_BLOCK trials at a time, lazily, so
    memory stays bounded for any number of trials.  Within a block, the
    trials whose entropy [seed, stream, t] has as many 32-bit words share
    one entropy array.
    """
    head, seed_state = _words(seed) + _words(stream), _seed_state_type()
    trials = iter(trials)
    while block := list(islice(trials, _SEED_BLOCK)):
        for _, group in groupby((head + _words(t) for t in block), len):
            for state in _seed_states(np.array(list(group), dtype=np.uint32).T):
                yield np.random.Generator(np.random.PCG64(seed_state(state)))
