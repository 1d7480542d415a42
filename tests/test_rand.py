"""The draw layer: stacked Haar draws equal one QR per matrix, bit for bit;
one-call complex draws and block-seeded trial generators equal numpy's own."""

import numpy as np
import pytest

from bornsim.rand import (
    HAAR_STACK_AMPS,
    _draw_density,
    _draw_state,
    _ginibre,
    _haar,
    _stacks,
    random_observable,
    random_unitary,
)
from bornsim.verify import _trial_rngs


def _per_matrix_haar(z):
    # Reference: one QR per matrix with its own phase fix.
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _reference_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return _per_matrix_haar(z)


def _reference_observable(rng, d, degenerate):
    # (eigenvalues, basis, labels) of random_observable, drawn one call at a time.
    if degenerate:
        k = int(rng.integers(1, d)) if d > 2 else 1
    else:
        k = int(rng.integers(1, d + 1))
    if k == 1:
        ranks = [d]
    else:
        cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
        ranks = np.diff(np.concatenate([[0], cuts, [d]])).tolist()
    eigenvalues = np.cumsum(rng.uniform(0.1, 2.0, size=k)) - 1.0
    basis = _reference_unitary(rng, d)
    return tuple(map(float, eigenvalues)), basis, np.repeat(np.arange(k), ranks)


def test_stacked_haar_equals_one_qr_per_matrix():
    rng = np.random.default_rng(3)
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 24] * 3
    rng.shuffle(sizes)
    ginibres = [_ginibre(rng, d) for d in sizes]
    unitaries = _haar(ginibres)
    assert [u.shape for u in unitaries] == [(d, d) for d in sizes]
    for z, u in zip(ginibres, unitaries):
        assert np.array_equal(u, _per_matrix_haar(z))


@pytest.mark.parametrize("d", [2, 7, 64, 256, 300])
def test_stacks_of_one_size_hold_the_amplitude_budget(d):
    # Interleaved with a key of another size, the d x d matrices fall into
    # runs of max(1, HAAR_STACK_AMPS // d**2), in order; a larger one is alone.
    step, n = max(1, HAAR_STACK_AMPS // d**2), 3 * max(1, HAAR_STACK_AMPS // d**2) + 1
    stacks = _stacks([(d, d * d), ("other", 1)] * n)
    mine = [stack for stack in stacks if stack[0] % 2 == 0]
    assert mine == [list(range(2 * lo, 2 * min(lo + step, n), 2)) for lo in range(0, n, step)]
    assert [stack for stack in stacks if stack[0] % 2] == [list(range(1, 2 * n, 2))]


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_random_unitary_keeps_its_stream_and_bits(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for d in (1, 2, 3, 5, 8, 24):
        assert np.array_equal(random_unitary(rng, d), _reference_unitary(ref, d))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_random_observable_keeps_its_stream_and_bits(seed, degenerate):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for d in (*range(2, 9), 24):
        obs = random_observable(rng, (d,), degenerate=degenerate)
        eigenvalues, basis, labels = _reference_observable(ref, d, degenerate)
        assert obs.eigenvalues == eigenvalues
        assert np.array_equal(obs.basis, basis)
        assert np.array_equal(obs.labels, labels)
    assert rng.random() == ref.random()


def _two_call_normal(rng, shape):
    # Reference: the real and imaginary parts from two normal calls.
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_one_call_complex_draws_keep_their_bits_and_stream(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for d in range(1, 17):
        for mine, oracle in (
            (_ginibre(rng, d), _two_call_normal(ref, (d, d))),
            (_draw_state(rng, (d,)), (lambda v: v / np.linalg.norm(v))(_two_call_normal(ref, d))),
            (_draw_density(rng, (d,)),
             (lambda a: (a @ a.conj().T) / np.trace(a @ a.conj().T))(_two_call_normal(ref, (d, d)))),
        ):
            assert mine.dtype == oracle.dtype and mine.shape == oracle.shape
            assert mine.tobytes() == oracle.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def _assert_default_rng_states(seed, stream, trials):
    rngs = list(_trial_rngs(seed, stream, trials))
    assert len(rngs) == len(trials)
    for t, rng in zip(trials, rngs):
        assert rng.bit_generator.state == np.random.default_rng([seed, stream, t]).bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 7, 1234, 2**32 - 1, 2**32, 2**70 + 3])
def test_trial_generators_are_default_rng_of_seed_stream_and_trial(seed):
    # One- and multi-word seeds; blocks of trials of one and of several shares.
    for stream in range(1, 6):
        _assert_default_rng_states(seed, stream, range(1000))
    _assert_default_rng_states(seed, 2, range(1, 1000, 3))


@pytest.mark.parametrize("seed", [1, 2**32])
def test_trial_generators_straddle_two_word_trial_indices(seed):
    # Trials on both sides of 2**32 within one block, and beyond 2**64.
    _assert_default_rng_states(seed, 4, range(2**32 - 300, 2**32 + 300))
    _assert_default_rng_states(seed, 5, range(2**64 - 5, 2**64 + 5))


def test_trial_generators_are_made_lazily():
    # A block at a time: the first of 10**12 trials comes back at once.
    first = next(_trial_rngs(1234, 1, range(10**12)))
    assert first.random() == np.random.default_rng([1234, 1, 0]).random()
