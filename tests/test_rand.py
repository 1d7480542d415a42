"""The draw layer: stacked Haar draws equal one QR per matrix, bit for bit."""

import numpy as np
import pytest

from bornsim.rand import _ginibre, _haar, random_observable, random_unitary


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
