from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import (
    InvalidInputError,
    InvalidProjectorFamilyError,
    NotHermitianError,
    Observable,
    Operator,
    embed_observable,
    observable_from_branches,
    observable_from_matrix,
)
from bornsim.observables import PROJ_TOL, _checked_stack
from bornsim.rand import random_density, random_observable, random_unitary

SIGMA_Z = np.diag([1.0, -1.0])


def _arrays(observables):
    # Each observable as the (eigenvalues, basis, labels) triple a stack is built from.
    return [(obs.eigenvalues, obs.basis, obs.labels) for obs in observables]


def test_sigma_z_branches():
    obs = observable_from_matrix(SIGMA_Z)
    assert obs.branch_count == 2
    assert obs.eigenvalues == (-1.0, 1.0)
    np.testing.assert_allclose(obs.projector(0).entries, np.diag([0, 1]), atol=1e-12)
    np.testing.assert_allclose(obs.projector(1).entries, np.diag([1, 0]), atol=1e-12)
    assert obs.branch_rank(0) == 1
    assert obs.eigenvalue(1) == 1.0


def test_scaled_identity_single_branch():
    obs = observable_from_matrix(2.5 * np.eye(3))
    assert obs.branch_count == 1
    assert obs.eigenvalue(0) == pytest.approx(2.5)
    assert obs.branch_rank(0) == 3
    np.testing.assert_allclose(obs.projector(0).entries, np.eye(3), atol=1e-12)


def test_degeneracy_clustering():
    obs = observable_from_matrix(np.diag([2.0, 2.0 + 1e-13, 5.0]))
    assert obs.branch_count == 2
    assert obs.branch_rank(0) == 2
    assert obs.branch_rank(1) == 1
    assert obs.eigenvalue(0) == pytest.approx(2.0, abs=1e-12)


def test_operator_input_matches_raw_entries():
    # A 4 x 4 matrix with a twice-degenerate eigenvalue, on dims (2, 2).
    h = np.kron(SIGMA_Z, np.eye(2)) + np.diag([0.0, 0.5, 0.0, 0.0])
    from_op = observable_from_matrix(Operator((2, 2), h))
    from_raw = observable_from_matrix(h, dims=(2, 2))
    assert from_op.dims == from_raw.dims == (2, 2)
    assert from_op.eigenvalues == from_raw.eigenvalues
    assert np.array_equal(from_op.basis, from_raw.basis)
    assert np.array_equal(from_op.labels, from_raw.labels)


def test_degeneracy_tol_boundary():
    # Gap above the tolerance stays split, below it merges.
    assert observable_from_matrix(np.diag([0.0, 1e-6])).branch_count == 2
    assert observable_from_matrix(np.diag([0.0, 1e-10])).branch_count == 1
    assert observable_from_matrix(np.diag([0.0, 1e-10]), degeneracy_tol=1e-12).branch_count == 2


def test_reconstruction_and_completeness():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = herm + herm.conj().T
        obs = observable_from_matrix(herm)
        np.testing.assert_allclose(obs.matrix().entries, herm, atol=1e-9)
        assert sum(obs.branch_rank(i) for i in range(obs.branch_count)) == d
        total = sum(p.entries for p in obs.projectors)
        np.testing.assert_allclose(total, np.eye(d), atol=1e-10)


def test_branches_roundtrip(rng):
    obs = random_observable(rng, (5,), degenerate=True)
    again = observable_from_branches(obs.branches(), obs.dims)
    assert again.eigenvalues == obs.eigenvalues
    for i in range(obs.branch_count):
        np.testing.assert_allclose(
            again.projector(i).entries, obs.projector(i).entries, atol=1e-14
        )


def test_branches_sorted_canonically():
    p0 = Operator((2,), np.diag([1.0, 0.0]))
    p1 = Operator((2,), np.diag([0.0, 1.0]))
    obs = observable_from_branches([(3.0, p0), (-1.0, p1)])
    assert obs.eigenvalues == (-1.0, 3.0)
    np.testing.assert_allclose(obs.projector(0).entries, p1.entries)


class TestFamilyRejection:
    def test_incomplete(self):
        p0 = Operator((2,), np.diag([1.0, 0.0]))
        with pytest.raises(InvalidProjectorFamilyError):
            observable_from_branches([(1.0, p0)])

    def test_not_orthogonal(self):
        p0 = Operator((2,), np.diag([1.0, 0.0]))
        full = Operator((2,), np.eye(2))
        with pytest.raises(InvalidProjectorFamilyError):
            observable_from_branches([(1.0, p0), (2.0, full)])

    def test_not_idempotent(self):
        half = Operator((2,), 0.5 * np.eye(2))
        with pytest.raises(InvalidProjectorFamilyError):
            observable_from_branches([(1.0, half), (2.0, half)])

    def test_duplicate_eigenvalues(self):
        p0 = Operator((2,), np.diag([1.0, 0.0]))
        p1 = Operator((2,), np.diag([0.0, 1.0]))
        with pytest.raises(InvalidProjectorFamilyError):
            observable_from_branches([(1.0, p0), (1.0, p1)])

    def test_empty(self):
        with pytest.raises(InvalidProjectorFamilyError):
            observable_from_branches([])


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        observable_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_branch_accessor_range():
    obs = observable_from_matrix(SIGMA_Z)
    with pytest.raises(InvalidInputError):
        obs.projector(2)
    with pytest.raises(InvalidInputError):
        obs.eigenvalue(-1)


def test_indicator_is_cached_and_read_only():
    obs = observable_from_matrix(np.diag([0.0, 1.0, 1.0]))
    assert obs.indicator is obs.indicator
    np.testing.assert_array_equal(obs.indicator, [[1, 0], [0, 1], [0, 1]])
    with pytest.raises(ValueError):
        obs.indicator[0, 0] = 0.0


def test_random_observable_unitary_basis(rng):
    u = random_unitary(rng, 5)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


def test_embed_observable():
    obs = observable_from_matrix(SIGMA_Z)
    lifted = embed_observable(obs, (3, 2), 1)
    assert lifted.dims == (3, 2)
    assert lifted.eigenvalues == obs.eigenvalues
    expected = np.kron(np.eye(3), np.diag([0.0, 1.0]))
    np.testing.assert_allclose(lifted.projector(0).entries, expected, atol=1e-14)


def test_embed_observable_validation():
    obs = observable_from_matrix(SIGMA_Z)
    with pytest.raises(InvalidInputError):
        embed_observable(obs, (3, 2), 0)  # dim mismatch at slot 0
    with pytest.raises(InvalidInputError):
        embed_observable(obs, (2, 2), 5)


def test_embed_observable_keeps_branch_labels():
    obs = random_observable(np.random.default_rng(5), (3,), degenerate=True)
    for dims, slot in (((3, 2), 0), ((2, 3), 1), ((2, 3, 2), 1)):
        lifted = embed_observable(obs, dims, slot)
        assert lifted.branch_count == obs.branch_count
        for i, p in enumerate(obs.projectors):
            factors = [np.eye(d) for d in dims]
            factors[slot] = p.entries
            expected = factors[0]
            for f in factors[1:]:
                expected = np.kron(expected, f)
            np.testing.assert_allclose(lifted.projector(i).entries, expected, atol=1e-14)
            assert lifted.branch_rank(i) == obs.branch_rank(i) * prod(dims) // 3


class TestSpectralRepresentation:
    def test_projectors_are_a_cached_view_of_the_basis(self, rng):
        obs = random_observable(rng, (6,), degenerate=True)
        assert obs.projectors is obs.projectors
        for i in range(obs.branch_count):
            cols = obs.branch_basis(i)
            assert cols.shape == (6, obs.branch_rank(i))
            np.testing.assert_allclose(
                obs.projector(i).entries, cols @ cols.conj().T, atol=1e-15
            )

    @pytest.mark.parametrize("d, degenerate", [(2, False), (5, False), (6, True), (7, True)])
    def test_split_and_weights_match_dense_projectors(self, rng, d, degenerate):
        obs = random_observable(rng, (d,), degenerate=degenerate)
        dense = np.stack([p.entries for p in obs.projectors])  # (k, D, D)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        xs = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        parts = obs.split(x)
        assert parts.shape == (d, obs.branch_count)
        np.testing.assert_allclose(parts, (dense @ x).T, atol=1e-13)
        np.testing.assert_allclose(parts.sum(axis=1), x, atol=1e-13)
        np.testing.assert_allclose(obs.weights(x), np.linalg.norm(dense @ x, axis=1) ** 2,
                                   atol=1e-13)
        parts = obs.split(xs)
        assert parts.shape == (d, 3, obs.branch_count)
        np.testing.assert_allclose(parts, (dense @ xs).transpose(1, 2, 0), atol=1e-13)
        np.testing.assert_allclose(parts.sum(axis=2), xs, atol=1e-13)
        weights = obs.weights(xs)
        assert weights.shape == (3, obs.branch_count)
        np.testing.assert_allclose(weights, (np.abs(dense @ xs) ** 2).sum(axis=1).T,
                                   atol=1e-13)

    def test_split_builds_a_branch_subset_in_the_given_order(self, rng):
        # Degenerate, with the columns of a branch not contiguous in the basis.
        labels = [0, 2, 2, 1, 3, 3, 0]
        obs = Observable((7,), (0.0, 1.0, 2.0, 3.0), random_unitary(rng, 7), labels)
        x = rng.normal(size=7) + 1j * rng.normal(size=7)
        xs = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
        picked = np.array([2, 0])
        np.testing.assert_allclose(obs.split(x, picked), obs.split(x)[:, picked], atol=1e-14)
        np.testing.assert_allclose(obs.split(xs, picked), obs.split(xs)[..., picked],
                                   atol=1e-14)
        assert obs.split(x, np.array([], dtype=np.intp)).shape == (7, 0)

    @pytest.mark.parametrize("d", range(2, 14))
    def test_an_observable_is_its_slice_of_a_stack(self, d):
        # weights and split of a vector, of a (D, n) matrix and of a branch
        # subset against the observable's slice of a _Stack of observables
        # with mixed branch counts, degenerate and not.  The widest one's
        # slice, and each slice of a stack at the observable's own width, are
        # the same bits; a narrower one's padded slice is within round-off
        # (a gemm over more columns may round differently), its padded
        # parts and weights exactly zero.
        rng = np.random.default_rng([d, 26])
        mixed = [random_observable(rng, (d,), degenerate=(d >= 3 and i % 2 == 0))
                 for i in range(5)]
        mixed.append(random_observable(rng, (d,), degenerate=False))
        x, xs = (rng.normal(size=(6, d) + n) + 1j * rng.normal(size=(6, d) + n)
                 for n in ((), (3,)))
        for obs, s in zip(mixed, range(6)):
            k = obs.branch_count
            subset = rng.permutation(k)[:max(1, k // 2)]
            same = [obs] + [Observable((d,), obs.eigenvalues, random_unitary(rng, d),
                                       rng.permutation(obs.labels)) for _ in range(2)]
            for stack, rows in ((_checked_stack((d,), _arrays(same)), [s, s, s]),
                                (_checked_stack((d,), _arrays(mixed)), range(6))):
                at, v, vs = list(rows).index(s), x[rows], xs[rows]
                got = (stack.weights(v)[at], stack.weights(vs)[at], stack.split(v)[at],
                       stack.split(vs)[at], stack.split(v, subset)[at],
                       stack.split(vs, subset)[at])
                want = (obs.weights(x[s]), obs.weights(xs[s]), obs.split(x[s]),
                        obs.split(xs[s]), obs.split(x[s], subset), obs.split(xs[s], subset))
                padded = stack.indicator.shape[-1] > k
                for g, w in zip(got, want):
                    assert np.array_equal(g[..., :w.shape[-1]], w) or (
                        padded and np.abs(g[..., :w.shape[-1]] - w).max() <= 1e-13)
                for g in got[:4]:
                    assert not np.any(g[..., k:])
        assert max(obs.branch_count for obs in mixed) > min(obs.branch_count for obs in mixed)

    def test_basis_and_labels_are_read_only(self, rng):
        obs = random_observable(rng, (4,))
        for arr in (obs.basis, obs.labels):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize(
        "basis, labels",
        [
            (np.eye(3)[:, :2], [0, 0, 1]),  # not square
            (np.full((3, 3), np.nan), [0, 0, 1]),  # not finite
            (np.eye(3), [0, 1]),  # a column without a label
            (np.eye(3), [0, 0, 0]),  # branch 1 owns no column
            (np.eye(3), [0, 2, 1]),  # label beyond the branch count
            (np.eye(3), [0, -1, 1]),
            (np.eye(3), [0, 0.5, 1]),
            (np.eye(3) + 2e-10, [0, 0, 1]),  # not unitary within PROJ_TOL
        ],
    )
    def test_bad_representation_rejected(self, basis, labels):
        with pytest.raises(InvalidProjectorFamilyError):
            Observable((3,), (0.0, 1.0), basis, labels)

    def test_unitarity_tolerance_boundary(self):
        # A real rotation scaled by 1 + e has V^dag V - 1 = (2e + e^2) on the
        # diagonal.
        def scaled(e):
            c, s = np.cos(0.3), np.sin(0.3)
            rotation = np.array([[c, -s], [s, c]])
            return Observable((2,), (0.0, 1.0), (1 + e) * rotation, [0, 1])

        scaled(0.45 * PROJ_TOL)
        with pytest.raises(InvalidProjectorFamilyError):
            scaled(0.55 * PROJ_TOL)

    def test_zero_rank_branch_rejected(self):
        # The loop validator accepted a zero projector; a branch must now own
        # at least one basis column.
        zero = np.zeros((2, 2))
        with pytest.raises(InvalidProjectorFamilyError):
            observable_from_branches([(0.0, np.eye(2)), (1.0, zero)], (2,))


# ------------------------------------------------- the boundary against its oracle


def _loop_validate(pairs, dims) -> None:
    """The projector-family validator as it was before the spectral refactor,
    with its messages: sort by eigenvalue, then check the eigenvalues, every
    projector, every pair and the sum, one matrix at a time.  Kept as the
    oracle for observable_from_branches."""
    raw = lambda p: p.entries if isinstance(p, Operator) else np.asarray(p, dtype=complex)
    pairs = sorted(((float(a), raw(p)) for a, p in pairs), key=lambda pair: pair[0])
    if not pairs:
        raise InvalidProjectorFamilyError("no branches given")
    eigenvalues = tuple(a for a, _ in pairs)
    projectors = [p for _, p in pairs]
    if any(not np.isfinite(a) for a in eigenvalues):
        raise InvalidProjectorFamilyError("non-finite eigenvalue")
    if any(b >= a for a, b in zip(eigenvalues[1:], eigenvalues)):
        raise InvalidProjectorFamilyError(
            f"eigenvalues not strictly increasing: {eigenvalues}"
        )
    d = prod(dims)
    for m in projectors:
        if m.shape != (d, d):
            raise InvalidProjectorFamilyError(f"projector dims mismatch: expected {dims}")
        if np.max(np.abs(m - m.conj().T)) > PROJ_TOL:
            raise InvalidProjectorFamilyError("projector is not Hermitian")
        if np.max(np.abs(m @ m - m)) > PROJ_TOL:
            raise InvalidProjectorFamilyError("projector is not idempotent")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if np.max(np.abs(projectors[i] @ projectors[j])) > PROJ_TOL:
                raise InvalidProjectorFamilyError(
                    f"projectors {i} and {j} are not orthogonal"
                )
    if np.max(np.abs(sum(projectors) - np.eye(d))) > PROJ_TOL:
        raise InvalidProjectorFamilyError("projectors do not sum to identity")


def _outcome(fn, *args):
    """None, or the type and message of what fn raised."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


PERTURBATIONS = ("none", "hermitian", "idempotent", "orthogonal", "incomplete", "several")


def _perturbed_family(seed: int, d: int, k: int, kind: str, factor: float):
    """A valid k-branch family on dimension d, with branch 0 perturbed so that
    the check named by kind deviates by factor * PROJ_TOL (up to O(PROJ_TOL^2)).

    hermitian: + (i e / 2)|a><a|, so P - P^dag has one entry of size e.
    idempotent: + e/m |u><u|, u a column of branch 0 and m = max|u u^dag|:
        P^2 - P and the sum both deviate by e.
    orthogonal: + e/m |y><y| with y a column of branch 1: P_0 P_1, P_0^2 - P_0
        and the sum deviate by e.
    incomplete: - e/m |u><u|: the sum deviates by e, P^2 - P by e (1 - e/m).
    several: random kicks of size up to e on every branch, some not Hermitian.
    """
    rng = np.random.default_rng(seed)
    basis = random_unitary(rng, d)
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
    edges = np.concatenate([[0], cuts, [d]])
    cols = [basis[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
    projectors = [c @ c.conj().T for c in cols]
    eps = factor * PROJ_TOL
    if kind == "hermitian":
        a = int(rng.integers(d))
        projectors[0][a, a] += 0.5j * eps
    elif kind in ("idempotent", "orthogonal", "incomplete"):
        u = cols[1 if kind == "orthogonal" else 0][:, 0]
        outer = np.outer(u, u.conj())
        sign = -1.0 if kind == "incomplete" else 1.0
        projectors[0] = projectors[0] + sign * eps / np.abs(outer).max() * outer
    elif kind == "several":
        # Independent defects on different branches, so the order in which
        # the checks run decides which one is reported.
        for p in projectors:
            kick = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            if rng.random() < 0.7:
                kick += kick.conj().T
            p += eps * rng.uniform(0.0, 1.0) * kick
    eigenvalues = np.cumsum(rng.uniform(0.1, 2.0, size=k))
    order = rng.permutation(k)  # observable_from_branches sorts them back
    return [(float(eigenvalues[i]), projectors[i]) for i in order]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 6),
    data=st.data(),
    kind=st.sampled_from(PERTURBATIONS),
    factor=st.one_of(st.sampled_from([0.5, 0.9, 1.1, 2.0]), st.floats(0.25, 4.0)),
)
def test_boundary_rejects_what_the_loop_validator_rejects(seed, d, data, kind, factor):
    # Same verdict, same exception type and same message: the vectorized
    # checks report the first failure in the loop validator's order.
    k = data.draw(st.integers(2, d), label="branches")
    pairs = _perturbed_family(seed, d, k, kind, factor)
    expected = _outcome(_loop_validate, pairs, (d,))
    assert _outcome(observable_from_branches, pairs, (d,)) == expected
    if kind == "none" or (kind != "several" and factor in (0.5, 0.9)):
        assert expected is None
    elif kind != "several" and factor in (1.1, 2.0):
        assert expected is not None and expected[0] is InvalidProjectorFamilyError


@pytest.mark.parametrize("kind", PERTURBATIONS[1:-1])
def test_perturbations_straddle_the_tolerance(kind):
    for seed in range(5):
        inside = _perturbed_family(seed, 5, 3, kind, 0.9)
        outside = _perturbed_family(seed, 5, 3, kind, 1.1)
        assert _outcome(_loop_validate, inside, (5,)) is None
        assert _outcome(observable_from_branches, inside, (5,)) is None
        assert _outcome(_loop_validate, outside, (5,))[0] is InvalidProjectorFamilyError
        with pytest.raises(InvalidProjectorFamilyError):
            observable_from_branches(outside, (5,))


@pytest.mark.parametrize("d", [64, 128, 256])
def test_random_objects_pass_absolute_checks_at_large_dimension(d):
    # Tolerance audit.  The seed fixes the branch counts (58, 32 and 31); the
    # loop oracle costs O(k^2 d^3), so the branch count sets this test's run
    # time.
    rng = np.random.default_rng([2, d])
    rho = random_density(rng, (d,)).entries
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho)[0] >= -1e-10
    obs = random_observable(rng, (d,))
    assert np.max(np.abs(obs.basis.conj().T @ obs.basis - np.eye(d))) <= 1e-10
    _loop_validate(obs.branches(), (d,))
