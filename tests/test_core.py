import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import (
    DensityMatrix,
    InvalidDensityError,
    InvalidInputError,
    Operator,
    OutcomeDistribution,
    StateVector,
    apply,
    basis_state,
    density_from_pure,
    inner,
    partial_trace,
    tensor,
    tv_distance,
    von_neumann_entropy,
)
from bornsim.core import _entropies
from bornsim.rand import random_density, random_state

SQ2 = 1.0 / math.sqrt(2.0)

# Frozen scalar oracle: -(0.36*log2(0.36) + 0.64*log2(0.64))
ENTROPY_36_64 = 0.9426831892554922


class TestStateVector:
    def test_valid_construction(self):
        s = StateVector((2,), [SQ2, SQ2])
        assert s.dim == 2
        assert s.dims == (2,)

    def test_amps_are_read_only(self):
        s = StateVector((2,), [1.0, 0.0])
        with pytest.raises(ValueError):
            s.amps[0] = 0.5

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            StateVector((2,), [1.0, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidInputError):
            StateVector((2, 2), [1.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            StateVector((2,), [np.nan, 0.0])

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidInputError):
            StateVector((0,), [])

    def test_copies_the_callers_array(self):
        amps = np.array([SQ2, SQ2], dtype=complex)
        s = StateVector((2,), amps)
        assert not np.shares_memory(s.amps, amps)
        amps[0] = 1.0  # still the caller's to write
        assert s.amps[0] == SQ2

    def test_checked_takes_the_array_over(self):
        # For amplitudes _check_states has passed: no copy, frozen, flat.
        amps = np.array([[SQ2], [SQ2]], dtype=complex)
        s = StateVector._checked((2,), amps)
        assert np.shares_memory(s.amps, amps) and s.amps.shape == (2,) and s.dims == (2,)
        with pytest.raises(ValueError):
            s.amps[0] = 0.5


def test_basis_state():
    s = basis_state(3, 1)
    np.testing.assert_allclose(s.amps, [0, 1, 0])
    with pytest.raises(InvalidInputError):
        basis_state(3, 3)


def test_tensor_product_example():
    # (|0> - |1>)/sqrt(2) (x) |0>  ->  (1/sqrt(2)) * (1, 0, -1, 0)
    left = StateVector((2,), [SQ2, -SQ2])
    out = tensor([left, basis_state(2, 0)])
    assert out.dims == (2, 2)
    np.testing.assert_allclose(out.amps, [SQ2, 0, -SQ2, 0], atol=1e-15)


def test_tensor_index_convention():
    # Subsystem 0 is slowest-varying: (k0, k1) sits at flat index k0*d1 + k1.
    out = tensor([basis_state(2, 1), basis_state(3, 2)])
    np.testing.assert_allclose(out.amps, np.eye(6)[1 * 3 + 2])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_tensor_norm_and_associativity(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, (2,))
    b = random_state(rng, (3,))
    c = random_state(rng, (2,))
    flat = tensor([a, b, c])
    assert flat.dims == (2, 3, 2)
    assert np.linalg.norm(flat.amps) == pytest.approx(1.0, abs=1e-12)
    nested = tensor([tensor([a, b]), c])
    np.testing.assert_allclose(flat.amps, nested.amps, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_inner_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, (4,))
    b = random_state(rng, (4,))
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-14)
    assert inner(a, a) == pytest.approx(1.0, abs=1e-12)


def test_inner_dims_mismatch():
    with pytest.raises(InvalidInputError):
        inner(basis_state(2, 0), basis_state(3, 0))


def test_apply_returns_raw_vector():
    proj = Operator((2,), [[1, 0], [0, 0]])
    out = apply(proj, StateVector((2,), [SQ2, SQ2]))
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, [SQ2, 0])  # unnormalized on purpose
    with pytest.raises(InvalidInputError):
        apply(proj, basis_state(3, 0))


def test_density_from_pure_is_projection(rng):
    rho = density_from_pure(random_state(rng, (3,)))
    np.testing.assert_allclose(rho.entries @ rho.entries, rho.entries, atol=1e-12)
    assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-12)


class TestDensityValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidDensityError):
            DensityMatrix((2,), [[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidDensityError):
            DensityMatrix((2,), [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidDensityError):
            DensityMatrix((2,), [[1.5, 0.0], [0.0, -0.5]])


def test_partial_trace_product_state(rng):
    rho_a = random_density(rng, (2,))
    rho_b = random_density(rng, (3,))
    joint = DensityMatrix((2, 3), np.kron(rho_a.entries, rho_b.entries))
    np.testing.assert_allclose(
        partial_trace(joint, 0).entries, rho_a.entries, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(joint, 1).entries, rho_b.entries, atol=1e-12
    )


def test_partial_trace_bell_marginal():
    bell = StateVector((2, 2), [SQ2, 0, 0, SQ2])
    reduced = partial_trace(density_from_pure(bell), 1)
    np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = random_density(rng, (2, 3))
        for keep in (0, 1):
            reduced = partial_trace(rho, keep)
            assert np.trace(reduced.entries).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_composition(rng):
    rho = random_density(rng, (2, 3, 2))
    two_step = partial_trace(partial_trace(rho, [0, 1]), 1)
    one_step = partial_trace(rho, 1)
    np.testing.assert_allclose(two_step.entries, one_step.entries, atol=1e-12)


def test_partial_trace_invalid_keep(rng):
    rho = random_density(rng, (2, 2))
    with pytest.raises(InvalidInputError):
        partial_trace(rho, 2)
    with pytest.raises(InvalidInputError):
        partial_trace(rho, [])


class TestEntropy:
    def test_pure_state_zero(self, rng):
        rho = density_from_pure(random_state(rng, (5,)))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        rho = DensityMatrix((4,), np.eye(4) / 4)
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_frozen_two_level_value(self):
        rho = DensityMatrix((2,), [[0.36, 0], [0, 0.64]])
        assert von_neumann_entropy(rho) == pytest.approx(ENTROPY_36_64, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = random_density(rng, (6,))
            s = von_neumann_entropy(rho)
            assert -1e-10 <= s <= math.log2(6) + 1e-10

    @pytest.mark.parametrize("d", range(2, 17))
    def test_entropies_sum_the_positive_eigenvalues_alone(self, d):
        # Ascending spectra of every rank from 1 to d, the rest of each made
        # of exact zeros and tiny negative round-off.  numpy sums fewer than
        # 8 values in order, so below d = 8 the zero terms change no bit;
        # from d = 8 on its pairwise sum may round the last bit otherwise.
        rng = np.random.default_rng([d, 31])
        spectra = []
        for rank in range(1, d + 1):
            tiny = -(10.0 ** rng.uniform(-17, -11, size=d - rank))
            rest = np.where((np.arange(d - rank) + rank) % 2, tiny, 0.0)
            spectra.append(np.sort(np.concatenate([rest, rng.dirichlet(np.ones(rank))])))
        spectra = np.array(spectra)
        got = _entropies(spectra)
        for spectrum, entropy in zip(spectra, got):
            lam = spectrum[spectrum > 0.0]
            want = -np.sum(lam * np.log2(lam))
            assert entropy == want if d < 8 else abs(entropy - want) <= 1e-14
            assert _entropies(spectrum[None])[0].tobytes() == entropy.tobytes()
        assert (spectra < 0.0).any()


class TestOutcomeDistribution:
    def test_valid(self):
        dist = OutcomeDistribution((0, 1), [0.25, 0.75])
        assert dist.prob_of(1) == 0.75
        assert dist.as_dict() == {0: 0.25, 1: 0.75}

    def test_clamps_tiny_negative(self):
        dist = OutcomeDistribution((0, 1), [1.0, -1e-15])
        assert dist.probs[1] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            OutcomeDistribution((0, 1), [1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            OutcomeDistribution((0, 1), [0.5, 0.4])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidInputError):
            OutcomeDistribution((0, 0), [0.5, 0.5])

    def test_unknown_label(self):
        with pytest.raises(InvalidInputError):
            OutcomeDistribution((0,), [1.0]).prob_of(3)


class TestTvDistance:
    def test_identical_is_zero(self):
        p = OutcomeDistribution((0, 1), [0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        p = OutcomeDistribution((0, 1), [1.0, 0.0])
        q = OutcomeDistribution((0, 1), [0.0, 1.0])
        assert tv_distance(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_matches_by_label_not_position(self):
        p = OutcomeDistribution((0, 1), [0.3, 0.7])
        q = OutcomeDistribution((1, 0), [0.7, 0.3])
        assert tv_distance(p, q) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_witness_pair(self):
        # 81/337 and 256/337 are the squared-weight transforms of 0.36, 0.64.
        p = OutcomeDistribution((0, 1), [0.36, 0.64])
        q = OutcomeDistribution((0, 1), [0.2403560830860534, 0.7596439169139466])
        assert tv_distance(p, q) == pytest.approx(0.11964391691394659, abs=1e-15)

    def test_label_mismatch_rejected(self):
        p = OutcomeDistribution((0, 1), [0.5, 0.5])
        q = OutcomeDistribution((0, 2), [0.5, 0.5])
        with pytest.raises(InvalidInputError):
            tv_distance(p, q)
