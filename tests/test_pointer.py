import tracemalloc

import numpy as np
import pytest

from bornsim import (
    ONE_POINTER,
    TWO_POINTER,
    InvalidInputError,
    JointDistribution,
    Operator,
    PointerSchemeSetup,
    StateVector,
    ZeroProbabilityBranchError,
    apply,
    basis_state,
    brute_force_joint,
    conditional_b_given_a,
    marginal_a,
    observable_from_matrix,
    one_pointer_setup,
    partial_trace,
    projection_equivalence_report,
    run_one_pointer,
    run_two_pointer,
    tensor,
    two_pointer_setup,
)
from bornsim.core import density_from_pure
from bornsim.measurement import BORN, ZERO_PROB_CUTOFF, project_update, rule_probabilities
from bornsim.observables import Observable
from bornsim.pointer import (
    POINTER_STATE_MAX_AMPS,
    _couple,
    _evolve_checked,
    _projection_deviation,
    _shared_born_rows,
)
from bornsim.rand import random_observable, random_state, random_unitary

SIGMA_Z = observable_from_matrix(np.diag([1.0, -1.0]))
SIGMA_X = observable_from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
SQ2 = 1.0 / np.sqrt(2.0)
PLUS = StateVector((2,), np.array([SQ2, SQ2]))
MINUS = StateVector((2,), np.array([SQ2, -SQ2]))


def _random_pair(rng, d, degenerate=False):
    state = random_state(rng, (d,))
    obs_a = random_observable(rng, (d,), degenerate=degenerate)
    obs_b = random_observable(rng, (d,), degenerate=degenerate)
    return state, obs_a, obs_b


def _cyclic_shift(size, amount):
    # Permutation matrix |k> -> |k+amount mod size>.
    s = np.zeros((size, size), dtype=complex)
    cols = np.arange(size)
    s[(cols + amount) % size, cols] = 1.0
    return s


def dense_u_a(setup):
    """Dense U_A = sum_i P_i (x) Shift_n(i) [(x) 1_m], the reference coupling."""
    n = setup.n_pointer1
    dims = setup.small_state.dims + (n,)
    blocks = sum(
        np.kron(p.entries, _cyclic_shift(n, i))
        for i, p in enumerate(setup.obs_a.projectors)
    )
    if setup.m_pointer2 is not None:
        dims += (setup.m_pointer2,)
        blocks = np.kron(blocks, np.eye(setup.m_pointer2))
    return Operator(dims, blocks)


def dense_u_b(setup):
    """Dense U_B = sum_j R_j (x) 1_n (x) Shift_m(j), the reference coupling."""
    n, m = setup.n_pointer1, setup.m_pointer2
    blocks = sum(
        np.kron(np.kron(r.entries, np.eye(n)), _cyclic_shift(m, j))
        for j, r in enumerate(setup.obs_b.projectors)
    )
    return Operator(setup.small_state.dims + (n, m), blocks)


def test_shift_unitary_is_conditional_not():
    # Branch 0 of sigma_z (eigenvalue -1, second basis vector) leaves the
    # pointer alone; branch 1 (eigenvalue +1) shifts it by one: a CNOT
    # controlled on the first basis vector.
    setup = one_pointer_setup(MINUS, SIGMA_Z, SIGMA_Z)
    u = dense_u_a(setup)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.kron(np.diag([1.0, 0.0]), x) + np.kron(np.diag([0.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(u.entries, expected, atol=1e-15)


def test_shift_unitaries_are_unitary(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        state, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3))
        setup = two_pointer_setup(state, obs_a, obs_b)
        assert dense_u_a(setup).is_unitary(1e-12)
        assert dense_u_b(setup).is_unitary(1e-12)


def test_epr_final_state():
    setup = one_pointer_setup(MINUS, SIGMA_Z, SIGMA_Z)
    final, joint = run_one_pointer(setup)
    expected = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)
    np.testing.assert_allclose(final.amps, expected, atol=1e-12)
    np.testing.assert_allclose(joint.probs, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_single_branch_observable_trivial():
    ident = observable_from_matrix(np.eye(2))
    setup = two_pointer_setup(PLUS, ident, SIGMA_Z)
    u_a = dense_u_a(setup)
    np.testing.assert_allclose(u_a.entries, np.eye(4), atol=1e-15)
    _, joint = run_two_pointer(setup)
    np.testing.assert_allclose(joint.probs, [[0.5, 0.5]], atol=1e-14)


def test_plus_state_zx_joint_uniform():
    _, joint = run_two_pointer(two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X))
    np.testing.assert_allclose(joint.probs, 0.25 * np.ones((2, 2)), atol=1e-14)


def test_point_mass_on_eigenstate():
    _, joint = run_two_pointer(two_pointer_setup(basis_state(2, 0), SIGMA_Z, SIGMA_Z))
    np.testing.assert_allclose(joint.probs, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_second_coupling_preserves_pointer1_marginal(rng):
    # U_B commutes with the pointer-1 readout, so pointer-1 statistics are
    # fixed once U_A has acted.
    state, obs_a, obs_b = _random_pair(rng, 3, degenerate=True)
    setup = two_pointer_setup(state, obs_a, obs_b)
    n, m = setup.n_pointer1, setup.m_pointer2
    start = tensor([state, basis_state(n, 0), basis_state(m, 0)])
    after_a = apply(dense_u_a(setup), start)
    after_b = dense_u_b(setup).entries @ after_a
    dims = state.dims + (n, m)
    keep = (len(dims) - 2,)  # the pointer-1 slot
    red_a = partial_trace(density_from_pure(StateVector(dims, after_a)), keep)
    red_b = partial_trace(density_from_pure(StateVector(dims, after_b)), keep)
    np.testing.assert_allclose(
        np.diag(red_a.entries), np.diag(red_b.entries), atol=1e-12
    )


def test_joint_matches_projector_sandwich(rng):
    # Independent route: p(i, j) = <psi| P_i R_j P_i |psi>.
    for _ in range(15):
        d = int(rng.integers(2, 6))
        state, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3))
        _, joint = run_two_pointer(two_pointer_setup(state, obs_a, obs_b))
        for i, p in enumerate(obs_a.projectors):
            for j, r in enumerate(obs_b.projectors):
                sandwich = p.entries @ r.entries @ p.entries
                expected = float(np.vdot(state.amps, sandwich @ state.amps).real)
                assert abs(joint.probs[i, j] - expected) < 1e-12


def test_marginal_is_born_distribution(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        state, obs_a, obs_b = _random_pair(rng, d)
        _, joint = run_one_pointer(one_pointer_setup(state, obs_a, obs_b))
        marg = marginal_a(joint)
        for i, p in enumerate(obs_a.projectors):
            w = float(np.linalg.norm(p.entries @ state.amps) ** 2)
            assert abs(marg.prob_of(i) - w) < 1e-12


def test_schemes_agree(rng):
    for _ in range(15):
        d = int(rng.integers(2, 6))
        state, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3))
        _, joint_two = run_two_pointer(two_pointer_setup(state, obs_a, obs_b))
        _, joint_one = run_one_pointer(one_pointer_setup(state, obs_a, obs_b))
        dev = float(np.max(np.abs(joint_two.probs - joint_one.probs)))
        assert dev < 1e-12


def test_brute_force_oracle_agrees(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        state, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3))
        setup = two_pointer_setup(state, obs_a, obs_b)
        _, joint = run_two_pointer(setup)
        oracle = brute_force_joint(setup)
        assert float(np.max(np.abs(oracle.probs - joint.probs))) < 1e-12


def test_brute_force_oracle_builds_no_dense_projector(rng):
    # The oracle works on the eigenbasis; the cached dense projector view of
    # either observable stays unbuilt.
    state, obs_a, obs_b = _random_pair(rng, 5, degenerate=True)
    brute_force_joint(two_pointer_setup(state, obs_a, obs_b, 4, 6))
    assert "projectors" not in obs_a.__dict__
    assert "projectors" not in obs_b.__dict__


def test_brute_force_oracle_needs_no_branch_columns_or_roll(rng, monkeypatch):
    # The couplings act in the eigenbasis as one gather: no per-branch column
    # slice of V and no np.roll of the register tensor.
    state, obs_a, obs_b = _random_pair(rng, 5, degenerate=True)
    setup = two_pointer_setup(state, obs_a, obs_b, 4, 6)
    _, joint = run_two_pointer(setup)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call this")

    monkeypatch.setattr(Observable, "branch_basis", refuse)
    monkeypatch.setattr(np, "roll", refuse)
    oracle = brute_force_joint(setup)
    assert float(np.max(np.abs(oracle.probs - joint.probs))) < 1e-12


def test_brute_force_needs_two_pointers():
    with pytest.raises(InvalidInputError):
        brute_force_joint(one_pointer_setup(PLUS, SIGMA_Z, SIGMA_X))


def test_projection_equivalence_report(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        state, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3))
        assert projection_equivalence_report(two_pointer_setup(state, obs_a, obs_b)) < 1e-10
        assert projection_equivalence_report(one_pointer_setup(state, obs_a, obs_b)) < 1e-10


def test_evolve_checked_matches_the_public_readouts(rng):
    # One evolution gives what the public report, the oracle and the twin
    # two-pointer run give separately, bit for bit.
    for _ in range(6):
        d = int(rng.integers(2, 6))
        state, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3))
        two = two_pointer_setup(state, obs_a, obs_b, obs_a.branch_count + 1)
        one = one_pointer_setup(state, obs_a, obs_b)
        final, joint, deviation, cross = _evolve_checked(two)
        assert np.array_equal(final.amps, run_two_pointer(two)[0].amps)
        assert deviation == projection_equivalence_report(two)
        assert cross == np.max(np.abs(joint.probs - brute_force_joint(two).probs))
        final, joint, deviation, cross = _evolve_checked(one)
        assert np.array_equal(final.amps, run_one_pointer(one)[0].amps)
        assert deviation == projection_equivalence_report(one)
        twin = run_two_pointer(two_pointer_setup(state, obs_a, obs_b))[1]
        assert cross == np.max(np.abs(joint.probs - twin.probs))


def _loop_projection_deviation(setup, joint):
    # Oracle: the per-branch check, one validated conditional, collapsed
    # state and Born distribution per live row of the joint.
    marg = marginal_a(joint)
    worst = 0.0
    for i in range(setup.obs_a.branch_count):
        if float(marg.probs[i]) <= ZERO_PROB_CUTOFF:
            continue
        cond = conditional_b_given_a(joint, i)
        collapsed = project_update(setup.small_state, setup.obs_a, i)
        born = rule_probabilities(BORN, collapsed, setup.obs_b)
        worst = max(worst, float(np.max(np.abs(cond.probs - born.probs))))
    return worst


def _in_one_eigenspace(rng, obs, branch):
    # A random unit vector inside one branch's eigenspace: every other row
    # of a joint with obs as the first observable is dead.
    cols = obs.branch_basis(branch)
    amps = cols @ (rng.normal(size=cols.shape[1]) + 1j * rng.normal(size=cols.shape[1]))
    return StateVector(obs.dims, amps / np.linalg.norm(amps))


def _random_setups(seed):
    # Two- and one-pointer setups, default and oversized registers, with
    # degenerate observables on every other draw and, on every third, a
    # state inside one eigenspace of the first observable.
    rng = np.random.default_rng([seed, 10])
    d = int(rng.integers(2, 9))
    state, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3 and seed % 2 == 0))
    if seed % 3 == 0:
        state = _in_one_eigenspace(rng, obs_a, int(rng.integers(obs_a.branch_count)))
    extra = int(rng.integers(0, 3))
    na, nb = obs_a.branch_count, obs_b.branch_count
    return [
        two_pointer_setup(state, obs_a, obs_b),
        two_pointer_setup(state, obs_a, obs_b, na + extra, nb + 2 - extra),
        one_pointer_setup(state, obs_a, obs_b),
        one_pointer_setup(state, obs_a, obs_b, na + 1 + extra),
    ]


@pytest.mark.parametrize("seed", range(24))
def test_batched_projection_deviation_equals_the_branch_loop(seed):
    setups, dead_rows = _random_setups(seed), 0
    for setup in setups:
        run = run_two_pointer if setup.mode == "two_pointer" else run_one_pointer
        joint = run(setup)[1]
        dead_rows += int(np.sum(joint.probs.sum(axis=1) <= ZERO_PROB_CUTOFF))
        batched = _projection_deviation(setup, joint)
        assert abs(batched - _loop_projection_deviation(setup, joint)) <= 1e-14
        assert batched < 1e-10
    if seed % 3 == 0 and setups[0].obs_a.branch_count > 1:
        assert dead_rows > 0


@pytest.mark.parametrize("seed", range(24))
def test_shared_born_rows_give_each_joint_its_own_deviation(seed):
    # Born rows taken once over the live rows of a two- and a one-pointer
    # joint give each joint's own projection deviation, bit for bit.
    setups = _random_setups(seed)
    for two, one in ((setups[0], setups[2]), (setups[1], setups[3])):
        joint_two, joint_one = run_two_pointer(two)[1], run_one_pointer(one)[1]
        born = _shared_born_rows(two, joint_two, joint_one)
        assert _projection_deviation(two, joint_two, born) == _projection_deviation(two, joint_two)
        assert _projection_deviation(one, joint_one, born) == _projection_deviation(one, joint_one)


@pytest.mark.parametrize("seed", range(8))
def test_batched_projection_deviation_raises_like_the_branch_loop(seed):
    # A joint whose live rows the setup's state cannot reach: the first
    # observable's other branches have no collapsed weight.
    rng = np.random.default_rng([seed, 11])
    d = int(rng.integers(2, 9))
    _, obs_a, obs_b = _random_pair(rng, d, degenerate=(d >= 3 and seed % 2 == 0))
    if obs_a.branch_count == 1:
        obs_a = SIGMA_Z if d == 2 else observable_from_matrix(np.diag(np.arange(d)))
    confined = _in_one_eigenspace(rng, obs_a, 0)
    spread = random_state(rng, (d,))
    for make in (two_pointer_setup, one_pointer_setup):
        run = run_two_pointer if make is two_pointer_setup else run_one_pointer
        joint = run(make(spread, obs_a, obs_b))[1]
        setup = make(confined, obs_a, obs_b)
        with pytest.raises(ZeroProbabilityBranchError):
            _loop_projection_deviation(setup, joint)
        with pytest.raises(ZeroProbabilityBranchError):
            _projection_deviation(setup, joint)


class TestJointDistribution:
    def test_rejects_a_non_matrix(self):
        with pytest.raises(InvalidInputError, match="must be a matrix"):
            JointDistribution([0.5, 0.5])
        with pytest.raises(InvalidInputError, match="must be a matrix"):
            JointDistribution(np.full((2, 2, 1), 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite"):
            JointDistribution([[0.5, bad], [0.25, 0.25]])

    def test_rejects_a_negative_entry(self):
        with pytest.raises(InvalidInputError, match="negative joint probability"):
            JointDistribution([[0.5, 0.5 + 2e-12], [-2e-12, 0.0]])

    @pytest.mark.parametrize("off", [2e-10, -2e-10, 0.5])
    def test_rejects_a_total_off_one(self, off):
        with pytest.raises(InvalidInputError, match="sum to"):
            JointDistribution([[0.5, 0.5 + off]])

    def test_clips_round_off_and_freezes(self):
        joint = JointDistribution([[0.5, 0.5 + 5e-11], [-1e-13, 1e-13]])
        assert joint.probs[1, 0] == 0.0 and joint.probs.min() == 0.0
        assert joint.branch_counts == (2, 2)
        with pytest.raises(ValueError):
            joint.probs[0, 0] = 1.0


def test_oversized_pointer_registers():
    setup = two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X, n_pointer1=4, m_pointer2=5)
    final, joint = run_two_pointer(setup)
    assert final.dims == (2, 4, 5)
    np.testing.assert_allclose(joint.probs, 0.25 * np.ones((2, 2)), atol=1e-14)
    oracle = brute_force_joint(setup)
    np.testing.assert_allclose(oracle.probs, joint.probs, atol=1e-14)


@pytest.mark.parametrize("d", range(2, 7))
def test_contraction_matches_dense_unitaries(d):
    # The run functions never build U_A or U_B; the dense reference unitaries
    # must still produce the same final states, including degenerate
    # observables and registers larger than the branch counts.
    rng = np.random.default_rng([7, d])
    for degenerate in (False, True) if d >= 3 else (False,):
        for extra in (0, 2):
            state, obs_a, obs_b = _random_pair(rng, d, degenerate=degenerate)
            n, m = obs_a.branch_count + extra, obs_b.branch_count + 2 * extra
            two = two_pointer_setup(state, obs_a, obs_b, n, m)
            start = tensor([state, basis_state(n, 0), basis_state(m, 0)])
            dense = dense_u_b(two).entries @ (
                dense_u_a(two).entries @ start.amps
            )
            final, _ = run_two_pointer(two)
            assert final.dims == (d, n, m)
            np.testing.assert_allclose(final.amps, dense, rtol=0, atol=1e-13)
            one = one_pointer_setup(state, obs_a, obs_b, n)
            start = tensor([state, basis_state(n, 0)])
            final, _ = run_one_pointer(one)
            assert final.dims == (d, n)
            np.testing.assert_allclose(
                final.amps, dense_u_a(one).entries @ start.amps, rtol=0, atol=1e-13
            )


@pytest.mark.parametrize("d", range(2, 7))
def test_coupling_matches_dense_unitaries(d):
    # The oracle's matrix-free coupling equals the dense U_A / U_B on arbitrary
    # register vectors (so wrap-around is exercised), in both register shapes,
    # with degenerate observables and oversized registers, and keeps the norm.
    rng = np.random.default_rng([11, d])
    for degenerate in (False, True) if d >= 3 else (False,):
        for extra in (0, 1, 3):
            state, obs_a, obs_b = _random_pair(rng, d, degenerate=degenerate)
            n, m = obs_a.branch_count + extra, obs_b.branch_count + 2 * extra
            two = two_pointer_setup(state, obs_a, obs_b, n, m)
            one = one_pointer_setup(state, obs_a, obs_b, n)
            cases = (
                (dense_u_a(two), obs_a, (d, n, m), 1),
                (dense_u_b(two), obs_b, (d, n, m), 2),
                (dense_u_a(one), obs_a, (d, n), 1),
            )
            for dense, obs, shape, axis in cases:
                x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                x /= np.linalg.norm(x)
                coupled = _couple(x, obs, axis).reshape(-1)
                np.testing.assert_allclose(
                    coupled, dense.entries @ x.reshape(-1), rtol=0, atol=1e-13
                )
                assert abs(np.linalg.norm(coupled) - 1.0) < 1e-13


def test_large_dimension_runs_without_dense_oracle():
    # d=24 with 24 branches per observable: composite dimension 13824, where a
    # dense shift unitary would need about 3 GB.  The oracle builds none.
    rng = np.random.default_rng(24)
    state = random_state(rng, (24,))
    obs_a, obs_b = (
        observable_from_matrix(u @ np.diag(np.arange(24.0)) @ u.conj().T)
        for u in (random_unitary(rng, 24), random_unitary(rng, 24))
    )
    assert obs_a.branch_count == obs_b.branch_count == 24
    two = two_pointer_setup(state, obs_a, obs_b)
    final, joint_two = run_two_pointer(two)
    assert final.dim == 13824
    _, joint_one = run_one_pointer(one_pointer_setup(state, obs_a, obs_b))
    tagged = [p.entries @ state.amps for p in obs_a.projectors]
    expected = np.array(
        [[np.linalg.norm(r.entries @ v) ** 2 for r in obs_b.projectors] for v in tagged]
    )
    for joint in (joint_two, joint_one):
        assert float(np.max(np.abs(joint.probs - expected))) < 1e-12
    oracle = brute_force_joint(two)
    assert float(np.max(np.abs(oracle.probs - joint_two.probs))) < 1e-12


def test_pointer_runs_hand_their_final_state_over_uncopied():
    # The final state takes over the register array the run fills: one
    # d x n x m buffer at the peak, not that buffer and a copy of it.
    state = random_state(np.random.default_rng(64), (64,))
    # Two branches each, so the split parts are small next to the register.
    obs_a = obs_b = observable_from_matrix(np.diag(np.repeat([0.0, 1.0], 32)))
    two = two_pointer_setup(state, obs_a, obs_b, 64, 64)
    one = one_pointer_setup(state, obs_a, obs_b, 64)
    tracemalloc.start()
    try:
        final, _ = run_two_pointer(two)
        peak = tracemalloc.get_traced_memory()[1]
        final_one, _ = run_one_pointer(one)
    finally:
        tracemalloc.stop()
    assert final.amps.nbytes == 64**3 * 16
    assert peak < 1.5 * final.amps.nbytes
    assert not final.amps.flags.writeable and not final_one.amps.flags.writeable


class TestConditionals:
    def test_conditional_rows(self):
        _, joint = run_two_pointer(two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X))
        for i in range(2):
            cond = conditional_b_given_a(joint, i)
            np.testing.assert_allclose(cond.probs, [0.5, 0.5], atol=1e-14)

    def test_dead_row_raises(self):
        _, joint = run_two_pointer(
            two_pointer_setup(basis_state(2, 0), SIGMA_Z, SIGMA_Z)
        )
        with pytest.raises(ZeroProbabilityBranchError):
            conditional_b_given_a(joint, 0)

    def test_out_of_range(self):
        _, joint = run_two_pointer(two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X))
        with pytest.raises(InvalidInputError):
            conditional_b_given_a(joint, 2)


class TestSetupValidation:
    def test_pointer_too_small(self):
        with pytest.raises(InvalidInputError):
            two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X, n_pointer1=1)

    def test_mode_follows_second_register(self):
        one = PointerSchemeSetup(PLUS, SIGMA_Z, SIGMA_X, 2, None)
        two = PointerSchemeSetup(PLUS, SIGMA_Z, SIGMA_X, 2, 3)
        assert one.mode == ONE_POINTER
        assert two.mode == TWO_POINTER
        assert one_pointer_setup(PLUS, SIGMA_Z, SIGMA_X).mode == ONE_POINTER
        assert two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X).mode == TWO_POINTER
        with pytest.raises(AttributeError):
            one.mode = TWO_POINTER
        with pytest.raises(TypeError):
            PointerSchemeSetup(PLUS, SIGMA_Z, SIGMA_X, 2, 2, TWO_POINTER)

    def test_second_pointer_too_small(self):
        with pytest.raises(InvalidInputError, match="pointer-2 size 1 < branch count 2"):
            PointerSchemeSetup(PLUS, SIGMA_Z, SIGMA_X, 2, 1)

    def test_dims_mismatch(self):
        obs3 = observable_from_matrix(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidInputError):
            two_pointer_setup(PLUS, obs3, SIGMA_X)

    def test_state_size_cap(self):
        # PLUS has d = 2, so n (* m) = 2**23 is exactly POINTER_STATE_MAX_AMPS;
        # setups are checked on construction and never allocate a state here.
        assert POINTER_STATE_MAX_AMPS == 2**24
        one_pointer_setup(PLUS, SIGMA_Z, SIGMA_X, 2**23)
        two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X, 2**12, 2**11)
        with pytest.raises(InvalidInputError, match="16777218 amplitudes"):
            one_pointer_setup(PLUS, SIGMA_Z, SIGMA_X, 2**23 + 1)
        with pytest.raises(InvalidInputError, match="exceeds the cap 16777216"):
            two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X, 2**12, 2**11 + 1)

    def test_mode_mismatch_at_run(self):
        one = one_pointer_setup(PLUS, SIGMA_Z, SIGMA_X)
        two = two_pointer_setup(PLUS, SIGMA_Z, SIGMA_X)
        with pytest.raises(InvalidInputError):
            run_two_pointer(one)
        with pytest.raises(InvalidInputError):
            run_one_pointer(two)
