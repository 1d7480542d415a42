import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import (
    BORN,
    DensityMatrix,
    InvalidDensityError,
    InvalidInputError,
    NotDecoheredError,
    NotUnitaryError,
    Operator,
    ProbabilityRule,
    ZERO_PROB_CUTOFF,
    StateVector,
    ZeroProbabilityBranchError,
    basis_state,
    branch_weights,
    classical_selective,
    density_from_pure,
    ll_channel,
    measure_selective,
    nonborn_exponent,
    nonselective_channel,
    observable_from_matrix,
    phase_unitaries,
    project_update,
    rule_probabilities,
    state_preparation_unitaries,
    von_neumann_entropy,
)
from bornsim import cli, core, measurement, scenario
from bornsim.measurement import _classical_branches, _orthonormal_completion, _transform_weights
from bornsim.rand import random_observable, random_state, random_unitary

SIGMA_Z = observable_from_matrix(np.diag([1.0, -1.0]))
PLUS = StateVector((2,), np.array([1.0, 1.0]) / np.sqrt(2.0))
# Amplitudes (0.6, 0.8): branch weights under sigma_z are (0.64, 0.36)
# because branch 0 carries eigenvalue -1, i.e. the second basis vector.
TILTED = StateVector((2,), np.array([0.6, 0.8]))

# Oracle: Fraction(36, 100)**2 / (Fraction(36, 100)**2 + Fraction(64, 100)**2)
# = 81/337, complement 256/337.
P_SMALL_Q2 = 0.2403560830860534
P_LARGE_Q2 = 0.7596439169139466
# Oracle: -(0.36*log2(0.36) + 0.64*log2(0.64)).
ENTROPY_36_64 = 0.9426831892554922


class TestProbabilityRule:
    def test_born_is_exponent_one(self):
        assert BORN.exponent == 1.0
        assert BORN.is_born
        assert not nonborn_exponent(2.0).is_born
        assert nonborn_exponent(0.5).exponent == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_exponents(self, bad):
        with pytest.raises(InvalidInputError):
            ProbabilityRule(bad)


def test_born_probabilities_plus():
    dist = rule_probabilities(BORN, PLUS, SIGMA_Z)
    assert dist.labels == (0, 1)
    np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-15)


def test_born_probabilities_match_weights(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        state = random_state(rng, (d,))
        obs = random_observable(rng, (d,), degenerate=(d >= 3))
        w = branch_weights(state, obs)
        dist = rule_probabilities(BORN, state, obs)
        np.testing.assert_allclose(dist.probs, w / w.sum(), atol=1e-14)


def test_nonborn_frozen_values():
    dist = rule_probabilities(nonborn_exponent(2.0), TILTED, SIGMA_Z)
    assert dist.prob_of(0) == pytest.approx(P_LARGE_Q2, abs=1e-15)
    assert dist.prob_of(1) == pytest.approx(P_SMALL_Q2, abs=1e-15)


def test_nonborn_sharpens_toward_majority():
    born = rule_probabilities(BORN, TILTED, SIGMA_Z)
    sharp = rule_probabilities(nonborn_exponent(2.0), TILTED, SIGMA_Z)
    flat = rule_probabilities(nonborn_exponent(0.5), TILTED, SIGMA_Z)
    assert sharp.prob_of(0) > born.prob_of(0) > flat.prob_of(0)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.7])
def test_eigenstate_deterministic_for_every_exponent(q):
    dist = rule_probabilities(nonborn_exponent(q), basis_state(2, 1), SIGMA_Z)
    np.testing.assert_allclose(dist.probs, [1.0, 0.0], atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.25, 4.0))
def test_rule_probabilities_normalized(seed, q):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    state = random_state(rng, (d,))
    obs = random_observable(rng, (d,))
    dist = rule_probabilities(nonborn_exponent(q), state, obs)
    assert abs(float(dist.probs.sum()) - 1.0) < 1e-12
    assert float(dist.probs.min()) >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.just(0.0) | st.floats(1e-300, 1.0), min_size=1, max_size=8).filter(
        lambda ws: max(ws) > 0.0
    ),
    st.floats(1e-3, 1e4),
)
def test_transformed_weights_survive_extreme_exponents(weights, q):
    # Raising raw weights to q underflows to all zeros for tiny weights or
    # large q; the rule must still return a distribution with the same mode.
    w = np.array(weights)
    probs = _transform_weights(w, nonborn_exponent(q))
    assert np.all(np.isfinite(probs))
    assert abs(float(probs.sum()) - 1.0) < 1e-12
    assert probs[np.argmax(w)] == probs.max()


def test_dims_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        branch_weights(basis_state(3, 0), SIGMA_Z)


class TestProjectUpdate:
    def test_collapse_plus(self):
        np.testing.assert_allclose(
            project_update(PLUS, SIGMA_Z, 1).amps, [1.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            project_update(PLUS, SIGMA_Z, 0).amps, [0.0, 1.0], atol=1e-15
        )

    def test_dead_branch_raises(self):
        with pytest.raises(ZeroProbabilityBranchError):
            project_update(basis_state(2, 0), SIGMA_Z, 0)

    def test_idempotent(self, rng):
        state = random_state(rng, (4,))
        obs = random_observable(rng, (4,), degenerate=True)
        once = project_update(state, obs, 0)
        twice = project_update(once, obs, 0)
        np.testing.assert_allclose(once.amps, twice.amps, atol=1e-14)


class TestMeasureSelective:
    def test_forced_branch(self):
        rec = measure_selective(PLUS, SIGMA_Z, force_branch=0)
        assert rec.branch_index == 0
        assert rec.eigenvalue == -1.0
        assert rec.probability == pytest.approx(0.5)
        np.testing.assert_allclose(rec.post_state.amps, [0.0, 1.0], atol=1e-15)

    def test_forced_out_of_range(self):
        with pytest.raises(InvalidInputError):
            measure_selective(PLUS, SIGMA_Z, force_branch=5)

    def test_forced_dead_branch(self):
        with pytest.raises(ZeroProbabilityBranchError):
            measure_selective(basis_state(2, 0), SIGMA_Z, force_branch=0)

    def test_needs_rng_or_force(self):
        with pytest.raises(InvalidInputError):
            measure_selective(PLUS, SIGMA_Z)

    def test_sampling_reproducible(self):
        a = measure_selective(PLUS, SIGMA_Z, rng=np.random.default_rng(7))
        b = measure_selective(PLUS, SIGMA_Z, rng=np.random.default_rng(7))
        assert a.branch_index == b.branch_index

    def test_sampling_frequencies(self):
        rng = np.random.default_rng(11)
        hits = sum(
            measure_selective(TILTED, SIGMA_Z, rng=rng).branch_index == 0
            for _ in range(4000)
        )
        assert abs(hits / 4000 - 0.64) < 0.03


class TestLLChannel:
    def test_identity_unitaries_reduce_to_projection(self):
        eye = [Operator((2,), np.eye(2)) for _ in range(2)]
        records = ll_channel(PLUS, SIGMA_Z, eye)
        assert [r.branch_index for r in records] == [0, 1]
        for rec in records:
            assert rec.probability == pytest.approx(0.5)
            collapsed = project_update(PLUS, SIGMA_Z, rec.branch_index)
            np.testing.assert_allclose(rec.post_state.amps, collapsed.amps, atol=1e-15)

    def test_dead_branches_omitted(self):
        eye = [Operator((2,), np.eye(2)) for _ in range(2)]
        records = ll_channel(basis_state(2, 0), SIGMA_Z, eye)
        assert len(records) == 1
        assert records[0].branch_index == 1
        assert records[0].probability == pytest.approx(1.0)

    def test_probabilities_ignore_unitaries(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            state = random_state(rng, (d,))
            obs = random_observable(rng, (d,), degenerate=(d >= 3))
            unitaries = [
                Operator((d,), random_unitary(rng, d))
                for _ in range(obs.branch_count)
            ]
            weights = branch_weights(state, obs)
            for rec in ll_channel(state, obs, unitaries):
                assert abs(rec.probability - weights[rec.branch_index]) < 1e-14

    def test_wrong_unitary_count(self):
        with pytest.raises(InvalidInputError):
            ll_channel(PLUS, SIGMA_Z, [Operator((2,), np.eye(2))])

    def test_not_unitary_rejected(self):
        bad = Operator((2,), np.diag([1.0, 0.5]))
        with pytest.raises(NotUnitaryError):
            ll_channel(PLUS, SIGMA_Z, [bad, bad])

    def test_wrong_dims_rejected(self):
        eye3 = Operator((3,), np.eye(3))
        with pytest.raises(InvalidInputError):
            ll_channel(PLUS, SIGMA_Z, [eye3, eye3])

    def test_first_failing_operator_is_named(self):
        # One stacked check over all operators still reports the first
        # failure, in operator order, with its index.
        qutrit = StateVector((3,), np.ones(3) / np.sqrt(3.0))
        obs = observable_from_matrix(np.diag([0.0, 1.0, 2.0]))
        eye, eye2 = Operator((3,), np.eye(3)), Operator((2,), np.eye(2))
        bad = Operator((3,), np.diag([1.0, 1.0, 1.0 + 1e-9]))
        with pytest.raises(NotUnitaryError, match=r"^post-measurement operator 1 is not unitary$"):
            ll_channel(qutrit, obs, [eye, bad, eye])
        with pytest.raises(NotUnitaryError, match=r"^post-measurement operator 1 is not unitary$"):
            ll_channel(qutrit, obs, [eye, bad, eye2])
        with pytest.raises(InvalidInputError, match=r"^unitary 1 dims \(2,\) != \(3,\)$"):
            ll_channel(qutrit, obs, [eye, eye2, bad])


def _collapse_reference(state, obs, branch):
    # Oracle: P_i psi / ||P_i psi|| from branch i's own columns alone.
    cols = obs.branch_basis(branch)
    vec = cols @ (cols.conj().T @ state.amps)
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("seed", range(16))
def test_batched_collapse_equals_a_per_branch_collapse(seed):
    # ll_channel, state_preparation_unitaries and project_update against a
    # per-branch collapse; every third state lies in one eigenspace, so
    # the other branches are dead.
    rng = np.random.default_rng([seed, 12])
    d = int(rng.integers(2, 9))
    obs = random_observable(rng, (d,), degenerate=(d >= 3 and seed % 2 == 0))
    state = random_state(rng, (d,))
    if seed % 3 == 0:
        state = StateVector((d,), _collapse_reference(state, obs, obs.branch_count - 1))
    weights = branch_weights(state, obs)
    live = [n for n in range(obs.branch_count) if weights[n] > ZERO_PROB_CUTOFF]
    unitaries = [Operator((d,), random_unitary(rng, d)) for _ in range(obs.branch_count)]
    records = ll_channel(state, obs, unitaries)
    assert [rec.branch_index for rec in records] == live
    for rec in records:
        n = rec.branch_index
        assert type(n) is int and rec.eigenvalue == obs.eigenvalue(n)
        assert rec.probability == weights[n]
        want = unitaries[n].entries @ _collapse_reference(state, obs, n)
        assert np.max(np.abs(rec.post_state.amps - want)) <= 1e-14
        got = project_update(state, obs, n).amps
        assert np.max(np.abs(got - _collapse_reference(state, obs, n))) <= 1e-14
    target = random_state(rng, (d,))
    to_target = _orthonormal_completion(target.amps)
    for n, u in enumerate(state_preparation_unitaries(state, obs, target)):
        if n not in live:
            assert np.array_equal(u.entries, np.eye(d))
            continue
        from_collapsed = _orthonormal_completion(_collapse_reference(state, obs, n))
        assert np.max(np.abs(u.entries - to_target @ from_collapsed.conj().T)) <= 1e-14


class TestPhaseUnitaries:
    def test_pure_phase_channel(self):
        unitaries = phase_unitaries(SIGMA_Z, [0.8, 2.3], dt=1.0)
        records = ll_channel(PLUS, SIGMA_Z, unitaries)
        for rec in records:
            assert rec.probability == pytest.approx(0.5)
            collapsed = project_update(PLUS, SIGMA_Z, rec.branch_index)
            overlap = abs(np.vdot(collapsed.amps, rec.post_state.amps))
            assert overlap == pytest.approx(1.0, abs=1e-14)
            expected = np.exp(-1j * [0.8, 2.3][rec.branch_index]) * collapsed.amps
            np.testing.assert_allclose(rec.post_state.amps, expected, atol=1e-14)

    def test_wrong_frequency_count(self):
        with pytest.raises(InvalidInputError):
            phase_unitaries(SIGMA_Z, [1.0], dt=1.0)


class TestStatePreparation:
    def test_all_posts_hit_target(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            state = random_state(rng, (d,))
            obs = random_observable(rng, (d,), degenerate=(d >= 3))
            target = random_state(rng, (d,))
            unitaries = state_preparation_unitaries(state, obs, target)
            assert all(u.is_unitary(1e-10) for u in unitaries)
            for rec in ll_channel(state, obs, unitaries):
                dev = float(np.max(np.abs(rec.post_state.amps - target.amps)))
                assert dev < 1e-12

    def test_dead_branch_gets_identity(self):
        unitaries = state_preparation_unitaries(
            basis_state(2, 0), SIGMA_Z, basis_state(2, 1)
        )
        np.testing.assert_allclose(unitaries[0].entries, np.eye(2), atol=1e-15)

    def test_target_dims_mismatch(self):
        with pytest.raises(InvalidInputError):
            state_preparation_unitaries(PLUS, SIGMA_Z, basis_state(3, 0))


class TestNonselectiveChannel:
    def test_dephases_plus(self):
        rho = nonselective_channel(density_from_pure(PLUS), SIGMA_Z)
        np.testing.assert_allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-15)

    def test_frozen_entropy(self):
        rho = nonselective_channel(density_from_pure(TILTED), SIGMA_Z)
        assert von_neumann_entropy(rho) == pytest.approx(ENTROPY_36_64, abs=1e-12)

    def test_diagonal_fixed_point(self):
        rho = DensityMatrix((2,), np.diag([0.25, 0.75]))
        out = nonselective_channel(rho, SIGMA_Z)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-15)

    def test_dims_mismatch(self):
        with pytest.raises(InvalidInputError):
            nonselective_channel(DensityMatrix((3,), np.eye(3) / 3.0), SIGMA_Z)


class TestClassicalSelective:
    def test_born_readout(self):
        rho = nonselective_channel(density_from_pure(TILTED), SIGMA_Z)
        p, post = classical_selective(rho, SIGMA_Z, 0)
        assert p == pytest.approx(0.64, abs=1e-14)
        np.testing.assert_allclose(post.entries, np.diag([0.0, 1.0]), atol=1e-14)
        assert von_neumann_entropy(post) == pytest.approx(0.0, abs=1e-10)

    def test_nonborn_readout_frozen(self):
        rho = nonselective_channel(density_from_pure(TILTED), SIGMA_Z)
        p0, _ = classical_selective(rho, SIGMA_Z, 0, nonborn_exponent(2.0))
        p1, _ = classical_selective(rho, SIGMA_Z, 1, nonborn_exponent(2.0))
        assert p0 == pytest.approx(P_LARGE_Q2, abs=1e-15)
        assert p1 == pytest.approx(P_SMALL_Q2, abs=1e-15)

    def test_coherent_state_rejected(self):
        with pytest.raises(NotDecoheredError):
            classical_selective(density_from_pure(PLUS), SIGMA_Z, 0)

    def test_dead_block_rejected(self):
        rho = DensityMatrix((2,), np.diag([1.0, 0.0]))
        with pytest.raises(ZeroProbabilityBranchError):
            classical_selective(rho, SIGMA_Z, 0)

    def test_dims_mismatch(self):
        with pytest.raises(InvalidInputError):
            classical_selective(DensityMatrix((3,), np.eye(3) / 3.0), SIGMA_Z, 0)


def test_classical_blocks_built_once_per_state(monkeypatch):
    # Reading every branch of one decohered state builds its blocks and runs
    # its decoherence check once, not once per branch.
    calls = []

    def counting(rho, obs, rule=BORN, branches=None):
        calls.append(obs.branch_count)
        return _classical_branches(rho, obs, rule, branches)

    monkeypatch.setattr(cli, "_verify_workers", lambda trials: 1)  # one inline share
    # measurement too, so a caller going back to classical_selective per
    # branch would be counted once per branch.
    for module in (measurement, cli, scenario):
        monkeypatch.setattr(module, "_classical_branches", counting)
    text = "kind = entropy_demo\nstate = 0.6 0.8\n"
    records = dict(scenario.run_scenario(scenario.parse_scenario(text, "tilted")))
    assert len(calls) == 1
    assert "p.0" in records and "p.1" in records
    calls.clear()
    (check,) = cli._run_battery(cli._ENTROPY, trials=0, dims_limit=6, seed=1234)
    assert check.passed
    assert len(calls) == 50 and sum(calls) > 50


def test_entropy_path_dephases_once(monkeypatch):
    # The dephased state and the live branches come from one _dephase call
    # per entropy trial and per entropy_demo run.
    calls = []

    def counting(rho, obs, original=measurement._dephase):
        calls.append(obs.branch_count)
        return original(rho, obs)

    monkeypatch.setattr(measurement, "_dephase", counting)
    monkeypatch.setattr(cli, "_verify_workers", lambda trials: 1)  # one inline share
    (check,) = cli._run_battery(cli._ENTROPY, trials=0, dims_limit=6, seed=1234)
    assert check.passed and len(calls) == 50
    calls.clear()
    text = "kind = entropy_demo\nstate = 0.6 0.8\n"
    records = dict(scenario.run_scenario(scenario.parse_scenario(text, "tilted")))
    assert len(calls) == 1 and "entropy_nonselective" in records


def test_one_eigvalsh_per_density_in_entropy_demo(monkeypatch):
    # The positivity check's spectrum is kept on the DensityMatrix and reused
    # by von_neumann_entropy, so every density costs one eigvalsh.
    text = (
        "kind = entropy_demo\nstate = 0.3 0.5-0.2i 0.1 0.7\n"
        "obs = matrix 1 0 0 0; 0 1 0.5i 0; 0 -0.5i 2 0; 0 0 0 1\n"
    )
    cached = scenario.run_scenario(scenario.parse_scenario(text, "demo"))

    def recomputing(rho):
        # von_neumann_entropy as it was: diagonalise again.
        evals = np.linalg.eigvalsh(rho.entries)
        evals = np.clip(evals, 0.0, None)
        pos = evals[evals > 0.0]
        return float(-(pos * np.log2(pos)).sum())

    with monkeypatch.context() as patch:
        patch.setattr(scenario, "von_neumann_entropy", recomputing)
        recomputed = scenario.run_scenario(scenario.parse_scenario(text, "demo"))
    assert [r for r in cached if r[0].startswith("entropy_")] == [
        r for r in recomputed if r[0].startswith("entropy_")
    ]
    assert cached == recomputed

    densities, eigvalsh_calls = [], []
    original_eigvalsh, original_init = np.linalg.eigvalsh, DensityMatrix.__post_init__

    def counting_eigvalsh(a, *args, **kwargs):
        eigvalsh_calls.append(a.shape)
        return original_eigvalsh(a, *args, **kwargs)

    def counting_init(self):
        densities.append(self)
        original_init(self)

    monkeypatch.setattr(core.np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_init)
    records = dict(scenario.run_scenario(scenario.parse_scenario(text, "demo")))
    # rho, the dephased state and one conditional state per live branch.
    assert len(densities) == 2 + sum(k.startswith("p.") for k in records)
    assert len(eigvalsh_calls) == len(densities)


def test_entropy_still_rejects_negative_spectrum():
    rho = DensityMatrix((2,), np.diag([0.5, 0.5]))
    object.__setattr__(rho, "spectrum", np.array([-1e-9, 1.0]))
    with pytest.raises(InvalidDensityError):
        von_neumann_entropy(rho)
