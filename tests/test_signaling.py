import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim import (
    BORN,
    ZERO_PROB_CUTOFF,
    InvalidInputError,
    OutcomeDistribution,
    TelepathyScenario,
    basis_state,
    bob_distribution_with_alice,
    bob_distribution_without_alice,
    channel_simulation,
    embed_observable,
    nonborn_exponent,
    observable_from_branches,
    observable_from_matrix,
    project_update,
    rule_probabilities,
    signaling_gap,
    swap_parties,
    tensor,
    tv_distance,
)
from bornsim import core, signaling, verify
from bornsim.presets import observable_preset, state_preset
from bornsim.rand import random_observable, random_state, random_unitary
from bornsim.scenario import parse_scenario, run_scenario
from bornsim.measurement import _transform_weights
from bornsim.signaling import (
    MAX_SHOTS,
    _alice_branches,
    _cell_weights,
    _scenario_cells,
    _sample_counts,
    _signaling_check,
)

SIGMA_Z = observable_preset("sigma_z")
SIGMA_X = observable_from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
BELL = state_preset("bell_pair")
# sqrt(0.36)|00> + sqrt(0.64)|11>, the asymmetric signaling witness.
WITNESS_STATE = state_preset("asymmetric(0.36)")

# Oracle: Fraction(36, 100)**2 / (Fraction(36, 100)**2 + Fraction(64, 100)**2)
# = 81/337; gap = Fraction(64, 100) - Fraction(256, 337) = -1008/8425.
P_SMALL_Q2 = 0.2403560830860534
P_LARGE_Q2 = 0.7596439169139466
WITNESS_GAP = 0.11964391691394659


def _witness(q=2.0):
    return TelepathyScenario(WITNESS_STATE, SIGMA_Z, SIGMA_Z, nonborn_exponent(q))


def _lifted_reference_arms(scenario):
    # Bob's two arms from composite-system operators: Alice's lifted
    # projectors collapse the global state, Bob's lifted projectors are then
    # read on each collapsed branch.
    state, rule = scenario.state, scenario.bob_rule
    lifted_a = embed_observable(scenario.alice_obs, state.dims, 0)
    lifted_b = embed_observable(scenario.bob_obs, state.dims, 1)
    with_alice = np.zeros(lifted_b.branch_count)
    for i, w in enumerate(rule_probabilities(BORN, state, lifted_a).probs):
        if w > ZERO_PROB_CUTOFF:
            collapsed = project_update(state, lifted_a, i)
            with_alice += w * rule_probabilities(rule, collapsed, lifted_b).probs
    without_alice = rule_probabilities(rule, state, lifted_b).probs
    return with_alice / with_alice.sum(), without_alice


def _cell_reference_arms(cells, q):
    # Bob's two arms from plain-numpy cell weights under the exponent-q rule.
    def rule(w):
        w = (w / w.max()) ** q
        return w / w.sum()

    alice = cells.sum(axis=1)
    live = alice > ZERO_PROB_CUTOFF
    with_alice = sum(
        a * rule(row) for a, row in zip(alice[live] / alice[live].sum(), cells[live])
    )
    return with_alice, rule(cells.sum(axis=0))


def _assert_arms(scenario, reference, tol):
    with_alice, without_alice = reference
    np.testing.assert_allclose(
        bob_distribution_with_alice(scenario).probs, with_alice, rtol=0, atol=tol
    )
    np.testing.assert_allclose(
        bob_distribution_without_alice(scenario).probs, without_alice, rtol=0, atol=tol
    )
    gap = 0.5 * float(np.abs(with_alice - without_alice).sum())
    assert abs(signaling_gap(scenario) - gap) <= tol


def test_arms_match_lifted_projector_reference():
    for t in range(80):
        rng = np.random.default_rng([17, t])
        d0, d1 = (int(x) for x in rng.integers(2, 6, size=2))
        scenario = TelepathyScenario(
            random_state(rng, (d0, d1)),
            random_observable(rng, (d0,), degenerate=(d0 >= 3 and t % 2 == 0)),
            random_observable(rng, (d1,), degenerate=(d1 >= 3 and t % 3 == 0)),
            nonborn_exponent((1.0, 2.0, 0.5, 30.0)[t % 4]),
        )
        for s in (scenario, swap_parties(scenario)):
            _assert_arms(s, _lifted_reference_arms(s), 1e-12)


@pytest.mark.parametrize("q", [1.0, 2.0, 0.5, 30.0])
def test_swapped_arms_read_off_the_transposed_cells(q):
    # Swapping the parties transposes W, so the transposed cells give the
    # arms of swap_parties without a second W.
    for t in range(40):
        rng = np.random.default_rng([18, t])
        d0, d1 = (int(x) for x in rng.integers(2, 7, size=2))
        scenario = TelepathyScenario(
            random_state(rng, (d0, d1)),
            random_observable(rng, (d0,), degenerate=(d0 >= 3 and t % 2 == 0)),
            random_observable(rng, (d1,), degenerate=(d1 >= 3 and t % 3 == 0)),
            nonborn_exponent(q),
        )
        swapped = _signaling_check(_scenario_cells(scenario).T, scenario.bob_rule)[:2]
        mirrored = swap_parties(scenario)
        arms = bob_distribution_with_alice(mirrored), bob_distribution_without_alice(mirrored)
        for got, want in zip(swapped, arms):
            assert np.max(np.abs(got - want.probs)) <= 1e-14


@pytest.mark.parametrize("q", [1.0, 2.0, 0.5, 30.0])
def test_checked_gap_is_the_tv_distance_of_the_arms(q):
    # verify's array gap equals tv_distance of the labelled arms, bit for
    # bit, in both directions.
    for t in range(40):
        rng = np.random.default_rng([19, t])
        d0, d1 = (int(x) for x in rng.integers(2, 7, size=2))
        cells = _scenario_cells(TelepathyScenario(
            random_state(rng, (d0, d1)),
            random_observable(rng, (d0,), degenerate=(d0 >= 3 and t % 2 == 0)),
            random_observable(rng, (d1,)),
        ))
        for w in (cells, cells.T):
            with_alice, without_alice, gap = _signaling_check(w, nonborn_exponent(q))
            labels = tuple(range(w.shape[1]))
            arms = [OutcomeDistribution(labels, p) for p in (with_alice, without_alice)]
            assert gap == tv_distance(*arms)


def test_checked_gap_checks_each_arm(monkeypatch):
    # Each arm passes the check OutcomeDistribution runs, so an arm off
    # normalisation raises as the labelled arm would; each public arm
    # raises on either arm, since the kernel checks both.
    cells = _scenario_cells(_witness())
    branches, transform = signaling._alice_branches, signaling._transform_weights

    def off_mixed(*args):  # Alice's branch weights, mixed into the with-Alice arm
        weights, rows = branches(*args)
        return weights * (1 + 1e-9), rows

    def off_intact(weights, rule):  # Bob's rule on the intact state's weights
        probs = transform(weights, rule)
        return probs * (1 + 1e-9) if probs.ndim == 1 else probs

    for name, off in (("_alice_branches", off_mixed), ("_transform_weights", off_intact)):
        with monkeypatch.context() as patch:
            patch.setattr(signaling, name, off)
            for public_arm in (bob_distribution_with_alice, bob_distribution_without_alice):
                with pytest.raises(InvalidInputError, match="probabilities sum to"):
                    public_arm(_witness(1.0))
            with pytest.raises(InvalidInputError, match="probabilities sum to"):
                _signaling_check(cells, BORN)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.just(0.0) | st.floats(1e-300, 1.0), min_size=3, max_size=3)
        .filter(lambda row: max(row) > 0.0),
        min_size=1, max_size=6,
    ),
    st.sampled_from([1.0, 2.0, 0.5, 30.0, 1e3]),
)
def test_rule_on_rows_equals_the_rule_on_each_row(rows, q):
    # One 2-D transform gives every row's 1-D transform bit for bit, so the
    # Monte Carlo channel draws from the same arrays as before.
    rule = nonborn_exponent(q)
    batched = _transform_weights(np.array(rows), rule)
    for row, got in zip(rows, batched):
        assert np.array_equal(got, _transform_weights(np.array(row), rule))


def _ranked_observable(rng, d, rank):
    basis = random_unitary(rng, d)
    return observable_from_branches(
        [
            (float(i), basis[:, c : c + rank] @ basis[:, c : c + rank].conj().T)
            for i, c in enumerate(range(0, d, rank))
        ],
        dims=(d,),
    )


def test_large_bipartite_state_matches_cell_weights():
    # 64 x 64 with 32 two-dimensional branches per party; the lifted
    # projectors would be 32 matrices of 4096 x 4096 per party.
    rng = np.random.default_rng(64)
    state = random_state(rng, (64, 64))
    alice, bob = _ranked_observable(rng, 64, 2), _ranked_observable(rng, 64, 2)
    born = TelepathyScenario(state, alice, bob, BORN)
    assert signaling_gap(born) < 1e-12
    assert signaling_gap(swap_parties(born)) < 1e-12
    m = state.amps.reshape(64, 64)
    cells = np.array(
        [
            [np.linalg.norm(p.entries @ m @ r.entries.T) ** 2 for r in bob.projectors]
            for p in alice.projectors
        ]
    )
    quadratic = TelepathyScenario(state, alice, bob, nonborn_exponent(2.0))
    _assert_arms(quadratic, _cell_reference_arms(cells, 2.0), 1e-12)
    _assert_arms(swap_parties(quadratic), _cell_reference_arms(cells.T, 2.0), 1e-12)


def test_born_rule_does_not_signal_at_256_by_256():
    # Random observables with Haar eigenbases on a 256 x 256 random state:
    # 65536 amplitudes, up to 256 branches per party.
    rng = np.random.default_rng(256)
    state = random_state(rng, (256, 256))
    scenario = TelepathyScenario(
        state, random_observable(rng, (256,)), random_observable(rng, (256,)), BORN
    )
    assert scenario.alice_obs.branch_count > 1 and scenario.bob_obs.branch_count > 1
    assert signaling_gap(scenario) < 1e-12
    assert signaling_gap(swap_parties(scenario)) < 1e-12


def test_bell_cell_weights():
    # Alice's branch 0 (eigenvalue -1, her |1>) pairs only with Bob's branch 0.
    cells = _scenario_cells(TelepathyScenario(BELL, SIGMA_Z, SIGMA_Z))
    np.testing.assert_allclose(cells, [[0.5, 0.0], [0.0, 0.5]], atol=1e-14)


def test_zero_weight_alice_row_is_skipped():
    # On |0>|0> Alice's branch 0 (her |1>) has weight 0: its all-zero row of
    # cell weights must be left out of the mixture, not normalised.
    state = tensor([basis_state(2, 0), basis_state(2, 0)])
    scenario = TelepathyScenario(state, SIGMA_Z, SIGMA_Z, nonborn_exponent(2.0))
    np.testing.assert_array_equal(_scenario_cells(scenario), [[0.0, 0.0], [0.0, 1.0]])
    assert bob_distribution_with_alice(scenario).probs.tolist() == [0.0, 1.0]
    assert bob_distribution_without_alice(scenario).probs.tolist() == [0.0, 1.0]
    assert signaling_gap(scenario) == 0.0
    mc = channel_simulation(scenario, 1, 100, np.random.default_rng(0))
    assert mc.probs.tolist() == [0.0, 1.0]


def test_born_never_signals(rng):
    for _ in range(20):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        scenario = TelepathyScenario(
            random_state(rng, (d1, d2)),
            random_observable(rng, (d1,)),
            random_observable(rng, (d2,)),
            BORN,
        )
        assert signaling_gap(scenario) < 1e-12
        assert signaling_gap(swap_parties(scenario)) < 1e-12


def test_product_state_never_signals_any_rule(rng):
    for q in (0.5, 2.0, 3.0):
        state = tensor([random_state(rng, (2,)), random_state(rng, (3,))])
        scenario = TelepathyScenario(
            state, SIGMA_Z, random_observable(rng, (3,)), nonborn_exponent(q)
        )
        assert signaling_gap(scenario) < 1e-12


def test_bell_pair_hides_quadratic_rule():
    # Symmetric weights (1/2, 1/2) are a fixed point of every exponent, so
    # even a non-Born Bob cannot see Alice on this state.
    scenario = TelepathyScenario(BELL, SIGMA_Z, SIGMA_Z, nonborn_exponent(2.0))
    for arm in (bob_distribution_with_alice, bob_distribution_without_alice):
        np.testing.assert_allclose(arm(scenario).probs, [0.5, 0.5], atol=1e-14)
    assert signaling_gap(scenario) < 1e-14


def test_witness_frozen_distributions():
    scenario = _witness()
    with_alice = bob_distribution_with_alice(scenario)
    without_alice = bob_distribution_without_alice(scenario)
    # Bob branch 0 is his second basis vector, weight 0.64.
    assert with_alice.prob_of(0) == pytest.approx(0.64, abs=1e-14)
    assert with_alice.prob_of(1) == pytest.approx(0.36, abs=1e-14)
    assert without_alice.prob_of(0) == pytest.approx(P_LARGE_Q2, abs=1e-14)
    assert without_alice.prob_of(1) == pytest.approx(P_SMALL_Q2, abs=1e-14)
    assert signaling_gap(scenario) == pytest.approx(WITNESS_GAP, abs=1e-14)


def test_witness_gap_is_operationally_large():
    assert signaling_gap(_witness()) > 0.05


def test_witness_symmetric_under_swap():
    # The witness state maps to itself under party exchange.
    assert signaling_gap(swap_parties(_witness())) == pytest.approx(
        WITNESS_GAP, abs=1e-14
    )


def test_swap_parties_involution(rng):
    state = random_state(rng, (2, 3))
    scenario = TelepathyScenario(
        state, random_observable(rng, (2,)), random_observable(rng, (3,))
    )
    back = swap_parties(swap_parties(scenario))
    assert back.state.dims == (2, 3)
    np.testing.assert_allclose(back.state.amps, state.amps, atol=1e-15)


def test_channel_simulation_matches_analytic():
    scenario = _witness()
    rng = np.random.default_rng(99)
    mc_with = channel_simulation(scenario, 1, 100_000, rng)
    mc_without = channel_simulation(scenario, 0, 100_000, rng)
    analytic_with = bob_distribution_with_alice(scenario)
    analytic_without = bob_distribution_without_alice(scenario)
    assert float(np.max(np.abs(mc_with.probs - analytic_with.probs))) < 0.01
    assert float(np.max(np.abs(mc_without.probs - analytic_without.probs))) < 0.01
    mc_gap = 0.5 * float(np.abs(mc_with.probs - mc_without.probs).sum())
    assert abs(mc_gap - WITNESS_GAP) < 0.01


def test_channel_simulation_single_shot():
    dist = channel_simulation(_witness(), 1, 1, np.random.default_rng(0))
    assert float(dist.probs.sum()) == pytest.approx(1.0)
    assert set(np.round(dist.probs, 12)) <= {0.0, 1.0}


def test_channel_simulation_validation():
    scenario = _witness()
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        channel_simulation(scenario, 2, 10, rng)
    with pytest.raises(InvalidInputError):
        channel_simulation(scenario, 0, 0, rng)


def _choice_counts(rng, p, n):
    # Oracle: one rng.choice index per draw, then counted.
    return np.bincount(rng.choice(p.size, size=n, p=p), minlength=p.size)


def _reference_channel(scenario, bit, shots, rng):
    # channel_simulation as it sampled with rng.choice, one index per shot.
    nb = scenario.bob_obs.branch_count
    counts = np.zeros(nb, dtype=np.int64)
    if bit == 1:
        weights, rows = _alice_branches(_scenario_cells(scenario), scenario.bob_rule)
        picks = rng.choice(len(weights), size=shots, p=weights)
        for k, probs in enumerate(rows):
            n_k = int(np.count_nonzero(picks == k))
            if n_k == 0:
                continue
            counts += _choice_counts(rng, probs / probs.sum(), n_k)
    else:
        probs = bob_distribution_without_alice(scenario).probs
        counts += _choice_counts(rng, probs / probs.sum(), shots)
    return counts / float(shots)


_weight = st.just(0.0) | st.floats(1e-300, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.lists(st.just(0.0), max_size=3),
        st.lists(_weight, min_size=1, max_size=58),
        st.lists(st.just(0.0), max_size=3),
    )
    .map(lambda parts: parts[0] + parts[1] + parts[2])
    .filter(lambda ws: max(ws) > 0.0),
    st.integers(1, 5000),
    st.integers(0, 2**32 - 1),
)
def test_sample_counts_equal_choice_counts(weights, n, seed):
    # Same uniforms, same counts and the same generator state afterwards,
    # with zero weights in leading, inner and trailing positions.
    w = np.array(weights)
    p = w / w.sum()
    mine, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(
        _sample_counts(mine, p, n), _choice_counts(oracle, p, n)
    )
    assert mine.random() == oracle.random()


class _FixedUniforms(np.random.Generator):
    # A Generator whose random(n) returns given uniforms; rng.choice draws
    # through it too, so both samplers can be fed values on the boundaries.
    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = uniforms

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.uniforms.size
        return self.uniforms.copy()


@pytest.mark.parametrize(
    "weights",
    [[0.1] * 10, [0.0, 0.3, 0.0, 0.0, 0.7, 0.0], [1.0], [1e-300, 1.0, 1e-300]],
)
def test_sample_counts_equal_choice_counts_on_cdf_boundaries(weights):
    # Uniforms at and one ulp below every cdf entry below 1 (choice's cdf,
    # normalised by its last entry): ties go to the upper outcome.
    w = np.array(weights)
    p = w / w.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    edges = cdf[cdf < 1.0]
    u = np.concatenate([edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
    np.testing.assert_array_equal(
        _sample_counts(_FixedUniforms(u), p, u.size),
        _choice_counts(_FixedUniforms(u), p, u.size),
    )


@pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf")])
def test_sample_counts_reject_bad_probabilities(bad):
    with pytest.raises(InvalidInputError):
        _sample_counts(np.random.default_rng(0), np.array([0.5, bad, 0.5]), 10)


def _diagonal_observable(d, labels):
    return observable_from_matrix(np.diag(np.asarray(labels, dtype=float)[:d]))


def test_channel_simulation_matches_choice_reference():
    for t in range(120):
        rng = np.random.default_rng([23, t])
        d0, d1 = (int(x) for x in rng.integers(2, 7, size=2))
        if t % 10 == 0:
            # Product basis state and diagonal observables: zero Alice rows
            # and zero Bob outcomes.
            state = tensor([basis_state(d0, 0), basis_state(d1, d1 - 1)])
            alice = _diagonal_observable(d0, [1, 2, 2, 3, 3, 3])
            bob = _diagonal_observable(d1, [3, 1, 2, 1, 2, 3])
        else:
            state = random_state(rng, (d0, d1))
            alice = random_observable(rng, (d0,), degenerate=(d0 >= 3 and t % 2 == 0))
            bob = random_observable(rng, (d1,), degenerate=(d1 >= 3 and t % 3 == 0))
        q = (1.0, 2.0, 0.5, 30.0)[t % 4]
        scenario = TelepathyScenario(state, alice, bob, nonborn_exponent(q))
        shots = (1, 7, 1000, 20_000)[(t // 4) % 4]
        mine, oracle = np.random.default_rng([29, t]), np.random.default_rng([29, t])
        for bit in (1, 0, 1):
            np.testing.assert_array_equal(
                channel_simulation(scenario, bit, shots, mine).probs,
                _reference_channel(scenario, bit, shots, oracle),
            )
        assert mine.random() == oracle.random()


class _Drawn(Exception):
    pass


class _RefusingGenerator:
    # Stands in for a Generator and stops at the first draw, so the cap's
    # boundary is tested without allocating MAX_SHOTS uniforms.
    def random(self, n):
        raise _Drawn(n)


@pytest.mark.parametrize("bit", [0, 1])
def test_shots_cap_boundary(bit):
    scenario = _witness()
    with pytest.raises(_Drawn) as drawn:
        channel_simulation(scenario, bit, MAX_SHOTS, _RefusingGenerator())
    assert drawn.value.args == (MAX_SHOTS,)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match=str(MAX_SHOTS)):
            channel_simulation(scenario, bit, MAX_SHOTS + 1, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert rng.bit_generator.state == before


class TestScenarioValidation:
    def test_needs_two_subsystems(self):
        with pytest.raises(InvalidInputError):
            TelepathyScenario(basis_state(4, 0), SIGMA_Z, SIGMA_Z)

    def test_alice_dims_must_match(self):
        obs3 = observable_from_matrix(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidInputError):
            TelepathyScenario(BELL, obs3, SIGMA_Z)

    def test_bob_dims_must_match(self):
        obs3 = observable_from_matrix(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(InvalidInputError):
            TelepathyScenario(BELL, SIGMA_Z, obs3)


def test_cell_weights_computed_once_per_evaluation(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _cell_weights(*args)

    # The telepathy runner calls the signaling kernel on its own W, through
    # the same signaling._arms as the public functions.
    monkeypatch.setattr(signaling, "_cell_weights", counting)
    scenario = TelepathyScenario(WITNESS_STATE, SIGMA_Z, SIGMA_Z, nonborn_exponent(2.0))
    signaling_gap(scenario)
    assert len(calls) == 1
    calls.clear()
    text = "kind = telepathy\nstate = asymmetric(0.36)\nrule = nonborn_exponent\nq = 2\n"
    records = dict(run_scenario(parse_scenario(text, "witness")))
    assert len(calls) == 1
    assert "mc_shots" not in records


def _fresh_scenario(scenario):
    # The same scenario with nothing kept on it.
    return TelepathyScenario(scenario.state, scenario.alice_obs, scenario.bob_obs,
                             scenario.bob_rule)


def _readings(scenario_of, seed):
    # Every public reading of a scenario, each from scenario_of(), and the
    # generator's final state after both channel bits at one seed.
    rng = np.random.default_rng(seed)
    mc = [channel_simulation(scenario_of(), bit, 1000, rng).probs for bit in (1, 0)]
    return [bob_distribution_with_alice(scenario_of()).probs,
            bob_distribution_without_alice(scenario_of()).probs,
            signaling_gap(scenario_of()), *mc, rng.bit_generator.state]


def _assert_same_readings(got, expected):
    *arrays, state = got
    *reference, reference_state = expected
    for a, b in zip(arrays, reference, strict=True):
        assert np.array_equal(a, b)
    assert state == reference_state


def test_a_scenario_computes_its_cells_and_arms_once(monkeypatch):
    # The three public readers and both channel bits of one scenario share
    # one W and one signaling check, and so do the telepathy runner and the
    # witness check of verify.
    calls = {"_cell_weights": 0, "_signaling_check": 0}
    for name in calls:
        def counting(*args, name=name, original=getattr(signaling, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(signaling, name, counting)
    scenario = _witness()
    _readings(lambda: scenario, 5)
    assert calls == {"_cell_weights": 1, "_signaling_check": 1}
    text = ("kind = telepathy\nstate = asymmetric(0.36)\nrule = nonborn_exponent\nq = 2\n"
            "shots = 100\nseed = 3\n")
    assert "mc_shots" in dict(run_scenario(parse_scenario(text, "witness")))
    assert calls == {"_cell_weights": 2, "_signaling_check": 2}
    assert verify._check_witness(1).passed
    assert calls == {"_cell_weights": 3, "_signaling_check": 3}


@pytest.mark.parametrize("q", [1.0, 2.0, 0.5])
def test_kept_cells_and_arms_equal_a_fresh_scenarios_bit_for_bit(q):
    for t in range(6):
        rng = np.random.default_rng([64, t])
        d0, d1 = (int(x) for x in rng.integers(2, 6, size=2))
        scenario = TelepathyScenario(
            random_state(rng, (d0, d1)),
            random_observable(rng, (d0,), degenerate=(d0 >= 3 and t % 2 == 0)),
            random_observable(rng, (d1,), degenerate=(d1 >= 3)),
            nonborn_exponent(q))
        kept = _readings(lambda: scenario, [65, t])
        _assert_same_readings(_readings(lambda: scenario, [65, t]), kept)
        _assert_same_readings(_readings(lambda: _fresh_scenario(scenario), [65, t]), kept)
        assert np.array_equal(_scenario_cells(scenario),
                              _scenario_cells(_fresh_scenario(scenario)))
        for arr in (_scenario_cells(scenario), *scenario._check[:2], *kept[:2]):
            assert not arr.flags.writeable


def test_kept_cells_and_arms_are_in_neither_eq_nor_repr():
    scenario = _witness()
    before = repr(scenario)
    signaling_gap(scenario)
    assert scenario._cells is not None and scenario._check is not None
    assert repr(scenario) == before and "_cells" not in before and "_check" not in before
    assert scenario == _witness()
    kept = [f for f in dataclasses.fields(scenario) if f.name in ("_cells", "_check")]
    assert len(kept) == 2
    assert not any(f.init or f.repr or f.compare for f in kept)


def test_replaced_and_unpickled_scenarios_give_the_same_numbers():
    scenario = _witness()
    kept = _readings(lambda: scenario, 66)
    replaced = dataclasses.replace(scenario)
    assert replaced._cells is None and replaced._check is None
    for other in (replaced, pickle.loads(pickle.dumps(scenario))):
        _assert_same_readings(_readings(lambda: other, 66), kept)


def test_swap_parties_checks_no_state_again(monkeypatch):
    # The transpose of a checked state's amplitudes is finite and of norm 1.
    rng = np.random.default_rng(67)
    scenario = TelepathyScenario(random_state(rng, (2, 3)), SIGMA_Z, random_observable(rng, (3,)))
    calls = []
    monkeypatch.setattr(core, "_check_states", calls.append)
    amps = swap_parties(scenario).state.amps
    assert calls == []
    assert np.array_equal(amps, scenario.state.amps.reshape(2, 3).T.reshape(-1))
    assert amps.flags.c_contiguous and not amps.flags.writeable
    assert not np.shares_memory(amps, scenario.state.amps)
