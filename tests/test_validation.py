"""Validation table for the value types: which inputs each constructor
rejects, with which exception class and message, plus the round-off it
repairs.  Pins the checks themselves, so a cheaper check must reject and
report exactly what the old one did."""

import dataclasses
import pickle
import reprlib

import numpy as np
import pytest

from bornsim.core import (DensityMatrix, Operator, OutcomeDistribution, StateVector, basis_state,
                          partial_trace, tensor)
from bornsim.errors import InvalidDensityError, InvalidInputError, InvalidProjectorFamilyError
from bornsim.measurement import (
    ProbabilityRule,
    branch_weights,
    classical_selective,
    ll_channel,
    measure_selective,
    nonselective_channel,
    project_update,
    state_preparation_unitaries,
)
from bornsim.observables import (Observable, embed_observable, observable_from_branches,
                                 observable_from_matrix)
from bornsim.pointer import (JointDistribution, PointerSchemeSetup, conditional_b_given_a,
                             one_pointer_setup, run_one_pointer, run_two_pointer,
                             two_pointer_setup)
from bornsim.signaling import TelepathyScenario, channel_simulation, signaling_gap

NAN_IMAG = complex(0.0, np.nan)
INF_REAL = complex(np.inf, 0.0)


def _with(base, index, value):
    out = np.array(base, dtype=complex)
    out[index] = value
    return out


_HALF = np.full((2, 2), 0.5, dtype=complex)  # the density of |+>
_EYE = np.eye(2, dtype=complex)
_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_SIGMA_Z = observable_from_matrix(np.diag([1.0, -1.0]))
_QUTRIT = StateVector((3,), [1.0, 0.0, 0.0])
_QUBIT = StateVector((2,), [1.0, 0.0])
_MIXED_QUTRIT = DensityMatrix((3,), np.eye(3) / 3)
_MIXED_PAIR = DensityMatrix((2, 2), np.eye(4) / 4)
_BELL_STATE = StateVector((2, 2), [1.0, 0.0, 0.0, 1.0] / np.sqrt(2))
_BELL = TelepathyScenario(_BELL_STATE, _SIGMA_Z, _SIGMA_Z)

REJECTED = [
    # (case, constructor, exception class, exact message)
    ("state nan imag", lambda: StateVector((2,), _with([1, 0], 1, NAN_IMAG)),
     InvalidInputError, "state vector contains non-finite entries"),
    ("state inf real", lambda: StateVector((2,), _with([1, 0], 1, INF_REAL)),
     InvalidInputError, "state vector contains non-finite entries"),
    ("state norm 1 + 2e-10", lambda: StateVector((1,), [1 + 2e-10]),
     InvalidInputError, "state vector norm 1.0000000002 is not 1"),
    ("state norm overflow", lambda: StateVector((2,), [1e200, 0.0]),
     InvalidInputError, "state vector norm inf is not 1"),
    ("operator nan imag", lambda: Operator((2,), _with(_EYE, (0, 1), NAN_IMAG)),
     InvalidInputError, "operator contains non-finite entries"),
    ("operator inf real", lambda: Operator((2,), _with(_EYE, (1, 0), INF_REAL)),
     InvalidInputError, "operator contains non-finite entries"),
    ("density nan imag", lambda: DensityMatrix((2,), _with(_HALF, (0, 1), NAN_IMAG)),
     InvalidInputError, "density matrix contains non-finite entries"),
    ("density inf real", lambda: DensityMatrix((2,), _with(_HALF, (1, 1), INF_REAL)),
     InvalidInputError, "density matrix contains non-finite entries"),
    ("outcome nan", lambda: OutcomeDistribution((0, 1), [np.nan, 1.0]),
     InvalidInputError, "probabilities contain non-finite entries"),
    ("outcome -2e-12", lambda: OutcomeDistribution((0, 1), [-2e-12, 1.0]),
     InvalidInputError, "negative probability -2e-12"),
    ("outcome sum 1 + 2e-10", lambda: OutcomeDistribution((0, 1), [0.5, 0.5 + 2e-10]),
     InvalidInputError, f"probabilities sum to {0.5 + (0.5 + 2e-10)!r}, not 1"),
    ("joint nan", lambda: JointDistribution([[np.nan, 0.5], [0.5, 0.0]]),
     InvalidInputError, "joint probabilities contain non-finite entries"),
    ("joint -2e-12", lambda: JointDistribution([[-2e-12, 0.5], [0.5, 0.0]]),
     InvalidInputError, "negative joint probability -2e-12"),
    ("joint sum 1 + 2e-10", lambda: JointDistribution([[0.5, 0.0], [0.0, 0.5 + 2e-10]]),
     InvalidInputError, f"joint probabilities sum to {0.5 + (0.5 + 2e-10)!r}, not 1"),
    ("observable inf eigenvalue", lambda: Observable((2,), (0.0, np.inf), _EYE, [0, 1]),
     InvalidProjectorFamilyError, "non-finite eigenvalue"),
    ("observable nan eigenvalue", lambda: Observable((2,), (np.nan, 1.0), _EYE, [0, 1]),
     InvalidProjectorFamilyError, "non-finite eigenvalue"),
    ("observable nan basis", lambda: Observable((2,), (0.0, 1.0),
                                                _with(_EYE, (1, 0), NAN_IMAG), [0, 1]),
     InvalidProjectorFamilyError, "basis must be a finite 2 x 2 matrix"),
    ("observable missing label", lambda: Observable((2,), (0.0, 1.0), _EYE, [0, 0]),
     InvalidProjectorFamilyError, "2 basis column labels must cover branches 0..1"),
    ("observable label out of range", lambda: Observable((2,), (0.0, 1.0), _EYE, [0, 2]),
     InvalidProjectorFamilyError, "2 basis column labels must cover branches 0..1"),
    ("observable negative label", lambda: Observable((2,), (0.0, 1.0), _EYE, [-1, 1]),
     InvalidProjectorFamilyError, "2 basis column labels must cover branches 0..1"),
    ("observable float labels", lambda: Observable((2,), (0.0, 1.0), _EYE, [0.0, 1.0]),
     InvalidProjectorFamilyError, "2 basis column labels must cover branches 0..1"),
    ("observable basis 2e-10 off unitary",
     lambda: Observable((2,), (0.0, 1.0), np.diag([1.0, np.sqrt(1 + 2e-10)]), [0, 1]),
     InvalidProjectorFamilyError, "basis is not unitary"),
    ("operator shape", lambda: Operator((2,), np.eye(3)),
     InvalidInputError, "operator shape (3, 3) does not match dims (2,)"),
    ("density shape", lambda: DensityMatrix((2,), np.eye(3) / 3),
     InvalidDensityError, "density shape (3, 3) does not match dims (2,)"),
    ("outcome label count", lambda: OutcomeDistribution((0, 1), [1.0]),
     InvalidInputError, "1 probabilities for 2 labels"),
    ("state dims not iterable", lambda: StateVector(5, [1.0]),
     InvalidInputError, "dims must be an iterable of ints, got 5"),
    ("observable no branches", lambda: Observable((2,), (), _EYE, [0, 0]),
     InvalidProjectorFamilyError, "observable has no branches"),
    ("branches raw without dims", lambda: observable_from_branches([(0.0, _P0), (1.0, _P1)]),
     InvalidInputError, "dims required for raw projector matrices"),
    ("branches dims mismatch",
     lambda: observable_from_branches([(0.0, Operator((2,), _P0)),
                                       (1.0, Operator((3,), np.eye(3)))]),
     InvalidProjectorFamilyError, "projector dims mismatch: expected (2,)"),
    ("pointer second observable dims",
     lambda: PointerSchemeSetup(StateVector((2,), [1.0, 0.0]), _SIGMA_Z,
                                observable_from_matrix(np.diag([1.0, 2.0, 3.0])), 2, None),
     InvalidInputError, "second observable dims (3,) != state dims (2,)"),
    ("project_update dims", lambda: project_update(StateVector((3,), [1.0, 0.0, 0.0]),
                                                   _SIGMA_Z, 0),
     InvalidInputError, "dims mismatch (2,) vs (3,)"),
    ("state_preparation_unitaries dims",
     lambda: state_preparation_unitaries(_QUTRIT, _SIGMA_Z, _QUTRIT),
     InvalidInputError, "dims mismatch (2,) vs (3,)"),
    ("ll_channel dims", lambda: ll_channel(_QUTRIT, _SIGMA_Z, [Operator((3,), np.eye(3))] * 2),
     InvalidInputError, "dims mismatch (2,) vs (3,)"),
    # Each public function checks the observable's dims against the state's
    # once, after its own range or target check.
    ("branch_weights dims", lambda: branch_weights(_QUTRIT, _SIGMA_Z),
     InvalidInputError, "dims mismatch (2,) vs (3,)"),
    ("nonselective_channel dims", lambda: nonselective_channel(_MIXED_QUTRIT, _SIGMA_Z),
     InvalidInputError, "dims mismatch (2,) vs (3,)"),
    ("classical_selective dims", lambda: classical_selective(_MIXED_QUTRIT, _SIGMA_Z, 0),
     InvalidInputError, "dims mismatch (2,) vs (3,)"),
    ("classical_selective branch before dims",
     lambda: classical_selective(_MIXED_QUTRIT, _SIGMA_Z, 5),
     InvalidInputError, "branch 5 out of range for 2 branches"),
    ("state_preparation_unitaries target before dims",
     lambda: state_preparation_unitaries(_QUTRIT, _SIGMA_Z, _QUBIT),
     InvalidInputError, "target dims (2,) != (3,)"),
    ("telepathy three subsystems",
     lambda: TelepathyScenario(StateVector((2, 2, 2), np.eye(8)[0]), _SIGMA_Z, _SIGMA_Z),
     InvalidInputError, "state must have exactly 2 subsystems, got dims (2, 2, 2)"),
    ("telepathy bob dims",
     lambda: TelepathyScenario(StateVector((2, 3), np.eye(6)[0]), _SIGMA_Z, _SIGMA_Z),
     InvalidInputError, "bob observable dims (2,) do not match subsystem dim 3"),
    # A field that holds a value type is checked for its type first.
    ("telepathy string rule", lambda: TelepathyScenario(_BELL_STATE, _SIGMA_Z, _SIGMA_Z, "born"),
     InvalidInputError, "bob_rule must be a ProbabilityRule, got 'born'"),
    ("telepathy float rule", lambda: TelepathyScenario(_BELL_STATE, _SIGMA_Z, _SIGMA_Z, 2.0),
     InvalidInputError, "bob_rule must be a ProbabilityRule, got 2.0"),
    ("telepathy amplitude array", lambda: TelepathyScenario(_BELL_STATE.amps, _SIGMA_Z, _SIGMA_Z),
     InvalidInputError, f"state must be a StateVector, got {reprlib.repr(_BELL_STATE.amps)}"),
    ("telepathy preset name", lambda: TelepathyScenario(_BELL_STATE, "sigma_z", _SIGMA_Z),
     InvalidInputError, "alice_obs must be an Observable, got 'sigma_z'"),
    ("pointer string state", lambda: PointerSchemeSetup("x", _SIGMA_Z, _SIGMA_Z, 2, 2),
     InvalidInputError, "small_state must be a StateVector, got 'x'"),
    ("two_pointer_setup no first observable", lambda: two_pointer_setup(_QUBIT, None, _SIGMA_Z),
     InvalidInputError, "obs_a must be an Observable, got None"),
    ("pointer first observable dims",
     lambda: PointerSchemeSetup(_QUTRIT, _SIGMA_Z, _SIGMA_Z, 2, 2),
     InvalidInputError, "first observable dims (2,) != state dims (3,)"),
    ("pointer-1 size below branch count",
     lambda: PointerSchemeSetup(_QUBIT, _SIGMA_Z, _SIGMA_Z, 1, None),
     InvalidInputError, "pointer-1 size 1 < branch count 2"),
    ("tensor of nothing", lambda: tensor([]),
     InvalidInputError, "tensor of zero factors"),
    # Malformed input: numpy's or Python's own conversion error is raised as
    # an InvalidInputError by the one conversion every constructor makes.
    ("observable ragged basis", lambda: Observable((2,), (0.0, 1.0), [[1, 0], [0]], [0, 1]),
     InvalidInputError, "basis entries must be numbers, got [[1, 0], [0]]"),
    ("observable string eigenvalue", lambda: Observable((2,), ("x", 1.0), _EYE, [0, 1]),
     InvalidInputError, "eigenvalues must be numbers, got ('x', 1.0)"),
    ("observable ragged labels", lambda: Observable((2,), (0.0, 1.0), _EYE, [[0], [1, 1]]),
     InvalidInputError, "labels must be ints, got [[0], [1, 1]]"),
    ("state string entry", lambda: StateVector((2,), ["x", 1]),
     InvalidInputError, "state vector entries must be numbers, got ['x', 1]"),
    ("state ragged", lambda: StateVector((2,), [[1], [0, 0]]),
     InvalidInputError, "state vector entries must be numbers, got [[1], [0, 0]]"),
    ("operator string entry", lambda: Operator((2,), [["x", 0], [0, 1]]),
     InvalidInputError, "operator entries must be numbers, got [['x', 0], [0, 1]]"),
    ("operator ragged", lambda: Operator((2,), [[1, 0], [0]]),
     InvalidInputError, "operator entries must be numbers, got [[1, 0], [0]]"),
    ("density string entry", lambda: DensityMatrix((2,), [["x", 0], [0, 1]]),
     InvalidInputError, "density entries must be numbers, got [['x', 0], [0, 1]]"),
    ("density ragged", lambda: DensityMatrix((2,), [[1, 0], [0]]),
     InvalidInputError, "density entries must be numbers, got [[1, 0], [0]]"),
    ("outcome string probability", lambda: OutcomeDistribution((0, 1), ["a", 1]),
     InvalidInputError, "probabilities must be numbers, got ['a', 1]"),
    ("joint ragged", lambda: JointDistribution([[1], [0, 0]]),
     InvalidInputError, "joint probabilities must be numbers, got [[1], [0, 0]]"),
    ("rule string exponent", lambda: ProbabilityRule("x"),
     InvalidInputError, "rule exponent must be a number, got 'x'"),
    ("state string dims", lambda: StateVector(("a",), [1.0]),
     InvalidInputError, "dims must be an iterable of ints, got ('a',)"),
    ("state fractional dims", lambda: StateVector((2.5,), [1.0, 0.0]),
     InvalidInputError, "dims must be an iterable of ints, got (2.5,)"),
    # Integer parameters outside the value types pass the same conversion:
    # a fractional one is not truncated and a string is not compared.
    ("measure_selective fractional force_branch",
     lambda: measure_selective(_QUBIT, _SIGMA_Z, force_branch=0.7),
     InvalidInputError, "branch must be an int, got 0.7"),
    ("one_pointer_setup fractional size",
     lambda: one_pointer_setup(_QUBIT, _SIGMA_Z, _SIGMA_Z, 2.5),
     InvalidInputError, "pointer-1 size must be an int, got 2.5"),
    ("pointer-1 string size", lambda: PointerSchemeSetup(_QUBIT, _SIGMA_Z, _SIGMA_Z, "x", None),
     InvalidInputError, "pointer-1 size must be an int, got 'x'"),
    ("pointer-2 string size", lambda: PointerSchemeSetup(_QUBIT, _SIGMA_Z, _SIGMA_Z, 2, "x"),
     InvalidInputError, "pointer-2 size must be an int, got 'x'"),
    ("partial_trace fractional keep entry", lambda: partial_trace(_MIXED_PAIR, (1.7,)),
     InvalidInputError, "keep must be an int or an iterable of ints, got (1.7,)"),
    ("partial_trace fractional keep", lambda: partial_trace(_MIXED_PAIR, 1.5),
     InvalidInputError, "keep must be an int or an iterable of ints, got 1.5"),
    ("basis_state string index", lambda: basis_state(2, "a"),
     InvalidInputError, "basis index must be an int, got 'a'"),
    ("embed_observable fractional subsystem", lambda: embed_observable(_SIGMA_Z, (2, 2), 0.5),
     InvalidInputError, "subsystem must be an int, got 0.5"),
    ("channel_simulation fractional shots",
     lambda: channel_simulation(_BELL, 1, 2.5, np.random.default_rng(0)),
     InvalidInputError, "shots must be an int, got 2.5"),
    ("channel_simulation string shots",
     lambda: channel_simulation(_BELL, 1, "x", np.random.default_rng(0)),
     InvalidInputError, "shots must be an int, got 'x'"),
    ("channel_simulation array bit",
     lambda: channel_simulation(_BELL, np.array([0, 1]), 10, np.random.default_rng(0)),
     InvalidInputError, "bit must be an int, got array([0, 1])"),
    ("channel_simulation one-entry array bit",
     lambda: channel_simulation(_BELL, np.array([1]), 10, np.random.default_rng(0)),
     InvalidInputError, "bit must be an int, got array([1])"),
    ("channel_simulation float bit",
     lambda: channel_simulation(_BELL, 1.0, 10, np.random.default_rng(0)),
     InvalidInputError, "bit must be an int, got 1.0"),
    ("channel_simulation numpy bit out of range",
     lambda: channel_simulation(_BELL, np.int64(2), 10, np.random.default_rng(0)),
     InvalidInputError, "bit must be 0 or 1, got 2"),
    ("project_update fractional branch", lambda: project_update(_QUBIT, _SIGMA_Z, 0.5),
     InvalidInputError, "branch must be an int, got 0.5"),
    ("classical_selective fractional branch",
     lambda: classical_selective(DensityMatrix((2,), np.eye(2) / 2), _SIGMA_Z, 0.5),
     InvalidInputError, "branch must be an int, got 0.5"),
    ("eigenvalue fractional branch", lambda: _SIGMA_Z.eigenvalue(0.5),
     InvalidInputError, "branch must be an int, got 0.5"),
    ("projector fractional branch", lambda: _SIGMA_Z.projector(0.5),
     InvalidInputError, "branch must be an int, got 0.5"),
    ("branch_basis fractional branch", lambda: _SIGMA_Z.branch_basis(0.5),
     InvalidInputError, "branch must be an int, got 0.5"),
    ("branch_rank fractional branch", lambda: _SIGMA_Z.branch_rank(0.5),
     InvalidInputError, "branch must be an int, got 0.5"),
    ("conditional_b_given_a fractional branch",
     lambda: conditional_b_given_a(JointDistribution([[0.5, 0.0], [0.0, 0.5]]), 0.5),
     InvalidInputError, "branch must be an int, got 0.5"),
]


@pytest.mark.parametrize("build, cls, message",
                         [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_rejected_with_class_and_message(build, cls, message):
    with pytest.raises(cls) as info:
        build()
    assert type(info.value) is cls
    assert str(info.value) == message


def test_round_off_negative_is_clipped_to_exact_zero():
    for probs in (OutcomeDistribution((0, 1), [-1e-13, 1.0]).probs,
                  JointDistribution([[-1e-13, 0.5], [0.5, 0.0]]).probs.reshape(-1)):
        assert probs[0] == 0.0 and not np.signbit(probs[0])
        assert not probs.flags.writeable


def test_in_tolerance_inputs_are_accepted():
    # Half of each tolerance away from exact: accepted unchanged.
    assert StateVector((1,), [1 + 5e-11]).amps[0] == 1 + 5e-11
    assert OutcomeDistribution((0, 1), [0.5, 0.5 + 5e-11]).probs[1] == 0.5 + 5e-11
    obs = Observable((2,), (0.0, 1.0), np.diag([1.0, np.sqrt(1 + 5e-11)]), [0, 1])
    assert obs.branch_count == 2


def _arrays(value, path="value"):
    # (path, array) for every array a value holds: in its fields, kept
    # results included, in nested values and in tuples such as a _Stack.
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name), f"{path}.{f.name}")


_SIGMA_X = observable_from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("value, keep", [
    (_QUTRIT, None),
    (Operator((2,), [[0.0, 1j], [-1j, 0.0]]), None),
    (_MIXED_PAIR, None),
    (OutcomeDistribution((0, 1), [-1e-13, 1.0]), None),
    (_SIGMA_X, None),
    (JointDistribution([[0.25, 0.25], [0.5, 0.0]]), None),
    (two_pointer_setup(StateVector((2,), [0.6, 0.8j]), _SIGMA_Z, _SIGMA_X), run_two_pointer),
    (one_pointer_setup(StateVector((2,), [0.6, 0.8j]), _SIGMA_X, _SIGMA_Z), run_one_pointer),
    (TelepathyScenario(_BELL_STATE, _SIGMA_Z, _SIGMA_X, ProbabilityRule(2.0)), signaling_gap),
], ids=["state", "operator", "density", "distribution", "observable", "joint",
        "two_pointer_setup", "one_pointer_setup", "scenario"])
def test_an_unpickled_value_is_read_only_and_keeps_what_a_fresh_one_computes(value, keep):
    # The round trip runs the constructor: every array is read-only, the
    # numbers are the original's, and results kept by the original are
    # computed again, to the bits a fresh value computes.
    if keep is not None:
        keep(value)
    copy, fresh = pickle.loads(pickle.dumps(value)), dataclasses.replace(value)
    for computed in (copy, fresh):
        if keep is not None:
            keep(computed)
    got = dict(_arrays(copy))
    for expected in (dict(_arrays(value)), dict(_arrays(fresh))):
        assert got.keys() == expected.keys()
        for path, array in got.items():
            assert not array.flags.writeable, path
            assert array.dtype == expected[path].dtype, path
            assert np.array_equal(array, expected[path]), path
