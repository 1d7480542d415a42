import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bornsim import cli, measurement, pointer, rand, scenario, signaling
from bornsim.cli import MAX_DIMS_LIMIT, main
from bornsim.errors import InvalidInputError
from bornsim.pointer import POINTER_STATE_MAX_AMPS, SCHEME_AGREEMENT_TOL
from bornsim.presets import SCENARIO_PRESETS
from bornsim.scenario import KINDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bornsim", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def set_workers(monkeypatch, workers):
    # Each verify battery runs in this many shares: share 0 in this process,
    # the others in forked children.  Tests that count calls made in this
    # process pin one share, which runs inline and forks nothing.
    monkeypatch.setattr(cli, "_verify_workers", lambda trials: workers)


def test_run_epr_records(capsys):
    code, out, err = run_cli(capsys, "run", "epr_bohm", "--format", "records")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["scenario"] == "epr_bohm"
    assert lines["kind"] == "epr"
    assert lines["seed"] == "1234"
    assert lines["p_ij.0.0"] == "0.5"
    assert lines["p_ij.1.1"] == "0.5"
    assert lines["p_ij.0.1"] == "0"
    assert lines["final_state.1"] == "0.707106781187+0i"
    assert lines["final_state.2"] == "-0.707106781187+0i"
    assert lines["max_projection_deviation"] == "0"


def test_run_epr_table(capsys):
    code, out, err = run_cli(capsys, "run", "epr_bohm")
    assert code == 0
    assert out.splitlines()[0] == "scenario epr_bohm  kind=epr  seed=1234"


@pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
@pytest.mark.parametrize("fmt", ["table", "records"])
def test_every_preset_runs(capsys, name, fmt):
    code, out, err = run_cli(capsys, "run", name, "--format", fmt)
    assert code == 0 and err == ""
    assert out.strip()


def test_records_are_reproducible():
    # The Monte Carlo preset is seeded, so two runs are byte-identical.
    a = run_proc("run", "telepathy_nonborn", "--format", "records")
    b = run_proc("run", "telepathy_nonborn", "--format", "records")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert "mc_shots=100000" in a.stdout


def test_telepathy_nonborn_monte_carlo_records_are_pinned(capsys):
    # The seeded Monte Carlo lines as first recorded; the sampler may change
    # how it counts shots but not which shots it draws.
    code, out, _ = run_cli(capsys, "run", "telepathy_nonborn", "--format", "records")
    assert code == 0
    lines = out.splitlines()
    for line in (
        "mc_p_with_alice.0=0.63943",
        "mc_p_with_alice.1=0.36057",
        "mc_p_without_alice.0=0.75765",
        "mc_p_without_alice.1=0.24235",
        "mc_gap=0.11822",
    ):
        assert line in lines


def test_telepathy_nonborn_gap(capsys):
    code, out, _ = run_cli(capsys, "run", "telepathy_nonborn", "--format", "records")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["rule"] == "nonborn_exponent"
    assert lines["q"] == "2"
    assert float(lines["signaling_gap"]) == pytest.approx(0.11964391691394659, abs=1e-12)
    assert abs(float(lines["mc_gap"]) - 0.11964391691394659) < 0.01


def test_scenario_file_with_matrix_observable(tmp_path, capsys):
    path = tmp_path / "demo.scn"
    path.write_text(
        "kind = two_pointer\n"
        "seed = 77\n"
        "state = 3 4  # normalized to (0.6, 0.8)\n"
        "obs_a = matrix 1 0; 0 -1\n"
        "obs_b = sigma_x\n"
    )
    code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["scenario"] == "demo"
    assert lines["seed"] == "77"
    assert lines["p_i.0"] == "0.64"
    assert lines["p_i.1"] == "0.36"
    assert float(lines["oracle_joint_max_dev"]) < SCHEME_AGREEMENT_TOL


def test_scenario_file_with_branch_observable(tmp_path, capsys):
    path = tmp_path / "branches.scn"
    path.write_text(
        "kind = one_pointer\n"
        "state = 1 0\n"
        "obs_a = branches\n"
        "obs_a.eigenvalues = -1 1\n"
        "obs_a.projector.0 = 0 0; 0 1\n"
        "obs_a.projector.1 = 1 0; 0 0\n"
        "obs_b = sigma_x\n"
    )
    code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["p_i.1"] == "1"
    assert lines["p_i.0"] == "0"


def test_corrupt_projector_family_is_invariant_violation(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text(
        "kind = one_pointer\n"
        "state = 1 0\n"
        "obs_a = branches\n"
        "obs_a.eigenvalues = -1 1\n"
        "obs_a.projector.0 = 0.5 0; 0 0.5\n"
        "obs_a.projector.1 = 0.5 0; 0 0.5\n"
        "obs_b = sigma_x\n"
    )
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 3
    assert "invariant violation [InvalidProjectorFamilyError]" in err


def test_non_hermitian_matrix_is_invariant_violation(tmp_path, capsys):
    path = tmp_path / "nonherm.scn"
    path.write_text(
        "kind = one_pointer\nstate = plus\nobs_a = matrix 0 1; 0 0\nobs_b = sigma_x\n"
    )
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 3
    assert "invariant violation [NotHermitianError]" in err


def test_large_exponent_does_not_underflow(tmp_path, capsys):
    # 0.36**2000 and 0.64**2000 both underflow to 0 unless the weights are
    # rescaled before the exponent is applied.
    path = tmp_path / "q2000.scn"
    path.write_text(
        "kind = telepathy\n"
        "state = asymmetric(0.36)\n"
        "obs_a = sigma_z\n"
        "obs_b = sigma_z\n"
        "rule = nonborn_exponent\n"
        "q = 2000\n"
    )
    code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["p_without_alice.0"] == "1"
    assert lines["signaling_gap"] == "0.36"


@pytest.mark.parametrize("q", ["0", "-2"])
def test_nonpositive_exponent_is_parse_error(tmp_path, capsys, q):
    path = tmp_path / "bad_q.scn"
    path.write_text(f"kind = telepathy\nstate = asymmetric(0.36)\n"
                    f"rule = nonborn_exponent\nq = {q}\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2 and out == ""
    assert err == f"parse error: field 'q': must be > 0, got {q}\n"


def test_large_two_pointer_file_is_oracle_checked(tmp_path, capsys):
    # Composite dimension 2*120*120 = 28800: the oracle applies the couplings
    # to the register tensor and never builds a dense shift unitary.
    path = tmp_path / "huge.scn"
    path.write_text(
        "kind = two_pointer\n"
        "state = plus\n"
        "obs_a = sigma_z\n"
        "obs_b = sigma_x\n"
        "pointer1_size = 120\n"
        "pointer2_size = 120\n"
    )
    code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
    assert code == 0 and err == ""
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(lines["oracle_joint_max_dev"]) < 1e-12


def test_oversized_pointer_state_is_invariant_violation(tmp_path, capsys):
    # 2 * 10**8 amplitudes: the setup is refused before the state is allocated.
    path = tmp_path / "long_pointer.scn"
    path.write_text(
        "kind = one_pointer\n"
        "state = plus\n"
        "obs_a = sigma_z\n"
        "obs_b = sigma_x\n"
        "pointer1_size = 100000000\n"
    )
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3 and out == ""
    assert "invariant violation [InvalidInputError]" in err
    assert "200000000" in err and str(2**24) in err


def test_too_many_shots_is_invariant_violation(tmp_path, capsys):
    # 10**10 shots: refused before any uniform is drawn.
    path = tmp_path / "many_shots.scn"
    path.write_text(
        "kind = telepathy\n"
        "state = asymmetric(0.36)\n"
        "rule = nonborn_exponent\n"
        "q = 2\n"
        "shots = 10000000000\n"
    )
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3 and out == ""
    assert "invariant violation [InvalidInputError]" in err
    assert "10000000000" in err and str(2**24) in err
    assert "Traceback" not in err


def test_entropy_demo_skips_branch_below_psd_tol(tmp_path, capsys):
    # Branch 0 has Born weight 4.9e-11: above ZERO_PROB_CUTOFF but at most
    # PSD_TOL, so the selective readout leaves it out instead of failing.
    path = tmp_path / "tiny_branch.scn"
    path.write_text("kind = entropy_demo\nstate = 1 7e-6\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
    assert code == 0 and err == ""
    keys = [line.split("=", 1)[0] for line in out.splitlines()]
    assert "p.1" in keys and "entropy_branch.1" in keys
    assert "p.0" not in keys


@pytest.mark.parametrize(
    "body",
    [
        "kind = one_pointer\nstate = plus\nobs_a = sigma_z\nobs_b = sigma_x\nbogus = 1\n",
        "kind = telepathy\nstate = 0.5+zi 0.5\nstate_dims = 2 1\n",
        "kind = warp_drive\n",
        "kind = epr\nkind = epr\n",
        "kind = one_pointer\nstate = plus\nobs_a = sigma_z\n",  # missing obs_b
        "no equals sign here\n",
        "kind = telepathy\nstate = bell_pair\nrule = born\nq = 2\n",
        "kind = two_pointer\nstate = 0 0\nobs_a = sigma_z\nobs_b = sigma_x\n",
    ],
)
def test_malformed_scenarios_exit_2(tmp_path, capsys, body):
    path = tmp_path / "bad.scn"
    path.write_text(body)
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "no/such/file.scn")
    assert code == 2
    assert "no such file or preset" in err


def test_presets_listing(capsys):
    code, out, err = run_cli(capsys, "presets")
    assert code == 0 and err == ""
    for section in ("states:", "observables:", "scenarios:"):
        assert section in out
    for name in ("bell_pair", "sigma_z", "epr_bohm", "stern_gerlach", "telepathy_nonborn"):
        assert name in out


def test_verify_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 0
    assert "epr_reproduction" in out
    assert "FAIL" not in out
    assert "all 9 properties passed" in out


def test_verify_oracle_checks_every_trial(capsys):
    # Trial 6 at the default seed has d * na * nb = 24 * 13 * 15 = 4680
    # composite dimensions; it is oracle-checked like every other trial.
    code, out, _ = run_cli(capsys, "verify", "--trials", "7", "--dims-limit", "24")
    assert code == 0
    assert "all 9 properties passed" in out
    line = next(l for l in out.splitlines() if l.startswith("oracle_agreement"))
    fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
    assert fields["trials"] == "7"
    assert "oracle_trials" not in fields
    assert float(fields["worst"]) < 1e-12


def test_verify_rejects_bad_args(capsys):
    code, _, err = run_cli(capsys, "verify", "--trials", "0")
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(capsys, "verify", "--dims-limit", "1")
    assert code == 2 and "parse error" in err


def test_negative_seed_is_a_usage_error(tmp_path):
    proc = run_proc("verify", "--seed", "-1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "parse error: --seed must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    path = tmp_path / "negative_seed.scn"
    path.write_text("kind = telepathy\nstate = bell_pair\nseed = -1\nshots = 10\n")
    proc = run_proc("run", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "parse error: field 'seed': must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dims_limit_above_the_pointer_cap_is_refused_before_any_trial(capsys):
    # The largest --dims-limit is the largest d whose d x d x d two-pointer
    # state fits POINTER_STATE_MAX_AMPS; no trial at that size runs here.
    assert MAX_DIMS_LIMIT == 256
    assert MAX_DIMS_LIMIT**3 <= POINTER_STATE_MAX_AMPS < (MAX_DIMS_LIMIT + 1) ** 3
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--dims-limit", "257")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "parse error: --dims-limit must be between 2 and 256, got 257" in err
    assert peak < 2**20


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = run_proc("run", "epr_bohm")
    assert proc.returncode == 0
    assert "scenario epr_bohm" in proc.stdout


def _verify_layout(seed, trials, degenerate, few):
    # One regex per verify line: names, order, limits, trial counts and seed
    # streams are fixed; the measured worst values and worst trials are not.
    w = r"worst=\S+"
    pointer = rf"trials={trials} degenerate={degenerate} worst_seed=\[{seed},1,\d+\]"
    rows = [
        ("epr_reproduction", rf"{w} limit=1e-12"),
        ("projection_equivalence", rf"{w} limit=1e-10 {pointer}"),
        ("scheme_agreement", rf"{w} limit=1e-12 {pointer}"),
        ("oracle_agreement", rf"{w} limit=1e-12 {pointer}"),
        ("no_signaling_born", rf"{w} limit=1e-12 trials={trials} worst_seed=\[{seed},2,\d+\]"),
        ("telepathy_witness", r"analytic_dev=\S+ limit=1e-06 mc_dev=\S+ mc_limit=0\.01"),
        ("born_marginals", rf"{w} limit=1e-12"),
        ("entropy_monotonicity", rf"{w} limit=1e-10 trials={few} worst_seed=\[{seed},4,\d+\]"),
        ("ll_channel_invariance", rf"{w} limit=1e-12 trials={few} worst_seed=\[{seed},5,\d+\]"),
    ]
    lines = [re.escape(f"{name:<24} ") + body + "  PASS" for name, body in rows]
    return lines + [re.escape("verify: all 9 properties passed")]


@pytest.mark.parametrize(
    "argv, layout",
    [
        ((), (1234, 200, 54, 50)),
        (("--trials", "7", "--dims-limit", "5", "--seed", "99"), (99, 7, 3, 50)),
    ],
)
def test_verify_layout_is_pinned(capsys, argv, layout):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    expected = _verify_layout(*layout)
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        assert re.fullmatch(pattern, line), (line, pattern)


def test_every_pointer_setup_is_evolved_once(tmp_path, capsys, monkeypatch):
    # verify and run evolve each pointer setup they build exactly once: the
    # projection deviation and the cross-checks reuse the one joint.
    set_workers(monkeypatch, 1)
    evolved = []
    for name in ("run_two_pointer", "run_one_pointer"):

        def counting(setup, original=getattr(pointer, name)):
            evolved.append(setup)  # held, so no two setups share an id
            return original(setup)

        for module in (pointer, cli, scenario):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    code, _, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 0
    base = "state = 0.6 0.8i\nobs_a = sigma_z\nobs_b = sigma_x\npointer1_size = 3\n"
    for kind, extra in (("two_pointer", "pointer2_size = 4\n"), ("one_pointer", "")):
        path = tmp_path / f"{kind}.scn"
        path.write_text(f"kind = {kind}\n{base}{extra}")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 0, err
    counts = Counter(id(setup) for setup in evolved)
    # verify: the epr setup, then one two-pointer and one one-pointer setup
    # per trial; run: the two-pointer file, the one-pointer file and its twin.
    assert len(counts) == 1 + 2 * 10 + 3
    assert set(counts.values()) == {1}


def test_verify_batteries_build_no_per_branch_objects(capsys, monkeypatch):
    # The pointer battery checks the projection postulate from whole-observable
    # arrays: no collapsed state, conditional or Born distribution per branch.
    # The no-signaling battery reads both directions off one W per trial.
    set_workers(monkeypatch, 1)
    calls, battery = Counter(), [None]

    def tracking(row, *args, original=cli._run_battery):
        battery[0] = row.stream
        try:
            return original(row, *args)
        finally:
            battery[0] = None

    monkeypatch.setattr(cli, "_run_battery", tracking)
    names = ("project_update", "rule_probabilities", "conditional_b_given_a", "_cell_weights")
    for name, home in zip(names, (measurement, measurement, pointer, signaling)):
        original = getattr(home, name)

        def counting(*args, original=original, name=name):
            calls[battery[0], name] += 1
            return original(*args)

        for module in (measurement, pointer, signaling, cli, scenario):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, _, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 0
    stream = cli._POINTER.stream
    assert [calls[stream, name] for name in names[:3]] == [0, 0, 0]
    assert calls[cli._NO_SIGNALING.stream, "_cell_weights"] == 10
    # The hooks are live: the one-shot checks outside the batteries hit them.
    assert calls[None, "rule_probabilities"] > 0 and calls[None, "_cell_weights"] > 0


@pytest.mark.parametrize(
    "key, body",
    [
        ("obs_a", "kind = one_pointer\nstate = plus\nobs_a = matrix 1 0 0; 0 2 0; 0 0 3\n"
                  "obs_b = sigma_x\n"),
        ("obs.projector.1", "kind = entropy_demo\nstate = plus\nobs = branches\n"
                            "obs.eigenvalues = 0 1\nobs.projector.0 = 1 0; 0 0\n"
                            "obs.projector.1 = 0 0 0; 0 1 0; 0 0 0\n"),
        ("omegas", "kind = stern_gerlach\nomegas = 0.8 2.3 3.1\n"),
        ("pointer1_size", "kind = one_pointer\nstate = plus\nobs_a = sigma_z\n"
                          "obs_b = sigma_x\npointer1_size = 1\n"),
        ("pointer2_size", "kind = two_pointer\nstate = plus\nobs_a = sigma_z\n"
                          "obs_b = sigma_x\npointer2_size = -1\n"),
        ("target", "kind = ll_scheme\nstate = plus\ntarget = 1 0 0\n"),
    ],
)
def test_size_mismatches_are_parse_errors(tmp_path, capsys, key, body):
    # Fields that disagree in size are a malformed file, caught before any
    # object is built from them.
    path = tmp_path / "mismatch.scn"
    path.write_text(body)
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"parse error: field '{key}': ")


# Scenario text for the parser fuzz: each kind's real keys with plausible
# values at dims <= 4, pointer sizes <= 64 and shots <= 1000, one value in
# sixteen replaced by a junk token, and one text in four with a junk line.
_JUNK = st.sampled_from(
    ["", "x", "=", "==", ";", "; ;", "#", "nan", "inf", "-inf", "1e400", "-1", "0",
     "1e-320", "0x10", "1i", "i", "+-1", "1 2;", "matrix", "branches", "()",
     "asymmetric(", "asymmetric(2)", "asymmetric(nan)", "\t", "é", "1_0"]
)
_AMPS = st.lists(
    st.sampled_from(["0", "1", "-1", "0.5", "0.6", "0.8i", "0.5-0.5i", "1e-9", "3"]),
    min_size=1, max_size=4,
).map(" ".join)
_STATE = st.one_of(
    st.sampled_from(["up", "down", "plus", "minus", "bell_pair", "epr_bohm",
                     "asymmetric(0.36)", "asymmetric(1)", "nowhere"]),
    _AMPS,
)
_DIMS = st.lists(st.sampled_from("012234"), min_size=1, max_size=3).map(" ".join)
_MATRIX = st.sampled_from(
    ["1 0; 0 -1", "0 1; 1 0", "1 0; 0 0", "0 0; 0 1", "1 0; 0 1", "1 2; 3 4",
     "0 -1i; 1i 0", "1 0 0; 0 2 0; 0 0 2", "1 0 0 0; 0 1 0 0; 0 0 -1 0; 0 0 0 -1",
     "0.5 0.5; 0.5 0.5", "1 0; 0", "nan 0; 0 1"]
)
_OBS = st.one_of(
    st.sampled_from(["sigma_z", "sigma_x", "sigma_y", "matrix", "spin"]),
    _MATRIX.map(lambda m: f"matrix {m}"),
)
_NUMBERS = st.lists(st.sampled_from(["-1", "0", "0.5", "1", "2", "1e3"]), min_size=1,
                    max_size=4).map(" ".join)


def _line(key, values):
    return st.integers(0, 15).flatmap(lambda r: _JUNK if r == 15 else values).map(
        lambda v: [f"{key} = {v}"]
    )


def _maybe(lines):
    return st.one_of(lines, st.just([]))


def _rarely(lines):
    return st.integers(0, 3).flatmap(lambda r: lines if r == 3 else st.just([]))


def _observable(base):
    # A preset or inline matrix, or a branch family whose projector count
    # may not match its eigenvalues.
    family = st.tuples(_line(f"{base}.eigenvalues", _NUMBERS), st.lists(_MATRIX, max_size=3))
    family = family.map(
        lambda t: [f"{base} = branches", *t[0],
                   *(f"{base}.projector.{i} = {m}" for i, m in enumerate(t[1]))]
    )
    return st.one_of(_line(base, _OBS), family)


_STATE_LINES = [_line("state", _STATE), _rarely(_line("state_dims", _DIMS))]
_KIND_FIELDS = {
    "two_pointer": [*_STATE_LINES, _observable("obs_a"), _observable("obs_b"),
                    _maybe(_line("pointer1_size", st.integers(-1, 64).map(str))),
                    _maybe(_line("pointer2_size", st.integers(-1, 64).map(str)))],
    "one_pointer": [*_STATE_LINES, _observable("obs_a"), _observable("obs_b"),
                    _maybe(_line("pointer1_size", st.integers(-1, 64).map(str)))],
    "epr": [_maybe(_observable("obs_b"))],
    "stern_gerlach": [_maybe(_line("state", _STATE)), _maybe(_observable("obs")),
                      _maybe(_line("omegas", _NUMBERS)),
                      _maybe(_line("dt", st.sampled_from(["1", "0.7", "0", "-1"])))],
    "ll_scheme": [_maybe(_line("state", _STATE)), _maybe(_observable("obs")),
                  _maybe(_line("target", _STATE)), _rarely(_line("target_dims", _DIMS))],
    "telepathy": [_line("state", st.one_of(st.just("bell_pair"), _STATE)),
                  _maybe(_line("state_dims", st.one_of(st.just("2 2"), _DIMS))),
                  _maybe(_observable("obs_a")), _maybe(_observable("obs_b")),
                  _maybe(_line("rule", st.sampled_from(["born", "nonborn_exponent", "x"]))),
                  _maybe(_line("q", _NUMBERS)),
                  _maybe(_line("shots", st.integers(-1, 1000).map(str)))],
    "entropy_demo": [*_STATE_LINES, _maybe(_observable("obs"))],
}
_NOISE = st.integers(0, 3).flatmap(
    lambda r: st.just([]) if r < 3 else st.one_of(
        _JUNK.map(lambda l: [l]),
        st.tuples(st.sampled_from(["seed", "state", "obs", "obs_a", "q", "bogus"]), _JUNK)
        .map(lambda kv: [" = ".join(kv)]),
    )
)
_SCENARIO_TEXT = st.sampled_from(KINDS).flatmap(
    lambda kind: st.tuples(
        st.just([f"kind = {kind}"]),
        _maybe(_line("seed", st.integers(-2, 10**6).map(str))),
        *_KIND_FIELDS[kind],
        _NOISE,
    )
).map(lambda groups: "\n".join(line for group in groups for line in group))


@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_SCENARIO_TEXT)
def test_scenario_parser_fuzz_exits_cleanly(tmp_path, text):
    # Any scenario text ends with exit 0, 2 or 3, never with an exception.
    path = tmp_path / "fuzz.scn"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(path), "--format", "records"])
    assert code in (0, 2, 3)


def test_ll_channel_invariance_fails_on_shifted_weights(capsys, monkeypatch):
    # The property's reference probabilities are <psi|P_n psi>, not the
    # branch_weights function ll_channel calls, so weights off by 1e-9 must
    # FAIL wherever the function is bound.
    original = measurement.branch_weights
    for module in (measurement, pointer, scenario, signaling, cli):
        if getattr(module, "branch_weights", None) is original:
            monkeypatch.setattr(module, "branch_weights", lambda *a: original(*a) + 1e-9)
    code, out, _ = run_cli(capsys, "verify", "--trials", "40")
    assert code == 1
    failed = [l.split()[0] for l in out.splitlines() if l.endswith("FAIL")]
    assert failed == ["ll_channel_invariance"]
    assert "verify: 1 of 9 properties FAILED" in out


def _set_haar_stack_amps(monkeypatch, amps):
    for module in (rand, cli):
        monkeypatch.setattr(module, "HAAR_STACK_AMPS", amps)


def _stacked_qr_calls(monkeypatch):
    # (battery stream, stack size, matrix size) of every stacked np.linalg.qr
    # call; the per-branch 2-D QRs of state preparation are not counted.
    calls, battery = [], [None]

    def tracking(row, *args, original=cli._run_battery):
        battery[0] = row.stream
        try:
            return original(row, *args)
        finally:
            battery[0] = None

    def recording(a, original=rand.np.linalg.qr):
        if a.ndim == 3:
            calls.append((battery[0], *a.shape[:2]))
        return original(a)

    monkeypatch.setattr(cli, "_run_battery", tracking)
    monkeypatch.setattr(rand.np.linalg, "qr", recording)
    return calls


@pytest.mark.parametrize("seed", ["3", "1234"])
def test_haar_batching_does_not_change_verify_output(capsys, monkeypatch, seed):
    # Every trial flushed and every matrix factored alone, against one flush
    # and one stacked QR per size per battery: the same bytes.
    outs = []
    for amps in (1, 2**40):
        _set_haar_stack_amps(monkeypatch, amps)
        code, out, err = run_cli(capsys, "verify", "--trials", "12", "--dims-limit", "8",
                                 "--seed", seed)
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_default_verify_stacks_one_qr_per_size_per_battery(capsys, monkeypatch):
    set_workers(monkeypatch, 1)
    calls = _stacked_qr_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "verify")
    assert code == 0
    sizes = {stream: sorted(d for s, _, d in calls if s == stream) for stream in (1, 2, 4, 5)}
    assert sizes == {1: [2, 3, 4, 5, 6], 2: [2, 3, 4], 4: list(range(2, 9)), 5: [2, 3, 4, 5, 6]}
    # 200 + 200 + 50 + 50 observables and 129 LL unitaries: the 1029 QRs the
    # per-call draws made, now in 20 stacked calls.
    matrices = Counter()
    for stream, n, _ in calls:
        matrices[stream] += n
    assert matrices == {1: 400, 2: 400, 4: 50, 5: 179}


def test_stacked_qr_stays_within_the_amplitude_budget(capsys, monkeypatch):
    # LL trials at d <= 64 draw up to 65 matrices, more than the budget
    # holds.  Trials are drawn ahead only until the budget is reached, and a
    # stack takes at most the budget or one matrix.
    set_workers(monkeypatch, 1)
    calls, flushed = _stacked_qr_calls(monkeypatch), []

    def recording(ginibres, original=cli._haar):
        flushed.append(sum(z.size for z in ginibres))
        return original(ginibres)

    monkeypatch.setattr(cli, "_haar", recording)
    code, _, _ = run_cli(capsys, "verify", "--trials", "2", "--dims-limit", "64")
    assert code == 0
    assert max(flushed) < rand.HAAR_STACK_AMPS + 65 * 64**2
    assert all(n * d * d <= max(rand.HAAR_STACK_AMPS, d * d) for _, n, d in calls)
    ll = [(n, d) for stream, n, d in calls if stream == cli._LL.stream]
    assert sum(n * d * d for n, d in ll) > 10 * rand.HAAR_STACK_AMPS
    assert len(ll) > len({d for _, d in ll})  # some size took several stacks


def test_invariant_violation_in_a_trial_names_its_trial(capsys, monkeypatch):
    # A collapse off by 1 + 1e-7 fails StateVector validation in the LL check;
    # the exit code and class are unchanged and the message names the trial.
    original = measurement._collapsed
    for module in (measurement, pointer):
        monkeypatch.setattr(module, "_collapsed", lambda *a: original(*a) * (1 + 1e-7))
    code, out, err = run_cli(capsys, "verify", "--trials", "4", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err.startswith(
        "invariant violation [InvalidInputError]: trial [1234,5,0]: state vector norm"
    )


def _rescale_one_pointer_rows(original):
    # Moves 1e-9 of mass from one live row of the one-pointer joint to
    # another by rescaling both whole rows: every p(j|i) stays as it was.
    def mutant(setup):
        final, joint = original(setup)
        probs = joint.probs.copy()
        rows = probs.sum(axis=1)
        live = np.flatnonzero(rows > 1e-3)
        if live.size >= 2:
            probs[live[0]] *= 1 + 1e-9 / rows[live[0]]
            probs[live[1]] *= 1 - 1e-9 / rows[live[1]]
        return final, pointer.JointDistribution(probs)

    return mutant


def _perturb_oracle_cells(original):
    # Moves 1e-9 of mass from the oracle's largest cell to its second largest.
    def mutant(setup):
        probs = original(setup).probs.copy()
        order = np.argsort(probs, axis=None)
        if order.size >= 2:
            probs.flat[order[-1]] -= 1e-9
            probs.flat[order[-2]] += 1e-9
        return pointer.JointDistribution(probs)

    return mutant


def _near_born_gap(original):
    # Bob's arms computed with q = 1 + 1e-6 where verify asks for Born.
    return lambda cells, rule: original(cells, measurement.ProbabilityRule(1 + 1e-6))


def _drop_last_branch(original):
    # The dephased state loses the block of the last branch and is
    # renormalised, as if the branch loop stopped one short.
    def mutant(rho, obs, *args):
        dephased, weights, live = original(rho, obs, *args)
        last = obs.branch_count - 1
        if last in live and len(live) > 1:
            dephased = (dephased - weights[last] * live[last][1].entries) / (1 - weights[last])
        return dephased, weights, live

    return mutant


# One mutant per property; each must FAIL its own property and no other.
# Equivalent mutants, listed and not tested: W transposed in the Born arms
# (verify checks both directions, and Born signals in neither); entropies in
# another log base (every entropy scaled by one positive factor keeps both
# entropy inequalities); the oracle's wrap-around dropped (pointers start at
# |0> and shift by less than their size, so it is never reached).
@pytest.mark.parametrize(
    "name, mutant, prop",
    [
        ("run_one_pointer", _rescale_one_pointer_rows, "scheme_agreement"),
        ("brute_force_joint", _perturb_oracle_cells, "oracle_agreement"),
        ("_shared_born_rows", lambda original: lambda *a: original(*a) + 1e-9,
         "projection_equivalence"),
        ("_checked_gap", _near_born_gap, "no_signaling_born"),
        ("_classical_branches", _drop_last_branch, "entropy_monotonicity"),
    ],
)
def test_each_pointer_property_fails_on_its_defect(capsys, monkeypatch, name, mutant, prop):
    # Two shares per battery: the mutant must reach the forked children too.
    set_workers(monkeypatch, 2)
    original = getattr(cli, name)
    for module in (pointer, measurement, signaling, cli, scenario):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant(original))
    code, out, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 1
    failed = [l.split()[0] for l in out.splitlines() if l.endswith("FAIL")]
    assert failed == [prop]
    assert "verify: 1 of 9 properties FAILED" in out


def _shifted_coupling(offset):
    # The oracle's coupling, written per eigen-row: eigen-row c moves by its
    # branch label plus offset along the pointer axis, with wrap-around.
    def couple(amps, obs, axis):
        rows = np.tensordot(obs.basis.conj().T, amps, axes=1)
        shifted = [np.roll(r, l + offset, axis=axis - 1) for r, l in zip(rows, obs.labels)]
        return np.tensordot(obs.basis, shifted, axes=1)

    return couple


def _oversized_two_pointer_setup(state, obs_a, obs_b):
    # Each pointer one position larger than its observable's branch count.
    return pointer.two_pointer_setup(
        state, obs_a, obs_b, obs_a.branch_count + 1, obs_b.branch_count + 1
    )


def test_oracle_refuses_mass_outside_the_branch_cells(monkeypatch):
    rng = np.random.default_rng(4)
    state = rand.random_state(rng, (4,))
    obs_a, obs_b = (rand.random_observable(rng, (4,)) for _ in range(2))
    assert (obs_a.branch_count, obs_b.branch_count) == (3, 4)
    setup = _oversized_two_pointer_setup(state, obs_a, obs_b)
    exact = pointer.brute_force_joint(setup).probs
    # The per-row coupling with no extra shift is the oracle's own.
    monkeypatch.setattr(pointer, "_couple", _shifted_coupling(0))
    assert np.abs(pointer.brute_force_joint(setup).probs - exact).max() < 1e-14
    # One position further moves the last branches past the cells.
    monkeypatch.setattr(pointer, "_couple", _shifted_coupling(1))
    with pytest.raises(InvalidInputError, match="outside the branch-indexed pointer cells"):
        pointer.brute_force_joint(setup)


def test_oracle_mass_outside_the_cells_names_its_verify_trial(capsys, monkeypatch):
    monkeypatch.setattr(pointer, "_couple", _shifted_coupling(1))
    monkeypatch.setattr(cli, "two_pointer_setup", _oversized_two_pointer_setup)
    code, out, err = run_cli(capsys, "verify", "--trials", "4", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err.startswith(
        "invariant violation [InvalidInputError]: trial [1234,1,0]: probability mass"
    )


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "argv",
    [
        ("--seed", "1"),
        ("--seed", "7"),
        (),
        ("--trials", "30", "--dims-limit", "24"),
        ("--trials", "1"),
        ("--trials", "3", "--seed", "7"),
    ],
)
def test_verify_prints_the_same_bytes_on_any_number_of_shares(capsys, monkeypatch, argv):
    # With --trials 1 and 3 some shares of the pointer and no-signaling
    # batteries are empty.  Four shares fork three children per battery.
    outs = []
    for workers in (1, 2, 3, 4):
        set_workers(monkeypatch, workers)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 0 and err == ""
        outs.append(out)
        _no_child_left()
    assert outs[1:] == outs[:1] * 3


def test_verify_workers_follow_the_affinity_mask(monkeypatch):
    # A single-threaded process runs one share per CPU, at most one per trial.
    probe = ("import os; from bornsim import cli; "
             "print(cli._verify_workers(10**6), cli._verify_workers(1), "
             "len(os.sched_getaffinity(0)))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    many, one, cpus = map(int, proc.stdout.split())
    assert (many, one) == (cpus, 1)
    # One share where the process runs another thread or cannot fork.
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert cli._verify_workers(10**6) == 1
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert cli._verify_workers(10**6) == 1


def _planted(trial, fail_at, raising):
    # The battery's trial, except that the checks of the trials in fail_at
    # take their bases and then call raising(t).
    def planted(rng, t, dims_limit):
        zs, check = trial(rng, t, dims_limit)
        if t not in fail_at:
            return zs, check

        def failing(bases):
            check(bases)
            return raising(t)

        return zs, failing

    return planted


def _plant(monkeypatch, row_name, fail_at, raising):
    row = getattr(cli, row_name)
    monkeypatch.setattr(cli, row_name,
                        dataclasses.replace(row, trial=_planted(row.trial, fail_at, raising)))


def _violation(t):
    raise InvalidInputError(f"planted violation in trial {t}")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_lowest_failing_trial_of_all_shares_is_raised(capsys, monkeypatch, workers):
    # Trial 1 belongs to a child's share and trial 2 to the parent's when
    # there are two shares; the error of trial 1 is raised either way, as
    # the one-share loop raises it.
    set_workers(monkeypatch, workers)
    _plant(monkeypatch, "_NO_SIGNALING", {1, 2}, _violation)
    code, out, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err == ("invariant violation [InvalidInputError]: trial [1234,2,1]: "
                   "planted violation in trial 1\n")
    _no_child_left()


def test_a_foreign_exception_in_a_child_reaches_the_parent(capsys, monkeypatch):
    def foreign(t):
        raise ZeroDivisionError(f"planted in trial {t}")

    set_workers(monkeypatch, 2)
    _plant(monkeypatch, "_ENTROPY", {3}, foreign)
    with pytest.raises(ZeroDivisionError, match="^planted in trial 3$"):
        run_cli(capsys, "verify", "--trials", "4", "--dims-limit", "4")
    _no_child_left()


def test_an_exception_that_does_not_pickle_keeps_its_class_name(capsys, monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def local(t):
        raise LocalError(f"planted in trial {t}")

    set_workers(monkeypatch, 2)
    _plant(monkeypatch, "_ENTROPY", {3}, local)
    with pytest.raises(RuntimeError, match="^LocalError: planted in trial 3$"):
        run_cli(capsys, "verify", "--trials", "4", "--dims-limit", "4")
    _no_child_left()


def test_a_child_that_dies_is_reported_and_reaped(capsys, monkeypatch):
    parent = os.getpid()

    def dying(t):
        if os.getpid() == parent:
            raise AssertionError("trial 1 ran in the parent")
        os._exit(7)

    set_workers(monkeypatch, 2)
    _plant(monkeypatch, "_POINTER", {1}, dying)
    with pytest.raises(RuntimeError, match="exited with code 7 without sending its trials"):
        run_cli(capsys, "verify", "--trials", "4", "--dims-limit", "4")
    _no_child_left()
