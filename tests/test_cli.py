import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bornsim import cli, core, measurement, observables, pointer, rand, scenario, signaling
from bornsim.cli import MAX_DIMS_LIMIT, main
from bornsim.errors import BornsimError, InvalidInputError
from bornsim.pointer import POINTER_STATE_MAX_AMPS, SCHEME_AGREEMENT_TOL
from bornsim.presets import SCENARIO_PRESETS, observable_preset, state_preset
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
    # verify runs in this many shares: share 0 of every battery in this
    # process, each other share in one forked child.  Tests that count calls
    # made in this process pin one share, which runs inline and forks nothing.
    monkeypatch.setattr(cli, "_verify_workers", lambda trials, dims_limit: workers)


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


@pytest.mark.parametrize(
    "obs_a, code, want",
    [
        ("matrix 1e308 0; 0 -1e308", 0, "eigenvalue_a.0=-1e+308\neigenvalue_a.1=1e+308\n"),
        ("matrix 1e308 0; 0 1e308", 0, "eigenvalue_a.0=1e+308\n"),
        ("matrix -1e308 0; 0 -1e308", 0, "eigenvalue_a.0=-1e+308\n"),
        ("matrix 1e308 1e308; -1e308 1e308", 3,
         "invariant violation [NotHermitianError]: matrix deviates from Hermitian by inf\n"),
        ("branches\nobs_a.eigenvalues = 0 1\nobs_a.projector.0 = 1e308 0; 0 0\n"
         "obs_a.projector.1 = 0 0; 0 1", 3,
         "invariant violation [InvalidProjectorFamilyError]: projector is not idempotent\n"),
        # P_0 P_0 holds inf - inf = nan, which must fail like inf.
        ("branches\nobs_a.eigenvalues = 0 1\nobs_a.projector.0 = 1e308 1e308; 1e308 -1e308\n"
         "obs_a.projector.1 = 0 0; 0 1", 3,
         "invariant violation [InvalidProjectorFamilyError]: projector is not idempotent\n"),
    ],
    ids=["gap", "cluster", "negative_cluster", "asymmetry", "family_inf", "family_nan"],
)
def test_matrices_near_the_float_limit(tmp_path, capsys, obs_a, code, want):
    # Entries near the float limit overflow a gap, a cluster sum, an
    # asymmetry or a projector product: valid matrices keep their
    # eigenvalues, invalid ones fail with their usual message, and no
    # RuntimeWarning is raised on the way.
    path = tmp_path / "limit.scn"
    path.write_text(f"kind = two_pointer\nstate = plus\nobs_a = {obs_a}\nobs_b = sigma_x\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, out, err = run_cli(capsys, "run", str(path), "--format", "records")
    assert got == code
    if code:
        assert out == "" and err == want
    else:
        assert err == "" and "".join(l + "\n" for l in out.splitlines()
                                     if l.startswith("eigenvalue_a.")) == want


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


def test_unknown_kind_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad_kind.scn"
    path.write_text("kind = bogus\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2 and out == ""
    assert err == ("parse error: unknown kind 'bogus'; expected one of two_pointer, "
                   "one_pointer, epr, stern_gerlach, ll_scheme, telepathy, entropy_demo\n")
    # A Scenario built by hand skips the parser and is refused by run_scenario.
    with pytest.raises(scenario.ScenarioParseError, match="^unknown kind 'bogus'$"):
        scenario.run_scenario(scenario.Scenario("bogus", "by_hand", 1, {}))


def test_large_two_pointer_file_is_oracle_checked(tmp_path, capsys):
    # Composite dimension 2*120*120 = 28800: the oracle applies the couplings
    # one pointer register at a time and never builds a dense shift unitary.
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
        "kind = stern_gerlach\nomegas = 1e308 1\ndt = 10\n",  # omega * dt overflows
        "state = plus\nobs = sigma_z\n",  # no kind
        "kind = telepathy\nstate = bell_pair\nrule = nonborn_exponent\n",  # no q
        "kind = two_pointer\nobs_a = sigma_z\nobs_b = sigma_x\n",  # no state
        "kind = two_pointer\nstate = up\nobs_a = branches\nobs_b = sigma_x\n",  # no eigenvalues
        "kind = entropy_demo\nstate = plus\nobs = matrix 1 0; ; 0 1\n",  # empty row
        "kind = stern_gerlach\nomegas = 1 2\ndt = inf\n",  # non-finite dt
        "kind = entropy_demo\nstate = plus\nobs = sigma_w\n",  # no such preset
        "kind = two_pointer\nstate = up\nobs_a = sigma_z\nobs_a.eigenvalues = 1 2\n"
        "obs_b = sigma_x\n",  # branch fields next to a preset
    ],
)
def test_malformed_scenarios_exit_2(tmp_path, capsys, body):
    path = tmp_path / "bad.scn"
    path.write_text(body)
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "kind, key, scaled, plain",
    [
        ("entropy_demo", "state", "1e-170 0", "1 0"),
        ("entropy_demo", "state", "1e200 1e200i", "1 1i"),
        ("entropy_demo", "state", "1e-160 1e-160i", "1 1i"),
        ("ll_scheme", "target", "1e-170 1e-170", "1 1"),
        ("ll_scheme", "target", "1e308 -1e308", "1 -1"),
    ],
)
def test_amplitude_lists_beyond_the_float_range_are_normalised(tmp_path, capsys, kind, key,
                                                                scaled, plain):
    # Lists whose sum of squares under- or overflows give the records of the
    # same list scaled into range, with no warning.
    outs = []
    for amps in (scaled, plain):
        path = tmp_path / "scaled.scn"
        path.write_text(f"kind = {kind}\n{key} = {amps}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "no/such/file.scn")
    assert code == 2
    assert "no such file or preset" in err


def test_unreadable_file_exit_2(tmp_path, capsys):
    # A scenario file that is not UTF-8 is malformed input, not a traceback.
    path = tmp_path / "bad.scn"
    path.write_bytes(b"kind = epr\n\xff\xfe\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"parse error: cannot read {path}: ")


def test_a_byte_order_mark_is_not_part_of_the_first_key(tmp_path, capsys):
    outs = []
    for mark in (b"\xef\xbb\xbf", b""):
        path = tmp_path / "epr.scn"
        path.write_bytes(mark + b"kind = epr\n")
        code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind, key", [("entropy_demo", "state"), ("ll_scheme", "target")])
@pytest.mark.parametrize("unit", ["i", "j"])
def test_an_amplitude_list_may_start_with_a_bare_imaginary_unit(tmp_path, capsys, kind, key,
                                                                 unit):
    # A first token that parses as a number is an amplitude, not a preset name.
    outs = []
    for amps in (f"{unit} 1", "0+1i 1"):
        path = tmp_path / "unit.scn"
        path.write_text(f"kind = {kind}\n{key} = {amps}\n")
        code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    for amps, message in (("bogus 1", "unknown state preset 'bogus 1'"),
                          ("inf 1", "")):
        path.write_text(f"kind = {kind}\n{key} = {amps}\n")
        code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: field '{key}': ") and message in err


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(tmp_path):
    # An LL run at d = 120 prints 120 post-states of 120 amplitudes, far more
    # than the 64 KiB a pipe buffers, so run still writes when the reader,
    # like `| head -1`, takes one line and closes the pipe.
    d = 120
    rows = (" ".join(str(i) if i == j else "0" for j in range(d)) for i in range(d))
    path = tmp_path / "ll_120.scn"
    path.write_text(f"kind = ll_scheme\nstate = {' '.join(['1'] * d)}\n"
                    f"obs = matrix {' ; '.join(rows)}\ntarget = 1{' 0' * (d - 1)}\n")
    proc = subprocess.Popen([sys.executable, "-m", "bornsim", "run", str(path),
                             "--format", "records"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == f"scenario={path.stem}\n".encode()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1 and err == b""


def test_presets_listing(capsys):
    code, out, err = run_cli(capsys, "presets")
    assert code == 0 and err == ""
    for section in ("states:", "observables:", "scenarios:"):
        assert section in out
    for name in ("bell_pair", "sigma_z", "epr_bohm", "stern_gerlach", "telepathy_nonborn"):
        assert name in out


def test_preset_observables_are_built_once_and_frozen(capsys):
    sigma_z = observable_preset("sigma_z")
    assert observable_preset(" sigma_z ") is sigma_z
    assert sigma_z.projectors is observable_preset("sigma_z").projectors
    assert sigma_z.eigenvalues == (-1.0, 1.0)
    np.testing.assert_array_equal(sigma_z.matrix().entries, np.diag([1.0, -1.0]))
    for array in (sigma_z.basis, sigma_z.labels):
        with pytest.raises(ValueError):
            array[0] = array[1]
    with pytest.raises(InvalidInputError) as info:
        observable_preset(" sigma_w")
    assert str(info.value) == "unknown observable preset ' sigma_w'"
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    section = out[out.index("observables:"):out.index("scenarios:")]
    assert section == (
        "observables:\n"
        "  sigma_x            Pauli X, eigenvalues -1 and +1\n"
        "  sigma_y            Pauli Y, eigenvalues -1 and +1\n"
        "  sigma_z            Pauli Z, eigenvalues -1 and +1 (basis |0>, |1>)\n"
    )


def test_one_parser_carries_no_state_between_calls(capsys, monkeypatch):
    set_workers(monkeypatch, 1)
    small = ("verify", "--trials", "2", "--dims-limit", "2")
    code, out, _ = run_cli(capsys, *small, "--seed", "5")
    assert code == 0 and "worst_seed=[5," in out
    code, out, _ = run_cli(capsys, *small)
    assert code == 0 and "worst_seed=[1234," in out and "worst_seed=[5," not in out
    code, out, _ = run_cli(capsys, "run", "epr_bohm", "--format", "records")
    assert code == 0 and out.startswith("scenario=epr_bohm\n")
    code, out, _ = run_cli(capsys, "run", "epr_bohm")
    assert code == 0 and out.startswith("scenario epr_bohm  kind=epr  seed=1234\n")
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "presets")[0] == 0
    # build_parser stays a fresh builder: changing its result leaves main alone.
    parser = cli.build_parser()
    assert parser is not cli.build_parser()
    parser.add_argument("--extra", action="store_true")
    with pytest.raises(SystemExit):
        main(["--extra", "presets"])
    assert run_cli(capsys, "presets")[0] == 0


def test_cached_state_does_not_change_run_output(capsys):
    # One fresh process, with cold caches, against the same calls made here
    # after a warm-up.
    names = sorted(SCENARIO_PRESETS)
    probe = ("import sys; from bornsim.cli import main\n"
             "for name in sys.argv[1:]:\n"
             "    for fmt in ('table', 'records'):\n"
             "        assert main(['run', name, '--format', fmt]) == 0\n")
    proc = subprocess.run([sys.executable, "-c", probe, *names], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run_cli(capsys, "run", names[0])
    warm = []
    for name in names:
        for fmt in ("table", "records"):
            code, out, err = run_cli(capsys, "run", name, "--format", fmt)
            assert code == 0 and err == ""
            warm.append(out)
    assert proc.stdout == "".join(warm)


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


def test_one_renderer_prints_every_property_line():
    # A float prints as .3g, an int as itself and a seed tuple as
    # [seed,stream,t]; the name is padded to 24 and two spaces precede the verdict.
    pointer_fields = (("trials", 200), ("degenerate", 54), ("worst_seed", (1234, 1, 5)))
    witness = (("analytic_dev", 1.1102230246251565e-16), ("limit", 1e-6),
               ("mc_dev", 0.0010600000000000002), ("mc_limit", 0.01))
    cases = [
        (cli._within("epr_reproduction", 0.0, 1e-12),
         "epr_reproduction         worst=0 limit=1e-12  PASS"),
        (cli._within("no_signaling_born", 1.3877787807814457e-16, 1e-12, ("trials", 200),
                     ("worst_seed", (1234, 2, 1))),
         "no_signaling_born        worst=1.39e-16 limit=1e-12 trials=200 "
         "worst_seed=[1234,2,1]  PASS"),
        (cli._within("projection_equivalence", float("nan"), 1e-10, *pointer_fields),
         "projection_equivalence   worst=nan limit=1e-10 trials=200 degenerate=54 "
         "worst_seed=[1234,1,5]  FAIL"),
        (cli.Check("telepathy_witness", witness, True),
         "telepathy_witness        analytic_dev=1.11e-16 limit=1e-06 mc_dev=0.00106 "
         "mc_limit=0.01  PASS"),
        (cli.Check("x", (("worst", 0.5), ("limit", 0.01)), False),
         "x                        worst=0.5 limit=0.01  FAIL"),
    ]
    for check, line in cases:
        assert cli._render_check(check) == line


def test_a_battery_row_is_a_check_of_fields():
    (check,) = cli._battery_checks(cli._ENTROPY, 0, 1234,
                                   [cli._run_share(cli._ENTROPY, range(50), 6, 1234)])
    fields = dict(check.fields)
    assert [key for key, _ in check.fields] == ["worst", "limit", "trials", "worst_seed"]
    assert fields["limit"] == 1e-10 and fields["trials"] == 50
    assert fields["worst_seed"][:2] == (1234, 4)
    assert check.passed == (fields["worst"] < fields["limit"])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_each_one_shot_check_runs_once_in_the_verify_process(tmp_path, capsys, monkeypatch,
                                                              workers):
    # A file, not a list, so that a call in a forked child would be seen too.
    log = tmp_path / "one-shot.txt"

    def logged(check):
        def wrapped(*args):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{check.__name__} {os.getpid()}\n")
            return check(*args)

        return wrapped

    names = ("_check_epr", "_check_witness", "_check_born_marginals")
    set_workers(monkeypatch, workers)
    for name in names:
        monkeypatch.setattr(cli, name, logged(getattr(cli, name)))
    code, _, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 0 and err == ""
    assert sorted(log.read_text().splitlines()) == sorted(f"{name} {os.getpid()}"
                                                          for name in names)
    _no_child_left()


def test_every_pointer_setup_is_evolved_once(tmp_path, capsys, monkeypatch):
    # verify and run evolve each pointer state they check exactly once in
    # each scheme: the projection deviation and the cross-checks reuse the
    # one joint, and verify's stacked calls take every trial once.
    set_workers(monkeypatch, 1)
    evolved = Counter()
    for name in ("_two_pointer", "_one_pointer"):

        def counting(psi, *args, original=getattr(pointer, name), name=name):
            for amps in np.reshape(psi, (-1, psi.shape[-1])):
                evolved[name, amps.tobytes()] += 1
            return original(psi, *args)

        monkeypatch.setattr(pointer, name, counting)
    code, _, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 0
    base = "state = 0.6 0.8i\nobs_a = sigma_z\nobs_b = sigma_x\npointer1_size = 3\n"
    for kind, extra in (("two_pointer", "pointer2_size = 4\n"), ("one_pointer", "")):
        path = tmp_path / f"{kind}.scn"
        path.write_text(f"kind = {kind}\n{base}{extra}")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 0, err
    # verify: each trial once per scheme, and the epr state in the one-pointer
    # scheme; run: the two-pointer file, and the one-pointer file with its
    # default-size two-pointer twin.
    trials = [cli._pointer_trial(np.random.default_rng([1234, 1, t]), t, 4)[1][0]
              for t in range(10)]
    expected = Counter({(name, amps.tobytes()): 1 for amps in trials
                        for name in ("_two_pointer", "_one_pointer")})
    epr, file_state = state_preset("minus").amps, np.array([0.6, 0.8j])
    expected["_one_pointer", epr.tobytes()] += 1
    expected["_two_pointer", file_state.tobytes()] += 2
    expected["_one_pointer", file_state.tobytes()] += 1
    assert evolved == expected


def test_every_final_state_is_checked_once(tmp_path, capsys, monkeypatch):
    # A run's final parts pass _check_states once, in `run` and in the public
    # run_two_pointer and run_one_pointer, and not again as the final state
    # is built.
    checked = Counter()

    def counting(amps, original=core._check_states):
        for state in amps.reshape(len(amps), -1):
            if state.size > 2:  # not a 2-level system state
                checked[state.tobytes()] += 1
        return original(amps)

    for module in (core, pointer):
        monkeypatch.setattr(module, "_check_states", counting)
    base = "obs_a = sigma_z\nobs_b = sigma_x\npointer1_size = 3\n"
    for kind, state, extra in (("two_pointer", "0.6 0.8i", "pointer2_size = 4\n"),
                               ("one_pointer", "0.8 0.6", "")):
        path = tmp_path / f"{kind}.scn"
        path.write_text(f"kind = {kind}\nstate = {state}\n{base}{extra}")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 0, err
    state = core.StateVector((2,), [0.28, 0.96])
    obs_a, obs_b = observable_preset("sigma_z"), observable_preset("sigma_x")
    pointer.run_two_pointer(pointer.two_pointer_setup(state, obs_a, obs_b))
    pointer.run_one_pointer(pointer.one_pointer_setup(state, obs_a, obs_b))
    # The two-pointer file's parts, the one-pointer file's and those of its
    # two-pointer twin, and the public runs' parts: once each.
    assert sorted(checked.values()) == [1] * 5


def test_verify_batteries_build_no_per_branch_objects(capsys, monkeypatch):
    # The pointer and no-signaling batteries check their trials' arrays in
    # stacks: no Observable, StateVector, PointerSchemeSetup or
    # TelepathyScenario per trial.  The pointer battery checks the projection
    # postulate from whole-observable arrays: no collapsed state, conditional
    # or Born distribution per branch.  The no-signaling battery reads both
    # directions off one W per trial, the W of trials of one shape from one
    # call.  The entropy battery checks its densities as arrays: no
    # DensityMatrix, per trial or per branch.
    # The LL battery runs its kernel once per stack of trials of one d and
    # branch count, with one collapse, and applies the reflections as
    # vectors: no channel run, no Operator built (Operator.__post_init__)
    # and no unitarity check.  No battery builds an object per trial.
    set_workers(monkeypatch, 1)
    calls, battery = Counter(), [None]

    def tracking(row, *args, original=cli._run_share):
        battery[0] = row.stream
        try:
            return original(row, *args)
        finally:
            battery[0] = None

    monkeypatch.setattr(cli, "_run_share", tracking)
    operator = measurement.Operator
    homes = {"project_update": measurement, "rule_probabilities": measurement,
             "conditional_b_given_a": pointer, "_cell_weights": signaling,
             "_target_check": measurement, "branch_weights": measurement,
             "_collapsed": measurement, "ll_channel": measurement,
             "__post_init__": operator, "is_unitary": operator}
    for name, home in homes.items():
        original = getattr(home, name)

        def counting(*args, original=original, name=name, **kwargs):
            calls[battery[0], name] += 1
            if name == "_cell_weights":  # amplitude matrices, one per scenario
                calls[battery[0], "scenarios"] += len(args[0])
            return original(*args, **kwargs)

        for module in (home, measurement, pointer, signaling, cli, scenario):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    classes = (observables.Observable, core.StateVector, pointer.PointerSchemeSetup,
               signaling.TelepathyScenario, core.DensityMatrix)
    for cls in classes:
        def constructing(self, original=cls.__post_init__, name=cls.__name__):
            calls[battery[0], name] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", constructing)
    def checked(cls, dims, amps, original=core.StateVector._checked.__func__):
        calls[battery[0], "StateVector"] += 1
        return original(cls, dims, amps)

    monkeypatch.setattr(core.StateVector, "_checked", classmethod(checked))
    code, _, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 0
    for row in (cli._POINTER, cli._NO_SIGNALING, cli._ENTROPY, cli._LL):
        assert [calls[row.stream, cls.__name__] for cls in classes] == [0] * len(classes)
    stream = cli._POINTER.stream
    assert [calls[stream, name] for name in list(homes)[:3]] == [0, 0, 0]
    # One W for each shape of the 10 no-signaling trials, stacked: one call.
    shapes = {cli._no_signaling_trial(np.random.default_rng([1234, 2, t]), t, 4)[1].shape
              for t in range(10)}
    stream = cli._NO_SIGNALING.stream
    assert (calls[stream, "_cell_weights"], calls[stream, "scenarios"]) == (len(shapes), 10)
    # max(50, 10 // 4) LL trials, one kernel call and one collapse for each
    # (d, branch count) among them, stacked.
    keys = {cli._ll_trial(np.random.default_rng([1234, 5, t]), t, 4)[2][0] for t in range(50)}
    ll = {name: calls[cli._LL.stream, name] for name in list(homes)[4:]}
    assert ll == {"_target_check": len(keys), "branch_weights": 0, "_collapsed": len(keys),
                  "ll_channel": 0, "__post_init__": 0, "is_unitary": 0}
    # The hooks are live: the one-shot checks outside the batteries hit them.
    assert calls[None, "rule_probabilities"] > 0 and calls[None, "_cell_weights"] > 0
    assert calls[None, "PointerSchemeSetup"] > 0 and calls[None, "TelepathyScenario"] > 0
    assert calls[None, "Observable"] > 0 and calls[None, "StateVector"] > 0


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
        ("state_dims", "kind = entropy_demo\nstate = 1 0 0 1\nstate_dims = -2 -2\n"),
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
    st.sampled_from(["0", "1", "-1", "0.5", "0.6", "0.8i", "0.5-0.5i", "1e-9", "3", "1e200",
                     "1e-170"]),
    min_size=1, max_size=4,
).map(" ".join)
_STATE = st.one_of(
    st.sampled_from(["up", "down", "plus", "minus", "bell_pair", "epr_bohm",
                     "asymmetric(0.36)", "asymmetric(1)", "nowhere"]),
    _AMPS,
)
_DIMS = st.lists(st.sampled_from(["0", "1", "2", "2", "3", "4", "-2"]), min_size=1,
                 max_size=3).map(" ".join)
_MATRIX = st.sampled_from(
    ["1 0; 0 -1", "0 1; 1 0", "1 0; 0 0", "0 0; 0 1", "1 0; 0 1", "1 2; 3 4",
     "0 -1i; 1i 0", "1 0 0; 0 2 0; 0 0 2", "1 0 0 0; 0 1 0 0; 0 0 -1 0; 0 0 0 -1",
     "0.5 0.5; 0.5 0.5", "1 0; 0", "nan 0; 0 1", "1e308 0; 0 -1e308", "-1e308 0; 0 -1e308",
     "1e308 1e308; -1e308 1e308"]
)
_OBS = st.one_of(
    st.sampled_from(["sigma_z", "sigma_x", "sigma_y", "matrix", "spin"]),
    _MATRIX.map(lambda m: f"matrix {m}"),
)
_NUMBERS = st.lists(st.sampled_from(["-1", "0", "0.5", "1", "2", "1e3", "1e308"]), min_size=1,
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
                      _maybe(_line("dt", st.sampled_from(["1", "0.7", "0", "-1", "1e308"])))],
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
    # Any scenario text ends with exit 0, 2 or 3, never with an exception, and
    # without a RuntimeWarning (CI runs the suite with them as errors).
    path = tmp_path / "fuzz.scn"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", str(path), "--format", "records"])
    assert code in (0, 2, 3)


def test_ll_channel_invariance_fails_on_shifted_weights(capsys, monkeypatch):
    # The property's reference probabilities are <psi|P_n psi>, not the
    # weights the LL kernel computes, so weights off by 1e-9 must FAIL
    # wherever the kernel is bound.
    _patch_everywhere(monkeypatch, "_householder", _shift_weights)
    code, out, _ = run_cli(capsys, "verify", "--trials", "40")
    assert code == 1
    failed = [l.split()[0] for l in out.splitlines() if l.endswith("FAIL")]
    assert failed == ["ll_channel_invariance"]
    assert "verify: 1 of 9 properties FAILED" in out


def _set_haar_stack_amps(monkeypatch, amps):
    for module in (rand, cli):
        monkeypatch.setattr(module, "HAAR_STACK_AMPS", amps)


def _qr_calls(monkeypatch):
    # (battery stream, stack size, matrix size) of every stacked np.linalg.qr
    # call, and (battery stream, shape) of every 2-D one.
    calls, flat, battery = [], [], [None]

    def tracking(row, *args, original=cli._run_share):
        battery[0] = row.stream
        try:
            return original(row, *args)
        finally:
            battery[0] = None

    def recording(a, original=rand.np.linalg.qr):
        if a.ndim == 3:
            calls.append((battery[0], *a.shape[:2]))
        else:
            flat.append((battery[0], a.shape))
        return original(a)

    monkeypatch.setattr(cli, "_run_share", tracking)
    monkeypatch.setattr(rand.np.linalg, "qr", recording)
    return calls, flat


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
    calls, flat = _qr_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "verify")
    assert code == 0
    assert flat == []  # state preparation reflects, it factors nothing
    sizes = {stream: sorted(d for s, _, d in calls if s == stream) for stream in (1, 2, 4, 5)}
    assert sizes == {1: [2, 3, 4, 5, 6], 2: [2, 3, 4], 4: list(range(2, 9)), 5: [2, 3, 4, 5, 6]}
    # Two observables per pointer and no-signaling trial and one per entropy
    # and LL trial: 900 Haar eigenbases, the QRs per-call draws would make, in
    # 20 stacked calls.
    matrices = Counter()
    for stream, n, _ in calls:
        matrices[stream] += n
    assert matrices == {1: 400, 2: 400, 4: 50, 5: 50}


def test_stacked_qr_stays_within_the_amplitude_budget(capsys, monkeypatch):
    # With a budget of one 64 x 64 matrix, the 50 LL trials at d <= 64 hold
    # many budgets, and a trial at d <= 64 draws up to two matrices, more than
    # the budget holds.  Trials are drawn ahead only until the budget is
    # reached, and a stack takes at most the budget or one matrix.
    set_workers(monkeypatch, 1)
    _set_haar_stack_amps(monkeypatch, 64**2)
    (calls, _), flushed = _qr_calls(monkeypatch), []

    def recording(ginibres, original=cli._haar):
        flushed.append(sum(z.size for z in ginibres))
        return original(ginibres)

    monkeypatch.setattr(cli, "_haar", recording)
    code, _, _ = run_cli(capsys, "verify", "--trials", "2", "--dims-limit", "64")
    assert code == 0
    assert max(flushed) < rand.HAAR_STACK_AMPS + 2 * 64**2
    assert all(n * d * d <= max(rand.HAAR_STACK_AMPS, d * d) for _, n, d in calls)
    ll = [(n, d) for stream, n, d in calls if stream == cli._LL.stream]
    assert sum(n * d * d for n, d in ll) > 10 * rand.HAAR_STACK_AMPS
    assert len(ll) > len({d for _, d in ll})  # some size took several stacks


def test_invariant_violation_in_a_trial_names_its_trial(capsys, monkeypatch):
    # Two-pointer parts off by 1 + 1e-7 fail the final states' norm check in
    # the pointer check; the exit code and class are unchanged and the
    # message names the trial.
    original = pointer._two_pointer

    def off_norm(*args):
        parts, joint = original(*args)
        return parts * (1 + 1e-7), joint

    monkeypatch.setattr(pointer, "_two_pointer", off_norm)
    code, out, err = run_cli(capsys, "verify", "--trials", "4", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err.startswith(
        "invariant violation [InvalidInputError]: trial [1234,1,0]: state vector norm"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_invariant_violation_building_a_trials_observables_names_its_trial(
        capsys, monkeypatch, workers):
    # Bases off unitarity by 1e-6 fail Observable validation before the
    # first check runs; the error still names the trial, in any share.
    set_workers(monkeypatch, workers)
    monkeypatch.setattr(cli, "_haar", lambda zs, original=cli._haar: [
        u * (1 + 1e-6) for u in original(zs)])
    code, out, err = run_cli(capsys, "verify", "--trials", "4", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err == ("invariant violation [InvalidProjectorFamilyError]: trial [1234,1,0]: "
                   "basis is not unitary\n")
    _no_child_left()


def _rescale_one_pointer_rows(original):
    # Moves 1e-9 of mass from one live row of each one-pointer joint to
    # another by rescaling both whole rows: every p(j|i) stays as it was.
    def mutant(*args):
        parts, joint = original(*args)
        probs = joint.copy()
        for cells in probs.reshape((-1,) + probs.shape[-2:]):
            rows = cells.sum(axis=1)
            live = np.flatnonzero(rows > 1e-3)
            if live.size >= 2:
                cells[live[0]] *= 1 + 1e-9 / rows[live[0]]
                cells[live[1]] *= 1 - 1e-9 / rows[live[1]]
        return parts, probs

    return mutant


def _perturb_oracle_cells(original):
    # Moves 1e-9 of mass from each oracle joint's largest cell to its second
    # largest.
    def mutant(*args):
        probs = original(*args).copy()
        for cells in probs.reshape((-1,) + probs.shape[-2:]):
            order = np.argsort(cells, axis=None)
            if order.size >= 2:
                cells.flat[order[-1]] -= 1e-9
                cells.flat[order[-2]] += 1e-9
        return probs

    return mutant


def _near_born_gap(original):
    # Bob's arms computed with q = 1 + 1e-6 where verify asks for Born.
    return lambda cells, rule: original(
        cells, measurement.ProbabilityRule(1 + 1e-6) if rule.is_born else rule)


def _drop_last_branch(original):
    # Each dephased state loses the block of its last branch and is
    # renormalised, as if the sum over branches stopped one short.
    def mutant(rho, obs):
        blocks, dephased = original(rho, obs)
        last = obs.labels == np.reshape(obs.branch_count, (-1, 1)) - 1
        kept = blocks * (last[..., :, None] & last[..., None, :])
        drop = obs.basis @ kept @ obs.basis.conj().swapaxes(-1, -2)
        weight = np.trace(drop, axis1=-2, axis2=-1).real[..., None, None]
        several = np.reshape(obs.branch_count, (-1, 1, 1)) > 1
        return blocks, np.where(several, (dephased - drop) / np.where(several, 1 - weight, 1.0),
                                dephased)

    return mutant


def _negate_final_state(original):
    # The one-pointer final state with its sign flipped; the joint is unchanged.
    def mutant(setup):
        final, joint = original(setup)
        return pointer.StateVector(final.dims, -final.amps), joint

    return mutant


def _other_arm(original):
    # The Monte Carlo channel draws the arm of the other bit.
    return lambda scenario, bit, shots, rng: original(scenario, 1 - bit, shots, rng)


def _shift_born_mass(original):
    # Moves 1e-9 of probability from outcome 1 to outcome 0.
    def mutant(rule, state, obs):
        dist = original(rule, state, obs)
        probs = dist.probs.copy()
        probs[:2] += (1e-9, -1e-9)
        return measurement.OutcomeDistribution(dist.labels, probs)

    return mutant


def _shift_weights(original):
    # The helper's Born weights (its first output) off by 1e-9, after it has
    # chosen the live branches.
    def mutant(*args):
        weights, *rest = original(*args)
        return (weights + 1e-9, *rest)

    return mutant


def _nan_last_weight(original):
    # The helper's Born weight of the last of several branches set to NaN,
    # after it has chosen the live branches: the NaN follows a number in each
    # trial's weights, so a max that keeps the earlier of the two misses it.
    def mutant(*args):
        weights, *rest = original(*args)
        weights = weights.copy()
        if weights.shape[-1] > 1:
            weights[..., -1] = np.nan
        return (weights, *rest)

    return mutant


def _drop_reflection_phase(original):
    # The helper's phases e^{ia}, a = arg<target|P_n psi>, set to 1 after w is
    # built: a live branch's reflection loses its e^{-ia} factor and sends x_n
    # to e^{ia} target.
    def mutant(*args):
        *head, phases, scale = original(*args)
        return (*head, np.ones_like(phases), scale)

    return mutant


def _scale_reflection_coefficient(original):
    # The reflection coefficient 2 / ||w||^2 times 1 + 1e-11: U_n x_n misses the
    # target by 1e-11 e^{-ia} w, above the property's 1e-12 limit, while its
    # norm moves by at most 2e-11, within the 1e-10 a StateVector accepts.
    def mutant(*args):
        *head, scale = original(*args)
        return (*head, scale * (1 + 1e-11))

    return mutant


def _overscale_reflection_coefficient(original):
    # The reflection coefficient 2 / ||w||^2 times 1 + 1e-9: U_n x_n misses the
    # target by 1e-9 e^{-ia} w, and its norm moves by more than the 1e-10 a
    # StateVector accepts.  verify reports the miss; it does not abort.
    def mutant(*args):
        *head, scale = original(*args)
        return (*head, scale * (1 + 1e-9))

    return mutant


def _patch_everywhere(monkeypatch, name, mutant):
    # Replaces the function name, looked up in its home module, with
    # mutant(original) in every module that binds it.
    modules = (pointer, measurement, signaling, cli, scenario)
    original = next(getattr(m, name) for m in modules if hasattr(m, name))
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant(original))


# Each mutant must FAIL its own property and no other; every property has
# one, and ll_channel_invariance has four beyond the shifted branch weights
# of test_ll_channel_invariance_fails_on_shifted_weights.
# Equivalent mutants, listed and not tested: W transposed in the Born arms
# (verify checks both directions, and Born signals in neither); entropies in
# another log base (every entropy scaled by one positive factor keeps both
# entropy inequalities); the oracle's wrap-around dropped (pointers start at
# |0> and shift by less than their size, so it is never reached).
@pytest.mark.parametrize(
    "name, mutant, prop",
    [
        ("_one_pointer", _rescale_one_pointer_rows, "scheme_agreement"),
        ("_oracle_cells", _perturb_oracle_cells, "oracle_agreement"),
        ("_born_rows", lambda original: lambda *a: original(*a) + 1e-9,
         "projection_equivalence"),
        ("_signaling_check", _near_born_gap, "no_signaling_born"),
        ("_dephase", _drop_last_branch, "entropy_monotonicity"),
        ("run_one_pointer", _negate_final_state, "epr_reproduction"),
        ("channel_simulation", _other_arm, "telepathy_witness"),
        ("rule_probabilities", _shift_born_mass, "born_marginals"),
        ("_householder", _drop_reflection_phase, "ll_channel_invariance"),
        ("_householder", _scale_reflection_coefficient, "ll_channel_invariance"),
        ("_householder", _overscale_reflection_coefficient, "ll_channel_invariance"),
        ("_householder", _nan_last_weight, "ll_channel_invariance"),
    ],
)
def test_each_pointer_property_fails_on_its_defect(capsys, monkeypatch, name, mutant, prop):
    # Two shares per battery: the mutant must reach the forked children too.
    set_workers(monkeypatch, 2)
    _patch_everywhere(monkeypatch, name, mutant)
    code, out, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 1
    failed = [l.split()[0] for l in out.splitlines() if l.endswith("FAIL")]
    assert failed == [prop]
    assert "verify: 1 of 9 properties FAILED" in out


def _nan_gap(original):
    # Bob's arms intact and their gap NaN.
    def mutant(cells, rule):
        mixed, intact, gap = original(cells, rule)
        return mixed, intact, gap * np.nan

    return mutant


def test_a_nan_signaling_gap_fails_both_signaling_properties(capsys, monkeypatch):
    # The witness folds its gap after four finite deviations: a NaN there
    # must FAIL it, as the no-signaling row's NaN worst fails that row.
    set_workers(monkeypatch, 2)
    _patch_everywhere(monkeypatch, "_signaling_check", _nan_gap)
    code, out, _ = run_cli(capsys, "verify", "--trials", "20")
    assert code == 1
    failed = {l.split()[0]: l for l in out.splitlines() if l.endswith("FAIL")}
    assert sorted(failed) == ["no_signaling_born", "telepathy_witness"]
    assert "worst=nan" in failed["no_signaling_born"]
    assert "analytic_dev=nan" in failed["telepathy_witness"]
    assert "verify: 2 of 9 properties FAILED" in out


def test_an_ll_post_state_off_its_norm_fails_verify_and_aborts_run(capsys, monkeypatch):
    # The defect that moves a post-state's norm past a StateVector's limit,
    # on one share: verify FAILs ll_channel_invariance alone, and `run`,
    # which checks the live posts as a StateVector's are checked, exits 3.
    set_workers(monkeypatch, 1)
    _patch_everywhere(monkeypatch, "_householder", _overscale_reflection_coefficient)
    code, out, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 1
    assert [l.split()[0] for l in out.splitlines() if l.endswith("FAIL")] == [
        "ll_channel_invariance"]
    code, out, err = run_cli(capsys, "run", "ll_preparation")
    assert code == 3 and out == ""
    assert err.startswith("invariant violation [InvalidInputError]: state vector norm")


def _amps_text(amps) -> str:
    # Complex amplitudes as a scenario file writes them, digits enough to
    # read back the same floats.
    return " ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in amps)


def test_the_ll_kinds_build_no_operator(capsys, monkeypatch, tmp_path):
    # run reads the LL kinds off the collapse and target kernels: with every
    # dense-operator path refused, the stern_gerlach and ll_preparation
    # presets print their pinned records, and inline d = 8 files print the
    # Born weights bit for bit, the collapsed parts, and phases that move no
    # overlap.
    rng = np.random.default_rng(8)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = core.StateVector((8,), amps / np.linalg.norm(amps))
    obs = observables.observable_from_matrix(h)
    weights = measurement.branch_weights(state, obs)
    parts = [measurement.project_update(state, obs, n).amps for n in range(obs.branch_count)]
    body = f"state = {_amps_text(amps)}\nobs = matrix {' ; '.join(map(_amps_text, h))}\n"
    omegas = " ".join(f"{w:.17g}" for w in rng.uniform(0.0, 3.0, obs.branch_count))

    def refuse(*args, **kwargs):
        raise AssertionError("an LL run built an operator")

    for module in (core, measurement, scenario):
        for name in ("Operator", "ll_channel", "phase_unitaries", "project_update"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    pinned = os.path.join(os.path.dirname(__file__), "preset_records")
    for preset in ("stern_gerlach", "ll_preparation"):
        code, out, err = run_cli(capsys, "run", preset, "--format", "records")
        assert code == 0 and err == ""
        with open(os.path.join(pinned, f"{preset}.records"), encoding="utf-8") as fh:
            assert out == fh.read()
    monkeypatch.setattr(scenario, "fmt_real", lambda x: repr(float(x)))  # every bit
    for kind, extra in (("ll_scheme", ""), ("stern_gerlach", f"omegas = {omegas}\ndt = 0.7\n")):
        path = tmp_path / f"{kind}.scn"
        path.write_text(f"kind = {kind}\n{body}{extra}")
        code, out, err = run_cli(capsys, "run", str(path), "--format", "records")
        assert code == 0 and err == ""
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert [float(lines[f"p.{n}"]) for n in range(obs.branch_count)] == weights.tolist()
        if kind == "stern_gerlach":
            assert float(lines["phase_only_max_dev"]) < 1e-14
            continue
        for n, part in enumerate(parts):
            post = [complex(lines[f"post_state.{n}.{k}"].replace("i", "j")) for k in range(8)]
            np.testing.assert_allclose(post, part, rtol=0, atol=1e-11)


def _offset(index, delta):
    # The kernel's result with delta added to its item index: to each entry
    # of a list, to a float.
    def mutant(original):
        def shifted(*args, **kwargs):
            out = list(original(*args, **kwargs))
            item = out[index]
            out[index] = [x + delta for x in item] if isinstance(item, list) else item + delta
            return tuple(out)

        return shifted

    return mutant


# Each claim's kernel with one output shifted: verify's property and the
# matching record of `run` on a preset both move, because both commands
# compute the deviation in that one function.  Entropy's slack is H(p), up to
# a few bits, so its selective average moves by one bit.
@pytest.mark.parametrize(
    "name, index, delta, prop, preset, key",
    [
        ("_pointer_check", 2, 1e-9, "projection_equivalence", "two_pointer_zx",
         "max_projection_deviation"),
        ("_signaling_check", 2, 1e-9, "no_signaling_born", "telepathy_born", "signaling_gap"),
        ("_entropy_check", 3, 1.0, "entropy_monotonicity", "entropy_demo",
         "entropy_selective_avg"),
        ("_target_check", 1, 1e-9, "ll_channel_invariance", "ll_preparation",
         "max_target_deviation"),
    ],
)
def test_run_and_verify_share_each_claims_kernel(capsys, monkeypatch, name, index, delta, prop,
                                                 preset, key):
    def record():
        code, out, _ = run_cli(capsys, "run", preset, "--format", "records")
        assert code == 0
        return dict(line.split("=", 1) for line in out.splitlines())[key]

    before = record()
    set_workers(monkeypatch, 1)
    _patch_everywhere(monkeypatch, name, _offset(index, delta))
    code, out, _ = run_cli(capsys, "verify", "--trials", "10", "--dims-limit", "4")
    assert code == 1
    failed = [l.split()[0] for l in out.splitlines() if l.endswith("FAIL")]
    assert failed == [prop]
    assert record() != before


def _shifted_coupling(offset):
    # The oracle's coupling, written per eigen-row of each register (S, d,
    # size) of the stack: eigen-row c moves by its branch label plus offset
    # along the register, with wrap-around.
    def couple(amps, obs):
        rows = np.swapaxes(obs.basis.conj(), -1, -2) @ amps
        shifted = np.empty_like(rows)
        for s, c in np.ndindex(rows.shape[:2]):
            shifted[s, c] = np.roll(rows[s, c], obs.labels[s, c] + offset)
        return obs.basis @ shifted

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
    # Trial 0 draws a one-branch first observable at d = 2: its padded
    # 2 x 2 registers have a position past that branch for the shifted
    # coupling to reach, and the stack that holds it raises.
    monkeypatch.setattr(pointer, "_couple", _shifted_coupling(1))
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
        ("--trials", "6", "--dims-limit", "48"),
        ("--trials", "1"),
        ("--trials", "3", "--seed", "7"),
    ],
)
def test_verify_prints_the_same_bytes_on_any_number_of_shares(capsys, monkeypatch, argv):
    # With --trials 1 and 3 some shares of the pointer and no-signaling
    # batteries are empty; --dims-limit 48 mixes padded pointer trials
    # (d <= 16) with unpadded ones.  Four shares fork three children.
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
             "print(cli._verify_workers(10**6, 6), cli._verify_workers(1, 6), "
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
        assert cli._verify_workers(10**6, 6) == 1
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert cli._verify_workers(10**6, 6) == 1


def _plant(monkeypatch, row_name, fail_at, raising):
    # The battery, except that the check of a stack holding a trial in
    # fail_at runs on its trials and then calls raising(t) for the lowest
    # such t; the trial passes its t to the check beside its inputs.
    row = getattr(cli, row_name)

    def trial(rng, t, dims_limit):
        drawn, inputs, stack = row.trial(rng, t, dims_limit)
        return drawn, (t, inputs), stack

    def check(trials):
        rows = row.check([(observables, inputs) for observables, (_, inputs) in trials])
        for t in sorted(t for _, (t, _) in trials if t in fail_at)[:1]:
            raising(t)
        return rows

    monkeypatch.setattr(cli, row_name, dataclasses.replace(row, trial=trial, check=check))


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


def _scaled_parts(states):
    # pointer._two_pointer with the parts of the given states scaled by
    # 1 + 1e-6, inside whatever stack holds them: their final states fail
    # the norm check and their joints stay as they were.
    def mutant(psi, *args, original=pointer._two_pointer):
        parts, joint = original(psi, *args)
        hit = [any(np.array_equal(amps, state) for state in states)
               for amps in np.reshape(psi, (-1, psi.shape[-1]))]
        scale = np.where(np.reshape(hit, psi.shape[:-1]), 1 + 1e-6, 1.0)
        return parts * scale[(...,) + (None,) * (parts.ndim - scale.ndim)], joint

    return mutant


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_violation_inside_a_stack_names_the_lowest_failing_trial(capsys, monkeypatch,
                                                                   workers):
    # Pointer trials 10 (d = 3) and 11 (d = 4) fail inside stacked kernel
    # calls.  On 1, 2 and 3 shares trial 10 shares its stack with trial 4,
    # also at d = 3, and lower trials of other dimensions share its chunk.
    # Trial 10's own error is raised, and its share keeps the rows before it.
    draw = lambda t: cli._pointer_trial(np.random.default_rng([1234, 1, t]), t, 4)[1][0]
    dims = [draw(t).size for t in range(12)]
    assert dims[4] == dims[10] == 3 and dims[11] == 4 and 4 % workers == 10 % workers
    assert {dims[t] for t in range(10 % workers, 10, workers)} - {3}
    share = range(10 % workers, 12, workers)
    clean, failure = cli._run_share(cli._POINTER, share, 4, 1234)
    assert failure is None
    monkeypatch.setattr(pointer, "_two_pointer", _scaled_parts([draw(10), draw(11)]))
    rows, failure = cli._run_share(cli._POINTER, share, 4, 1234)
    assert rows == clean[:share.index(10)]
    assert failure[0] == 10 and isinstance(failure[1], InvalidInputError)
    set_workers(monkeypatch, workers)
    code, out, err = run_cli(capsys, "verify", "--trials", "12", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert re.fullmatch(r"invariant violation \[InvalidInputError\]: trial \[1234,1,10\]: "
                        r"state vector norm \S+ is not 1\n", err)
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_fault_of_the_stacked_call_alone_is_raised(capsys, monkeypatch, workers):
    # The oracle fails on stacks of more than one state at d = 3, and every
    # trial passes alone.  Pointer trials 4, 9 and 10 are the d = 3 trials;
    # on 1, 2 and 3 shares trial 4 shares its stack with trial 10 (and 9 on
    # one share).  The stack's own error is raised, pinned on trial 4, and
    # its share keeps the rows before it.
    def stacked_only(psi, *args, original=pointer._oracle_cells):
        if psi.shape[-1] == 3 and psi.ndim == 2 and len(psi) > 1:
            raise InvalidInputError(f"planted fault in a stack of {len(psi)}")
        return original(psi, *args)

    share = range(4 % workers, 12, workers)
    clean, failure = cli._run_share(cli._POINTER, share, 4, 1234)
    assert failure is None
    monkeypatch.setattr(pointer, "_oracle_cells", stacked_only)
    rows, failure = cli._run_share(cli._POINTER, share, 4, 1234)
    assert rows == clean[:share.index(4)]
    assert failure[0] == 4 and str(failure[1]).startswith("trial [1234,1,4]: planted fault")
    set_workers(monkeypatch, workers)
    code, out, err = run_cli(capsys, "verify", "--trials", "12", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert re.fullmatch(r"invariant violation \[InvalidInputError\]: trial \[1234,1,4\]: "
                        r"planted fault in a stack of [23]\n", err)
    _no_child_left()


def _first_observable(change):
    # The defect of a pointer trial whose first observable's (eigenvalues,
    # basis, labels) pass through change.
    return lambda drawn, inputs: ([change(*drawn[0]), *drawn[1:]], inputs)


def _negative_eigenvalue(rho):
    # rho shifted down by just more than its lowest eigenvalue and scaled
    # back to trace 1: Hermitian, finite, trace 1, and one eigenvalue near -1e-6.
    shift = np.linalg.eigvalsh(rho)[0] + 1e-6
    return (rho - shift * np.eye(len(rho))) / (1 - shift * len(rho))


# Each defect a constructor rejects: the battery whose trial it is planted
# in, and the change to that trial's (observables, inputs).
_DEFECTS = {
    "non-finite basis": ("_POINTER", _first_observable(
        lambda values, basis, labels: (values, np.full_like(basis, np.nan), labels))),
    "non-unitary basis": ("_POINTER", _first_observable(
        lambda values, basis, labels: (values, basis * (1 + 1e-6), labels))),
    "labels missing a branch": ("_POINTER", _first_observable(
        lambda values, basis, labels: (values, basis, labels + 1))),
    "eigenvalues not increasing": ("_POINTER", _first_observable(
        lambda values, basis, labels: (values[:1] + values, basis, labels))),
    "non-finite eigenvalue": ("_POINTER", _first_observable(
        lambda values, basis, labels: ((float("nan"),) + values[1:], basis, labels))),
    "state norm": ("_POINTER", lambda drawn, inputs: (
        drawn, (inputs[0] * (1 + 1e-9), inputs[1]))),
    "density not Hermitian": ("_ENTROPY", lambda drawn, rho: (
        drawn, rho + 1e-9 * np.triu(np.ones(rho.shape), 1))),
    "density trace": ("_ENTROPY", lambda drawn, rho: (drawn, rho * (1 + 1e-9))),
    "negative density eigenvalue": ("_ENTROPY", lambda drawn, rho: (
        drawn, _negative_eigenvalue(rho))),
}


def _rejected(build):
    # The class and message of the exception build() raises.
    with pytest.raises(BornsimError) as caught:
        build()
    return type(caught.value), str(caught.value)


def _alone(defect, drawn, inputs):
    # The class and message of the constructor that rejects the defect, on
    # one trial's arrays.
    if "density" in defect:
        return _rejected(lambda: core.DensityMatrix(inputs.shape[:1], inputs))
    if defect == "state norm":
        return _rejected(lambda: core.StateVector(inputs[0].shape, inputs[0]))
    values, basis, labels = drawn[0]
    return _rejected(lambda: observables.Observable(basis.shape[:1], values, basis, labels))


def _stacked_alone(defect, trials):
    # The class and message of the stack checker that rejects the defect, on
    # the stacked arrays of the trials.
    if "density" in defect:
        return _rejected(lambda: core._check_densities(np.array([rho for _, rho in trials])))
    if defect == "state norm":
        return _rejected(lambda: core._check_states(np.array([i[0] for _, i in trials])))
    first = [drawn[0] for drawn, _ in trials]
    return _rejected(lambda: observables._checked_stack(first[0][1].shape[:1], first))


@pytest.mark.parametrize("defect", list(_DEFECTS))
def test_stacked_checks_raise_what_the_constructors_raise(capsys, monkeypatch, defect):
    # A defect in the middle trial of a stack: the stack checker raises the
    # class and message its constructor raises on that trial alone, and
    # verify exits 3 naming the trial, on one share and on two.
    row_name, mutate = _DEFECTS[defect]
    row = getattr(cli, row_name)
    trials = _built_trials(row, 1234, row.count(40), 3)
    by_key = {}
    for t, (_, _, (key, _)) in enumerate(trials):
        by_key.setdefault(key, []).append(t)

    def middle(t, workers):
        # Lower and higher trials of t's key in t's share; all of a share's
        # trials at --dims-limit 3 are drawn in one chunk.
        same = [u for u in by_key[trials[t][2][0]] if u % workers == t % workers]
        return same[0] < t < same[-1]

    at = next(t for t in range(len(trials)) if middle(t, 1) and middle(t, 2))
    cls, message = _alone(defect, *mutate(*trials[at][:2]))
    # at's stack on two shares
    stack = [mutate(*trials[t][:2]) if t == at else trials[t][:2]
             for t in by_key[trials[at][2][0]] if t % 2 == at % 2]
    assert _stacked_alone(defect, stack) == (cls, message)

    def trial(rng, t, dims_limit):
        drawn, inputs, key = row.trial(rng, t, dims_limit)
        return drawn, (t, inputs), key

    def check(stacked):
        return row.check([mutate(drawn, inputs) if t == at else (drawn, inputs)
                          for drawn, (t, inputs) in stacked])

    monkeypatch.setattr(cli, row_name, dataclasses.replace(row, trial=trial, check=check))
    for workers in (1, 2):
        set_workers(monkeypatch, workers)
        code, out, err = run_cli(capsys, "verify", "--trials", "40", "--dims-limit", "3")
        assert code == 3 and out == ""
        assert err == (f"invariant violation [{cls.__name__}]: trial [1234,{row.stream},{at}]: "
                       f"{message}\n")
        _no_child_left()


def _built_trials(row, seed, count, dims_limit):
    # (observables, inputs, stack) of a battery's first count trials, each
    # drawn observable's Ginibre matrix replaced by its Haar basis.
    trials = []
    for t in range(count):
        drawn, inputs, stack = row.trial(np.random.default_rng([seed, row.stream, t]), t,
                                         dims_limit)
        bases = rand._haar([z for _, z, _ in drawn])
        trials.append(([(values, u, labels) for (values, _, labels), u in zip(drawn, bases)],
                       inputs, stack))
    return trials


def _entropy_row(rho, obs):
    # An entropy trial's deviation from the public objects: the conditional
    # states read off the dephased state, one branch at a time.
    rho = core.DensityMatrix(obs.dims, rho)
    dephased = measurement.nonselective_channel(rho, obs)
    s_out, avg = core.von_neumann_entropy(dephased), 0.0
    for i in range(obs.branch_count):
        try:
            p, post = measurement.classical_selective(dephased, obs, i)
        except measurement.ZeroProbabilityBranchError:
            continue
        avg += p * core.von_neumann_entropy(post)
    return (max(core.von_neumann_entropy(rho) - s_out, avg - s_out),)


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_a_trials_row_does_not_depend_on_its_stack(seed):
    # Every pointer, no-signaling, entropy and LL trial's row, checked alone
    # and in one stack with all the other trials of its key (up to 20 of
    # them): the same bits.  And a padded row agrees with the unpadded
    # objects; an entropy row has the bits of the unpadded kernel's, and an
    # LL row agrees with the public channel and its dense reflections.  The
    # last row keeps only the pointer trials past _MAX_PADDED_DIM, whose
    # stacks of one d and branch counts are not padded.
    unpadded = lambda key: key[0] > cli._MAX_PADDED_DIM
    for row, count, dims_limit, largest, kept in (
            (cli._POINTER, 100, 6, 12, None), (cli._POINTER, 40, cli._MAX_PADDED_DIM, 3, None),
            (cli._NO_SIGNALING, 100, 4, 8, None), (cli._ENTROPY, 100, 6, 10, None),
            (cli._LL, 100, 6, 11, None), (cli._POINTER, 400, 18, 2, unpadded)):
        stacks = {}
        for drawn, inputs, (key, _) in _built_trials(row, seed, count, dims_limit):
            if kept is None or kept(key):
                stacks.setdefault(key, []).append((drawn, inputs))
        assert max(map(len, stacks.values())) >= largest
        for trials in stacks.values():
            stacked = row.check(trials)
            alone = [row.check([trial])[0] for trial in trials]
            assert np.array_equal(np.array(stacked, dtype=float), np.array(alone, dtype=float))
            for got, (drawn, inputs) in zip(stacked, trials):
                built = [observables.Observable((len(obs[1]),), *obs) for obs in drawn]
                if row is cli._POINTER:
                    setup = pointer.two_pointer_setup(core.StateVector(built[0].dims, inputs[0]),
                                                      *built)
                    one = pointer._stacked(setup)
                    _, (joint, _), deviations, scheme = pointer._pointer_check(one, one=True)
                    oracle = pointer._oracle_gap(one, joint, *joint.shape[1:])
                    want, tol = (deviations.max(), scheme[0], oracle[0]), 1e-14
                elif row is cli._NO_SIGNALING:
                    cells = signaling._scenario_cells(signaling.TelepathyScenario(
                        core.StateVector(inputs.shape, inputs), *built))
                    want, tol = (max(signaling._signaling_check(w, measurement.BORN)[2]
                                     for w in (cells, cells.T)),), 1e-14
                elif row is cli._LL:
                    (obs,) = built
                    state, target = (core.StateVector(obs.dims, x) for x in inputs)
                    records = measurement.ll_channel(
                        state, obs, measurement.state_preparation_unitaries(state, obs, target))
                    born = [np.vdot(state.amps, p.entries @ state.amps).real
                            for p in obs.projectors]
                    want, tol = (max(max(abs(rec.probability - born[rec.branch_index]),
                                         np.abs(rec.post_state.amps - target.amps).max())
                                     for rec in records),), 1e-13
                else:
                    # The unpadded kernel on a stack of one, as `run` calls it:
                    # the same bits.
                    (obs,) = built
                    s_in, s_out, _, avg = measurement._entropy_check(
                        inputs[None], core._check_densities(inputs[None]), obs._stack)
                    assert got[0] == max(s_in[0] - s_out[0], avg[0] - s_out[0])
                    want, tol = _entropy_row(inputs, obs), 1e-13
                assert np.abs(np.subtract(got[:len(want)], want)).max() <= tol


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_a_trial_with_dead_branches_keeps_its_row_in_a_stack(seed):
    # In every LL stack and padded pointer stack of two or more trials, the
    # first trial whose (first) observable has two branches or more gets a
    # state inside one eigenspace of it, so its other branches are dead; the
    # other states stay random.  Each row has the bits of its trial alone.
    rng, confined = np.random.default_rng([seed, 28]), 0
    for row in (cli._POINTER, cli._LL):
        stacks = {}
        for drawn, inputs, (key, _) in _built_trials(row, seed, 100, 6):
            stacks.setdefault(key, []).append((drawn, inputs))
        for trials in stacks.values():
            at = next((i for i, (drawn, _) in enumerate(trials) if len(drawn[0][0]) > 1), None)
            if len(trials) < 2 or at is None:
                continue
            (values, basis, labels), (state, *rest) = trials[at][0][0], trials[at][1]
            cols = basis[:, labels == rng.integers(len(values))]
            part = cols @ (cols.conj().T @ state)
            trials[at] = trials[at][0], (part / np.linalg.norm(part), *rest)
            stacked = row.check(trials)
            alone = [row.check([trial])[0] for trial in trials]
            assert np.array_equal(np.array(stacked, dtype=float), np.array(alone, dtype=float))
            assert all(dev < limit for dev, (_, limit) in zip(stacked[at], row.limits))
            confined += 1
    assert confined >= 10


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


def test_verify_forks_each_worker_once(capsys, monkeypatch):
    # Three shares fork two children, each running its share of all four
    # batteries, not two children per battery.
    set_workers(monkeypatch, 3)
    forks = []

    def counting(original=os.fork):
        pid = original()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    code, _, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 0 and err == ""
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_earlier_battery_error_beats_a_later_one(capsys, monkeypatch, workers):
    # LL trial 0 runs in this process, after its pointer share; pointer
    # trial 1 runs in a child when there are two or three shares.  The
    # pointer row prints first, so its error is raised, as the one-share
    # loop, which never reaches the LL row, raises it.
    set_workers(monkeypatch, workers)
    _plant(monkeypatch, "_LL", {0}, _violation)
    _plant(monkeypatch, "_POINTER", {1}, _violation)
    code, out, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err == ("invariant violation [InvalidInputError]: trial [1234,1,1]: "
                   "planted violation in trial 1\n")
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_one_shot_check_error_beats_a_later_battery(capsys, monkeypatch, workers):
    # telepathy_witness prints before the LL row: its error is raised even
    # when every share's LL trials fail.
    def witness(seed):
        raise InvalidInputError("planted witness violation")

    set_workers(monkeypatch, workers)
    _plant(monkeypatch, "_LL", {0, 1, 2}, _violation)
    monkeypatch.setattr(cli, "_check_witness", witness)
    code, out, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err == "invariant violation [InvalidInputError]: planted witness violation\n"
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_battery_error_beats_a_later_one_shot_check(capsys, monkeypatch, workers):
    # born_marginals runs while the children finish, but its error is kept
    # and raised only when the merge reaches it, after the pointer row, which
    # prints first: pointer trial 1's error is raised.
    def marginals():
        raise InvalidInputError("planted marginals violation")

    set_workers(monkeypatch, workers)
    _plant(monkeypatch, "_POINTER", {1}, _violation)
    monkeypatch.setattr(cli, "_check_born_marginals", marginals)
    code, out, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err == ("invariant violation [InvalidInputError]: trial [1234,1,1]: "
                   "planted violation in trial 1\n")
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_one_shot_check_error_beats_every_battery(capsys, monkeypatch, workers):
    # epr_reproduction prints first: its error is raised even when pointer
    # trial 1, in a child's share or the parent's, fails too.
    def epr():
        raise InvalidInputError("planted epr violation")

    set_workers(monkeypatch, workers)
    _plant(monkeypatch, "_POINTER", {1}, _violation)
    monkeypatch.setattr(cli, "_check_epr", epr)
    code, out, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
    assert code == 3 and out == ""
    assert err == "invariant violation [InvalidInputError]: planted epr violation\n"
    _no_child_left()


@pytest.mark.parametrize("error", [InvalidInputError, KeyboardInterrupt])
def test_a_one_shot_check_that_raises_while_children_run_leaves_no_child(
        capsys, monkeypatch, error):
    # The children's pointer checks wait, so both children still run when
    # the parent has done its share and born_marginals runs.  Its error is
    # kept and raised in the merge, after the children are collected; an
    # interrupt is not kept, and the children are killed and reaped.
    parent, pids, running = os.getpid(), [], []
    row = cli._POINTER

    def slow_in_children(trials):
        if os.getpid() != parent:
            time.sleep(1.0)
        return row.check(trials)

    def fork_shares(*args, original=cli._fork_shares):
        pid, read = original(*args)
        pids.append(pid)
        return pid, read

    def marginals():
        running.extend(os.waitpid(pid, os.WNOHANG) == (0, 0) for pid in pids)
        raise error("planted marginals violation")

    set_workers(monkeypatch, 3)
    monkeypatch.setattr(cli, "_POINTER", dataclasses.replace(row, check=slow_in_children))
    monkeypatch.setattr(cli, "_fork_shares", fork_shares)
    monkeypatch.setattr(cli, "_check_born_marginals", marginals)
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--trials", "6", "--dims-limit", "4"])
    else:
        code, out, err = run_cli(capsys, "verify", "--trials", "6", "--dims-limit", "4")
        assert code == 3 and out == ""
        assert err == "invariant violation [InvalidInputError]: planted marginals violation\n"
    assert len(pids) == 2 and running == [True, True]
    _no_child_left()


def test_a_default_verify_seeds_no_generator_a_trial_at_a_time(capsys, monkeypatch):
    # Every route from Python code to a SeedSequence: default_rng, the class
    # itself, and a PCG64 seeded with anything but a seed sequence.  Trial
    # generators are seeded in blocks; the one left is the witness's.
    seeded = []

    def counting(original):
        def call(seed=None, *args, **kwargs):
            if not isinstance(seed, np.random.bit_generator.ISeedSequence):
                seeded.append((original.__name__, seed))
            return original(seed, *args, **kwargs)
        return call

    set_workers(monkeypatch, 1)
    for name in ("default_rng", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
    code, out, err = run_cli(capsys, "verify")
    assert code == 0 and err == ""
    assert seeded == [("default_rng", [1234, 3])]


def test_verify_workers_fit_the_available_memory():
    # Memory for just under fit + 1 workers at --dims-limit 24 runs
    # min(CPUs, fit) shares, at least one; the bytes do not change.
    probe = ("import sys; from bornsim import cli; fit = int(sys.argv[1]); "
             "cli._available_memory = lambda: (fit + 1) * cli._worker_peak(24) - 1; "
             "print(cli._verify_workers(10**6, 24), file=sys.stderr); "
             "sys.exit(cli.main(['verify', '--trials', '30', '--dims-limit', '24']))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cpus, outs = len(os.sched_getaffinity(0)), []
    for fit in (0, 1, 2, 10**4):
        proc = subprocess.run([sys.executable, "-c", probe, str(fit)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr) == max(1, min(cpus, fit))
        outs.append(proc.stdout)
    assert outs[1:] == outs[:1] * 3
    # The cap grows with the cube of the dimension: at d = 256 one worker
    # may hold 1.6 GB.
    assert 1.5 * 2**30 < cli._worker_peak(256) < 1.7 * 2**30


def test_available_memory_is_capped_by_the_cgroup_limits(tmp_path, monkeypatch):
    # Free memory 4 GiB; the cgroup /a/b may grow by 3 GiB and its parent /a
    # by 1 GiB; the root sets no limit.
    (tmp_path / "cgroup").write_text("1:memory:/ignored\n0::/a/b\n")
    for path, limit, used in (("", "max", 0), ("a", 3 << 30, 2 << 30), ("a/b", 5 << 30, 2 << 30)):
        (tmp_path / "fs" / path).mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / path / "memory.max").write_text(f"{limit}\n")
        (tmp_path / "fs" / path / "memory.current").write_text(f"{used}\n")
    real_open = open

    def fake_open(name, *args, **kwargs):
        if name == "/proc/self/cgroup":
            name = tmp_path / "cgroup"
        elif name.startswith("/sys/fs/cgroup"):
            name = f"{tmp_path}/fs{name[len('/sys/fs/cgroup'):]}"
        return real_open(name, *args, **kwargs)

    pages = {"SC_AVPHYS_PAGES": 2**20, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr("builtins.open", fake_open)
    assert cli._available_memory() == 1 << 30
    (tmp_path / "fs" / "a" / "memory.max").write_text("max\n")
    assert cli._available_memory() == 3 << 30
    (tmp_path / "cgroup").write_text("1:memory:/ignored\n")  # no cgroup v2
    assert cli._available_memory() == 4 << 30
