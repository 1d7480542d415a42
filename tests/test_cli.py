import subprocess
import sys
import tracemalloc

import pytest

from bornsim.cli import MAX_DIMS_LIMIT, main
from bornsim.pointer import POINTER_STATE_MAX_AMPS, SCHEME_AGREEMENT_TOL
from bornsim.presets import SCENARIO_PRESETS


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
