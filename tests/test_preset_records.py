"""Every preset's `bornsim run --format records` output, pinned byte for byte.

The expected output of preset NAME is tests/preset_records/NAME.records.  To
see a difference by hand:

    diff <(PYTHONPATH=src python -m bornsim run NAME --format records) \
        tests/preset_records/NAME.records
"""

from pathlib import Path

import pytest

from bornsim.cli import main
from bornsim.presets import SCENARIO_PRESETS

EXPECTED = Path(__file__).parent / "preset_records"

# Records whose value is round-off around an exact zero: the entropy of a
# pure state (3.2e-16 with numpy 2.4 on x86-64) depends on the eigensolver's
# last bits, so it is compared as |x| < 1e-12 and not by its bytes.
ROUND_OFF = {("entropy_demo", "entropy_initial")}


def test_every_preset_has_expected_records():
    assert sorted(path.stem for path in EXPECTED.glob("*.records")) == sorted(SCENARIO_PRESETS)


@pytest.mark.parametrize("preset", sorted(SCENARIO_PRESETS))
def test_preset_records_are_pinned(capsys, preset):
    code = main(["run", preset, "--format", "records"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    got = captured.out.splitlines(keepends=True)
    want = (EXPECTED / f"{preset}.records").read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        key, value = line.split("=", 1)
        if (preset, key) in ROUND_OFF:
            assert expected.startswith(f"{key}=") and abs(float(value)) < 1e-12
        else:
            assert line == expected
