"""Named states, observables, and ready-to-run scenario texts.

Scenario presets are stored as literal scenario-file documents so running a
preset exercises exactly the same parsing path as running a user file.  The
named states and observables are validated once, at import, and a name
resolves to that shared, read-only object; asymmetric(p) is built per call.
"""

from __future__ import annotations

import math
import re

from .core import StateVector
from .errors import InvalidInputError
from .observables import Observable, observable_from_matrix

_SQ2 = 1.0 / math.sqrt(2.0)

_ASYMMETRIC_RE = re.compile(r"^asymmetric\(\s*([0-9.eE+-]+)\s*\)$")


def _asymmetric(p: float) -> StateVector:
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"asymmetric weight must be in (0, 1), got {p!r}")
    return StateVector((2, 2), [math.sqrt(p), 0.0, 0.0, math.sqrt(1.0 - p)])


STATE_PRESETS: dict[str, tuple[str, StateVector]] = {
    "up": ("single qubit |0>", StateVector((2,), [1.0, 0.0])),
    "down": ("single qubit |1>", StateVector((2,), [0.0, 1.0])),
    "plus": ("(|0> + |1>)/sqrt(2)", StateVector((2,), [_SQ2, _SQ2])),
    "minus": ("(|0> - |1>)/sqrt(2)", StateVector((2,), [_SQ2, -_SQ2])),
    "bell_pair": (
        "maximally correlated pair (|00> + |11>)/sqrt(2)",
        StateVector((2, 2), [_SQ2, 0.0, 0.0, _SQ2]),
    ),
    "epr_bohm": (
        "EPR pair in Bohm form, the singlet (|01> - |10>)/sqrt(2)",
        StateVector((2, 2), [0.0, _SQ2, -_SQ2, 0.0]),
    ),
}

STATE_PRESET_DESCRIPTIONS: dict[str, str] = {
    **{name: desc for name, (desc, _) in STATE_PRESETS.items()},
    "asymmetric(p)": "sqrt(p)|00> + sqrt(1-p)|11>, 0 < p < 1",
}


def state_preset(name: str) -> StateVector:
    """Resolve a state preset name, including the asymmetric(p) family."""
    key = name.strip()
    if key in STATE_PRESETS:
        return STATE_PRESETS[key][1]
    m = _ASYMMETRIC_RE.match(key)
    if m:
        try:
            p = float(m.group(1))
        except ValueError:
            raise InvalidInputError(f"bad asymmetric weight in {name!r}")
        return _asymmetric(p)
    raise InvalidInputError(f"unknown state preset {name!r}")


# Built and validated once, at import, like STATE_PRESETS; every caller
# shares one read-only Observable, and so its cached projectors.
_PAULI: dict[str, tuple[str, Observable]] = {
    name: (desc, observable_from_matrix(matrix))
    for name, desc, matrix in (
        ("sigma_x", "Pauli X, eigenvalues -1 and +1", [[0.0, 1.0], [1.0, 0.0]]),
        ("sigma_y", "Pauli Y, eigenvalues -1 and +1", [[0.0, -1.0j], [1.0j, 0.0]]),
        ("sigma_z", "Pauli Z, eigenvalues -1 and +1 (basis |0>, |1>)",
         [[1.0, 0.0], [0.0, -1.0]]),
    )
}

OBSERVABLE_PRESET_DESCRIPTIONS: dict[str, str] = {
    name: desc for name, (desc, _) in _PAULI.items()
}


def observable_preset(name: str) -> Observable:
    """The shared, validated Observable of a Pauli preset name."""
    key = name.strip()
    if key not in _PAULI:
        raise InvalidInputError(f"unknown observable preset {name!r}")
    return _PAULI[key][1]


SCENARIO_PRESETS: dict[str, tuple[str, str]] = {
    "epr_bohm": (
        "one-pointer EPR measurement in Bohm form: conditional-shift coupling "
        "entangles the system with the pointer into a singlet",
        "kind = epr\n",
    ),
    "stern_gerlach": (
        "Stern-Gerlach beam with per-branch phase evolution; probabilities "
        "stay fixed while branch states pick up global phases",
        "kind = stern_gerlach\n"
        "state = plus\n"
        "obs = sigma_z\n"
        "omegas = 0.8 2.3\n"
        "dt = 1.0\n",
    ),
    "two_pointer_zx": (
        "two-pointer scheme measuring Pauli Z then Pauli X on |0>",
        "kind = two_pointer\n"
        "state = up\n"
        "obs_a = sigma_z\n"
        "obs_b = sigma_x\n",
    ),
    "telepathy_born": (
        "no-signaling check on the maximally correlated pair under the Born "
        "rule: the gap vanishes",
        "kind = telepathy\n"
        "state = bell_pair\n"
        "rule = born\n",
    ),
    "telepathy_nonborn": (
        "signaling witness: squared-weight rule on an asymmetric pair gives a "
        "nonzero gap, estimated analytically and by Monte Carlo",
        "kind = telepathy\n"
        "state = asymmetric(0.36)\n"
        "rule = nonborn_exponent\n"
        "q = 2\n"
        "shots = 100000\n",
    ),
    "ll_preparation": (
        "selective channel with per-branch unitaries chosen so every outcome "
        "ends in the same target state",
        "kind = ll_scheme\n"
        "state = plus\n"
        "obs = sigma_z\n"
        "target = up\n",
    ),
    "entropy_demo": (
        "entropy bookkeeping: dephasing raises entropy, selective readout "
        "lowers it again on average",
        "kind = entropy_demo\n"
        "state = plus\n"
        "obs = sigma_z\n",
    ),
}


def scenario_preset_text(name: str) -> str:
    key = name.strip()
    if key not in SCENARIO_PRESETS:
        raise InvalidInputError(f"unknown scenario preset {name!r}")
    return SCENARIO_PRESETS[key][1]
