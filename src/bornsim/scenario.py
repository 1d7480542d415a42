"""Flat key/value scenario files and their runners.

Format: one `key = value` pair per line, `#` starts a comment, blank lines
ignored.  Values are whitespace-separated tokens; matrix rows are separated
by `;`.  Complex amplitudes are written as `re+imi` pairs (e.g. `0.5-0.5i`);
bare reals are accepted where a complex number is expected.  Amplitude lists
are normalized after parsing.  Unknown keys are rejected.

Kinds: two_pointer | one_pointer | epr | stern_gerlach | ll_scheme |
telepathy | entropy_demo.  Each runner calls its claim's kernel and returns
an ordered list of (key, formatted value) records; formatting is
deterministic, so records output is byte-identical for a fixed seed.  The
LL kinds read their posts off _collapsed or _target_check, as vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, _check_states, density_from_pure, tv_distance
from .errors import InvalidInputError
from .measurement import (
    BORN,
    ZERO_PROB_CUTOFF,
    ProbabilityRule,
    _collapsed,
    _entropy_check,
    _stack_of_one,
    _target_check,
)
from .observables import observable_from_branches, observable_from_matrix
from .pointer import (
    PointerSchemeSetup,
    _final,
    _oracle_gap,
    _pointer_check,
    _stacked,
    two_pointer_setup,
)
from .presets import observable_preset, state_preset
from .signaling import TelepathyScenario, _arms, channel_simulation

DEFAULT_SEED = 1234


class ScenarioParseError(Exception):
    """Scenario text is syntactically or structurally invalid."""


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: kind, source label, seed, and raw field map."""

    kind: str
    source: str
    seed: int
    fields: dict


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ScenarioParseError(f"line {lineno}: empty key")
        if not value:
            raise ScenarioParseError(f"line {lineno}: empty value for '{key}'")
        if key in pairs:
            raise ScenarioParseError(f"line {lineno}: duplicate key '{key}'")
        pairs[key] = value
    return pairs


def _parse_int(value: str, key: str, least: int | None = None) -> int:
    try:
        out = int(value)
    except ValueError:
        raise ScenarioParseError(f"field '{key}': expected an integer, got {value!r}")
    if least is not None and out < least:
        raise ScenarioParseError(f"field '{key}': must be >= {least}, got {out}")
    return out


def _parse_float(value: str, key: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ScenarioParseError(f"field '{key}': expected a number, got {value!r}")
    if not math.isfinite(out):
        raise ScenarioParseError(f"field '{key}': non-finite number {value!r}")
    return out


def _parse_floats(value: str, key: str) -> list[float]:
    return [_parse_float(tok, key) for tok in value.split()]


def _parse_complex(token: str, key: str) -> complex:
    try:
        out = complex(token.replace("i", "j"))
    except ValueError:
        raise ScenarioParseError(
            f"field '{key}': expected a complex number like 0.5-0.5i, got {token!r}"
        )
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ScenarioParseError(f"field '{key}': non-finite number {token!r}")
    return out


def _is_complex(token: str) -> bool:
    # A bare i or j is an amplitude, as _parse_complex reads it; no preset
    # name parses as a number.
    try:
        complex(token.replace("i", "j"))
    except ValueError:
        return False
    return True


def _parse_complex_list(value: str, key: str) -> list[complex]:
    return [_parse_complex(tok, key) for tok in value.split()]


def _parse_matrix(value: str, key: str, dims) -> np.ndarray:
    rows = [r.strip() for r in value.split(";")]
    if any(not r for r in rows):
        raise ScenarioParseError(f"field '{key}': empty matrix row")
    parsed = [_parse_complex_list(r, key) for r in rows]
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ScenarioParseError(f"field '{key}': ragged matrix rows")
    if len(parsed) != width or width != int(np.prod(dims)):
        raise ScenarioParseError(
            f"field '{key}': {len(parsed)} x {width} matrix does not match dims {dims}"
        )
    return np.array(parsed, dtype=complex)


def _take(fields: dict, key: str, default=None) -> str | None:
    return fields.pop(key, default)


def _resolve_state(fields: dict, key: str = "state", default: str | None = None):
    """Resolve a state field to a StateVector; amplitude lists are normalized."""
    value = _take(fields, key, default)
    if value is None:
        raise ScenarioParseError(f"missing required field '{key}'")
    first = value.split()[0]
    if first[0].isalpha() and not _is_complex(first):
        try:
            state = state_preset(value)
        except InvalidInputError as exc:
            raise ScenarioParseError(f"field '{key}': {exc}")
        if _take(fields, key + "_dims") is not None:
            raise ScenarioParseError(
                f"field '{key}_dims' not allowed with a preset state"
            )
        return state
    amps = np.array(_parse_complex_list(value, key))
    dims_value = _take(fields, key + "_dims")
    if dims_value is None:
        dims = (amps.size,)
    else:
        dims = tuple(_parse_int(tok, key + "_dims", least=1) for tok in dims_value.split())
    if int(np.prod(dims)) != amps.size:
        raise ScenarioParseError(
            f"field '{key}_dims': product {dims} does not match "
            f"{amps.size} amplitudes"
        )
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if not np.finfo(float).tiny <= norm * norm < math.inf:
        # The sum of squares under- or overflowed: divide by the largest
        # real or imaginary part first.
        peak = float(np.abs(amps.view(float)).max())
        if peak == 0.0:
            raise ScenarioParseError(f"field '{key}': zero state vector")
        amps = amps / peak
        norm = float(np.linalg.norm(amps))
    return StateVector(dims, amps / norm)


def _resolve_observable(fields: dict, base: str, dims, default: str | None = None):
    """Resolve an observable field: preset name, inline matrix, or branch family."""
    value, dims = _take(fields, base, default), tuple(dims)
    if value is None:
        raise ScenarioParseError(f"missing required field '{base}'")
    sub = {k: fields.pop(k) for k in list(fields) if k.startswith(base + ".")}
    if value == "branches":
        eig_key = base + ".eigenvalues"
        if eig_key not in sub:
            raise ScenarioParseError(f"missing required field '{eig_key}'")
        eigenvalues = _parse_floats(sub.pop(eig_key), eig_key)
        branches = []
        for idx, a in enumerate(eigenvalues):
            proj_key = f"{base}.projector.{idx}"
            if proj_key not in sub:
                raise ScenarioParseError(f"missing required field '{proj_key}'")
            branches.append((a, _parse_matrix(sub.pop(proj_key), proj_key, dims)))
        if sub:
            raise ScenarioParseError(f"unknown fields: {', '.join(sorted(sub))}")
        # Family validation happens in the domain layer; violations are
        # invariant errors, not parse errors.
        return observable_from_branches(branches, dims)
    if sub:
        raise ScenarioParseError(f"unknown fields: {', '.join(sorted(sub))}")
    if value.startswith("matrix"):
        body = value[len("matrix") :].strip()
        if not body:
            raise ScenarioParseError(f"field '{base}': 'matrix' needs entries")
        return observable_from_matrix(_parse_matrix(body, base, dims), dims=dims)
    try:
        obs = observable_preset(value)
    except InvalidInputError as exc:
        raise ScenarioParseError(f"field '{base}': {exc}")
    if obs.dims != dims:
        raise ScenarioParseError(
            f"field '{base}': preset dims {obs.dims} do not match {dims}"
        )
    return obs


def _reject_unknown(fields: dict) -> None:
    if fields:
        raise ScenarioParseError(f"unknown fields: {', '.join(sorted(fields))}")


def parse_scenario(text: str, source: str) -> Scenario:
    fields = _parse_pairs(text)
    kind = _take(fields, "kind")
    if kind is None:
        raise ScenarioParseError("missing required field 'kind'")
    if kind not in KINDS:
        raise ScenarioParseError(
            f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    seed = _parse_int(_take(fields, "seed", str(DEFAULT_SEED)), "seed", least=0)
    return Scenario(kind, source, seed, fields)


# ---------------------------------------------------------------- formatting

def fmt_real(x: float) -> str:
    out = f"{float(x):.12g}"
    return "0" if out == "-0" else out


def fmt_complex(z: complex) -> str:
    re = 0.0 if z.real == 0 else z.real
    im = 0.0 if z.imag == 0 else z.imag
    return f"{re:.12g}{im:+.12g}i"


Records = list[tuple[str, str]]


def _state_records(prefix: str, amps: np.ndarray) -> Records:
    return [(f"{prefix}.{k}", fmt_complex(z)) for k, z in enumerate(amps)]


def _distribution_records(prefix: str, probs: np.ndarray) -> Records:
    return [(f"{prefix}.{j}", fmt_real(p)) for j, p in enumerate(probs)]


# ------------------------------------------------------------------- runners

def _run_pointer(scn: Scenario) -> Records:
    fields = dict(scn.fields)
    if scn.kind == "epr":
        state = state_preset("minus")
        obs_a = observable_preset("sigma_z")
        obs_b = _resolve_observable(fields, "obs_b", state.dims, default="sigma_z")
        n1, m2 = obs_a.branch_count, None
    else:
        state = _resolve_state(fields)
        obs_a = _resolve_observable(fields, "obs_a", state.dims)
        obs_b = _resolve_observable(fields, "obs_b", state.dims)
        size = lambda key, k: _parse_int(_take(fields, key, str(k)), key, least=k)
        n1 = size("pointer1_size", obs_a.branch_count)
        m2 = size("pointer2_size", obs_b.branch_count) if scn.kind == "two_pointer" else None
    _reject_unknown(fields)
    setup = PointerSchemeSetup(state, obs_a, obs_b, n1, m2)
    if m2 is None:  # cross-checked against the default-size two-pointer twin
        parts, joints, deviations, cross_dev = _pointer_check(
            _stacked(two_pointer_setup(state, obs_a, obs_b)), one=True)
    else:  # cross-checked against the oracle
        stacked = _stacked(setup)
        parts, joints, deviations, _ = _pointer_check(stacked)
        cross_dev = _oracle_gap(stacked, joints[0], n1, m2)
    joint, deviation, cross_dev = joints[-1][0], deviations[0, -1], cross_dev[0]
    cross_key = "two_pointer_joint_max_dev" if m2 is None else "oracle_joint_max_dev"

    records: Records = [
        (f"eigenvalue_{side}.{i}", fmt_real(a))
        for side, obs in (("a", obs_a), ("b", obs_b))
        for i, a in enumerate(obs.eigenvalues)
    ]
    records += [(f"p_ij.{i}.{j}", fmt_real(p)) for (i, j), p in np.ndenumerate(joint)]
    rows = joint.sum(axis=1)
    records += [(f"p_i.{i}", fmt_real(p)) for i, p in enumerate(rows)]
    records += [(f"p_j_given_i.{i}.{j}", fmt_real(p / rows[i]))
                for (i, j), p in np.ndenumerate(joint) if rows[i] > ZERO_PROB_CUTOFF]
    records.append(("max_projection_deviation", fmt_real(deviation)))
    records.append((cross_key, fmt_real(cross_dev)))
    if state.dim * n1 * (m2 or 1) <= 64:  # the final state's dim
        records += _state_records("final_state", _final(setup, parts[-1][0]).amps)
    return records


def _run_ll(scn: Scenario) -> Records:
    # The posts are the collapsed parts, the target's steered posts, or for
    # stern_gerlach each part times exp(-i omega_n dt), of overlap 1 with it.
    fields = dict(scn.fields)
    state = _resolve_state(fields, default="plus")
    obs = _resolve_observable(fields, "obs", state.dims, default="sigma_z")
    target = None
    if scn.kind == "stern_gerlach":
        omegas = _take(fields, "omegas")
        if omegas is None:
            omegas = [0.5 * (n + 1) for n in range(obs.branch_count)]
        else:
            omegas = _parse_floats(omegas, "omegas")
            if len(omegas) != obs.branch_count:
                raise ScenarioParseError(f"field 'omegas': {len(omegas)} frequencies "
                                         f"for {obs.branch_count} branches")
        dt = _parse_float(_take(fields, "dt", "1.0"), "dt")
        if not all(math.isfinite(w * dt) for w in omegas):
            raise ScenarioParseError(f"field 'dt': omega * dt overflows at dt = {dt!r}")
    elif "target" in fields:
        target = _resolve_state(fields, key="target")
        if target.dims != state.dims:
            raise ScenarioParseError(f"field 'target': dims {target.dims} != {state.dims}")
    _reject_unknown(fields)
    if target is None:
        psi, stack = state.amps[None], obs._stack
        weights = stack.weights(psi)
        live = weights > ZERO_PROB_CUTOFF
        posts = _collapsed(psi, stack, slice(None), live)
    else:
        weights, dev, live, posts = _target_check(*_stack_of_one(state, obs, target))
    branches = np.flatnonzero(live[0]).tolist()
    parts = posts = posts[0].T[branches]
    if scn.kind == "stern_gerlach":
        posts = np.exp(-1j * np.array(omegas) * dt)[branches, None] * parts
    _check_states(posts)
    records: Records = [(f"p.{n}", fmt_real(weights[0, n])) for n in branches]
    if scn.kind == "stern_gerlach":
        overlap = np.abs((parts.conj() * posts).sum(axis=-1))
        records.append(("phase_only_max_dev", fmt_real(np.abs(1.0 - overlap).max(initial=0.0))))
        return records
    for n, post in zip(branches, posts):
        records += _state_records(f"post_state.{n}", post)
    if target is not None:
        records.append(("max_target_deviation", fmt_real(dev[0])))
    return records


def _run_telepathy(scn: Scenario) -> Records:
    fields = dict(scn.fields)
    state = _resolve_state(fields)
    if len(state.dims) != 2:
        raise ScenarioParseError(
            f"field 'state': telepathy needs 2 subsystems, got dims {state.dims}"
        )
    rule_value = _take(fields, "rule", "born")
    if rule_value == "born":
        if "q" in fields:
            raise ScenarioParseError("field 'q' only applies to nonborn_exponent")
        rule = BORN
    elif rule_value == "nonborn_exponent":
        q_value = _take(fields, "q")
        if q_value is None:
            raise ScenarioParseError("missing required field 'q'")
        q = _parse_float(q_value, "q")
        if q <= 0.0:
            raise ScenarioParseError(f"field 'q': must be > 0, got {q_value}")
        rule = ProbabilityRule(q)
    else:
        raise ScenarioParseError(
            f"field 'rule': expected born or nonborn_exponent, got {rule_value!r}"
        )
    default_a = "sigma_z" if state.dims[0] == 2 else None
    default_b = "sigma_z" if state.dims[1] == 2 else None
    obs_a = _resolve_observable(fields, "obs_a", (state.dims[0],), default=default_a)
    obs_b = _resolve_observable(fields, "obs_b", (state.dims[1],), default=default_b)
    shots = _parse_int(_take(fields, "shots", "0"), "shots", least=0)
    _reject_unknown(fields)

    scenario = TelepathyScenario(state, obs_a, obs_b, rule)
    with_alice, without_alice, gap = _arms(scenario)
    records: Records = [("rule", rule_value)]
    if rule.exponent != 1.0:
        records.append(("q", fmt_real(rule.exponent)))
    records += _distribution_records("p_with_alice", with_alice)
    records += _distribution_records("p_without_alice", without_alice)
    records.append(("signaling_gap", fmt_real(gap)))
    if shots > 0:
        rng = np.random.default_rng(scn.seed)
        mc_with = channel_simulation(scenario, 1, shots, rng)
        mc_without = channel_simulation(scenario, 0, shots, rng)
        records.append(("mc_shots", str(shots)))
        records += _distribution_records("mc_p_with_alice", mc_with.probs)
        records += _distribution_records("mc_p_without_alice", mc_without.probs)
        records.append(("mc_gap", fmt_real(tv_distance(mc_with, mc_without))))
    return records


def _run_entropy_demo(scn: Scenario) -> Records:
    fields = dict(scn.fields)
    state = _resolve_state(fields)
    obs = _resolve_observable(fields, "obs", state.dims, default="sigma_z")
    _reject_unknown(fields)
    rho = density_from_pure(state)
    s_in, s_out, (live, probs, entropies), avg = _entropy_check(
        rho.entries[None], rho.spectrum[None], obs._stack)
    records: Records = [
        ("entropy_initial", fmt_real(s_in[0])),
        ("entropy_nonselective", fmt_real(s_out[0])),
    ]
    for i in np.flatnonzero(live[0]).tolist():
        records.append((f"p.{i}", fmt_real(probs[0, i])))
        records.append((f"entropy_branch.{i}", fmt_real(entropies[0, i])))
    records.append(("entropy_selective_avg", fmt_real(avg[0])))
    return records


# Each scenario kind and its runner, in the order the parse error lists them.
_RUNNERS = {
    "two_pointer": _run_pointer,
    "one_pointer": _run_pointer,
    "epr": _run_pointer,
    "stern_gerlach": _run_ll,
    "ll_scheme": _run_ll,
    "telepathy": _run_telepathy,
    "entropy_demo": _run_entropy_demo,
}
KINDS = tuple(_RUNNERS)


def run_scenario(scn: Scenario) -> Records:
    """Execute a parsed scenario and return its ordered records."""
    header: Records = [
        ("scenario", scn.source),
        ("kind", scn.kind),
        ("seed", str(scn.seed)),
    ]
    runner = _RUNNERS.get(scn.kind)
    if runner is None:
        raise ScenarioParseError(f"unknown kind {scn.kind!r}")
    return header + runner(scn)
