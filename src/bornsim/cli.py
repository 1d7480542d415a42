"""Command line interface.

    bornsim run <file-or-preset> [--format table|records]
    bornsim verify [--trials N] [--dims-limit D] [--seed S]
    bornsim presets

verify prints one line per property.  Its randomized properties are rows of
one table run by one trial loop; trial t of a row draws from
default_rng([seed, stream, t]), which the line's worst_seed names, and an
invariant violation inside a trial's check names it too.

Each row's trials run on the CPUs in the process's affinity mask: share w of
W takes trials t = w (mod W), the process runs share 0 and forks a child per
other share.  The printed bytes are the same on any CPU count; `taskset -c 0`
runs everything in one process.  A process that already runs other threads,
such as the thread pool numpy's OpenBLAS starts on a multi-CPU host unless
OPENBLAS_NUM_THREADS=1, does not fork.  Every child holds its own trial's
arrays, so at a large --dims-limit memory adds up across the workers.

Exit codes: 0 success, 1 verify property failure, 2 parse/usage error
(including a negative seed and a --dims-limit above MAX_DIMS_LIMIT = 256),
3 numerical invariant violation (including a pointer setup whose state
exceeds pointer.POINTER_STATE_MAX_AMPS amplitudes, and a telepathy scenario
asking for more than signaling.MAX_SHOTS Monte Carlo shots).
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DensityMatrix, Operator, tv_distance, von_neumann_entropy
from .errors import BornsimError
from .measurement import (
    BORN,
    ProbabilityRule,
    _classical_branches,
    ll_channel,
    rule_probabilities,
    state_preparation_unitaries,
)
from .observables import embed_observable
from .pointer import (
    POINTER_STATE_MAX_AMPS,
    SCHEME_AGREEMENT_TOL,
    _joint_gap,
    _projection_deviation,
    _shared_born_rows,
    brute_force_joint,
    one_pointer_setup,
    run_one_pointer,
    run_two_pointer,
    two_pointer_setup,
)
from .presets import (
    OBSERVABLE_PRESET_DESCRIPTIONS,
    SCENARIO_PRESETS,
    STATE_PRESET_DESCRIPTIONS,
    observable_preset,
    state_preset,
    scenario_preset_text,
)
from .rand import HAAR_STACK_AMPS, _draw_observable, _ginibre, _haar, random_density, random_state
from .scenario import (
    DEFAULT_SEED,
    ScenarioParseError,
    parse_scenario,
    run_scenario,
)
from .signaling import (
    TelepathyScenario,
    _bob_arms,
    _cell_weights,
    _checked_gap,
    channel_simulation,
)


@dataclass
class Check:
    name: str
    detail: str
    passed: bool


def _render_records(records) -> str:
    return "\n".join(f"{k}={v}" for k, v in records)


def _render_table(records) -> str:
    body = records[3:]
    head = dict(records[:3])
    width = max((len(k) for k, _ in body), default=8)
    lines = [
        f"scenario {head['scenario']}  kind={head['kind']}  seed={head['seed']}",
        "-" * max(40, width + 18),
    ]
    lines += [f"{k:<{width}}  {v}" for k, v in body]
    return "\n".join(lines)


def cmd_run(args) -> int:
    name = args.scenario
    if os.path.isfile(name):
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
        source = os.path.splitext(os.path.basename(name))[0]
    elif name in SCENARIO_PRESETS:
        text = scenario_preset_text(name)
        source = name
    else:
        print(f"parse error: no such file or preset: {name}", file=sys.stderr)
        return 2
    records = run_scenario(parse_scenario(text, source))
    if args.format == "records":
        print(_render_records(records))
    else:
        print(_render_table(records))
    return 0


def cmd_presets(args) -> int:
    print("states:")
    for name, desc in STATE_PRESET_DESCRIPTIONS.items():
        print(f"  {name:<18} {desc}")
    print("observables:")
    for name, desc in OBSERVABLE_PRESET_DESCRIPTIONS.items():
        print(f"  {name:<18} {desc}")
    print("scenarios:")
    for name, (desc, _) in SCENARIO_PRESETS.items():
        print(f"  {name:<18} {desc}")
    return 0


# ------------------------------------------------------------ verify batteries

def _check_epr() -> Check:
    sigma_z = observable_preset("sigma_z")
    final, _ = run_one_pointer(one_pointer_setup(state_preset("minus"), sigma_z, sigma_z))
    s = 1.0 / np.sqrt(2.0)
    expected = np.array([0.0, s, -s, 0.0], dtype=complex)
    dev = float(np.max(np.abs(final.amps - expected)))
    return Check("epr_reproduction", f"worst={dev:.3g} limit=1e-12", dev < 1e-12)


def _check_witness(seed: int) -> Check:
    scenario = TelepathyScenario(
        state_preset("asymmetric(0.36)"),
        observable_preset("sigma_z"),
        observable_preset("sigma_z"),
        ProbabilityRule(2.0),
    )
    arms = _bob_arms(scenario)
    with_alice, without_alice = (arm.as_dict() for arm in arms)
    # Branch 1 of sigma_z carries eigenvalue +1, i.e. the |0> component.
    pw = 0.36**2 / (0.36**2 + 0.64**2)
    dev = max(
        abs(with_alice[1] - 0.36),
        abs(with_alice[0] - 0.64),
        abs(without_alice[1] - pw),
        abs(without_alice[0] - (1.0 - pw)),
        abs(tv_distance(*arms) - (0.36 - pw)),
    )
    rng = np.random.default_rng([seed, 3])
    mc_dev = 0.0
    for bit, analytic in zip((1, 0), arms):
        mc = channel_simulation(scenario, bit, 100_000, rng)
        mc_dev = max(mc_dev, tv_distance(mc, analytic))
    return Check(
        "telepathy_witness",
        f"analytic_dev={dev:.3g} limit=1e-06 mc_dev={mc_dev:.3g} mc_limit=0.01",
        dev < 1e-6 and mc_dev <= 0.01,
    )


def _check_born_marginals() -> Check:
    state = state_preset("bell_pair")
    dev = 0.0
    for subsystem in (0, 1):
        lifted = embed_observable(observable_preset("sigma_z"), state.dims, subsystem)
        probs = rule_probabilities(BORN, state, lifted).probs
        dev = max(dev, float(np.max(np.abs(probs - 0.5))))
    return Check("born_marginals", f"worst={dev:.3g} limit=1e-12", dev < 1e-12)


# A trial has two phases.  Called, it makes every rng call of the trial and
# returns the Ginibre matrices of its Haar bases with its check.  The check,
# given a deque holding those bases in draw order at its left, pops them and
# returns one deviation per property of its row, then the row's per-trial
# tallies (0 or 1 each).

def _pointer_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, dims_limit + 1))
    degenerate = d >= 3 and t % 3 == 0
    spectrum_a, z_a = _draw_observable(rng, (d,), degenerate)
    spectrum_b, z_b = _draw_observable(rng, (d,), degenerate)
    state = random_state(rng, (d,))

    def check(bases) -> tuple:
        obs_a = spectrum_a.observable(bases.popleft())
        obs_b = spectrum_b.observable(bases.popleft())
        two = two_pointer_setup(state, obs_a, obs_b)
        _, joint_two = run_two_pointer(two)
        oracle = _joint_gap(joint_two, brute_force_joint(two))
        one = one_pointer_setup(state, obs_a, obs_b)
        _, joint_one = run_one_pointer(one)
        # Both schemes' conditionals are checked against one set of Born rows.
        born = _shared_born_rows(two, joint_two, joint_one)
        equiv = max(_projection_deviation(two, joint_two, born),
                    _projection_deviation(one, joint_one, born))
        return equiv, _joint_gap(joint_two, joint_one), oracle, degenerate

    return (z_a, z_b), check


def _no_signaling_trial(rng, t: int, dims_limit: int) -> tuple:
    d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    state = random_state(rng, (d1, d2))
    spectra, zs = zip(*(_draw_observable(rng, (d,)) for d in (d1, d2)))

    def check(bases) -> tuple:
        parties = [spectrum.observable(bases.popleft()) for spectrum in spectra]
        # Swapping the parties transposes W, so both directions come from one W.
        cells = _cell_weights(TelepathyScenario(state, *parties, BORN))
        return (max(_checked_gap(cells, BORN), _checked_gap(cells.T, BORN)),)

    return zs, check


def _entropy_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, 9))
    rho = random_density(rng, (d,))
    spectrum, z = _draw_observable(rng, (d,), degenerate=(d >= 3 and t % 2 == 0))

    def check(bases) -> tuple:
        obs = spectrum.observable(bases.popleft())
        dephased, _, live = _classical_branches(rho, obs)
        s_in = von_neumann_entropy(rho)
        s_out = von_neumann_entropy(DensityMatrix(rho.dims, dephased))
        avg = sum(p * von_neumann_entropy(post) for p, post in live.values())
        return (max(s_in - s_out, avg - s_out),)

    return (z,), check


def _ll_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, dims_limit + 1))
    state = random_state(rng, (d,))
    spectrum, z = _draw_observable(rng, (d,))
    zs = [z, *(_ginibre(rng, d) for _ in spectrum.eigenvalues)]
    target = random_state(rng, (d,))

    def check(bases) -> tuple:
        obs = spectrum.observable(bases.popleft())
        unitaries = [Operator((d,), bases.popleft()) for _ in range(obs.branch_count)]
        # <psi|P_n psi>, a route independent of the branch_weights call ll_channel makes.
        weights = (state.amps.conj() @ obs.split(state.amps)).real
        records = ll_channel(state, obs, unitaries)
        dev = max(abs(rec.probability - weights[rec.branch_index]) for rec in records)
        unitaries = state_preparation_unitaries(state, obs, target)
        for rec in ll_channel(state, obs, unitaries):
            dev = max(dev, float(np.max(np.abs(rec.post_state.amps - target.amps))))
        return (dev,)

    return zs, check


@dataclass(frozen=True)
class _Battery:
    limits: tuple[tuple[str, float], ...]  # (property, limit) per deviation
    stream: int
    trial: Callable[[np.random.Generator, int, int], tuple]
    few: bool = False  # max(50, trials // 4) trials instead of trials
    tallies: tuple[str, ...] = ()


_POINTER = _Battery(
    (("projection_equivalence", 1e-10), ("scheme_agreement", SCHEME_AGREEMENT_TOL),
     ("oracle_agreement", SCHEME_AGREEMENT_TOL)),
    1, _pointer_trial, tallies=("degenerate",),
)
_NO_SIGNALING = _Battery((("no_signaling_born", 1e-12),), 2, _no_signaling_trial)
_ENTROPY = _Battery((("entropy_monotonicity", 1e-10),), 4, _entropy_trial, few=True)
_LL = _Battery((("ll_channel_invariance", 1e-12),), 5, _ll_trial, few=True)


def _verify_workers(trials: int) -> int:
    # One share per CPU this process may run on, at most one per trial.  One
    # share, run inline, where the platform cannot fork or report affinity or
    # its threads, and where the process runs other threads: forking them is
    # unsafe, and a BLAS thread pool (numpy's OpenBLAS starts one on a
    # multi-CPU host unless OPENBLAS_NUM_THREADS=1) in every worker makes even
    # 4 x 4 products fight over the CPUs, slower than one process.
    try:
        if not hasattr(os, "fork") or len(os.listdir("/proc/self/task")) > 1:
            return 1
        return max(1, min(len(os.sched_getaffinity(0)), trials))
    except (OSError, AttributeError):
        return 1


def _run_share(row: _Battery, trials: range, dims_limit: int, seed: int) -> tuple:
    """Deviation rows of `trials` in order, and the share's first failure.

    The failure is None or (trial, exception) for the first trial of the
    share without a row; the share stops there.  It is returned, not raised,
    so that the parent raises the failure of the lowest trial of all shares.
    """
    # Trials are drawn in order and kept pending until their Ginibre matrices
    # reach HAAR_STACK_AMPS amplitudes or the last trial is drawn; then one
    # _haar call makes all their bases and their checks run in order.
    rows, pending, amps = [], [], 0  # pending: (t, Ginibre matrices, check)
    try:
        for t in trials:
            pending.append((t, *row.trial(np.random.default_rng([seed, row.stream, t]), t,
                                          dims_limit)))
            amps += sum(z.size for z in pending[-1][1])
            if amps < HAAR_STACK_AMPS and t != trials[-1]:
                continue
            bases = deque(_haar([z for _, zs, _ in pending for z in zs]))
            # Rebinding pending frees the Ginibre matrices before any check runs.
            checks, pending, amps = [(i, check) for i, _, check in pending], [], 0
            for i, check in checks:
                try:
                    rows.append(check(bases))
                except BornsimError as exc:
                    exc.args = (f"trial [{seed},{row.stream},{i}]: {exc}",)
                    raise
    except Exception as exc:
        return rows, (trials[len(rows)], exc)
    return rows, None


def _fork_share(row: _Battery, trials: range, dims_limit: int, seed: int) -> tuple[int, int]:
    # Forks a child that runs one share and writes its pickled result to a
    # pipe; returns the child's pid and the pipe's read end.
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        result = _run_share(row, trials, dims_limit, seed)
        try:
            payload = pickle.dumps(result)
        except Exception:  # an exception that does not pickle: keep its class name and message
            rows, (t, exc) = result
            payload = pickle.dumps((rows, (t, RuntimeError(f"{type(exc).__name__}: {exc}"))))
        with open(write, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        # No exit handlers, and no second flush of stdio buffers copied from the parent.
        os._exit(code)


def _collect(pid: int, read: int) -> tuple:
    # A forked share's result, read to end of file before the child is reaped.
    try:
        with open(read, "rb") as fh:
            payload = fh.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if not payload:
        raise RuntimeError(
            f"verify worker {pid} exited with code {os.waitstatus_to_exitcode(status)} "
            "without sending its trials"
        )
    return pickle.loads(payload)


def _run_battery(row: _Battery, trials: int, dims_limit: int, seed: int) -> list[Check]:
    n = max(50, trials // 4) if row.few else trials
    # Share w of W takes trials t = w (mod W), which balances the drawn
    # dimensions; the parent runs share 0 and forks a child per other share.
    # Trial t draws only from its own stream and stacked QR is bit-identical
    # per matrix, so every row is the same on any number of shares.
    workers = _verify_workers(n)
    children = []  # (pid, read end) of each forked share not yet collected
    try:
        for w in range(1, workers):
            children.append(_fork_share(row, range(w, n, workers), dims_limit, seed))
        shares = [_run_share(row, range(0, n, workers), dims_limit, seed)]
        while children:
            shares.append(_collect(*children.pop(0)))
    finally:
        for pid, read in children:  # left only when the parent stopped early
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = np.array([shares[t % workers][0][t // workers] for t in range(n)])
    k = len(row.limits)
    totals = results[:, k:].sum(axis=0)
    tallies = "".join(f" {name}={int(c)}" for name, c in zip(row.tallies, totals))
    # Each property's first worst trial; a NaN deviation counts as the worst.
    worst_trials = results[:, :k].argmax(axis=0)
    return [
        Check(
            name,
            f"worst={results[t, i]:.3g} limit={limit:g} trials={n}{tallies} "
            f"worst_seed=[{seed},{row.stream},{t}]",
            bool(results[t, i] < limit),
        )
        for i, ((name, limit), t) in enumerate(zip(row.limits, worst_trials))
    ]


# Largest --dims-limit whose d x d x d two-pointer state fits the pointer cap.
MAX_DIMS_LIMIT = round(POINTER_STATE_MAX_AMPS ** (1 / 3))


def run_verify(trials: int, dims_limit: int, seed: int, out=print) -> int:
    if trials < 1:
        raise ScenarioParseError(f"--trials must be >= 1, got {trials}")
    if not 2 <= dims_limit <= MAX_DIMS_LIMIT:
        raise ScenarioParseError(
            f"--dims-limit must be between 2 and {MAX_DIMS_LIMIT}, got {dims_limit}"
        )
    if seed < 0:
        raise ScenarioParseError(f"--seed must be >= 0, got {seed}")
    battery = lambda row: _run_battery(row, trials, dims_limit, seed)
    checks = [
        _check_epr(), *battery(_POINTER), *battery(_NO_SIGNALING), _check_witness(seed),
        _check_born_marginals(), *battery(_ENTROPY), *battery(_LL),
    ]
    for c in checks:
        out(f"{c.name:<24} {c.detail}  {'PASS' if c.passed else 'FAIL'}")
    failed = [c for c in checks if not c.passed]
    if failed:
        out(f"verify: {len(failed)} of {len(checks)} properties FAILED")
        return 1
    out(f"verify: all {len(checks)} properties passed")
    return 0


def cmd_verify(args) -> int:
    return run_verify(args.trials, args.dims_limit, args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornsim",
        description="Projective measurement simulator with pointer schemes "
        "and operational no-signaling tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file or named preset")
    p_run.add_argument("scenario", help="path to a scenario file, or a preset name")
    p_run.add_argument(
        "--format", choices=("table", "records"), default="table",
        help="output style (records is line-oriented key=value)",
    )
    p_run.set_defaults(func=cmd_run)
    p_verify = sub.add_parser("verify", help="run the randomized property batteries")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--dims-limit", type=int, default=6)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.set_defaults(func=cmd_verify)
    p_presets = sub.add_parser("presets", help="list named states, observables, scenarios")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BornsimError as exc:
        print(f"invariant violation [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
