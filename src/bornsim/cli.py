"""Command line interface.

    bornsim run <file-or-preset> [--format table|records]
    bornsim verify [--trials N] [--dims-limit D] [--seed S]
    bornsim presets

verify prints one line per property.  Its randomized properties are rows of
one table run by one trial loop; trial t of a row draws from
default_rng([seed, stream, t]), which the line's worst_seed names, and an
invariant violation while a trial's observables are built or checked names
it too.  Every Haar matrix a trial draws is an observable's eigenbasis, and
its check computes its deviations in the kernel that `run` calls for the
same claim: pointer._pointer_check, signaling._signaling_check and
measurement's _entropy_check and _target_check.

Each row's trials run on the CPUs in the process's affinity mask: share w of
W takes trials t = w (mod W) of every row.  verify forks one set of W - 1
children per run, and every process runs the same share loop over the rows;
each child sends all its rows back at once.  The process itself runs share 0,
collects the other shares, then merges in print order, running each one-shot
check at its place there.  Every property is a Check of (key, value) fields,
and one renderer prints its line.  The printed bytes are the same on any CPU
count; `taskset -c 0` runs everything in one process.  A process that
already runs other threads, such as the thread pool numpy's OpenBLAS starts
on a multi-CPU host unless OPENBLAS_NUM_THREADS=1, does not fork.  Every
worker holds its own trial's arrays, so W is at most the memory available
over one worker's peak at --dims-limit.

main parses with one argparse parser per process, built on its first call,
so in-process callers (tests, benchmarks, library use) pay for it once.

Exit codes: 0 success, 1 verify property failure, 2 parse/usage error
(including a negative seed and a --dims-limit above MAX_DIMS_LIMIT = 256),
3 numerical invariant violation (including a pointer setup whose state
exceeds pointer.POINTER_STATE_MAX_AMPS amplitudes, and a telepathy scenario
asking for more than signaling.MAX_SHOTS Monte Carlo shots).
"""

from __future__ import annotations

import argparse
import functools
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BornsimError
from .measurement import (
    BORN,
    ProbabilityRule,
    _entropy_check,
    _target_check,
    rule_probabilities,
)
from .observables import embed_observable
from .pointer import (
    POINTER_STATE_MAX_AMPS,
    SCHEME_AGREEMENT_TOL,
    _oracle_gap,
    _pointer_check,
    one_pointer_setup,
    run_one_pointer,
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
from .rand import HAAR_STACK_AMPS, _draw_observable, _haar, random_density, random_state
from .scenario import (
    DEFAULT_SEED,
    ScenarioParseError,
    parse_scenario,
    run_scenario,
)
from .signaling import (
    TelepathyScenario,
    _cell_weights,
    _signaling_check,
    channel_simulation,
)


@dataclass(frozen=True)
class Check:
    name: str
    fields: tuple[tuple[str, float | int | tuple[int, ...]], ...]  # (key, value) in print order
    passed: bool


def _within(name: str, worst: float, limit: float, *fields) -> Check:
    # A property whose worst deviation must stay below its limit; a NaN fails.
    return Check(name, (("worst", worst), ("limit", limit), *fields), bool(worst < limit))


def _render_check(check: Check) -> str:
    # The one property line: a float as .3g, an int as itself, a seed tuple
    # as [seed,stream,t].
    fields = " ".join(
        f"{key}=[{','.join(map(str, value))}]" if isinstance(value, tuple)
        else f"{key}={value}" if isinstance(value, int) else f"{key}={value:.3g}"
        for key, value in check.fields)
    return f"{check.name:<24} {fields}  {'PASS' if check.passed else 'FAIL'}"


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
        try:
            with open(name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioParseError(f"cannot read {name}: {exc}")
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
    return _within("epr_reproduction", dev, 1e-12)


def _check_witness(seed: int) -> Check:
    scenario = TelepathyScenario(
        state_preset("asymmetric(0.36)"),
        observable_preset("sigma_z"),
        observable_preset("sigma_z"),
        ProbabilityRule(2.0),
    )
    with_alice, without_alice, gap = _signaling_check(_cell_weights(scenario), scenario.bob_rule)
    # Branch 1 of sigma_z carries eigenvalue +1, i.e. the |0> component.
    pw = 0.36**2 / (0.36**2 + 0.64**2)
    dev = max(
        abs(with_alice[1] - 0.36),
        abs(with_alice[0] - 0.64),
        abs(without_alice[1] - pw),
        abs(without_alice[0] - (1.0 - pw)),
        abs(gap - (0.36 - pw)),
    )
    rng = np.random.default_rng([seed, 3])
    mc_dev = 0.0
    for bit, analytic in zip((1, 0), (with_alice, without_alice)):
        mc = channel_simulation(scenario, bit, 100_000, rng)
        mc_dev = max(mc_dev, float(0.5 * np.abs(mc.probs - analytic).sum()))
    limit, mc_limit = 1e-6, 0.01
    fields = (("analytic_dev", dev), ("limit", limit), ("mc_dev", mc_dev), ("mc_limit", mc_limit))
    return Check("telepathy_witness", fields, bool(dev < limit and mc_dev <= mc_limit))


def _check_born_marginals() -> Check:
    state = state_preset("bell_pair")
    dev = 0.0
    for subsystem in (0, 1):
        lifted = embed_observable(observable_preset("sigma_z"), state.dims, subsystem)
        probs = rule_probabilities(BORN, state, lifted).probs
        dev = max(dev, float(np.max(np.abs(probs - 0.5))))
    return _within("born_marginals", dev, 1e-12)


# A trial has two phases.  Called, it makes every rng call of the trial, in
# the order random_state and random_observable would make them, and returns
# the (Observable partial, Ginibre matrix) pair of each observable it drew,
# in draw order, with its check.  The check takes those observables as
# arguments and returns one deviation per property of its row, then the
# row's per-trial tallies (0 or 1 each).

def _pointer_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, dims_limit + 1))
    degenerate = d >= 3 and t % 3 == 0
    drawn = (_draw_observable(rng, (d,), degenerate), _draw_observable(rng, (d,), degenerate))
    state = random_state(rng, (d,))

    def check(obs_a, obs_b) -> tuple:
        two = two_pointer_setup(state, obs_a, obs_b)
        _, (joint_two, _), deviations, scheme_gap = _pointer_check(
            two, one_pointer_setup(state, obs_a, obs_b))
        return max(deviations), scheme_gap, _oracle_gap(two, joint_two), degenerate

    return drawn, check


def _no_signaling_trial(rng, t: int, dims_limit: int) -> tuple:
    d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    state = random_state(rng, (d1, d2))
    drawn = tuple(_draw_observable(rng, (d,)) for d in (d1, d2))

    def check(*parties) -> tuple:
        # Swapping the parties transposes W, so both directions come from one W.
        cells = _cell_weights(TelepathyScenario(state, *parties, BORN))
        return (max(_signaling_check(cells, BORN)[2], _signaling_check(cells.T, BORN)[2]),)

    return drawn, check


def _entropy_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, 9))
    rho = random_density(rng, (d,))
    drawn = _draw_observable(rng, (d,), degenerate=(d >= 3 and t % 2 == 0))

    def check(obs) -> tuple:
        s_in, s_out, _, avg = _entropy_check(rho, obs)
        return (max(s_in - s_out, avg - s_out),)

    return (drawn,), check


def _ll_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, dims_limit + 1))
    state = random_state(rng, (d,))
    drawn = _draw_observable(rng, (d,))
    target = random_state(rng, (d,))

    def check(obs) -> tuple:
        # <psi|P_n psi>, a route independent of the kernel's branch_weights call.
        weights = (state.amps.conj() @ obs.split(state.amps)).real
        records, target_dev = _target_check(state, obs, target)
        dev = max(abs(rec.probability - weights[rec.branch_index]) for rec in records)
        return (max(dev, target_dev),)

    return (drawn,), check


@dataclass(frozen=True)
class _Battery:
    limits: tuple[tuple[str, float], ...]  # (property, limit) per deviation
    stream: int
    trial: Callable[[np.random.Generator, int, int], tuple]
    few: bool = False  # max(50, trials // 4) trials instead of trials
    tallies: tuple[str, ...] = ()

    def count(self, trials: int) -> int:
        return max(50, trials // 4) if self.few else trials


_POINTER = _Battery(
    (("projection_equivalence", 1e-10), ("scheme_agreement", SCHEME_AGREEMENT_TOL),
     ("oracle_agreement", SCHEME_AGREEMENT_TOL)),
    1, _pointer_trial, tallies=("degenerate",),
)
_NO_SIGNALING = _Battery((("no_signaling_born", 1e-12),), 2, _no_signaling_trial)
_ENTROPY = _Battery((("entropy_monotonicity", 1e-10),), 4, _entropy_trial, few=True)
_LL = _Battery((("ll_channel_invariance", 1e-12),), 5, _ll_trial, few=True)


# One verify worker's peak RSS at --dims-limit d, at most: _WORKER_BASE_BYTES
# plus _WORKER_STATES complex d x d x d arrays.  Its largest trial is a
# pointer trial at d with d branches per observable, whose d x d x d
# two-pointer state, copies and temporaries peaked at 62, 120, 233, 417 and
# 692 MB for d = 64, 96, 128, 160 and 192 (numpy 2.4, BLAS on one thread):
# 38 MB plus 6.06 such arrays.  At d = 256 that is 1.6 GB.
_WORKER_BASE_BYTES = 40 * 2**20
_WORKER_STATES = 6.1


def _worker_peak(dims_limit: int) -> int:
    return int(_WORKER_BASE_BYTES + _WORKER_STATES * 16 * dims_limit**3)


def _available_memory() -> int:
    # Free physical memory, capped by the headroom under the memory.max of
    # the process's cgroup (v2) and its ancestors wherever one is set.
    available = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        with open("/proc/self/cgroup", encoding="ascii") as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
    except (OSError, StopIteration):
        return available
    while True:
        try:
            with open(f"/sys/fs/cgroup{path}/memory.max", encoding="ascii") as fh:
                limit = fh.read().strip()
            with open(f"/sys/fs/cgroup{path}/memory.current", encoding="ascii") as fh:
                used = int(fh.read())
            if limit != "max":
                available = min(available, int(limit) - used)
        except (OSError, ValueError):
            pass
        if path in ("/", ""):
            return available
        path = os.path.dirname(path)


def _verify_workers(trials: int, dims_limit: int) -> int:
    # One share per CPU this process may run on, at most one per trial and
    # no more than the available memory holds at _worker_peak(dims_limit)
    # each.  One share, run inline, where the platform cannot fork or report
    # affinity, its threads or its memory, and where the process runs other
    # threads: forking them is unsafe, and a BLAS thread pool (numpy's
    # OpenBLAS starts one on a multi-CPU host unless OPENBLAS_NUM_THREADS=1)
    # in every worker makes even 4 x 4 products fight over the CPUs, slower
    # than one process.
    try:
        if not hasattr(os, "fork") or len(os.listdir("/proc/self/task")) > 1:
            return 1
        fit = _available_memory() // _worker_peak(dims_limit)
        return max(1, min(len(os.sched_getaffinity(0)), trials, fit))
    except (OSError, AttributeError, ValueError):
        return 1


def _run_share(row: _Battery, trials: range, dims_limit: int, seed: int) -> tuple:
    """Deviation rows of `trials` in order, and the share's first failure.

    The failure is None or (trial, exception) for the first trial of the
    share without a row; the share stops there.  It is returned, not raised,
    so that the parent raises the failure of the lowest trial of all shares.
    """
    # Trials are drawn in order and kept pending until their Ginibre matrices
    # reach HAAR_STACK_AMPS amplitudes or the last trial is drawn; then one
    # _haar call makes all their bases, and each check runs in order on its
    # trial's observables.
    rows, pending, amps = [], [], 0  # pending: (t, (partial, Ginibre) pairs, check)
    try:
        for t in trials:
            pending.append((t, *row.trial(np.random.default_rng([seed, row.stream, t]), t,
                                          dims_limit)))
            amps += sum(z.size for _, z in pending[-1][1])
            if amps < HAAR_STACK_AMPS and t != trials[-1]:
                continue
            bases = iter(_haar([z for _, drawn, _ in pending for _, z in drawn]))
            # Rebinding pending frees the Ginibre matrices before any check runs.
            checks = [(i, [observable for observable, _ in drawn], check)
                      for i, drawn, check in pending]
            pending, amps = [], 0
            for i, observables, check in checks:
                try:
                    rows.append(check(*[observable(next(bases)) for observable in observables]))
                except BornsimError as exc:
                    exc.args = (f"trial [{seed},{row.stream},{i}]: {exc}",)
                    raise
    except Exception as exc:
        return rows, (trials[len(rows)], exc)
    return rows, None


def _run_shares(rows, trials: int, w: int, workers: int, dims_limit: int, seed: int) -> list:
    # _run_share's result for share w of W of each row, in order, stopping
    # after the first row that fails.
    results = []
    for row in rows:
        results.append(_run_share(row, range(w, row.count(trials), workers), dims_limit, seed))
        if results[-1][1] is not None:
            break
    return results


def _fork_shares(rows: list, trials: int, w: int, workers: int, dims_limit: int,
                 seed: int) -> tuple[int, int]:
    # Forks a child that runs share w of every row and writes the pickled
    # list of their results to a pipe; returns the child's pid and the
    # pipe's read end.
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
        results = _run_shares(rows, trials, w, workers, dims_limit, seed)
        try:
            payload = pickle.dumps(results)
        except Exception:  # an exception that does not pickle: keep its class name and message
            done, (t, exc) = results[-1]
            results[-1] = done, (t, RuntimeError(f"{type(exc).__name__}: {exc}"))
            payload = pickle.dumps(results)
        with open(write, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        # No exit handlers, and no second flush of stdio buffers copied from the parent.
        os._exit(code)


def _collect(pid: int, read: int) -> list:
    # A forked child's results, read to end of file before the child is reaped.
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


def _battery_checks(row: _Battery, trials: int, seed: int, shares: list) -> list[Check]:
    # One row's properties from each share's _run_share result, share w of W
    # holding trials t = w (mod W); the failure of the lowest trial of all
    # shares is raised, as the one-share loop raises it.
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    n, workers = row.count(trials), len(shares)
    results = np.array([shares[t % workers][0][t // workers] for t in range(n)])
    k = len(row.limits)
    tallies = [(name, int(c)) for name, c in zip(row.tallies, results[:, k:].sum(axis=0))]
    # Each property's first worst trial; a NaN deviation counts as the worst.
    worst_trials = results[:, :k].argmax(axis=0)
    return [
        _within(name, float(results[t, i]), limit, ("trials", n), *tallies,
                ("worst_seed", (seed, row.stream, int(t))))
        for i, ((name, limit), t) in enumerate(zip(row.limits, worst_trials))
    ]


# Largest --dims-limit whose d x d x d two-pointer state fits the pointer cap.
MAX_DIMS_LIMIT = round(POINTER_STATE_MAX_AMPS ** (1 / 3))


def run_verify(trials: int, dims_limit: int, seed: int) -> int:
    if trials < 1:
        raise ScenarioParseError(f"--trials must be >= 1, got {trials}")
    if not 2 <= dims_limit <= MAX_DIMS_LIMIT:
        raise ScenarioParseError(
            f"--dims-limit must be between 2 and {MAX_DIMS_LIMIT}, got {dims_limit}"
        )
    if seed < 0:
        raise ScenarioParseError(f"--seed must be >= 0, got {seed}")
    # The properties' steps in print order.
    steps = (_check_epr, _POINTER, _NO_SIGNALING, lambda: _check_witness(seed),
             _check_born_marginals, _ENTROPY, _LL)
    rows = [step for step in steps if isinstance(step, _Battery)]
    # Share w of W takes each row's trials t = w (mod W), which balances the
    # drawn dimensions.  W - 1 children are forked once, each running its
    # share of every row; the parent runs share 0 and collects the others.
    # Trial t draws only from its own stream and stacked QR is bit-identical
    # per matrix, so every row is the same on any number of shares.
    workers = _verify_workers(max(row.count(trials) for row in rows), dims_limit)
    children = []  # (pid, read end) of each forked child not yet collected
    try:
        for w in range(1, workers):
            children.append(_fork_shares(rows, trials, w, workers, dims_limit, seed))
        shares = [_run_shares(rows, trials, 0, workers, dims_limit, seed)]
        while children:
            shares.append(_collect(*children.pop(0)))
    finally:
        for pid, read in children:  # left only when the parent stopped early
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # The one-shot checks run here, at their place in print order.  Every
    # share stops at its first failing row, so the first step in print order
    # that failed raises before a share runs out.
    shares = [iter(share) for share in shares]
    checks = []
    for step in steps:
        if isinstance(step, _Battery):
            checks += _battery_checks(step, trials, seed, [next(share) for share in shares])
        else:
            checks.append(step())
    print("\n".join(map(_render_check, checks)))
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"verify: {len(failed)} of {len(checks)} properties FAILED")
        return 1
    print(f"verify: all {len(checks)} properties passed")
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
    p_verify = sub.add_parser("verify", help="run the randomized property batteries")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--dims-limit", type=int, default=6)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_presets = sub.add_parser("presets", help="list named states, observables, scenarios")
    return parser


# argparse keeps no state between parse_args calls.  The parser holds no
# command function: main looks each one up when it runs, so a patched or
# traced cmd_* is the one called.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = {"run": cmd_run, "verify": cmd_verify, "presets": cmd_presets}[args.command]
    try:
        return command(args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BornsimError as exc:
        print(f"invariant violation [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
