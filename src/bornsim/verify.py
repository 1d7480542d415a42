"""`bornsim verify`: the paper's claims as properties checked on seeded trials.

verify prints one line per property.  Its randomized properties are rows of
one table run by one trial loop; trial t of a row draws from
default_rng([seed, stream, t]), which the line's worst_seed names, and an
invariant violation while a trial's inputs are checked names it too.  The
loop seeds those generators a block of trials at a time (_trial_rngs), in
the states default_rng gives them.  Every Haar matrix a trial draws is an
observable's eigenbasis, and its check computes its deviations in the kernel
that `run` calls for the same claim: pointer._pointer_check,
signaling._signaling_check and measurement's _entropy_check and
_target_check.

The trials drawn ahead for one _haar call form a chunk.  Its trials of one
stack key are checked as arrays, in stacks of at most HAAR_STACK_AMPS
register amplitudes, one kernel call each: a stack runs the value checks of
its trials' objects once, through the checkers their constructors call, and
needs no dims check, as it is built on its states' shape.  Pointer
trials of one d up to _MAX_PADDED_DIM pad their branch axes and registers
to d, larger ones of one d and branch counts are not padded, no-signaling
trials of one shape pad their cells to d_A x d_B, entropy trials of one d
their branch axes to d, and LL trials of one d and branch count are not
padded.  Kernels compute every branch column and mask the live ones, so a
stack's rows are its trials' rows checked alone, whatever the stacks and
shares; a stack that raises is checked again a trial at a time, so the
error is the lowest failing trial's, or, if every trial passes alone, the
stack's own, named after its lowest trial.

Each row's trials run on the CPUs in the process's affinity mask: share w of
W takes trials t = w (mod W) of every row.  verify forks one set of W - 1
children per run, and every process runs the same share loop over the rows;
each child sends all its rows back at once.  The process itself runs share 0,
then the one-shot checks while the children finish, collects the other
shares, and merges in print order; a one-shot check's error is kept and
raised at the check's place there.  Every property is a Check of (key,
value) fields, and one renderer prints its line.  The printed bytes are the
same on any CPU count; `taskset -c 0` runs everything in one process.  A
process that already runs other threads, such as the thread pool numpy's
OpenBLAS starts on a multi-CPU host unless OPENBLAS_NUM_THREADS=1, does not
fork.  Every worker holds its own trials' arrays, so W is at most the memory
available over one worker's peak at --dims-limit.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass
from itertools import groupby, islice
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import _check_densities, _check_states
from .errors import BornsimError
from .measurement import BORN, ProbabilityRule, _entropy_check, _target_check, rule_probabilities
from .observables import _checked_stack, embed_observable
from .pointer import (POINTER_STATE_MAX_AMPS, SCHEME_AGREEMENT_TOL, _oracle_gap, _pointer_check,
                      one_pointer_setup, run_one_pointer)
from .presets import observable_preset, state_preset
from .rand import HAAR_STACK_AMPS, _draw_density, _draw_observable, _draw_state, _haar, _stacks
from .scenario import ScenarioParseError
from .signaling import (TelepathyScenario, _arms, _cell_weights, _signaling_check,
                        channel_simulation)


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
    with_alice, without_alice, gap = _arms(scenario)
    # Branch 1 of sigma_z carries eigenvalue +1, i.e. the |0> component.
    pw = 0.36**2 / (0.36**2 + 0.64**2)
    # Both deviations are folded by np.max, so that a NaN term fails the property.
    dev = float(np.max(np.abs([with_alice[1] - 0.36, with_alice[0] - 0.64, without_alice[1] - pw,
                               without_alice[0] - (1.0 - pw), gap - (0.36 - pw)])))
    rng = np.random.default_rng([seed, 3])
    mc = [channel_simulation(scenario, bit, 100_000, rng).probs for bit in (1, 0)]
    mc_dev = float(np.max(0.5 * np.abs(np.subtract(mc, (with_alice, without_alice))).sum(axis=1)))
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
# each observable it drew as its (eigenvalues, Ginibre matrix, labels), in
# draw order, the rest of the trial's inputs as arrays, and its stack: (key,
# amplitudes), where trials of one key share calls of at most HAAR_STACK_AMPS
# amplitudes (a larger trial takes a call alone).  A battery's check takes
# a stack's trials as (observables, inputs) pairs, each observable's Ginibre
# matrix replaced by its Haar basis, runs on the stack every check the
# trials' objects would run, and returns one row per trial: a deviation per
# property of its battery, then its tallies (0 or 1 each).  A trial's key and
# padding depend on its own draws alone.

# Largest d at which pointer trials are padded.  A padded trial
# computes d x d x d registers where an unpadded one computes d x k_A x k_B,
# about a quarter of that for uniform branch counts, so past a point the
# padding costs more than the per-call overhead stacking saves: per trial,
# stacks of 12 took 0.25 ms at d = 14 against 0.29 ms alone and unpadded,
# 0.41 against 0.41 ms at d = 18 and 1.1 against 0.5 ms at d = 24 (one
# CPU of a shared 2-CPU VM, numpy 2.4, BLAS on one thread).
_MAX_PADDED_DIM = 16


def _padding(d: int) -> int | None:
    # The width a pointer trial at d pads its branch and pointer axes to, or None.
    return d if d <= _MAX_PADDED_DIM else None


def _pointer_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, dims_limit + 1))
    degenerate = d >= 3 and t % 3 == 0
    drawn = (_draw_observable(rng, (d,), degenerate), _draw_observable(rng, (d,), degenerate))
    state = _draw_state(rng, (d,))
    na, nb = (_padding(d) or len(values) for values, _, _ in drawn)
    return drawn, (state, degenerate), ((d, na, nb), d * na * nb)


def _check_pointer(trials: list) -> list:
    # One _pointer_check and one _oracle_gap call, on one stack, for trials
    # of one d (and, unpadded, one pair of branch counts), after the checks
    # of their states and observables.  The pointers, and the oracle's
    # registers, are as wide as the branch axes, at most d, so a setup's
    # checks hold: d^3 fits POINTER_STATE_MAX_AMPS up to MAX_DIMS_LIMIT.
    psi = np.array([state for _, (state, _) in trials])
    dims = psi.shape[1:]
    pad = _padding(dims[0])
    _check_states(psi)
    obs_a, obs_b = (_checked_stack(dims, [drawn[i] for drawn, _ in trials], pad) for i in (0, 1))
    stacked = psi, obs_a, obs_b
    _, (joint, _), deviations, scheme_gaps = _pointer_check(stacked, one=True)
    oracle_gaps = _oracle_gap(stacked, joint, *joint.shape[1:])
    return [(dev, scheme, oracle, degenerate) for dev, scheme, oracle, (_, (_, degenerate))
            in zip(deviations.max(axis=1), scheme_gaps, oracle_gaps, trials)]


def _no_signaling_trial(rng, t: int, dims_limit: int) -> tuple:
    d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    state = _draw_state(rng, (d1, d2)).reshape(d1, d2)
    drawn = tuple(_draw_observable(rng, (d,)) for d in (d1, d2))
    return drawn, state, ((d1, d2), d1 * d2)


def _check_no_signaling(trials: list) -> list:
    # One W per trial, padded to d_A x d_B, for trials of one shape, after
    # the checks of their states and observables; each party's stack is
    # built on its own axis of the (d_A, d_B) states, so a scenario's checks
    # hold.  Swapping the parties transposes W, so both directions come from it.
    m = np.array([state for _, state in trials])
    _check_states(m)
    alice, bob = (_checked_stack((d,), [drawn[i] for drawn, _ in trials], d)
                  for i, d in enumerate(m.shape[1:]))
    cells = _cell_weights(m, alice, bob)
    gaps = np.maximum(_signaling_check(cells, BORN)[2],
                      _signaling_check(np.swapaxes(cells, -1, -2), BORN)[2])
    return [(gap,) for gap in gaps]


def _entropy_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, 9))
    rho = _draw_density(rng, (d,))
    drawn = _draw_observable(rng, (d,), degenerate=(d >= 3 and t % 2 == 0))
    return (drawn,), rho, (d, d**3)


def _check_entropy(trials: list) -> list:
    # One _entropy_check call for trials of one d, branch axes padded to d,
    # after the checks of their densities and observables.
    rho = np.array([rho for _, rho in trials])
    dims = rho.shape[1:2]
    spectrum = _check_densities(rho)
    obs = _checked_stack(dims, [observable for (observable,), _ in trials], dims[0])
    s_in, s_out, _, avg = _entropy_check(rho, spectrum, obs)
    return [(gap,) for gap in np.maximum(s_in - s_out, avg - s_out)]


def _ll_trial(rng, t: int, dims_limit: int) -> tuple:
    d = int(rng.integers(2, dims_limit + 1))
    state = _draw_state(rng, (d,))
    drawn = _draw_observable(rng, (d,))
    target = _draw_state(rng, (d,))
    return (drawn,), (state, target), ((d, len(drawn[0])), d * d)


def _check_ll(trials: list) -> list:
    # One _target_check call for trials of one d and branch count, unpadded,
    # after the checks of their states, targets and observables.
    psi, targets = (np.array([inputs[i] for _, inputs in trials]) for i in (0, 1))
    _check_states(np.concatenate([psi, targets]))
    obs = _checked_stack(psi.shape[1:], [observable for (observable,), _ in trials])
    weights, target_devs, live, _ = _target_check(psi, obs, targets)
    # <psi|P_n psi>, a route independent of the kernel's weights.
    born = (psi.conj()[:, None] @ obs.split(psi))[:, 0].real
    # A weight or post-state that misses fails the property, NaN included.
    devs = np.maximum(np.where(live, np.abs(weights - born), 0.0).max(axis=1), target_devs)
    return [(dev,) for dev in devs]


@dataclass(frozen=True)
class _Battery:
    limits: tuple[tuple[str, float], ...]  # (property, limit) per deviation
    stream: int
    trial: Callable[[np.random.Generator, int, int], tuple]
    check: Callable[[list], list]
    few: bool = False  # max(50, trials // 4) trials instead of trials
    tallies: tuple[str, ...] = ()

    def count(self, trials: int) -> int:
        return max(50, trials // 4) if self.few else trials


_POINTER = _Battery(
    (("projection_equivalence", 1e-10), ("scheme_agreement", SCHEME_AGREEMENT_TOL),
     ("oracle_agreement", SCHEME_AGREEMENT_TOL)),
    1, _pointer_trial, _check_pointer, tallies=("degenerate",),
)
_NO_SIGNALING = _Battery((("no_signaling_born", 1e-12),), 2, _no_signaling_trial,
                         _check_no_signaling)
_ENTROPY = _Battery((("entropy_monotonicity", 1e-10),), 4, _entropy_trial, _check_entropy,
                    few=True)
_LL = _Battery((("ll_channel_invariance", 1e-12),), 5, _ll_trial, _check_ll, few=True)


# One verify worker's peak RSS at --dims-limit d, at most: _WORKER_BASE_BYTES
# plus _WORKER_STATES complex arrays of the largest register one kernel call
# holds.  That is d x d x d for a pointer trial at d with d branches per
# observable, whose two-pointer state, copies and temporaries peaked at 62,
# 120, 233, 417 and 692 MB for d = 64, 96, 128, 160 and 192 (numpy 2.4, BLAS
# on one thread): 38 MB plus 6.06 such arrays; at d = 256, 1.6 GB.  The
# oracle's d x d x d register tensor set those peaks; the oracle now holds
# one d x d register at a time and no longer sets the peak (a whole verify
# at --dims-limit 256 on one CPU peaked at 245 MB), so the cap is
# conservative until it is refit from measured peaks.  A stack
# holds up to HAAR_STACK_AMPS register amplitudes (a larger trial, alone),
# more than d x d x d below d = 41.  The verify process peaked at 43.2 MB at
# --dims-limit 16, the largest padded d (40.0 MB unstacked), and at 46.2 MB
# at --dims-limit 40 (46.0 MB unstacked); the base is set 2 MB above the
# 40 MB of the fit above so that these stay under the bound.
_WORKER_BASE_BYTES = 42 * 2**20
_WORKER_STATES = 6.1


def _worker_peak(dims_limit: int) -> int:
    return int(_WORKER_BASE_BYTES + _WORKER_STATES * 16 * max(dims_limit**3, HAAR_STACK_AMPS))


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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), kept as
# Python ints below 2**32 so that no numpy scalar overflows.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Trials whose seed states _trial_rngs computes in one pass.
_SEED_BLOCK = 256


def _words(n: int) -> list[int]:
    # A non-negative entropy entry as SeedSequence coerces it: its 32-bit
    # words, lowest first, at least one.
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    # SeedSequence(column).generate_state(4, np.uint64), one row per column
    # of a uint32 array (words, n), computed a step at a time for all columns:
    # the pool filled and mixed, any words past the pool mixed in, and the
    # state drawn off the pool.  uint32 arrays wrap as numpy's uint32_t does.
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L
        result -= y * _MIX_MULT_R
        result ^= result >> 16
        return result

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((entropy.shape[1], 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> 16
        state[:, i] = value
    # Word pairs as little-endian uint64, as generate_state reads them.
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    # A seed sequence whose state is computed ahead: PCG64 asks it for
    # generate_state(4, np.uint64) once, when it is built.
    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _trial_rngs(seed: int, stream: int, trials: Iterable[int]) -> Iterator[np.random.Generator]:
    """A Generator per trial t, in order, in the state of
    np.random.default_rng([seed, stream, t]).

    The seed states are computed _SEED_BLOCK trials at a time, lazily, so
    memory stays bounded for any number of trials.  Within a block, the
    trials whose entropy [seed, stream, t] has as many 32-bit words share
    one entropy array.
    """
    head = _words(seed) + _words(stream)
    trials = iter(trials)
    while block := list(islice(trials, _SEED_BLOCK)):
        for _, group in groupby((head + _words(t) for t in block), len):
            for state in _seed_states(np.array(list(group), dtype=np.uint32).T):
                yield np.random.Generator(np.random.PCG64(_SeedState(state)))


def _check_chunk(row: _Battery, chunk: list):
    """(t, row or exception) for a chunk's trials in order, up to the first exception.

    The trials are put in stacks by their stack key (rand._stacks), and each
    stack is checked in one call.  A stack that raises is checked again a trial at a
    time, so the exception is the lowest failing trial's own; if every trial
    passes alone, the fault is the stack's, and its exception is pinned on
    the stack's lowest trial.
    """
    outcomes = {}
    for indices in _stacks(trial[3] for trial in chunk):
        stack = [chunk[i] for i in indices]
        try:
            outcomes.update(zip([t for t, *_ in stack],
                                row.check([(obs, inputs) for _, obs, inputs, _ in stack])))
        except Exception as exc:
            if len(stack) > 1:  # a stack of one would raise exc again
                for t, obs, inputs, _ in stack:
                    try:
                        outcomes[t] = row.check([(obs, inputs)])[0]
                    except Exception as alone:
                        outcomes[t] = alone
            if not any(isinstance(outcomes.get(t), Exception) for t, *_ in stack):
                outcomes[stack[0][0]] = exc
    for t, *_ in chunk:
        yield t, outcomes[t]
        if isinstance(outcomes[t], Exception):
            return


def _run_share(row: _Battery, trials: range, dims_limit: int, seed: int) -> tuple:
    """Deviation rows of `trials` in order, and the share's first failure.

    The failure is None or (trial, exception) for the first trial of the
    share without a row; the share stops there.  It is returned, not raised,
    so that the parent raises the failure of the lowest trial of all shares.
    """
    # Trials are drawn in order and kept pending until their Ginibre matrices
    # reach HAAR_STACK_AMPS amplitudes or the last trial is drawn; then one
    # _haar call makes all their bases and _check_chunk checks them.
    rows, pending, amps = [], [], 0  # pending: (t, drawn observables, inputs, stack)
    try:
        for t, rng in zip(trials, _trial_rngs(seed, row.stream, trials)):
            pending.append((t, *row.trial(rng, t, dims_limit)))
            amps += sum(z.size for _, z, _ in pending[-1][1])
            if amps < HAAR_STACK_AMPS and t != trials[-1]:
                continue
            bases = iter(_haar([z for _, drawn, *_ in pending for _, z, _ in drawn]))
            # Rebinding pending frees the Ginibre matrices before any check runs.
            chunk = [(i, [(values, next(bases), labels) for values, _, labels in drawn], *rest)
                     for i, drawn, *rest in pending]
            pending, amps = [], 0
            for i, outcome in _check_chunk(row, chunk):
                if isinstance(outcome, Exception):
                    if isinstance(outcome, BornsimError):
                        outcome.args = (f"trial [{seed},{row.stream},{i}]: {outcome}",)
                    raise outcome
                rows.append(outcome)
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


def _attempt(step: Callable[[], Check]) -> Check | Exception:
    # A one-shot check's result, or the exception it raised, kept until the
    # merge reaches the check.
    try:
        return step()
    except Exception as exc:
        return exc


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
        # The one-shot checks run while the children finish their shares.
        one_shots = {step: _attempt(step) for step in steps if not isinstance(step, _Battery)}
        while children:
            shares.append(_collect(*children.pop(0)))
    finally:
        for pid, read in children:  # left only when the parent stopped early
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # Every share stops at its first failing row, and a one-shot check's
    # error is raised at its place in print order, so the first step in
    # print order that failed raises before a share runs out.
    shares = [iter(share) for share in shares]
    checks = []
    for step in steps:
        if isinstance(step, _Battery):
            checks += _battery_checks(step, trials, seed, [next(share) for share in shares])
        elif isinstance(one_shots[step], Exception):
            raise one_shots[step]
        else:
            checks.append(one_shots[step])
    print("\n".join(map(_render_check, checks)))
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"verify: {len(failed)} of {len(checks)} properties FAILED")
        return 1
    print(f"verify: all {len(checks)} properties passed")
    return 0
