"""The four benchmark workloads: seeded inputs, one case, and its output check.

Every workload has fixed-shape cases, so the per-case times of one run come
from one kind of case.  Inputs are generated from the benchmark seed with
bornsim.rand during set-up; bornsim only ever receives the generated objects.

Output checks do not reuse the code path under test.  They recompute the
expected numbers from plain numpy arrays that the generator kept aside
(projector matrices built here, not read back from bornsim objects).

All bornsim functions are looked up as module attributes at call time, so the
tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil

import numpy as np

import bornsim
import bornsim.cli
import bornsim.presets
import bornsim.rand

JOINT_TOL = 1e-12
PROJECTION_TOL = 1e-10
ARM_TOL = 1e-12
MC_TV_LIMIT = 0.01
WITNESS_GAP = 1008 / 8425


def _fixed_observable(rng, dim: int, branches: int):
    """Observable with `branches` branches of equal rank, plus its raw projectors.

    The eigenbasis comes from bornsim.rand.random_unitary; the projector
    matrices are returned separately so checks never read them back from the
    Observable.
    """
    rank = dim // branches
    basis = bornsim.rand.random_unitary(rng, dim)
    eigenvalues = np.cumsum(rng.uniform(0.1, 2.0, size=branches)) - 1.0
    projectors = [
        basis[:, k * rank : (k + 1) * rank] @ basis[:, k * rank : (k + 1) * rank].conj().T
        for k in range(branches)
    ]
    obs = bornsim.observable_from_branches(
        [(float(a), p) for a, p in zip(eigenvalues, projectors)], (dim,)
    )
    return obs, np.array(projectors)


def _check_projectors(projectors: np.ndarray, rank: int) -> None:
    dim = projectors.shape[1]
    if not np.allclose(projectors.sum(axis=0), np.eye(dim), atol=1e-10):
        raise ValueError("generated projectors do not sum to the identity")
    ranks = np.einsum("kii->k", projectors).real
    if not np.allclose(ranks, rank, atol=1e-10):
        raise ValueError(f"generated projector ranks {ranks} are not all {rank}")


def _tv(p, q) -> float:
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


class VerifyDefault:
    """`bornsim verify --seed s` at its default settings, called in-process."""

    name = "verify_default"
    trace_cases = 3
    PROPERTIES = 9
    _LINE = re.compile(r"^(\w+)\s+.*?worst=(\S+) limit=(\S+).*\s(PASS|FAIL)$")

    def __init__(self, smoke: bool):
        self.extra = ["--trials", "4", "--dims-limit", "3"] if smoke else []

    def generate(self, seed: int):
        seeds = np.random.default_rng([seed, 0]).integers(0, 2**31 - 1, size=64)
        if len(set(seeds.tolist())) != seeds.size:
            raise ValueError("verify seeds are not distinct")
        return [int(s) for s in seeds]

    def run(self, seed: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bornsim.cli.main(["verify", "--seed", str(seed), *self.extra])
        return code, out.getvalue(), err.getvalue()

    def check(self, seed: int, output) -> str | None:
        code, out, err = output
        lines = out.strip().splitlines()
        if code != 0:
            return f"verify --seed {seed} exited {code}: {err.strip() or lines[-1:]}"
        if lines[-1:] != [f"verify: all {self.PROPERTIES} properties passed"]:
            return f"verify --seed {seed}: unexpected summary {lines[-1:]}"
        worst_lines = [m for m in map(self._LINE.match, lines[:-1]) if m]
        # Every property but telepathy_witness reports worst= and limit=.
        if len(worst_lines) != self.PROPERTIES - 1:
            return f"verify --seed {seed}: {len(worst_lines)} worst= lines"
        for m in worst_lines:
            if m.group(4) != "PASS" or not float(m.group(2)) < float(m.group(3)):
                return f"verify --seed {seed}: {m.group(1)} worst {m.group(2)}"
        return None


class PointerLarge:
    """Two-pointer and one-pointer runs plus projection reports at one shape.

    d=16 with 8 rank-2 branches per observable: the two-pointer composite
    dimension is 16*8*8 = 1024, so each dense shift unitary holds 1024**2
    complex entries.
    """

    name = "pointer_large"
    trace_cases = 30

    def __init__(self, smoke: bool):
        self.dim, self.branches = (4, 2) if smoke else (16, 8)

    def generate(self, seed: int):
        cases = []
        for k in range(64):
            rng = np.random.default_rng([seed, 1, k])
            state = bornsim.rand.random_state(rng, (self.dim,))
            obs_a, proj_a = _fixed_observable(rng, self.dim, self.branches)
            obs_b, proj_b = _fixed_observable(rng, self.dim, self.branches)
            for proj in (proj_a, proj_b):
                _check_projectors(proj, self.dim // self.branches)
            cases.append((state, obs_a, obs_b, proj_a, proj_b))
        return cases

    def run(self, case):
        state, obs_a, obs_b, _, _ = case
        two = bornsim.two_pointer_setup(state, obs_a, obs_b)
        one = bornsim.one_pointer_setup(state, obs_a, obs_b)
        _, joint_two = bornsim.run_two_pointer(two)
        _, joint_one = bornsim.run_one_pointer(one)
        reports = (
            bornsim.projection_equivalence_report(two),
            bornsim.projection_equivalence_report(one),
        )
        return joint_two.probs, joint_one.probs, reports

    def check(self, case, output) -> str | None:
        state, _, _, proj_a, proj_b = case
        joint_two, joint_one, reports = output
        tagged = proj_a @ state.amps  # row i is P_i psi
        ref = np.array(
            [[np.linalg.norm(r @ v) ** 2 for r in proj_b] for v in tagged]
        )
        for label, joint in (("two_pointer", joint_two), ("one_pointer", joint_one)):
            dev = float(np.max(np.abs(joint - ref)))
            if not dev <= JOINT_TOL:
                return f"{label} joint deviates from ||R_j P_i psi||^2 by {dev!r}"
        if not max(reports) < PROJECTION_TOL:
            return f"projection report {max(reports)!r} >= {PROJECTION_TOL}"
        return None


def _reference_arms(cells: np.ndarray, q: float):
    """Bob's (with Alice, without Alice) distributions from cell weights.

    cells[i, j] = ||P_i M R_j^T||^2 with M the state reshaped to d0 x d1.
    """
    def rule(w):
        w = w**q
        return w / w.sum()

    alice = cells.sum(axis=1)
    live = alice > bornsim.ZERO_PROB_CUTOFF
    weights = alice[live] / alice[live].sum()
    with_alice = sum(
        a * rule(row / total)
        for a, row, total in zip(weights, cells[live], alice[live])
    )
    return with_alice, rule(cells.sum(axis=0))


class SignalingLarge:
    """No-signaling bench on a 12x12 state with 6-branch observables.

    Exact arms in both directions (through swap_parties) plus one seeded
    100000-shot channel_simulation per bit.  Even cases use the Born rule,
    odd cases the q=2 rule.
    """

    name = "signaling_large"
    trace_cases = 12
    shots = 100_000

    def __init__(self, smoke: bool):
        self.dim, self.branches = (4, 2) if smoke else (12, 6)

    def generate(self, seed: int):
        cases = []
        d, k = self.dim, self.branches
        for n in range(64):
            rng = np.random.default_rng([seed, 2, n])
            state = bornsim.rand.random_state(rng, (d, d))
            alice, proj_a = _fixed_observable(rng, d, k)
            bob, proj_b = _fixed_observable(rng, d, k)
            for proj in (proj_a, proj_b):
                _check_projectors(proj, d // k)
            rule = bornsim.BORN if n % 2 == 0 else bornsim.nonborn_exponent(2.0)
            scenario = bornsim.TelepathyScenario(state, alice, bob, rule)
            m = state.amps.reshape(d, d)
            cells = np.array(
                [[np.linalg.norm(p @ m @ r.T) ** 2 for r in proj_b] for p in proj_a]
            )
            cases.append((scenario, cells, [seed, 3, n]))
        return cases

    def run(self, case):
        scenario, _, mc_seed = case
        arms = []
        for s in (scenario, bornsim.swap_parties(scenario)):
            with_alice = bornsim.bob_distribution_with_alice(s).probs
            without_alice = bornsim.bob_distribution_without_alice(s).probs
            arms.append((with_alice, without_alice, bornsim.signaling_gap(s)))
        rng = np.random.default_rng(mc_seed)
        mc = [
            bornsim.channel_simulation(scenario, bit, self.shots, rng).probs
            for bit in (1, 0)
        ]
        return arms, mc

    def check(self, case, output) -> str | None:
        scenario, cells, _ = case
        arms, mc = output
        q = scenario.bob_rule.exponent
        refs = [_reference_arms(cells, q), _reference_arms(cells.T, q)]
        for direction, (got, ref) in enumerate(zip(arms, refs)):
            with_alice, without_alice, gap = got
            dev = max(
                float(np.max(np.abs(with_alice - ref[0]))),
                float(np.max(np.abs(without_alice - ref[1]))),
            )
            if not dev <= ARM_TOL:
                return f"direction {direction}: arms deviate from cell weights by {dev!r}"
            ref_gap = _tv(*ref)
            if not (gap < ARM_TOL if q == 1.0 else abs(gap - ref_gap) <= ARM_TOL):
                return f"direction {direction}: gap {gap!r}, reference {ref_gap!r}"
        for bit, empirical, ref in zip((1, 0), mc, refs[0]):
            tv = _tv(empirical, ref)
            if not tv <= MC_TV_LIMIT:
                return f"Monte Carlo bit {bit}: TV {tv!r} > {MC_TV_LIMIT}"
        return None


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _fmt_amps(v) -> str:
    return " ".join(_fmt_complex(z) for z in v)


def _fmt_matrix(m) -> str:
    return "; ".join(_fmt_amps(row) for row in m)


def _random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def _random_amps(rng, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _branches_text(key: str, rng, dim: int, branches: int) -> str:
    obs, projectors = _fixed_observable(rng, dim, branches)
    lines = [f"{key} = branches", f"{key}.eigenvalues = " + " ".join(
        f"{a:.17g}" for a in obs.eigenvalues
    )]
    lines += [f"{key}.projector.{k} = {_fmt_matrix(p)}" for k, p in enumerate(projectors)]
    return "\n".join(lines)


class ScenarioFiles:
    """One case runs `bornsim run <x> --format records` over a fixed file set.

    The set is the 7 presets plus 7 generated files that use inline matrices,
    branch families and amplitude lists.  Records must match the warm-up pass
    byte for byte, and telepathy_nonborn must give the exact witness gap.
    """

    name = "scenario_files"
    trace_cases = 40

    def __init__(self, smoke: bool):
        self.directory = None
        self.reference = None

    def _generated(self, seed: int) -> dict[str, str]:
        rng = np.random.default_rng([seed, 4])
        h = lambda d: _fmt_matrix(_random_hermitian(rng, d))
        amps = lambda d: _fmt_amps(_random_amps(rng, d))
        return {
            "gen_two_pointer": "kind = two_pointer\n"
            f"seed = {seed}\nstate = {amps(8)}\nobs_a = matrix {h(8)}\n"
            + _branches_text("obs_b", rng, 8, 4),
            "gen_one_pointer": "kind = one_pointer\n"
            f"state = {amps(8)}\n" + _branches_text("obs_a", rng, 8, 4)
            + f"\nobs_b = matrix {h(8)}",
            "gen_telepathy_nonborn": "kind = telepathy\n"
            f"seed = {seed}\nstate = {amps(16)}\nstate_dims = 4 4\n"
            f"obs_a = matrix {h(4)}\n" + _branches_text("obs_b", rng, 4, 2)
            + "\nrule = nonborn_exponent\nq = 1.5\nshots = 20000",
            "gen_telepathy_born": "kind = telepathy\n"
            f"state = {amps(9)}\nstate_dims = 3 3\nobs_a = matrix {h(3)}\n"
            f"obs_b = matrix {h(3)}\nrule = born",
            "gen_ll_scheme": "kind = ll_scheme\n"
            f"state = {amps(6)}\nobs = matrix {h(6)}\ntarget = {amps(6)}",
            "gen_entropy_demo": "kind = entropy_demo\n"
            f"state = {amps(6)}\n" + _branches_text("obs", rng, 6, 3),
            "gen_stern_gerlach": "kind = stern_gerlach\n"
            f"state = {amps(4)}\nobs = matrix {h(4)}\n"
            "omegas = 0.3 1.1 1.7 2.9\ndt = 0.7",
        }

    def generate(self, seed: int):
        self.directory = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "out", f"scenarios-{os.getpid()}"
        )
        os.makedirs(self.directory, exist_ok=True)
        targets = sorted(bornsim.presets.SCENARIO_PRESETS)
        for stem, text in self._generated(seed).items():
            path = os.path.join(self.directory, stem + ".scn")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            targets.append(path)
        return [tuple(targets)]

    def cleanup(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory)

    def run(self, targets):
        results = []
        for target in targets:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bornsim.cli.main(["run", target, "--format", "records"])
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, targets, output) -> str | None:
        for target, (code, out, err) in zip(targets, output):
            if code != 0:
                return f"run {os.path.basename(target)} exited {code}: {err.strip()}"
        if self.reference is None:  # the warm-up pass fixes the reference
            self.reference = [out for _, out, _ in output]
            witness = dict(
                line.split("=", 1)
                for line in self.reference[targets.index("telepathy_nonborn")].splitlines()
            )
            gap = float(witness["signaling_gap"])
            if not abs(gap - WITNESS_GAP) <= 1e-12:
                return f"telepathy_nonborn gap {gap!r} != 1008/8425"
            return None
        for target, ref, (_, out, _) in zip(targets, self.reference, output):
            if out != ref:
                return f"records of {os.path.basename(target)} differ from the warm-up pass"
        return None


WORKLOADS = {
    w.name: w for w in (VerifyDefault, PointerLarge, SignalingLarge, ScenarioFiles)
}
