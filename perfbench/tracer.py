"""Span tracing around bornsim's public functions, installed from outside.

While Tracer.installed() is active, every public function of the traced
layers, and the __post_init__ validator of every public dataclass, is replaced
by a wrapper that records a span: name, start, end, parent span and case id.
Functions are replaced in every bornsim module namespace that holds them, so
calls between modules are traced too; the originals are put back on exit.
Untraced runs never import this module.

A span's self time is its duration minus the durations of its direct
children.  Per-layer metrics sum self times (or call counts) over fixed
groups of span names, listed in SELF_MS and CALLS.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from bornsim.errors import BornsimError

LAYERS = ("core", "observables", "measurement", "pointer", "signaling", "rand",
          "scenario", "cli")

_CORE_VALIDATE = tuple(
    f"core.{c}.__post_init__"
    for c in ("StateVector", "Operator", "DensityMatrix", "OutcomeDistribution")
)
_UNITARY = ("pointer.shift_unitary_a", "pointer.shift_unitary_b")
SPAN_CAP = 200_000  # spans kept for the span file; totals count every span

# Per-layer metrics that sum self time (ms) over a group of span names.
SELF_MS = {
    "core.validate_ms": _CORE_VALIDATE,
    "core.entropy_ms": ("core.von_neumann_entropy",),
    "observables.validate_ms": ("observables.Observable.__post_init__",),
    "observables.embed_ms": ("observables.embed_observable",),
    "observables.from_matrix_ms": ("observables.observable_from_matrix",),
    "measurement.weights_ms": ("measurement.branch_weights",),
    "measurement.collapse_ms": ("measurement.project_update",),
    "measurement.channel_ms": tuple(
        f"measurement.{f}"
        for f in ("ll_channel", "nonselective_channel", "classical_selective",
                  "measure_selective")
    ),
    "pointer.unitary_ms": _UNITARY,
    "pointer.evolve_ms": ("pointer.run_two_pointer", "pointer.run_one_pointer"),
    "pointer.report_ms": ("pointer.projection_equivalence_report",),
    "pointer.oracle_ms": ("pointer.brute_force_joint",),
    "signaling.exact_ms": tuple(
        f"signaling.{f}"
        for f in ("signaling_gap", "bob_distribution_with_alice",
                  "bob_distribution_without_alice")
    ),
    "signaling.ensemble_ms": ("signaling.alice_measures",),
    "signaling.mc_ms": ("signaling.channel_simulation",),
    "rand.generate_ms": tuple(
        f"rand.{f}"
        for f in ("random_state", "random_unitary", "random_density", "random_observable")
    ),
    "scenario.parse_ms": ("scenario.parse_scenario",),
    "scenario.run_ms": ("scenario.run_scenario",),
    "cli.verify_self_ms": ("cli.run_verify",),
}
# Per-layer metrics that count spans over a group of span names.
CALLS = {
    "core.validate_calls": _CORE_VALIDATE,
    "observables.validate_calls": SELF_MS["observables.validate_ms"],
    "observables.embed_calls": SELF_MS["observables.embed_ms"],
}
# Every per-layer metric and its unit; trace.overhead_s is added by the caller.
UNITS = {
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in CALLS},
    "signaling.ensemble_members": "count",
    "pointer.unitary_bytes": "bytes",
    "pointer.unitary_fill": "ratio",
    "trace.errors": "count",
    "trace.overhead_s": "s",
}


def _targets():
    """(layer, owner, attribute, original) for every function to wrap."""
    for layer in LAYERS:
        mod = importlib.import_module(f"bornsim.{layer}")
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield layer, mod, name, obj
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                yield layer, obj, "__post_init__", vars(obj)["__post_init__"]


class Tracer:
    """Collects spans and per-span-name totals while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, case, start, end)
        self.spans_dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.unitary_bytes = 0
        self.unitary_nonzero = 0
        self.unitary_entries = 0
        self.ensemble_members = 0
        self.case = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (frame[0], parent[0] if parent else None, name, self.case, start, end)
            )
        else:
            self.spans_dropped += 1

    def case_span(self, case_id: str, fn, *args):
        """Run fn(*args) as the root span of one case."""
        self.case = case_id
        frame, start = self._open(), time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, "bench.case", start, time.perf_counter())
            self.case = None

    def _hook(self, name: str, result) -> None:
        if name in _UNITARY:
            entries = result.entries
            self.unitary_bytes += entries.nbytes  # computed from the shape
            self.unitary_nonzero += int(np.count_nonzero(entries))
            self.unitary_entries += entries.size
        elif name == "signaling.alice_measures":
            self.ensemble_members += len(result.members)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        hooked = name in _UNITARY or name == "signaling.alice_measures"

        def traced(*args, **kwargs):
            frame, start = tracer._open(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BornsimError:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(frame, name, start, time.perf_counter())
            if hooked:
                # Hook time is charged to nobody: the parent sees it as a child.
                h0 = time.perf_counter()
                tracer._hook(name, result)
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - h0
            return result

        return traced

    # ------------------------------------------------------ install

    def _install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        replace = {}
        for layer, owner, attr, fn in _targets():
            qual = fn.__qualname__
            wrapper = self._wrap(layer, f"{layer}.{qual}", fn)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, fn))
            else:
                replace[id(fn)] = (fn, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bornsim" or mod_name.startswith("bornsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # ------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        out = {m: 1e3 * sum(self.self_s.get(n, 0.0) for n in names)
               for m, names in SELF_MS.items()}
        out.update({m: sum(self.calls.get(n, 0) for n in names)
                    for m, names in CALLS.items()})
        out["signaling.ensemble_members"] = self.ensemble_members
        out["pointer.unitary_bytes"] = self.unitary_bytes
        out["pointer.unitary_fill"] = (
            self.unitary_nonzero / self.unitary_entries if self.unitary_entries else 0.0
        )
        out["trace.errors"] = sum(self.errors.values())
        return out

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "name", "case", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "self_ms_by_span": {k: 1e3 * v for k, v in sorted(self.self_s.items())},
            "calls_by_span": dict(sorted(self.calls.items())),
            "errors_by_layer": dict(self.errors),
            "pointer_unitary_bytes_note": "computed from array shapes (nbytes)",
        }
