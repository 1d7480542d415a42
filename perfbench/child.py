"""One workload process: set up, then time cases or trace them.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|measure|trace
        [--seconds S] [--smoke] [--trace-out PATH]

The clock for setup_s starts on the first line below, before numpy or bornsim
is imported, and stops when the first timed case can start.  Set-up covers the
imports, generating and validating the seeded inputs, and one untimed warm-up
case.  BLAS and OpenMP are pinned to one thread before numpy is imported.

Prints one JSON object on its last line of standard output.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (imports bornsim)


def _attempt(workload, case, run=None):
    """Run one case and check it; returns (seconds, failure reason or None)."""
    run = run or workload.run
    start = time.perf_counter()
    try:
        output = run(case)
    except Exception as exc:  # a raising case is a failed case, not a crash
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, workload.check(case, output)


def _setup(workload, seed: int, generate=None):
    inputs = (generate or workload.generate)(seed)
    _, failure = _attempt(workload, inputs[0])
    if failure is not None:
        raise RuntimeError(f"warm-up case failed: {failure}")
    return inputs


def _measure(workload, inputs, seconds: float):
    times, failures = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 3 or time.perf_counter() < deadline:
        elapsed, failure = _attempt(workload, inputs[k % len(inputs)])
        times.append(elapsed)
        if failure is not None:
            failures.append(f"case {k}: {failure}")
        k += 1
    return times, failures


def _trace(workload, seed: int, cases: int, trace_out: str | None) -> dict:
    """Trace input generation, then run each case untraced and traced in turn.

    Per-layer metrics come from the traced runs and the traced generation;
    trace.overhead_s is the traced minus the untraced wall time of the cases.
    Alternating the two keeps host drift out of the difference.
    """
    from tracer import UNITS, Tracer

    tracer = Tracer()

    def traced_generate(seed):
        with tracer.installed():
            return tracer.case_span("setup", workload.generate, seed)

    inputs = _setup(workload, seed, traced_generate)
    overhead, failures = 0.0, []
    for k in range(cases):
        case = inputs[k % len(inputs)]
        untraced_s, failure = _attempt(workload, case)
        if failure is not None:
            failures.append(f"untraced case {k}: {failure}")
        with tracer.installed():
            traced_s, failure = _attempt(
                workload, case, lambda c: tracer.case_span(f"case-{k}", workload.run, c)
            )
        if failure is not None:
            failures.append(f"traced case {k}: {failure}")
        overhead += traced_s - untraced_s
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = overhead
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return {"metrics": metrics, "units": UNITS, "attempted": 2 * cases,
            "failures": failures}


def _env() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, help="timed phase of --mode measure")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.smoke)
    try:
        if args.mode == "trace":
            cases = 1 if args.smoke else workload.trace_cases
            result = _trace(workload, args.seed, cases, args.trace_out)
        else:
            inputs = _setup(workload, args.seed)
            result = {"setup_s": time.perf_counter() - T0}
            if args.mode == "measure":
                times, failures = _measure(workload, inputs, args.seconds)
                result.update(times=times, failures=failures, inputs=len(inputs))
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _env()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
