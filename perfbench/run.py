"""bornsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Every workload runs in fresh single-threaded
Python processes (perfbench/child.py) that call bornsim in-process.

--trace 0 starts SETUP_SAMPLES - 1 processes that only set up, then one that
sets up and times cases for --seconds.  It reports setup_s (median over all
set-ups), case_ms.mean and peak_rss_mb, and also prints wall_s, case_ms.p50,
case_ms.tail and failed_frac.  --trace 1 starts one process that runs each of
a fixed number of cases untraced and then traced, and reports the per-layer
metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Every result,
with environment metadata, is also written to perfbench/out/.  The exit code
is 1 when any case fails its output check, and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
E2E_UNITS = {"setup_s": "s", "case_ms.mean": "ms", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def _child(args, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times: list[float]):
    """(percentile, value) of the highest ladder percentile with >= 10 samples
    beyond it (nearest rank), or None when there are too few samples."""
    ordered = sorted(times)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _end_to_end(args, lines: list[str], record: dict):
    setups = [_child(args, "setup")["setup_s"] for _ in range(record["setup_samples"] - 1)]
    main = _child(args, "measure", "--seconds", str(args.seconds))
    setups.append(main["setup_s"])
    times = main["times"]
    metrics = {
        "setup_s": statistics.median(setups),
        "case_ms.mean": 1e3 * statistics.fmean(times),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    record.update(setup_s_samples=setups, case_s=times, env=main["env"],
                  cases=len(times), distinct_inputs=main["inputs"])
    found = tail(times)
    record["tail_percentile"] = found[0] if found else None
    lines += [
        f"setup_s       {metrics['setup_s']:.6f} s   median of {len(setups)} set-ups",
        f"wall_s        {sum(times):.6f} s   {len(times)} timed cases",
        f"case_ms.mean  {metrics['case_ms.mean']:.6f} ms  wall_s / cases",
        f"case_ms.p50   {1e3 * statistics.median(times):.6f} ms",
        f"case_ms.tail  {1e3 * found[1]:.6f} ms  p{found[0]:g} of {len(times)} cases"
        if found else
        f"case_ms.tail  omitted: {len(times)} cases leave fewer than {TAIL_BEYOND} "
        "beyond p75",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.3f} MB",
    ]
    return metrics, E2E_UNITS, len(times), main["failures"]


def _per_layer(args, lines: list[str], record: dict):
    spans = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
    result = _child(args, "trace", "--trace-out", spans)
    record.update(env=result["env"], cases=result["attempted"] // 2, spans_file=spans)
    metrics, units = result["metrics"], result["units"]
    lines += [f"{name:<28} {value:.6g} {units[name]}" for name, value in metrics.items()]
    return metrics, units, result["attempted"], result["failures"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up sample, for the tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bornsim", "__init__.py")):
        print(f"bornsim sources not found under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "setup_samples": 1 if args.smoke else SETUP_SAMPLES,
    }
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    measure = _per_layer if args.trace else _end_to_end
    try:
        metrics, units, attempted, failures = measure(args, lines, record)
    except ChildError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    lines.append(f"failed_frac   {len(failures) / attempted:.6g}   "
                 f"{len(failures)} of {attempted} cases")
    lines += [f"FAILED {f}" for f in failures[:20]]
    record["env"].update(
        python=platform.python_version(), nproc=os.cpu_count(), git_commit=_git_commit(),
        machine=platform.machine(),
    )
    record.update(metrics=metrics, failures=failures, attempted=attempted)
    lines.append("env " + json.dumps(record["env"], sort_keys=True))
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    lines.append(f"result written to {os.path.relpath(path, ROOT)}")
    print("\n".join("# " + line for line in lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
