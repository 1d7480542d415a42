"""Run the benchmark repeatedly and summarise how steady each metric is.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1] [--workload NAME ...]
        [--out perfbench/steadiness.json]

Each run uses another seed (1, 2, ...) and BENCHMARK.json's run_seconds.
For every metric the summary gives the median, the first and third quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json.
Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {"seconds": bench["run_seconds"], "trace": args.trace, "runs": args.runs,
               "workloads": {}}
    for workload in workloads:
        per_metric: dict[str, list[float]] = {}
        started = time.time()
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        rows = {name: summarise(values) for name, values in per_metric.items()}
        for name, row in rows.items():
            row["bound"] = bounds.get(name)
            print(f"{workload:<16} {name:<28} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread "
                  f"{row['spread'] if row['spread'] is None else round(row['spread'], 4)}"
                  f"  bound {row['bound']}", flush=True)
        summary["workloads"][workload] = {
            "elapsed_s": time.time() - started, "metrics": rows,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
