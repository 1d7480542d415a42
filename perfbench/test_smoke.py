"""Smoke test of the benchmark command at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that the traced run writes well-formed spans, and that
the command refuses to run without the bornsim sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 7


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("# ")}
    for name in ("setup_s", "wall_s", "case_ms.mean", "case_ms.p50", "case_ms.tail",
                 "peak_rss_mb", "failed_frac"):
        assert name in printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    result = _result(_run(workload, 1))
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert result["metrics"]["trace.errors"]["value"] == 0

    path = os.path.join(HERE, "out", f"{workload}-seed{SEED}-spans.json")
    with open(path, encoding="utf-8") as fh:
        dump = json.load(fh)
    assert dump["spans_dropped"] == 0
    spans = {span[0]: span for span in dump["spans"]}
    roots = [span for span in spans.values() if span[1] is None]
    assert all(span[2] == "bench.case" for span in roots)
    # One root span, and so one case id, per case: the set-up and one traced case.
    assert sorted(span[3] for span in roots) == ["case-0", "setup"]
    for span_id, parent_id, name, case, start, end in spans.values():
        assert start <= end, name
        if parent_id is not None:
            parent = spans[parent_id]
            assert parent[3] == case, name
            assert parent[4] <= start and end <= parent[5], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
