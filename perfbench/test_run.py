"""Self-test of the benchmark runner at a reduced scale.

    python3 -m pytest -q perfbench/test_run.py

Runs every workload through fresh child interpreters with small inputs,
so the checks, the tracer and the metric plumbing are exercised in
seconds rather than minutes.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_passes_its_checks(workload):
    out = run.run_workload(workload, seed=3, seconds=0, trace=False, scale="small")
    line = out["line"]
    assert out["problems"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_between_runs(workload):
    units = run.per_layer_units()
    counts = []
    for _ in range(2):
        out = run.run_workload(workload, seed=3, seconds=0, trace=True, scale="small")
        assert out["problems"] == []
        assert out["line"]["correct"]
        metrics = out["line"]["metrics"]
        assert set(metrics) == set(units)
        counts.append({k: m["value"] for k, m in metrics.items() if units[k] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["numeval.bound_violations"] == 18
    assert counts[0]["cli.calls"] >= 1


def test_tracer_wraps_cached_functions(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import ezbasis.exactnum as exactnum
    from tracer import Tracer

    monkeypatch.setattr(exactnum, "faulhaber", functools.cache(exactnum.faulhaber))
    tracer = Tracer()
    tracer.install()
    try:
        exactnum.faulhaber(3)
        exactnum.faulhaber(3)
    finally:
        tracer.uninstall()
    assert tracer.summary()["exactnum.faulhaber"]["calls"] == 2


def test_seed_changes_only_matrix_entries():
    a = run.workload_tasks("oracle-crosscheck", 1)
    b = run.workload_tasks("oracle-crosscheck", 2)
    assert [t["kind"] for t in a] == [t["kind"] for t in b]
    assert [len(t.get("rows", ())) for t in a] == [len(t.get("rows", ())) for t in b]
    assert a != b
    assert a == run.workload_tasks("oracle-crosscheck", 1)


def test_wrong_output_is_a_failed_check():
    expected = run._load_expected()
    task = run.workload_tasks("exact-verify", 1)[0]
    good = dict(expected["cli"][" ".join(task["argv"])])
    assert run.check_task(task, good, expected) == []
    assert run.check_task(task, dict(good, sha256="0" * 64), expected)
    assert run.check_task(task, dict(good, exit=1), expected)
    numeric = run.workload_tasks("numeric-verify", 1)[0]
    report = {"passed": True, "numeric": {"passed": True, "max_residual": 1e-6}}
    result = {"exit": 0, "stdout": json.dumps(report)}
    assert run.check_task(numeric, result, expected)  # residual above 1e-8 at s = 5


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", run.WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
