"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Two traced runs with the same seed must report identical counts, so a
later change can cite a count as exact evidence; a different seed must
change the generated inputs.  Takes about a minute and a half.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

COUNT_SUFFIXES = (".calls", ".misses", ".nodes", ".g_evals", ".points", ".failed", ".checks")


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(COUNT_SUFFIXES) or name.startswith("certify.verdict.")
    }


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    assert first["correct"] and second["correct"]
    counts = _counts(first)
    assert len(counts) > 20
    assert counts == _counts(second)


def test_tau_warm_times_no_snp():
    counts = _counts(_traced("tau_warm", 6))
    assert counts["elliptic.snp_many.calls"] == 0
    assert counts["elliptic.engine.misses"] == 0
    assert counts["fourier.tau_k.calls"] > 0


def test_cold_workloads_miss_every_cache():
    counts = _counts(_traced("pipeline_cold", 6))
    tasks = counts["eigen.eigenpair.calls"]
    assert counts["eigen.eigenpair.misses"] == tasks
    assert counts["elliptic.engine.misses"] == 2 * tasks
    assert counts["fourier.profile.misses"] == 2 * tasks
    counts = _counts(_traced("kp_scan", 6))
    assert counts["elliptic.kp.misses"] == counts["elliptic.kp_quadrature.calls"] > 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_sets_inputs(workload):
    assert wl.make_tasks(workload, 1, 20) == wl.make_tasks(workload, 1, 20)
    assert wl.make_tasks(workload, 1, 20) != wl.make_tasks(workload, 2, 20)
    assert wl.make_tasks(workload, 1, 20) != wl.make_tasks(workload, 1, 20, stream=1)


def test_host_speed_scaling():
    """Kernel runs inside a task are left out of its CPU time; the scale is
    the mean of those runs and of the nearest run on either side."""
    import worker

    host = worker._HostSpeed()
    host.starts = [0.0, 1.0, 1.5, 3.0]
    host.runs = [0.002, 0.001, 0.003, 0.002]
    cpu, scaled = host.scaled(0.5, 2.0)
    assert cpu == pytest.approx(1.5 - 0.004)
    assert scaled == pytest.approx(cpu * worker.REF_KERNEL_S / 0.002)


def test_timed_run_reports_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "kp_scan",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 25
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])


def test_tau_warm_is_traced_only():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tau_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fails_without_sources(tmp_path):
    """A directory holding only the benchmark exits nonzero and prints no result."""
    import shutil

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kp_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
