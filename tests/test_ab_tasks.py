"""Tests for tools/ab_tasks.py: its summary (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_tasks.py"
_SPEC = importlib.util.spec_from_file_location("ab_tasks", _PATH)
ab_tasks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_tasks)


def test_summary_means_ratio_and_identical_count():
    # per-task CPU seconds per side: the means in microseconds, the
    # change's over the parent's, and the counts as given
    cpu = {"parent": [1e-3, 3e-3, 2e-3, 2e-3], "change": [1e-3, 2e-3, 1e-3, 2e-3]}
    s = ab_tasks.summarize(cpu, identical=3)
    assert s["tasks"] == 4 and s["identical"] == 3
    assert s["parent_us"] == pytest.approx(2000.0)
    assert s["change_us"] == pytest.approx(1500.0)
    assert s["ratio"] == pytest.approx(0.75)


def test_summary_medians_and_their_ratio():
    # the median of an even count is the mean of the middle two; the one
    # slow parent task moves its mean and not its median
    cpu = {"parent": [1e-3, 9e-3, 2e-3, 3e-3], "change": [1e-3, 1e-3, 3e-3, 4e-3]}
    s = ab_tasks.summarize(cpu, identical=4)
    assert s["parent_p50_us"] == pytest.approx(2500.0)
    assert s["change_p50_us"] == pytest.approx(2000.0)
    assert s["p50_ratio"] == pytest.approx(0.8)
    assert s["ratio"] == pytest.approx(2250.0 / 3750.0)
    cpu = {"parent": [3e-3, 1e-3, 2e-3], "change": [1e-3, 2e-3, 2e-3]}
    s = ab_tasks.summarize(cpu, identical=3)
    assert s["parent_p50_us"] == s["change_p50_us"] == pytest.approx(2000.0)
