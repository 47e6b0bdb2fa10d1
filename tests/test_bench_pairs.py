"""Tests for the summary that tools/bench_pairs.py writes (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "tasks_per_s", "better": "higher"},
    {"name": "task_p50_ms", "better": "lower"},
]


def _run(side, seed, pair, rate, p50):
    return {
        "side": side,
        "seed": seed,
        "pair": pair,
        "metrics": {"tasks_per_s": rate, "task_p50_ms": p50},
    }


def test_summary_counts_wins_by_direction_and_skips_unpaired_runs():
    runs = [
        # seed 5: the change is faster in pairs 0 and 1, tied in pair 2
        _run("parent", 5, 0, 100.0, 2.0),
        _run("change", 5, 0, 110.0, 1.5),
        _run("change", 5, 1, 130.0, 1.0),
        _run("parent", 5, 1, 120.0, 1.8),
        _run("parent", 5, 2, 105.0, 1.7),
        _run("change", 5, 2, 105.0, 1.7),
        # seed 9973: the parent wins pair 0; pair 1 has no change run
        _run("parent", 9973, 0, 115.0, 1.6),
        _run("change", 9973, 0, 90.0, 2.2),
        _run("parent", 9973, 1, 999.0, 0.1),
    ]
    out = bench_pairs.summarize(runs, METRICS)
    assert out["pairs"] == 4
    rate, p50 = out["tasks_per_s"], out["task_p50_ms"]
    assert rate["better"] == "higher" and p50["better"] == "lower"
    assert rate["wins"] == {"parent": 1, "change": 2}
    assert p50["wins"] == {"parent": 1, "change": 2}
    # parent rates 100, 105, 115, 120 and change rates 90, 105, 110, 130
    assert rate["parent"] == {"median": 110.0, "q1": 103.75, "q3": 116.25}
    assert rate["change"] == {"median": 107.5, "q1": 101.25, "q3": 115.0}
    assert rate["gain"] == pytest.approx(107.5 / 110.0 - 1.0)
    assert rate["parent_iqr"] == pytest.approx(12.5)


def test_summary_of_runs_without_a_complete_pair():
    out = bench_pairs.summarize([_run("parent", 5, 0, 100.0, 2.0)], METRICS)
    assert out["pairs"] == 0
    assert out["tasks_per_s"] == {
        "better": "higher",
        "wins": {"parent": 0, "change": 0},
    }
