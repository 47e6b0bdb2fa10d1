"""Tests for tools/bench_pairs.py: its summary, its copy of the working tree
and its record of a failed run (no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "tasks_per_s", "better": "higher", "bound": 0.25},
    {"name": "task_p50_ms", "better": "lower", "bound": 0.25},
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
    assert rate["gain_rule_met"] is False and p50["gain_rule_met"] is False
    # the change's p50 quartiles, 1.375 and 1.825, are 28% of its median
    # 1.6 apart, wider than the 25% bound
    assert rate["regression"] == "none" and p50["regression"] == "unresolved"


def _pairs(parent, change, p50=(1.0, 1.0)):
    """Runs of seed 5, pair i holding rates parent[i] and change[i], and a
    p50 fixed per side."""
    runs = []
    for i, (a, b) in enumerate(zip(parent, change)):
        runs += [_run("parent", 5, i, a, p50[0]), _run("change", 5, i, b, p50[1])]
    return runs


def test_gain_rule_wants_nine_wins_in_ten_and_a_median_lead_above_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75
    # ten ties: not met
    out = bench_pairs.summarize(_pairs(parent, parent), METRICS)
    assert out["tasks_per_s"]["gain_rule_met"] is False
    # 9 wins and a tie, median 124.5 against 104.5: met
    out = bench_pairs.summarize(
        _pairs(parent, [100.0] + [v + 20.0 for v in parent[1:]]), METRICS
    )
    assert out["tasks_per_s"]["wins"] == {"parent": 0, "change": 9}
    assert out["tasks_per_s"]["gain_rule_met"] is True
    # 8 wins of 10, by the same margin: not met
    change = [v - 1.0 for v in parent[:2]] + [v + 20.0 for v in parent[2:]]
    out = bench_pairs.summarize(_pairs(parent, change), METRICS)
    assert out["tasks_per_s"]["wins"] == {"parent": 2, "change": 8}
    assert out["tasks_per_s"]["gain_rule_met"] is False
    # 10 wins of 10, but a median lead of 4 inside the parent's IQR of 4.5
    out = bench_pairs.summarize(_pairs(parent, [v + 4.0 for v in parent]), METRICS)
    assert out["tasks_per_s"]["wins"]["change"] == 10
    assert out["tasks_per_s"]["gain_rule_met"] is False
    # a lower-is-better metric gains by going down: every p50 pair won by
    # the change, 0.8 against 1.0 with no spread
    out = bench_pairs.summarize(_pairs(parent, parent, p50=(1.0, 0.8)), METRICS)
    assert out["task_p50_ms"]["gain_rule_met"] is True
    out = bench_pairs.summarize(_pairs(parent, parent, p50=(0.8, 1.0)), METRICS)
    assert out["task_p50_ms"]["gain_rule_met"] is False


@pytest.mark.parametrize("parent, change, p50, rate_verdict, p50_verdict", [
    # 26% fewer tasks per second and a 30% slower p50: both beyond 25%
    ([100.0] * 4, [74.0] * 4, (1.0, 1.3), "beyond_bound", "beyond_bound"),
    # 30% more tasks and a 30% faster p50 are gains, not regressions
    ([100.0] * 4, [130.0] * 4, (1.0, 0.7), "none", "none"),
    # 20% worse, inside the bound, with quartiles 10% apart
    ([95.0, 100.0, 100.0, 105.0], [76.0, 80.0, 80.0, 84.0], (1.0, 1.2), "none", "none"),
    # medians equal, but the parent's quartiles 40% of its median apart
    ([60.0, 80.0, 120.0, 140.0], [100.0] * 4, (1.0, 1.0), "unresolved", "none"),
    # a spread in the change's runs alone also leaves it unresolved
    ([100.0] * 4, [60.0, 80.0, 120.0, 140.0], (1.0, 1.0), "unresolved", "none"),
])
def test_regression_verdict_against_the_bound(parent, change, p50, rate_verdict,
                                              p50_verdict):
    out = bench_pairs.summarize(_pairs(parent, change, p50), METRICS)
    assert out["tasks_per_s"]["regression"] == rate_verdict
    assert out["task_p50_ms"]["regression"] == p50_verdict


def test_summary_of_runs_without_a_complete_pair():
    out = bench_pairs.summarize([_run("parent", 5, 0, 100.0, 2.0)], METRICS)
    assert out["pairs"] == 0
    assert out["tasks_per_s"] == {
        "better": "higher",
        "wins": {"parent": 0, "change": 0},
    }


def test_verdict_lines_read_each_metric_from_the_summary():
    # parent rates 100..109, change 9 wins and a tie, median 124.5 against
    # 104.5; p50 1.0 on both sides, ten ties
    parent = [100.0 + i for i in range(10)]
    summary = bench_pairs.summarize(
        _pairs(parent, [100.0] + [v + 20.0 for v in parent[1:]]), METRICS
    )
    lines = bench_pairs.verdict_lines("kp_scan", summary, METRICS)
    assert lines == [
        "kp_scan tasks_per_s: gain +19.14%, pairs won change 9 parent 0 of 10, "
        "parent_iqr 4.5, gain_rule_met true, regression none",
        "kp_scan task_p50_ms: gain +0.00%, pairs won change 0 parent 0 of 10, "
        "parent_iqr 0, gain_rule_met false, regression none",
    ]
    empty = bench_pairs.summarize([_run("parent", 5, 0, 100.0, 2.0)], METRICS)
    assert bench_pairs.verdict_lines("kp_scan", empty, METRICS) == [
        "kp_scan tasks_per_s: no complete pair",
        "kp_scan task_p50_ms: no complete pair",
    ]


def test_report_lines_give_the_pooled_verdicts_then_each_seeds():
    # seed 5: the change wins both pairs by 20; seed 9973: the parent wins
    # its one pair by 10
    runs = [
        _run("parent", 5, 0, 100.0, 1.0), _run("change", 5, 0, 120.0, 1.0),
        _run("parent", 5, 1, 102.0, 1.0), _run("change", 5, 1, 122.0, 1.0),
        _run("parent", 9973, 0, 110.0, 1.0), _run("change", 9973, 0, 100.0, 1.0),
    ]
    entry = {
        "summary": bench_pairs.summarize(runs, METRICS),
        "by_seed": {
            str(s): bench_pairs.summarize([r for r in runs if r["seed"] == s], METRICS)
            for s in (5, 9973)
        },
    }
    lines = bench_pairs.report_lines("kp_scan", entry, METRICS[:1])
    assert lines == [
        "kp_scan tasks_per_s: gain +17.65%, pairs won change 2 parent 1 of 3, "
        "parent_iqr 5, gain_rule_met false, regression none",
        "kp_scan seed 5 tasks_per_s: gain +19.80%, pairs won change 2 parent 0 "
        "of 2, parent_iqr 1, gain_rule_met true, regression none",
        "kp_scan seed 9973 tasks_per_s: gain -9.09%, pairs won change 0 parent 1 "
        "of 1, parent_iqr 0, gain_rule_met false, regression none",
    ]


@pytest.mark.parametrize("value, says", [("1", "set"), ("", "unset"), (None, "unset")])
def test_host_says_whether_bytecode_writing_is_off(monkeypatch, value, says):
    # with PYTHONDONTWRITEBYTECODE set, each worker compiles the package
    # inside its setup_s, so a record names the case it measured
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_pairs.host().endswith(f", PYTHONDONTWRITEBYTECODE {says}")


def test_change_tree_is_a_copy_of_the_working_tree(monkeypatch, tmp_path):
    # unpacked from the tree that a temporary index makes of the working
    # tree: tracked files as they are on disk, untracked ones unless
    # ignored; a tracked file deleted on disk and every ignored file stay
    # behind, and the repository's own index is left as it was
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "build").mkdir()
    files = {
        ".gitignore": "build/\n*.log\n",
        "tracked.py": "old\n",
        "src/gone.py": "x\n",
        "src/kept.py": "y\n",
    }
    for name, text in files.items():
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "add", "."], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "c"], cwd=repo, check=True)
    (repo / "tracked.py").write_text("edited\n")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("z\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "build" / "out.o").write_text("ignored\n")
    index = (repo / ".git" / "index").read_bytes()
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    out = tmp_path / "change"
    bench_pairs._unpack(bench_pairs._working_tree(), str(out))
    copied = {p.relative_to(out).as_posix(): p.read_text()
              for p in out.rglob("*") if p.is_file()}
    assert copied == {
        ".gitignore": "build/\n*.log\n",
        "tracked.py": "edited\n",
        "src/kept.py": "y\n",
        "src/new.py": "z\n",
    }
    assert (repo / ".git" / "index").read_bytes() == index


def test_a_failed_run_is_written_to_the_output_before_it_stops(monkeypatch, tmp_path):
    # pair 0 of seed 5 completes; in pair 1 the change side (which goes
    # first in odd pairs) fails, and the file holds pair 0 and the failure
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc123")
    monkeypatch.setattr(bench_pairs, "_unpack", lambda ref, where: None)
    monkeypatch.setattr(bench_pairs, "_working_tree", lambda: "tree")
    names = ["tasks_per_s", "task_p50_ms", "task_tail_ms", "setup_s", "peak_rss_mb"]
    report = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {n: {"value": 1.0} for n in names}}
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append(tree)
        if len(calls) == 3:
            raise bench_pairs.RunFailed("run.py", 1, "x" * 600 + "\nIndexError: boom\n")
        return report

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "bench.json"
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.main(["abc123", "--workload", "kp_scan", "--seeds", "5",
                          "--pairs", "2", "--seconds", "1", "--out", str(out)])
    entry = json.loads(out.read_text())["workloads"]["kp_scan"]
    assert [(r["side"], r["pair"]) for r in entry["runs"]] == [
        ("parent", 0), ("change", 0),
    ]
    failure = entry["failure"]
    assert {k: failure[k] for k in ("side", "seed", "pair", "returncode")} == {
        "side": "change", "seed": 5, "pair": 1, "returncode": 1,
    }
    assert len(failure["stderr"]) == 500 and failure["stderr"].endswith("boom")
    assert entry["summary"]["pairs"] == 1


def test_a_run_that_prints_no_report_fails(monkeypatch, tmp_path):
    # a worker that exits 0 with empty stdout is a failure, not an IndexError
    done = subprocess.CompletedProcess([], 0, stdout="", stderr="silent\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: done)
    with pytest.raises(bench_pairs.RunFailed) as err:
        bench_pairs._run(str(tmp_path), "kp_scan", 5, 1.0)
    assert err.value.returncode == 0 and err.value.stderr == "silent"
