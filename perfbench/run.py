"""The pelliptic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline_cold --seed 1 --seconds 50 --trace 0

Run from the repository root.  The library is imported from ``src``.
With ``--trace 0`` five fresh worker processes, one after another, each
run a fifth of one fixed, seed-determined task list with tracing off,
and the run reports the end-to-end metrics over all their task runs.
Timings are scaled to a reference host speed that each worker samples
while its tasks run (see ``worker.py``).
With ``--trace 1`` one worker runs a task list untraced and another runs
it traced, and the run reports the per-layer metrics.  Every output is
checked against the oracles in ``oracle.py`` after the workers have
exited.  Each metric is printed as ``name value unit``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

CLI_STARTS = 5  # cold `python -m pelliptic.cli mu0` runs per traced run
TIMEOUT_S = 170
WORKERS = 5  # fresh worker processes per timed run
# one client in one process with no threads: no BLAS or OpenMP pools
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
# tasks per second in a slow phase of the machine the benchmark was
# defined on, rounded down; with --seconds they fix a run's task list
RATE = {"pipeline_cold": 1.0, "tau_warm": 40.0, "kp_scan": 25.0}
TIMED = ("pipeline_cold", "kp_scan")  # tau_warm runs traced only


class WorkerError(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, n_tasks: int, part: int, parts: int,
            budget_s: float, deadline: float):
    """Run one worker; return (seconds until READY, its JSON report)."""
    args = (mode, workload, seed, n_tasks, part, parts, budget_s)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=WORKER_ENV)
    try:
        if not select.select([proc.stdout], [], [], deadline - t0)[0]:
            raise WorkerError(f"{mode} worker ran past the time limit")
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if first.strip() != "READY":
            raise WorkerError(f"{mode} worker failed before set-up finished")
        rest = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return ready, json.loads(rest.strip().splitlines()[-1])


def _check(workload: str, tasks: list, results: list, same: list) -> tuple:
    """Oracle-check every task; return (failures, checks, err_max, notes).

    A task fails if it raised, if its two runs (traced and untraced)
    gave different outputs (the library is deterministic), or if any
    oracle check misses.
    """
    from oracle import Oracle

    orc = Oracle()
    failed, notes = 0, []
    for task, res, ok in zip(tasks, results, same):
        if not res["ok"]:
            fails = [res["error"]]
        elif not ok:
            fails = ["the traced and untraced runs gave different outputs"]
        else:
            fails = orc.check(workload, task, res["out"])
        if fails:
            failed += 1
            if len(notes) < 5:
                notes.append(f"task {task}: {'; '.join(fails)}")
    return failed, orc.checks, orc.err_max, notes


def _cli_start_ms() -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    samples = []
    for _ in range(CLI_STARTS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "pelliptic.cli", "mu0"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
        samples.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(samples)


def _layer_metrics(report: dict, overhead: float) -> list:
    """Per-layer metrics of the traced worker, as (name, value, unit)."""
    tr = report["trace"]
    spans, misses, verdicts = tr["spans"], tr["misses"], tr["verdicts"]

    def span(name):
        return spans.get(name, {"calls": 0, "failed": 0, "work": 0, "self_ns": 0})

    out = []

    def calls(name):
        out.append((f"{name}.calls", span(name)["calls"], "count"))

    def self_ms(name):
        out.append((f"{name}.self_ms", span(name)["self_ns"] / 1e6, "ms"))

    def work(name, label):
        out.append((f"{name}.{label}", span(name)["work"], "count"))

    calls("elliptic.snp_many")
    work("elliptic.snp_many", "points")
    self_ms("elliptic.snp_many")
    s = span("elliptic.snp_many")
    out.append(("elliptic.snp_many.us_per_point",
                s["self_ns"] / 1e3 / s["work"] if s["work"] else 0.0, "us"))
    work("elliptic.snp_deriv_many", "points")
    self_ms("elliptic.snp_deriv_many")
    out.append(("elliptic.engine.misses", misses["elliptic.engine"], "count"))
    calls("elliptic.snp")
    self_ms("elliptic.snp")
    calls("eigen.eigenfunction_eval")
    self_ms("eigen.eigenfunction_eval")
    calls("eigen.eigenpair")
    out.append(("eigen.eigenpair.misses", misses["eigen.eigenpair"], "count"))
    self_ms("eigen.eigenpair")
    self_ms("eigen.first_integral_residual")
    calls("fourier.tau_k")
    self_ms("fourier.tau_k")
    s = span("fourier.tau_k")
    out.append(("fourier.tau_k.us_per_call",
                s["self_ns"] / 1e3 / s["calls"] if s["calls"] else 0.0, "us"))
    self_ms("fourier.fourier_profile")
    out.append(("fourier.profile.misses", misses["fourier.profile"], "count"))
    calls("quadrature.integrate_singular")
    work("quadrature.integrate_singular", "nodes")
    out.append(("quadrature.integrate_singular.failed",
                span("quadrature.integrate_singular")["failed"], "count"))
    self_ms("quadrature.integrate_singular")
    calls("elliptic.kp")
    out.append(("elliptic.kp.misses", misses["elliptic.kp"], "count"))
    self_ms("elliptic.kp")
    calls("elliptic.kp_quadrature")
    out.append(("elliptic.kp_quadrature.failed", span("elliptic.kp_quadrature")["failed"], "count"))
    calls("elliptic.kp_via_2f1")
    calls("quadrature.bracketed_root")
    work("quadrature.bracketed_root", "g_evals")
    self_ms("quadrature.bracketed_root")
    calls("qtheta.nome_from_modulus")
    self_ms("qtheta.nome_from_modulus")
    calls("qtheta.modulus_from_nome")
    self_ms("qtheta.odd_lambert_sum")
    calls("cli.main")
    self_ms("cli.main")
    self_ms("cli.build_parser")
    for name in ("certify_invertibility", "certify_firstcond", "certify_p2_sharp",
                 "region_scan", "firstcond_boundary"):
        self_ms(f"certify.{name}")
    for v in ("PASS", "INCONCLUSIVE", "FAIL"):
        out.append((f"certify.verdict.{v}", verdicts.get(v, 0), "count"))
    st = report["setup_trace"]["spans"].get("elliptic.snp_many", {"work": 0, "self_ns": 0})
    out.append(("setup.elliptic.snp_many.points", st["work"], "count"))
    out.append(("setup.elliptic.snp_many.self_ms", st["self_ns"] / 1e6, "ms"))
    out.append(("trace.overhead_frac", overhead, "ratio"))
    return out


def _tail_q(n: int) -> int:
    """The highest whole percentile, 50 to 99, with at least ten of n
    samples beyond it (50 if there is none above the median)."""
    return max(50, min(99, 100 * (n - 10) // n))


def _timed(w: str, seed: int, seconds: float, deadline: float) -> tuple:
    """WORKERS fresh workers, one after another, each running its share of
    one fixed task list.

    Returns (tasks, results, True for each task, metrics): a task runs
    once here, so there is no second run to compare.  Every set-up, its
    wall time scaled by the host speed the worker measured right after
    it, is a sample of ``setup_s``; every task run, its CPU time scaled
    by the host speed sampled during it, is a sample of the latency
    metrics.
    """
    n = max(WORKERS, round(seconds * RATE[w]))
    budget = 2.0 * seconds / WORKERS
    setups, reports = [], []
    for part in range(WORKERS):
        ready, rep = _worker("plain", w, seed, n, part, WORKERS, budget, deadline)
        setups.append(ready * rep["speed0"])
        reports.append(rep)
        print(f"worker {part} ran {len(rep['times'])} tasks in {rep['loop_s']:.3f} s, "
              f"ready after {ready:.4f} s at speed {rep['speed0']:.3f}")
    times = [t for r in reports for t in r["times"]]
    wall = [t for r in reports for t in r["wall"]]
    print(f"unscaled: {len(wall) / sum(r['loop_s'] for r in reports):.4f} tasks per wall "
          f"second of the loops, task wall time p50 {1e3 * statistics.median(wall):.2f} ms")
    if len(times) < n:
        print(f"only {len(times)} of {n} tasks ran within the time budget")
    tail_q = _tail_q(len(times))
    tail = float(np.percentile(times, tail_q))
    print(f"task_tail is p{tail_q} of {len(times)} tasks, {sum(t > tail for t in times)} beyond it")
    metrics = [
        ("tasks_per_s", len(times) / sum(times), "1/s"),
        ("task_p50_ms", 1e3 * statistics.median(times), "ms"),
        ("task_tail_ms", 1e3 * tail, "ms"),
        ("setup_s", statistics.median(setups), "s"),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    ]
    tasks = [t for r in reports for t in r["tasks"]]
    results = [x for r in reports for x in r["results"]]
    return tasks, results, [True] * len(results), metrics


def _traced(w: str, seed: int, seconds: float, deadline: float) -> tuple:
    """An untraced and a traced worker over the same task list.

    Returns (tasks, results, whether the two runs of each task agree, the
    traced report, tracing overhead).
    """
    n = max(2, round(0.5 * seconds * RATE[w]))
    _, plain = _worker("plain", w, seed, n, 0, 1, seconds, deadline)
    _, traced = _worker("trace", w, seed, n, 0, 1, seconds, deadline)
    m = min(len(plain["cpu"]), len(traced["cpu"]))
    overhead = sum(traced["cpu"][:m]) / sum(plain["cpu"][:m]) - 1.0
    same = [a == b for a, b in zip(traced["results"], plain["results"])]
    return traced["tasks"][:m], traced["results"][:m], same, traced, overhead


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pelliptic", "__init__.py")):
        print(f"no pelliptic sources under {ROOT}/src", file=sys.stderr)
        return 2
    w, seed = args.workload, args.seed
    if not args.trace and w not in TIMED:
        print(f"{w} runs with --trace 1 only", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIMEOUT_S
    try:
        if args.trace:
            tasks, results, same, traced, overhead = _traced(w, seed, args.seconds, deadline)
        else:
            tasks, results, same, metrics = _timed(w, seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    t_check = time.perf_counter()
    failed, checks, err_max, notes = _check(w, tasks, results, same)
    attempted = len(results)
    print(f"oracle checks took {time.perf_counter() - t_check:.1f} s")
    for note in notes:
        print(f"FAILED {note}")
    lines = [
        ("fail_frac", failed / attempted, "ratio"),
        ("oracle_checks", checks, "count"),
        ("oracle_err_max", err_max, "ratio"),
    ]
    if args.trace:
        metrics = _layer_metrics(traced, overhead)
        metrics.append(("cli.process_start_ms", _cli_start_ms(), "ms"))
        metrics += lines
    else:
        print(f"attempted {attempted} count")
        for name, val, unit in lines:
            print(f"{name} {val} {unit}")
    for name, val, unit in metrics:
        print(f"{name} {val} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, val, unit in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
