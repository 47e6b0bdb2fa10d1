"""numpy calls per benchmark task, by the library function that makes them.

    python tools/np_calls.py pipeline_cold --tasks 50 --seed 5

Run from anywhere inside the repository.  It imports the checkout's
``src/pelliptic``, sets it up as a benchmark worker does, then replaces
the global ``np`` of every ``pelliptic`` module by a counting proxy and
runs the first N tasks of the seed, made by ``perfbench/workloads.py``.
It prints the calls per task by library function (the module and the
function's qualified name, its plain name before Python 3.11), with the
numpy functions each one calls, largest first, then the totals as one
JSON line: ``tasks``, ``calls_per_task``, ``errstate_per_task``, and
``by_caller`` and ``by_function``, calls per task keyed by library
function and by numpy function.

The count does not depend on the machine, so it sizes numpy's fixed cost
per call, a large share of a cold task's time, where timings on a noisy
host cannot.  It counts every call of a numpy function, a ufunc, a ufunc
method (``np.add.reduce``) or ``np.errstate`` made through a module's
``np`` name.  It misses operators on arrays (``a + b``, ``a[i]``), array
methods (``a.cumsum()``), numpy classes (``np.ndarray``, which
``isinstance`` needs as it is), and the calls numpy makes inside itself.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Counted:
    """A numpy callable that counts each call under (caller, name) in
    ``counts``; its callable attributes, a ufunc's methods, count too."""

    def __init__(self, fn, name: str, counts: collections.Counter):
        self._fn, self._name, self._counts = fn, name, counts

    def __call__(self, *args, **kwargs):
        code = sys._getframe(1).f_code
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        caller = f"{module}.{getattr(code, 'co_qualname', code.co_name)}"
        self._counts[caller, self._name] += 1
        return self._fn(*args, **kwargs)

    def __getattr__(self, attr: str):
        obj = getattr(self._fn, attr)
        return _Counted(obj, f"{self._name}.{attr}", self._counts) if callable(obj) else obj


class _Numpy:
    """Stands in for ``numpy`` in a module: each callable, but a class
    other than ``np.errstate``, comes back counted; anything else as it is."""

    def __init__(self, counts: collections.Counter):
        self._counts = counts

    def __getattr__(self, name: str):
        obj = getattr(np, name)
        if callable(obj) and (obj is np.errstate or not isinstance(obj, type)):
            obj = _Counted(obj, name, self._counts)
        setattr(self, name, obj)
        return obj


def count(modules, run, tasks: list) -> collections.Counter:
    """Counts of (caller, numpy name) over ``run(task)`` for each task,
    with the ``np`` of each of ``modules`` swapped for a :class:`_Numpy`
    while they run and put back after."""
    counts = collections.Counter()
    proxy = _Numpy(counts)
    saved = [(m, m.np) for m in modules if getattr(m, "np", None) is np]
    try:
        for m, _ in saved:
            m.np = proxy
        for task in tasks:
            run(task)
    finally:
        for m, real in saved:
            m.np = real
    return counts


def summarize(counts: collections.Counter, tasks: int) -> dict:
    """Calls per task in all, of np.errstate, and by caller and by numpy name."""
    by_caller, by_function = collections.Counter(), collections.Counter()
    for (caller, name), n in counts.items():
        by_caller[caller] += n
        by_function[name] += n
    per = lambda c: {k: n / tasks for k, n in c.most_common()}
    return {
        "tasks": tasks,
        "calls_per_task": sum(counts.values()) / tasks,
        "errstate_per_task": by_function["errstate"] / tasks,
        "by_caller": per(by_caller),
        "by_function": per(by_function),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--tasks", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import worker  # the benchmark's worker: its set-up and its workloads

    wl = worker.wl
    lib = worker._import_library()
    worker._setup(lib, args.workload, args.seed)
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("pelliptic.")]
    tasks = wl.make_tasks(args.workload, args.seed, args.tasks)
    counts = count(modules, lambda task: wl.run_task(lib, args.workload, task), tasks)
    summary = summarize(counts, args.tasks)
    print(f"{args.workload} seed {args.seed}, {args.tasks} tasks: "
          f"{summary['calls_per_task']:.1f} np calls per task, "
          f"{summary['errstate_per_task']:.1f} of them np.errstate")
    for caller, n in summary["by_caller"].items():
        names = collections.Counter({k[1]: v for k, v in counts.items() if k[0] == caller})
        detail = ", ".join(f"{name} {m / args.tasks:g}" for name, m in names.most_common())
        print(f"  {n:8.2f}  {caller}: {detail}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
