"""Benchmark tasks of a parent commit and the working tree, interleaved in one process.

    python tools/ab_tasks.py PARENT_REF --workload kp_scan --tasks 2000 --seed 5

Run from anywhere inside the repository.  Both trees are made as
``tools/bench_pairs.py`` makes them, each unpacked (``git archive``) into
a temporary directory: PARENT_REF's, and the working tree's tracked and
not ignored files as they are on disk.  This process then imports each
tree's ``src/pelliptic`` as a package of its own (``pelliptic_parent``
and ``pelliptic_change``), sets each up as a benchmark worker does, and
runs the first N tasks of the seed, made by the working tree's
``perfbench/workloads.py``, on both: task by task, the two sides one
after the other, the side that goes first alternating from task to
task.  It prints each side's mean and median task CPU time
(``time.process_time``), the ratios of the change's to the parent's, and
how many tasks gave identical outputs (equal ``repr``), then the same as
one JSON line.

Both sides see the same phases of host speed, as they alternate within
milliseconds, so a few thousand tasks size a change of a few percent on a
noisy host.  That is all this tool is for.  The two packages share one
interpreter, one numpy and one heap, unlike the benchmark's fresh
processes, so speed claims go through ``tools/bench_pairs.py``, which runs
``perfbench/run.py`` itself.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_pairs import SIDES, _unpack, _working_tree  # noqa: E402


def summarize(cpu: dict, identical: int) -> dict:
    """Each side's mean and median task CPU time in microseconds, from
    ``cpu``, a list of per-task seconds per side, the ratios of the
    change's to the parent's, the number of tasks and how many of them gave
    identical outputs.  The benchmark's ``task_p50_ms`` is a median, which
    a few slow tasks move less than they move the mean."""
    means = {side: 1e6 * sum(cpu[side]) / len(cpu[side]) for side in SIDES}
    medians = {side: 1e6 * statistics.median(cpu[side]) for side in SIDES}
    return {
        "tasks": len(cpu["parent"]),
        "identical": identical,
        "parent_us": means["parent"],
        "change_us": means["change"],
        "ratio": means["change"] / means["parent"],
        "parent_p50_us": medians["parent"],
        "change_p50_us": medians["change"],
        "p50_ratio": medians["change"] / medians["parent"],
    }


def _package(name: str, where: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(where, "__init__.py"), submodule_search_locations=[where]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _library(name: str) -> types.SimpleNamespace:
    """The modules a task calls, as ``perfbench/workloads.py``'s Library
    holds them, from the package ``name``."""
    mod = {m: importlib.import_module(f"{name}.{m}")
           for m in ("certify", "cli", "eigen", "elliptic", "fourier")}
    return types.SimpleNamespace(ct=mod["certify"], cli=mod["cli"], eg=mod["eigen"],
                                 el=mod["elliptic"], fr=mod["fourier"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_ref")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--tasks", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    tmp = tempfile.mkdtemp(prefix="ab_tasks-")
    try:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        _unpack(args.parent_ref, trees["parent"])
        _unpack(_working_tree(), trees["change"])
        bench = os.path.join(trees["change"], "perfbench")
        sys.path.insert(0, bench)
        import worker  # the benchmark's worker: its set-up and its workloads

        wl = worker.wl
        libs = {}
        for side in SIDES:
            name = f"pelliptic_{side}"
            _package(name, os.path.join(trees[side], "src", "pelliptic"))
            libs[side] = _library(name)
            worker._setup(libs[side], args.workload, args.seed)
        tasks = wl.make_tasks(args.workload, args.seed, args.tasks)
        cpu = {side: [] for side in SIDES}
        identical = 0
        for i, task in enumerate(tasks):
            out = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                start = time.process_time()
                out[side] = wl.run_task(libs[side], args.workload, task)
                cpu[side].append(time.process_time() - start)
            identical += repr(out["parent"]) == repr(out["change"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarize(cpu, identical)
    print(f"{args.workload} seed {args.seed}, {summary['tasks']} tasks: mean task CPU "
          f"parent {summary['parent_us']:.1f} us, change {summary['change_us']:.1f} us, "
          f"ratio {summary['ratio']:.4f}; median parent {summary['parent_p50_us']:.1f} "
          f"us, change {summary['change_p50_us']:.1f} us, ratio "
          f"{summary['p50_ratio']:.4f}; identical outputs {identical} of "
          f"{summary['tasks']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
