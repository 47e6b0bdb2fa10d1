"""One benchmark process: set up, run a fixed task list, report raw results.

Started by ``run.py`` as
``worker.py MODE WORKLOAD SEED N_TASKS PART PARTS BUDGET_S``.  The worker
imports the library, makes the first N_TASKS tasks of the seed, sets up
(warm-up, or the tau_warm pool), prints READY and then runs its share
of the tasks, ``tasks[PART::PARTS]``, in a closed loop: one client, the
next task starts when the previous one returns.  It stops early only if
the loop has run for BUDGET_S seconds.  The last line it prints is one
JSON report.

The shared host this benchmark was built on runs identical work up to
1.8x slower in phases that last from under a second to minutes, in CPU
time as well as in wall time.  So in ``plain`` mode a SIGALRM handler
runs a fixed reference kernel, which never calls pelliptic, every
REF_PERIOD_S while the tasks run, and the worker reports each task's
CPU time, without those kernel runs, scaled to a host on which one
kernel run takes REF_KERNEL_S of CPU: task CPU time * REF_KERNEL_S /
(mean kernel time over the task).  A change to pelliptic moves the
task's CPU time and not the kernel's; a change in the host's speed moves
both.

* ``plain``: the library runs unchanged, with the host's speed sampled.
* ``trace``: set-up and tasks run under the tracer, with no sampling, so
  no kernel run lands inside a span.

A worker never empties a library cache: every process starts cold, and
the tasks of a cold workload share no (p, mu), so none of them hits.
The worker imports only numpy and the library under test; the oracles
run in ``run.py`` after this process has exited.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import signal
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perfbench_out")

# one kernel run takes 0.6 to 1.2 ms of CPU on the 2-vCPU Xeon host the
# benchmark was built on; this is about its time in a slow phase
REF_KERNEL_S = 1.0e-3
REF_X = np.linspace(0.01, 1.0, 2048)
REF_PERIOD_S = 0.02  # wall seconds between kernel runs while tasks run
REF_FIRST = 20  # kernel runs right after set-up, to time the set-up's speed


def _import_library() -> wl.Library:
    import pelliptic

    where = os.path.dirname(os.path.abspath(pelliptic.__file__))
    if os.path.dirname(where) != SRC:
        sys.exit(f"pelliptic imported from {where}, not from {SRC}")
    return wl.Library()


def _setup(lib: wl.Library, workload: str, seed: int) -> None:
    if workload == "tau_warm":
        lib.build_pool()
    elif workload == "kp_scan":
        wl.run_task(lib, workload, wl.make_tasks(workload, seed, 1, stream=1)[0])


def _ref_kernel() -> float:
    """CPU seconds of one run of the reference kernel: numpy ufuncs on a
    2048-point array, the mix that tracked the host's speed most closely
    for both timed workloads."""
    t0 = time.process_time()
    for _ in range(20):
        float((np.sqrt(np.sin(REF_X) ** 2 + np.exp(-REF_X)) * np.log1p(REF_X)).sum())
    return time.process_time() - t0


class _HostSpeed:
    """Samples the host's speed while tasks run: a SIGALRM handler runs
    the reference kernel every REF_PERIOD_S of wall time and keeps
    (process CPU time at its start, its CPU seconds)."""

    def __init__(self):
        self.starts, self.runs = [], []
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        self.starts.append(time.process_time())
        self.runs.append(_ref_kernel())
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, c0: float, c1: float) -> tuple:
        """(CPU seconds of the task that ran from process CPU time c0 to
        c1, without the kernel runs inside it; the same scaled to a host
        on which the kernel takes REF_KERNEL_S).  The scale is the mean
        of the kernel runs inside the task and of the last one before it
        and the first one after it."""
        i = bisect.bisect_left(self.starts, c0)
        j = bisect.bisect_left(self.starts, c1)
        cpu = c1 - c0 - sum(self.runs[i:j])
        near = self.runs[max(0, i - 1): j + 1]
        return cpu, cpu * REF_KERNEL_S / (sum(near) / len(near))


def _run(lib, workload, tasks, budget_s, tracer=None):
    """Closed loop over the tasks.

    Returns (outcomes, (process CPU time at start, at end) per task, wall
    seconds per task, wall seconds of the loop).  A raised error is an
    outcome, counted as a failed task, not a benchmark failure.
    """
    outs, spans, wall = [], [], []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = {"ok": True, "out": wl.run_task(lib, workload, task)}
        except Exception as exc:
            out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        c1, t1 = time.process_time(), time.perf_counter()
        outs.append(out)
        spans.append((c0, c1))
        wall.append(t1 - t0)
        if t1 - start >= budget_s:
            break
    return outs, spans, wall, time.perf_counter() - start


def main(argv) -> int:
    mode, workload = argv[0], argv[1]
    seed, n_tasks, part, parts = (int(a) for a in argv[2:6])
    budget_s = float(argv[6])
    if workload not in wl.WORKLOADS:
        sys.exit(f"unknown workload {workload!r}")
    if mode not in ("plain", "trace"):
        sys.exit(f"unknown mode {mode!r}")
    lib = _import_library()
    tasks = wl.make_tasks(workload, seed, n_tasks)[part::parts]
    report = {}
    if mode == "plain":
        _setup(lib, workload, seed)
        print("READY", flush=True)
        host = _HostSpeed()
        for _ in range(REF_FIRST):
            host.sample()
        with host:
            outs, spans, wall, loop_s = _run(lib, workload, tasks, budget_s)
        host.sample()  # the first kernel run after the last task
        cpu, times = zip(*(host.scaled(c0, c1) for c0, c1 in spans))
        report["times"] = times
        report["speed0"] = REF_KERNEL_S * REF_FIRST / sum(host.runs[:REF_FIRST])
    else:
        from tracer import Tracer

        setup_tracer = Tracer(lib.modules, lib.caches)
        with setup_tracer:
            setup_tracer.task = "setup"
            _setup(lib, workload, seed)
        print("READY", flush=True)
        tracer = Tracer(lib.modules, lib.caches)
        with tracer:
            outs, spans, wall, loop_s = _run(lib, workload, tasks, budget_s, tracer)
        cpu = [c1 - c0 for c0, c1 in spans]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv"))
        report["trace"] = tracer.summary()
        report["setup_trace"] = setup_tracer.summary()
    report.update(
        tasks=tasks[: len(outs)],
        results=outs,
        cpu=cpu,
        wall=wall,
        loop_s=loop_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
