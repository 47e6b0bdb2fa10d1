"""Spans around the public functions of every pelliptic layer.

While a :class:`Tracer` is active, each function named in a module's
``__all__`` is replaced, in every pelliptic module that holds it, by a
wrapper that records one span: name, start, end, parent span, task id,
whether it raised, and a work count where the function has one (points
for the batched sn_p calls, nodes for the quadrature, callback
evaluations for the root finder).  Spans stay in memory; the worker
writes them out when the run ends.  Leaving the ``with`` block restores
the original functions, so untraced runs execute the library unchanged.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the children never
overlap and their sum is the time they cover.  Private helpers carry no
span: their time counts toward the public call they run under.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "elliptic", "eigen", "fourier", "qtheta", "certify", "cli")


def _points(args, kwargs, result):
    y = args[2] if len(args) > 2 else kwargs["y"]
    return int(np.size(y))


def _nodes(args, kwargs, result):
    return result.nodes_used


_WORK = {
    "elliptic.snp_many": _points,
    "elliptic.snp_deriv_many": _points,
    "quadrature.integrate_singular": _nodes,
}


class Tracer:
    """Collects spans and counts while active (``with Tracer(...)``).

    A tracer may be entered many times; spans and counts accumulate.
    """

    def __init__(self, modules: dict, caches: dict):
        self.modules = modules  # layer name -> module
        self.caches = caches  # metric name -> lru_cache whose misses count
        self.spans: list = []  # (name, t0_ns, t1_ns, parent, task, ok, work)
        self.task = None
        self._stack: list = []
        self._patched: list = []
        self._cache_base: dict = {}
        self._misses: dict = dict.fromkeys(caches, 0)
        self._verdicts: dict = defaultdict(int)

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(name)
        clock = time.perf_counter_ns
        is_root = name == "quadrature.bracketed_root"
        is_cert = name.startswith("certify.certify_")
        verdicts = self._verdicts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n = 0
            if is_root:
                g = args[0]
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return g(x)

                args = (counted,) + tuple(args[1:])
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if is_root:
                    n = evals[0]
                elif ok and work is not None:
                    n = work(args, kwargs, out)
                spans[idx] = (name, t0, t1, parent, self.task, ok, n)
            if is_cert:
                verdicts[out.verdict] += 1
            return out

        return wrapper

    def __enter__(self):
        pkg_modules = [m for k, m in sys.modules.items() if k.startswith("pelliptic")]
        for layer in LAYERS:
            mod = self.modules[layer]
            for fname in mod.__all__:
                orig = getattr(mod, fname)
                if isinstance(orig, type) or not callable(orig):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in pkg_modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
        self._cache_base = self._cache_misses()
        return self

    def __exit__(self, *exc):
        for name, n in self._cache_misses().items():
            self._misses[name] += n - self._cache_base[name]
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()
        return False

    def _cache_misses(self) -> dict:
        return {name: fn.cache_info().misses for name, fn in self.caches.items()}

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, failures, work and self time, plus cache misses."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _task, _ok, _n in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict = defaultdict(lambda: {"calls": 0, "failed": 0, "work": 0, "self_ns": 0})
        for i, (name, t0, t1, _parent, _task, ok, n) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["failed"] += 0 if ok else 1
            a["work"] += n
            a["self_ns"] += t1 - t0 - child[i]
        return {"spans": dict(agg), "misses": dict(self._misses), "verdicts": dict(self._verdicts)}

    def write(self, path) -> None:
        """Dump every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\ttask\tok\twork\n")
            for i, (name, t0, t1, parent, task, ok, n) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\t{task}\t{int(ok)}\t{n}\n")
