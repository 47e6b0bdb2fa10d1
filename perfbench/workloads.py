"""Seeded inputs and task bodies of the three benchmark workloads.

Inputs depend only on (workload, seed, task index).  The continuous
inputs of each task come from an additive recurrence (a Kronecker
sequence) whose start is drawn from the seed, so every run of a few
dozen tasks covers its input box evenly and the cost mix of a run
changes little from seed to seed, while the values themselves are new
for every seed.

Task bodies reach the library only through module attributes looked up
at call time (``ct.certify_invertibility`` and so on), so the tracer's
wrappers, patched into those modules, see every call.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

WORKLOADS = ("pipeline_cold", "tau_warm", "kp_scan")

# tau_warm pool: profiles built in set-up and reused by every task
POOL_P = (1.5, 2.0, 3.0)
POOL_MU = (0.3, 0.6, 0.9)
POOL_KMAX = 201
TAU_WARM_K = (41, 81, 161)

# kp_scan tile geometry: 4 x 4 nodes, spacing in 1/p and in mu
TILE_N = 4
TILE_STEP = 0.02
OP_RANGE = (0.05, 0.93)
MU_RANGE = (0.01, 0.999)
BOUNDARY_P = (1.3, 2.02)

# pipeline_cold residual grid
RESIDUAL_GRID = 101


def _kronecker_alphas(dim: int) -> np.ndarray:
    """Generalised golden-ratio steps for a dim-dimensional sequence."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return np.array([phi ** -(j + 1) % 1.0 for j in range(dim)])


def _points(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    start = rng.random(dim)
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    return (start + idx * _kronecker_alphas(dim)) % 1.0


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), stream])


def make_tasks(workload: str, seed: int, n: int, stream: int = 0) -> list[dict]:
    """The first n tasks of a workload for a seed.

    ``stream`` 1 gives the warm-up inputs, which never coincide with the
    measured ones.
    """
    rng = _rng(workload, seed, stream)
    if workload == "pipeline_cold":
        u = _points(rng, n, 3)
        xs = rng.uniform(0.01, 0.99, size=(n, 3))
        tasks = []
        for i in range(n):
            p = 2.0 if i % 4 == 0 else 1.5 + 4.5 * float(u[i, 0])
            mus = (0.1 + 0.85 * float(u[i, 1]), 0.1 + 0.85 * float(u[i, 2]))
            tasks.append({"p": p, "mus": mus, "xs": [float(x) for x in xs[i]]})
        return tasks
    if workload == "tau_warm":
        combos = [
            (p, (POOL_MU[a], POOL_MU[b]), K)
            for p in POOL_P
            for a, b in ((0, 1), (0, 2), (1, 2))
            for K in TAU_WARM_K
        ]
        tasks = []
        while len(tasks) < n:
            for j in rng.permutation(len(combos)):
                p, mus, K = combos[j]
                tasks.append({"p": p, "mus": mus, "K": K})
        return tasks[:n]
    if workload == "kp_scan":
        u = _points(rng, n, 5)
        span = (TILE_N - 1) * TILE_STEP
        tasks = []
        for i in range(n):
            op0 = OP_RANGE[0] + (OP_RANGE[1] - span - OP_RANGE[0]) * float(u[i, 0])
            mu0 = MU_RANGE[0] + (MU_RANGE[1] - span - MU_RANGE[0]) * float(u[i, 1])
            pb = BOUNDARY_P[0] + (BOUNDARY_P[1] - BOUNDARY_P[0]) * float(u[i, 2])
            sharp = tuple(
                MU_RANGE[0] + (MU_RANGE[1] - MU_RANGE[0]) * float(u[i, j]) for j in (3, 4)
            )
            tasks.append(
                {
                    "ops": [op0 + j * TILE_STEP for j in range(TILE_N)],
                    "tile_mus": [mu0 + j * TILE_STEP for j in range(TILE_N)],
                    "p_boundary": pb,
                    "sharp_mus": sharp,
                }
            )
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


class Library:
    """The pelliptic modules a task calls, imported once by the worker."""

    def __init__(self):
        from pelliptic import certify, cli, eigen, elliptic, fourier, qtheta, quadrature

        self.ct = certify
        self.cli = cli
        self.eg = eigen
        self.el = elliptic
        self.fr = fourier
        # layer name -> module, for the tracer
        self.modules = {
            "quadrature": quadrature,
            "elliptic": elliptic,
            "eigen": eigen,
            "fourier": fourier,
            "qtheta": qtheta,
            "certify": certify,
            "cli": cli,
        }
        # the library's (p, mu) caches, taken before any tracer patches kp
        self.caches = {
            "elliptic.kp": elliptic.kp,
            "elliptic.engine": elliptic._engine,
            "fourier.profile": fourier._profile,
            "eigen.eigenpair": eigen._build,
        }

    def build_pool(self) -> None:
        for p in POOL_P:
            for mu in POOL_MU:
                self.fr.fourier_profile(p, mu, K_max=POOL_KMAX)


def _report(rep) -> dict:
    return {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "margin": rep.margin,
        "tail": rep.tail_bound,
        "verdict": rep.verdict,
    }


def _envelope(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition("=")
        out.setdefault(key, val)
    return out


def run_task(lib: Library, workload: str, task: dict) -> dict:
    """Run one task and return its outputs; exceptions propagate."""
    if workload == "pipeline_cold":
        p, mus = task["p"], task["mus"]
        ms = lib.ct.ModulusSet.explicit(mus)
        e = lib.eg.eigenpair(p, min(mus), 1)
        grid = np.linspace(0.0, 1.0, RESIDUAL_GRID)
        res = lib.eg.first_integral_residual(e, grid)
        phis = [lib.eg.eigenfunction_eval(e, x) for x in task["xs"]]
        fc = lib.ct.certify_firstcond(p, ms)
        inv = lib.ct.certify_invertibility(p, ms, K=21)
        return {
            "amplitude": e.amplitude,
            "lam": e.lam,
            "sign": e.sign,
            "residual": res.max_abs_residual,
            "phis": phis,
            "firstcond": _report(fc),
            "invert": _report(inv),
        }
    if workload == "tau_warm":
        ms = lib.ct.ModulusSet.explicit(task["mus"])
        return {"invert": _report(lib.ct.certify_invertibility(task["p"], ms, K=task["K"]))}
    if workload == "kp_scan":
        rows = lib.ct.region_scan(task["ops"], task["tile_mus"])
        boundary = lib.ct.firstcond_boundary(task["p_boundary"])
        a, b = task["sharp_mus"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(
                ["certify", "--criterion", "p2sharp", "--mu-list", f"{a!r},{b!r}"]
            )
        return {
            "rows": [list(r) for r in rows],
            "boundary": boundary,
            "cli_exit": code,
            "cli": _envelope(buf.getvalue()),
        }
    raise ValueError(f"unknown workload {workload!r}")

