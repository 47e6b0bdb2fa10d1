"""Riesz-basis certificates and the admissible-region scan.

Three machine-checked sufficient conditions are implemented as
certificates over a finite set of moduli:

* ``firstcond``: sup K_p(mu) < 8/(pi^2 - 8).  The right-hand constant is
  derived from the Step-2/Step-3 Fourier bounds: the distance of the
  normalized profile family from the sine basis stays below 1 when the
  quarter period is small enough.
* ``invertibility``: the explicit coefficient test, sum over odd k >= 3
  of sup|tau_k| (plus a rigorous tail bound) staying below inf tau_1.
* ``p2-sharp``: the p = 2 sharp threshold sup mu < mu0, where mu0 is the
  modulus whose nome solves the sharp equation; the rho-series sum S(q)
  is reported as a diagnostic and must stay below 1 for a PASS.

Each certificate reports lhs, rhs, margin = rhs - lhs, a truncation tail
bound, and a three-way verdict: PASS when the margin clearly exceeds the
tail plus a fixed numeric slack, FAIL when it is clearly negative, and
INCONCLUSIVE in between.  A certificate never silently overclaims: sups
over interval grids carry an explicit non-rigorous-between-nodes caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _kp_rows, kp
from .errors import DomainError, MaxIterations, NoSignChange
from .errors import _check_int, _check_interval
from .fourier import tau_k, tau_tail_bound
from .qtheta import mu0, nome_from_modulus, odd_lambert_sum

__all__ = [
    "ModulusSet",
    "CertificateReport",
    "certify_firstcond",
    "certify_invertibility",
    "certify_p2_sharp",
    "region_scan",
    "region_csv",
    "firstcond_boundary",
    "FIRSTCOND_RHS",
]

# sup K_p threshold 8/(pi^2 - 8), about 4.2789801; computed from pi,
# never stored as a decimal
FIRSTCOND_RHS = 8.0 / (math.pi**2 - 8.0)

_SLACK = 1e-9
# region_scan: at most this many grid points per batched K_p call
_CHUNK = 64
# firstcond_boundary: moduli of the batch that brackets the crossing,
# geometric in 1 - mu from the scan range's ends 1e-6 to 0.999, and their
# t = log(1 - mu), the variable the crossing is solved in
_BOUNDARY_MUS = 1.0 - np.geomspace(1.0 - 1e-6, 1.0 - 0.999, 16)
_BOUNDARY_MUS[[0, -1]] = 1e-6, 0.999
_BOUNDARY_TS = np.log1p(-_BOUNDARY_MUS)
# firstcond_boundary: at most this many scalar K_p evaluations
_BOUNDARY_ITER = 60
_KINDS = ("explicit-list", "constant", "interval-grid")


@dataclass(frozen=True)
class ModulusSet:
    """A finite set of moduli, each in (0, 1).

    ``kind`` records how the set was built; ``interval-grid`` sets are
    sampled from a continuum, so sups over them are grid sups only.
    """

    kind: str
    values: tuple
    grid_resolution: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if len(self.values) == 0:
            raise DomainError("modulus set must be nonempty")
        for mu in self.values:
            _check_interval("mu", mu, 0.0, 1.0, "()")
        if self.kind == "constant" and len(self.values) != 1:
            raise DomainError("constant modulus set must hold exactly one value")
        if self.kind == "interval-grid" and self.grid_resolution != len(self.values):
            raise DomainError("interval-grid resolution must match the value count")

    @staticmethod
    def constant(mu: float) -> "ModulusSet":
        return ModulusSet(kind="constant", values=(float(mu),))

    @staticmethod
    def explicit(values) -> "ModulusSet":
        return ModulusSet(kind="explicit-list", values=tuple(float(v) for v in values))

    @staticmethod
    def grid(lo: float, hi: float, n: int) -> "ModulusSet":
        _check_int("n", n, 2)
        _check_interval("lo", lo, 0.0, 1.0, "()")
        _check_interval("hi", hi, lo, 1.0, "()")
        vals = tuple(float(v) for v in np.linspace(lo, hi, int(n)))
        return ModulusSet(kind="interval-grid", values=vals, grid_resolution=int(n))


@dataclass(frozen=True)
class CertificateReport:
    """One certificate: inequality sides, tail allowance and verdict."""

    criterion: str
    lhs: float
    rhs: float
    margin: float
    truncation_K: int
    tail_bound: float
    verdict: str
    caveats: str


def _verdict(lhs: float, rhs: float, tail: float) -> tuple[str, float]:
    margin = rhs - lhs
    if margin > tail + _SLACK:
        return "PASS", margin
    if abs(margin) <= tail + _SLACK:
        return "INCONCLUSIVE", margin
    return "FAIL", margin


def certify_firstcond(p: float, ms: ModulusSet) -> CertificateReport:
    """sup K_p(mu) over the set against the threshold 8/(pi^2 - 8).

    No truncation is involved, so the tail bound is zero; for interval
    grids the sup over the grid equals the sup over the sampled interval
    anyway, since K_p is increasing in mu.
    """
    lhs = max(kp(p, mu) for mu in ms.values)
    verdict, margin = _verdict(lhs, FIRSTCOND_RHS, 0.0)
    caveats = ""
    if verdict == "INCONCLUSIVE":
        caveats = "margin within numeric slack of zero"
    return CertificateReport(
        criterion="firstcond",
        lhs=lhs,
        rhs=FIRSTCOND_RHS,
        margin=margin,
        truncation_K=0,
        tail_bound=0.0,
        verdict=verdict,
        caveats=caveats,
    )


def certify_invertibility(p: float, ms: ModulusSet, K: int = 21) -> CertificateReport:
    """Coefficient test: sum of sup|tau_k| over odd 3..K + tail < inf tau_1.

    The tail bound covers all odd indices above K using sup K_p over the
    set.  For interval grids the sup of tau_k between nodes is not
    controlled (tau_k need not be monotone in mu), and the report says
    so.
    """
    _check_int("K", K, 5, odd=True)
    # one row per modulus, one column per odd k = 1, 3, ..., K
    taus = np.array([tau_k(p, mu, np.arange(1, K + 1, 2)) for mu in ms.values])
    rhs = float(np.min(taus[:, 0]))
    lhs = math.fsum(np.max(np.abs(taus[:, 1:]), axis=0))
    tail = tau_tail_bound(p, max(kp(p, mu) for mu in ms.values), int(K) + 2)
    verdict, margin = _verdict(lhs, rhs, tail)
    notes = []
    if ms.kind == "interval-grid":
        notes.append(
            "sup over grid points only; not a rigorous sup between nodes"
        )
    if verdict == "INCONCLUSIVE":
        notes.append("tail bound straddles the margin; increase K to shrink it")
    return CertificateReport(
        criterion="invertibility",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        truncation_K=int(K),
        tail_bound=tail,
        verdict=verdict,
        caveats="; ".join(notes),
    )


def certify_p2_sharp(ms: ModulusSet) -> CertificateReport:
    """p = 2 sharp test: sup mu against mu0.

    Also evaluates the diagnostic S(q) = sum_j rho_j(q) at the nome of
    the sup; a PASS with S >= 1 is internally inconsistent and is demoted
    to INCONCLUSIVE.  Moduli so close to 1 that the nome map saturates
    raise the inversion's own error rather than guessing.
    """
    lhs = max(ms.values)
    rhs = mu0()
    q_sup = nome_from_modulus(lhs)
    s_diag = (1.0 - q_sup) * odd_lambert_sum(q_sup)
    verdict, margin = _verdict(lhs, rhs, 0.0)
    notes = [f"S(q)={s_diag:.17g} at q={q_sup:.17g}"]
    if verdict == "PASS" and s_diag >= 1.0:
        verdict = "INCONCLUSIVE"
        notes.append("rho-sum diagnostic S >= 1 contradicts the margin test")
    return CertificateReport(
        criterion="p2-sharp",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        truncation_K=0,
        tail_bound=0.0,
        verdict=verdict,
        caveats="; ".join(notes),
    )


def region_scan(p_points, mu_points) -> list:
    """Tabulate K_p over a (1/p, mu) grid against the firstcond threshold.

    ``p_points`` holds values of 1/p in (0, 1); ``mu_points`` holds
    moduli in (0, 0.999], the cap reflecting reduced accuracy claims
    near mu = 1.  Returns rows (one_over_p, mu, kp, inside) sorted by
    (one_over_p, mu), with inside = 1 when K_p(mu) < 8/(pi^2 - 8).

    The sorted grid points go in chunks of at most 64 through one batched
    K_p call each, whose values equal scalar :func:`kp` bit for bit.
    """
    ps = [float(v) for v in p_points]
    mus = [float(v) for v in mu_points]
    if len(ps) == 0 or len(mus) == 0:
        raise DomainError("grids must be nonempty")
    for v in ps:
        _check_interval("1/p", v, 0.0, 1.0, "()")
    for mu in mus:
        _check_interval("mu", mu, 0.0, 0.999, "(]")
    keys = [(op, mu) for op in sorted(ps) for mu in sorted(mus)]
    rows = []
    for i in range(0, len(keys), _CHUNK):
        chunk = keys[i : i + _CHUNK]
        vals = _kp_rows([1.0 / op for op, _ in chunk], [mu for _, mu in chunk])
        for (op, mu), val in zip(chunk, vals.tolist()):
            rows.append((op, mu, val, int(val < FIRSTCOND_RHS)))
    return rows


def region_csv(rows) -> str:
    """Render region_scan rows as CSV with the canonical header."""
    lines = ["one_over_p,mu,kp,inside"]
    for op, mu, val, inside in rows:
        lines.append(f"{op:.17g},{mu:.17g},{val:.17g},{inside:d}")
    return "\n".join(lines) + "\n"


def firstcond_boundary(p: float, tol: float = 1e-10) -> float:
    """The modulus at which K_p crosses the firstcond threshold.

    Root of K_p(mu) = 8/(pi^2 - 8) on [1e-6, 0.999], solved in
    t = log(1 - mu), where K_p is close to linear.  One batched K_p call
    evaluates 16 moduli geometric in 1 - mu across the range; the grid
    interval where the sign changes is the bracket, and inverse cubic
    interpolation through the 4 nodes around it gives the first iterate.
    Secant steps through the last two iterates (the first through the
    bracket end nearer the root) follow, each point costing one scalar
    :func:`kp` call at a modulus strictly inside the bracket, which
    shrinks as the signs come in; a step that would leave the bracket
    becomes a bisection.  The loop stops once a step moves mu by at most
    ``tol``, or the bracket is that narrow, and returns that step's
    endpoint clipped into the bracket: at the simple root the secant
    converges superlinearly, so the result is far closer than ``tol``.
    About three scalar calls suffice, never one at a grid modulus.

    Raises
    ------
    DomainError
        If ``tol`` is not positive and finite, checked before any K_p work.
    NoSignChange
        If the batch shows no crossing: K_p is already above the threshold
        at 1e-6 (p below about 1.25) or still below it at 0.999 (p above
        about 2.02).
    """
    _check_interval("tol", tol, 0.0, math.inf, "()")
    mus, ts = _BOUNDARY_MUS.tolist(), _BOUNDARY_TS.tolist()
    f = (_kp_rows([p] * len(mus), mus) - FIRSTCOND_RHS).tolist()
    if f[0] > 0.0 or f[-1] < 0.0:
        raise NoSignChange(
            f"K_{p}(mu) - 8/(pi^2 - 8) is {f[0]} at mu = {mus[0]} and "
            f"{f[-1]} at mu = {mus[-1]}, equal signs"
        )
    k = next(i for i, fi in enumerate(f) if fi >= 0.0)
    if f[k] == 0.0:
        return mus[k]
    # inverse cubic interpolation: the Lagrange form of t(f) at f = 0
    j = min(max(k - 2, 0), len(f) - 4)
    t = 0.0
    for i in range(j, j + 4):
        w = ts[i]
        for m in range(j, j + 4):
            if m != i:
                w *= f[m] / (f[m] - f[i])
        t += w
    # the bracket: K_p is below the threshold at t = a (mu = lo) and above
    # it at t = b (mu = hi); the first secant runs through the end nearer
    # the root
    a, b, lo, hi = ts[k - 1], ts[k], mus[k - 1], mus[k]
    t0, f0 = (a, f[k - 1]) if -f[k - 1] < f[k] else (b, f[k])
    for _ in range(_BOUNDARY_ITER):
        mu = -math.expm1(t)
        if not lo < mu < hi:
            t = 0.5 * (a + b)
            mu = -math.expm1(t)
        ft = kp(p, mu) - FIRSTCOND_RHS
        if ft == 0.0:
            return mu
        if ft < 0.0:
            a, lo = t, mu
        else:
            b, hi = t, mu
        # equal values leave no secant; bisect instead
        den = ft - f0
        t, t0, f0 = (t - ft * (t - t0) / den if den else 0.5 * (a + b)), t, ft
        step_end = -math.expm1(t)
        if abs(step_end - mu) <= tol or hi - lo <= tol + 8.0 * math.ulp(hi):
            return min(max(step_end, lo), hi)
    raise MaxIterations(
        f"firstcond_boundary({p}): bracket still {hi - lo:.3e} wide after "
        f"{_BOUNDARY_ITER} K_p evaluations (tol {tol:.3e})"
    )
