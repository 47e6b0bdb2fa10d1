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
  is reported as a diagnostic.  S increases in q and equals 1 at the
  nome of mu0, so on every PASS it is below 0.7601.

Each certificate reports lhs, rhs, margin = rhs - lhs, a truncation tail
bound, and a three-way verdict: PASS when the margin clearly exceeds the
tail plus a fixed numeric slack, FAIL when it is below minus the slack,
and INCONCLUSIVE in between.  The tail bounds the terms that lhs leaves
out, so it can only make lhs larger: a negative margin fails the
inequality whatever the tail.  A FAIL says that the sufficient condition
does not hold, not that the family is no Riesz basis.  One private
builder makes every report, so the verdict rule and the report layout
are written once.  A certificate never silently overclaims: sups over
interval grids carry an explicit non-rigorous-between-nodes caveat.

``firstcond_boundary`` finds where K_p crosses the firstcond threshold
by Newton's method on K_p's hypergeometric sum, and lands on the
quadrature's crossing by one more Newton step from one scalar K_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _kp_rows, _KpSeries, kp
from .errors import DomainError, MaxIterations, NoSignChange
from .errors import _check_int, _check_interval, _check_run
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
# region_scan: at most this many grid points per batched K_p call, which
# bounds memory: on the grid of ``pelliptic region --pgrid 100 --mugrid
# 100``, 64-point chunks peak at 35 MB of RSS in 0.10 s of CPU, and one
# 10,000-point batch at 94 MB in 0.09 s (one 2 GHz Xeon core, medians of
# 15 runs)
_CHUNK = 64
# firstcond_boundary: Newton on the sum stops at a step in t = log(1 - mu^p)
# of at most _NEWTON_STEP, and raises after _BOUNDARY_ITER steps
_NEWTON_STEP = 1e-9
_BOUNDARY_ITER = 50
_KINDS = ("explicit-list", "constant", "interval-grid")


@dataclass(frozen=True)
class ModulusSet:
    """A finite set of moduli, each in (0, 1), held as a tuple of floats.

    ``kind`` records how the set was built; ``interval-grid`` sets are
    sampled from a continuum, so sups over them are grid sups only.
    ``values`` may be given as any list or array of real numbers.
    """

    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        values = _check_run("mu", self.values, _check_interval, 0.0, 1.0, "()")
        values = tuple(values) if isinstance(values, list) else (values,)
        object.__setattr__(self, "values", values)
        if self.kind == "constant" and len(values) != 1:
            raise DomainError("constant modulus set must hold exactly one value")

    @staticmethod
    def constant(mu: float) -> "ModulusSet":
        return ModulusSet(kind="constant", values=(mu,))

    @staticmethod
    def explicit(values) -> "ModulusSet":
        return ModulusSet(kind="explicit-list", values=values)

    @staticmethod
    def grid(lo: float, hi: float, n: int) -> "ModulusSet":
        n = _check_int("n", n, 2)
        lo = _check_interval("lo", lo, 0.0, 1.0, "()")
        hi = _check_interval("hi", hi, lo, 1.0, "()")
        return ModulusSet(kind="interval-grid", values=np.linspace(lo, hi, n))


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
    # the tail only adds to lhs, so a clearly negative margin fails whatever it is
    if margin < -_SLACK:
        return "FAIL", margin
    return "INCONCLUSIVE", margin


def _report(
    criterion: str,
    lhs: float,
    rhs: float,
    tail: float = 0.0,
    K: int = 0,
    notes=(),
    inconclusive: str = "",
) -> CertificateReport:
    """The one report builder: verdict and margin from :func:`_verdict`,
    caveats the ``notes`` joined by "; ", then ``inconclusive`` if the
    verdict is INCONCLUSIVE."""
    verdict, margin = _verdict(lhs, rhs, tail)
    if verdict == "INCONCLUSIVE" and inconclusive:
        notes = [*notes, inconclusive]
    return CertificateReport(
        criterion=criterion,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        truncation_K=K,
        tail_bound=tail,
        verdict=verdict,
        caveats="; ".join(notes),
    )


def certify_firstcond(p: float, ms: ModulusSet) -> CertificateReport:
    """sup K_p(mu) over the set against the threshold 8/(pi^2 - 8).

    K_p is strictly increasing in mu, so the sup is K_p at the largest
    modulus, one quadrature for any set; for interval grids that is also
    the sup over the sampled interval.  No truncation is involved, so the
    tail bound is zero.
    """
    lhs = kp(p, max(ms.values))
    inconclusive = "margin within numeric slack of zero"
    return _report("firstcond", lhs, FIRSTCOND_RHS, inconclusive=inconclusive)


def certify_invertibility(p: float, ms: ModulusSet, K: int = 21) -> CertificateReport:
    """Coefficient test: sum of sup|tau_k| over odd 3..K + tail < inf tau_1.

    The tail bound covers all odd indices above K using sup K_p over the
    set, which is K_p at the largest modulus.  For interval grids the sup
    of tau_k between nodes is not controlled (tau_k need not be monotone
    in mu), and the report says so.

    An INCONCLUSIVE report with margin above the slack names the least K
    that could pass: lhs only grows with K and the tail bound falls like
    1/K, so a PASS at K' needs K' > K tail / (margin - slack), which is
    2 sqrt(2) K_p(sup) / (pi^2 (margin - slack)).
    """
    K = _check_int("K", K, 5, odd=True)
    # one row per modulus, one column per odd k = 1, 3, ..., K, from one
    # tau_k call
    taus = tau_k(p, ms.values, np.arange(1, K + 1, 2))
    rhs = float(taus[:, 0].min())
    lhs = math.fsum(np.abs(taus[:, 1:]).max(axis=0))
    tail = tau_tail_bound(p, kp(p, max(ms.values)), K + 2)
    notes = []
    if ms.kind == "interval-grid":
        notes.append("sup over grid points only; not a rigorous sup between nodes")
    inconclusive = "tail bound straddles the margin; increase K to shrink it"
    excess = rhs - lhs - _SLACK
    if excess > 0.0:
        least = math.floor(K * tail / excess) + 1
        least += 1 - least % 2
        inconclusive += f", to at least K = {least}"
    return _report("invertibility", lhs, rhs, tail, K, notes, inconclusive)


def certify_p2_sharp(ms: ModulusSet) -> CertificateReport:
    """p = 2 sharp test: sup mu against mu0.

    Also reports the diagnostic S(q) = sum_j rho_j(q) at the nome of the
    sup as a caveat.  S increases in q and S(q0) = 1 at the nome q0 of
    mu0, while a PASS needs sup mu < mu0 - 1e-9, so q < 0.64867 and S
    is below 0.7601: the diagnostic never contradicts a PASS.
    """
    lhs = max(ms.values)
    rhs = mu0()
    q_sup = nome_from_modulus(lhs)
    s_diag = (1.0 - q_sup) * odd_lambert_sum(q_sup)
    notes = [f"S(q)={s_diag:.17g} at q={q_sup:.17g}"]
    return _report("p2-sharp", lhs, rhs, notes=notes)


def region_scan(p_points, mu_points) -> list:
    """Tabulate K_p over a (1/p, mu) grid against the firstcond threshold.

    ``p_points`` holds values of 1/p in (0, 1); ``mu_points`` holds
    moduli in (0, 0.999], the cap reflecting reduced accuracy claims
    near mu = 1.  Returns rows (one_over_p, mu, kp, inside) sorted by
    (one_over_p, mu), with inside = 1 when K_p(mu) < 8/(pi^2 - 8).

    The sorted grid points go in chunks of at most 64 through one batched
    K_p call each, whose values equal scalar :func:`kp` bit for bit.
    """
    ps = _check_run("1/p", p_points, _check_interval, 0.0, 1.0, "()")
    mus = _check_run("mu", mu_points, _check_interval, 0.0, 0.999, "(]")
    ps = sorted(ps) if isinstance(ps, list) else [ps]
    mus = sorted(mus) if isinstance(mus, list) else [mus]
    # one division 1/op per op, not one per grid point
    keys = [(op, p, mu) for op in ps for p in [1.0 / op] for mu in mus]
    rows = []
    for i in range(0, len(keys), _CHUNK):
        ops, p, mu = zip(*keys[i : i + _CHUNK])
        vals = _kp_rows(p, mu)[0].tolist()
        rows += zip(ops, mu, vals, [int(val < FIRSTCOND_RHS) for val in vals])
    return rows


def region_csv(rows) -> str:
    """Render region_scan rows as CSV with the canonical header."""
    lines = ["one_over_p,mu,kp,inside"]
    for op, mu, val, inside in rows:
        lines.append(f"{op:.17g},{mu:.17g},{val:.17g},{inside:d}")
    return "\n".join(lines) + "\n"


def firstcond_boundary(p: float) -> float:
    """The modulus at which K_p crosses the firstcond threshold.

    Root of K_p(mu) = 8/(pi^2 - 8) on [1e-6, 0.999], solved in
    t = log(1 - mu^p), in which K_p = pi / (p sin(pi/p)) 2F1(1/p, 1/p; 1;
    mu^p) is close to linear both for small mu^p and near its logarithmic
    singularity at mu^p = 1.  Newton's method runs on the hypergeometric
    sum, one ``elliptic._KpSeries`` built for the call (K_p and dK_p/dt
    from one pass, its t-free terms formed once and reused by every step),
    from the root of its leading terms, each iterate clamped to the scan
    range, until a step is at most 1e-9 in t (3.6 sums a call on average
    over [1.3, 2.02]).
    One scalar :func:`kp` at that root t_s, the quadrature that
    ``region_scan`` flags against, then gives t_s - (kp(p, mu_s) -
    threshold) / (dK/dt); the sum agrees with the quadrature to about
    1e-15, so that step lands on the quadrature's crossing.  An iterate
    that stays clamped at an end of the range is decided by :func:`kp` at
    that end, 1e-6 or 0.999 exactly.  A crossing exists for p in
    [1.2497941463776217, 2.023976105481417]; K_p rises in mu and falls in p.

    Raises
    ------
    DomainError
        If p is not a finite number above 1, checked before any K_p work.
    NoSignChange
        If K_p has no crossing in the scan range: it is already above the
        threshold at 1e-6 (p below about 1.2498) or still below it at
        0.999 (p above about 2.0240).  Where K_p(0) = pi / (p sin(pi/p)) is
        at the threshold or 0.999^p rounds to 0, at once.
    MaxIterations
        If Newton's step on the sum is not below 1e-9 after 50 steps.
    """
    p = _check_interval("p", p, 1.0, math.inf, "()")
    rhs = FIRSTCOND_RHS
    top = 0.999**p
    series = _KpSeries(p)
    k0 = series.pref
    if k0 >= rhs or top == 0.0:
        raise NoSignChange(
            f"K_{p}(mu) - 8/(pi^2 - 8) has no sign change on [1e-6, 0.999]: "
            f"K_p(0) = {k0}, 0.999^p = {top}"
        )
    # the scan range in t, from mu = 0.999 up to mu = 1e-6
    lo, hi = math.log1p(-top), math.log1p(-(1e-6**p))
    t = min(max(series.start(rhs), lo), hi)
    for _ in range(_BOUNDARY_ITER):
        k, dk = series(t)
        # a step out of the range stops at its end, where kp decides
        nxt = min(max(t - (k - rhs) / dk, lo), hi)
        t, step = nxt, abs(nxt - t)
        if step <= _NEWTON_STEP:
            break
    else:
        raise MaxIterations(
            f"firstcond_boundary({p}): Newton step on the sum still above "
            f"{_NEWTON_STEP:g} after {_BOUNDARY_ITER} steps"
        )
    mu = 0.999 if t == lo else 1e-6 if t == hi else (-math.expm1(t)) ** (1.0 / p)
    f = kp(p, mu) - rhs
    if f == 0.0:
        return mu
    if t == lo and f < 0.0 or t == hi and f > 0.0:
        raise NoSignChange(
            f"K_{p}(mu) - 8/(pi^2 - 8) is {f} at mu = {mu}, the end of the scan "
            "range on the crossing's side"
        )
    t = min(max(t - f / dk, lo), hi)
    return min(max((-math.expm1(t)) ** (1.0 / p), 1e-6), 0.999)
