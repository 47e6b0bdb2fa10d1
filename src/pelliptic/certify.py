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
from one batched K_p call over 7 moduli around a root predicted from 9
anchor roots stored once a process, and then the root of the inverse
interpolant through the seven known points nearest the threshold,
refined by a scalar K_p now and then.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _kp_rows, kp
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
# firstcond_boundary: moduli of the grid batch, geometric in 1 - mu from
# the scan range's ends 1e-6 to 0.999 (moving nodes below mu = 0.6, or
# spacing them evenly in log(1 - mu^p), lowered the mean count of scalar
# K_p calls by 0.01 at most); the anchors' batch
_BOUNDARY_MUS = 1.0 - np.geomspace(1.0 - 1e-6, 1.0 - 0.999, 16)
_BOUNDARY_MUS[[0, -1]] = 1e-6, 0.999
# firstcond_boundary: 9 values of p evenly spaced over the crossing range
# [1.26, 2.02], at which the root t_b = log(1 - mu_b^p) is stored once a
# process; the cubic through the 4 nearest predicts t_b at any p in that
# span to 7.0e-3 at worst (1,500 seeded p)
_ANCHOR_PS = tuple(np.linspace(1.26, 2.02, 9).tolist())
# firstcond_boundary: the cubic is evaluated at p clipped into this
# interval, which holds the whole crossing range [1.24979, 2.02398]; from
# p = 1e100 on, every a - p of the anchors would round to -p and the
# interpolation would divide by zero
_PREDICT_PS = (1.24, 2.03)
# firstcond_boundary: the spacing in t of the 7 window moduli, and their
# offsets from the predicted root, in decreasing t (increasing mu).  The
# half-width 0.15 is 21 times the predictor's worst error.  Scalar K_p
# calls per root over 200 seeded p in [1.3, 2.02] at spacings 0.02, 0.03,
# 0.05, 0.075 and 0.1: 0, 0.02, 0.15, 0.2 and 0.33; 0.05 keeps a few, so
# perfbench's kp_scan still sees scalar kp miss its cache
_WINDOW_STEP = 0.05
_WINDOW = _WINDOW_STEP * np.arange(3.0, -4.0, -1.0)
# firstcond_boundary: at most this many scalar K_p evaluations; it stops
# once the interpolation error estimate, or the bracket, is at most this
# narrow in mu
_BOUNDARY_ITER = 60
_BOUNDARY_TOL = 1e-12
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
        values = tuple(np.ravel(values).tolist())
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
    rhs = float(np.min(taus[:, 0]))
    lhs = math.fsum(np.max(np.abs(taus[:, 1:]), axis=0))
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
    ps, mus = np.ravel(ps).tolist(), np.ravel(mus).tolist()
    keys = [(op, mu) for op in sorted(ps) for mu in sorted(mus)]
    rows = []
    for i in range(0, len(keys), _CHUNK):
        chunk = keys[i : i + _CHUNK]
        vals = _kp_rows([1.0 / op for op, _ in chunk], [mu for _, mu in chunk])[0]
        for (op, mu), val in zip(chunk, vals.tolist()):
            rows.append((op, mu, val, int(val < FIRSTCOND_RHS)))
    return rows


def region_csv(rows) -> str:
    """Render region_scan rows as CSV with the canonical header."""
    lines = ["one_over_p,mu,kp,inside"]
    for op, mu, val, inside in rows:
        lines.append(f"{op:.17g},{mu:.17g},{val:.17g},{inside:d}")
    return "\n".join(lines) + "\n"


def _inverse_roots(points, n: int) -> list:
    """t at f = 0 on the polynomials in f through the 1, 2, ..., n of
    ``points``, pairs (f, t) with distinct f, nearest f = 0: inverse
    interpolation by Neville's recurrence, which gives all of them in one
    pass."""
    near = sorted(points, key=lambda pt: abs(pt[0]))[:n]
    f = [fi for fi, _ in near]
    t = [ti for _, ti in near]
    roots = [t[0]]
    for j in range(1, len(t)):
        for i in range(len(t) - j):
            t[i] = (f[i + j] * t[i] - f[i] * t[i + 1]) / (f[i + j] - f[i])
        roots.append(t[0])
    return roots


@functools.cache
def _anchor_roots() -> tuple:
    """t_b = log(1 - mu_b^p) at each p of ``_ANCHOR_PS``: the root of the
    inverse interpolant through the 7 of its row of ``_BOUNDARY_MUS``
    nearest the threshold, no scalar K_p; one ``_kp_rows`` call of 9 x 16
    rows, once a process (2.2 ms of CPU in a fresh one)."""
    n = len(_BOUNDARY_MUS)
    ps = [p for p in _ANCHOR_PS for _ in range(n)]
    f = _kp_rows(ps, _BOUNDARY_MUS.tolist() * len(_ANCHOR_PS))[0] - FIRSTCOND_RHS
    roots = []
    for p, row in zip(_ANCHOR_PS, f.reshape(-1, n).tolist()):
        ts = np.log1p(-(_BOUNDARY_MUS**p)).tolist()
        roots.append(_inverse_roots(zip(row, ts), 7)[-1])
    return tuple(roots)


def _window(p: float) -> list:
    """The 7 moduli at t_hat + ``_WINDOW``, t = log(1 - mu^p), t_hat the
    cubic through the 4 anchor roots nearest p, taken at p clipped into
    ``_PREDICT_PS``, shifted if need be so that all 7 lie in the scan
    range [1e-6, 0.999]."""
    q = min(max(p, _PREDICT_PS[0]), _PREDICT_PS[1])
    pts = [(a - q, t) for a, t in zip(_ANCHOR_PS, _anchor_roots())]
    t_hat = _inverse_roots(pts, 4)[-1]
    half = _WINDOW[0]
    t_top, t_bottom = math.log1p(-(0.999**p)), math.log1p(-(1e-6**p))
    centre = min(max(t_hat, t_top + half), t_bottom - half)
    mus = (-np.expm1(centre + _WINDOW)) ** (1.0 / p)
    return np.clip(mus, 1e-6, 0.999).tolist()


def firstcond_boundary(p: float) -> float:
    """The modulus at which K_p crosses the firstcond threshold.

    Root of K_p(mu) = 8/(pi^2 - 8) on [1e-6, 0.999], solved in
    t = log(1 - mu^p): K_p is 2F1(1/p, 1/p; 1; mu^p) times a constant,
    close to linear in t both for small mu^p and near its logarithmic
    singularity at mu^p = 1.  The root t_b is smooth in p: at 9 anchors
    p evenly spaced over [1.26, 2.02] the first call in a process stores
    t_b (one batched K_p call of 9 x 16 rows, each root the 7-point
    inverse interpolation of its row), and at a p in that span the cubic
    through the 4 nearest anchors predicts t_b to 7.0e-3 at worst; at
    other p the cubic is taken at the nearer end of [1.24, 2.03].  One
    batched K_p call evaluates the window of 7 moduli 0.05 apart in t
    around that prediction, shifted if need be to stay in [1e-6, 0.999];
    the window interval where the sign changes is the bracket.  A
    crossing exists for p in [1.2497941463776217, 2.023976105481417], and
    there the window brackets it (seeded sweeps over both slivers outside
    the anchors' span, where the window stands on an end of the scan
    range, included).  K_p rises in mu and falls in p, so at any other p
    no window shows a sign change.  Every K_p known so far,
    batch node or scalar evaluation, is a point (t, K_p - threshold); the
    root estimate is the inverse interpolant through the seven points
    nearest the threshold, and its error estimate the distance, in mu,
    to the root of the inverse interpolant through the nearest six.  The
    loop returns the 7-point root once that estimate is at most 1e-12
    with the root inside the bracket, or once the bracket itself is that
    narrow.  Otherwise it evaluates one scalar :func:`kp` at the root, or
    at the bracket's midpoint in t if the root leaves the bracket, which
    shrinks as the signs come in.  Over 200 values of p in [1.3, 2.02]
    that takes 0.15 scalar calls on average and 1 at most, never one at a
    batch modulus (0.23 over 2,200 seeded p in [1.26, 2.02], 200 of them
    within 0.002 of an end).  At p up to 1.88, whose window ends at mu =
    0.9929, every K_p of a call stops by tanh-sinh level 4; from about
    1.8805 on, the window's top rows need level 5.

    Raises
    ------
    DomainError
        If p is not a finite number above 1, checked before any K_p work.
    NoSignChange
        If the window shows no crossing: K_p is already above the
        threshold at 1e-6 (p below about 1.2498) or still below it at
        0.999 (p above about 2.0240).
    MaxIterations
        If neither stop is met after 60 scalar K_p evaluations.
    """

    p = _check_interval("p", p, 1.0, math.inf, "()")

    def modulus(t):
        # an extrapolated t >= 0 maps to mu = 0, outside every bracket
        return (-math.expm1(min(t, 0.0))) ** (1.0 / p)

    mus = _window(p)
    f = (_kp_rows([p] * len(mus), mus)[0] - FIRSTCOND_RHS).tolist()
    if not f[0] <= 0.0 <= f[-1]:
        raise NoSignChange(
            f"K_{p}(mu) - 8/(pi^2 - 8) is {f[0]} at mu = {mus[0]} and "
            f"{f[-1]} at mu = {mus[-1]}, equal signs"
        )
    k = next(i for i, fi in enumerate(f) if fi >= 0.0)
    if f[k] == 0.0:
        return mus[k]
    ts = np.log1p(-(np.array(mus) ** p)).tolist()
    # the known points as {f: t}: keyed by f, so the interpolation nodes
    # are distinct and no denominator of the recurrence is zero
    known = dict(zip(f, ts))
    # the bracket: K_p is below the threshold at t = a (mu = lo) and above
    # it at t = b (mu = hi)
    a, b, lo, hi = ts[k - 1], ts[k], mus[k - 1], mus[k]
    for _ in range(_BOUNDARY_ITER):
        *_, six, t = _inverse_roots(known.items(), 7)
        mu = modulus(t)
        est = abs(mu - modulus(six))
        if hi - lo <= _BOUNDARY_TOL or (lo <= mu <= hi and est <= _BOUNDARY_TOL):
            return min(max(mu, lo), hi)
        if not lo < mu < hi:
            t = 0.5 * (a + b)
            mu = modulus(t)
        ft = kp(p, mu) - FIRSTCOND_RHS
        if ft == 0.0:
            return mu
        if ft < 0.0:
            a, lo = t, mu
        else:
            b, hi = t, mu
        known[ft] = t
    raise MaxIterations(
        f"firstcond_boundary({p}): bracket still {hi - lo:.3e} wide after "
        f"{_BOUNDARY_ITER} K_p evaluations (tol {_BOUNDARY_TOL:.3e})"
    )
