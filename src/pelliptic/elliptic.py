"""Generalized elliptic sine sn_p and its complete integral K_p.

For p > 1 and modulus mu in [0, 1) the incomplete integral

    w_p(z) = integral_0^z (1 - s**p)**(-1/p) * (1 - mu**p s**p)**(-1/p) ds

is strictly increasing on [0, 1] with w_p(1) = K_p(mu), the complete
integral.  Its inverse on [0, K_p], extended to an odd 4 K_p-periodic
function of y, is sn_p(y, mu).  At p = 2 these reduce to the classical
incomplete/complete elliptic integrals and Jacobi sn with modulus mu (the
modulus k convention, not the parameter m = k**2).

K_p has one route for every p > 1: tanh-sinh quadrature in v, where
1 - s = v**m with m = p / (10 (p - 1)), so the weight v**(-0.9) is the
same at every p and the rest of the integrand is bounded.  One function,
:func:`_kp_rows`, runs that integrand, on a batch of rows at once or on
one (p, mu) as a point with the bits of its batch row; the scalar
:func:`kp_quadrature` is its one-row case.  :func:`kp_via_2f1`, the
hypergeometric series, is an independent cross-check, not a fallback;
:class:`_KpSeries` extends that series to every modulus, with its slope,
for the firstcond boundary's Newton iteration.

Derivatives follow from the chain rule.  With A = 1 - s**p and
B = 1 - mu**p s**p at s = sn_p:

    sn_p'  = +/- (A * B)**(1/p)
    sn_p'' = -/+ s**(p-1) * (A * B)**(2/p - 1) * (B + mu**p * A)

For p > 2 the second derivative diverges at odd multiples of K_p but stays
locally integrable.

Every sn_p entry point, and eigen's residual grids, start from one
checked fold: it validates (p, mu) and y and reduces y modulo the period
to u in [0, K_p], refusing y where doubles are K_p or more apart.  The
singular test |u - K_p| < 1e-6 is made on that same u.  Evaluation then
inverts w_p at u by a bracket-safeguarded Newton iteration vectorized
across all requested points, on the approximant of w_p that each (p, mu)
engine builds once (:class:`_SnpEngine`), so no pass runs a quadrature:
for z <= 0.6 a power series in x = z**p, the z**p-diagonal of
w_p(z) = z F1(1/p; 1/p, 1/p; 1 + 1/p; z**p, mu**p z**p), and above,
w_p(0.6) plus the exact antiderivatives of Chebyshev interpolants of a
bounded tail integrand on graded panels, all positive terms, so w_p keeps
its relative accuracy where K_p is far larger, near p = 1 and mu = 1.  A
start is one searchsorted and one gather in a table of w_p and of dv/dw,
v = (1-z)**(1-1/p), at 96 nodes evenly spaced in v and at the panel
edges, then v cubic Hermite in w inside the bracket.  A point stops once
the Newton step's curvature miss is below 0.05 eps z, or the step is at
most an ulp of z: almost every point stops after one pass, and an array
whose points all do returns that pass's clipped steps as they are.
snp, snp_deriv and snp_second_deriv take y as a float or an array.  One
number goes through that one algorithm as a point, a numpy float, and
an array as arrays.  The point decides with Python ifs what an array
decides with masks: the fold's guards, the endpoints t = 0 and t = K,
the bracket update, the stop test and the bisection fallback.  Every
formula is one expression that both evaluate: the fold arithmetic, the
cubic Hermite start, the Newton step and its miss bound, (A, B), and
w_p's series and tail sums.  So each element of an array call has the
bits of the float call at the same y.  For that the point's powers are
np.power, never ** on a numpy float (libm's pow, which differs from the
array loop in the last bit); its clips compare as np.minimum and
np.maximum do (:func:`_clip`); and a division that can reach 0 stays in
numpy floats.  Numpy's fixed cost per call, not the arithmetic, is most
of a point's time, so an entry sets one np.errstate for all of its own
calls: an inversion for its start and Newton passes, :func:`_kp_rows`
for its driver, :func:`_tail_factor` for :func:`_pow_ratio` (a split w_p
batch sets its own, which its direct callers need).  w_p takes a batch
wholly at z <= 0.6 by the series alone, which keeps it off the tail
build at any p; any other batch is split at z = 0.6.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonConvergence, SingularPoint, SlowConvergence
from .errors import _check_finite, _check_interval, _check_real, _validate_pmu
from .quadrature import QuadratureResult, _tanh_sinh

__all__ = [
    "SnpValue",
    "kp",
    "kp_quadrature",
    "kp_via_2f1",
    "wp",
    "snp",
    "snp_value",
    "snp_deriv",
    "snp_second_deriv",
]

_EPS = float(np.finfo(float).eps)

_KP_TOL = 1e-13
# K_p is integrated in v, 1 - s = v**m with m = _KP_WEIGHT p / (p - 1), so
# its weight is v**(_KP_WEIGHT - 1) at every p.  The exponent -0.9 lies
# inside what the node window resolves (down to about -0.93): the part
# beyond the last node is about 1e-30, where (1-s)**(-1/p) left more than
# the target near p = 1.  m < 1 for p > 10/9 keeps the singular points of
# the tail factor off the principal sheet in v, so rows stop no later
# than in s; m = r (unit weight) puts them at angle pi/r, one more level.
_KP_WEIGHT = 0.1
# margin in the folded variable u around u = K_p, the zeros of sn_p':
# snp_second_deriv raises inside it for p > 2, where sn_p'' diverges, and
# eigen's residual grids drop the points inside it for every p != 2
_SING_MARGIN = 1e-6
# interior nodes of the table each _SnpEngine builds to start its inversion:
# with 96, one Newton pass ends almost every 101-point batch of the
# eigenfunction residuals; with 48, more than half of them take a second
_TAB_NODES = 96
# their v, evenly spaced from 1 down, without the v = 0 end
_TAB_V = np.linspace(1.0, 0.0, _TAB_NODES + 2)[:-1]
_TAB_V.flags.writeable = False
# w_p tail panels: Chebyshev interpolants of degree _CHEB_N - 1, sampled at
# the first-kind points _CHEB_X, descending from x = 1 to x = -1
_CHEB_N = 33
_CHEB_X = np.sin(0.5 * np.pi * np.arange(_CHEB_N - 1, -_CHEB_N, -2) / _CHEB_N)
# Bernstein-ellipse parameters each tail panel keeps clear of the
# singular points of its integrand: the branch points v = 0 and v = 1, and
# the stronger singular points of the tail factor; and the most the
# integrand may grow across one panel
_RHO_BRANCH = 3.0
_RHO_POLE = 4.0
_TAIL_GROWTH = 4.0
# the most of w_p one tail panel's integral may carry, while w_p < 8: a
# point inside a panel gets the integral from the panel's upper edge to
# it to a few eps of itself, so this keeps w_p within about an ulp
_TAIL_SHARE = 0.25
_TAIL_SHARE_UNTIL = 8.0
# the smallest p whose tail build is checked against 30-digit mpmath; below
# it the trailing-coefficient test can pass on a build that is off by more
# than 1e-14 (by 2.9e-14 at p = 1.001, mu = 0.99, z = 0.99), so the build
# refuses instead
_TAIL_P_MIN = 1.05


def _clip(x, lo, hi):
    """x clipped into [lo, hi] as np.minimum(np.maximum(x, lo), hi) clips
    it, for an array by those ufuncs and for a point by Python
    comparisons with their rules: a NaN x stays NaN, and a tie gives the
    bound (which decides the sign of a zero).  lo and hi are never NaN."""
    if isinstance(x, np.ndarray):
        return np.minimum(np.maximum(x, lo), hi)
    x = lo if x <= lo else x
    return hi if x >= hi else x


def _where(cond, a, b):
    """np.where(cond, a, b) for an array cond, and a if cond else b for a
    point's cond."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _antiderivative_map() -> np.ndarray:
    """The fixed map from a panel's samples f(_CHEB_X) to [I, A_1, ..., A_(n-1)].

    The first-kind DCT gives the interpolant f = sum_j c_j T_j(x), with
    each angle k (2j+1) pi / (2n) reduced modulo 2 pi in integers.  Its
    antiderivative F = sum_k C_k T_k has C_1 = c_0 - c_2 / 2 and
    C_k = (c_(k-1) - c_(k+1)) / (2k) (Trefethen, Approximation Theory and
    Approximation Practice, ch. 19); the degree-n term c_(n-1) / (2n) is
    dropped.  With x = cos(2 phi),

        integral_x^1 f = sum_k C_k (1 - T_k(x)) = sum_k A_k sin(k phi)**2,

    A_k = 2 C_k, and I = sum over odd k of A_k is the integral over [-1, 1].
    Each row of the map is a difference of two DCT rows, so its bits do not
    depend on a BLAS kernel.
    """
    n = _CHEB_N
    dct = (2.0 / n) * np.cos(
        0.5 * np.pi / n * (np.outer(np.arange(n), np.arange(1, 2 * n, 2)) % (4 * n))
    )
    dct[0] *= 0.5
    # row k of the map is (c_(k-1) - c_(k+1)) / k, with c_0 counted twice
    # for k = 1 and c_n = 0; row 0 sums the odd rows
    rows = np.empty((n, n))
    rows[1:] = dct[:-1]
    rows[1] *= 2.0
    rows[1:-1] -= dct[2:]
    rows[1:] /= np.arange(1, n)[:, None]
    rows[0] = rows[1::2].sum(axis=0)
    return rows


_ANTIDERIV = _antiderivative_map()


def _pow_ratio(e: np.ndarray, p) -> np.ndarray:
    """(1 - s**p) / (1 - s) for s = 1 - e, stable for all e in [0, 1].

    ``p`` is a float or a column of exponents, one per row of ``e``.  The
    direct quotient collapses to 0/0 as e underflows; below
    min(1e-6, 1e-5 / p) a three-term expansion around s = 1 carries full
    double precision, since its first dropped term is about
    (p e)**3 / 24 of the value.  Both branches are evaluated on every
    element, so the value at one e never depends on the other elements or
    rows; the 0/0 at e = 0, and the expansion's overflow where it is not
    used, at large p e, are ignored in the caller's np.errstate.  Each
    branch is formed in place, in the order of its expression.
    """
    neg = -e
    big = np.log1p(neg)
    big *= p
    np.expm1(big, out=big)
    big /= neg
    small = np.multiply(e, p - 2.0)
    small /= 6.0
    small -= 0.5
    small *= np.multiply(e, p - 1.0)
    small += 1.0
    small *= p
    cut = min(1e-6, 1e-5 / p) if isinstance(p, float) else np.minimum(1e-6, 1e-5 / p)
    np.copyto(big, small, where=e < cut)
    return big


def _eps_mup(p: float, mu: float) -> tuple[float, float]:
    """(1 - mu**p, mu**p), the first without cancellation as mu -> 1.

    Scalar ``math`` on purpose: batched rows build their columns from these
    same floats, so a row matches the scalar integrand to the last bit.
    """
    eps = 1.0 if mu == 0.0 else -math.expm1(p * math.log(mu))
    return eps, mu**p


def _tail_factor(e: np.ndarray, p, eps, mup) -> np.ndarray:
    """w_p'(s) / (1-s)**(-1/p) at s = 1 - e, accurate for all e in [0, 1].

    The second factor is expanded as 1 - mu**p s**p = eps + mu**p (1 - s**p)
    with ``eps, mup`` = :func:`_eps_mup` (p, mu), so the boundary layer
    that forms as mu approaches 1 is evaluated from the exact endpoint
    distance.  ``p``, ``eps`` and ``mup`` are floats.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = _pow_ratio(e, p)
    return (ratio * (eps + mup * ratio * e)) ** (-1.0 / p)


def _kp_rows(p, mu):
    """The driver's (value, abs_error_estimate, nodes_used) for K_p at the
    pair (p, mu), or at each pair (p[i], mu[i]): the integral over [0, 1]
    of m v**(_KP_WEIGHT - 1) T(v**m), T the :func:`_tail_factor`, at
    ``_KP_TOL`` as one driver call.  Each value equals :func:`kp` bit for
    bit.

    p and mu are floats, or sequences of floats, that their callers checked.
    Floats run one integrand on 1-D node arrays, which takes the driver's
    point path and gives numpy floats; sequences run one row per pair and give
    arrays.  v**m and the ratio (1 - s**p) / (1 - s) depend on p alone, so
    F forms them once per level for the call's distinct p's, on the nodes
    the driver hands it, and rows that share p share them; only
    ``(ratio (eps + mup ratio e))**(-1/p)`` runs per row.  One p passes
    as a float, several as a column whose rows each row gathers; the power
    is np.power at every m and p, never a scalar shortcut (sqrt, copy or
    square at m = 0.5, 1 or 2), so a row has the same bits alone, as a
    point, or in any batch.  The whole driver runs in one np.errstate.
    """
    # each row's eps, mup, -1/p and m from Python floats, as columns for a batch
    point = isinstance(p, float)
    if point:
        ps, cols = (p,), (*_eps_mup(p, mu), -1.0 / p, p / (p - 1.0) * _KP_WEIGHT)
    else:
        where = {a: i for i, a in enumerate(dict.fromkeys(p))}
        ps, k = tuple(where), np.array([where[a] for a in p])
        eps, mup = zip(*map(_eps_mup, p, mu))
        power, m = [-1.0 / a for a in p], [a / (a - 1.0) * _KP_WEIGHT for a in p]
        cols = tuple(np.array([eps, mup, power, m])[:, :, None])
    # the distinct p's, as a float or a column, and their exponents m
    many = len(ps) > 1
    p_distinct = np.array(ps)[:, None] if many else ps[0]
    m_distinct = p_distinct / (p_distinct - 1.0) * _KP_WEIGHT

    # m T(e) with T the _tail_factor, e = x**m, as
    # m (ratio (eps + mup ratio e))**power formed in place; a point's
    # cols are floats, a batch's are columns cut to the live rows
    def F(lev, x, cx, rows):
        e = np.power(x, m_distinct)
        ratio = _pow_ratio(e, p_distinct)
        c = cols if point else [a[rows] for a in cols]
        if many:
            j = k[rows]
            e, ratio = e[j], ratio[j]
        eps, mup, power, m = c
        out = mup * ratio
        out *= e
        out += eps
        out *= ratio
        np.power(out, power, out=out)
        out *= m
        return out

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _tanh_sinh(F, _KP_WEIGHT, _KP_TOL)


def kp_quadrature(p: float, mu: float) -> QuadratureResult:
    """The K_p integral with the engine's own error assessment attached.

    The one-row case of :func:`_kp_rows` on the checked (p, mu), at the
    target 1e-13 (relative, since K_p > 1), run as a point on the
    driver's point path.  Row 0 of ``_kp_rows([p], [mu])`` has the same
    value, estimate and node count to the last bit.  The smooth
    factor is :func:`_tail_factor` of the endpoint distance 1 - s = v**m,
    formed from v and never by subtraction, so the integral stays accurate
    even for 1 - mu of order 1e-15.
    """
    p, mu = _validate_pmu(p, mu)
    value, err, nodes = _kp_rows(p, mu)
    return QuadratureResult(
        value=float(value), abs_error_estimate=float(err), nodes_used=nodes
    )


def _direct_series(p: float, mup: float) -> np.ndarray:
    """c_N / (p N + 1) for w_p(z) = z * sum_N c_N x**N / (p N + 1), x = z**p.

    c_N is the Cauchy product of the binomial series (1/p)_n / n! of
    (1 - x)**(-1/p) and (1/p)_n mup**n / n! of (1 - mup x)**(-1/p).  Since
    c_N <= N + 1, a term is at most (0.6**p)**N on z <= 0.6; the series
    stops at the last term above 1e-18 of the first there.
    """
    x0 = 0.6**p
    # log(0.6**p) would be log(0) once 0.6**p underflows, near p = 1460
    n = math.ceil(math.log(1e-18) / (p * math.log(0.6))) + 1
    k = np.arange(n)
    poch = np.concatenate(([1.0], ((1.0 / p + k[1:] - 1.0) / k[1:]).cumprod()))
    c = np.convolve(poch, poch * mup**k)[:n] / (p * k + 1.0)
    keep = c * x0**k >= 1e-18 * c[0]
    return c[: keep.nonzero()[0][-1] + 1]


# below this x = z**p the series sum rounds away, and w_p = z exactly: c_0
# is 1.0 and c_N <= (N + 1) / (p N + 1) < 1 for N >= 1, so the terms after
# c_0 add up to less than x / (1 - x) < 2**-59, which 1.0 + rounds to 1.0.
# The sum rounds away up to x = 2**-56; the margin keeps the rounding of x
# itself from mattering
_SERIES_ROUNDS_AWAY = 2.0**-60


def _series_powers(z, p: float, n: int) -> np.ndarray:
    """x**N for N = 1..n with x = z**p, on the last axis, one row per point
    of z (a float or an array), each row one running product of x."""
    powers = np.empty(np.shape(z) + (n,))
    # powers.T has the points on its last axis, so x, one value per point,
    # fills each point's row, and a point's x its one row
    powers.T[...] = np.power(z, p)
    return powers.cumprod(axis=-1, out=powers)


def _series_sum(z, powers: np.ndarray, c: np.ndarray):
    """w_p(z) = z * sum_N c_N x**N, x = z**p, from the coefficients c of
    :func:`_direct_series` and the powers x**N, N >= 1, of
    :func:`_series_powers`, which may hold more columns than c uses: the
    one series sum of w_p, for a point or for each row."""
    return z * (c[0] + np.add.reduce(powers[..., : c.size - 1] * c[1:], axis=-1))


def _tail_edges(p: float, mu: float) -> np.ndarray:
    """Edges of the w_p tail panels in v = e**(1/r), ascending from 0 to
    0.4**(1/r), with e = 1 - z and r = p / (p - 1).

    The integrand g(v) = r T(v**r) has branch points at v = 0 and v = 1,
    and the singular points of the tail factor T: e = -(1-mu)/mu, which
    lies at v = ((1-mu)/mu)**(1/r) exp(+-i pi/r), and for p > 2 the zeros
    1 - exp(+-2 pi i/p) of 1 - (1-e)**p.  From the top edge b down, each
    panel [a, b] is as long as keeps its Bernstein ellipse clear of them:
    a point s with |s - a| + |s - b| = kappa (b - a), kappa = (rho +
    1/rho) / 2, bounds the length by 2 (kappa |b - s| - (b - Re s)) /
    (kappa**2 - 1), which is 3/4 b for s = 0 at rho = 3 (Trefethen,
    Approximation Theory and Approximation Practice, ch. 8).  Near
    ((1-mu)/mu)**(1/r) that grades the panels by the angle pi/r.  Above it
    g falls like v**(-1/(p-1)), so a panel also keeps the growth of
    (e + (1-mu)/mu)**(-1/p), the size of T, within _TAIL_GROWTH.  While
    w_p is below _TAIL_SHARE_UNTIL, a panel's integral, estimated as its
    length times g at its upper edge, is at most _TAIL_SHARE of w_p there
    (estimated from w_p(0.6) >= 0.6 the same way); above it, where w_p
    grows by orders of magnitude in the boundary layer as mu -> 1, this
    would cost a panel per 25% of growth.  The last panel reaches v = 0
    once e < 1e-17 min(d, 1), d the distance from e = 0 to the nearest
    singular point of T, where g is constant to rounding.
    """
    r, q = p / (p - 1.0), (p - 1.0) / p
    branch = 0.5 * (_RHO_BRANCH + 1.0 / _RHO_BRANCH)
    kappa = 0.5 * (_RHO_POLE + 1.0 / _RHO_POLE)
    scale = 2.0 / (kappa * kappa - 1.0)
    # (Re s, Im s) of the singular points of T, one of each conjugate pair:
    # e = d_s exp(i theta) lies at v = d_s**(1/r) exp(i theta / r)
    poles = []
    d = 2.0 * math.sin(math.pi / max(p, 2.0))
    if p > 2.0:
        angle = q * (0.5 * math.pi - math.pi / p)
        poles.append((d**q * math.cos(angle), d**q * math.sin(angle)))
    if mu > 0.0:
        dmu = (1.0 - mu) / mu
        d = min(d, dmu)
        poles.append((dmu**q * math.cos(q * math.pi), dmu**q * math.sin(q * math.pi)))
        shrink = _TAIL_GROWTH ** -p
    stop = (1e-17 * min(d, 1.0)) ** q
    eps, mup = _eps_mup(p, mu)
    up, down, expo = branch + 1.0, branch - 1.0, -1.0 / p
    b = 0.4**q
    edges = [b]
    w = 0.6
    # each bound replaces length only when strictly smaller, and the floor
    # replaces a only when strictly larger: min's and max's rule for ties
    # and NaN, without their call
    while True:
        length = 2.0 * b / up
        cap = 2.0 * (1.0 - b) / down
        if cap < length:
            length = cap
        # g(b) = r _tail_factor(b**r) in scalar math: 0.25 us a panel,
        # where a numpy call on one point takes 10 us
        e = b**r
        ratio = -math.expm1(p * math.log1p(-e)) / e
        g = r * (ratio * (eps + mup * ratio * e)) ** expo
        if w < _TAIL_SHARE_UNTIL:
            cap = _TAIL_SHARE * w / g
            if cap < length:
                length = cap
        for x, y in poles:
            cap = scale * (kappa * math.hypot(b - x, y) - b + x)
            if cap < length:
                length = cap
        a = b - length
        if mu > 0.0:
            floor = (e + dmu) * shrink - dmu
            if floor > 0.0:
                floor **= q
                if floor > a:
                    a = floor
        if a <= stop:
            edges.append(0.0)
            return np.array(edges[::-1])
        edges.append(a)
        w += g * (b - a)
        b = a


def kp(p: float, mu: float) -> float:
    """Complete integral K_p(mu) = w_p(1).

    Strictly increasing in mu, with K_p(0) = pi / (p sin(pi/p)) > 1.  The
    value of :func:`kp_quadrature`, whose target 1e-13 is relative since
    K_p > 1: at K_p = 4.9e8 (p = 1.2, mu = 1 - 1e-12) the allowed error is
    about 5e-5, though the value is far closer.  (p, mu) is checked before
    the cache is consulted, which is keyed by the checked floats and
    counted by ``kp.cache_info``.
    """
    return _kp(*_validate_pmu(p, mu))


@functools.lru_cache(maxsize=8192)
def _kp(p: float, mu: float) -> float:
    return kp_quadrature(p, mu).value


kp.cache_info = _kp.cache_info


# zeta(3), zeta(5), ..., zeta(15): where |sigma| < 0.1 and D_0's lgamma
# form cancels, _KpSeries sums D_0 = -4 log 2 - sum over m <= 7 of (2 - 2**(1-2m))
# zeta(2m+1) sigma**(2m) / (2m+1); each is within 8e-15 of 40-digit mpmath
_ZETA_ODD = (1.2020569031595942, 1.03692775514337, 1.008349277381923, 1.0020083928260821,
             1.0004941886041194, 1.0001227133475785, 1.000030588236307)
_D0_COEF = [(2.0 - 2.0 ** (1 - 2 * m)) * z / (2 * m + 1) for m, z in enumerate(_ZETA_ODD, 1)]


class _KpSeries:
    """K_p's hypergeometric sum at one p, called as t -> (K_p, dK_p/dt) at
    the modulus with t = log(1 - mu**p), from one pass over a series.

    K_p = pref 2F1(a, a; 1; x), pref = pi / (p sin(pi/p)), a = 1/p,
    x = mu**p = 1 - y, y = e**t: the Gauss series (:meth:`gauss`) for
    x <= 1/2, and above, Abramowitz and Stegun 15.3.6 in y with sigma =
    1 - 2/p, its halves joined term by term as sum_n -G_n y**n
    expm1(sigma u_n) / sigma, u_n = t + D_n, G_n = Gamma(1+sigma) (a)_n**2
    / (Gamma(a+sigma)**2 (1-sigma)_n n!), D_0 = [lgamma(1-sigma) -
    lgamma(1+sigma) + 2 (lgamma(a+sigma) - lgamma(a))] / sigma and D_n
    adding [2 log1p(sigma/(a+n)) - log1p(sigma/(1+n)) +
    log1p(-sigma/(1+n))] / sigma.  That is removable at sigma = 0, A&S
    15.3.10's log case (the n = 0 term is log(4/k') at p = 2).  Every term
    is positive and at most y times the one before, as D_n rises to 0, so
    the sum stops once a term is below 1e-17 of the total.

    What does not depend on t (G_0, each D_n, the ratios G_(n+1) / (G_n y)
    and the Gauss ratios) is formed on first need, as one lone pass forms
    it, and kept: a value has the same bits whatever t came before.
    """

    def __init__(self, p: float):
        self.p, self.a = p, 1.0 / p
        self.s = 1.0 - 2.0 * self.a
        self.pref = math.pi / (p * math.sin(math.pi / p))
        self._gauss = []  # (q_n, (1+n) q_n), q_n = (a+n)**2 / (n+1)**2
        self._y = []  # (D_n, G_(n+1) / (G_n y))

    def gauss(self, x: float) -> tuple[float, float]:
        """(F, dF/dx) for F = 2F1(a, a; 1; x), 0 <= x < 1: term n + 1 = term
        n q_n x, dF/dx = sum (n+1) q_n term_n, stopped once a term is below
        1e-17 of the total."""
        a, qs = self.a, self._gauss
        term = total = 1.0
        slope = 0.0
        n = 0
        while term >= 1e-17 * total:
            if n == len(qs):
                q = (a + n) * (a + n) / ((1.0 + n) * (1.0 + n))
                qs.append((q, (1.0 + n) * q))
            q, w = qs[n]
            slope += w * term
            term *= q * x
            total += term
            n += 1
        return total, slope

    def _y_grow(self) -> list:
        """The y-series' entries, one more appended; the first sets G_0."""
        a, s, ys = self.a, self.s, self._y
        n = len(ys)
        if n:
            m = n - 1
            d, r = ys[m][0], 1.0 / (1.0 + m)
            if s:
                d += (2.0 * math.log1p(s / (a + m)) - math.log1p(s * r) + math.log1p(-s * r)) / s
            else:
                d += 2.0 / (a + m) - 2.0 * r
        elif abs(s) < 0.1:
            d = -4.0 * math.log(2.0) - sum(c * s ** (2 * m) for m, c in enumerate(_D0_COEF, 1))
        else:
            d = math.lgamma(1.0 - s) - math.lgamma(1.0 + s)
            d = (d + 2.0 * (math.lgamma(a + s) - math.lgamma(a))) / s
        if not n:
            self.g0 = math.gamma(1.0 + s) / math.gamma(a + s) ** 2
        ys.append((d, (a + n) * (a + n) / ((2.0 * a + n) * (1.0 + n))))
        return ys

    def __call__(self, t: float) -> tuple[float, float]:
        pref, y = self.pref, math.exp(t)
        if y >= 0.5:
            f, df = self.gauss(-math.expm1(t))
            return pref * f, -pref * y * df
        s, ys = self.s, self._y or self._y_grow()
        g = self.g0
        total = slope = 0.0
        n = 0
        while True:
            if n == len(ys):
                self._y_grow()
            d, q = ys[n]
            e = math.expm1(s * (t + d))
            term = -g * (e / s if s else t + d)
            total += term
            slope += n * term - g * (1.0 + e)
            if term < 1e-17 * total:
                return pref * total, pref * slope
            g *= q * y
            n += 1

    def start(self, k: float) -> float:
        """A start for Newton on this sum = k: x = (k / pref - 1) p**2,
        where the Gauss series' n <= 1 terms equal k, if x <= 1/2, else the
        y-series' n = 0 term's root (-inf if that term stays below k)."""
        p, pref, s = self.p, self.pref, self.s
        x = (k / pref - 1.0) * p * p
        if x <= 0.5:
            return math.log1p(-x)
        d = (self._y or self._y_grow())[0][0]
        g = self.g0
        # -g expm1(s u) / s = k / pref at u = t + d
        z = -s * k / (pref * g)
        if z <= -1.0:
            return -math.inf
        return (math.log1p(z) / s if s else -k / (pref * g)) - d


def kp_via_2f1(p: float, mu: float) -> float:
    """K_p(mu) through the Gauss hypergeometric representation.

    Sums (B(1/p, 1 - 1/p) / p) * 2F1(1/p, 1/p; 1; mu**p) directly, by the
    Gauss half of :class:`_KpSeries`; the Beta prefactor reduces to
    pi / (p sin(pi/p)) by reflection.  Independent of the quadrature
    route, so the two serve as mutual cross-checks.  The series stops once
    a term drops below 1e-17 of the total; for p > 1 the n-th term is
    below (mu**p)**n, so at mu**p <= 0.9 that takes at most 372 terms.

    Raises
    ------
    SlowConvergence
        If mu**p > 0.9, where the series converges too slowly.
    """
    p, mu = _validate_pmu(p, mu)
    x = mu**p
    if x > 0.9:
        raise SlowConvergence(f"mu**p = {x:.6f} > 0.9; hypergeometric series too slow")
    series = _KpSeries(p)
    return series.pref * series.gauss(x)[0]


@dataclass(frozen=True)
class SnpValue:
    """A single sn_p evaluation: input y, value, and the index of the
    4 K_p period that y fell into during range reduction."""

    y: float
    value: float
    branch_period_index: int


class _Panels(NamedTuple):
    """The w_p tail panels of one (p, mu), built by
    :meth:`_SnpEngine._tail_panels`; per-panel arrays run over the panels
    [a, b] in v from v = 0 up."""

    v: np.ndarray  # the edges in v, from 0 up
    e: np.ndarray  # the edges in e = v**r, the last 0.4 exactly
    inner: np.ndarray  # e[1:-1], whose searchsorted gives each e its panel
    e_top: np.ndarray  # e at b, e[1:]
    scale: np.ndarray  # -b / (b - a)
    coef: np.ndarray  # the antiderivative coefficients, one row per panel
    k: np.ndarray  # their indices 1, 2, ...
    top: np.ndarray  # w_p at b


class _SnpEngine:
    """Vectorized w_p evaluation and inversion for one (p, mu) pair.

    w_p comes from one of two approximants, by where z sits:

    * z <= 0.6: expanding both factors of w_p' in binomial series and
      integrating gives z * sum_N c_N x**N / (p N + 1) with x = z**p, the
      diagonal of the Appell F1 form of w_p.  The coefficients are made at
      construction (:func:`_direct_series`).
    * z > 0.6: with r = p / (p-1), e = 1 - z and v = e**(1/r), substituting
      1 - s = t**r turns w_p' ds into g(t) dt, g(t) = r T(t**r), T the
      tail factor that K_p integrates; g is bounded, as the (1-s)**(-1/p)
      endpoint singularity is gone.  So w_p(z) = w_p(0.6) + the integral of
      g from v to v(0.4) = 0.4**(1/r): the series value plus positive
      terms, with nothing to cancel.  Panels of [0, v(0.4)]
      (:func:`_tail_edges`) each carry the exact antiderivative of the
      Chebyshev interpolant of g at its 33 first-kind points (Trefethen,
      Approximation Theory and Approximation Practice, ch. 19), and their
      integrals, summed from the top, give w_p at every panel edge.  The
      panels are built on the first z > 0.6, not at construction, so w_p
      on the direct branch never needs them.

    Inversion starts from a table of w_p built on the first call
    (:meth:`_brackets`), one row per bracket, and takes Newton passes
    (:meth:`_newton`).

    ``x1`` is the Fourier profile w_p(z) / (2 K_p) over a prefix of the
    tanh-sinh node table, empty until :mod:`.fourier` extends it.  A cached
    engine takes 11-17 kB, and a filled profile 3-50 kB more.
    """

    __slots__ = ("p", "mu", "K", "x1", "_series", "_panels", "_table")

    def __init__(self, p: float, mu: float):
        self.p = p
        self.mu = mu
        self.K = _kp(p, mu)
        self.x1 = np.empty(0)
        self._series = _direct_series(p, mu**p)
        self._panels = None
        self._table = None

    # -- integrand pieces -------------------------------------------------

    def _AB(self, s):
        """(A, B) = (1 - s**p, 1 - mu**p s**p) at a point or an array of s,
        both formed from log(s) so they stay accurate when s**p or
        mu**p s**p is near 1; B is 1.0 at mu = 0.  An array's are the rows
        of one (2, n) pass, -expm1(p (log mu + log s)) with log mu = 0.0 in
        row 0, which changes no bit.  At s = 0 log(s) divides by zero:
        callers ignore that in np.errstate."""
        p, mu = self.p, self.mu
        log_s = np.log(s)
        if mu == 0.0:
            return -np.expm1(p * log_s), 1.0
        if isinstance(s, np.ndarray):
            AB = np.add.outer((0.0, math.log(mu)), log_s)
            AB *= p
            np.expm1(AB, out=AB)
            return np.negative(AB, out=AB)
        return -np.expm1(p * log_s), -np.expm1(p * (math.log(mu) + log_s))

    def wp_many(self, z):
        """w_p at a point z (a float) or at each z of an array, in [0, 1],
        from the engine's approximant: the series up to z = 0.6, the tail
        panels above.  z = 1 divides by zero in a log of the tail: an array
        ignores that in its own np.errstate, a point in its caller's, as
        for :meth:`_AB`."""
        if isinstance(z, float):
            return self._direct(z) if z <= 0.6 else self._tail(1.0 - z)
        z = np.asarray(z, dtype=float)
        lo = z <= 0.6
        # an all-series batch stays off the tail build, which refuses p
        # below _TAIL_P_MIN; count_nonzero, not the all method: a Newton
        # pass makes this call, and the method's wrapper costs more than
        # the test
        if np.count_nonzero(lo) == z.size:
            return self._direct(z)
        hi = ~lo
        with np.errstate(divide="ignore"):
            out = np.empty_like(z)
            out[lo] = self._direct(z[lo])
            out[hi] = self._tail(1.0 - z[hi])
        return out

    def _direct(self, z):
        """w_p on the series side, at a point or an array of z."""
        c = self._series
        return _series_sum(z, _series_powers(z, self.p, c.size - 1), c)

    def _tail(self, e):
        """w_p at e = 1 - z in [0, 0.4]: w_p at the upper edge b of e's panel
        [a, b] in v plus the integral from v to b, summed per point as
        sum_k A_k sin(k phi)**2 with sin(phi)**2 = (b - v) / (b - a), which
        vanishes at v = b term by term.  b - v = -b expm1(log(e / e_b) / r)
        is formed from e, so the rounding of v = e**(1/r), which r would
        magnify, never enters.  The panel of each e is one searchsorted on
        the interior edges; its e_b, -b / (b - a), coefficients and w_p at b
        are gathers from :meth:`_tail_panels`.  At e = 0 the log divides by
        zero: callers ignore that in np.errstate."""
        panels = self._tail_panels()
        # the searchsorted and take methods and np.add.reduce, not wrappers or
        # a fancy index of rows: once per Newton pass, those cost more than the work
        i = panels.inner.searchsorted(e, side="right")
        u = np.expm1((self.p - 1.0) / self.p * np.log(e / panels.e_top[i]))
        u *= panels.scale[i]
        phi = np.arcsin(np.sqrt(_clip(u, 0.0, 1.0)))
        terms = np.sin(np.multiply.outer(phi, panels.k))
        terms *= terms
        terms *= panels.coef[i] if isinstance(e, float) else panels.coef.take(i, axis=0)
        return panels.top[i] + np.add.reduce(terms, axis=-1)

    def _tail_panels(self) -> _Panels:
        """The tail panels as :class:`_Panels`: their edges in v and in
        e = v**r (the last set to 0.4 exactly), and per panel [a, b] in v
        the antiderivative coefficients A_1, A_2, ... of
        :func:`_antiderivative_map`, chopped below 2 eps times the panel's
        integral, e and w_p at b, and -b / (b - a).

        Raises NonConvergence for p below _TAIL_P_MIN, and if a panel's
        interpolant does not resolve g, that is if its last coefficients
        are not all chopped.
        """
        if self._panels is None:
            p, mu = self.p, self.mu
            if p < _TAIL_P_MIN:
                raise NonConvergence(
                    f"w_p tail panels are verified for p >= {_TAIL_P_MIN} only, got p={p}"
                )
            r = p / (p - 1.0)
            v = _tail_edges(p, mu)
            d = v[1:] - v[:-1]
            half = 0.5 * d
            t = (0.5 * (v[1:] + v[:-1]))[:, None] + half[:, None] * _CHEB_X
            g = r * _tail_factor(t**r, p, *_eps_mup(p, mu))
            coef = np.einsum("pj,kj->pk", g, _ANTIDERIV) * half[:, None]
            integral = coef[:, 0]
            coef = coef[:, 1:]
            coef[np.abs(coef) < 2.0 * _EPS * integral[:, None]] = 0.0
            # the last two coefficients of every panel must chop to 0
            if np.count_nonzero(coef[:, -2:]):
                raise NonConvergence(
                    f"w_p tail panels do not resolve the integrand for p={p}, mu={mu}"
                )
            # n: through the last column that any panel keeps
            kept = coef.any(axis=0)
            n = kept.size - int(kept[::-1].argmax())
            # w_p at the upper panel edges, summed from w_p(0.6) down
            top = np.concatenate(((self._direct(0.6),), integral[:0:-1])).cumsum()[::-1]
            e = v**r
            e[-1] = 0.4
            scale = -v[1:] / d
            k = np.arange(1, n + 1)
            self._panels = _Panels(v, e, e[1:-1], e[1:], scale, coef[:, :n], k, top)
        return self._panels

    # -- inversion ---------------------------------------------------------

    def _brackets(self):
        """(nodes, rows): the table every inversion starts from.

        _TAB_NODES nodes are evenly spaced in the tail variable
        v = (1-z)**(1-1/p), in which K - w_p is nearly linear, and take w_p
        from one wp_many call.  Every tail panel edge is a node too, whose
        w_p the panel build already holds; the panels are graded in e around
        the distance of the tail factor's singular point, so the boundary
        layer that forms at z = 1 as mu -> 1 is bracketed as finely as it is
        fitted.  Each node also holds the slope dv/dw = -1 / g(v), g the
        bounded tail integrand, so that a start can interpolate v in w by
        cubic Hermite.  Built on the first inversion, not at construction,
        so w_p alone never needs it.

        ``nodes`` are the w_j, sorted by v; ``rows`` holds one column per
        bracket [w_j, w_j+1]: (w_j, h = w_j+1 - w_j, v_j, v_j+1 - v_j, the
        slopes at both nodes, z_j, z_j+1), so a start gathers one column.
        Column i serves the t with i nodes at or below it, bracket i - 1
        held to the first and last, which are repeated, so searchsorted on
        ``nodes`` indexes ``rows`` with no clamp.  Even-v nodes whose z
        rounds to 1 are left out.  It searches every node, not the interior
        ones: nodes whose z rounds to one double just below 1 can still
        hold w slightly out of order, since an even-v node takes w_p at that
        double and a panel edge keeps its own w.
        """
        if self._table is None:
            p = self.p
            r = p / (p - 1.0)
            v = _TAB_V
            e = v**r
            # a node whose z rounds to 1 repeats the v = 0 node's w = K
            keep = 1.0 - e < 1.0
            v, e = v[keep], e[keep]
            panels = self._tail_panels()
            w = np.concatenate((self.wp_many(1.0 - e), [self.K], panels.top))
            v = np.concatenate((v, panels.v))
            e = np.concatenate((e, panels.e))
            slope = -1.0 / (r * _tail_factor(e, p, *_eps_mup(p, self.mu)))
            # (w, v, slope, z) of the nodes in the order by v; column i of rows
            # holds bracket j = min(max(i - 1, 0), size - 2): w_j, w_j+1, v_j,
            # v_j+1, the two slopes, z_j and z_j+1, the 2nd and 4th as differences
            nodes = np.array((w, v, slope, 1.0 - e)).take(v.argsort()[::-1], axis=1)
            rows = np.empty((4, 2, w.size + 1))
            rows[:, 0, 1:-1], rows[:, 1, 1:-1] = nodes[:, :-1], nodes[:, 1:]
            rows[:, :, 0], rows[:, :, -1] = rows[:, :, 1], rows[:, :, -2]
            rows = rows.reshape(8, -1)
            rows[1:4:2] -= rows[0:4:2]
            self._table = (nodes[0].copy(), rows)
        return self._table

    def invert(self, t):
        """Solve w_p(z) = t for a point t (a float) or for each t of an
        array, in [0, K].

        t = 0 and t = K are exact fixed points, z = 0 and z = 1.  Every
        other t starts inside its bracket [z_j, z_j+1] of the engine's
        table, from v = (1-z)**(1-1/p) interpolated in w by the cubic
        Hermite polynomial through the bracket's two nodes and their
        slopes: one searchsorted on the table's nodes and one gather of the
        bracket's column (:meth:`_brackets`).  It then takes the Newton
        passes of :meth:`_newton`.  A point decides the endpoints by an if
        and skips the start there; an array starts every t and masks the
        endpoints.
        """
        point = isinstance(t, float)
        if point and (t <= 0.0 or t >= self.K):
            return 0.0 if t <= 0.0 else 1.0
        if not point:
            t = np.asarray(t, dtype=float)
        nodes, rows = self._brackets()
        w0, h, v0, dv, m0, m1, z_lo, z_hi = rows.take(nodes.searchsorted(t, side="right"), axis=1)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = _clip((t - w0) / h, 0.0, 1.0)
            c = 1.0 - s
            v = v0 + s * s * (3.0 - 2.0 * s) * dv + h * s * c * (c * m0 - s * m1)
            z = 1.0 - np.power(v, self.p / (self.p - 1.0))
            # for p near 1 the last nodes round to z = 1, so an edge t of an
            # array can land in an empty interval; its start is overwritten
            # below.  In a bracket whose rise in v is below the rounding of
            # its slope terms, next to v = 0, the cubic can dip below 0;
            # np.fmax, not np.maximum, turns the NaN of that power into the
            # bracket's end, as the point's z >= z_lo does
            if point:
                z = z if z >= z_lo else z_lo
                return self._newton(z_hi if z >= z_hi else z, t, z_lo, z_hi)
            z = np.minimum(np.fmax(z, z_lo), z_hi)
            low, high = t <= 0.0, t >= self.K
            # endpoints are exact fixed points; skipping them keeps z bitwise 0/1
            z[low] = 0.0
            z[high] = 1.0
            live = (~(low | high)).nonzero()[0]
            if live.size:
                z[live] = self._newton(z[live], t[live], z_lo[live], z_hi[live])
        return z

    def _newton(self, z, t, lo, hi):
        """Newton passes for w_p(z) = t from a start z in its bracket
        [lo, hi]: a point's floats or arrays, under the np.errstate of
        :meth:`invert`.

        Steps use the analytic derivative w_p' = G.  A step misses the root
        by about step**2 G' / (2 G), with G' / G = z**(p-1) (1/A + mu**p / B),
        A = 1 - z**p and B = 1 - mu**p z**p, which grows with z; a point
        stops once that bound, taken at the far end of the step (at most
        the bracket's upper end), is below 0.05 eps z, or once its step is
        at most an ulp of z.  That step is accepted, clipped into the
        bracket, before any safeguard can replace it.  Every pass forms
        (A, B) at the far end min(max(z, z - step), hi); a point with
        w_p(z) >= t has hi = z, so its far end is z itself.  A point whose
        bracket closes to a few ulps also stops on its step, clipped into
        the bracket.  Otherwise a larger step that leaves the bracket or is
        not finite falls back to bisection, so every iterate stays
        admissible.  A point decides each of these by an if; an array
        masks them, and the points that stopped leave the pass: an array
        whose points all stop on the first, the usual case, returns its
        clipped steps, and otherwise later passes write theirs into them.
        """
        p, mup = self.p, self.mu**self.p
        point = isinstance(z, float)
        idx = None
        for _ in range(80):
            f = self.wp_many(z) - t
            below = f < 0.0
            lo = _where(below, z, lo)
            hi = _where(below, hi, z)
            A, B = self._AB(z)
            step = f / np.power(A * B, -1.0 / p)
            z_new = z - step
            # the step misses the root by about step**2 G' / (2 G), and
            # G' / G grows with z, so it is bounded at the far end of the
            # step, inside the bracket; at z = 1, A = 0 and the bound is
            # infinite, so a point there stops only on an ulp-sized step
            # or a closed bracket
            zf = _clip(z_new, z, hi)
            Af, Bf = self._AB(zf)
            miss = 0.5 * step * step * np.power(zf, p - 1.0) * (1.0 / Af + mup / Bf)
            # a bracket closed to a few ulps also stops, on its clipped
            # step: near z = 1 that step can overshoot the last doubles
            if point:
                if (miss <= 0.05 * _EPS * z or abs(step) <= _EPS * z
                        or hi - lo <= 2.0 * _EPS * hi and math.isfinite(z_new)):
                    return _clip(z_new, lo, hi)
                z = z_new if lo < z_new < hi else 0.5 * (lo + hi)
                continue
            done = (miss <= 0.05 * _EPS * z) | (np.abs(step) <= _EPS * z)
            done |= (hi - lo <= 2.0 * _EPS * hi) & np.isfinite(z_new)
            clipped = _clip(z_new, lo, hi)
            if idx is not None:
                out[idx[done]] = clipped[done]
            if np.count_nonzero(done) == done.size:
                return clipped if idx is None else out
            if idx is None:
                out, idx = clipped, np.arange(z.size)
            bad = ~done & (~np.isfinite(z_new) | (z_new <= lo) | (z_new >= hi))
            z_new = np.where(bad, 0.5 * (lo + hi), z_new)
            live = ~done
            idx, z, t, lo, hi = (a[live] for a in (idx, z_new, t, lo, hi))
        raise NonConvergence(
            f"sn_p inversion stalled for p={self.p}, mu={self.mu}"
        )

    # -- periodic reduction and evaluation ---------------------------------

    def reduce(self, y):
        """Fold a point y (a float) or an array of y into the fundamental
        quarter.

        Returns (u, sign, quarter, period) with u in [0, K] such that
        |sn_p(y)| = sn_p(u) and sign = sgn(sn_p(y)); quarter in {0,1,2,3}
        locates y mod 4K for derivative signs, and period = floor(y / 4K),
        as floats, is the index of y's period.  Raises DomainError where
        ulp(y) >= K: neighbouring doubles a quarter period or more apart
        leave y mod 4K undetermined.  Below that the fold's error grows
        like |y| eps.  r = y mod 4K is folded to u, past 2K by 2K and
        then past K about K, with one test r > 2K for both sign and u, and
        the quarter truncated, as r >= 0.  A point decides each step by an
        if (:func:`_where`), giving floats and an int quarter; an array
        masks.
        """
        K = self.K
        point = isinstance(y, float)
        # ulp grows with |y|, so the largest |y| decides for the whole array
        ymax = abs(y) if point else float(np.abs(y).max(initial=0.0))
        _check_interval("ulp(max |y|)", math.ulp(ymax), 0.0, K)
        fourk = 4.0 * K
        period = np.floor(y / fourk)
        r = y - period * fourk
        r = _where((r < 0.0) | (r >= fourk), 0.0, r)
        # r >= 0, so truncation is the floor
        quarter = min(int(r / K), 3) if point else np.minimum((r / K).astype(int), 3)
        far = r > 2.0 * K
        # u is r folded past 2K by 2K, then past K about K
        u = _where(far, r - 2.0 * K, r)
        u = _where(u > K, 2.0 * K - u, u)
        # folding r = y mod 4K rounds once, which can leave u one ulp off
        # the quarter point K; snap so endpoint evaluations stay exact
        u = _where(abs(u - K) <= 8.0 * _EPS * K, K, u)
        return u, _where(far, -1.0, 1.0), quarter, period

    def singular(self, u):
        """True where a folded u, a point or an array, lies within
        _SING_MARGIN of K, a zero of sn_p'; the one singular test of the
        sn_p and eigen layers."""
        return abs(u - self.K) < _SING_MARGIN

    def deriv(self, s, quarter):
        """sn_p' from s = |sn_p(y)| and the quarter of y mod 4K: a point's
        float and int, or arrays; an int quarter holds for every s."""
        with np.errstate(divide="ignore"):
            A, B = self._AB(s)
        d = np.power(A * B, 1.0 / self.p)
        return _where((quarter == 0) | (quarter == 3), d, -d)

    def second(self, s, quarter):
        """sn_p'' from s = |sn_p(y)| and the quarter of y mod 4K, as for
        :meth:`deriv`; the chain-rule value below is the one on the rising
        quarter."""
        p = self.p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            A, B = self._AB(s)
            h = (
                -np.power(s, p - 1.0)
                * np.power(A * B, 2.0 / p - 1.0)
                * (B + self.mu**p * A)
            )
        return _where(quarter <= 1, h, -h)


@functools.lru_cache(maxsize=256)
def _engine(p: float, mu: float) -> _SnpEngine:
    return _SnpEngine(p, mu)


def wp(p: float, mu: float, z: float) -> float:
    """Incomplete integral w_p(z) for a single z in [0, 1]."""
    p, mu = _validate_pmu(p, mu)
    z = _check_interval("z", z, 0.0, 1.0, "[]")
    if z == 0.0:
        return 0.0
    eng = _engine(p, mu)
    if z == 1.0:
        return eng.K
    return float(eng.wp_many(z))


def _fold(p: float, mu: float, y):
    """The one checked fold of every sn_p entry point: validate (p, mu),
    take its engine, reject y unless it is real and finite, and reduce it
    into the fundamental quarter, one number as a point (a numpy float)
    and anything else flattened.  Returns (engine, *engine.reduce(y)),
    that is (engine, u, sign, quarter, period)."""
    eng = _engine(*_validate_pmu(p, mu))
    y = _check_finite("y", y)
    return (eng, *eng.reduce(y if isinstance(y, float) else y.ravel()))


def _shaped(y, values):
    """``values``, computed at y's point or on y flattened, as a float or
    in the shape of y."""
    if isinstance(values, np.ndarray):
        return values.reshape(np.shape(y))
    return float(values)


def snp(p: float, mu: float, y):
    """sn_p(y, mu): odd, 4 K_p-periodic, equal to the inverse of w_p on
    [0, K_p].  A float y gives a float, an array of y an array of its
    shape; each element has the bits of the float call at that y.

    y is folded modulo 4 K_p, whose rounding error grows like |y| eps; a y
    with ulp(y) >= K_p, where neighbouring doubles are a quarter period or
    more apart, raises :class:`DomainError`.  Every sn_p entry point folds
    the same way."""
    eng, u, sign, _, _ = _fold(p, mu, y)
    return _shaped(y, sign * eng.invert(u))


def snp_value(p: float, mu: float, y: float) -> SnpValue:
    """sn_p evaluation at a single y bundled with the period index used in
    reduction."""
    y = _check_real("y", y)
    eng, u, sign, _, period = _fold(p, mu, y)
    return SnpValue(
        y=y, value=float(sign * eng.invert(u)), branch_period_index=int(period)
    )


def snp_deriv(p: float, mu: float, y):
    """d/dy sn_p(y, mu) = sgn * ((1 - s**p)(1 - mu**p s**p))**(1/p) with
    s = |sn_p(y)|; vanishes at odd multiples of K_p.  A float or an array
    of y, as for :func:`snp`."""
    eng, u, _, quarter, _ = _fold(p, mu, y)
    return _shaped(y, eng.deriv(eng.invert(u), quarter))


def snp_second_deriv(p: float, mu: float, y):
    """Second derivative of sn_p at y, a float or an array, as for :func:`snp`.

    Negative on (0, 2 K_p) and positive on (2 K_p, 4 K_p) by the odd
    periodic symmetry.  For p > 2 it diverges at odd multiples of K_p;
    if any y lies within 1e-6 of such a point, :class:`SingularPoint` is
    raised.  For p <= 2 it is finite everywhere.
    """
    eng, u, _, quarter, _ = _fold(p, mu, y)
    if eng.p > 2.0 and np.count_nonzero(eng.singular(u)):
        raise SingularPoint(
            f"sn_p'' is singular at odd multiples of K_p for p = {eng.p} "
            f"(y within {_SING_MARGIN} of one)"
        )
    return _shaped(y, eng.second(eng.invert(u), quarter))
