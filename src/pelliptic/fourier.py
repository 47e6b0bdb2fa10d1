"""Sine Fourier coefficients of generalized sine profiles.

tau_k = sqrt(2) * integral_0^1 sn_p(2 K_p(mu) x, mu) sin(k pi x) dx are the
coordinates of the first eigenfunction profile in the orthonormal basis
sqrt(2) sin(k pi x).  The integral is split at x = 1/2 and each half is
mapped to [0, 1], which parks the lone interior derivative singularity of
sn_p (present for p > 2) at an endpoint where the double-exponential
transform absorbs it.  Both halves are computed independently, so the
even-k coefficients vanish only through genuine numerical cancellation of
the two pieces, not by construction.

All of these integrals run through the package's one tanh-sinh routine.
sn_p evaluations are the expensive part and depend only on (p, mu), never
on k, so each profile caches them per refinement level of that routine's
nodes.  A cold profile fills its first six levels, which nearly every
integral here needs, with one sn_p call over all their nodes: a call costs
mostly numpy overhead at a few hundred points.  Any set of indices k is
one call of the routine, one row per k: every row multiplies the same
cached sn_p values by its own sine factors and stops at its own level,
after which the routine no longer evaluates it (every row is evaluated on
the routine's first block, levels 0-4), so a coefficient does not depend
on which other k were asked for with it.

The module also carries the explicit p = 2 expansion: coefficient ratios
rho_j(q) = (1-q) q^j / (1 - q^(2j+1)) and the series
g(x) = (1-q) sum_j q^j/(1-q^(2j+1)) sqrt(2) sin((2j+1) pi x), with a
geometric bound for its truncation tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import kp, snp_many
from .errors import DomainError, _check_int, _check_interval, _validate_pmu
from .quadrature import _BLOCK_LEVEL, _tanh_sinh, _ts_levels

__all__ = [
    "FourierProfile",
    "fourier_profile",
    "tau_k",
    "tau1_margin",
    "tau_tail_bound",
    "rho_coeff",
    "g_eval",
    "g_tail_bound",
]

# Step-2 lower bound for tau_1, 4 sqrt(2) / pi^2
_TAU1_FLOOR = 4.0 * math.sqrt(2.0) / math.pi**2

_TAU_TOL = 1e-11

# Last tanh-sinh level of the first sn_p inversion of a cold profile: the
# driver's first call, its block of levels 0..4, inverts the nodes of
# levels 0.._FILL_LEVEL at once, and each later level gets a call of its
# own.  A call over a few hundred points costs mostly numpy overhead: one
# call per level takes 4.7 ms for levels 0..5, one call over the same 782
# points 1.3 ms (numpy 2.4, one core).  On a 7x7 (p, mu) grid, p from
# 1.1 to 10 and mu from 0 to 0.99999, tau_1..tau_21 stop at level 5,
# tau_1 alone at level 3 or 4, _sn_l2 at level 4 or 5, and
# tau_1..tau_201 at level 7.
_FILL_LEVEL = 5


@dataclass(frozen=True)
class FourierProfile:
    """Coefficients tau_k, k = 1..K_max, for one (p, mu) profile.

    ``tail_bound`` dominates sum of |tau_k| over odd k > K_max.
    """

    p: float
    mu: float
    coefficients: tuple
    K_max: int
    tail_bound: float


@functools.lru_cache(maxsize=64)
def _profile(p: float, mu: float) -> list:
    """Per tanh-sinh level, (sn_p(K u), sn_p(K (1 + u))) at that level's
    nodes u, filled by :func:`_split_integral`: levels 0.._FILL_LEVEL in
    one sn_p call, each later level in a call of its own.  The driver's
    block call reads levels 0.._BLOCK_LEVEL from here, concatenated."""
    return []


def _split_integral(p: float, mu: float, g, tol: float):
    """int_0^1 f(x) dx for an integrand built on s(x) = sn_p(2 K_p x, mu),
    split at x = 1/2 and mapped to u in [0, 1].

    ``g(a, b, u, rows)`` returns f(u/2) + f((1+u)/2) given a = sn_p(K u)
    and b = sn_p(K (1 + u)), with shape (n,) or, for the driver's live
    ``rows`` only, (live rows, n).  a and b are read from the profile
    cache: for the driver's block call, the entries of levels
    0.._BLOCK_LEVEL concatenated in level order, for each later call the
    entry of its level.  The driver visits levels in order, so the levels
    missing from the cache are the ones of this call: they are inverted in
    one sn_p call together with every later level up to _FILL_LEVEL, and
    the values are appended one cache entry per level.  The inversion
    treats each point on its own, so the values do not depend on how the
    levels were grouped.
    """
    p, mu = float(p), float(mu)
    levels = _profile(p, mu)
    K = kp(p, mu)

    def F(lev: int, u: np.ndarray, cu: np.ndarray, rows) -> np.ndarray:
        if lev >= len(levels):
            new = _ts_levels()[len(levels) : max(lev, _FILL_LEVEL) + 1]
            x = np.concatenate([L.x for L in new])
            v = snp_many(p, mu, K * np.concatenate([x, 1.0 + x]))
            cuts = np.cumsum([L.x.size for L in new])[:-1]
            a, b = np.split(v[: x.size], cuts), np.split(v[x.size :], cuts)
            levels.extend(zip(a, b))
        if lev == _BLOCK_LEVEL:
            a, b = (np.concatenate(c) for c in zip(*levels[: lev + 1]))
        else:
            a, b = levels[lev]
        return g(a, b, u, rows)

    return 0.5 * _tanh_sinh(F, 1.0, 1.0, tol)[0]


def tau_k(p: float, mu: float, k):
    """Sine coefficient sqrt(2) int_0^1 sn_p(2 K_p x, mu) sin(k pi x) dx.

    ``k`` is a positive integer, giving a float, or a nonempty 1-D
    sequence of positive integers, giving an array of the coefficients in
    that order.  All of them are rows of one quadrature on the profile's
    sn_p cache, each to an error of about 1e-11; a row's value is the same,
    bit for bit, whatever the other rows are.
    """
    _validate_pmu(p, mu)
    scalar = np.ndim(k) == 0
    if scalar:
        _check_int("k", k, 1)
    ks = np.array([int(k)]) if scalar else np.asarray(k)
    if ks.ndim != 1 or ks.size == 0 or ks.dtype.kind not in "iu" or np.any(ks < 1):
        raise DomainError(f"k must be a positive integer or a 1-D run of them, got {k!r}")
    kh = (0.5 * ks * math.pi)[:, None]

    def g(a: np.ndarray, b: np.ndarray, u: np.ndarray, rows) -> np.ndarray:
        kr = kh[rows]
        return a * np.sin(kr * u) + b * np.sin(kr * (1.0 + u))

    taus = math.sqrt(2.0) * _split_integral(p, mu, g, _TAU_TOL)
    return float(taus[0]) if scalar else taus


def fourier_profile(p: float, mu: float, K_max: int = 201) -> FourierProfile:
    """All coefficients tau_1..tau_K_max plus a bound on the remaining tail.

    The tail bound covers odd indices above K_max using the profile's own
    K_p value as the sup.
    """
    _validate_pmu(p, mu)
    _check_int("K_max", K_max, 1)
    coeffs = tuple(tau_k(p, mu, np.arange(1, K_max + 1)).tolist())
    start = K_max + 1 if K_max % 2 == 0 else K_max + 2
    tail = tau_tail_bound(p, kp(p, mu), start)
    return FourierProfile(
        p=p, mu=mu, coefficients=coeffs, K_max=int(K_max), tail_bound=tail
    )


def tau1_margin(p: float, mu: float) -> float:
    """tau_1 minus its universal floor 4 sqrt(2)/pi^2."""
    return tau_k(p, mu, 1) - _TAU1_FLOOR


def _sn_l2(p: float, mu: float) -> float:
    """integral_0^1 sn_p(2 K_p x, mu)^2 dx on the shared node cache.

    Split at x = 1/2 like tau_k, since the integrand is only C^1 there
    for p > 2.
    """
    _validate_pmu(p, mu)
    return float(_split_integral(p, mu, lambda a, b, u, rows: a**2 + b**2, 1e-12))


def tau_tail_bound(p: float, sup_kp: float, K: int) -> float:
    """Bound on sum of sup|tau_k| over odd k >= K.

    Uses |tau_k| <= 4 sqrt(2) sup_kp / (pi^2 k^2) together with the
    majorant T(K) = 1/(2(K-2)) for sum of k^-2 over odd k >= K.  The
    majorant holds for odd K >= 3: by convexity of t^-2, each term
    (K + 2j)^-2 is below the average of t^-2 over [K+2j-1, K+2j+1], so
    the sum is below (1/2) int_{K-1}^inf t^-2 dt = 1/(2(K-2)) with a full
    unit of slack in the lower limit.
    """
    _check_interval("p", p, 1.0, math.inf, "()")
    _check_int("K", K, 3, odd=True)
    _check_interval("sup_kp", sup_kp, 0.0, math.inf, "()")
    return 4.0 * math.sqrt(2.0) * sup_kp / math.pi**2 / (2.0 * (K - 2.0))


def rho_coeff(q: float, j: int) -> float:
    """Coefficient ratio rho_j(q) = (1-q) q^j / (1 - q^(2j+1)).

    Equals tau_(2j+1)/tau_1 for the p = 2 profile whose modulus has nome
    q; rho_0 is identically 1.
    """
    _check_interval("q", q, 0.0, 1.0, "()")
    _check_int("j", j, 0)
    return (1.0 - q) * q**j / (1.0 - q ** (2 * j + 1))


def g_eval(q: float, x: float, terms: int = 200) -> float:
    """Partial sum of (1-q) sum_j q^j/(1-q^(2j+1)) sqrt(2) sin((2j+1) pi x).

    The truncation error is bounded by :func:`g_tail_bound` for the same
    (q, terms).
    """
    _check_interval("q", q, 0.0, 1.0, "()")
    _check_interval("x", x, -math.inf, math.inf, "()")
    _check_int("terms", terms, 1)
    js = np.arange(terms)
    coeff = q**js / (1.0 - q ** (2 * js + 1))
    sines = np.sin((2 * js + 1) * math.pi * x)
    return (1.0 - q) * math.sqrt(2.0) * math.fsum(coeff * sines)


def g_tail_bound(q: float, terms: int = 200) -> float:
    """Geometric bound sqrt(2) q^terms / (1 - q^(2 terms + 1)) on the
    truncation error of :func:`g_eval`."""
    _check_interval("q", q, 0.0, 1.0, "()")
    _check_int("terms", terms, 1)
    return math.sqrt(2.0) * q**terms / (1.0 - q ** (2 * terms + 1))
