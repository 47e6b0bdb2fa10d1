"""Sine Fourier coefficients of generalized sine profiles.

tau_k = sqrt(2) * integral_0^1 sn_p(2 K_p(mu) x, mu) sin(k pi x) dx are the
coordinates of the first eigenfunction profile in the orthonormal basis
sqrt(2) sin(k pi x).  The profile s(x) = sn_p(2 K_p x) rises from 0 to 1
on [0, 1/2] and falls back symmetrically, so each z in [0, 1] is taken at
x1 = w_p(z) / (2 K_p) and at x2 = 1 - x1.  Integrating each half by parts
and substituting z = s(x) gives bounded integrals that need only the
forward w_p, never the inverse sn_p:

    tau_k = sqrt(2) / (k pi) * integral_0^1 [cos(k pi x1) - cos(k pi x2)] dz,
    integral_0^1 s^2 dx = integral_0^1 2 z (x2 - x1) dz.

The derivative singularity of x1 at z = 1 sits at an endpoint, where the
double-exponential transform absorbs it.  For odd k the bracket is
exactly 2 cos(k pi x1), since cos(k pi (1 - x1)) = -cos(k pi x1), and an
odd row evaluates that one cosine.  Even rows keep the two halves as
separate terms, so the even-k coefficients vanish only through genuine
numerical cancellation, not by construction.

All of these integrals run through the package's one tanh-sinh routine.
x1 depends only on (p, mu), never on k, so each profile caches it as one
array over a prefix of that routine's node table; a cold profile fills
its first six levels with one w_p call, since a call costs mostly numpy
overhead at a few hundred points.  Any set of moduli and indices k is one
call of the routine, one row per (mu, k), each stopping at its own level
(every row is evaluated on the routine's first block, levels 0-4), so a
coefficient does not depend on which other moduli or k were asked for
with it.  A large set is split into calls of at most _ROWS rows, whole
moduli to a call, which bounds memory.

The module also carries the explicit p = 2 expansion: coefficient ratios
rho_j(q) = (1-q) q^j / (1 - q^(2j+1)) and the series
g(x) = (1-q) sum_j q^j/(1-q^(2j+1)) sqrt(2) sin((2j+1) pi x), summed to
200 terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _engine, kp
from .errors import _check_int, _check_interval, _check_run, _validate_pmu
from .quadrature import _tanh_sinh, _ts_nodes, _ts_slice

__all__ = [
    "FourierProfile",
    "fourier_profile",
    "tau_k",
    "tau1_margin",
    "tau_tail_bound",
    "rho_coeff",
    "g_eval",
]

# Step-2 lower bound for tau_1, 4 sqrt(2) / pi^2
_TAU1_FLOOR = 4.0 * math.sqrt(2.0) / math.pi**2

_TAU_TOL = 1e-11
# tau_k: at most this many (mu, k) rows per driver call, whole moduli at a
# time, which bounds memory, since the integrand's arrays hold rows x
# nodes doubles (781 nodes at level 7).  A cold certify_invertibility(1.5,
# ModulusSet.grid(0.05, 0.95, 200), 201) peaks at 33.6 MB of RSS with 256
# rows, 36.6 MB with 512 and 41.2 MB with 1,024, against 33.4 MB for one
# call per modulus (numpy 2.4, x86-64)
_ROWS = 256

# Last tanh-sinh level of the first w_p call of a cold profile: the
# driver's first call, its block of levels 0..4, evaluates w_p at the
# nodes of levels 0.._FILL_LEVEL at once, and each later level gets a
# call of its own.  A call over a few hundred points costs mostly numpy
# overhead: at (p, mu) = (2, 0.5), (1.5, 0.9), (3.5, 0.9), (6, 0.3) and
# (1.2, 0.999), one w_p call per level takes 0.31-0.61 ms for levels
# 0..5, one call over the same 391 points 0.14-0.25 ms (numpy 2.4, one
# core).  On a 7x7 (p, mu) grid, p from 1.1 to 10 and mu from 0 to
# 0.99999, tau_1..tau_21 stop at level 4 or 5, tau_1 alone within the
# block, _sn_l2 within it or at level 5, and tau_1..tau_201 at 6 or 7.
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
    """A one-item list holding x1 = w_p(z) / (2 K_p) at the nodes z of a
    prefix of the tanh-sinh node table, in table order; it starts empty
    and :func:`_split_integral` extends it."""
    return [np.empty(0)]


def _split_integral(p: float, mus: list, owner: np.ndarray, g, tol: float):
    """int_0^1 G(z) dz for G built on the preimages x1 = w_p(z) / (2 K_p)
    of z on the rising half of the profile, one row per entry of
    ``owner``, the index into ``mus`` of the row's modulus.

    ``g(x1, z, rows)`` returns G for the driver's live ``rows``, with
    shape (live rows, n), where x1 holds each live row's x1 at the nodes
    z.  The driver's nodes z for level ``lev`` end at ``cuts[lev + 1]``
    in the node table, the block's as the table's prefix, so x1 is the
    same slice of each modulus's profile cache.  The driver visits levels
    in order, so a call past a cached prefix extends it with one w_p call
    through level ``lev`` or _FILL_LEVEL, whichever is later.  w_p treats
    each point on its own, and a row's G only its own x1, so neither the
    grouping of the fill nor the other rows change a value.
    """
    caches = [_profile(p, mu) for mu in mus]
    engines = [_engine(p, mu) for mu in mus]

    def F(lev: int, z: np.ndarray, cz: np.ndarray, rows) -> np.ndarray:
        end = _ts_slice(lev).stop
        for cache, eng in zip(caches, engines):
            if end > cache[0].size:
                new = _ts_nodes(max(lev, _FILL_LEVEL))[0][cache[0].size :]
                cache[0] = np.concatenate([cache[0], eng.wp_many(new) / (2.0 * eng.K)])
        x1 = np.array([cache[0][end - z.size : end] for cache in caches])
        return g(x1[owner[rows]], z, rows)

    return _tanh_sinh(F, 1.0, tol)[0]


def _cosine_rows(p: float, mus: list, kpi: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """int_0^1 [cos(k pi x1) - cos(k pi x2)] dz for each modulus in ``mus``
    (rows) and each k pi in ``kpi`` (columns), as the rows of one driver
    call.  An odd k's row integrates 2 cos(k pi x1), its exact equal, and
    an even k's the difference of the two halves, which vanishes only by
    numerical cancellation."""
    c, nk = len(mus), kpi.size
    # row r is entry perm[r] of the flattened (modulus, k) table, the odd
    # k first; the driver's live rows are increasing, so the odd rows
    # stay a prefix of them
    flat = np.arange(c * nk).reshape(c, nk)
    perm = np.concatenate([flat[:, odd], flat[:, ~odd]], axis=None)
    owner, j = np.divmod(perm, nk)
    row_kpi = kpi[j][:, None]
    odd_rows = c * np.count_nonzero(odd)

    def g(x1: np.ndarray, z: np.ndarray, rows) -> np.ndarray:
        kr = row_kpi[rows]
        out = kr * x1
        np.cos(out, out=out)
        o = odd_rows if isinstance(rows, slice) else rows.searchsorted(odd_rows)
        out[:o] *= 2.0
        if o < len(out):
            # x1 is this call's own gathered copy, so cos(k pi x2) of the
            # even rows is formed in it
            x2 = np.subtract(1.0, x1[o:], out=x1[o:])
            x2 *= kr[o:]
            out[o:] -= np.cos(x2, out=x2)
        return out

    out = np.empty(c * nk)
    out[perm] = _split_integral(p, mus, owner, g, _TAU_TOL)
    return out.reshape(c, nk)


def tau_k(p: float, mu, k):
    """Sine coefficient sqrt(2) int_0^1 sn_p(2 K_p x, mu) sin(k pi x) dx.

    ``k`` is a positive integer or a nonempty 1-D sequence of them, and
    ``mu`` a modulus in [0, 1) or a nonempty 1-D sequence of them.  One
    of each gives a float; a sequence of k gives an array of the
    coefficients in that order, a sequence of moduli one row per modulus,
    and both an array of shape (moduli, k).  Every (mu, k) pair is a row
    of one quadrature of the cosine integral on the profile's w_p cache,
    _ROWS rows a call at most, each to an error of about 1e-11; a row's
    value is the same, bit for bit, whatever the other rows are.
    """
    p = _check_interval("p", p, 1.0, math.inf, "()")
    mu = _check_run("mu", mu, _check_interval, 0.0, 1.0)
    k = _check_run("k", k, _check_int, 1)
    mus = mu if isinstance(mu, list) else [mu]
    ks = np.atleast_1d(k)
    kpi, odd = ks * math.pi, ks % 2 == 1
    # whole moduli to a driver call
    per_call = max(1, _ROWS // ks.size)
    integrals = np.concatenate([
        _cosine_rows(p, mus[lo : lo + per_call], kpi, odd)
        for lo in range(0, len(mus), per_call)
    ])
    taus = math.sqrt(2.0) / kpi * integrals
    if isinstance(k, int):
        taus = taus[:, 0]
    if isinstance(mu, float):
        taus = float(taus[0]) if isinstance(k, int) else taus[0]
    return taus


def fourier_profile(p: float, mu: float, K_max: int = 201) -> FourierProfile:
    """All coefficients tau_1..tau_K_max plus a bound on the remaining tail.

    The tail bound covers odd indices above K_max using the profile's own
    K_p value as the sup.
    """
    p, mu = _validate_pmu(p, mu)
    K_max = _check_int("K_max", K_max, 1)
    coeffs = tuple(tau_k(p, mu, np.arange(1, K_max + 1)).tolist())
    start = K_max + 1 if K_max % 2 == 0 else K_max + 2
    tail = tau_tail_bound(p, kp(p, mu), start)
    return FourierProfile(
        p=p, mu=mu, coefficients=coeffs, K_max=K_max, tail_bound=tail
    )


def tau1_margin(p: float, mu: float) -> float:
    """tau_1 minus its universal floor 4 sqrt(2)/pi^2."""
    return tau_k(p, mu, 1) - _TAU1_FLOOR


def _sn_l2(p: float, mu: float) -> float:
    """integral_0^1 sn_p(2 K_p x, mu)^2 dx on the shared node cache, as
    integral_0^1 2 z (x2 - x1) dz: each half of the profile integrated by
    parts and taken over z = sn_p, like tau_k."""
    p, mu = _validate_pmu(p, mu)
    g = lambda x1, z, rows: 2.0 * z * ((1.0 - x1) - x1)
    return float(_split_integral(p, [mu], np.zeros(1, int), g, 1e-12)[0])


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
    K = _check_int("K", K, 3, odd=True)
    sup_kp = _check_interval("sup_kp", sup_kp, 0.0, math.inf, "()")
    return 4.0 * math.sqrt(2.0) * sup_kp / math.pi**2 / (2.0 * (K - 2.0))


def rho_coeff(q: float, j: int) -> float:
    """Coefficient ratio rho_j(q) = (1-q) q^j / (1 - q^(2j+1)).

    Equals tau_(2j+1)/tau_1 for the p = 2 profile whose modulus has nome
    q; rho_0 is identically 1.
    """
    q = _check_interval("q", q, 0.0, 1.0, "()")
    j = _check_int("j", j, 0)
    return (1.0 - q) * q**j / (1.0 - q ** (2 * j + 1))


def g_eval(q: float, x: float) -> float:
    """The p = 2 series (1-q) sum_j q^j/(1-q^(2j+1)) sqrt(2) sin((2j+1) pi x),
    summed over j < 200.

    The terms past it add up to at most sqrt(2) q^200 / (1 - q^401), since
    each is below sqrt(2) (1-q) q^j / (1 - q^401).
    """
    q = _check_interval("q", q, 0.0, 1.0, "()")
    x = _check_interval("x", x, -math.inf, math.inf, "()")
    js = np.arange(200)
    coeff = q**js / (1.0 - q ** (2 * js + 1))
    sines = np.sin((2 * js + 1) * math.pi * x)
    return (1.0 - q) * math.sqrt(2.0) * math.fsum(coeff * sines)
