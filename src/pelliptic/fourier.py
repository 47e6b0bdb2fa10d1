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
x1 depends only on (p, mu), never on k, so the modulus's sn_p engine
holds it (``_SnpEngine.x1``) as one array over a prefix of the node
table; a cold profile fills its first six levels in one pass.  A pass
serves every engine of a call that it extends over the same nodes: it
evaluates each distinct node once (the 95 nodes of levels 0-5 that round
to z = 1 are one), forms the series powers x**N, x = z**p, once for all
of them, takes w_p = z where x is so small that the series sum rounds
away, and sums each engine's tail once; every x1 keeps the bits that the
engine's w_p gives node by node.  Any set of
moduli and indices k is one call of the routine, one row per (mu, k),
each stopping at its own level (every row is evaluated on the routine's
first block, levels 0-4), so a coefficient does not depend on which
other moduli or k were asked for with it.  A large set is split into
calls of at most _ROWS rows, whole moduli to a call, which bounds memory.

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

from .elliptic import _SERIES_ROUNDS_AWAY, _engine, _series_powers, _series_sum, kp
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
# ModulusSet.grid(0.05, 0.95, 200), 201) peaks at 34.8 MB of RSS with 256
# rows, 36.8 MB with 512 and 40.6 MB with 1,024, against 34.2 MB for one
# call per modulus (numpy 2.4, x86-64)
_ROWS = 256

# Last tanh-sinh level of the first fill pass of a cold profile: the
# driver's first call, its block of levels 0..4, fills x1 at the nodes of
# levels 0.._FILL_LEVEL at once, and each later level gets a pass of its
# own.  A pass over a few hundred points costs mostly numpy overhead: at
# (p, mu) = (2, 0.5), (1.5, 0.9), (3.5, 0.9), (6, 0.3) and (1.2, 0.999),
# one w_p call per level took 0.31-0.61 ms for levels 0..5, one call over
# the same 391 points 0.14-0.25 ms (numpy 2.4, one core).  On a 7x7
# (p, mu) grid, p from 1.1 to 10 and mu from 0 to 0.99999, tau_1..tau_21
# stop at level 4 or 5, tau_1 alone within the block, _sn_l2 within it or
# at level 5, and tau_1..tau_201 at 6 or 7.
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


# the benchmark harness counts profile misses through this name, the engine
# cache, as each engine holds its profile; it goes at the harness's next change
_profile = _engine


def _split_integral(p: float, mus: list, owner: np.ndarray, g, tol: float):
    """int_0^1 G(z) dz for G built on the preimages x1 = w_p(z) / (2 K_p)
    of z on the rising half of the profile, one row per entry of
    ``owner``, the index into ``mus`` of the row's modulus.

    ``g(x1, z, rows)`` returns G for the driver's live ``rows``, with
    shape (live rows, n), where x1 holds each live row's x1 at the nodes
    z.  The driver's nodes z for level ``lev`` end at ``cuts[lev + 1]``
    in the node table, the block's as the table's prefix, so x1 is the
    same slice of each modulus's profile, the ``x1`` of its cached sn_p
    engine.  The driver visits levels in order, so a call past a cached
    prefix extends it through level ``lev`` or _FILL_LEVEL, whichever is
    later, in one pass of :func:`_fill` for all the engines whose prefix
    ends at the same node.  The fill gives each node the bits of the
    engine's w_p at that node alone, and a row's G uses only its own x1,
    so neither the grouping of the fill nor the other rows change a value.
    """
    engines = [_engine(p, mu) for mu in mus]

    def F(lev: int, z: np.ndarray, cz: np.ndarray, rows) -> np.ndarray:
        end = _ts_slice(lev).stop
        # the engines short of end, once each, by the size of their prefix
        short = {}
        for eng in dict.fromkeys(engines):
            if end > eng.x1.size:
                short.setdefault(eng.x1.size, []).append(eng)
        for start, group in short.items():
            _fill(group, start, max(lev, _FILL_LEVEL))
        x1 = np.array([eng.x1[end - z.size : end] for eng in engines])
        return g(x1.take(owner[rows], axis=0), z, rows)

    return _tanh_sinh(F, 1.0, tol)[0]


@functools.lru_cache(maxsize=32)
def _fill_nodes(start: int, lev: int) -> tuple:
    """The node table's z from ``start`` through level ``lev`` as distinct
    values: (z <= 0.6 ascending, e = 1 - z for the rest, the index that
    takes the distinct values back to table order).  The z that round to 1
    are one node, 95 of the 391 of levels 0-5."""
    z, back = np.unique(_ts_nodes(lev)[0][start : _ts_slice(lev).stop], return_inverse=True)
    n = np.count_nonzero(z <= 0.6)
    out = z[:n], 1.0 - z[n:], back
    for a in out:
        a.flags.writeable = False
    return out


def _fill(engines: list, start: int, lev: int) -> None:
    """Extend the profiles x1 = w_p / (2 K_p) of ``engines``, one p, each
    holding the first ``start`` nodes of the table, through level ``lev``,
    with the bits that each engine's ``wp_many`` gives on those nodes.

    Each distinct node is evaluated once (:func:`_fill_nodes`).  On the
    series side, nodes whose x = z**p lies below _SERIES_ROUNDS_AWAY take
    w_p = z, which the series sum rounds to there, and the rest share one
    matrix of powers x**N, long enough for every engine's series; each
    engine applies its own coefficients.  The tail side is one ``_tail``
    call per engine, where z = 1 divides by zero in a log, as in wp_many.
    """
    zs, e, back = _fill_nodes(start, lev)
    p = engines[0].p
    # the nodes below z = _SERIES_ROUNDS_AWAY**(1/p); the rounding of that
    # root moves its x far less than the cut's margin
    k = zs.searchsorted(_SERIES_ROUNDS_AWAY ** (1.0 / p))
    powers = _series_powers(zs[k:], p, max(eng._series.size for eng in engines) - 1)
    with np.errstate(divide="ignore"):
        for eng in engines:
            w = (zs[:k], _series_sum(zs[k:], powers, eng._series), eng._tail(e))
            eng.x1 = np.concatenate((eng.x1, (np.concatenate(w) / (2.0 * eng.K))[back]))


def _cosine_rows(p: float, mus: list, kpi: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """int_0^1 [cos(k pi x1) - cos(k pi x2)] dz for each modulus in ``mus``
    (rows) and each k pi in ``kpi`` (columns), as the rows of one driver
    call.  An odd k's row integrates 2 cos(k pi x1), its exact equal, and
    an even k's the difference of the two halves, which vanishes only by
    numerical cancellation."""
    c, nk = len(mus), kpi.size
    # row r is entry perm[r] of the flattened (modulus, k) table, the odd
    # k first; the driver's live rows are increasing, so the odd rows
    # stay a prefix of them.  With every k odd that is the table's order
    perm = np.arange(c * nk)
    odd_rows = c * np.count_nonzero(odd)
    if odd_rows < perm.size:
        flat = perm.reshape(c, nk)
        perm = np.concatenate([flat[:, odd], flat[:, ~odd]], axis=None)
    owner, j = np.divmod(perm, nk)
    row_kpi = kpi[j]

    def g(x1: np.ndarray, z: np.ndarray, rows) -> np.ndarray:
        kr = row_kpi[rows][:, None]
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

    out = _split_integral(p, mus, owner, g, _TAU_TOL)
    if odd_rows < perm.size:
        out[perm] = out.copy()
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
    taus = _taus(p, mu if isinstance(mu, list) else [mu], np.atleast_1d(k))
    if isinstance(k, int):
        taus = taus[:, 0]
    if isinstance(mu, float):
        taus = float(taus[0]) if isinstance(k, int) else taus[0]
    return taus


def _taus(p: float, mus: list, ks: np.ndarray) -> np.ndarray:
    """tau_k at checked moduli (rows) and k (columns), whole moduli a call."""
    kpi, odd = ks * math.pi, ks % 2 == 1
    n = max(1, _ROWS // ks.size)
    rows = [_cosine_rows(p, mus[i : i + n], kpi, odd) for i in range(0, len(mus), n)]
    return math.sqrt(2.0) / kpi * np.concatenate(rows)


def fourier_profile(p: float, mu: float, K_max: int = 201) -> FourierProfile:
    """All coefficients tau_1..tau_K_max plus a bound on the remaining tail.

    The tail bound covers odd indices above K_max using the profile's own
    K_p value as the sup.
    """
    p, mu = _validate_pmu(p, mu)
    K_max = _check_int("K_max", K_max, 1)
    coeffs = tuple(_taus(p, [mu], np.arange(1, K_max + 1))[0].tolist())
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
