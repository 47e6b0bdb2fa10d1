"""Generalized elliptic sine sn_p and its complete integral K_p.

For p > 1 and modulus mu in [0, 1) the incomplete integral

    w_p(z) = integral_0^z (1 - s**p)**(-1/p) * (1 - mu**p s**p)**(-1/p) ds

is strictly increasing on [0, 1] with w_p(1) = K_p(mu), the complete
integral.  Its inverse on [0, K_p], extended to an odd 4 K_p-periodic
function of y, is sn_p(y, mu).  At p = 2 these reduce to the classical
incomplete/complete elliptic integrals and Jacobi sn with modulus mu (the
modulus k convention, not the parameter m = k**2).

Derivatives follow from the chain rule.  With A = 1 - s**p and
B = 1 - mu**p s**p at s = sn_p:

    sn_p'  = +/- (A * B)**(1/p)
    sn_p'' = -/+ s**(p-1) * (A * B)**(2/p - 1) * (B + mu**p * A)

For p > 2 the second derivative diverges at odd multiples of K_p but stays
locally integrable.

Evaluation reduces y modulo the period, then inverts w_p by a
bracket-safeguarded Newton iteration vectorized across all requested
points.  Each (p, mu) engine evaluates w_p from an approximant it builds
once, so the Newton passes run no quadrature: for z <= 0.6 a power series
in x = z**p, the z**p-diagonal of the Appell form

    w_p(z) = z F1(1/p; 1/p, 1/p; 1 + 1/p; z**p, mu**p z**p),

and for z > 0.6, K_p - e**(1-1/p) H(e) with e = 1 - z and H a Chebyshev
interpolant of degree 32 on panels of [0, 0.4] graded toward e = 0
(Trefethen, Approximation Theory and Approximation Practice, ch. 8).  The
engine tabulates w_p at 16 interior nodes evenly spaced in the tail
variable v = (1-z)**(1-1/p) and at the panel edges; every point starts
inside its table bracket, from z interpolated linearly in v.  A point
stops once its raw Newton step is at most 5e-15, and that step is taken
(clipped into the bracket) before the safeguard could swap it for a
midpoint, so converged points never fall through to bisection.  Scalar
and batch entry points share that one path, and the approximant is
evaluated row by row, so a scalar call returns exactly the value the
batch call gives at the same y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularPoint, SlowConvergence
from .errors import _check_finite, _check_int, _check_interval, _validate_pmu
from .quadrature import (
    QuadratureResult,
    SingularIntegrand,
    integrate_singular,
    _tanh_sinh,
)

__all__ = [
    "SnpValue",
    "kp",
    "kp_quadrature",
    "kp_via_2f1",
    "wp",
    "snp",
    "snp_value",
    "snp_many",
    "snp_deriv",
    "snp_deriv_many",
    "snp_second_deriv",
    "snp_second_deriv_many",
    "jordan_margins",
]

_EPS = float(np.finfo(float).eps)

_KP_TOL = 1e-13
# p > 2 only: margin around odd multiples of K_p inside which the second
# derivative is treated as singular.
_SING_MARGIN = 1e-6
# interior nodes of the table each _SnpEngine builds to start its inversion
_TAB_NODES = 16
# w_p tail panels: Chebyshev interpolants of degree _CHEB_N - 1, sampled at
# the first-kind points _CHEB_X; _DCT maps samples to coefficients, with
# each angle k (2j+1) pi / (2n) reduced modulo 2 pi in integers
_CHEB_N = 33
_CHEB_X = np.sin(0.5 * np.pi * np.arange(_CHEB_N - 1, -_CHEB_N, -2) / _CHEB_N)
_DCT = (2.0 / _CHEB_N) * np.cos(
    0.5
    * np.pi
    / _CHEB_N
    * (np.outer(np.arange(_CHEB_N), np.arange(1, 2 * _CHEB_N, 2)) % (4 * _CHEB_N))
)
_DCT[0] *= 0.5


def _pow_ratio(e: np.ndarray, p) -> np.ndarray:
    """(1 - s**p) / (1 - s) for s = 1 - e, stable for all e in [0, 1].

    ``p`` is a float or a column of per-row exponents that broadcasts
    against ``e``.  The direct quotient collapses to 0/0 as e underflows;
    below 1e-6 a three-term expansion around s = 1 carries full double
    precision.  Both branches are evaluated on every element, so the value
    at one e never depends on the other elements or rows.
    """
    e = np.asarray(e, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        big = -np.expm1(p * np.log1p(-e)) / e
    small = p * (1.0 + (p - 1.0) * e * (-0.5 + (p - 2.0) * e / 6.0))
    return np.where(e < 1e-6, small, big)


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
    distance.  ``p``, ``eps`` and ``mup`` are floats, or columns holding
    one (p, mu) per row.
    """
    ratio = _pow_ratio(e, p)
    return (ratio * (eps + mup * ratio * e)) ** (-1.0 / p)


def kp_quadrature(p: float, mu: float, tol: float = _KP_TOL) -> QuadratureResult:
    """The K_p integral with the engine's own error assessment attached.

    The smooth factor is :func:`_tail_factor` of the exact endpoint
    distance, so the integral stays accurate even for 1 - mu of order 1e-15.

    For p close to 1 the endpoint exponent -1/p approaches -1 and the
    unresolvable tail below the double-precision node horizon grows; the
    engine then refuses tolerances it cannot certify and raises.
    """
    _validate_pmu(p, mu)
    eps, mup = _eps_mup(p, mu)
    f = SingularIntegrand(
        smooth_part=lambda s, cs: _tail_factor(cs, p, eps, mup),
        right_exponent=-1.0 / p,
    )
    return integrate_singular(f, tol=tol)


def _kp_rows(p, mu) -> np.ndarray:
    """K_p at each pair (p[i], mu[i]), equal to :func:`kp` bit for bit.

    The rows run the integrand and stop test of ``kp_quadrature(p[i],
    mu[i])`` at ``_KP_TOL`` as one driver call, with the right exponent
    1 - 1/p as a per-row column.  A row that fails to converge (p near 1)
    drops out of the batch and takes :func:`kp`'s series fallback
    :func:`_kp_series` directly, as the scalar quadrature would fail the
    same way; the other rows finish in the batch.
    """
    p = [float(v) for v in p]
    mu = [float(v) for v in mu]
    for a, b in zip(p, mu):
        _validate_pmu(a, b)
    p_col = np.array(p)[:, None]
    eps, mup = np.array([_eps_mup(a, b) for a, b in zip(p, mu)]).T[:, :, None]
    value = _tanh_sinh(
        lambda lev, x, cx, rows: _tail_factor(cx, p_col[rows], eps[rows], mup[rows]),
        1.0,
        1.0 - 1.0 / p_col,
        _KP_TOL,
        partial=True,
    )[0]
    for i in np.flatnonzero(np.isnan(value)):
        value[i] = _kp_series(p[i], mu[i])
    return value


def _f21(alpha: float, beta: float, gamma: float, y: float, terms: int = 500) -> float:
    """Gauss series 2F1(alpha, beta; gamma; y) for small positive y, summed
    until a term drops below 1e-17 of the total, at most ``terms`` terms."""
    term = 1.0
    total = 1.0
    for n in range(terms):
        term *= (alpha + n) * (beta + n) / ((gamma + n) * (1.0 + n)) * y
        total += term
        if abs(term) < 1e-17 * abs(total):
            return total
    raise NonConvergence(f"2F1 series did not settle within {terms} terms at y={y}")


def _kp_near_one_2f1(p: float, mu: float) -> float:
    """K_p via the hypergeometric connection formula at the mu -> 1 end.

    Rewrites 2F1(1/p, 1/p; 1; mu**p) in terms of two series in
    y = 1 - mu**p, which converge in a handful of terms when y < 0.1.
    Only valid for p in (1, 2), where the gamma factors stay off their
    poles; that is exactly the regime in which the quadrature route runs
    out of double-precision headroom.
    """
    if not (1.0 < p < 2.0):
        raise NonConvergence(f"near-one series requires p in (1, 2), got {p}")
    a = 1.0 / p
    y = -math.expm1(p * math.log(mu))
    pref = math.pi / (p * math.sin(math.pi / p))
    coef_a = math.gamma(1.0 - 2.0 * a) / math.gamma(1.0 - a) ** 2
    coef_b = math.gamma(2.0 * a - 1.0) / math.gamma(a) ** 2
    f1 = _f21(a, a, 2.0 * a, y)
    f2 = _f21(1.0 - a, 1.0 - a, 2.0 - 2.0 * a, y)
    return pref * (coef_a * f1 + coef_b * y ** (1.0 - 2.0 * a) * f2)


def _direct_series(p: float, mup: float) -> np.ndarray:
    """c_N / (p N + 1) for w_p(z) = z * sum_N c_N x**N / (p N + 1), x = z**p.

    c_N is the Cauchy product of the binomial series (1/p)_n / n! of
    (1 - x)**(-1/p) and (1/p)_n mup**n / n! of (1 - mup x)**(-1/p).  Since
    c_N <= N + 1, a term is at most (0.6**p)**N on z <= 0.6; the series
    stops at the last term above 1e-18 of the first there.
    """
    x0 = 0.6**p
    n = math.ceil(math.log(1e-18) / math.log(x0)) + 1
    k = np.arange(1, n)
    poch = np.concatenate(([1.0], np.cumprod((1.0 / p + k - 1.0) / k)))
    c = np.convolve(poch, poch * mup ** np.arange(n))[:n] / (p * np.arange(n) + 1.0)
    keep = c * x0 ** np.arange(n) >= 1e-18 * c[0]
    return c[: np.nonzero(keep)[0][-1] + 1]


@functools.lru_cache(maxsize=8192)
def kp(p: float, mu: float) -> float:
    """Complete integral K_p(mu) = w_p(1).

    Strictly increasing in mu, with K_p(0) = pi / (p sin(pi/p)) > 1.  Computed
    by tanh-sinh quadrature with the (1-s)**(-1/p) endpoint factor declared
    to the engine, to a relative error target of 1e-13: the engine's
    tolerance is relative once |value| > 1, which K_p always is, so at
    K_p = 4.9e8 (p = 1.2, mu = 1 - 1e-12) the allowed error is about 5e-5.

    For p below about 1.06 the quadrature cannot certify that target in
    double precision, and the value comes from a hypergeometric series
    instead: the mu**p expansion when mu**p <= 0.9, else the
    connection-formula expansion around mu = 1.  Both keep relative
    accuracy near 1e-14.
    """
    try:
        return kp_quadrature(p, mu).value
    except NonConvergence:
        return _kp_series(p, mu)


def _kp_series(p: float, mu: float) -> float:
    """K_p where the quadrature cannot certify its target (p near 1): the
    mu**p series when mu**p <= 0.9, else the expansion around mu = 1."""
    if mu**p <= 0.9:
        return kp_via_2f1(p, mu)
    return _kp_near_one_2f1(p, mu)


def kp_via_2f1(p: float, mu: float, terms: int = 1000) -> float:
    """K_p(mu) through the Gauss hypergeometric representation.

    Sums (B(1/p, 1 - 1/p) / p) * 2F1(1/p, 1/p; 1; mu**p) directly; the Beta
    prefactor reduces to pi / (p sin(pi/p)) by reflection.  Independent of
    the quadrature route, so the two serve as mutual cross-checks.

    Raises
    ------
    SlowConvergence
        If mu**p > 0.9, where the series budget is not guaranteed.
    NonConvergence
        If ``terms`` is exhausted before the tail drops below 1e-17.
    """
    _validate_pmu(p, mu)
    _check_int("terms", terms, 1)
    x = mu**p
    if x > 0.9:
        raise SlowConvergence(f"mu**p = {x:.6f} > 0.9; hypergeometric series too slow")
    pref = math.pi / (p * math.sin(math.pi / p))
    return pref * _f21(1.0 / p, 1.0 / p, 1.0, x, terms)


@dataclass(frozen=True)
class SnpValue:
    """A single sn_p evaluation: input y, value, and the index of the
    4 K_p period that y fell into during range reduction."""

    y: float
    value: float
    branch_period_index: int


class _SnpEngine:
    """Vectorized w_p evaluation and inversion for one (p, mu) pair.

    w_p comes from one of two approximants, by where z sits:

    * z <= 0.6: expanding both factors of w_p' in binomial series and
      integrating gives z * sum_N c_N x**N / (p N + 1) with x = z**p, the
      diagonal of the Appell F1 form of w_p.  The coefficients are made at
      construction (:func:`_direct_series`).
    * z > 0.6: K_p - w_p(1-e) = e**(1-1/p) H(e) with
      H(e) = integral_0^1 u**(-1/p) T(e u) du, T the tail factor that K_p
      integrates.  H is analytic around [0, 0.4]; its nearest
      singularities are e = -(1-mu)/mu and, for p > 2, the zeros
      1 - exp(+-2 pi i/p) of 1 - (1-e)**p.  Panels e_0 = 0,
      e_(k+1) = 2 e_k + d, with d the distance from 0 to the nearer, keep
      each panel about its own length away from them, so degree 32 in
      Chebyshev polynomials resolves H to rounding on each (Trefethen,
      Approximation Theory and Approximation Practice, ch. 8).
      One batched tanh-sinh quadrature samples H at the first-kind
      Chebyshev points of every panel.  The panels are built on the first
      z > 0.6, not at construction: for p close to 1 that quadrature
      cannot converge, and w_p on the direct branch must not need it.

    Subtracting the tail from K_p keeps K_p - w_p fully accurate where the
    inverse flattens out.
    """

    __slots__ = (
        "p",
        "mu",
        "K",
        "_mup",
        "_series",
        "_panels",
        "_table",
        "_neg_inv_p",
        "_tail_pow",
        "_v_pow",
        "_log_mu",
    )

    def __init__(self, p: float, mu: float):
        self.p = p
        self.mu = mu
        self.K = kp(p, mu)
        self._mup = mu**p
        self._series = _direct_series(p, self._mup)
        self._panels = None
        self._table = None
        # powers and logs that every Newton pass uses
        self._neg_inv_p = -1.0 / p
        self._tail_pow = 1.0 - 1.0 / p  # of the tail variable v = (1-z)**(1-1/p)
        self._v_pow = p / (p - 1.0)  # z = 1 - v**(p/(p-1))
        self._log_mu = math.log(mu) if mu > 0.0 else None

    # -- integrand pieces -------------------------------------------------

    def _AB(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) = (1 - s**p, 1 - mu**p s**p), both formed from log(s) so
        they stay accurate when s**p or mu**p s**p is near 1.  At s = 0
        log(s) divides by zero: callers ignore that in np.errstate."""
        p = self.p
        log_s = np.log(s)
        A = -np.expm1(p * log_s)
        if self._log_mu is None:
            return A, np.ones_like(log_s)
        return A, -np.expm1(p * (self._log_mu + log_s))

    def _G(self, v: np.ndarray) -> np.ndarray:
        """w_p'(v) = (1 - v**p)**(-1/p) (1 - mu**p v**p)**(-1/p), v in [0, 1)."""
        A, B = self._AB(v)
        return (A * B) ** self._neg_inv_p

    def wp_many(self, z: np.ndarray) -> np.ndarray:
        """w_p at each z in [0, 1], vectorized, from the engine's approximant:
        the series up to z = 0.6, the tail panels above."""
        z = np.asarray(z, dtype=float)
        lo = z <= 0.6
        if lo.all():
            return self._direct(z)
        if not lo.any():
            return self._tail(1.0 - z)
        out = np.empty_like(z)
        out[lo] = self._direct(z[lo])
        out[~lo] = self._tail(1.0 - z[~lo])
        return out

    def _direct(self, z: np.ndarray) -> np.ndarray:
        """z * sum_N c_N x**N with x = z**p, one row of powers per point."""
        c = self._series
        terms = np.empty((z.size, c.size - 1))
        terms[:] = (z**self.p)[:, None]
        np.cumprod(terms, axis=1, out=terms)
        terms *= c[1:]
        return z * (c[0] + terms.sum(axis=-1))

    def _tail(self, e: np.ndarray) -> np.ndarray:
        """K - e**(1-1/p) H(e) at e = 1 - z, with H summed from its panel's
        Chebyshev coefficients as c_0 + sum_k c_k cos(k theta), theta the
        arccos of e mapped onto [-1, 1]."""
        edges, coef, k = self._tail_panels()
        # np.minimum and np.maximum, not np.clip, and the sum method, not
        # np.sum: once per Newton pass, the wrappers cost more than the work
        i = np.searchsorted(edges, e, side="right") - 1
        i = np.minimum(np.maximum(i, 0), edges.size - 2)
        a, b = edges[i], edges[i + 1]
        x = np.minimum(np.maximum((2.0 * e - a - b) / (b - a), -1.0), 1.0)
        terms = np.cos(np.arccos(x)[:, None] * k)
        terms *= coef[i, 1:]
        H = coef[i, 0] + terms.sum(axis=-1)
        return self.K - e**self._tail_pow * H

    def _tail_panels(self):
        """(edges, coef, k): the panel edges in e = 1 - z, one row per
        panel of the Chebyshev coefficients of H, chopped below
        2 eps |c_0|, and the indices 1, 2, ... of the coefficients after
        c_0."""
        if self._panels is None:
            p, mu = self.p, self.mu
            # distance from e = 0 to the nearest singularity of H: -(1-mu)/mu,
            # or for p > 2 the zeros 1 - exp(+-2 pi i / p) of 1 - (1-e)**p
            d = 2.0 * math.sin(math.pi / max(p, 2.0))
            if mu > 0.0:
                d = min(d, (1.0 - mu) / mu)
            edges = [0.0]
            while edges[-1] < 0.4:
                edges.append(2.0 * edges[-1] + d)
            edges = np.array(edges[:-1] + [0.4])
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            e = (mid[:, None] + half[:, None] * _CHEB_X).ravel()

            eps, mup = _eps_mup(p, mu)

            def F(lev: int, u: np.ndarray, cu: np.ndarray, rows) -> np.ndarray:
                return _tail_factor(np.multiply.outer(e[rows], u), p, eps, mup)

            try:
                H = _tanh_sinh(F, 1.0 - 1.0 / p, 1.0, 5e-14)[0]
            except NonConvergence:
                # p close to 1: the node window cannot resolve u**(-1/p) to
                # 5e-14 of H; settle for 1e-11
                H = _tanh_sinh(F, 1.0 - 1.0 / p, 1.0, 1e-11)[0]
            H = H.reshape(mid.size, -1)
            # transform the variation about the middle sample, whose
            # rounding is then relative to |c_1| rather than to |c_0|
            H0 = H[:, _CHEB_N // 2 : _CHEB_N // 2 + 1]
            coef = np.sum((H - H0)[:, None, :] * _DCT, axis=-1)
            coef[:, 0] += H0[:, 0]
            coef[np.abs(coef) < 2.0 * _EPS * np.abs(coef[:, :1])] = 0.0
            n = np.nonzero(np.any(coef != 0.0, axis=0))[0][-1] + 1
            self._panels = (edges, coef[:, :n], np.arange(1, n))
        return self._panels

    # -- inversion ---------------------------------------------------------

    def _brackets(self):
        """(v, z, w) at the table nodes, endpoints included.

        _TAB_NODES nodes are evenly spaced in the tail variable
        v = (1-z)**(1-1/p), in which K - w_p is nearly linear; the tail
        panel edges z = 1 - e_k join them, so the boundary layer that forms
        at z = 1 as mu -> 1 is bracketed as finely as it is fitted.  Built
        by one wp_many call on the first inversion, not at construction, so
        w_p alone never needs it.
        """
        if self._table is None:
            v = np.linspace(1.0, 0.0, _TAB_NODES + 2)
            z = 1.0 - v**self._v_pow
            z = np.sort(np.concatenate((z, 1.0 - self._tail_panels()[0][1:])))
            v = (1.0 - z) ** self._tail_pow
            w = np.concatenate(([0.0], self.wp_many(z[1:-1]), [self.K]))
            self._table = (v, z, w)
        return self._table

    def invert(self, t: np.ndarray) -> np.ndarray:
        """Solve w_p(z) = t for each t in [0, K], vectorized.

        Each t starts inside its bracket [z_j, z_j+1] of the engine's table,
        from z interpolated linearly in v = (1-z)**(1-1/p), and takes Newton
        steps with the analytic derivative w_p' = G.  A point stops once its
        raw Newton step |f / G| is at most 5e-15: that step is accepted,
        clipped into the bracket, before any safeguard can replace it.  A
        larger step that leaves the bracket or is not finite falls back to
        bisection, so every iterate stays admissible.
        """
        t = np.asarray(t, dtype=float)
        v_tab, z_tab, w_tab = self._brackets()
        j = np.searchsorted(w_tab, t, side="right") - 1
        j = np.minimum(np.maximum(j, 0), w_tab.size - 2)
        z_lo, z_hi = z_tab[j], z_tab[j + 1]
        # for p near 1 the last nodes round to z = 1, so an edge t can land
        # in an empty interval; its start is overwritten below
        with np.errstate(invalid="ignore"):
            frac = np.clip((t - w_tab[j]) / (w_tab[j + 1] - w_tab[j]), 0.0, 1.0)
        v = v_tab[j] + frac * (v_tab[j + 1] - v_tab[j])
        z = np.clip(1.0 - v**self._v_pow, z_lo, z_hi)
        # endpoints are exact fixed points; skipping them keeps z bitwise 0/1
        low, high = t <= 0.0, t >= self.K
        z[low] = 0.0
        z[high] = 1.0
        # the live points, compacted as they converge: index into t, iterate,
        # target and bracket
        idx = np.flatnonzero(~(low | high))
        za, ta, lo, hi = z[idx], t[idx], z_lo[idx], z_hi[idx]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for _ in range(80):
                if idx.size == 0:
                    return z
                f = self.wp_many(za) - ta
                below = f < 0.0
                lo = np.where(below, za, lo)
                hi = np.where(below, hi, za)
                step = f / self._G(za)
                z_new = za - step
                done = np.abs(step) <= 5e-15
                z_new = np.where(done, np.minimum(np.maximum(z_new, lo), hi), z_new)
                bad = ~done & (~np.isfinite(z_new) | (z_new <= lo) | (z_new >= hi))
                z_new = np.where(bad, 0.5 * (lo + hi), z_new)
                done |= hi - lo <= 1e-14
                z[idx[done]] = z_new[done]
                live = ~done
                idx, za, ta, lo, hi = (a[live] for a in (idx, z_new, ta, lo, hi))
        raise NonConvergence(
            f"sn_p inversion stalled for p={self.p}, mu={self.mu}"
        )

    # -- periodic reduction and evaluation ---------------------------------

    def reduce(self, y: np.ndarray):
        """Fold y into the fundamental quarter.

        Returns (u, sign, quarter, period_index) with u in [0, K] such that
        |sn_p(y)| = sn_p(u) and sign = sgn(sn_p(y)); quarter in {0,1,2,3}
        locates y mod 4K for derivative signs.
        """
        y = np.asarray(y, dtype=float)
        fourk = 4.0 * self.K
        period = np.floor(y / fourk)
        r = y - period * fourk
        r = np.where(r < 0.0, 0.0, np.where(r >= fourk, 0.0, r))
        quarter = np.minimum(np.floor(r / self.K).astype(int), 3)
        sign = np.where(r <= 2.0 * self.K, 1.0, -1.0)
        u = np.where(r <= 2.0 * self.K, r, r - 2.0 * self.K)
        u = np.where(u > self.K, 2.0 * self.K - u, u)
        # folding r = y mod 4K rounds once, which can leave u one ulp off
        # the quarter point K; snap so endpoint evaluations stay exact
        u = np.where(np.abs(u - self.K) <= 8.0 * _EPS * self.K, self.K, u)
        return u, sign, quarter, period.astype(int)

    def deriv(self, s: np.ndarray, quarter: np.ndarray) -> np.ndarray:
        """sn_p' from s = |sn_p(y)| and the quarter of y mod 4K."""
        with np.errstate(divide="ignore"):
            A, B = self._AB(s)
        dsign = np.where((quarter == 0) | (quarter == 3), 1.0, -1.0)
        return dsign * (A * B) ** (1.0 / self.p)

    def second(self, s: np.ndarray, quarter: np.ndarray) -> np.ndarray:
        """sn_p'' from s = |sn_p(y)| and the quarter of y mod 4K; the
        chain-rule value below is the one on the rising quarter."""
        p = self.p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            A, B = self._AB(s)
            h = -(s ** (p - 1.0)) * (A * B) ** (2.0 / p - 1.0) * (B + self._mup * A)
        return np.where(quarter <= 1, h, -h)


@functools.lru_cache(maxsize=256)
def _engine(p: float, mu: float) -> _SnpEngine:
    return _SnpEngine(p, mu)


def wp(p: float, mu: float, z: float) -> float:
    """Incomplete integral w_p(z) for z in [0, 1]."""
    _validate_pmu(p, mu)
    _check_interval("z", z, 0.0, 1.0, "[]")
    if z == 0.0:
        return 0.0
    eng = _engine(p, mu)
    if z == 1.0:
        return eng.K
    return float(eng.wp_many(np.array([z]))[0])


def _snp_args(p: float, mu: float, y):
    """Input check shared by every sn_p entry point: returns the engine for
    (p, mu) and y as a flat float array, rejecting non-finite y."""
    _validate_pmu(p, mu)
    return _engine(p, mu), _check_finite("y", y).ravel()


def _snp_parts(p: float, mu: float, y):
    """Check, reduce and invert y once: (engine, s, sign, quarter) with
    s = |sn_p(y)|, sign = sgn(sn_p(y)) and quarter = the quarter of y mod
    4 K_p.  Every sn_p value and derivative is built from these, so callers
    that need several of them at the same y invert only once."""
    eng, y = _snp_args(p, mu, y)
    u, sign, quarter, _ = eng.reduce(y)
    return eng, eng.invert(u), sign, quarter


def snp(p: float, mu: float, y: float) -> float:
    """sn_p(y, mu): odd, 4 K_p-periodic, equal to the inverse of w_p on
    [0, K_p].  Scalar form of :func:`snp_many`, bit-identical to it."""
    _, s, sign, _ = _snp_parts(p, mu, [y])
    return float(sign[0] * s[0])


def snp_value(p: float, mu: float, y: float) -> SnpValue:
    """sn_p evaluation bundled with the period index used in reduction."""
    eng, ys = _snp_args(p, mu, [y])
    u, sign, _, period = eng.reduce(ys)
    value = sign * eng.invert(u)
    return SnpValue(y=y, value=float(value[0]), branch_period_index=int(period[0]))


def snp_many(p: float, mu: float, y) -> np.ndarray:
    """Vectorized sn_p over an array of y: range reduction, then a batched
    safeguarded-Newton inversion of w_p.  The result has the shape of y."""
    _, s, sign, _ = _snp_parts(p, mu, y)
    return (sign * s).reshape(np.shape(y))


def snp_deriv(p: float, mu: float, y: float) -> float:
    """d/dy sn_p(y, mu) = sgn * ((1 - s**p)(1 - mu**p s**p))**(1/p) with
    s = |sn_p(y)|; vanishes at odd multiples of K_p."""
    eng, s, _, quarter = _snp_parts(p, mu, [y])
    return float(eng.deriv(s, quarter)[0])


def snp_deriv_many(p: float, mu: float, y) -> np.ndarray:
    """Vectorized first derivative, in the shape of y."""
    eng, s, _, quarter = _snp_parts(p, mu, y)
    return eng.deriv(s, quarter).reshape(np.shape(y))


def snp_second_deriv(p: float, mu: float, y: float) -> float:
    """Second derivative of sn_p at y.

    Negative on (0, 2 K_p) and positive on (2 K_p, 4 K_p) by the odd
    periodic symmetry.  For p > 2 it diverges at odd multiples of K_p;
    evaluation within 1e-6 of such a point raises :class:`SingularPoint`.
    """
    eng, ys = _snp_args(p, mu, [y])
    u, _, quarter, _ = eng.reduce(ys)
    if p > 2.0 and abs(u[0] - eng.K) < _SING_MARGIN:
        raise SingularPoint(
            f"sn_p'' is singular at odd multiples of K_p for p = {p} "
            f"(y within {_SING_MARGIN} of one)"
        )
    return float(eng.second(eng.invert(u), quarter)[0])


def snp_second_deriv_many(p: float, mu: float, y) -> np.ndarray:
    """Vectorized second derivative; caller keeps p > 2 grids away from odd
    multiples of K_p.  The result has the shape of y."""
    eng, s, _, quarter = _snp_parts(p, mu, y)
    return eng.second(s, quarter).reshape(np.shape(y))


def jordan_margins(p: float, mu: float, y: float) -> tuple[float, float]:
    """Slack in the two-sided bound 1/K_p <= sn_p(y)/y <= 1 on (0, K_p).

    Returns (sn_p(y)/y - 1/K_p, 1 - sn_p(y)/y); both are nonnegative up to
    evaluation tolerance.
    """
    K = kp(p, mu)
    _check_interval("y", y, 0.0, K, "()")
    _, s, _, _ = _snp_parts(p, mu, [y])
    ratio = float(s[0]) / y
    return ratio - 1.0 / K, 1.0 - ratio
