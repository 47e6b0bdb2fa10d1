"""Classical modulus-2 machinery and q-series.

This module collects the p = 2 toolkit: an AGM/Landen evaluation of
Jacobi sn (used as an independent oracle for the generalized functions),
Jacobi theta constants, the nome <-> modulus maps, the Lambert series
L(beta) = sum beta^n / (1 - beta^n), the q-digamma function, an odd-index
Lambert-type sum, and the solver for the distinguished nome q0 at which
(1 - q) * sum_{n>=1} q^n/(1-q^{2n+1}) equals 1.  The modulus mu0
associated to q0 lies within 1e-7 of 1.

All series stop once the next term falls below 1e-16 relative to the
running sum.  Arguments with q > 0.99 are rejected outright: every
quantity of interest here lives well inside the fast-convergence zone,
and a slowly converged answer near q = 1 would be quietly wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, _check_interval, _check_sign
from .quadrature import bracketed_root

__all__ = [
    "ThetaConstants",
    "agm_jacobi_sn",
    "theta_constants",
    "modulus_from_nome",
    "nome_from_modulus",
    "lambert_L",
    "q_digamma",
    "lambert_via_digamma",
    "odd_lambert_sum",
    "solve_q0",
    "mu0",
    "fraenkel_s",
]

# series cutoff: beyond this the geometric tails are no longer "fast"
_Q_MAX = 0.99


@dataclass(frozen=True)
class ThetaConstants:
    """Theta constants at argument zero for a given nome.

    ``terms_used`` is the largest series index summed before truncation.
    """

    q: float
    theta2: float
    theta3: float
    terms_used: int


def agm_jacobi_sn(y: float, mu: float) -> float:
    """Jacobi sn(y, mu) by the descending Landen (AGM) recursion.

    Modulus convention: mu is the modulus itself, so the classical
    parameter is m = mu**2.  Independent of the quadrature-based path,
    which makes it a genuine cross-check for the p = 2 case.
    """
    _check_interval("y", y, -math.inf, math.inf, "()")
    _check_interval("mu", mu, 0.0, 1.0)
    a, b, c = 1.0, math.sqrt((1.0 - mu) * (1.0 + mu)), mu
    scales = []
    while abs(c) > 1e-17 * a and len(scales) < 60:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        scales.append((a, c))
    phi = a * y * 2.0 ** len(scales)
    for ai, ci in reversed(scales):
        arg = ci * math.sin(phi) / ai
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, arg))))
    return math.sin(phi)


def theta_constants(q: float) -> ThetaConstants:
    """Theta constants theta2 = 2 sum q^((n+1/2)^2), theta3 = 1 + 2 sum q^(n^2).

    Terms are added until the next one drops below 1e-16.
    """
    _check_interval("q", q, 0.0, _Q_MAX, "[]")
    if q == 0.0:
        return ThetaConstants(q=q, theta2=0.0, theta3=1.0, terms_used=0)
    t2_terms = []
    n = 0
    while True:
        term = q ** ((n + 0.5) ** 2)
        if term < 1e-16:
            break
        t2_terms.append(term)
        n += 1
    n2 = n
    t3_terms = [0.5]
    n = 1
    while True:
        term = q ** (n * n)
        if term < 1e-16:
            break
        t3_terms.append(term)
        n += 1
    theta2 = 2.0 * math.fsum(t2_terms)
    theta3 = 2.0 * math.fsum(t3_terms)
    return ThetaConstants(q=q, theta2=theta2, theta3=theta3, terms_used=max(n2, n))


def _theta4(q: float) -> float:
    """theta4 = 1 + 2 sum (-1)^n q^(n^2); used by the complement branch."""
    terms = [0.5]
    n = 1
    while True:
        term = q ** (n * n)
        if term < 1e-16:
            break
        terms.append(term if n % 2 == 0 else -term)
        n += 1
    return 2.0 * math.fsum(terms)


def modulus_from_nome(q: float) -> float:
    """Modulus mu = theta2^2 / theta3^2 as a function of the nome.

    Strictly increasing in q.  Near saturation the complement
    1 - mu = theta4^4 / (theta3^2 (theta3^2 + theta2^2)) is used (via
    theta3^4 = theta2^4 + theta4^4), which keeps mu accurate when 1 - mu
    is of the order of the double-precision spacing; if even that rounds
    to 1, the largest representable modulus below 1 is returned.
    """
    tc = theta_constants(q)
    r = tc.theta2 / tc.theta3
    if r < 0.95:
        return r * r
    t4 = _theta4(q)
    t22, t32 = tc.theta2**2, tc.theta3**2
    comp = t4**4 / (t32 * (t32 + t22))
    m = 1.0 - comp
    if m >= 1.0:
        m = float(np.nextafter(1.0, 0.0))
    return m


def nome_from_modulus(mu: float) -> float:
    """Inverse of :func:`modulus_from_nome` by bracketed root finding.

    The bracket is [0, 0.98]: the theta series reject q > 0.99, and every
    modulus this function accepts has its nome far below that.  For
    mu >= 1 - 1e-9 the inversion is refused outright, because the map
    saturates in double precision there and any answer would be a guess.
    """
    _check_interval("mu", mu, 0.0, 1.0)
    if mu >= 1.0 - 1e-9:
        raise NonConvergence(
            f"modulus {mu} is too close to 1: the nome map saturates in "
            "double precision before reaching it"
        )
    if mu == 0.0:
        return 0.0
    return bracketed_root(lambda q: modulus_from_nome(q) - mu, 0.0, 0.98, tol=1e-13)


def lambert_L(beta: float) -> float:
    """Lambert series L(beta) = sum_{n>=1} beta^n / (1 - beta^n)."""
    _check_interval("beta", beta, 0.0, _Q_MAX, "(]")
    terms = []
    partial = 0.0
    bn = 1.0
    while True:
        bn *= beta
        term = bn / (1.0 - bn)
        if term < 1e-16 * (1.0 + partial):
            break
        terms.append(term)
        partial += term
    return math.fsum(terms)


def q_digamma(q: float, x: float) -> float:
    """q-digamma psi_q(x) = -log(1-q) + log(q) sum_{n>=1} q^(n x)/(1-q^n)."""
    _check_interval("q", q, 0.0, _Q_MAX, "(]")
    _check_interval("x", x, 0.0, math.inf, "()")
    terms = []
    partial = 0.0
    n = 1
    while True:
        term = q ** (n * x) / (1.0 - q**n)
        if term < 1e-16 * (1.0 + partial):
            break
        terms.append(term)
        partial += term
        n += 1
    return -math.log1p(-q) + math.log(q) * math.fsum(terms)


def lambert_via_digamma(beta: float) -> float:
    """L(beta) recovered from the q-digamma: (psi_beta(1) + log(1-beta)) / log(beta)."""
    _check_interval("beta", beta, 0.0, _Q_MAX, "(]")
    return (q_digamma(beta, 1.0) + math.log1p(-beta)) / math.log(beta)


def odd_lambert_sum(q: float) -> float:
    """sum_{n>=1} q^n / (1 - q^(2n+1)), summed directly.

    It equals the Lambert-series combination (L(sqrt(q)) - 2 L(q) +
    L(q^2))/sqrt(q) - 1/(1-q), which :func:`_sharp_equation` uses.
    """
    _check_interval("q", q, 0.0, _Q_MAX, "(]")
    terms = []
    partial = 0.0
    qn = 1.0
    q2n1 = q
    q2 = q * q
    while True:
        qn *= q
        q2n1 *= q2
        term = qn / (1.0 - q2n1)
        if term < 1e-16 * (1.0 + partial):
            break
        terms.append(term)
        partial += term
    return math.fsum(terms)


def _sharp_equation(q: float) -> float:
    """F(q) = (L(sqrt(q)) - 2 L(q) + L(q^2)) / sqrt(q) - 2/(1-q).

    Vanishes exactly when (1-q) sum_{n>=1} q^n/(1-q^(2n+1)) = 1.
    """
    rq = math.sqrt(q)
    return (lambert_L(rq) - 2.0 * lambert_L(q) + lambert_L(q * q)) / rq - 2.0 / (
        1.0 - q
    )


def solve_q0(tol: float) -> float:
    """The unique q in (0, 1) with (1-q) sum_{n>=1} q^n/(1-q^(2n+1)) = 1.

    Root of the sharp equation in the bracket (0.5, 0.95), where it
    changes sign (about -0.92 at 0.5 and 16.3 at 0.95).
    """
    _check_interval("tol", tol, 1e-12, math.inf)
    return bracketed_root(_sharp_equation, 0.5, 0.95, tol=tol)


_mu0_cache: dict = {}


def mu0() -> float:
    """The modulus whose nome solves the sharp equation; cached.

    Lies within 1e-7 of 1 (in double precision, within a few spacing
    units of 1) while remaining strictly below it.  The cache is
    write-once: concurrent first calls compute the same deterministic
    value, so the race is benign.
    """
    if "mu0" not in _mu0_cache:
        _mu0_cache["mu0"] = modulus_from_nome(solve_q0(1e-12))
    return _mu0_cache["mu0"]


def fraenkel_s(q: float, sign: int) -> float:
    """The scale parameter s = sign * 4 pi sqrt(q) / (1 - q), sign = +-1."""
    _check_interval("q", q, 0.0, _Q_MAX, "(]")
    _check_sign("sign", sign)
    return sign * 4.0 * math.pi * math.sqrt(q) / (1.0 - q)
