"""Classical modulus-2 machinery and q-series.

This module collects the p = 2 toolkit: an AGM/Landen evaluation of
Jacobi sn (used as an independent oracle for the generalized functions),
the nome <-> modulus maps (from the nome through the Jacobi theta
constants, to it through the AGM), the Lambert series
L(beta) = sum beta^n / (1 - beta^n), the q-digamma function, an odd-index
Lambert-type sum, and the distinguished nome q0 at which
(1 - q) * sum_{n>=1} q^n/(1-q^{2n+1}) equals 1, found by bisection down to
two adjacent doubles.  The modulus mu0 associated to q0 has
1 - mu0 = 4.57e-16 (1 - 4.44e-16 in doubles).

The series stop by two rules.  The theta series stop at the first term
below an absolute 1e-16; the Lambert-type series stop at the first term
below 1e-16 * (1 + running sum).  Arguments with q > 0.99 are rejected
outright, and so is a q-digamma whose terms fall by q^x > 0.99: every
quantity of interest here lives well inside the fast-convergence zone,
and a slowly converged answer near q = 1 would be quietly wrong.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, SlowConvergence, _check_interval, _check_sign

__all__ = [
    "agm_jacobi_sn",
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


def _agm(b: float, c: float) -> tuple[float, list]:
    """AGM(1, b) and its descending Landen steps (a_n, c_n), n >= 1; the caller
    passes c = sqrt(1 - b**2), so that a small complement keeps its digits.
    It stops at c_n <= 1e-17 a_n, or at a step that leaves (a, b) as they
    were, which every step after would repeat (c_n at half an ulp of a)."""
    a, steps = 1.0, []
    while abs(c) > 1e-17 * a and len(steps) < 60:
        nxt = 0.5 * (a + b), math.sqrt(a * b)
        if nxt == (a, b):
            break
        a, b, c = *nxt, 0.5 * (a - b)
        steps.append((a, c))
    return a, steps


def agm_jacobi_sn(y: float, mu: float) -> float:
    """Jacobi sn(y, mu) by the descending Landen (AGM) recursion.

    Modulus convention: mu is the modulus itself, so the classical
    parameter is m = mu**2.  Independent of the quadrature-based path,
    which makes it a genuine cross-check for the p = 2 case.  As sn_p's
    fold does, DomainError names y where ulp(y) reaches the quarter period
    pi / (2 AGM(1, mu')) from the same AGM: neighbouring doubles a quarter
    period or more apart leave sn(y) undetermined (|y| from 2**53 at
    mu = 0.123, where the quarter period is 1.5768).
    """
    y = _check_interval("y", y, -math.inf, math.inf, "()")
    mu = _check_interval("mu", mu, 0.0, 1.0)
    a, scales = _agm(math.sqrt((1.0 - mu) * (1.0 + mu)), mu)
    _check_interval(f"y = {y!r}: ulp(y)", math.ulp(y), 0.0, 0.5 * math.pi / a)
    phi = a * y * 2.0 ** len(scales)
    for ai, ci in reversed(scales):
        arg = ci * math.sin(phi) / ai
        phi = 0.5 * (phi + math.asin(max(-1.0, min(1.0, arg))))
    return math.sin(phi)


def _theta_sums(q: float) -> tuple[float, float, float]:
    """(theta2, theta3, theta4) from one pass over q**(m*m/4), m = 1, 2, ...

    Odd m give the theta2 terms q^((n+1/2)^2), even m the theta3 terms
    q^(n^2), which signed (-1)^n are the theta4 terms.  The exponents are
    exact in binary and the terms fall with m, so stopping at the first
    term below 1e-16 cuts each series where summing it alone would.
    """
    odd, even, signed = [], [0.5], [0.5]
    m = 1
    while True:
        term = q ** (m * m / 4)
        if term < 1e-16:
            break
        if m % 2:
            odd.append(term)
        else:
            even.append(term)
            signed.append(-term if m % 4 == 2 else term)
        m += 1
    return 2.0 * math.fsum(odd), 2.0 * math.fsum(even), 2.0 * math.fsum(signed)


def modulus_from_nome(q: float) -> float:
    """Modulus mu = theta2^2 / theta3^2 as a function of the nome.

    Strictly increasing in q.  Near saturation the complement
    1 - mu = theta4^4 / (theta3^2 (theta3^2 + theta2^2)) is used (via
    theta3^4 = theta2^4 + theta4^4), which keeps mu accurate when 1 - mu
    is of the order of the double-precision spacing; if even that rounds
    to 1, the largest representable modulus below 1 is returned.
    """
    q = _check_interval("q", q, 0.0, _Q_MAX, "[]")
    t2, t3, t4 = _theta_sums(q)
    r = t2 / t3
    if r < 0.95:
        return r * r
    t22, t32 = t2**2, t3**2
    comp = t4**4 / (t32 * (t32 + t22))
    m = 1.0 - comp
    if m >= 1.0:
        m = float(np.nextafter(1.0, 0.0))
    return m


def nome_from_modulus(mu: float) -> float:
    """Nome q = exp(-pi AGM(1, mu') / AGM(1, mu)) of any double mu in [0, 1).

    The closed form of exp(-pi K(mu') / K(mu)) (DLMF 19.8.5, 22.2.1), with
    mu' = sqrt((1 - mu)(1 + mu)); it inverts :func:`modulus_from_nome`.
    """
    mu = _check_interval("mu", mu, 0.0, 1.0)
    if mu == 0.0:
        return 0.0
    muc = math.sqrt((1.0 - mu) * (1.0 + mu))
    return math.exp(-math.pi * _agm(muc, mu)[0] / _agm(mu, muc)[0])


def _powers(x: float, start: float = 1.0) -> Iterator[float]:
    """start * x, start * x^2, ... by repeated multiplication."""
    while True:
        start *= x
        yield start


def _lambert_sum(terms: Iterable[float]) -> float:
    """fsum of the positive terms up to the first below 1e-16 * (1 + running sum)."""
    kept = []
    partial = 0.0
    for term in terms:
        if term < 1e-16 * (1.0 + partial):
            break
        kept.append(term)
        partial += term
    return math.fsum(kept)


def lambert_L(beta: float) -> float:
    """Lambert series L(beta) = sum_{n>=1} beta^n / (1 - beta^n)."""
    beta = _check_interval("beta", beta, 0.0, _Q_MAX, "(]")
    return _lambert_sum(bn / (1.0 - bn) for bn in _powers(beta))


def q_digamma(q: float, x: float) -> float:
    """q-digamma psi_q(x) = -log(1-q) + log(q) sum_{n>=1} q^(n x)/(1-q^n).

    The terms fall like (q^x)^n, so the series runs about 1/x times as
    long as at x = 1; like q itself, q^x above 0.99 is refused.

    Raises
    ------
    SlowConvergence
        If q**x > 0.99.
    """
    q = _check_interval("q", q, 0.0, _Q_MAX, "(]")
    x = _check_interval("x", x, 0.0, math.inf, "()")
    if q**x > _Q_MAX:
        raise SlowConvergence(f"q**x = {q**x:.9g} > {_Q_MAX}; q-digamma series too slow")
    series = _lambert_sum(q ** (n * x) / (1.0 - q**n) for n in itertools.count(1))
    return -math.log1p(-q) + math.log(q) * series


def lambert_via_digamma(beta: float) -> float:
    """L(beta) recovered from the q-digamma: (psi_beta(1) + log(1-beta)) / log(beta)."""
    beta = _check_interval("beta", beta, 0.0, _Q_MAX, "(]")
    return (q_digamma(beta, 1.0) + math.log1p(-beta)) / math.log(beta)


def odd_lambert_sum(q: float) -> float:
    """sum_{n>=1} q^n / (1 - q^(2n+1)), summed directly.

    It equals the Lambert-series combination (L(sqrt(q)) - 2 L(q) +
    L(q^2))/sqrt(q) - 1/(1-q); :func:`solve_q0` bisects it against 1/(1-q).
    """
    q = _check_interval("q", q, 0.0, _Q_MAX, "(]")
    return _lambert_sum(
        qn / (1.0 - q2n1) for qn, q2n1 in zip(_powers(q), _powers(q * q, q))
    )


def solve_q0() -> float:
    """The unique q in (0, 1) with (1-q) sum_{n>=1} q^n/(1-q^(2n+1)) = 1.

    Bisects the sharp equation odd_lambert_sum(q) - 1/(1-q) over the
    bracket (0.5, 0.95), where it changes sign (about -0.92 at 0.5 and
    16.3 at 0.95), until its ends are adjacent doubles.  Returns the
    upper end, where the equation in floats is >= 0; at the lower end it
    is negative.  That takes 52 evaluations.
    """
    lo, hi = 0.5, 0.95
    while (q := 0.5 * (lo + hi)) not in (lo, hi):
        if odd_lambert_sum(q) - 1.0 / (1.0 - q) >= 0.0:
            hi = q
        else:
            lo = q
    return hi


def mu0() -> float:
    """The modulus whose nome solves the sharp equation, 1 - 4.44e-16; cached."""
    return _mu0()


@functools.cache
def _mu0() -> float:
    return modulus_from_nome(solve_q0())


def fraenkel_s(q: float, sign: int) -> float:
    """The scale parameter s = sign * 4 pi sqrt(q) / (1 - q), sign = +-1."""
    q = _check_interval("q", q, 0.0, _Q_MAX, "(]")
    sign = _check_sign("sign", sign)
    return sign * 4.0 * math.pi * math.sqrt(q) / (1.0 - q)
