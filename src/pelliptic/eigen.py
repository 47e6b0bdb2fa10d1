"""Eigenpairs of the one-dimensional p-Laplacian Schrodinger problem.

The n-th eigenfunction on (0, 1) is a scaled generalized sine,

    phi(x) = sign * 2**((p+1)/p) * n * mu * K_p(mu) * sn_p(2 n K_p(mu) x, mu),

with eigenvalue lambda = 2**p * n**p * (1 + mu**p) * K_p(mu)**p.  The pair
satisfies

    (sgn(phi') |phi'|**(p-1))' - (p-1) sgn(phi) |phi|**(2p-1)
        + lambda (p-1) sgn(phi) |phi|**(p-1) = 0

with Dirichlet boundary values, together with the first integral

    |phi'|**p - (1/2) (alpha - |phi|**p)(beta - |phi|**p) = 0,

where alpha = amplitude**p / mu**p and beta = amplitude**p are the two
roots of t**2 - 2 lambda t + 2 c**p with c = phi'(0).  Both identities
are checked numerically by the residual routines below; they exercise the
full derivative chain of sn_p rather than the algebraic shortcut, so a
wrong second-derivative formula would show up immediately.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .elliptic import _snp_parts, kp, snp
from .errors import GridTooCoarse, SingularPoint
from .errors import _check_finite, _check_int, _check_sign, _validate_pmu

__all__ = [
    "EigenPair",
    "ResidualReport",
    "eigenpair",
    "eigenfunction_eval",
    "first_integral_residual",
    "ode_residual",
]

# points closer than this (in the reduced quarter variable) to a zero of
# phi' are excluded from residual grids: the second derivative is only
# locally integrable there for p > 2, and the factor |phi'|**(p-2)
# degenerates for p < 2.  Slightly wider than the evaluator's own
# singular margin so fold round-off cannot reinstate a rejected point.
_EXCLUDE_MARGIN = 1.01e-6


@dataclass(frozen=True)
class EigenPair:
    """An eigenpair (phi_n, lambda_n), index n, sign +-1.

    ``amplitude`` is the extremal value 2**((p+1)/p) n mu K_p(mu) and
    ``lam`` the eigenvalue 2**p n**p (1 + mu**p) K_p(mu)**p.
    """

    p: float
    mu: float
    n: int
    sign: int
    amplitude: float
    lam: float

    @property
    def c(self) -> float:
        """Slope phi'(0) = amplitude * 2 n K_p (sn_p'(0) = 1)."""
        return self.amplitude * 2.0 * self.n * kp(self.p, self.mu)

    @property
    def alpha(self) -> float:
        """Larger root of t**2 - 2 lam t + 2 c**p; equals amplitude**p / mu**p."""
        return self.amplitude**self.p / self.mu**self.p

    @property
    def beta(self) -> float:
        """Smaller root of t**2 - 2 lam t + 2 c**p; equals amplitude**p."""
        return self.amplitude**self.p


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a residual sweep.

    ``grid_size`` is the number of points supplied; ``excluded_points``
    of them fell inside the singular margin and were skipped.
    """

    max_abs_residual: float
    grid_size: int
    excluded_points: int


@functools.lru_cache(maxsize=512)
def _build(p: float, mu: float, n: int, sign: int) -> EigenPair:
    K = kp(p, mu)
    base_amp = 2.0 ** ((p + 1.0) / p) * mu * K
    base_lam = (1.0 + mu**p) * (2.0 * K) ** p
    # n enters through a single final multiplication, so lam and
    # amplitude scale across n with no rounding drift
    return EigenPair(
        p=p,
        mu=mu,
        n=n,
        sign=sign,
        amplitude=n * base_amp,
        lam=float(n) ** p * base_lam,
    )


def eigenpair(p: float, mu: float, n: int, sign: int = 1) -> EigenPair:
    """Construct the n-th eigenpair with the given sign.

    The eigenfunction has n - 1 interior sign changes by construction: the
    zeros of sn_p sit at multiples of 2 K_p, so phi vanishes exactly at the
    multiples of 1/n.
    """
    # mu = 0 is excluded: alpha = amplitude**p / mu**p is 0/0 there
    _validate_pmu(p, mu, "()")
    _check_int("n", n, 1)
    _check_sign("sign", sign)
    return _build(float(p), float(mu), int(n), int(sign))


def eigenfunction_eval(e: EigenPair, x: float) -> float:
    """phi(x) = sign * amplitude * sn_p(2 n K_p x, mu), any real x."""
    y = 2.0 * e.n * kp(e.p, e.mu) * x
    return e.sign * e.amplitude * snp(e.p, e.mu, y)


def _admissible(e: EigenPair, grid) -> tuple[np.ndarray, int, int]:
    """Partition grid points by distance to the zeros of phi'.

    Returns (kept y-values, total, excluded).  phi'(x) vanishes where the
    reduced argument of sn_p hits the quarter period, i.e. at odd
    multiples of 1/(2n) in x; a margin of ``_EXCLUDE_MARGIN`` in the
    reduced variable is excluded whenever p != 2.  A NaN or infinite
    grid point is rejected, not counted as an exclusion.
    """
    xs = _check_finite("grid", grid)
    if xs.ndim != 1 or xs.size == 0:
        raise GridTooCoarse("grid must be a nonempty one-dimensional array")
    K = kp(e.p, e.mu)
    y = 2.0 * e.n * K * xs
    if e.p == 2.0:
        return y, xs.size, 0
    r = np.abs(np.mod(y, 2.0 * K))
    dist = np.abs(r - K)
    keep = dist > _EXCLUDE_MARGIN
    return y[keep], xs.size, int(xs.size - np.count_nonzero(keep))


def first_integral_residual(e: EigenPair, grid) -> ResidualReport:
    """Max deviation of |phi'|**p - (1/2)(alpha - |phi|**p)(beta - |phi|**p).

    The conserved quantity is periodic, so grid points anywhere on the
    line are folded rather than rejected.  Points within the singular
    margin of a zero of phi' are skipped and counted; if fewer than two
    admissible points remain the grid is rejected as too coarse.
    """
    y, total, excluded = _admissible(e, grid)
    if y.size < 2:
        raise GridTooCoarse(
            f"only {y.size} admissible grid points (of {total}) remain "
            "after excluding the singular margin"
        )
    p, mu = e.p, e.mu
    K = kp(p, mu)
    eng, s, _, quarter = _snp_parts(p, mu, y)
    phi = e.amplitude * s
    dphi = e.amplitude * 2.0 * e.n * K * np.abs(eng.deriv(s, quarter))
    r = dphi**p - 0.5 * (e.alpha - phi**p) * (e.beta - phi**p)
    return ResidualReport(
        max_abs_residual=float(np.max(np.abs(r))),
        grid_size=total,
        excluded_points=excluded,
    )


def ode_residual(e: EigenPair, grid) -> ResidualReport:
    """Max residual of the differential equation along the grid.

    Evaluates (p-1) [ |phi'|**(p-2) phi'' - sgn(phi) |phi|**(2p-1)
    + lam sgn(phi) |phi|**(p-1) ], with the leading product formed from
    the separately computed first and second derivatives of sn_p.  For
    p != 2 points within the singular margin of a zero of phi' are
    skipped and counted; if nothing remains, SingularPoint is raised.
    """
    y, total, excluded = _admissible(e, grid)
    if y.size == 0:
        raise SingularPoint(
            "every grid point falls within the singular margin of a "
            "zero of phi'"
        )
    p, mu = e.p, e.mu
    K = kp(p, mu)
    scale = 2.0 * e.n * K
    eng, s, sgn, quarter = _snp_parts(p, mu, y)
    phi = e.sign * e.amplitude * (sgn * s)
    d1 = e.sign * e.amplitude * scale * eng.deriv(s, quarter)
    d2 = e.sign * e.amplitude * scale**2 * eng.second(s, quarter)
    lead = np.abs(d1) ** (p - 2.0) * d2
    r = (p - 1.0) * (
        lead
        - np.sign(phi) * np.abs(phi) ** (2.0 * p - 1.0)
        + e.lam * np.sign(phi) * np.abs(phi) ** (p - 1.0)
    )
    return ResidualReport(
        max_abs_residual=float(np.max(np.abs(r))),
        grid_size=total,
        excluded_points=excluded,
    )
