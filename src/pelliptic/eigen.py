"""Eigenpairs of the one-dimensional p-Laplacian Schrodinger problem.

The n-th eigenfunction on (0, 1) is a scaled generalized sine,

    phi(x) = sign * 2**((p+1)/p) * n * mu * K_p(mu) * sn_p(2 n K_p(mu) x, mu),

with eigenvalue lambda = 2**p * n**p * (1 + mu**p) * K_p(mu)**p.  The pair
satisfies

    (sgn(phi') |phi'|**(p-1))' - (p-1) sgn(phi) |phi|**(2p-1)
        + lambda (p-1) sgn(phi) |phi|**(p-1) = 0

with Dirichlet boundary values, together with the first integral

    |phi'|**p - (1/2) (alpha - |phi|**p)(beta - |phi|**p) = 0,

where alpha = amplitude**p / mu**p = 2 lambda / (1 + mu**p) and
beta = amplitude**p are the two roots of t**2 - 2 lambda t + 2 c**p with
c = phi'(0).  The residual routines below evaluate both identities on a
grid, with sn_p' and sn_p'' from the chain-rule formulas of
:mod:`elliptic` at s = |sn_p|.  Built that way, both are identities in
s: they hold for every s in [0, 1], so they cannot see an error in the
inversion that produced s (scaling every s by 1 + 1e-3 sin 7t leaves
them unchanged).  They check the derivative formulas, the signs the fold
assigns, and rounding; the sn_p values themselves are checked against
scipy's Jacobi sn and 30-digit mpmath in the tests.

A residual routine folds its grid once, through the checked fold of every
sn_p entry point; for p != 2 it drops the points where the singular test
that snp_second_deriv raises on holds, and inverts only the kept ones.
For p < 2 the ODE residual also drops the kept points where sn_p'
rounds to 0, where |phi'|**(p-2) phi'' would be 0 * inf.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .elliptic import _fold, _kp, kp, snp
from .errors import DomainError, GridTooCoarse, SingularPoint
from .errors import _check_finite, _check_int, _check_interval, _check_sign
from .errors import _validate_pmu

__all__ = [
    "EigenPair",
    "ResidualReport",
    "eigenpair",
    "eigenfunction_eval",
    "first_integral_residual",
    "ode_residual",
]

# the largest mode number n: n meets only float arithmetic, so it may pass
# numpy's index range, and past the largest double its eigenvalue
# overflows in any case
_N_MAX = int(sys.float_info.max)


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
        """Larger root of t**2 - 2 lam t + 2 c**p; equals amplitude**p / mu**p,
        formed as 2 lam / (1 + mu**p), where no underflow of mu**p divides."""
        return 2.0 * self.lam / (1.0 + self.mu**self.p)

    @property
    def beta(self) -> float:
        """Smaller root of t**2 - 2 lam t + 2 c**p; equals amplitude**p."""
        return self.amplitude**self.p


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a residual sweep.

    ``grid_size`` is the number of points supplied; ``excluded_points``
    of them fell inside the singular margin (or, for the ODE residual at
    p < 2, had sn_p' rounded to 0) and were skipped.
    """

    max_abs_residual: float
    grid_size: int
    excluded_points: int


@functools.lru_cache(maxsize=512)
def _build(p: float, mu: float, n: int, sign: int) -> EigenPair:
    K = _kp(p, mu)
    base_amp = 2.0 ** ((p + 1.0) / p) * mu * K
    # n enters through a single final multiplication, so lam and
    # amplitude scale across n with no rounding drift.  A float ** that
    # overflows raises, a product that overflows gives inf; the amplitude,
    # 2**(1/p) mu (2 n K), is below lam whenever lam is finite
    try:
        lam = float(n) ** p * ((1.0 + mu**p) * (2.0 * K) ** p)
    except OverflowError:
        lam = math.inf
    if lam == math.inf:
        raise DomainError(
            f"the eigenvalue lambda overflows a double at p={p}, mu={mu}, n={n}"
        )
    return EigenPair(p=p, mu=mu, n=n, sign=sign, amplitude=n * base_amp, lam=lam)


def eigenpair(p: float, mu: float, n: int, sign: int = 1) -> EigenPair:
    """Construct the n-th eigenpair with the given sign.

    The eigenfunction has n - 1 interior sign changes by construction: the
    zeros of sn_p sit at multiples of 2 K_p, so phi vanishes exactly at the
    multiples of 1/n.
    """
    # mu = 0 is excluded: the amplitude, 2**((p+1)/p) n mu K_p, is 0 there
    # and phi vanishes identically
    p, mu = _validate_pmu(p, mu, "()")
    n = _check_int("n", n, 1, hi=_N_MAX)
    return _build(p, mu, n, _check_sign("sign", sign))


def eigenfunction_eval(e: EigenPair, x: float) -> float:
    """phi(x) = sign * amplitude * sn_p(y, mu), y = 2 n K_p x, for every
    real x at which sn_p can fold y, ulp(y) < K_p: |x| up to about
    2**51 / n, whatever K_p.  Any other x, NaN, infinities and arrays
    included, raises :class:`DomainError` naming x."""
    x = _check_interval("x", x, -math.inf, math.inf, "()")
    K = kp(e.p, e.mu)
    y = 2.0 * e.n * K * x
    if not math.ulp(y) < K:
        _check_interval(f"x = {x}: ulp(2 n K_p x)", math.ulp(y), 0.0, K)
    return e.sign * e.amplitude * snp(e.p, e.mu, y)


def _admissible(e: EigenPair, grid):
    """Fold y = 2 n K_p x once over the grid and drop the zeros of phi'.

    Returns (keep, engine, u, sign, quarter): ``keep`` marks the grid
    points kept, the rest is :func:`elliptic._fold` at those points.
    phi' vanishes where u hits K_p, at odd multiples of 1/(2n) in x; for
    p != 2 the engine's singular test (u within 1e-6 of K_p) excludes a
    point, as sn_p'' is only locally integrable there for p > 2 and
    |phi'|**(p-2) degenerates for p < 2.  A NaN or infinite grid point is
    rejected, not counted as an exclusion.
    """
    xs = _check_finite("grid", grid)
    if xs.ndim != 1 or xs.size == 0:
        raise GridTooCoarse("grid must be a nonempty one-dimensional array")
    eng, u, sign, quarter, _ = _fold(e.p, e.mu, 2.0 * e.n * kp(e.p, e.mu) * xs)
    keep = np.ones(xs.size, bool) if e.p == 2.0 else ~eng.singular(u)
    return keep, eng, u[keep], sign[keep], quarter[keep]


def _residual_report(r: np.ndarray, keep: np.ndarray) -> ResidualReport:
    return ResidualReport(
        max_abs_residual=float(np.abs(r).max()),
        grid_size=keep.size,
        excluded_points=int(keep.size - np.count_nonzero(keep)),
    )


def first_integral_residual(e: EigenPair, grid) -> ResidualReport:
    """Max deviation of |phi'|**p - (1/2)(alpha - |phi|**p)(beta - |phi|**p).

    The conserved quantity is periodic, so grid points anywhere on the
    line are folded rather than rejected.  Points within the singular
    margin of a zero of phi' are skipped and counted; if fewer than two
    admissible points remain the grid is rejected as too coarse.
    """
    keep, eng, u, _, _ = _admissible(e, grid)
    if u.size < 2:
        raise GridTooCoarse(
            f"only {u.size} admissible grid points (of {keep.size}) remain "
            "after excluding the singular margin"
        )
    p = e.p
    s = eng.invert(u)
    phip = (e.amplitude * s) ** p
    # |sn_p'| is sn_p' on the rising quarter 0
    dphi = e.amplitude * 2.0 * e.n * eng.K * eng.deriv(s, 0)
    r = dphi**p - 0.5 * (e.alpha - phip) * (e.beta - phip)
    return _residual_report(r, keep)


def ode_residual(e: EigenPair, grid) -> ResidualReport:
    """Max residual of the differential equation along the grid.

    Evaluates (p-1) [ |phi'|**(p-2) phi'' - sgn(phi) |phi|**(2p-1)
    + lam sgn(phi) |phi|**(p-1) ], with the leading product formed from
    the separately computed first and second derivatives of sn_p.  For
    p != 2 points within the singular margin of a zero of phi' are
    skipped and counted; for p < 2 so are the kept points where sn_p'
    rounds to 0.  If nothing remains, SingularPoint is raised.
    """
    keep, eng, u, sgn, quarter = _admissible(e, grid)
    p = e.p
    scale = 2.0 * e.n * eng.K
    s = eng.invert(u)
    d1 = e.sign * e.amplitude * scale * eng.deriv(s, quarter)
    if p < 2.0:  # |phi'|**(p-2) phi'' is 0 * inf where sn_p' rounds to 0
        live = d1 != 0.0
        keep[keep] = live
        s, sgn, quarter, d1 = s[live], sgn[live], quarter[live], d1[live]
    if s.size == 0:
        raise SingularPoint(
            "every grid point falls within the singular margin of a "
            "zero of phi'"
        )
    phi = e.sign * e.amplitude * (sgn * s)
    d2 = e.sign * e.amplitude * scale**2 * eng.second(s, quarter)
    lead = np.abs(d1) ** (p - 2.0) * d2
    r = (p - 1.0) * (
        lead
        - np.sign(phi) * np.abs(phi) ** (2.0 * p - 1.0)
        + e.lam * np.sign(phi) * np.abs(phi) ** (p - 1.0)
    )
    return _residual_report(r, keep)
