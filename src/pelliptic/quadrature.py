"""Deterministic tanh-sinh quadrature and bracketed root finding.

The integration engine targets integrals on [0, 1] whose integrand factors as
``smooth(s) * s**a * (1-s)**b`` with algebraic endpoint exponents a, b in
(-1, 0].  The double-exponential substitution s = (1 + tanh((pi/2) sinh t))/2
turns the trapezoid rule in t into a geometrically convergent scheme even when
the integrand blows up at an endpoint.

One batched routine runs the level loop for every integral in the package:
the generic :func:`integrate_singular` here, and the w_p, tau_k and profile
norm integrals elsewhere.  It halves the step level by level and evaluates
the caller's smooth factor once per level on that level's new nodes, for
one integrand or a batch of rows at once.  From level 2 on, a row stops
when the running minimum of the differences between successive levels,
plus a truncation allowance taken from the outermost node pair, drops to
``tol * max(1, |value|)``; that sum is the row's error estimate, floored
at the spacing of the value.

Endpoint distances are taken directly from the transform: 1-s is formed from
exponentials, never by subtracting s from 1, so the endpoint power factors
keep full precision down to distances of order 1e-300.  The smooth factor
receives both s and the exact 1-s, so integrands with thin boundary layers
(scale well below 1e-16 next to an endpoint) never have to reconstruct the
endpoint distance by subtraction.

Everything here is pure floating point arithmetic in a fixed evaluation
order, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidExponent,
    MaxIterations,
    NonConvergence,
    NoSignChange,
)

__all__ = [
    "QuadratureResult",
    "SingularIntegrand",
    "integrate_singular",
    "bracketed_root",
]

# Node layout: trapezoid steps h = _H0 / 2**level, |t| <= _T_MAX.  At
# _T_MAX the endpoint distance 1-s is ~1e-305, still a normal double, so
# declared exponents down to about -0.93 lose nothing to truncation.  The
# cumulative node count at _MAX_LEVEL stays close to 2**15 evaluations.
_T_MAX = 6.1
_H0 = 1.0
_MAX_LEVEL = 11
_MIN_LEVEL = 2
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with the engine's own error assessment.

    Attributes
    ----------
    value : float
        The computed integral.
    abs_error_estimate : float
        Estimated absolute error, the running minimum of successive
        refinement differences plus a truncation allowance for the node
        window.  Never negative.
    nodes_used : int
        Number of smooth-part evaluations performed.
    """

    value: float
    abs_error_estimate: float
    nodes_used: int


@dataclass(frozen=True)
class SingularIntegrand:
    """Integrand ``smooth_part(s, 1-s) * s**a * (1-s)**b`` on [0, 1].

    ``smooth_part`` is called as ``smooth_part(s, cs)`` where ``cs`` is the
    exact endpoint distance 1-s carried by the transform; use ``cs`` instead
    of computing ``1 - s``, which is quantized to about 1e-16 near s = 1.
    It must be bounded on [0, 1] and should accept numpy arrays; scalar-only
    callables are handled through a slow per-point fallback.  The exponents
    a (left) and b (right) must lie in (-1, 0]; they carry the entire
    endpoint singularity.
    """

    smooth_part: Callable[[np.ndarray, np.ndarray], np.ndarray]
    left_exponent: float = 0.0
    right_exponent: float = 0.0

    def __post_init__(self) -> None:
        for name, ex in (("left", self.left_exponent), ("right", self.right_exponent)):
            if not (-1.0 < ex <= 0.0):
                raise InvalidExponent(
                    f"{name} exponent {ex} outside (-1, 0]; the integral "
                    "diverges or the factor is not a singularity"
                )


class _Level:
    """Transform data for the new nodes of one refinement level.

    ``x`` holds the right cluster s, then the left cluster 1-s (level 0
    ends with the centre 1/2); ``cx`` holds the exact complements 1-x and
    ``picosh`` the transform weights pi cosh t.
    """

    __slots__ = ("x", "cx", "picosh")

    def __init__(self, x: np.ndarray, cx: np.ndarray, picosh: np.ndarray):
        self.x = x
        self.cx = cx
        self.picosh = picosh


_LEVELS: list[_Level] = []


def _ts_levels() -> Sequence[_Level]:
    """Node tables, built once.  Level 0 holds multiples of _H0, level k>0
    the odd multiples of _H0/2**k, all restricted to t in (0, _T_MAX]."""
    if not _LEVELS:
        for lev in range(_MAX_LEVEL + 1):
            h = _H0 / 2.0**lev
            if lev == 0:
                ks = np.arange(1, int(_T_MAX / h) + 1)
            else:
                ks = np.arange(1, int(_T_MAX / h) + 1, 2)
            t = ks * h
            u = 0.5 * np.pi * np.sinh(t)
            e = np.exp(-2.0 * u)
            s = 1.0 / (1.0 + e)
            oms = e / (1.0 + e)
            picosh = np.pi * np.cosh(t)
            x, cx, w = [s, oms], [oms, s], [picosh, picosh]
            if lev == 0:
                x.append([0.5])
                cx.append([0.5])
                w.append([np.pi])
            _LEVELS.append(
                _Level(np.concatenate(x), np.concatenate(cx), np.concatenate(w))
            )
    return _LEVELS


def _tanh_sinh(F: Callable, ea: float, eb: float, tol: float):
    """Integrate F * x**(ea-1) * (1-x)**(eb-1) over [0, 1], row by row.

    ``F(lev, x, cx)`` receives the nodes of refinement level ``lev`` and
    their exact complements and returns shape ``(n,)`` or ``(rows, n)``;
    ``eb`` may be a ``(rows, 1)`` column, one right exponent per row.
    A row stops at the first level (from level 2 on) where the running
    minimum of successive-level differences plus the truncation allowance
    of the outermost node pair is at most ``tol * max(1, |value|)``, and
    keeps that level's value, so its result does not depend, to the last
    bit, on the other rows or on how many there are.  The relative part of
    the test keeps it above the rounding noise of large values, such as
    K_p near mu = 1.  :class:`NonConvergence` is raised when the levels
    run out, or at level 2 if a row's truncation allowance alone exceeds
    twice its target, which no refinement can mend.  Returns (value,
    abs_error_estimate, nodes_used); the estimate is floored at the spacing
    of the value.
    """
    if np.ndim(eb):
        # one power per distinct exponent, taken with a float exponent as a
        # row alone takes it: numpy's power has shortcuts (sqrt at 0.5) for
        # a scalar exponent that it does not apply to every element of a
        # broadcast column
        eb_vals, eb_row = np.unique(np.ravel(eb), return_inverse=True)
        right = lambda cx: np.stack([cx ** float(v) for v in eb_vals])[eb_row]
    else:
        right = lambda cx: cx**eb
    nodes = 0
    with np.errstate(divide="ignore"):
        for lev, L in enumerate(_ts_levels()):
            terms = F(lev, L.x, L.cx) * (L.picosh * L.x**ea * right(L.cx))
            nodes += L.x.size
            if lev == 0:
                # one column per level: each row sums its own levels, in
                # the same order as a row computed alone
                sums = np.zeros(terms.shape[:-1] + (_MAX_LEVEL + 1,))
            sums[..., lev] = np.sum(terms, axis=-1)
            value = (_H0 / 2.0**lev) * np.sum(sums[..., : lev + 1], axis=-1)
            if lev == 0:
                m = L.x.size // 2
                trunc = np.abs(terms[..., m - 1]) + np.abs(terms[..., 2 * m - 1])
                best = np.full_like(value, math.inf)
                out, err = value, best
                done = np.zeros(value.shape, dtype=bool)
            elif lev >= _MIN_LEVEL:
                target = tol * np.maximum(1.0, np.abs(value))
                best = np.minimum(best, np.abs(value - prev))
                ok = best + trunc <= target
                fresh = ok & ~done
                out = np.where(fresh, value, out)
                err = np.where(fresh, best + trunc, err)
                done |= ok
                if np.all(done):
                    return out, np.maximum(err, np.spacing(np.abs(out))), nodes
                # the truncation allowance is fixed at level 0, so a row it
                # alone puts well above its target can never stop
                if lev == _MIN_LEVEL and (trunc > 2.0 * target).any():
                    break
            prev = value
    raise NonConvergence(
        f"tanh-sinh refinement stopped after {nodes} nodes with error estimate "
        f"{np.max(best[~done] + trunc[~done]):.3e} above tol {tol:.3e}"
    )


def _as_batch(fn: Callable) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Evaluate fn on node arrays, falling back to a python loop for
    scalar-only callables."""

    def call(arr: np.ndarray, comp: np.ndarray) -> np.ndarray:
        try:
            with warnings.catch_warnings():
                # size-1 arrays squeeze through scalar-only callables with a
                # deprecation warning instead of a TypeError; route them to
                # the loop as well
                warnings.simplefilter("error", DeprecationWarning)
                out = np.asarray(fn(arr, comp), dtype=float)
        except (TypeError, ValueError, DeprecationWarning):
            out = np.array([float(fn(x, c)) for x, c in zip(arr, comp)])
        if out.shape != arr.shape:
            out = np.array([float(fn(x, c)) for x, c in zip(arr, comp)])
        return out

    return call


def integrate_singular(f: SingularIntegrand, tol: float = 1e-12) -> QuadratureResult:
    """Integrate ``smooth(s, 1-s) * s**a * (1-s)**b`` over [0, 1].

    Parameters
    ----------
    f : SingularIntegrand
        Integrand description; exponents in (-1, 0].
    tol : float
        Target error: absolute for integrals of magnitude up to 1, relative
        beyond.  The engine refines until its error estimate drops to
        ``tol * max(1, |value|)`` and raises :class:`NonConvergence` if the
        node budget runs out first or the truncation of the node window
        alone exceeds the target.

    Returns
    -------
    QuadratureResult

    Notes
    -----
    The reported estimate is monotone under tol refinement: asking for a
    smaller tol never yields a larger ``abs_error_estimate`` for the same
    integrand.  It is never below the spacing of the value.
    """
    if not (tol >= 1e-14) or not math.isfinite(tol):
        raise DomainError(f"tol must be a finite number >= 1e-14, got {tol}")
    smooth = _as_batch(f.smooth_part)
    value, err, nodes = _tanh_sinh(
        lambda lev, x, cx: smooth(x, cx),
        1.0 + f.left_exponent,
        1.0 + f.right_exponent,
        tol,
    )
    return QuadratureResult(
        value=float(value), abs_error_estimate=float(err), nodes_used=nodes
    )


def bracketed_root(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 300,
) -> float:
    """Find a root of g in [lo, hi] given a sign change.

    Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) keeps the best point ``b`` and the point
    ``c`` across the sign change from it.  Each step interpolates (inverse
    quadratic, or secant with two points) and bisects instead when the
    proposal leaves the bracket or fails to halve the step of two
    iterations before; no step is shorter than ``tol / 4 + 2 eps |b|``,
    where eps is the double epsilon, so a root far from 0 is still
    reached in steps the spacing of the doubles can take.  Convergence
    is superlinear at a smooth simple root and takes at most about k**2
    evaluations, where bisection takes k = log2((hi - lo) / tol).  Every
    evaluated point lies in [lo, hi]; once ``|c - b| <= tol + 4 eps |b|``
    the midpoint of b and c is returned.

    Raises
    ------
    NoSignChange
        If g(lo) and g(hi) have the same (nonzero) sign.
    MaxIterations
        If the bracket fails to reach ``tol`` within ``max_iter`` steps.
    """
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    flo = float(g(lo))
    fhi = float(g(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(f"g({lo}) = {flo} and g({hi}) = {fhi} have equal signs")

    a, fa = lo, flo  # the previous b
    b, fb = hi, fhi
    c, fc = lo, flo
    d = e = hi - lo  # the last step and the one before it
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        slack = 2.0 * _EPS * abs(b)
        if abs(c - b) <= tol + 2.0 * slack:
            return 0.5 * (b + c)
        m = 0.5 * (c - b)
        min_step = 0.25 * tol + slack
        if abs(e) >= min_step and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                num, den = 2.0 * m * s, 1.0 - s
            else:
                r, t = fa / fc, fb / fc
                num = s * (2.0 * m * r * (r - t) - (b - a) * (t - 1.0))
                den = (r - 1.0) * (t - 1.0) * (s - 1.0)
            num, den = abs(num), (-den if num > 0.0 else den)
            if 2.0 * num < min(3.0 * m * den - abs(min_step * den), abs(e * den)):
                e, d = d, num / den
            else:
                e = d = m
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > min_step else math.copysign(min_step, m)
        fb = float(g(b))
        if fb == 0.0:
            return b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise MaxIterations(
        f"bracket still {abs(c - b):.3e} wide after {max_iter} iterations "
        f"(tol {tol:.3e})"
    )
