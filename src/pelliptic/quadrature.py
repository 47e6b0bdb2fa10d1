"""Deterministic tanh-sinh quadrature and bracketed root finding.

The integration engine targets integrals on [0, 1] whose integrand factors as
``smooth(s) * s**a * (1-s)**b`` with algebraic endpoint exponents a, b in
(-1, 0].  The double-exponential substitution s = (1 + tanh((pi/2) sinh t))/2
turns the trapezoid rule in t into a geometrically convergent scheme even when
the integrand blows up at an endpoint.

One batched routine runs the level loop for every integral in the package:
the generic :func:`integrate_singular` here, and the K_p rows and the profile
integrals behind tau_k elsewhere.  It halves the step level by level, for one
integrand or a batch of rows at once, with one pair of endpoint exponents
shared by every row.  The rule fixes every
node in advance (Takahasi & Mori, 1974), so all of them live in one table,
built once, with each level's new nodes after those of the level before.  The
caller's smooth factor is evaluated once on the table's prefix of levels 0-4,
the block, and then once per level on that level's slice.  From level 2 on, a
row stops when the running minimum of the differences between successive
levels, plus a truncation allowance taken from the outermost node pair, drops
to ``tol * max(1, |value|)``; that sum is the row's error estimate, floored
at the spacing of the value.  The stop test runs level by level on the
block's slices as on the later levels, so a row's value does not depend on
the block.  A stopped row drops out: after the block the smooth factor is
asked only for the rows still live, so a batch evaluates each row through the
block, or through its own stop level if that comes later, as if it ran alone.

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

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidExponent, MaxIterations, NonConvergence, NoSignChange
from .errors import _check_interval

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
# Last level of the block: F is asked once for the nodes of levels
# 0.._BLOCK_LEVEL together (195 nodes), then level by level.  Below a few
# hundred nodes a numpy call costs about the same at any length, and most
# K_p rows stop at level 4 or 5.  The kp_scan benchmark (seed 5, medians
# of five 50 s runs, one core) ran 391, 441 and 430 tasks/s with blocks
# through levels 3, 4 and 5: through level 5, a row that stops at level 4
# pays for 196 nodes it does not use.
_BLOCK_LEVEL = 4
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
        Number of nodes in the levels the stop test used, through the
        level where it stopped.  The smooth part is evaluated on at least
        the 195 nodes of levels 0-4, so a constant at tol 1e-12 reports
        97 nodes (levels 0-3) for 195 evaluations.
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


@functools.cache
def _ts_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """The node table, built once: (x, cx, picosh, cuts), cuts a tuple of ints.

    Level k's new nodes sit at ``cuts[k]:cuts[k+1]``, levels 0.._MAX_LEVEL
    in order, so the block of levels 0.._BLOCK_LEVEL is the prefix
    ``[:cuts[_BLOCK_LEVEL + 1]]``.  Level 0 holds the multiples of _H0,
    level k > 0 the odd multiples of _H0/2**k, all with t in (0, _T_MAX].
    Within a level, ``x`` holds the right cluster s, then the left cluster
    1-s (level 0 ends with the centre 1/2); ``cx`` holds the exact
    complements 1-x and ``picosh`` the transform weights pi cosh t.
    """
    x, cx, w, cuts = [], [], [], [0]
    for lev in range(_MAX_LEVEL + 1):
        h = _H0 / 2.0**lev
        t = np.arange(1, int(_T_MAX / h) + 1, 1 if lev == 0 else 2) * h
        u = 0.5 * np.pi * np.sinh(t)
        e = np.exp(-2.0 * u)
        s = 1.0 / (1.0 + e)
        oms = e / (1.0 + e)
        picosh = np.pi * np.cosh(t)
        x += [s, oms]
        cx += [oms, s]
        w += [picosh, picosh]
        if lev == 0:
            x.append([0.5])
            cx.append([0.5])
            w.append([np.pi])
        cuts.append(cuts[-1] + 2 * t.size + (lev == 0))
    return np.concatenate(x), np.concatenate(cx), np.concatenate(w), tuple(cuts)


def _tanh_sinh(F: Callable, ea: float, eb: float, tol: float):
    """Integrate F * x**(ea-1) * (1-x)**(eb-1) over [0, 1], row by row.

    ``F(lev, x, cx, rows)`` receives nodes, their exact complements and
    the rows still live, and returns its factor on those rows only: shape
    ``(n,)`` for a single integrand, which ignores ``rows``, or
    ``(live rows, n)``.  ``x`` and ``cx`` are views of the node table of
    :func:`_ts_nodes`, which F must not write to.  The first call is the
    block: ``lev`` is ``_BLOCK_LEVEL``, ``x`` the table's prefix
    ``[:cuts[_BLOCK_LEVEL + 1]]``, the nodes of levels 0.._BLOCK_LEVEL in
    level order, and ``rows`` ``slice(None)``.  Each later call brings
    ``[cuts[lev]:cuts[lev + 1]]``, the nodes of the one level ``lev``, and
    ``rows`` is ``slice(None)`` while every row is live, then an increasing
    index array into the rows F returned in the block.  The weight
    exponents ``ea`` and ``eb`` are floats shared by every row.
    A row stops at the first level (from level 2 on) where the running
    minimum of successive-level differences plus the truncation allowance
    of the outermost node pair is at most ``tol * max(1, |value|)``, keeps
    that level's value and estimate, and drops out: after the block, F is
    not asked for it again.  Each level of the block is summed from its
    own slice and tested in turn, with the same arithmetic as a level
    asked for alone, so a row does not depend, to the last bit, on the
    block, on the other rows or on how many there are.  The relative part
    of the test keeps it above the rounding noise of large values, such as
    K_p near mu = 1.
    A row fails when the levels run out, or at level 2 if its truncation
    allowance alone exceeds twice its target, which no refinement can
    mend; the first failure raises :class:`NonConvergence`.  Returns
    (value, abs_error_estimate, nodes_used), where nodes_used is
    ``cuts[stop + 1]``, the nodes of the levels through the last one the
    stop test used, counted once whatever the number of rows and although
    F saw every node of the block; the estimate is floored at the spacing
    of the value.
    """
    X, CX, W, cuts = _ts_nodes()
    rows = slice(None)

    # F's factor times the weights on the table's nodes from a through
    # level lev, for the rows live now
    def ask(lev, a):
        b = cuts[lev + 1]
        x, cx = X[a:b], CX[a:b]
        return F(lev, x, cx, rows) * (W[a:b] * x**ea * cx**eb)

    with np.errstate(divide="ignore"):
        block = ask(_BLOCK_LEVEL, 0)
        # the live rows' state, compacted as rows stop; results are written
        # to the rows' places in out and err
        shape = block.shape[:-1]
        block = block.reshape(-1, cuts[_BLOCK_LEVEL + 1])
        idx = np.arange(block.shape[0])
        out = np.full(idx.size, np.nan)
        err = np.full(idx.size, np.nan)
        # one column per level: each row sums its own levels, in the same
        # order as a row computed alone
        sums = np.zeros((idx.size, _MAX_LEVEL + 1))
        for lev in range(_BLOCK_LEVEL + 1):
            sums[:, lev] = block[:, cuts[lev] : cuts[lev + 1]].sum(axis=-1)
        m = cuts[1] // 2
        trunc = np.abs(block[:, m - 1]) + np.abs(block[:, 2 * m - 1])
        best = np.full(idx.size, math.inf)
        for lev in range(_MAX_LEVEL + 1):
            if lev > _BLOCK_LEVEL:
                sums[:, lev] = ask(lev, cuts[lev]).sum(axis=-1)
            value = (_H0 / 2.0**lev) * sums[:, : lev + 1].sum(axis=-1)
            if lev >= _MIN_LEVEL:
                target = tol * np.maximum(1.0, np.abs(value))
                best = np.minimum(best, np.abs(value - prev))
                est = best + trunc
                ok = est <= target
                # the truncation allowance is fixed at level 0, so a row it
                # alone puts well above its target can never stop
                failed = ~ok & (
                    trunc > 2.0 * target if lev == _MIN_LEVEL else lev == _MAX_LEVEL
                )
                if failed.any():
                    raise NonConvergence(
                        f"tanh-sinh refinement stopped after {cuts[lev + 1]} "
                        f"nodes with error estimate {np.max(est[~ok]):.3e} above "
                        f"tol {tol:.3e}"
                    )
                out[idx[ok]] = value[ok]
                err[idx[ok]] = est[ok]
                if ok.all():
                    break
                if ok.any():
                    idx, sums, best, trunc, value = (
                        a[~ok] for a in (idx, sums, best, trunc, value)
                    )
                    rows = idx
            prev = value
    err = np.maximum(err, np.spacing(np.abs(out)))
    return out.reshape(shape), err.reshape(shape), cuts[lev + 1]


def _as_batch(fn: Callable) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Evaluate fn on node arrays, falling back to a python loop for
    scalar-only callables."""

    def call(arr: np.ndarray, comp: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(fn(arr, comp), dtype=float)
        except (TypeError, ValueError):
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
    _check_interval("tol", tol, 1e-14, math.inf)
    smooth = _as_batch(f.smooth_part)
    value, err, nodes = _tanh_sinh(
        lambda lev, x, cx, rows: smooth(x, cx),
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
    DomainError
        If lo or hi is not finite, hi <= lo, or tol is not positive and
        finite.
    NoSignChange
        If g(lo) and g(hi) have the same (nonzero) sign.
    MaxIterations
        If the bracket fails to reach ``tol`` within ``max_iter`` steps.
    """
    _check_interval("lo", lo, -math.inf, math.inf, "()")
    _check_interval("hi", hi, lo, math.inf, "()")
    _check_interval("tol", tol, 0.0, math.inf, "()")
    flo = float(g(lo))
    if flo == 0.0:
        return lo
    fhi = float(g(hi))
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
