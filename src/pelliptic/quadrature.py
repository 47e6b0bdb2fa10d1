"""Deterministic tanh-sinh quadrature.

The integration engine targets integrals on [0, 1] whose integrand factors
as ``F(x) * x**(ea-1)``, with one algebraic exponent ea - 1 in (-1, 0] at
the left end.  The double-exponential substitution
x = (1 + tanh((pi/2) sinh t))/2 turns the trapezoid rule in t into a
geometrically convergent scheme even when the integrand blows up at an
endpoint; a caller whose singularity sits at the right end mirrors it, or
lets F carry it, evaluating F at the exact 1-x.

One batched routine, ``_tanh_sinh``, runs the level loop for every integral
in the package: the K_p rows and the profile integrals behind tau_k.  It
halves the step level by level, for one integrand or a batch of rows at
once, with one endpoint exponent shared by every row.  The rule fixes every
node in advance (Takahasi & Mori, 1974), so all of them live in one table,
built once, with each level's new nodes after those of the level before.  The
caller's factor F is evaluated once on the table's prefix of levels 0-4,
the block, and then once per level on that level's slice.  From level 2 on, a
row stops when the running minimum of the differences between successive
levels, plus a truncation allowance taken from the outermost node pair, drops
to ``tol * max(1, |value|)``; that sum is the row's error estimate, floored
at the spacing of the value.  The block's stop tests are decided for every
row in one pass, from a running sum over its five level sums; numpy adds
fewer than 8 terms in order, so each level has the bits it has when summed
on its own.  Past 7 terms numpy sums pairwise, so each later level keeps
its own sum and test.  A row's value therefore does not depend on the block.
A stopped row drops out: after the block F is asked only for the rows
still live, so a batch evaluates each row through the block, or through
its own stop level if that comes later, as if it ran alone.  The weights
are formed once per exponent and level.

Endpoint distances are taken directly from the transform: 1-x is formed from
exponentials, never by subtracting x from 1, so the endpoint power factors
keep full precision down to distances of order 1e-300.  F receives both x
and the exact 1-x, so integrands with thin boundary layers (scale well
below 1e-16 next to an endpoint) never have to reconstruct the endpoint
distance by subtraction.

Everything here is pure floating point arithmetic in a fixed evaluation
order, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergence

__all__ = ["QuadratureResult"]

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
# K_p rows stop at level 4 or 5.  With the block decided in one pass, a
# larger block costs only integrand work; the kp_scan benchmark (seed 5,
# 50 s runs, --trace 0, one 2 GHz Xeon core) ran 616 and 624 tasks/s with
# blocks through level 3, 701-734 (4 runs) through level 4, and 722 and
# 730 through level 5, inside level 4's spread: through level 5, a row
# that stops at level 4 pays for 196 nodes it does not use.  The block
# holds at most 7 levels (_BLOCK_LEVEL <= 6): numpy adds up to 7 terms in
# order, and the block's running sums rely on it.
_BLOCK_LEVEL = 4
# the trapezoid steps h of the block's levels
_BLOCK_STEPS = _H0 / 2.0 ** np.arange(_BLOCK_LEVEL + 1)


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
        level where it stopped.  The integrand is evaluated on at least
        the 195 nodes of levels 0-4, so K_p(0.5) at p = 2, which stops at
        level 3, reports 97 nodes (levels 0-3) for 195 evaluations.
    """

    value: float
    abs_error_estimate: float
    nodes_used: int


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


def _ts_slice(lev: int) -> slice:
    """The slice of the node table that the driver gives F at level lev:
    the block, levels 0.._BLOCK_LEVEL, at _BLOCK_LEVEL, and the one level
    lev after it."""
    cuts = _ts_nodes()[3]
    return slice(0 if lev == _BLOCK_LEVEL else cuts[lev], cuts[lev + 1])


@functools.lru_cache(maxsize=32)
def _ts_weights(ea: float, lev: int) -> np.ndarray:
    """The weights ``W x**ea (1-x)`` on the nodes of :func:`_ts_slice`
    (lev), read-only: W x (1-x) is dx/dt, and x**(ea-1) the left-end
    factor of the integrand.

    Formed once per exponent and level, and only for the levels
    a call reaches.  Bounded at 32 entries; one entry holds one double per
    node of its slice, 195 for the block and 12,492 at level 11.
    """
    X, CX, W, _ = _ts_nodes()
    s = _ts_slice(lev)
    w = W[s] * X[s] ** ea * CX[s]
    w.flags.writeable = False
    return w


def _nonconvergence(lev: int, est: np.ndarray, tol: float) -> NonConvergence:
    return NonConvergence(
        f"tanh-sinh refinement stopped after {_ts_nodes()[3][lev + 1]} "
        f"nodes with error estimate {np.max(est):.3e} above tol {tol:.3e}"
    )


def _tanh_sinh(F: Callable, ea: float, tol: float):
    """Integrate F x**(ea-1) over [0, 1], row by row.

    ``F(lev, x, cx, rows)`` receives nodes, their exact complements and
    the rows still live, and returns its factor on those rows only: shape
    ``(n,)`` for a single integrand, which ignores ``rows``, or
    ``(live rows, n)``.  ``x`` and ``cx`` are views of the node table of
    :func:`_ts_nodes`, which F must not write to, at :func:`_ts_slice`
    (lev).  The first call is the block: ``lev`` is ``_BLOCK_LEVEL``,
    ``x`` the table's prefix ``[:cuts[_BLOCK_LEVEL + 1]]``, the nodes of
    levels 0.._BLOCK_LEVEL in level order, and ``rows`` ``slice(None)``.
    Each later call brings ``[cuts[lev]:cuts[lev + 1]]``, the nodes of the
    one level ``lev``, and ``rows`` is ``slice(None)`` while every row is
    live, then an increasing index array into the rows F returned in the
    block.  The weight exponent ``ea``, in (0, 1], is a float shared by
    every row; the weights are formed once per level by :func:`_ts_weights`.
    A row stops at the first level (from level 2 on) where the running
    minimum of successive-level differences plus the truncation allowance
    of the outermost node pair is at most ``tol * max(1, |value|)``, keeps
    that level's value and estimate, and drops out: after the block, F is
    not asked for it again.
    The block's stop tests are decided for every row in one pass: each
    level of the block is summed from its own slice, the level values are
    one running sum over those five sums, the running minimum one
    accumulate, and each row's first passing level one argmax.  numpy adds
    fewer than 8 terms in order, so the running sum has the bits of each
    level's own sum; from 8 terms on it sums pairwise, so the later levels
    keep ``sums[:, :lev + 1].sum(axis=-1)`` and are tested level by level.
    Either way a row does not depend, to the last bit, on the block, on
    the other rows or on how many there are.  The relative part of the
    test keeps it above the rounding noise of large values, such as K_p
    near mu = 1.
    A row fails when the levels run out, or at level 2 if its truncation
    allowance alone exceeds twice its target, which no refinement can
    mend; the first failure raises :class:`NonConvergence`.  Returns
    (value, abs_error_estimate, nodes_used), where nodes_used is
    ``cuts[stop + 1]``, the nodes of the levels through the last one the
    stop test used, counted once whatever the number of rows and although
    F saw every node of the block; the estimate is floored at the spacing
    of the value.
    """
    X, CX, _, cuts = _ts_nodes()
    rows = slice(None)

    # F's factor times the weights on the nodes of level lev, for the rows
    # live now
    def ask(lev):
        s = _ts_slice(lev)
        return F(lev, X[s], CX[s], rows) * _ts_weights(ea, lev)

    with np.errstate(divide="ignore"):
        block = ask(_BLOCK_LEVEL)
        shape = block.shape[:-1]
        block = block.reshape(-1, cuts[_BLOCK_LEVEL + 1])
        n = block.shape[0]
        # one column per level: each row sums its own levels, in the same
        # order as a row computed alone
        sums = np.zeros((n, _MAX_LEVEL + 1))
        for lev in range(_BLOCK_LEVEL + 1):
            sums[:, lev] = block[:, cuts[lev] : cuts[lev + 1]].sum(axis=-1)
        m = cuts[1] // 2
        trunc = np.abs(block[:, m - 1]) + np.abs(block[:, 2 * m - 1])
        # levels 0.._BLOCK_LEVEL of every row at once, then the tests of
        # levels _MIN_LEVEL.._BLOCK_LEVEL, one column each
        value = np.add.accumulate(sums[:, : _BLOCK_LEVEL + 1], axis=-1) * _BLOCK_STEPS
        best = np.minimum.accumulate(
            np.abs(value[:, _MIN_LEVEL:] - value[:, _MIN_LEVEL - 1 : -1]), axis=-1
        )
        value = value[:, _MIN_LEVEL:]
        est = best + trunc[:, None]
        target = tol * np.maximum(1.0, np.abs(value))
        ok = est <= target
        # the truncation allowance is fixed at level 0, so a row it alone
        # puts well above its target can never stop; such a row also
        # misses its level-2 test, as est >= trunc
        if (trunc > 2.0 * target[:, 0]).any():
            raise _nonconvergence(_MIN_LEVEL, est[~ok[:, 0], 0], tol)
        # each row's first passing level; a row with none is live, and its
        # places in out and err are written when it stops
        first = ok.argmax(axis=-1)
        pick = (np.arange(n), first)
        out, err = value[pick], est[pick]
        live = ~ok[pick]
        lev = _BLOCK_LEVEL if live.any() else _MIN_LEVEL + int(first.max())
        # the live rows' state, compacted as rows stop
        idx, best, value = pick[0], best[:, -1], value[:, -1]
        while live.any():
            if not live.all():
                idx, sums, best, trunc, value = (
                    a[live] for a in (idx, sums, best, trunc, value)
                )
                rows = idx
            prev = value
            lev += 1
            sums[:, lev] = ask(lev).sum(axis=-1)
            value = (_H0 / 2.0**lev) * sums[:, : lev + 1].sum(axis=-1)
            target = tol * np.maximum(1.0, np.abs(value))
            best = np.minimum(best, np.abs(value - prev))
            est = best + trunc
            ok = est <= target
            if lev == _MAX_LEVEL and not ok.all():
                raise _nonconvergence(lev, est[~ok], tol)
            out[idx[ok]] = value[ok]
            err[idx[ok]] = est[ok]
            live = ~ok
    err = np.maximum(err, np.spacing(np.abs(out)))
    return out.reshape(shape), err.reshape(shape), cuts[lev + 1]

