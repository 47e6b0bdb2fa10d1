"""Exception taxonomy and the input checks shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map errors onto stable exit codes: invalid inputs (DomainError and
subclasses) versus algorithms that ran out of budget (NonConvergence and
subclasses).

Every range, count, sign and finiteness check on an input goes through the
private checks at the end, which raise DomainError as "{name} must lie in
[lo, hi), got {x}" (or "must be an integer in", "must be +1 or -1", "must
be a single number", "must be finite", "must be a real number").  NaN
fails every comparison, so each check rejects it; text, bytes, None and
complex numbers are not real numbers, so every check of a value rejects
them rather than parse text or drop an imaginary part.  A count or a
sign must be an int, a numpy integer or a 0-d integer array, not a bool
or a float.  The scalar checks are plain comparisons, cheap enough to run
once per (p, mu) pair of a batch.
"""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class SingularPoint(DomainError):
    """Evaluation was requested at a point where the quantity is singular."""


class GridTooCoarse(DomainError):
    """A sample grid is too small for the requested validation."""


class NonConvergence(RuntimeError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


class NoSignChange(NonConvergence):
    """A root bracket does not actually bracket a sign change."""


class MaxIterations(NonConvergence):
    """The iteration cap was reached before the bracket shrank to tolerance."""


class SlowConvergence(NonConvergence):
    """A series argument is too close to its convergence boundary."""


def _num(v) -> str:
    return str(float(v)).removesuffix(".0")


# what a check of a value refuses as not a real number
_NOT_REAL = (str, bytes, complex, np.complexfloating, type(None))


def _not_real(name: str, x) -> DomainError:
    return DomainError(f"{name} must be a real number, got {x!r}")


def _double(name: str, x):
    """x + 0.0, the double that x becomes, with an int or a fraction beyond
    the largest double taken as the infinity it exceeds instead of raising
    OverflowError.  Anything that does not add to a real number, such as
    text, bytes, None or a complex number, raises DomainError naming
    ``name``."""
    try:
        v = x + 0.0
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except TypeError:
        raise _not_real(name, x) from None
    if isinstance(v, float) or not isinstance(v, _NOT_REAL):
        return v
    raise _not_real(name, x)


def _check_interval(name: str, x, lo: float, hi: float, ends: str = "[)") -> None:
    """Reject x outside the interval from lo to hi; ``ends`` spells its
    brackets, "[" or "]" for a closed end and "(" or ")" for an open one.
    An infinite end is open, so (-inf, inf) admits exactly the finite x.
    x is judged as the double it becomes (:func:`_double`), so an int
    beyond the largest double fails even an interval open to infinity, and
    a value that is not a real number fails every interval."""
    # the common case, a float inside, is decided by one chained comparison
    if isinstance(x, float) and lo < x < hi:
        return
    x = _double(name, x)
    above = lo < x if ends[0] == "(" else lo <= x
    below = x < hi if ends[1] == ")" else x <= hi
    if not (above and below):
        raise DomainError(
            f"{name} must lie in {ends[0]}{_num(lo)}, {_num(hi)}{ends[1]}, got {x}"
        )


def _check_int(name: str, n, lo: int, odd: bool = False) -> None:
    """Reject n unless it is an integer (not a bool), or a 0-d array of
    one, >= lo, and odd if asked."""
    if isinstance(n, np.ndarray) and n.ndim == 0:
        n = n[()]
    is_int = isinstance(n, numbers.Integral) and not isinstance(n, bool)
    if not is_int or n < lo or (odd and n % 2 == 0):
        kind = "an odd integer" if odd else "an integer"
        raise DomainError(f"{name} must be {kind} in [{lo}, inf), got {n}")


def _check_sign(name: str, s) -> None:
    """Reject s unless it is the integer +1 or -1 (not a bool or a float)."""
    is_int = isinstance(s, numbers.Integral) and not isinstance(s, bool)
    if not is_int or s not in (1, -1):
        raise DomainError(f"{name} must be +1 or -1, got {s}")


def _check_point(name: str, x) -> None:
    """Reject x unless it is one number: a list or an array, even of one
    element, is not a point."""
    if not isinstance(x, float) and np.ndim(x) != 0:
        raise DomainError(f"{name} must be a single number, got shape {np.shape(x)}")


def _check_finite(name: str, x):
    """x as doubles, a numpy float for one number (a 0-d array too) and a
    float array otherwise.  Rejects x if any entry is not a real number
    (text, bytes, None or complex), or is NaN or infinite, an int beyond
    the largest double counting as infinite (:func:`_double`)."""
    if isinstance(x, float):
        v = np.float64(x)
    else:
        a = np.asarray(x)
        if a.dtype.kind in "OSUc":
            # x's own entries: a list that holds text has become text
            for v in np.asarray(x, dtype=object).flat:
                if isinstance(v, _NOT_REAL):
                    raise _not_real(name, v)
        try:
            a = a.astype(float, copy=False)
        except OverflowError:
            a = np.asarray(np.frompyfunc(lambda v: _double(name, v), 1, 1)(a), float)
        if not a.ndim:
            v = a[()]
        else:
            bad = a[~np.isfinite(a)]
            if not bad.size:
                return a
            v = bad[0]
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v}")
    return v


def _validate_pmu(p: float, mu: float, mu_ends: str = "[)") -> None:
    """p in (1, inf) and mu in [0, 1), or (0, 1) with ``mu_ends="()"``."""
    _check_interval("p", p, 1.0, math.inf, "()")
    _check_interval("mu", mu, 0.0, 1.0, mu_ends)
