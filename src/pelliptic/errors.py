"""Exception taxonomy and the input checks shared across the package.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map errors onto stable exit codes: invalid inputs (DomainError and
subclasses) versus algorithms that ran out of budget (NonConvergence and
subclasses).

Every range, count, sign and finiteness check on an input goes through the
private checks at the end, which raise DomainError as "{name} must lie in
[lo, hi), got {x}" (or "must be an integer in", "must be +1 or -1", "must
be a single number", "must be finite", "must be a real number", "must
have one shape", "must be one value or a nonempty 1-D run of them"), and
return the value they judged, so callers compute with it and never with
the raw input.  One function, :func:`_check_real`, says what a real number
is: a ``numbers.Real`` (int, float, bool, Fraction, a numpy integer or
floating), a numpy bool or a 0-d array of one, taken as the double it
becomes, an int or a fraction beyond the largest double as the infinity
it exceeds.  Text, bytes, None, complex numbers and Decimal are refused
everywhere, entry by entry in an array, rather than parsed, rounded or
stripped of an imaginary part; a list or an array where one number is
expected is refused too.  An input that may be a run (``tau_k``'s mu and
k, a ``ModulusSet``'s values, ``region_scan``'s grids) goes through one
rule, :func:`_check_run`: one value, or a nonempty 1-D list or array of
them each checked on its own, so that a bad entry is named by itself.
NaN fails every comparison, so each range check rejects it.  A count or a
sign must be an int, a numpy integer or a 0-d integer array, not a bool
or a float, and at most the largest intp, so that numpy can index it.  A
ragged nesting of lists, which has no shape, is refused wherever a list
is taken.  The scalar checks are plain comparisons, cheap enough to run
once per (p, mu) pair of a batch.
"""

import math
import numbers

import numpy as np

# the largest count that numpy can index: a larger one overflows an
# intp, or a double in the arithmetic behind it
_INT_MAX = int(np.iinfo(np.intp).max)


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


def _as_array(name: str, x) -> np.ndarray:
    """np.asarray(x), with a ragged nesting of lists, which has no array
    shape, refused as a DomainError naming ``name``."""
    try:
        return np.asarray(x)
    except ValueError:
        raise DomainError(f"{name} must have one shape, got the ragged {x!r}") from None


def _check_real(name: str, x, many: bool = False):
    """x as a float if it is a real number, and with ``many`` a list or an
    array of them as a float array of its shape; a 0-d array is one number.
    Anything else raises DomainError naming ``name``: "must be a single
    number" for a list or an array without ``many``, "must be a real
    number" for x, or the first entry of x, that is not one."""
    if type(x) is float:
        return x
    if isinstance(x, (numbers.Real, np.bool_)):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    a = _as_array(name, x)
    if not (a.ndim or isinstance(x, np.ndarray)):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    if a.ndim and not many:
        raise DomainError(f"{name} must be a single number, got shape {a.shape}")
    if a.dtype.kind not in "biuf":
        # x's own entries: a list that holds text has become text
        entries = np.asarray(x, dtype=object)
        a = np.array([_check_real(name, v) for v in entries.flat]).reshape(a.shape)
    a = a.astype(float, copy=False)
    return a if a.ndim else float(a)


def _check_interval(name: str, x, lo: float, hi: float, ends: str = "[)") -> float:
    """x as the float it is (:func:`_check_real`) if it lies in the interval
    from lo to hi; ``ends`` spells its brackets, "[" or "]" for a closed
    end and "(" or ")" for an open one.  An infinite end is open, so
    (-inf, inf) admits exactly the finite x, and an int beyond the largest
    double fails even an interval open to infinity."""
    # the common case, a float inside, is decided by one chained comparison
    if type(x) is float and lo < x < hi:
        return x
    x = _check_real(name, x)
    above = lo < x if ends[0] == "(" else lo <= x
    below = x < hi if ends[1] == ")" else x <= hi
    if not (above and below):
        raise DomainError(
            f"{name} must lie in {ends[0]}{_num(lo)}, {_num(hi)}{ends[1]}, got {x}"
        )
    return x


def _check_int(name: str, n, lo: int, odd: bool = False, hi: int = _INT_MAX) -> int:
    """n as an int if it is an integer (not a bool), or a 0-d array of
    one, in [lo, hi], and odd if asked.  ``hi`` defaults to the largest
    count that numpy can index; a count that only meets float arithmetic
    may pass a larger one."""
    # the common case, an int inside, skips the numbers.Integral test
    if type(n) is int and lo <= n <= hi and not (odd and n % 2 == 0):
        return n
    if isinstance(n, np.ndarray) and n.ndim == 0:
        n = n[()]
    is_int = isinstance(n, numbers.Integral) and not isinstance(n, bool)
    if is_int:
        n = int(n)
    if is_int and lo <= n <= hi and not (odd and n % 2 == 0):
        return n
    kind = "an odd integer" if odd else "an integer"
    top = "inf)" if not is_int or n <= hi else f"{hi if hi <= _INT_MAX else float(hi)}]"
    # str() of an int past 4300 digits raises, so a huge one is named by its size
    if is_int and abs(n) > _INT_MAX:
        n = f"an integer of {n.bit_length()} bits"
    raise DomainError(f"{name} must be {kind} in [{lo}, {top}, got {n}")


def _check_sign(name: str, s) -> int:
    """s as an int if it is the integer +1 or -1 (not a bool or a float)."""
    is_int = isinstance(s, numbers.Integral) and not isinstance(s, bool)
    if not is_int or s not in (1, -1):
        raise DomainError(f"{name} must be +1 or -1, got {s}")
    return int(s)


def _check_finite(name: str, x):
    """x as doubles (:func:`_check_real`), a numpy float for one number
    and a float array for a list or an array, if every entry is finite."""
    if type(x) is float and math.isfinite(x):
        return np.float64(x)
    x = _check_real(name, x, many=True)
    bad = np.extract(~np.isfinite(x), x)
    if bad.size:
        raise DomainError(f"{name} must be finite, got {bad[0]}")
    return np.float64(x) if isinstance(x, float) else x


def _check_run(name: str, x, check, *args):
    """check(name, x, *args) for one value, a scalar or a 0-d array, and
    the list of check(name, v, *args) over the entries v of a nonempty 1-D
    list or array, so a bad entry is named by itself.  Any other shape
    raises DomainError naming ``name``."""
    a = _as_array(name, x)
    if not a.ndim:
        return check(name, x, *args)
    if a.ndim != 1 or not a.size:
        raise DomainError(
            f"{name} must be one value or a nonempty 1-D run of them, "
            f"got shape {a.shape}"
        )
    # an array's entries as Python scalars; a list's as they were given,
    # before numpy made [1, 2.5] all floats
    entries = a.tolist() if isinstance(x, np.ndarray) else x
    return [check(name, v, *args) for v in entries]


def _validate_pmu(p, mu, mu_ends: str = "[)") -> tuple[float, float]:
    """(p, mu) as floats if p is in (1, inf) and mu in [0, 1), or (0, 1)
    with ``mu_ends="()"``."""
    return (
        _check_interval("p", p, 1.0, math.inf, "()"),
        _check_interval("mu", mu, 0.0, 1.0, mu_ends),
    )
