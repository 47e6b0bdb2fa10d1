"""Tests for the tanh-sinh engine and the bracketed root finder."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pelliptic.certify import FIRSTCOND_RHS
from pelliptic.elliptic import kp
from pelliptic.quadrature import (
    _BLOCK_LEVEL,
    QuadratureResult,
    SingularIntegrand,
    _tanh_sinh,
    _ts_nodes,
    bracketed_root,
    integrate_singular,
)
from pelliptic.errors import (
    DomainError,
    InvalidExponent,
    MaxIterations,
    NonConvergence,
    NoSignChange,
)

TOL = 1e-12


def const_one(s, cs):
    return np.ones_like(s)


def test_integrates_constant():
    r = integrate_singular(SingularIntegrand(smooth_part=const_one), tol=TOL)
    assert abs(r.value - 1.0) <= TOL
    assert r.abs_error_estimate <= TOL
    assert r.nodes_used > 0


def test_inverse_sqrt_right_endpoint():
    # integral of (1-s)^(-1/2) is 2, antiderivative -2 sqrt(1-s)
    f = SingularIntegrand(smooth_part=const_one, right_exponent=-0.5)
    r = integrate_singular(f, tol=TOL)
    assert abs(r.value - 2.0) <= TOL


def test_arcsin_integrand():
    # (1-s^2)^(-1/2) = (1+s)^(-1/2) * (1-s)^(-1/2); value arcsin(1) = pi/2
    f = SingularIntegrand(
        smooth_part=lambda s, cs: (1.0 + s) ** -0.5, right_exponent=-0.5
    )
    r = integrate_singular(f, tol=TOL)
    assert abs(r.value - math.pi / 2.0) <= TOL


def test_left_endpoint_singularity():
    # s^(-1/3): exact integral 3/2
    f = SingularIntegrand(smooth_part=const_one, left_exponent=-1.0 / 3.0)
    r = integrate_singular(f, tol=TOL)
    assert abs(r.value - 1.5) <= TOL


def test_polynomials_up_to_degree_ten():
    # fixed coefficient sets; exact integral is sum c_j / (j+1)
    coeff_sets = [
        [1.0, -2.0, 3.0, 0.5],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0],
        [2.0, 0.0, -1.0, 0.0, 4.0, 0.0, -3.0, 0.0, 2.0, 0.0, -1.0],
    ]
    for cs_list in coeff_sets:
        exact = math.fsum(c / (j + 1.0) for j, c in enumerate(cs_list))

        def poly(s, cs, c=tuple(cs_list)):
            out = np.zeros_like(s)
            for coef in reversed(c):
                out = out * s + coef
            return out

        r = integrate_singular(SingularIntegrand(smooth_part=poly), tol=TOL)
        assert abs(r.value - exact) <= 10.0 * TOL


def test_estimate_monotone_under_tol_halving():
    f = SingularIntegrand(
        smooth_part=lambda s, cs: np.exp(s), right_exponent=-0.25
    )
    tols = [1e-6, 5e-7, 2.5e-7, 1e-9, 1e-12]
    prev = math.inf
    for t in tols:
        est = integrate_singular(f, tol=t).abs_error_estimate
        assert est <= prev + 1e-300
        prev = est


def test_estimate_not_below_rounding():
    # a polynomial is integrated exactly after a few levels, so the level
    # differences vanish; the estimate must still cover the rounding of
    # the value itself
    f = SingularIntegrand(smooth_part=lambda s, cs: 1.0 - 2.0 * s + 3.0 * s * s)
    r = integrate_singular(f, tol=1e-13)
    assert r.abs_error_estimate >= np.spacing(abs(r.value))
    assert r.abs_error_estimate <= 1e-13


def test_deterministic_bit_identical():
    f = SingularIntegrand(
        smooth_part=lambda s, cs: np.cos(3.0 * s), right_exponent=-0.5
    )
    a = integrate_singular(f, tol=1e-13)
    b = integrate_singular(f, tol=1e-13)
    assert a == b
    assert isinstance(a, QuadratureResult)


def test_scalar_only_smooth_part_fallback():
    f = SingularIntegrand(smooth_part=lambda s, cs: math.exp(-s))
    r = integrate_singular(f, tol=1e-11)
    assert abs(r.value - (1.0 - math.exp(-1.0))) <= 1e-11
    # one that takes the node arrays but returns one scalar is evaluated
    # point by point too
    r = integrate_singular(SingularIntegrand(smooth_part=lambda s, cs: 1.0))
    assert abs(r.value - 1.0) <= 1e-12


def test_every_level_holds_several_nodes():
    # the scalar-only fallback relies on this: a size-1 node array would be
    # converted to a float by a scalar callable instead of raising TypeError
    assert all(np.diff(_ts_nodes()[3]) > 1)


def test_complement_argument_is_exact_near_one():
    # integrand with a 1e-18-wide boundary layer at s=1; reconstructing 1-s
    # by subtraction would quantize the layer away entirely
    delta = 1e-18
    f = SingularIntegrand(
        smooth_part=lambda s, cs: delta / (delta + cs), right_exponent=-0.5
    )
    r = integrate_singular(f, tol=1e-12)
    # exact: integral of delta/(delta+u) u^{-1/2} du over (0,1) with u = 1-s,
    # = 2 sqrt(delta) atan(1/sqrt(delta)) for small delta -> pi sqrt(delta)
    exact = math.pi * math.sqrt(delta)
    assert abs(r.value - exact) / exact < 1e-9


def test_invalid_exponents_rejected():
    with pytest.raises(InvalidExponent):
        SingularIntegrand(smooth_part=const_one, left_exponent=-1.0)
    with pytest.raises(InvalidExponent):
        SingularIntegrand(smooth_part=const_one, right_exponent=-1.5)
    with pytest.raises(InvalidExponent):
        SingularIntegrand(smooth_part=const_one, left_exponent=0.5)


def test_bad_tol_rejected():
    f = SingularIntegrand(smooth_part=const_one)
    with pytest.raises(DomainError):
        integrate_singular(f, tol=1e-15)
    with pytest.raises(DomainError):
        integrate_singular(f, tol=-1.0)
    # bracketed_root: an infinite end or tol is rejected before g runs
    calls = []

    def g(x):
        calls.append(x)
        return x - 1.0

    bad = [(0.0, math.inf, 1e-12), (-math.inf, 2.0, 1e-12), (0.0, 2.0, math.inf)]
    for lo, hi, tol in bad:
        with pytest.raises(DomainError):
            bracketed_root(g, lo, hi, tol=tol)
    assert calls == []


def test_nonconvergence_on_interior_kink():
    # |s - 1/3|^0.1 has an interior kink the node doubling cannot resolve
    # to 1e-12 within the fixed level budget
    f = SingularIntegrand(smooth_part=lambda s, cs: np.abs(s - 1.0 / 3.0) ** 0.1)
    with pytest.raises(NonConvergence):
        integrate_singular(f, tol=1e-12)


# -- bracketed_root -----------------------------------------------------------


def test_truncation_above_target_raises_at_once():
    # x**(-0.96): the node window leaves about 1e-10 of the integral
    # beyond its outermost node, so no level can reach tol 1e-14 and the
    # driver gives up at the first level it tests instead of the last:
    # after the block call it asks for nothing more, and it reports the
    # 13 + 12 + 24 = 49 nodes of levels 0-2
    levels = []

    def F(lev, x, cx, rows):
        levels.append(lev)
        return np.ones_like(x)

    with pytest.raises(NonConvergence, match="after 49 nodes"):
        _tanh_sinh(F, 0.04, 1.0, 1e-14)
    assert levels == [_BLOCK_LEVEL]


def test_first_call_is_the_block_of_levels_0_to_4():
    # F gets the nodes of levels 0-4 in level order in one call, for every
    # row, as the node table's prefix, then one level's nodes per call
    nodes, comps, _, cuts = _ts_nodes()
    c = np.array([0.0, 900.0])[:, None]
    calls = []

    def F(lev, x, cx, rows):
        calls.append((lev, x, cx, rows))
        return 1.0 / (1.0 + c[rows] * x)

    _tanh_sinh(F, 1.0, 1.0, 1e-13)
    lev, x, cx, rows = calls[0]
    assert _BLOCK_LEVEL == 4 and lev == 4
    assert rows == slice(None)
    assert np.array_equal(x, nodes[: cuts[5]])
    assert np.array_equal(cx, comps[: cuts[5]])
    assert np.shares_memory(x, nodes)
    assert len(calls) > 1
    for want, (lev, x, cx, rows) in enumerate(calls[1:], start=5):
        assert lev == want
        level = slice(cuts[lev], cuts[lev + 1])
        assert np.array_equal(x, nodes[level]) and np.array_equal(cx, comps[level])


def test_column_exponent_rows_match_rows_computed_alone():
    # rows of one (rows, 1) column of integrands under one right exponent
    # stop at different levels; each keeps the exact bits it has when
    # computed alone
    c = np.array([0.0, 0.5, 3.0, 900.0])[:, None]
    F = lambda lev, x, cx, rows: 1.0 / (1.0 + c[rows] * x)
    value, err, _ = _tanh_sinh(F, 1.0, 0.5, 1e-13)
    assert value.shape == err.shape == (4,)
    for i in range(4):
        ci = float(c[i, 0])
        Fi = lambda lev, x, cx, rows: 1.0 / (1.0 + ci * x)
        v, e, _ = _tanh_sinh(Fi, 1.0, 0.5, 1e-13)
        assert value[i] == v and err[i] == e
    # the constant row: integral of (1-s)**(-1/2) = 2
    assert abs(value[0] - 2.0) < 1e-13


def _stop_level(ci):
    """Level at which one row 1 / (1 + ci x), with right exponent 1/2,
    stops when computed alone, read off the nodes its stop test used."""
    F = lambda lev, x, cx, rows: 1.0 / (1.0 + ci * x)
    nodes = _tanh_sinh(F, 1.0, 0.5, 1e-13)[2]
    return _ts_nodes()[3].index(nodes) - 1


def test_live_rows_shrink_and_stopped_rows_never_return():
    # the block call gets every row; after it, F sees only the rows still
    # live: a row is asked again for levels 5 up to its own stop level and
    # never after it
    c = np.array([0.0, 0.5, 3.0, 40.0, 900.0])[:, None]
    seen = []

    def F(lev, x, cx, rows):
        live = np.arange(c.shape[0])[rows]
        seen.append((lev, live))
        return 1.0 / (1.0 + c[rows] * x)

    _tanh_sinh(F, 1.0, 0.5, 1e-13)
    assert seen[0][0] == _BLOCK_LEVEL
    assert np.array_equal(seen[0][1], np.arange(c.shape[0]))
    for (_, before), (_, after) in zip(seen, seen[1:]):
        assert np.all(np.diff(after) > 0)
        assert set(after) <= set(before)
    stops = [_stop_level(float(c[i, 0])) for i in range(c.shape[0])]
    assert min(stops) < _BLOCK_LEVEL < max(stops)
    for i, stop in enumerate(stops):
        visits = [lev for lev, live in seen if i in live]
        assert visits == [_BLOCK_LEVEL] + list(range(_BLOCK_LEVEL + 1, stop + 1))


def test_root_zero_at_lo_evaluates_g_once():
    evals = []

    def g(x):
        evals.append(x)
        return x

    assert bracketed_root(g, 0.0, 1.0, tol=1e-12) == 0.0
    assert evals == [0.0]


def test_root_linear():
    assert abs(bracketed_root(lambda x: x - 0.25, 0.0, 1.0, tol=1e-12) - 0.25) < 1e-11


def test_root_sqrt2():
    r = bracketed_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-12)
    assert abs(r - math.sqrt(2.0)) < 1e-11


def test_root_half_pi():
    r = bracketed_root(math.cos, 1.0, 2.0, tol=1e-12)
    assert abs(r - math.pi / 2.0) < 1e-11


def test_root_stays_inside_bracket():
    for shift in [0.1, 0.33, 0.5, 0.77, 0.9]:
        g = lambda x, c=shift: (x - c) ** 3 + 0.1 * (x - c)
        r = bracketed_root(g, 0.0, 1.0, tol=1e-12)
        assert 0.0 <= r <= 1.0
        assert abs(r - shift) < 1e-9


def test_root_endpoint_hits():
    assert bracketed_root(lambda x: x, 0.0, 1.0, tol=1e-12) == 0.0
    assert bracketed_root(lambda x: x - 1.0, 0.0, 1.0, tol=1e-12) == 1.0


def test_root_tiny_bracket_returns_midpoint():
    lo, hi = 0.25 - 4e-13, 0.25 + 4e-13
    r = bracketed_root(lambda x: x - 0.25, lo, hi, tol=1e-12)
    assert r == 0.5 * (lo + hi)


def test_root_no_sign_change():
    with pytest.raises(NoSignChange):
        bracketed_root(lambda x: x * x - 2.0, 2.0, 3.0, tol=1e-12)


def test_root_max_iterations():
    # steep sigmoid defeats interpolation, so the bracket only shrinks
    # geometrically and three iterations cannot reach tol
    g = lambda x: math.tanh(1e6 * (x - 1.0 / 3.0))
    with pytest.raises(MaxIterations):
        bracketed_root(g, 0.0, 1.0, tol=1e-12, max_iter=3)


def test_root_deterministic():
    g = lambda x: math.tanh(x) - 0.5
    assert bracketed_root(g, 0.0, 2.0) == bracketed_root(g, 0.0, 2.0)


ROOT_CASES = [
    (lambda x: x - 0.25, 0.0, 1.0),
    (lambda x: x * x - 2.0, 1.0, 2.0),
    (math.cos, 1.0, 2.0),
    *[
        (lambda x, c=c: (x - c) ** 3 + 0.1 * (x - c), 0.0, 1.0)
        for c in [0.1, 0.33, 0.5, 0.77, 0.9]
    ],
    (lambda x: math.tanh(1e6 * (x - 1.0 / 3.0)), 0.0, 1.0),
    (lambda x: math.tanh(x) - 0.5, 0.0, 2.0),
    (lambda mu: kp(2.0, mu) - FIRSTCOND_RHS, 1e-6, 0.999),
]


@pytest.mark.parametrize("case", range(len(ROOT_CASES)))
def test_root_matches_scipy_brentq(case):
    g, lo, hi = ROOT_CASES[case]
    ref = brentq(g, lo, hi, xtol=1e-15)
    assert abs(bracketed_root(g, lo, hi, tol=TOL) - ref) <= TOL


def test_root_steep_sigmoid_converges():
    # the worst case for interpolation: the bisection fallback must still
    # close the bracket in about log2(1 / tol) steps
    g = lambda x: math.tanh(1e6 * (x - 1.0 / 3.0))
    r = bracketed_root(g, 0.0, 1.0, tol=TOL, max_iter=60)
    assert abs(r - 1.0 / 3.0) <= TOL


def test_root_far_from_zero():
    # tol lies below the double spacing at the root; the 2 eps |b| term in
    # the stop test and the minimum step still closes the bracket
    for g, lo, hi, root in [
        (lambda x: x - 1e5 - 0.3, 0.0, 2e5, 100000.3),
        (lambda x: x + 1e5 + 0.3, -2e5, 0.0, -100000.3),
        (lambda x: x - 1e12 - 0.3, 0.0, 2e12, 1e12 + 0.3),
    ]:
        r = bracketed_root(g, lo, hi, tol=1e-12)
        assert abs(r - root) <= 4.0 * np.spacing(abs(root)), (root, r)
