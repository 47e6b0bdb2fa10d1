"""Tests for the tanh-sinh engine and the bracketed root finder."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pelliptic.certify import FIRSTCOND_RHS
from pelliptic.elliptic import kp
from pelliptic.quadrature import (
    QuadratureResult,
    SingularIntegrand,
    _tanh_sinh,
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
    # driver stops at the first level it tests instead of the last
    levels = []

    def F(lev, x, cx):
        levels.append(lev)
        return np.ones_like(x)

    with pytest.raises(NonConvergence):
        _tanh_sinh(F, 0.04, 1.0, 1e-14)
    assert levels == [0, 1, 2]


def test_column_exponent_rows_match_rows_computed_alone():
    # rows with their own right exponent and integrand stop at different
    # levels; each keeps the exact bits it has when computed alone
    c = np.array([0.0, 0.5, 3.0, 40.0])[:, None]
    b = np.array([0.0, -0.3, -0.5, -0.8])[:, None]
    F = lambda lev, x, cx: 1.0 / (1.0 + c * x)
    value, err, _ = _tanh_sinh(F, 1.0, 1.0 + b, 1e-13)
    assert value.shape == err.shape == (4,)
    for i in range(4):
        ci, bi = float(c[i, 0]), float(b[i, 0])
        Fi = lambda lev, x, cx: 1.0 / (1.0 + ci * x)
        v, e, _ = _tanh_sinh(Fi, 1.0, 1.0 + bi, 1e-13)
        assert value[i] == v and err[i] == e
    # the constant row: integral of (1-s)**0 = 1
    assert abs(value[0] - 1.0) < 1e-13


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
