"""Tests for eigenpair construction and residual verification."""

import math
import re

import numpy as np
import pytest

import pelliptic.eigen as eg
import pelliptic.elliptic as el
import pelliptic.qtheta as qt
from pelliptic.errors import DomainError, GridTooCoarse, SingularPoint


def test_linear_limit_eigenvalue():
    e = eg.eigenpair(2.0, 1e-6, 1)
    assert abs(e.lam - math.pi**2) < 1e-4


def test_eigenvalue_formula_p2():
    e = eg.eigenpair(2.0, 0.5, 2)
    K = el.kp(2.0, 0.5)
    assert abs(e.lam - 16.0 * 1.25 * K * K) < 1e-10 * e.lam
    # classical form 4 n^2 (1 + mu^2) K^2
    assert abs(e.lam - 4.0 * 4 * (1.0 + 0.25) * K * K) < 1e-10 * e.lam


def test_eigenvalue_n_scaling_exact():
    for p, mu in [(1.5, 0.2), (2.0, 0.6), (3.0, 0.3)]:
        e1 = eg.eigenpair(p, mu, 1)
        for n in (2, 3):
            en = eg.eigenpair(p, mu, n)
            assert en.lam == float(n) ** p * e1.lam
            assert en.amplitude == n * e1.amplitude


def test_amplitude_formula():
    for p, mu, n in [(1.5, 0.2, 1), (3.0, 0.6, 2)]:
        e = eg.eigenpair(p, mu, n)
        want = 2.0 ** ((p + 1.0) / p) * n * mu * el.kp(p, mu)
        assert abs(e.amplitude - want) < 1e-12 * want
        assert e.amplitude > 0.0 and e.lam > 0.0


def test_eigenpair_validation():
    for bad in [(1.0, 0.5, 1, 1), (2.0, 0.0, 1, 1), (2.0, 1.0, 1, 1),
                (2.0, 0.5, 0, 1), (2.0, 0.5, 1, 2)]:
        with pytest.raises(DomainError):
            eg.eigenpair(*bad)
    with pytest.raises(DomainError):
        eg.eigenpair(2.0, 0.5, 1.5, 1)
    # a bool is not a count, though True == 1
    with pytest.raises(DomainError):
        eg.eigenpair(2.0, 0.5, True)
    # a sign is the integer +1 or -1: not a bool, a float or 0
    for bad in (True, 1.0, 0):
        with pytest.raises(DomainError):
            eg.eigenpair(2.0, 0.5, 1, sign=bad)


def test_eigenpair_whose_eigenvalue_overflows_is_a_domain_error():
    # (2 K_p)**p overflows at p = 1100, n**p at n = 10**200; either used
    # to escape as a bare OverflowError
    for p, n in [(1100.0, 1), (2.0, 10**200)]:
        with pytest.raises(DomainError, match="eigenvalue lambda overflows"):
            eg.eigenpair(p, 0.5, n)
    # 10**153 is the last power of ten at p = 2 whose eigenvalue is finite
    assert math.isfinite(eg.eigenpair(2.0, 0.5, 10**153).lam)


def test_boundary_values_and_nodes():
    for p, mu, n in [(1.5, 0.2, 1), (2.0, 0.6, 2), (3.0, 0.6, 3)]:
        e = eg.eigenpair(p, mu, n)
        assert abs(eg.eigenfunction_eval(e, 0.0)) < 1e-10
        assert abs(eg.eigenfunction_eval(e, 1.0)) < 1e-10
        for k in range(1, n):
            assert abs(eg.eigenfunction_eval(e, k / n)) < 1e-9


def test_eigenfunction_eval_names_x_when_it_is_not_finite():
    # the message names the argument the caller passed, not y = 2 n K_p x
    e = eg.eigenpair(2.0, 0.5, 1)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"^x must lie in \(-inf, inf\), got"):
            eg.eigenfunction_eval(e, x)


def test_eigenfunction_eval_names_x_when_y_cannot_be_folded():
    # a finite x whose y = 2 n K_p x overflows (1e308) or has ulp(y) >= K_p
    # (1e17) is refused in terms of x, not of the internal y
    e = eg.eigenpair(2.0, 0.5, 1)
    for x in (1e308, 1e17, -1e17):
        with pytest.raises(DomainError, match="^" + re.escape(f"x = {x}: ulp(2 n K_p x)")):
            eg.eigenfunction_eval(e, x)
    assert eg.eigenfunction_eval(e, 2.0**50) == 0.0


def test_peak_value_at_half_bump():
    for p, mu, n, sign in [(2.0, 0.5, 1, 1), (3.0, 0.6, 2, -1), (1.5, 0.3, 3, 1)]:
        e = eg.eigenpair(p, mu, n, sign)
        got = eg.eigenfunction_eval(e, 1.0 / (2 * n))
        assert abs(got - sign * e.amplitude) < 1e-12 * e.amplitude


def test_sign_change_count():
    # n-1 interior sign changes, checked on a fresh sample grid across the
    # (p, mu) range the certificate pipeline uses
    for p, mu in [(2.5, 0.4), (1.5, 0.95), (2.0, 0.5), (2.0, 0.95), (6.0, 0.95)]:
        K = el.kp(p, mu)
        for n in (1, 2, 4):
            e = eg.eigenpair(p, mu, n)
            xs = (2.0 * np.arange(600 * n) + 1.0) / (1200.0 * n)
            v = e.sign * e.amplitude * el.snp(p, mu, 2.0 * n * K * xs)
            s = np.sign(v)
            assert int(np.count_nonzero(s[1:] * s[:-1] < 0)) == n - 1


def test_symmetry_about_half_bump():
    for p, mu, n in [(1.5, 0.2, 1), (3.0, 0.6, 2)]:
        e = eg.eigenpair(p, mu, n)
        c = 1.0 / (2 * n)
        for d in np.linspace(0.01, c - 0.01, 7):
            a = eg.eigenfunction_eval(e, c - d)
            b = eg.eigenfunction_eval(e, c + d)
            assert abs(a - b) < 1e-9


def test_p2_oracle_equivalence():
    rng = np.random.default_rng(42)
    for mu in [0.3, 0.7]:
        for n in (1, 2):
            e = eg.eigenpair(2.0, mu, n)
            K = el.kp(2.0, mu)
            for x in rng.uniform(0.0, 1.0, 20):
                ref = e.sign * e.amplitude * qt.agm_jacobi_sn(2 * n * K * x, mu)
                assert abs(eg.eigenfunction_eval(e, float(x)) - ref) < 1e-8


def test_vieta_identities():
    for p, mu, n in [(1.5, 0.2, 1), (2.0, 0.6, 2), (3.0, 0.2, 3), (5.0, 0.9, 1)]:
        e = eg.eigenpair(p, mu, n)
        assert abs(e.alpha * e.beta - 2.0 * e.c**p) < 1e-9 * 2.0 * e.c**p
        assert abs(e.alpha + e.beta - 2.0 * e.lam) < 1e-9 * 2.0 * e.lam


def test_alpha_beta_small_mu_limits():
    e = eg.eigenpair(2.0, 1e-6, 1)
    assert abs(e.alpha - 2.0 * e.lam) < 1e-9 * e.lam
    assert e.beta < 1e-9
    # mu**p underflows to 0 here; alpha is still 2 lam / (1 + mu**p)
    e = eg.eigenpair(2.0, 1e-200, 1)
    assert e.alpha == 2.0 * e.lam
    assert e.beta == 0.0


def test_first_integral_residual_p2():
    e = eg.eigenpair(2.0, 0.5, 1)
    rep = eg.first_integral_residual(e, np.linspace(0.01, 0.49, 200))
    assert rep.max_abs_residual <= 1e-7 * max(1.0, e.lam**2)
    assert rep.grid_size == 200 and rep.excluded_points == 0


def test_first_integral_residual_grid():
    for p, mu, n in [(1.5, 0.3, 1), (3.0, 0.3, 1), (2.0, 0.6, 2)]:
        e = eg.eigenpair(p, mu, n)
        g = np.linspace(0.011, 1.0 / n - 0.011, 150)
        rep = eg.first_integral_residual(e, g)
        assert rep.max_abs_residual <= 1e-7 * max(1.0, e.lam**2)


def test_ode_residual_p2():
    e = eg.eigenpair(2.0, 0.5, 1)
    rep = eg.ode_residual(e, np.linspace(0.01, 0.99, 200))
    assert rep.max_abs_residual <= 1e-6 * e.lam


def test_ode_residual_p3():
    e = eg.eigenpair(3.0, 0.3, 1)
    g = np.linspace(0.02, 0.98, 120)
    g = g[np.abs(g - 0.5) > 0.01]
    rep = eg.ode_residual(e, g)
    assert rep.max_abs_residual <= 1e-5 * e.lam**2


def test_ode_residual_sign_symmetry():
    g = np.linspace(0.02, 0.98, 60)
    g = g[np.abs(g - 0.5) > 0.01]
    rp = eg.ode_residual(eg.eigenpair(3.0, 0.3, 1, 1), g)
    rm = eg.ode_residual(eg.eigenpair(3.0, 0.3, 1, -1), g)
    assert rp.max_abs_residual == rm.max_abs_residual


def test_residuals_invert_once_and_match_public_functions(monkeypatch):
    # both residual routines build phi and its derivatives from one
    # reduction and inversion; the result is bit-identical to the residual
    # formed from the public sn_p functions
    inverts = []
    invert = el._SnpEngine.invert

    def counting(self, t):
        inverts.append(np.size(t))
        return invert(self, t)

    g = np.linspace(0.01, 1.49, 97)
    for p, mu, n, sign in [(2.0, 0.5, 1, 1), (3.0, 0.3, 1, -1), (1.5, 0.9, 2, 1)]:
        e = eg.eigenpair(p, mu, n, sign)
        scale = 2.0 * n * el.kp(p, mu)
        y = (scale * g)[eg._admissible(e, g)[0]]
        phi = sign * e.amplitude * el.snp(p, mu, y)
        d1 = sign * e.amplitude * scale * el.snp_deriv(p, mu, y)
        d2 = sign * e.amplitude * scale**2 * el.snp_second_deriv(p, mu, y)
        ode = (p - 1.0) * (
            np.abs(d1) ** (p - 2.0) * d2
            - np.sign(phi) * np.abs(phi) ** (2.0 * p - 1.0)
            + e.lam * np.sign(phi) * np.abs(phi) ** (p - 1.0)
        )
        first = np.abs(d1) ** p - 0.5 * (e.alpha - np.abs(phi) ** p) * (
            e.beta - np.abs(phi) ** p
        )
        monkeypatch.setattr(el._SnpEngine, "invert", counting)
        inverts.clear()
        assert eg.ode_residual(e, g).max_abs_residual == np.max(np.abs(ode))
        assert eg.first_integral_residual(e, g).max_abs_residual == np.max(
            np.abs(first)
        )
        assert inverts == [y.size, y.size]
        monkeypatch.undo()


def test_residual_exclusion_counting():
    e = eg.eigenpair(3.0, 0.4, 1)
    K = el.kp(3.0, 0.4)
    # park two points inside the singular margin around x = 1/2
    inside = 1e-7 / (2.0 * K)
    g = np.concatenate([[0.5 - inside, 0.5 + inside], np.linspace(0.05, 0.45, 20)])
    rep = eg.ode_residual(e, g)
    assert rep.excluded_points == 2
    assert rep.grid_size == 22


@pytest.mark.parametrize("p", [2.5, 3.0, 6.0, 1.5])
@pytest.mark.parametrize("mu", [0.5, 0.9])
def test_exclusion_is_the_second_derivative_singular_set(p, mu):
    # one singular set: ode_residual drops a point exactly where
    # snp_second_deriv raises at the argument eigen folds (p > 2), and for
    # any p != 2 exactly where the folded u is within 1e-6 of K_p.  Both
    # residuals share the exclusion; at p = 1.5 the first integral is used,
    # as sn_p' rounds to 0 at the kept points, which the ODE residual drops
    e = eg.eigenpair(p, mu, 1)
    K = el.kp(p, mu)
    residual = eg.ode_residual if p > 2.0 else eg.first_integral_residual
    for d in (0.5e-6, 0.999e-6, 1.005e-6, 1.02e-6):
        for y0 in (K - d, K + d, 3.0 * K - d, 3.0 * K + d):
            x = y0 / (2.0 * K)
            rep = residual(e, [0.2, 0.3, x])
            excluded = rep.excluded_points == 1
            assert excluded == (d < 1e-6)
            if p > 2.0:
                try:
                    el.snp_second_deriv(p, mu, 2.0 * e.n * K * x)
                except SingularPoint:
                    raised = True
                else:
                    raised = False
                assert raised == excluded


@pytest.mark.parametrize("p, d", [(1.5, 1.02e-6), (1.5, 1e-5), (1.2, 1e-3)])
def test_ode_residual_drops_kept_points_where_the_slope_rounds_to_zero(p, d):
    # u = K_p - d is outside the 1e-6 margin, but sn_p' rounds to 0 there,
    # so |phi'|**(p-2) phi'' would be 0 * inf: the point is excluded, not NaN
    e = eg.eigenpair(p, 0.5, 1)
    K = el.kp(p, 0.5)
    x = (K - d) / (2.0 * K)
    assert el.snp_deriv(p, 0.5, K - d) == 0.0
    rep = eg.ode_residual(e, [0.25, x])
    assert (rep.grid_size, rep.excluded_points) == (2, 1)
    assert rep.max_abs_residual == eg.ode_residual(e, [0.25]).max_abs_residual
    with pytest.raises(SingularPoint):
        eg.ode_residual(e, [x])


def test_residual_grid_errors():
    e = eg.eigenpair(3.0, 0.4, 1)
    K = el.kp(3.0, 0.4)
    inside = 1e-8 / (2.0 * K)
    bad = np.array([0.5 - inside, 0.5 + inside])
    with pytest.raises(GridTooCoarse):
        eg.first_integral_residual(e, bad)
    with pytest.raises(SingularPoint):
        eg.ode_residual(e, bad)
    with pytest.raises(GridTooCoarse):
        eg.first_integral_residual(e, np.array([]))
    # a NaN or infinite point is rejected, never counted as an exclusion
    for p in (2.0, 3.0):
        pair = eg.eigenpair(p, 0.5, 1)
        for x in (math.nan, math.inf):
            grid = [0.1, 0.2, 0.3, x]
            with pytest.raises(DomainError):
                eg.first_integral_residual(pair, grid)
            with pytest.raises(DomainError):
                eg.ode_residual(pair, grid)
        # so is a point where y = 2 n K_p x is too large to fold
        with pytest.raises(DomainError):
            eg.first_integral_residual(pair, [0.1, 0.2, 1e300])
        with pytest.raises(DomainError):
            eg.ode_residual(pair, [0.1, 0.2, -1e300])


def test_eigenfunction_periodic_extension():
    e = eg.eigenpair(2.0, 0.5, 1)
    # x outside (0,1): periodic continuation is well-defined
    assert abs(eg.eigenfunction_eval(e, 1.3) - eg.eigenfunction_eval(e, -0.7)) < 1e-9
