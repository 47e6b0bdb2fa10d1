"""Tests for K_p, w_p, sn_p and derivatives.

Oracles: scipy's AGM-based ellipk/ellipj at p=2 (away from mu=1, where
scipy's own near-one approximation breaks down), a 30-digit mpmath
inversion of w_p for p != 2, closed forms at mu=0, centered finite
differences for the derivative chain, and a handful of values frozen from
a 50-digit evaluation of the defining integrals.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import ellipj, ellipk

import pelliptic.elliptic as el
import pelliptic.quadrature as quad
from pelliptic.errors import DomainError, NonConvergence, SingularPoint, SlowConvergence

# frozen 50-digit references (defining integral, independent implementation)
KP_REF = {
    (2.0, 0.5): 1.6857503548125960429,
    (3.0, 0.6): 1.241435702221483947,
    (1.5, 0.3): 2.6182057861562335914,
    (5.0, 0.9): 1.1024185336468015615,
    (1.2, 0.9): 22.557949090640601733,
    (3.0, 1.0 - 1e-12): 1.766540034308949794,
}


def test_kp_at_mu_zero_closed_form():
    for p in [1.1, 1.5, 2.0, 3.0, 5.0, 7.0, 40.0]:
        exact = math.pi / (p * math.sin(math.pi / p))
        assert abs(el.kp(p, 0.0) - exact) < 1e-12


def test_kp_frozen_references():
    for (p, mu), ref in KP_REF.items():
        assert abs(el.kp(p, mu) - ref) < 1e-12


def test_kp_against_scipy_agm():
    for mu in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
        assert abs(el.kp(2.0, mu) - float(ellipk(mu * mu))) < 1e-10


def test_kp_matches_mpmath_hyp2f1():
    # K_p = pi / (p sin(pi/p)) 2F1(1/p, 1/p; 1; mu^p), summed by mpmath at
    # 40 digits on the exact double inputs, from p = 1.001 and up to the
    # last double below mu = 1
    for p in [1.001, 1.005, 1.01, 1.02, 1.044, 1.05,
              1.1, 1.2, 1.5, 1.9, 2.0, 2.1, 3.0, 6.0, 12.0]:
        for mu in [0.0, 0.1, 0.3, 0.6, 0.9, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9,
                   1.0 - 1e-12, math.nextafter(1.0, 0.0)]:
            with mpmath.workdps(40):
                P, M = mpmath.mpf(p), mpmath.mpf(mu)
                ref = mpmath.pi / (P * mpmath.sin(mpmath.pi / P)) * mpmath.hyp2f1(
                    1 / P, 1 / P, 1, M**P
                )
                err = float(abs(el.kp(p, mu) - ref) / ref)
            assert err <= 4e-15, (p, mu, err)


def test_kp_at_large_p_matches_hyp2f1():
    # K_p -> 1 from above as p grows; the expansion of (1 - s**p) / (1 - s)
    # about s = 1 holds only where p (1 - s) is small, and used beyond that
    # it puts K_p below 1.  Within 2 units of 2**-52 of 40-digit hyp2f1
    for p in [1e3, 1e6, 1e7, 1e8, 1e10, 1e20, 1e100, 1e300]:
        for mu in [0.0, 0.5, 0.999]:
            with mpmath.workdps(40):
                P, M = mpmath.mpf(p), mpmath.mpf(mu)
                ref = mpmath.pi / (P * mpmath.sin(mpmath.pi / P)) * mpmath.hyp2f1(
                    1 / P, 1 / P, 1, M**P
                )
                K = el.kp(p, mu)
                units = float(abs(K - ref) / ref) / el._EPS
            assert K >= 1.0 and units <= 2.0, (p, mu, K, units)


def test_kp_nodes_stay_within_budget():
    # the integrand in v stops no later than the one in s did: over this
    # grid the quadrature in s used 12,392 nodes, at most 391 at a point
    nodes = [
        el.kp_quadrature(p, mu).nodes_used
        for p in [1.075, 1.1, 1.2, 1.3, 1.5, 2.0, 3.0, 6.0, 20.0]
        for mu in [0.01, 0.3, 0.6, 0.9, 0.99, 0.999]
    ]
    assert sum(nodes) <= 12392
    assert max(nodes) <= 391


def test_kp_rows_equal_scalar_kp():
    # one batch mixing p where v**m has m = 0.5, about 1 and about 2 with
    # other p: each row has the bits of the scalar call, and kp_quadrature
    # is the one-row batch in value, error estimate and node count
    ps = [1.25, 10.0 / 9.0, 20.0 / 19.0, 1.02, 2.0, 7.0]
    mus = [0.0, 0.5, 0.999, 1.0 - 1e-12]
    p, mu = zip(*[(a, b) for a in ps for b in mus])
    rows = el._kp_rows(p, mu)[0]
    for i, (a, b) in enumerate(zip(p, mu)):
        r = el.kp_quadrature(a, b)
        value, err, nodes = el._kp_rows([a], [b])
        assert rows[i] == el.kp(a, b) == r.value == value[0]
        assert (r.abs_error_estimate, r.nodes_used) == (err[0], nodes)


def test_kp_rows_sharing_p_equal_scalar_kp_with_the_p_factor_cold_and_warm():
    # rows that share p share v**m and (1 - s**p) / (1 - s) through
    # _kp_p_factor: in a shuffled batch with p repeated in scattered rows
    # and (p, mu) pairs given twice, every row has the bits of the scalar
    # quadrature, whether the batch computes the shared factors or finds
    # them cached
    pairs = [(a, b) for a in (1.05, 1.63, 2.0, 4.5) for b in (0.0, 0.3, 0.9, 1.0 - 1e-9)]
    pairs += pairs[::3]
    order = np.random.default_rng(7).permutation(len(pairs))
    p, mu = zip(*[pairs[i] for i in order])
    el._kp_p_factor.cache_clear()
    cold = el._kp_rows(p, mu)[0]
    assert el._kp_p_factor.cache_info().misses > 0
    warm = el._kp_rows(p, mu)[0]
    assert el._kp_p_factor.cache_info().hits > 0
    assert cold.tobytes() == warm.tobytes()
    el._kp_p_factor.cache_clear()
    for i, (a, b) in enumerate(zip(p, mu)):
        assert cold[i] == el.kp_quadrature(a, b).value
    # the scalar calls found the factors of their own p, not the batch's
    assert el._kp_p_factor.cache_info().hits > 0


def test_kp_p_factor_cache_is_bounded_and_documented():
    # the cache holds one entry per call's distinct p's and level; its
    # docstring gives the bound and what one entry holds
    size = el._kp_p_factor.cache_info().maxsize
    assert size is not None and size <= 64
    assert f"Bounded at {size} entries" in " ".join(el._kp_p_factor.__doc__.split())
    e, ratio = el._kp_p_factor((1.5, 3.0), quad._BLOCK_LEVEL)
    assert e.shape == ratio.shape == (2, quad._ts_nodes()[3][quad._BLOCK_LEVEL + 1])
    assert not e.flags.writeable and not ratio.flags.writeable


def test_kp_extreme_modulus():
    # scipy's ellipk is still fine here; the frozen value guards the
    # boundary-layer handling independently
    assert abs(el.kp(2.0, 1.0 - 1e-12) - 14.855242389793774712) < 1e-11


def test_kp_monotone_in_mu():
    for p in [1.3, 2.0, 4.0]:
        vals = [el.kp(p, mu) for mu in np.linspace(0.0, 0.99, 34)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_kp_domain_errors():
    for p, mu in [(1.0, 0.5), (0.5, 0.5), (2.0, 1.0), (2.0, -0.1), (2.0, 1.5)]:
        with pytest.raises(DomainError):
            el.kp(p, mu)


KP_SMALL_P_REF = {
    # p close to 1, where the quadrature in s could not certify 1e-13
    (1.02, 0.999): 37464.51399251196374151,
    (1.02, 0.5): 96.13032680143358913363,
    (1.05, 0.98): 664.4345810566760766692,
    (1.0408163265306123, 0.999): 13807.84957606032605498,
    (1.02, 0.0999): 55.09316525560970857303,
}


def test_kp_small_p_corners():
    for (p, mu), ref in KP_SMALL_P_REF.items():
        assert abs(el.kp(p, mu) - ref) < 1e-12 * ref


def test_kp_tries_the_quadrature_once(monkeypatch):
    # kp is the quadrature's value, from one call, even at (1.05, 0.5)
    # where the quadrature in s once failed
    calls = []
    quad = el.kp_quadrature

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return quad(*args, **kwargs)

    monkeypatch.setattr(el, "kp_quadrature", counted)
    # past kp's cache, so an earlier call cannot hide the quadrature
    assert el.kp.__wrapped__(1.05, 0.5) == quad(1.05, 0.5).value
    assert calls == [((1.05, 0.5), {})]


def test_kp_via_2f1_closed_form_and_cross_check():
    assert abs(el.kp_via_2f1(2.0, 0.0) - math.pi / 2.0) < 1e-14
    for p, mu in [(2.0, 0.5), (1.5, 0.3), (3.0, 0.7), (5.0, 0.5)]:
        assert abs(el.kp_via_2f1(p, mu) - el.kp(p, mu)) < 1e-8


def test_kp_via_2f1_slow_convergence_guard():
    with pytest.raises(SlowConvergence):
        el.kp_via_2f1(2.0, 0.96)  # mu^p = 0.9216 > 0.9


def test_wp_endpoints_and_arcsin():
    assert el.wp(2.0, 0.5, 0.0) == 0.0
    assert el.wp(2.0, 0.5, 1.0) == el.kp(2.0, 0.5)
    assert abs(el.wp(2.0, 0.0, 0.5) - math.pi / 6.0) < 1e-12
    with pytest.raises(DomainError):
        el.wp(2.0, 0.5, 1.2)
    with pytest.raises(DomainError):
        el.wp(2.0, 0.5, -0.1)


def test_wp_strictly_increasing():
    zs = np.linspace(0.0, 1.0, 41)
    vals = [el.wp(3.0, 0.8, z) for z in zs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def _wp_quadrature(p, mu, z):
    """w_p(z) by the tanh-sinh driver: z * int_0^1 w_p'(z s) ds up to
    z = 0.6, else K - (1-z)**(1-1/p) int_0^1 u**(-1/p) T((1-z) u) du with
    the tail factor T that K_p integrates."""
    if z <= 0.6:
        F = lambda lev, s, cs, rows: ((1 - (z * s) ** p) * (1 - (mu * z * s) ** p)) ** (
            -1.0 / p
        )
        return z * float(quad._tanh_sinh(F, 1.0, 1e-14)[0])
    e = 1.0 - z
    F = lambda lev, u, cu, rows: el._tail_factor(e * u, p, *el._eps_mup(p, mu))
    return el.kp(p, mu) - e ** (1.0 - 1.0 / p) * float(
        quad._tanh_sinh(F, 1.0 - 1.0 / p, 1e-14)[0]
    )


def test_wp_approximant_matches_quadrature():
    # the series and the tail panels against the quadrature they replace;
    # p = 100 needs panels graded by the zeros of 1 - (1-e)**p, mu -> 1 by
    # the pole of the tail factor at e = -(1-mu)/mu
    cases = [(2.0, 0.5), (1.5, 0.99), (1.2, 0.999), (1.1, 1.0 - 1e-6), (6.0, 0.3),
             (100.0, 0.5), (2.0, 1.0 - 1e-12)]
    zs = np.concatenate([np.linspace(0.01, 0.99, 50), 1.0 - np.logspace(-12, -2, 11)])
    for p, mu in cases:
        got = el._SnpEngine(p, mu).wp_many(zs)
        ref = np.array([_wp_quadrature(p, mu, z) for z in zs])
        err = np.max(np.abs(got - ref))
        assert err <= 8.0 * el._EPS * (1.0 + el.kp(p, mu)), (p, mu, err)


def _mp_wp(p, mu, z):
    """30-digit w_p(z), split at 1 - 0.5 / 4**j above 0.5 so that a
    boundary layer at z = 1 sits near an end of each piece."""
    with mpmath.workdps(30):
        P, M, Z = mpmath.mpf(p), mpmath.mpf(mu), mpmath.mpf(z)
        pts = [mpmath.mpf(0), mpmath.mpf(0.5)]
        gap = mpmath.mpf(0.5)
        while gap > 4 * (1 - Z):
            gap /= 4
            pts.append(1 - gap)
        return mpmath.quad(
            lambda s: ((1 - s**P) * (1 - (M * s) ** P)) ** (-1 / P), pts + [Z]
        )


def test_wp_close_to_p_one():
    # the series branch needs no quadrature, so it works for any p > 1; the
    # tail panels refuse to build below p = 1.05, where their check on the
    # trailing coefficients can miss a build that is off by more than 1e-14
    for p, mu, z in [(1.01, 0.9, 0.6), (1.03, 0.5, 0.3)]:
        ref = _mp_wp(p, mu, z)
        assert abs(el.wp(p, mu, z) - ref) <= 1e-15 * ref
    with pytest.raises(NonConvergence):
        el.wp(1.03, 0.5, 0.9)
    for mu in [0.5, 0.99]:
        ref = _mp_wp(1.05, mu, 0.9)
        assert abs(el.wp(1.05, mu, 0.9) - ref) <= 1e-14 * ref


def test_wp_and_snp_at_large_p():
    # the series length comes from p log 0.6, not from the log of 0.6**p,
    # which underflows near p = 1460; the tail panels, which the inversion
    # builds, resolve up to p = 1e6 since (1 - s**p) / (1 - s) is expanded
    # about s = 1 only where p (1 - s) is small
    for p in [1500.0, 5000.0, 7000.0, 1e4, 1e6]:
        assert el.wp(p, 0.5, 0.3) == 0.3
        assert abs(el.snp(p, 0.5, 0.3) - 0.3) <= el._EPS


def test_wp_at_large_p_matches_mpmath_near_one():
    # near z = 1 the tail panels carry w_p; against 30-digit mpmath they
    # are within 1.14 units of 2**-52 on this grid
    for p in [7000.0, 1e5, 1e6]:
        for z in [0.9999, 1.0 - 1e-6, 1.0 - 1e-9]:
            ref = _mp_wp(p, 0.5, z)
            units = float(abs(el.wp(p, 0.5, z) - ref) / ref) / el._EPS
            assert units <= 1.5, (p, z, units)


# near p = 1 and mu = 1, K_p is far larger than w_p; the tail form
# w_p(0.6) + integral, with no K_p in it, keeps w_p's relative accuracy
_WP_CORNER = [
    (p, mu, z)
    for p in (1.0501, 1.1, 1.2, 1.5, 2.0)
    for mu, z in [(1 - 1e-12, 0.61), (1 - 1e-12, 0.59), (1 - 1e-9, 0.7), (0.9, 0.61)]
]


@pytest.mark.parametrize("p, mu, z", _WP_CORNER)
def test_wp_near_one_matches_mpmath(p, mu, z):
    ref = _mp_wp(p, mu, z)
    assert abs(el.wp(p, mu, z) - ref) <= 1e-14 * ref


def _oracle_points(p, mu):
    """z just either side of 0.6 and of the tail panel edge nearest e = 1e-4."""
    e = el._SnpEngine(p, mu)._tail_panels().e
    z = 1.0 - e[np.argmin(np.abs(np.log(e[1:] / 1e-4))) + 1]
    return [math.nextafter(c, side) for c in (0.6, z) for side in (0.0, 1.0)]


@pytest.mark.parametrize("p", [1.05, 1.1, 1.2, 1.5, 2.0, 6.0])
@pytest.mark.parametrize("mu", [0.5, 0.9, 1 - 1e-9, 1 - 1e-12])
def test_wp_and_snp_match_mpmath_across_the_joins(p, mu):
    # w_p either side of the series/tail join and of a panel join, and
    # sn_p at those w_p: the exact root s of w_p(s) = y is one 30-digit
    # Newton step from z, as y is w_p(z) rounded to a double
    for z in _oracle_points(p, mu):
        w = el.wp(p, mu, z)
        ref = _mp_wp(p, mu, z)
        assert abs(w - ref) <= 1e-14 * ref, (z, float((w - ref) / ref))
        y = float(ref)
        with mpmath.workdps(30):
            P, M, Z = mpmath.mpf(p), mpmath.mpf(mu), mpmath.mpf(z)
            s = Z - (ref - y) * ((1 - Z**P) * (1 - (M * Z) ** P)) ** (1 / P)
        got_s = el.snp(p, mu, y)
        assert abs(got_s - s) <= 1e-14 * s, (z, float((got_s - s) / s))


def test_tail_build_refuses_panels_that_do_not_resolve(monkeypatch):
    # no (p, mu) from p = 1.05 to 1e300 is known to build panels whose
    # interpolants miss g; one panel over the whole tail at mu = 0.99,
    # across the boundary layer, does, and the build refuses it
    monkeypatch.setattr(el, "_tail_edges", lambda p, mu: np.array([0.0, 0.4 ** (1.0 / 3.0)]))
    with pytest.raises(NonConvergence, match="do not resolve"):
        el._SnpEngine(1.5, 0.99)._tail_panels()


def test_tail_build_runs_no_quadrature(monkeypatch):
    # a cold engine samples the tail integrand once per Chebyshev point of
    # each panel, at most 64 panels, and runs no tanh-sinh quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("tail build ran the quadrature")

    points = []
    tail_factor = el._tail_factor

    def counting(e, *args):
        points.append(np.size(e))
        return tail_factor(e, *args)

    for p in (1.05, 1.5, 2.0, 6.0, 20.0):
        for mu in (0.0, 0.5, 0.9, 1 - 1e-9, 1 - 1e-12, math.nextafter(1.0, 0.0)):
            eng = el._SnpEngine(p, mu)
            points.clear()
            monkeypatch.setattr(quad, "_tanh_sinh", no_quadrature)
            monkeypatch.setattr(el, "_tanh_sinh", no_quadrature)
            monkeypatch.setattr(el, "_tail_factor", counting)
            eng._tail_panels()
            monkeypatch.undo()
            assert 0 < sum(points) <= el._CHEB_N * 64, (p, mu, sum(points))


def test_snp_matches_scipy_ellipj():
    for mu in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        K = el.kp(2.0, mu)
        ys = np.linspace(-1.3 * K, 5.1 * K, 29)
        ref = ellipj(ys, mu * mu)[0]
        assert np.max(np.abs(el.snp(2.0, mu, ys) - ref)) < 1e-9


def _mp_snp(p, mu, y, s):
    """30-digit sn_p(y) on (0, K_p): one Newton step from s on mpmath's
    quadrature of w_p, which squares the error of s."""
    with mpmath.workdps(30):
        P, M, S = mpmath.mpf(p), mpmath.mpf(mu), mpmath.mpf(s)

        def g(x):
            return ((1 - x**P) * (1 - (M * x) ** P)) ** (-1 / P)

        return float(S - (mpmath.quad(g, [0, S]) - mpmath.mpf(y)) / g(S))


def test_snp_inversion_accuracy_oracle():
    for mu in [0.3, 0.6, 0.9, 0.99]:
        ys = el.kp(2.0, mu) * np.linspace(0.0, 1.0, 42)[1:-1]
        got = el.snp(2.0, mu, ys)
        assert np.max(np.abs(got - ellipj(ys, mu * mu)[0])) <= 1e-15, mu
    for p in [1.2, 1.5, 3.0, 6.0]:
        for mu in [0.3, 0.9, 0.99]:
            ys = el.kp(p, mu) * np.linspace(0.0, 1.0, 14)[1:-1]
            got = el.snp(p, mu, ys)
            ref = [_mp_snp(p, mu, y, s) for y, s in zip(ys, got)]
            assert np.max(np.abs(got - ref)) <= 1e-15, (p, mu)


def _mp_snp_roots(p, mu, ys, ss):
    """30-digit sn_p at each y, by Newton's method in v = (1-z)**(1-1/p)
    from v(s) on K_p - y = integral_0^v g, g = r T(v**r) bounded; the tail
    factor T is formed with expm1 and log1p, so it keeps 30 digits as
    e = v**r -> 0, and the integral is split at the boundary layer's scale
    and at every starting v, so each Newton step adds only a short piece."""
    with mpmath.workdps(30):
        P, M = mpmath.mpf(p), mpmath.mpf(mu)
        r = P / (P - 1)
        eps, mup = -mpmath.expm1(P * mpmath.log1p(M - 1)), M**P
        K = mpmath.pi / (P * mpmath.sin(mpmath.pi / P)) * mpmath.hyp2f1(
            1 / P, 1 / P, 1, mup
        )

        def g(v):
            if v == 0:
                return r * (P * eps) ** (-1 / P)
            e = v**r
            ratio = -mpmath.expm1(P * mpmath.log1p(-e)) / e
            return r * (ratio * (eps + mup * ratio * e)) ** (-1 / P)

        layer = (eps / mup) ** (1 / r)
        starts = [(1 - mpmath.mpf(s)) ** (1 / r) for s in ss]
        splits = [c * layer for c in (0.25, 1, 4) if c * layer < max(starts)]
        knots = sorted({mpmath.mpf(0), *starts, *splits})
        below = {knots[0]: mpmath.mpf(0)}
        for a, b in zip(knots, knots[1:]):
            below[b] = below[a] + mpmath.quad(g, [a, b])
        roots = []
        for y, v in zip(ys, starts):
            target, q = K - mpmath.mpf(y), below[v]
            for _ in range(8):
                step = (q - target) / g(v)
                if abs(step) <= mpmath.mpf(10) ** -28 * max(v, layer):
                    break
                q += mpmath.quad(g, [v, v - step])
                v -= step
            roots.append(1 - v**r)
        return roots


def test_snp_ulp_errors_against_mpmath():
    # every point stops on one curvature bound, step**2 G' / (2 G) below
    # 0.05 ulp, also where A = 1 - z**p -> 0 as y -> K_p; from p = 1.06,
    # where sn_p rounds to 1 next to K_p, to p = 20, where it does not, and
    # mu up to the last double below 1.  The error is mostly w_p's own
    # rounding; the bounds are what the earlier stop rule, three Newton
    # passes a point, reached on this grid: at most 1.56 ulp, and 67 of
    # the 75 points within half an ulp
    errors = []
    for p in [1.06, 1.5, 2.0, 6.0, 20.0]:
        for mu in [0.5, 1.0 - 1e-9, math.nextafter(1.0, 0.0)]:
            fractions = [0.3, 0.8, 1 - 2.0**-8, 1 - 2.0**-20, 1 - 2.0**-36]
            ys = el.kp(p, mu) * np.array(fractions)
            got = el.snp(p, mu, ys)
            for s, ref in zip(got, _mp_snp_roots(p, mu, ys, got)):
                with mpmath.workdps(30):
                    ulp = mpmath.mpf(2) ** (mpmath.floor(mpmath.log(ref, 2)) - 52)
                    errors.append(float(abs(mpmath.mpf(s) - ref) / ulp))
    errors = np.array(errors)
    assert errors.max() <= 1.56, errors.max()
    assert np.count_nonzero(errors <= 0.5) >= 67, np.count_nonzero(errors <= 0.5)


def test_warm_inversion_takes_one_newton_pass(monkeypatch):
    # the Hermite start from the table lands close enough that the
    # curvature rule stops almost every point after its first step: over
    # the (p, mu) box that the pipeline_cold benchmark draws from, a scalar
    # sn_p on a warm engine takes one wp_many call in all but a few per
    # cent of cases and never more than two, and the 101-point grid of the
    # eigenfunction residuals at most two
    calls = []
    wp_many = el._SnpEngine.wp_many

    def counting(self, z):
        calls.append(np.size(z))
        return wp_many(self, z)

    scalar = []
    for p in [1.5, 2.0, 3.0, 4.5, 6.0]:
        for mu in [0.1, 0.5, 0.9, 0.95]:
            K = el.kp(p, mu)
            el.snp(p, mu, 0.3)
            monkeypatch.setattr(el._SnpEngine, "wp_many", counting)
            for y in K * (np.arange(40) + 0.5) / 10:
                calls.clear()
                el.snp(p, mu, float(y))
                scalar.append(len(calls))
            calls.clear()
            el.snp(p, mu, 2.0 * K * np.linspace(0.0, 1.0, 101))
            monkeypatch.undo()
            assert len(calls) <= 2, (p, mu, len(calls))
    assert max(scalar) <= 2
    assert scalar.count(1) >= 0.97 * len(scalar), scalar.count(1) / len(scalar)


def test_invert_takes_few_newton_passes(monkeypatch):
    # every point starts in its table bracket and stops on its own step,
    # so no point is left to bisection; a fresh engine counts its table
    # build as one of the passes.  Near mu = 1 the tail panel edges in the
    # table bracket the boundary layer at z = 1
    passes = []
    wp_many = el._SnpEngine.wp_many

    def counting(self, z):
        passes.append(np.size(z))
        return wp_many(self, z)

    cases = [(2.0, 0.5), (3.0, 0.6), (1.5, 0.9), (2.0, 0.99), (6.0, 0.3),
             (2.0, 1.0 - 1e-12), (1.2, 1.0 - 1e-9)]
    for p, mu in cases:
        eng = el._SnpEngine(p, mu)
        t = np.linspace(0.0, eng.K, 1002)[1:-1]
        monkeypatch.setattr(el._SnpEngine, "wp_many", counting)
        passes.clear()
        eng.invert(t)
        monkeypatch.undo()
        assert len(passes) <= 6, (p, mu, len(passes))


def test_table_nodes_fall_out_of_order_by_rounding_only():
    # below p = 1.14 the even-v nodes near v = 0 have z = 1 - v**r rounding
    # to 1; kept, they repeated w = K among the panel edges, up to 0.28 K
    # out of order at p = 1.08, mu = 1 - 1e-12
    for p in (1.05, 1.08, 1.1, 1.13):
        for mu in (0.0, 0.99, 1.0 - 1e-12):
            eng = el._SnpEngine(p, mu)
            w, _ = eng._brackets()
            assert np.diff(w).min() >= -1e-14 * eng.K, (p, mu)


def test_invert_raises_when_newton_stalls():
    # a w_p that turns NaN once the table is built leaves every step
    # unusable, so the inversion stops after its budget, typed
    class Stalling(el._SnpEngine):
        def wp_many(self, z):
            if self._table is None:
                return super().wp_many(z)
            return np.full(np.shape(z), np.nan)

    eng = Stalling(2.0, 0.5)
    with pytest.raises(NonConvergence, match="stalled"):
        eng.invert(np.array([0.3, 1.1]))


def test_snp_extreme_modulus_frozen():
    # scipy's ellipj loses periodicity for m this close to 1, so the
    # references are frozen from a 50-digit computation
    mu = 1.0 - 1e-12
    K = el.kp(2.0, mu)
    cases = [
        (0.5 * K, 0.99999929290179004856),
        (1.5 * K, 0.99999929290179004856),
        (3.7 * K, -0.99973082069898387875),
    ]
    for y, ref in cases:
        assert abs(el.snp(2.0, mu, y) - ref) < 1e-10


def test_snp_scalar_matches_batch(monkeypatch):
    for p, mu in [(2.0, 0.5), (3.0, 0.6), (1.3, 0.9)]:
        K = el.kp(p, mu)
        ys = np.linspace(-2.0 * K, 6.0 * K, 17)
        batch = el.snp(p, mu, ys)
        dbatch = el.snp_deriv(p, mu, ys)
        for y, b, d in zip(ys, batch, dbatch):
            assert el.snp(p, mu, float(y)) == b
            assert el.snp_deriv(p, mu, float(y)) == d
    # every inversion path gives the bits of the float calls: an array
    # whose points all stop on the first Newton pass, arrays that fold to
    # the endpoints 0 and K_p, and arrays in which some points take a
    # second pass.  The sizes of the array call's wp_many calls on a warm
    # engine show which path it took
    calls = []
    wp_many = el._SnpEngine.wp_many

    def counting(self, z):
        calls.append(np.size(z))
        return wp_many(self, z)

    cases = [
        (2.0, 0.5, [0.1, 0.45, 0.77, 1.6, -0.3], [5]),
        (2.0, 0.5, [0.0, 0.3, 1.0, 0.7, 2.0, -1.0], [2]),
        (1.5, 0.99, [0.002, 0.05, 0.5, 0.895, 0.97], [5, 3]),
        (1.5, 0.99, [0.0, 0.05, 1.0, 0.895, 0.5], [3, 2]),
    ]
    for p, mu, fractions, sizes in cases:
        ys = np.array(fractions) * el.kp(p, mu)
        el.snp(p, mu, 0.3)
        monkeypatch.setattr(el._SnpEngine, "wp_many", counting)
        calls.clear()
        el.snp(p, mu, ys)
        monkeypatch.undo()
        assert calls == sizes, (p, mu, fractions, calls)
        for fn in (el.snp, el.snp_deriv, el.snp_second_deriv):
            want = [fn(p, mu, float(y)).hex() for y in ys]
            assert [v.hex() for v in fn(p, mu, ys).tolist()] == want


def test_far_end_of_a_step_reuses_AB_above_the_root(monkeypatch):
    # a start above its root, w_p(z) >= t, has the bracket's upper end at
    # z, so the far end of its step is z and the curvature bound reuses
    # (A, B): a one-pass warm scalar sn_p calls _AB once there, and twice
    # from a start below its root.  y in (0, K_p) folds to t = y
    p, mu = 3.0, 0.6
    K = el.kp(p, mu)
    el.snp(p, mu, 0.3)
    AB, wp_many = el._SnpEngine._AB, el._SnpEngine.wp_many
    ab_calls, w = [], []

    def counting_AB(self, s):
        ab_calls.append(np.size(s))
        return AB(self, s)

    def recording_wp(self, z):
        out = wp_many(self, z)
        w.extend(out.tolist())
        return out

    monkeypatch.setattr(el._SnpEngine, "_AB", counting_AB)
    monkeypatch.setattr(el._SnpEngine, "wp_many", recording_wp)
    seen = []
    for y in K * (np.arange(40) + 0.5) / 40:
        ab_calls.clear()
        w.clear()
        el.snp(p, mu, float(y))
        if len(w) == 1:
            seen.append((w[0] >= y, len(ab_calls)))
    monkeypatch.undo()
    assert len(seen) >= 38
    assert {above for above, _ in seen} == {True, False}
    assert all(n == (1 if above else 2) for above, n in seen), seen


def test_snp_small_mu_is_p_sine():
    # at p=2, mu -> 0 the function degenerates to sin
    for y in [0.3, 1.1, 2.5, -0.7]:
        assert abs(el.snp(2.0, 1e-8, y) - math.sin(y)) < 1e-7


def test_snp_special_points():
    for p, mu in [(2.0, 0.5), (3.5, 0.2)]:
        K = el.kp(p, mu)
        assert el.snp(p, mu, 0.0) == 0.0
        assert el.snp(p, mu, K) == 1.0
        assert el.snp(p, mu, -K) == -1.0
        assert abs(el.snp(p, mu, 2.0 * K)) < 1e-12


def test_snp_symmetries_grid():
    rng = [(1.2, 0.9), (2.0, 0.5), (3.0, 0.6), (5.0, 0.2)]
    for p, mu in rng:
        K = el.kp(p, mu)
        for y in np.linspace(0.05, 3.9, 11) * K:
            v = el.snp(p, mu, float(y))
            assert abs(el.snp(p, mu, float(y + 4 * K)) - v) < 1e-9
            assert abs(el.snp(p, mu, float(-y)) + v) < 1e-9
            assert abs(el.snp(p, mu, float(2 * K - y)) - v) < 1e-9


def test_snp_value_period_index():
    p, mu = 2.0, 0.5
    K = el.kp(p, mu)
    sv = el.snp_value(p, mu, 9.2 * K)
    assert sv.branch_period_index == 2
    assert abs(sv.value - el.snp(p, mu, 9.2 * K)) == 0.0
    assert abs(sv.value) <= 1.0


def test_deriv_finite_difference():
    h = 1e-5
    cases = [(2.0, 0.5, 0.7), (1.5, 0.3, 0.8), (3.0, 0.7, 1.2), (5.0, 0.2, 1.9)]
    for p, mu, y in cases:
        fd = (el.snp(p, mu, y + h) - el.snp(p, mu, y - h)) / (2.0 * h)
        assert abs(el.snp_deriv(p, mu, y) - fd) < 1e-7


def test_deriv_special_points():
    for p, mu in [(2.0, 0.5), (3.0, 0.7)]:
        K = el.kp(p, mu)
        assert el.snp_deriv(p, mu, 0.0) == 1.0
        assert abs(el.snp_deriv(p, mu, K)) < 1e-12
        # falling quarter has negative slope
        assert el.snp_deriv(p, mu, 1.5 * K) < 0.0
        assert el.snp_deriv(p, mu, 3.5 * K) > 0.0


def test_second_deriv_finite_difference():
    h = 2e-4
    cases = [(2.0, 0.5, 0.7), (1.5, 0.3, 0.8), (3.0, 0.7, 1.2), (3.0, 0.7, 2.9)]
    for p, mu, y in cases:
        fd = (
            el.snp(p, mu, y + h) - 2.0 * el.snp(p, mu, y) + el.snp(p, mu, y - h)
        ) / h**2
        assert abs(el.snp_second_deriv(p, mu, y) - fd) < 1e-5


def test_second_deriv_mu_zero_limit():
    assert abs(el.snp_second_deriv(2.0, 1e-8, 0.5) + math.sin(0.5)) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the prefactor ((mu**p + 1) z**p - 2) does not reproduce the second "
    "derivative; differentiating the first-order relation gives "
    "2 mu**p z**p - (1 + mu**p), and the two agree only at mu = 1 "
    "(at mu -> 0, p = 2 the first would give sin**3 - 2 sin instead of -sin)",
)
def test_second_deriv_alternative_prefactor():
    p, mu, y = 2.0, 0.3, 0.7
    z = el.snp(p, mu, y)
    alt = (
        z ** (p - 1.0)
        * ((1.0 - z**p) * (1.0 - mu**p * z**p)) ** (2.0 / p - 1.0)
        * ((mu**p + 1.0) * z**p - 2.0)
    )
    assert abs(alt - el.snp_second_deriv(p, mu, y)) < 1e-8


def test_second_deriv_sign_pattern():
    for p in [1.5, 2.0, 3.0]:
        for mu in [0.2, 0.6, 0.9]:
            K = el.kp(p, mu)
            assert el.snp_second_deriv(p, mu, 0.5 * K) < 0.0
            assert el.snp_second_deriv(p, mu, 1.5 * K) < 0.0
            assert el.snp_second_deriv(p, mu, 2.5 * K) > 0.0
            assert el.snp_second_deriv(p, mu, 3.5 * K) > 0.0


def test_second_deriv_singular_point_guard():
    K = el.kp(3.0, 0.5)
    with pytest.raises(SingularPoint):
        el.snp_second_deriv(3.0, 0.5, K)
    with pytest.raises(SingularPoint):
        el.snp_second_deriv(3.0, 0.5, 3.0 * K + 1e-8)
    # p = 2 is regular there
    el.snp_second_deriv(2.0, 0.5, el.kp(2.0, 0.5))
    # an array is held to the same rule: one point within 1e-6 of K_p
    # refuses the whole array at p > 2, and p <= 2 is finite there
    for p in (3.0, 2.0, 1.5):
        K = el.kp(p, 0.5)
        ys = np.array([0.5 * K, K + 1e-8, 2.5 * K])
        if p > 2.0:
            with pytest.raises(SingularPoint):
                el.snp_second_deriv(p, 0.5, ys)
        else:
            assert np.all(np.isfinite(el.snp_second_deriv(p, 0.5, ys)))


def test_derivative_chain_by_finite_differences():
    # d/dy snp = snp_deriv and d/dy snp_deriv = snp_second_deriv
    h = 1e-5
    for p, mu, y in [(2.0, 0.4, 0.9), (2.5, 0.6, 1.4)]:
        fd1 = (el.snp(p, mu, y + h) - el.snp(p, mu, y - h)) / (2.0 * h)
        assert abs(fd1 - el.snp_deriv(p, mu, y)) < 1e-5
        fd2 = (el.snp_deriv(p, mu, y + h) - el.snp_deriv(p, mu, y - h)) / (2.0 * h)
        assert abs(fd2 - el.snp_second_deriv(p, mu, y)) < 1e-5


def test_jordan_inequality_grid():
    for p in [1.2, 2.0, 3.0, 5.0]:
        for mu in [0.1, 0.5, 0.9]:
            K = el.kp(p, mu)
            ys = np.linspace(0.0, K, 102)[1:-1]
            ratios = el.snp(p, mu, ys) / ys
            assert np.min(ratios - 1.0 / K) >= -1e-10
            assert np.min(1.0 - ratios) >= -1e-10


def test_second_deriv_locally_l1_identity():
    # for p=3 the second derivative blows up at K_p yet stays integrable:
    # the integral of |sn_p''| over [K-eps, K+eps] telescopes to the sum of
    # |sn_p'| at the two edges.  Each half is computed in the z variable,
    # where |sn''|/|sn'| = s^{p-1} (A B)^{1/p-1} (B + mu^p A) with
    # A = 1-s^p, B = 1-mu^p s^p; with z = 1 - (1-z0) x its singular factor
    # is x^(1/p-1), the driver's weight.
    p, mu, eps = 3.0, 0.5, 0.1
    K = el.kp(p, mu)
    z0 = el.snp(p, mu, K - eps)
    mup = mu**p

    def smooth(lev, x, cx, rows):
        e = (1.0 - z0) * x
        s = 1.0 - e
        ratio = el._pow_ratio(e, p)
        A = ratio * e
        B = 1.0 - mup * s**p
        return (
            (1.0 - z0) ** (1.0 / p)
            * s ** (p - 1.0)
            * (ratio * B) ** (1.0 / p - 1.0)
            * (B + mup * A)
        )

    half = float(quad._tanh_sinh(smooth, 1.0 / p, 1e-12)[0])
    edge = abs(el.snp_deriv(p, mu, K - eps))
    # both halves equal the edge slope magnitude by symmetry about K
    assert abs(half - edge) < 1e-8
    assert abs(el.snp_deriv(p, mu, K + eps)) - edge == pytest.approx(0.0, abs=1e-12)
    total = 2.0 * half
    assert abs(total - (edge + abs(el.snp_deriv(p, mu, K + eps)))) < 1e-7


@pytest.mark.parametrize("p, mu", [(2.0, 0.5), (1.5, 0.99), (3.0, 0.1)])
def test_snp_fold_refuses_y_where_doubles_are_a_quarter_period_apart(p, mu):
    # from |y| = limit on, neighbouring doubles are K_p or more apart, so
    # y mod 4 K_p is undetermined; just below it they are under K_p apart
    K = el.kp(p, mu)
    limit = 2.0 ** (math.frexp(K)[1] + 52)
    below = math.nextafter(limit, 0.0)
    assert math.ulp(below) < K <= math.ulp(limit)
    for y in (below, -below):
        v = el.snp(p, mu, y)
        assert abs(v) <= 1.0
        assert el.snp(p, mu, np.array([0.3, y]))[1] == v
        sv = el.snp_value(p, mu, y)
        assert sv.value == v
        assert sv.branch_period_index == math.floor(y / (4.0 * K))
    for y in (limit, -limit, 1e17, 1e300):
        for fn in (el.snp, el.snp_value, el.snp_deriv, el.snp_second_deriv):
            with pytest.raises(DomainError, match="ulp"):
                fn(p, mu, y)
        with pytest.raises(DomainError, match="ulp"):
            el.snp(p, mu, np.array([0.3, y]))


def test_snp_rejects_bad_domain():
    for fn in (el.snp, el.snp_value, el.snp_deriv, el.snp_second_deriv):
        for y in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                fn(2.0, 0.5, y)
    for fn in (el.snp, el.snp_deriv, el.snp_second_deriv):
        with pytest.raises(DomainError):
            fn(2.0, 0.5, [0.1, math.nan, 0.3])
    with pytest.raises(DomainError):
        el.snp(2.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        el.snp(1.0, 0.5, [0.1])
