"""Tests for K_p, w_p, sn_p and derivatives.

Oracles: scipy's AGM-based ellipk/ellipj at p=2 (away from mu=1, where
scipy's own near-one approximation breaks down), a 30-digit mpmath
inversion of w_p for p != 2, closed forms at mu=0, centered finite
differences for the derivative chain, and a handful of values frozen from
a 50-digit evaluation of the defining integrals.
"""

import math
import re
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from scipy.special import ellipj, ellipk

import pelliptic.certify as ct
import pelliptic.eigen as eg
import pelliptic.elliptic as el
import pelliptic.fourier as fr
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


def test_kp_rows_equal_scalar_kp(monkeypatch):
    # one batch mixing p where v**m has m = 0.5, about 1 and about 2 with
    # other p, from p = 1.001 to 1e6 and up to the last double below
    # mu = 1: each row has the bits of the scalar call, and kp_quadrature,
    # which runs one integrand on the driver's point path, has those of
    # the one-row batch in value, error estimate and node count.  A spy
    # on the integrand sees 1-D node arrays for a scalar call and 2-D ones
    # for a list call
    seen = []
    driver = el._tanh_sinh

    def spy(F, ea, tol):
        def G(lev, x, cx, rows):
            out = F(lev, x, cx, rows)
            seen.append(out.ndim)
            return out

        return driver(G, ea, tol)

    monkeypatch.setattr(el, "_tanh_sinh", spy)
    ps = [1.001, 1.25, 10.0 / 9.0, 20.0 / 19.0, 1.02, 2.0, 7.0, 1e6]
    mus = [0.0, 0.5, 0.999, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]
    p, mu = zip(*[(a, b) for a in ps for b in mus])
    rows = el._kp_rows(p, mu)[0]
    assert set(seen) == {2}
    for i, (a, b) in enumerate(zip(p, mu)):
        del seen[:]
        r = el.kp_quadrature(a, b)
        assert seen and set(seen) == {1}
        del seen[:]
        value, err, nodes = el._kp_rows([a], [b])
        assert seen and set(seen) == {2}
        assert rows[i] == el.kp(a, b) == r.value == value[0]
        assert (r.abs_error_estimate, r.nodes_used) == (err[0], nodes)
    # a batch whose rows share one p, where F takes p and m as floats and
    # gathers no rows, has each row's value and estimate bit for bit
    for a in ps:
        del seen[:]
        value, err, _ = el._kp_rows([a] * len(mus), mus)
        assert seen and set(seen) == {2}
        for j, b in enumerate(mus):
            one = el._kp_rows([a], [b])
            assert (value[j], err[j]) == (one[0][0], one[1][0]) and value[j] == el.kp(a, b)
    # (2, nextafter(1, 0)) stops at level 7, past the block of levels 0-4,
    # so the point path's level loop runs
    cuts = quad._ts_nodes()[3]
    assert el.kp_quadrature(2.0, math.nextafter(1.0, 0.0)).nodes_used == cuts[8]


def test_each_kp_miss_runs_one_quadrature_and_a_hit_none(monkeypatch):
    # the accounting behind the benchmark's elliptic.kp.misses ==
    # elliptic.kp_quadrature.calls: a kp cache miss calls kp_quadrature
    # exactly once, a hit not at all
    calls = []
    quadrature = el.kp_quadrature

    def counted(p, mu):
        calls.append((p, mu))
        return quadrature(p, mu)

    monkeypatch.setattr(el, "kp_quadrature", counted)
    for p, mu in [(2.0 + 2.0**-40, 0.3), (1.3 + 2.0**-40, 1.0 - 1e-12)]:
        before = el.kp.cache_info()
        value = el.kp(p, mu)
        miss = el.kp.cache_info()
        assert (miss.misses - before.misses, miss.hits - before.hits) == (1, 0)
        assert calls == [(p, mu)]
        assert el.kp(p, mu) == value
        hit = el.kp.cache_info()
        assert (hit.misses - miss.misses, hit.hits - miss.hits) == (0, 1)
        assert calls == [(p, mu)]
        del calls[:]


def test_kp_rows_sharing_p_equal_scalar_kp():
    # rows that share p share v**m and (1 - s**p) / (1 - s), formed once
    # per level for the call's distinct p's: in a shuffled batch with p
    # repeated in scattered rows and (p, mu) pairs given twice, every row
    # has the bits of the scalar quadrature, and a repeat of the batch
    # has the bits of the first
    pairs = [(a, b) for a in (1.05, 1.63, 2.0, 4.5) for b in (0.0, 0.3, 0.9, 1.0 - 1e-9)]
    pairs += pairs[::3]
    order = np.random.default_rng(7).permutation(len(pairs))
    p, mu = zip(*[pairs[i] for i in order])
    rows = el._kp_rows(p, mu)[0]
    assert rows.tobytes() == el._kp_rows(p, mu)[0].tobytes()
    for i, (a, b) in enumerate(zip(p, mu)):
        assert rows[i] == el.kp_quadrature(a, b).value


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
    assert el._kp.__wrapped__(1.05, 0.5) == quad(1.05, 0.5).value
    assert calls == [((1.05, 0.5), {})]


def test_kp_via_2f1_closed_form_and_cross_check():
    assert abs(el.kp_via_2f1(2.0, 0.0) - math.pi / 2.0) < 1e-14
    for p, mu in [(2.0, 0.5), (1.5, 0.3), (3.0, 0.7), (5.0, 0.5)]:
        assert abs(el.kp_via_2f1(p, mu) - el.kp(p, mu)) < 1e-8


def test_kp_via_2f1_slow_convergence_guard():
    with pytest.raises(SlowConvergence):
        el.kp_via_2f1(2.0, 0.96)  # mu^p = 0.9216 > 0.9


def test_kp_sum_matches_40_digit_hyp2f1_over_the_crossing_band():
    # K_p = pref 2F1(a, a; 1; x) and dK_p/dt = -y pref a^2 2F1(a+1, a+1; 2; x),
    # a = 1/p, x = 1 - y, t = log y, at p = 2 and 2 +- 1e-12, 1e-6 and 1e-3
    # (sigma = 1 - 2/p near 0, where the y-series takes its removable form),
    # both ends of the firstcond crossing range and 12 seeded p inside it,
    # by x from 0 to 1 - 1e-9 on both sides of the switch at x = 1/2: value
    # and slope within 1e-14 relative (measured: 3.0e-15 and 3.4e-15)
    rng = np.random.default_rng(47)
    ps = [2.0, 1.2497941463776217, 2.023976105481417]
    ps += [2.0 + d for d in (1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3)]
    ps += rng.uniform(1.2497, 2.024, 12).tolist()
    xs = [0.0, 1e-9, 0.1, 0.3, 0.5, math.nextafter(0.5, 1.0), 0.7, 0.9, 0.99]
    xs += [0.999, 1.0 - 1e-6, 1.0 - 1e-9]
    worst = [0.0, 0.0]
    with mpmath.workdps(40):
        for p in ps:
            for x in xs + rng.uniform(0.0, 1.0, 2).tolist():
                t = math.log1p(-x)
                k, dk = el._KpSeries(p)(t)
                P, T = mpmath.mpf(p), mpmath.mpf(t)
                a, X = 1 / P, -mpmath.expm1(T)
                pref = mpmath.pi / (P * mpmath.sin(mpmath.pi / P))
                ref = pref * mpmath.hyp2f1(a, a, 1, X)
                dref = -mpmath.exp(T) * pref * a * a * mpmath.hyp2f1(a + 1, a + 1, 2, X)
                worst[0] = max(worst[0], abs(float((k - ref) / ref)))
                worst[1] = max(worst[1], abs(float((dk - dref) / dref)))
    assert worst[0] < 1e-14 and worst[1] < 1e-14, worst


def test_kp_series_has_the_same_bits_cold_warm_and_in_any_order():
    # the t-free parts are formed once on first need and kept: a value from
    # a fresh evaluator equals the one from an evaluator warmed by other t,
    # visited in seeded order and reversed, on both sides of the switch at
    # x = 1/2, at p = 2 exactly (sigma = 0) and where |sigma| < 0.1, where
    # D_0 is its zeta series
    rng = np.random.default_rng(48)
    ps = [2.0, 2.0 + 1e-12, 1.9, 2.1, 1.82, 2.22] + rng.uniform(1.25, 2.03, 10).tolist()
    for p in ps:
        xs = rng.uniform(0.0, 1.0 - 1e-9, 12).tolist() + [0.5, 0.9, 1.0 - 1e-9, 1e-9]
        ts = [math.log1p(-x) for x in xs]
        cold = {t: el._KpSeries(p)(t) for t in ts}
        warm = el._KpSeries(p)
        for t in [*rng.permutation(ts).tolist(), *ts[::-1]]:
            assert warm(t) == cold[t], (p, t)
        assert el._KpSeries(p).start(ct.FIRSTCOND_RHS) == warm.start(ct.FIRSTCOND_RHS)
    # the branches of D_0 that these p reach
    assert el._KpSeries(2.0).s == 0.0
    assert 0.0 < abs(el._KpSeries(1.9).s) < 0.1 < abs(el._KpSeries(1.6).s)


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


def _appell_wp(p, mu, z):
    """30-digit w_p(z) = z F1(1/p; 1/p, 1/p; 1 + 1/p; z**p, mu**p z**p),
    an oracle that shares no integrand with :func:`_mp_wp`."""
    with mpmath.workdps(30):
        P, M, Z = mpmath.mpf(p), mpmath.mpf(mu), mpmath.mpf(z)
        a = 1 / P
        return Z * mpmath.appellf1(a, a, a, 1 + a, Z**P, (M * Z) ** P)


# points where appellf1 converges in 4-50 ms; w_p is within 0.01-0.91
# units of 2**-52 of it, except 4.95 units at (1.05, 0.99, 0.7), the z =
# 0.6 join defect.  (1.05, 0.99, 0.99) is left out: appellf1 runs for
# seconds there and then raises
_APPELL_POINTS = [
    (1.5, 0.5, 0.3),
    (1.5, 0.9, 0.7),
    (2.0, 0.5, 0.9),
    (3.0, 0.99, 0.8),
    (1.2, 0.9, 0.5),
    (6.0, 0.5, 0.95),
    (1.05, 0.99, 0.7),
    (1.1, 0.5, 0.61),
    (1.05, 0.5, 0.59),
]


@pytest.mark.parametrize("p, mu, z", _APPELL_POINTS)
def test_wp_matches_appell_f1(p, mu, z):
    # held to the relative bound of the _mp_wp tests at such points, and
    # the two 30-digit oracles agree far below it
    ref = _appell_wp(p, mu, z)
    assert abs(el.wp(p, mu, z) - ref) <= 1e-14 * ref
    assert abs(ref - _mp_wp(p, mu, z)) <= 1e-25 * ref


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


def test_point_inversion_takes_every_branch_of_the_array_path():
    # a point decides by ifs what an array decides by masks, with the same
    # formulas, so a float t ends where the same t in an array ends: at
    # the endpoints t = 0 and t = K, which make no Newton pass; on a step
    # that leaves its bracket, which falls back to bisection; on a bracket
    # closed to a few ulps; and after the 80 passes of a stalled inversion
    eng = el._SnpEngine(2.0, 0.5)
    assert eng.invert(np.float64(0.0)) == 0.0 and eng.invert(np.float64(-0.0)) == 0.0
    assert eng.invert(np.float64(eng.K)) == 1.0
    # t = w_p(0.9) from a start at 0.45 in [0.4, 0.6]: the first step
    # goes past 0.9, out of the bracket, bisection follows, and the bracket
    # closes on 0.6; from 0.5 in a bracket two ulps wide the first pass
    # stops on the closed bracket
    t = el.wp(2.0, 0.5, 0.9)
    for z, lo, hi in [(0.45, 0.4, 0.6), (0.5, 0.5 - 1e-16, 0.5 + 1e-16)]:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            point = eng._newton(np.float64(z), np.float64(t), np.float64(lo),
                                np.float64(hi))
            batch = eng._newton(np.array([z]), np.array([t]), np.array([lo]),
                                np.array([hi]))
        assert type(point) is np.float64 and point.hex() == batch[0].hex()
        assert point == hi

    class Stalling(el._SnpEngine):
        def wp_many(self, z):
            if self._table is None:
                return super().wp_many(z)
            passes.append(z)
            return np.float64(np.nan) if isinstance(z, float) else np.full(np.shape(z), np.nan)

    passes = []
    eng = Stalling(2.0, 0.5)
    with pytest.raises(NonConvergence, match="stalled"):
        eng.invert(np.float64(0.3))
    assert len(passes) == 80 and all(type(z) is np.float64 for z in passes)


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


def test_ab_rows_of_an_array_have_the_bits_of_their_expressions():
    # an array's (A, B) are the rows of one (2, n) pass; each has the bits
    # of its own expression, -expm1(p log s) and -expm1(p (log mu + log s)),
    # and of the point's (A, B) at that s, with s = 0 and s = 1 among the
    # seeded s; at mu = 0, B is 1.0
    rng = np.random.default_rng(50)
    s = np.concatenate(([0.0, 1.0], rng.random(300), rng.random(50) ** 40))
    for p, mu in [(1.5, 0.99), (2.0, 0.5), (3.7, 1e-300), (6.0, 0.0), (40.0, 0.3)]:
        eng = el._SnpEngine(p, mu)
        with np.errstate(divide="ignore"):
            A, B = eng._AB(s)
            log_s = np.log(s)
            assert A.tobytes() == (-np.expm1(p * log_s)).tobytes(), (p, mu)
            if mu == 0.0:
                assert B == 1.0
            else:
                assert B.tobytes() == (-np.expm1(p * (math.log(mu) + log_s))).tobytes()
            points = [eng._AB(np.float64(v)) for v in s.tolist()]
        assert [a.hex() for a, _ in points] == [a.hex() for a in A.tolist()], (p, mu)
        assert [float(b).hex() for _, b in points] == [
            float(b).hex() for b in np.broadcast_to(B, s.shape).tolist()
        ], (p, mu)


def test_snp_scalar_matches_batch(monkeypatch):
    for p, mu in [(2.0, 0.5), (3.0, 0.6), (1.3, 0.9)]:
        K = el.kp(p, mu)
        ys = np.linspace(-2.0 * K, 6.0 * K, 17)
        batch = el.snp(p, mu, ys)
        dbatch = el.snp_deriv(p, mu, ys)
        for y, b, d in zip(ys, batch, dbatch):
            assert el.snp(p, mu, float(y)) == b
            assert el.snp_deriv(p, mu, float(y)) == d
    # every array gives the bits of the float calls: an array whose points
    # all stop on the first Newton pass, arrays that fold to the endpoints
    # 0 and K_p, arrays in which some points take a second pass, and an
    # array of endpoints alone, which makes no Newton pass.  The sizes of
    # the array call's wp_many calls on a warm engine show the passes
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
        (2.0, 0.5, [0.0, 1.0, -1.0, 2.0, 4.0], []),
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


@pytest.mark.parametrize("y", [np.array(0.3), np.float64(0.3), 3],
                         ids=["array0d", "float64", "int"])
def test_snp_value_stores_y_as_a_float(y):
    # SnpValue.y is typed float: a 0-d array, a numpy float and an int are
    # stored as the float they equal, with the float call's value and period
    sv, want = el.snp_value(2.0, 0.5, y), el.snp_value(2.0, 0.5, float(y))
    assert type(sv.y) is float and sv.y == want.y == float(y)
    assert sv.value.hex() == want.value.hex()
    assert sv.branch_period_index == want.branch_period_index


_HUGE = 10**400


@pytest.mark.parametrize("call", [
    lambda: el.kp(_HUGE, 0.5),
    lambda: el.kp_quadrature(_HUGE, 0.5),
    lambda: el.kp_via_2f1(_HUGE, 0.5),
    lambda: el.wp(_HUGE, 0.5, 0.5),
    lambda: fr.tau_k(_HUGE, 0.5, 1),
    lambda: eg.eigenpair(_HUGE, 0.5, 1),
    lambda: ct.certify_firstcond(_HUGE, ct.ModulusSet.constant(0.5)),
    lambda: ct.firstcond_boundary(_HUGE),
    lambda: el.snp(2.0, 0.5, _HUGE),
    lambda: el.snp(2.0, 0.5, [0.3, -_HUGE]),
    lambda: el.snp_value(2.0, 0.5, _HUGE),
    lambda: el.snp_deriv(2.0, 0.5, _HUGE),
    lambda: eg.eigenfunction_eval(eg.eigenpair(2.0, 0.5, 1), _HUGE),
], ids=["kp", "kp_quadrature", "kp_via_2f1", "wp", "tau_k", "eigenpair",
        "certify_firstcond", "firstcond_boundary", "snp", "snp_list", "snp_value",
        "snp_deriv", "eigenfunction_eval"])
def test_int_beyond_the_largest_double_is_a_domain_error(call):
    # a Python int compares exactly with a float, so 10**400 lies inside
    # (1, inf); it is judged as the double it becomes, +-inf, and refused
    # with DomainError instead of a bare OverflowError further in
    with pytest.raises(DomainError, match="inf"):
        call()


@pytest.mark.parametrize("call", [
    lambda n: fr.tau_k(2.0, 0.5, n),
    lambda n: fr.rho_coeff(0.3, n),
    lambda n: fr.tau_tail_bound(2.0, 1.7, n + 1),
    lambda n: fr.fourier_profile(2.0, 0.5, n),
    lambda n: ct.ModulusSet.grid(0.2, 0.6, n),
    lambda n: ct.certify_invertibility(2.0, ct.ModulusSet.explicit([0.2, 0.5]), n + 1),
    lambda n: eg.eigenpair(2.0, 0.5, n),
], ids=["tau_k", "rho_coeff", "tau_tail_bound", "fourier_profile", "ModulusSet.grid",
        "certify_invertibility", "eigenpair"])
def test_count_beyond_the_largest_double_is_a_domain_error(call):
    # a count past what numpy can index (past the largest double for the
    # mode number n) is refused where it is checked, named by its size, not
    # met by a bare OverflowError or ValueError further in; only counts
    # beyond the largest double are tried, none that would allocate
    for n in (_HUGE, 10**5000):
        with pytest.raises(DomainError, match=f"in \\[.*\\], got an integer of {n.bit_length()} bits$"):
            call(n)


@pytest.mark.parametrize("call, name", [
    (lambda: el.snp(2.0, 0.5, [0.1, [0.2, 0.3]]), "y"),
    (lambda: el.wp(2.0, 0.5, [0.1, [0.2, 0.3]]), "z"),
    (lambda: ct.region_scan([0.5, [0.6, 0.7]], [0.3]), "1/p"),
    (lambda: ct.ModulusSet.explicit([0.2, [0.3, 0.4]]), "mu"),
    (lambda: fr.tau_k(2.0, 0.5, [1, [2, 3]]), "k"),
    (lambda: fr.tau_k(2.0, [0.2, [0.3]], 1), "mu"),
    (lambda: eg.first_integral_residual(eg.eigenpair(2.0, 0.5, 1), [0.1, [0.2]]), "grid"),
], ids=["snp", "wp", "region_scan", "ModulusSet.explicit", "tau_k_k", "tau_k_mu",
        "first_integral_residual"])
def test_ragged_input_is_a_domain_error(call, name):
    # a ragged nesting of lists has no array shape: refused naming the
    # input, not numpy's bare "inhomogeneous shape" ValueError
    with pytest.raises(DomainError, match=f"^{name} must have one shape, got the ragged "):
        call()


@pytest.mark.parametrize("call, name, good, bad, says", [
    (lambda x: fr.tau_k(2.0, x, 1), "mu", 0.5, 1.0, r"must lie in \[0, 1\), got 1.0"),
    (lambda x: fr.tau_k(2.0, 0.5, x), "k", 3, 0, r"must be an integer in \[1, inf\), got 0"),
    (lambda x: ct.ModulusSet.explicit(x), "mu", 0.5, 1.0, r"must lie in \(0, 1\), got 1.0"),
    (lambda x: ct.region_scan(x, [0.5]), "1/p", 0.5, 1.0, r"must lie in \(0, 1\), got 1.0"),
    (lambda x: ct.region_scan([0.5], x), "mu", 0.5, 0.9995,
     r"must lie in \(0, 0.999\], got 0.9995"),
], ids=["tau_k_mu", "tau_k_k", "ModulusSet.explicit", "region_scan_p", "region_scan_mu"])
def test_a_run_input_is_one_value_or_a_nonempty_1d_run(call, name, good, bad, says):
    # one rule for every input that may be a run: one value, or a nonempty
    # 1-D list or array of them, each entry checked on its own
    call(good)
    call([good, good])
    for shaped in ([], np.empty(0), [[good, good]], np.full((2, 2), good)):
        says_shape = (f"{name} must be one value or a nonempty 1-D run of them, "
                      f"got shape {np.shape(shaped)}")
        with pytest.raises(DomainError, match=f"^{re.escape(says_shape)}$"):
            call(shaped)
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must have one shape, got "):
        call([good, [good, good]])
    for run in ([good, bad], np.array([good, bad])):
        with pytest.raises(DomainError, match=f"^{re.escape(name)} {says}$"):
            call(run)


def test_snp_next_to_K_at_the_largest_modulus():
    # at p = 6, mu = nextafter(1, 0) the table's last bracket rises by
    # 3.6e-28 in v, below the rounding of its slope terms, and the cubic
    # start of some t just below K dips under v = 0; that start's NaN power
    # must become the bracket's end, not a RuntimeWarning and a stalled
    # Newton pass.  Every such t has z between the last double below 1 and
    # 1, so sn_p rounds to 1
    p, mu = 6.0, math.nextafter(1.0, 0.0)
    K = el.kp(p, mu)
    ys = K - np.arange(1, 200) * 2.0**-52
    assert np.all(el.snp(p, mu, ys) == 1.0)
    assert el.snp(p, mu, 1.1129126745119506) == 1.0
    assert [el.snp(p, mu, float(y)) for y in ys[:12]] == [1.0] * 12


def _pair():
    return eg.eigenpair(2.0, 0.5, 1)


@pytest.mark.parametrize("x", ["0.3", b"0.3", 0.3 + 0.5j, np.complex64(0.3), None,
                               Decimal("0.3")],
                         ids=["str", "bytes", "complex", "complex64", "None", "Decimal"])
@pytest.mark.parametrize("call, name", [
    (lambda x: el.snp(2.0, 0.5, x), "y"),
    (lambda x: el.snp_value(2.0, 0.5, x), "y"),
    (lambda x: el.snp_deriv(2.0, 0.5, x), "y"),
    (lambda x: el.snp_second_deriv(2.0, 0.5, x), "y"),
    (lambda x: el.wp(2.0, 0.5, x), "z"),
    (lambda x: el.kp(x, 0.5), "p"),
    (lambda x: el.kp_quadrature(2.0, x), "mu"),
    (lambda x: el.kp_via_2f1(x, 0.5), "p"),
    (lambda x: fr.tau_k(x, 0.5, 1), "p"),
    (lambda x: eg.eigenpair(2.0, x, 1), "mu"),
    (lambda x: eg.eigenfunction_eval(_pair(), x), "x"),
    (lambda x: eg.first_integral_residual(_pair(), [0.1, x, 0.6]), "grid"),
    (lambda x: eg.ode_residual(_pair(), [0.1, x, 0.6]), "grid"),
    (lambda x: ct.firstcond_boundary(x), "p"),
    (lambda x: ct.ModulusSet.constant(x), "mu"),
    (lambda x: ct.ModulusSet.explicit([0.5, x]), "mu"),
    (lambda x: ct.region_scan([x], [0.5]), "1/p"),
    (lambda x: ct.region_scan([0.5], [x]), "mu"),
    (lambda x: ct.certify_firstcond(x, ct.ModulusSet.constant(0.5)), "p"),
    (lambda x: ct.certify_invertibility(x, ct.ModulusSet.constant(0.5)), "p"),
    (lambda x: fr.fourier_profile(x, 0.5), "p"),
], ids=["snp", "snp_value", "snp_deriv", "snp_second_deriv", "wp", "kp",
        "kp_quadrature", "kp_via_2f1", "tau_k", "eigenpair", "eigenfunction_eval",
        "first_integral_residual", "ode_residual", "firstcond_boundary",
        "ModulusSet.constant", "ModulusSet.explicit", "region_scan_p", "region_scan_mu",
        "certify_firstcond", "certify_invertibility", "fourier_profile"])
def test_non_real_input_is_a_domain_error(call, name, x):
    # text is not parsed, a Decimal is not rounded, an imaginary part is not
    # dropped, and None is not a bare TypeError: each is refused, naming the
    # input, before any cache sees it
    with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
        call(x)


@pytest.mark.parametrize("ys", [["0.1", "0.3"], np.array(["0.3"]), [b"0.3"],
                                np.array([0.3 + 0.5j]), [None, 0.3]],
                         ids=["str_list", "str_array", "bytes_list", "complex_array",
                              "None_list"])
@pytest.mark.parametrize("fn", [el.snp, el.snp_deriv, el.snp_second_deriv],
                         ids=["snp", "snp_deriv", "snp_second_deriv"])
def test_non_real_entries_of_an_array_are_a_domain_error(fn, ys):
    with pytest.raises(DomainError, match="^y must be a real number, got "):
        fn(2.0, 0.5, ys)


@pytest.mark.parametrize("shape", [
    lambda v: np.array([v, 0.5]),
    lambda v: np.array([v]),
    lambda v: [v, 1.0],
    lambda v: [v],
    lambda v: np.array(v),
], ids=["array2", "array1", "list", "list1", "array0d"])
@pytest.mark.parametrize("point, v", [
    (lambda x: el.snp_value(2.0, 0.5, x).value, 0.3),
    (lambda x: el.wp(2.0, 0.5, x), 0.3),
    (lambda x: eg.eigenfunction_eval(eg.eigenpair(2.0, 0.5, 1), x), 0.3),
    (lambda x: el.kp(x, 0.5), 2.0),
    (lambda x: el.snp(x, 0.5, 0.3), 2.0),
    (lambda x: ct.certify_firstcond(x, ct.ModulusSet.constant(0.5)).lhs, 2.0),
    (lambda x: ct.firstcond_boundary(x), 2.0),
], ids=["snp_value", "wp", "eigenfunction_eval", "kp_p", "snp_p", "certify_firstcond_p",
        "firstcond_boundary_p"])
def test_point_entry_points_reject_arrays(point, v, shape):
    # a point-valued function takes one number: an array or a list, even of
    # one element, is refused rather than read at its first element (or
    # hashed by a cache); a 0-d array is one number, with the float's bits
    x = shape(v)
    if np.ndim(x) == 0:
        assert point(x).hex() == point(v).hex()
        return
    with pytest.raises(DomainError, match="must be a single number"):
        point(x)


def test_each_checked_pair_gets_one_cache_entry():
    # the (p, mu) caches are keyed by the checked floats: an int p and its
    # float share one engine, whose p is a float, and a value that hashes
    # like a cached float is still checked
    el._engine.cache_clear()
    el.snp(3, 0.4375, 0.3)
    el.snp(3.0, 0.4375, 0.3)
    assert el._engine.cache_info().currsize == 1
    assert type(el._engine(3.0, 0.4375).p) is float
    el.kp(2.0, 0.5)
    with pytest.raises(DomainError, match="^p must be a real number, got Decimal"):
        el.kp(Decimal("2"), 0.5)
