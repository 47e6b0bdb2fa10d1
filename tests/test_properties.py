"""Seeded property tests of K_p, w_p, sn_p, tau_k and the certificate verdict.

hypothesis runs derandomized, so every run draws the same examples.  The
bounds are a few units of rounding in K_p, the scale of every w_p value,
and one or two doubles in the argument of sn_p.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pelliptic.certify as ct
import pelliptic.elliptic as el
import pelliptic.fourier as fr

SEEDED = settings(derandomize=True, max_examples=60, deadline=None)

ps = st.floats(min_value=1.1, max_value=40.0)
mus = st.floats(min_value=0.0, max_value=0.999)
fracs = st.floats(min_value=0.0, max_value=1.0)


def _w_tol(K):
    return 8.0 * el._EPS * (1.0 + K)


@SEEDED
@given(ps, mus, st.floats(min_value=-8.0, max_value=8.0))
def test_snp_odd_periodic_and_bounded(p, mu, x):
    K = el.kp(p, mu)
    y = x * K
    s = el.snp(p, mu, y)
    assert abs(s) <= 1.0
    # y + 4K and -y are rounded arguments: allow the slope times their
    # spacing on top of the inversion's own rounding
    slope = abs(el.snp_deriv(p, mu, y))
    tol = 4.0 * el._EPS + slope * 4.0 * np.spacing(abs(y) + 4.0 * K)
    assert abs(el.snp(p, mu, -y) + s) <= tol
    assert abs(el.snp(p, mu, y + 4.0 * K) - s) <= tol


@SEEDED
@given(ps, mus, fracs)
def test_wp_recovers_y_from_snp(p, mu, f):
    # s = sn_p(y) is the double nearest the root of w_p(s) = y, so y lies
    # between w_p at the doubles two steps either side of s
    eng = el._engine(p, mu)
    y = f * eng.K
    s = el.snp(p, mu, y)
    lo = el.wp(p, mu, max(s - 2.0 * np.spacing(s), 0.0))
    hi = el.wp(p, mu, min(s + 2.0 * np.spacing(s), 1.0))
    tol = _w_tol(eng.K)
    assert lo - tol <= y <= hi + tol


@SEEDED
@given(
    st.floats(min_value=1.05, max_value=40.0),
    st.floats(min_value=0.0, max_value=np.nextafter(1.0, 0.0)),
)
def test_wp_continuous_across_branches_and_panels(p, mu):
    # z = 0.6 joins the series to the tail; z = 1 - v_k**r joins two tail
    # panels.  Across either w_p moves by its slope times two doubles.
    eng = el._SnpEngine(p, mu)
    joins = 1.0 - eng._tail_panels().e[1:]
    # the deepest edges round to z = 1 or its neighbour, where w_p' is inf
    joins = joins[joins < np.nextafter(1.0, 0.0)]
    below = np.nextafter(joins, 0.0)
    above = np.nextafter(joins, 1.0)
    jump = np.abs(eng.wp_many(above) - eng.wp_many(below))
    A, B = eng._AB(above)
    slope = (A * B) ** (-1.0 / p)
    assert np.all(jump <= slope * (above - below) + _w_tol(eng.K))


@SEEDED
@given(
    st.floats(min_value=0.05, max_value=0.87), st.floats(min_value=0.3, max_value=0.939)
)
def test_region_tile_matches_kp_and_increases_in_mu(op, mu):
    # a 4x4 tile of spacing 0.02, as the region scan benchmark draws them;
    # from mu = 0.3 on, a 0.02 step raises K_p by far more than rounding
    # even at p = 20
    ops = [op + 0.02 * i for i in range(4)]
    mus = [mu + 0.02 * j for j in range(4)]
    rows = ct.region_scan(ops, mus)
    for o, m, val, _ in rows:
        assert val == el.kp(1.0 / o, m)
    for i in range(4):
        vals = [r[2] for r in rows[4 * i : 4 * i + 4]]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@SEEDED
@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=1e-8) | st.floats(min_value=0.0, max_value=10.0),
)
def test_verdict_partition_and_report_margin(lhs, rhs, tail):
    verdict, margin = ct._verdict(lhs, rhs, tail)
    band = tail + 1e-9
    assert (verdict == "PASS") == (margin > band)
    assert (verdict == "FAIL") == (margin < -1e-9)
    assert (verdict == "INCONCLUSIVE") == (-1e-9 <= margin <= band)
    rep = ct._report("invertibility", lhs, rhs, tail, 21)
    assert rep.margin == rhs - lhs
    assert (rep.verdict, rep.tail_bound) == (verdict, tail)


@SEEDED
@given(st.floats(min_value=1.1, max_value=10.0), mus)
def test_even_tau_vanish(p, mu):
    # the profile is symmetric about the half period, so the even sine
    # coefficients cancel; they stay at rounding level
    taus = fr.tau_k(p, mu, np.arange(2, 21, 2))
    assert np.max(np.abs(taus)) < 1e-14
