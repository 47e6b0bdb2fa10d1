"""Seeded property tests of w_p and sn_p.

hypothesis runs derandomized, so every run draws the same examples.  The
bounds are a few units of rounding in K_p, the scale of every w_p value,
and one or two doubles in the argument of sn_p.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pelliptic.elliptic as el

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
@given(ps, mus)
def test_wp_continuous_across_branches_and_panels(p, mu):
    # z = 0.6 joins the series to the tail; z = 1 - e_k joins two tail
    # panels.  Across either w_p moves by its slope times two doubles.
    eng = el._SnpEngine(p, mu)
    edges = eng._tail_panels()[0]
    joins = np.concatenate(([0.6], 1.0 - edges[1:-1]))
    below = np.nextafter(joins, 0.0)
    above = np.nextafter(joins, 1.0)
    jump = np.abs(eng.wp_many(above) - eng.wp_many(below))
    slope = eng._G(above)
    assert np.all(jump <= slope * (above - below) + _w_tol(eng.K))
