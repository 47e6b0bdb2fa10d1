"""Tests for the tanh-sinh engine."""

import math

import numpy as np
import pytest

from pelliptic.quadrature import _BLOCK_LEVEL, _tanh_sinh, _ts_nodes
from pelliptic.errors import NonConvergence

TOL = 1e-12


def integrate(f, ea=1.0, tol=TOL):
    """(value, abs_error_estimate, nodes_used) of f(x, cx) x**(ea-1) over
    [0, 1], cx the exact 1-x, as one row of the driver."""
    value, err, nodes = _tanh_sinh(lambda lev, x, cx, rows: f(x, cx), ea, tol)
    return float(value), float(err), nodes


def const_one(x, cx):
    return np.ones_like(x)


def test_integrates_constant():
    value, err, nodes = integrate(const_one)
    assert abs(value - 1.0) <= TOL
    assert err <= TOL
    assert nodes > 0


def test_inverse_sqrt_right_endpoint():
    # integral of (1-x)^(-1/2) is 2, whether F carries it at the exact
    # complement or the weight carries its mirror image x^(-1/2)
    assert abs(integrate(lambda x, cx: cx**-0.5)[0] - 2.0) <= TOL
    assert abs(integrate(const_one, ea=0.5)[0] - 2.0) <= TOL


def test_arcsin_integrand():
    # (1-s^2)^(-1/2) = (1+s)^(-1/2) * (1-s)^(-1/2), taken at s = 1-x;
    # value arcsin(1) = pi/2
    value = integrate(lambda x, cx: (1.0 + cx) ** -0.5, ea=0.5)[0]
    assert abs(value - math.pi / 2.0) <= TOL


def test_left_endpoint_singularity():
    # x^(-1/3): exact integral 3/2
    assert abs(integrate(const_one, ea=2.0 / 3.0)[0] - 1.5) <= TOL


def test_polynomials_up_to_degree_ten():
    # fixed coefficient sets; exact integral is sum c_j / (j+1)
    coeff_sets = [
        [1.0, -2.0, 3.0, 0.5],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0],
        [2.0, 0.0, -1.0, 0.0, 4.0, 0.0, -3.0, 0.0, 2.0, 0.0, -1.0],
    ]
    for cs_list in coeff_sets:
        exact = math.fsum(c / (j + 1.0) for j, c in enumerate(cs_list))

        def poly(x, cx, c=tuple(cs_list)):
            out = np.zeros_like(x)
            for coef in reversed(c):
                out = out * x + coef
            return out

        assert abs(integrate(poly)[0] - exact) <= 10.0 * TOL


def test_estimate_monotone_under_tol_halving():
    f = lambda x, cx: np.exp(cx)
    tols = [1e-6, 5e-7, 2.5e-7, 1e-9, 1e-12]
    prev = math.inf
    for t in tols:
        est = integrate(f, ea=0.75, tol=t)[1]
        assert est <= prev + 1e-300
        prev = est


def test_estimate_not_below_rounding():
    # a polynomial is integrated exactly after a few levels, so the level
    # differences vanish; the estimate must still cover the rounding of
    # the value itself
    value, err, _ = integrate(lambda x, cx: 1.0 - 2.0 * x + 3.0 * x * x, tol=1e-13)
    assert err >= np.spacing(abs(value))
    assert err <= 1e-13


def test_deterministic_bit_identical():
    f = lambda x, cx: np.cos(3.0 * cx)
    assert integrate(f, ea=0.5, tol=1e-13) == integrate(f, ea=0.5, tol=1e-13)


def test_complement_argument_is_exact_near_one():
    # 1/(d + (1-x)) has a d-wide boundary layer at x = 1; its integral is
    # log1p(1/d).  The exact complement cx resolves it to the last bit,
    # while 1 - x, quantized to about 1e-16 there, leaves it unresolved
    for d, level in [(1e-18, 7), (1e-30, 8)]:
        value, _, nodes = integrate(lambda x, cx: 1.0 / (d + cx))
        assert value == math.log1p(1.0 / d)
        assert nodes == _ts_nodes()[3][level + 1]
        with pytest.raises(NonConvergence):
            integrate(lambda x, cx: 1.0 / (d + (1.0 - x)))


def test_nonconvergence_on_interior_kink():
    # |x - 1/3|^0.1 has an interior kink the node doubling cannot resolve
    # to 1e-12 within the fixed level budget
    with pytest.raises(NonConvergence):
        integrate(lambda x, cx: np.abs(x - 1.0 / 3.0) ** 0.1)


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
        _tanh_sinh(F, 0.04, 1e-14)
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

    _tanh_sinh(F, 1.0, 1e-13)
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
    # rows of one (rows, 1) column of integrands under one exponent stop at
    # different levels; each keeps the exact bits it has when computed
    # alone
    c = np.array([0.0, 0.5, 3.0, 900.0])[:, None]
    F = lambda lev, x, cx, rows: 1.0 / (1.0 + c[rows] * cx)
    value, err, _ = _tanh_sinh(F, 0.5, 1e-13)
    assert value.shape == err.shape == (4,)
    for i in range(4):
        ci = float(c[i, 0])
        Fi = lambda lev, x, cx, rows: 1.0 / (1.0 + ci * cx)
        v, e, _ = _tanh_sinh(Fi, 0.5, 1e-13)
        assert value[i] == v and err[i] == e
    # the constant row: integral of x**(-1/2) = 2
    assert abs(value[0] - 2.0) < 1e-13


def _stop_level(ci):
    """Level at which one row 1 / (1 + ci (1-x)) x**(-1/2) stops when
    computed alone, read off the nodes its stop test used."""
    F = lambda lev, x, cx, rows: 1.0 / (1.0 + ci * cx)
    nodes = _tanh_sinh(F, 0.5, 1e-13)[2]
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
        return 1.0 / (1.0 + c[rows] * cx)

    _tanh_sinh(F, 0.5, 1e-13)
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


def test_running_sums_of_the_block_have_the_bits_of_each_level_sum():
    # the driver takes the block's level values from one running sum
    # (np.cumsum, that is np.add.accumulate) and those of later levels from
    # .sum(axis=-1); numpy adds fewer than 8 terms in order, so the two
    # agree bit for bit up to the block's _BLOCK_LEVEL + 1 levels.  A numpy
    # release that sums short rows in another order fails here, not in
    # pinned bits
    rng = np.random.default_rng(20261019)
    for n in range(1, _BLOCK_LEVEL + 2):
        x = rng.choice([-1.0, 1.0], (4000, n)) * 10.0 ** rng.uniform(-30, 30, (4000, n))
        for run in (np.cumsum(x, axis=-1), np.add.accumulate(x, axis=-1)):
            for k in range(1, n + 1):
                assert run[:, k - 1].tobytes() == x[:, :k].sum(axis=-1).tobytes()


def test_rows_stopping_at_levels_2_to_7_match_rows_computed_alone():
    # the block decides levels 2-4 for every row at once, the levels after
    # it one at a time: each row keeps the value and estimate it has alone,
    # and the batch reports the nodes of its slowest row.  The rows are
    # boundary layers a d / (d + x), given as (a, d), times x**(-1/2)
    cuts = _ts_nodes()[3]
    rows = np.array(
        [[1e-12, 1e-2], [1e-8, 1e-2], [1e-2, 1e-2], [1.0, 1e-2], [1.0, 1e-6], [1e2, 1e-12]]
    )
    a, d = rows[:, :1], rows[:, 1:]
    value, err, nodes = _tanh_sinh(
        lambda lev, x, cx, live: a[live] * d[live] / (d[live] + x), 0.5, 1e-13
    )
    stops = []
    for i, (ai, di) in enumerate(rows.tolist()):
        v, e, n = _tanh_sinh(lambda lev, x, cx, live: ai * di / (di + x), 0.5, 1e-13)
        assert value[i].tobytes() == v.tobytes() and err[i].tobytes() == e.tobytes()
        stops.append(cuts.index(n) - 1)
    assert stops == [2, 3, 4, 5, 6, 7]
    assert nodes == cuts[8]


def test_level_2_truncation_failure_in_one_row_raises():
    # row 1 is (1-x)**(-0.96) under unit weights: its outermost node alone
    # puts it far above tol, while rows 0 and 2 pass within the block.  The
    # batch raises at level 2, after the block call alone, with the largest
    # estimate of the rows that miss level 2 (the message recorded before
    # the block's stop tests were decided in one pass)
    c = np.array([0.0, 0.5, 3.0])[:, None]
    levels = []

    def F(lev, x, cx, rows):
        levels.append(lev)
        out = 1.0 / (1.0 + c[rows] * x)
        out[1] = cx**-0.96
        return out

    want = (
        "tanh-sinh refinement stopped after 49 nodes with error estimate "
        "2.438e-05 above tol 1.000e-13"
    )
    with pytest.raises(NonConvergence) as info:
        _tanh_sinh(F, 1.0, 1e-13)
    assert str(info.value) == want
    assert levels == [_BLOCK_LEVEL]
    # the passing rows alone stop inside the block
    for ci in (0.0, 3.0):
        nodes = _tanh_sinh(lambda lev, x, cx, rows: 1.0 / (1.0 + ci * x), 1.0, 1e-13)[2]
        assert nodes <= _ts_nodes()[3][_BLOCK_LEVEL + 1]


def test_row_still_live_at_level_11_raises():
    # row 2 has an interior kink no level resolves to 1e-12; rows 0 and 1
    # stop early, and F is asked for row 2 alone through level 11
    c = np.array([0.0, 0.5, 3.0])[:, None]
    seen = []

    def F(lev, x, cx, rows):
        live = np.arange(3)[rows]
        seen.append((lev, live.tolist()))
        out = 1.0 / (1.0 + c[rows] * x)
        out[live == 2] = np.abs(x - 1.0 / 3.0) ** 0.1
        return out

    want = (
        "tanh-sinh refinement stopped after 24985 nodes with error estimate "
        "1.104e-05 above tol 1.000e-12"
    )
    with pytest.raises(NonConvergence) as info:
        _tanh_sinh(F, 1.0, 1e-12)
    assert str(info.value) == want
    assert seen == [(_BLOCK_LEVEL, [0, 1, 2])] + [
        (lev, [2]) for lev in range(_BLOCK_LEVEL + 1, 12)
    ]

