"""Certificate and region-scan tests.

Verdicts are cross-checked against directly computed inequality sides,
and the three-way partition (PASS / INCONCLUSIVE / FAIL) is exercised at
its edges.  The p = 2 firstcond boundary modulus was confirmed with a
50-digit computation: mu* = 0.99845491904082089811, whose square is
0.99691222... and whose nome is 0.31532299...
"""

import math
import random

import mpmath
import numpy as np
import pytest

import pelliptic.certify as ct
import pelliptic.elliptic as el
import pelliptic.fourier as fr
import pelliptic.qtheta as qt
from pelliptic.errors import DomainError, MaxIterations, NoSignChange


def test_modulus_set_constructors():
    c = ct.ModulusSet.constant(0.5)
    assert c.kind == "constant" and c.values == (0.5,)
    e = ct.ModulusSet.explicit([0.1, 0.2, 0.3])
    assert e.kind == "explicit-list" and e.values == (0.1, 0.2, 0.3)
    g = ct.ModulusSet.grid(0.1, 0.9, 5)
    assert g.kind == "interval-grid"
    assert g.values[0] == 0.1 and g.values[-1] == 0.9
    assert len(g.values) == 5


@pytest.mark.parametrize("mu", [0.5, np.float64(0.5), np.array(0.5), [0.5], (0.5,),
                                np.array([0.5])])
def test_modulus_set_holds_one_value_as_a_one_float_tuple(mu):
    # one value, a numpy float or a 0-d array included, is the set of the
    # one-element list, and its entry is a Python float
    e = ct.ModulusSet.explicit(mu)
    assert e.values == (0.5,) and type(e.values[0]) is float


def test_modulus_set_validation():
    with pytest.raises(DomainError):
        ct.ModulusSet.explicit([])
    with pytest.raises(DomainError):
        ct.ModulusSet.constant(0.0)
    with pytest.raises(DomainError):
        ct.ModulusSet.constant(1.0)
    with pytest.raises(DomainError):
        ct.ModulusSet.explicit([0.5, -0.25])
    with pytest.raises(DomainError):
        ct.ModulusSet(kind="mystery", values=(0.5,))
    with pytest.raises(DomainError):
        ct.ModulusSet(kind="constant", values=(0.1, 0.2))
    with pytest.raises(DomainError):
        ct.ModulusSet.grid(0.1, 0.9, 1)
    with pytest.raises(DomainError):
        ct.ModulusSet.grid(0.9, 0.1, 5)
    with pytest.raises(DomainError):
        ct.ModulusSet.grid(0.1, 1.0, 5)


def test_verdict_partition_edges():
    assert ct._verdict(1.0, 2.0, 0.0) == ("PASS", 1.0)
    assert ct._verdict(2.0, 1.0, 0.0) == ("FAIL", -1.0)
    # margin inside the fixed slack band counts as inconclusive
    v, m = ct._verdict(1.0, 1.0 + 5e-10, 0.0)
    assert v == "INCONCLUSIVE"
    # a tail bound larger than the margin blocks a PASS; it only adds to
    # lhs, so it cannot block a FAIL
    assert ct._verdict(1.0, 1.5, 0.6)[0] == "INCONCLUSIVE"
    assert ct._verdict(1.5, 1.0, 0.6)[0] == "FAIL"
    assert ct._verdict(1.0, 1.5, 0.4999)[0] == "PASS"


def test_firstcond_threshold_value():
    assert ct.FIRSTCOND_RHS == 8.0 / (math.pi**2 - 8.0)
    assert abs(ct.FIRSTCOND_RHS - 4.278980085486887) < 1e-14


def test_firstcond_pass_small_mu():
    r = ct.certify_firstcond(2.0, ct.ModulusSet.constant(0.5))
    assert r.verdict == "PASS"
    assert r.criterion == "firstcond"
    assert r.lhs == el.kp(2.0, 0.5)
    assert r.rhs == ct.FIRSTCOND_RHS
    assert r.margin == r.rhs - r.lhs
    assert r.truncation_K == 0 and r.tail_bound == 0.0


def test_firstcond_fail_near_one():
    r = ct.certify_firstcond(2.0, ct.ModulusSet.constant(0.9995))
    assert r.verdict == "FAIL"
    assert r.margin < -0.5


def test_firstcond_still_passes_at_0p9909():
    # K_2(0.9909) = 3.4027 sits well below the 4.2790 threshold
    r = ct.certify_firstcond(2.0, ct.ModulusSet.constant(0.9909))
    assert r.verdict == "PASS"
    assert r.margin > 0.8


def test_firstcond_sup_over_set():
    ms = ct.ModulusSet.explicit([0.3, 0.9995])
    r = ct.certify_firstcond(2.0, ms)
    assert r.lhs == el.kp(2.0, 0.9995)
    assert r.verdict == "FAIL"


def test_invertibility_pass_small_moduli():
    ms = ct.ModulusSet.explicit([0.1, 0.2, 0.3])
    r = ct.certify_invertibility(2.0, ms, K=21)
    assert r.verdict == "PASS"
    assert r.truncation_K == 21
    assert r.rhs == min(fr.tau_k(2.0, mu, 1) for mu in ms.values)
    assert r.lhs < 0.01
    assert r.margin > 0.3
    assert r.tail_bound > 0.0


def test_invertibility_tiny_mu_margin_is_tau1():
    r = ct.certify_invertibility(2.0, ct.ModulusSet.constant(1e-6), K=21)
    assert r.verdict == "PASS"
    # sine limit: tau_1 -> sqrt(2)/2 and all higher coefficients vanish
    assert abs(r.rhs - math.sqrt(0.5)) < 1e-6
    assert abs(r.margin - r.rhs) < 1e-3


def test_invertibility_near_one_inconclusive():
    # at mu = 1 - 1e-12 the odd-coefficient sum sits within the tail
    # bound of tau_1, so no verdict can honestly be issued at K = 21
    r = ct.certify_invertibility(2.0, ct.ModulusSet.constant(1.0 - 1e-12), K=21)
    assert r.verdict == "INCONCLUSIVE"
    assert "increase K" in r.caveats
    assert r.margin > 0.0
    assert r.tail_bound > r.margin


@pytest.mark.parametrize("p, mu, least", [
    (1.2, 0.9, 41), (1.5, 0.997, 49), (2.0, 1.0 - 1e-12, 35),
])
def test_invertibility_inconclusive_names_the_least_K_that_could_pass(p, mu, least):
    # lhs only grows with K and the tail bound falls like 1/K, so no K
    # below K tail / (margin - slack) can pass
    ms = ct.ModulusSet.constant(mu)
    r = ct.certify_invertibility(p, ms, K=21)
    assert r.verdict == "INCONCLUSIVE"
    assert r.caveats.endswith(f"increase K to shrink it, to at least K = {least}")
    bound = 2.0 * math.sqrt(2.0) * el.kp(p, mu) / (math.pi**2 * (r.margin - ct._SLACK))
    assert least - 2 < bound < least
    assert ct.certify_invertibility(p, ms, K=least - 2).verdict != "PASS"


def test_invertibility_inconclusive_within_the_slack_names_no_K(monkeypatch):
    # a margin at or below the slack gives no finite bound: the text stays
    monkeypatch.setattr(ct, "tau_k", lambda p, mus, ks: np.array([[1.0, 1.0]]))
    r = ct.certify_invertibility(2.0, ct.ModulusSet.constant(0.5), K=5)
    assert r.margin == 0.0 and r.verdict == "INCONCLUSIVE"
    assert r.caveats == "tail bound straddles the margin; increase K to shrink it"


def test_invertibility_fails_when_the_partial_sum_alone_exceeds_tau1():
    # the odd sum up to K is a lower bound on the full sum, so a negative
    # margin fails the test although the tail bound (1.44) exceeds it
    r = ct.certify_invertibility(1.2, ct.ModulusSet.constant(0.99), K=21)
    assert r.verdict == "FAIL"
    assert -0.09 < r.margin < -0.08
    assert r.tail_bound > -r.margin
    assert "increase K" not in r.caveats


def test_invertibility_mixed_set_fails():
    # min tau_1 comes from the tiny modulus while the odd sum comes from
    # the extreme one, so the combined test must fail once the tail is
    # pushed below the deficit
    ms = ct.ModulusSet.explicit([1e-6, 1.0 - 1e-12])
    r = ct.certify_invertibility(2.0, ms, K=81)
    assert r.verdict == "FAIL"
    assert r.margin < -0.05


def test_invertibility_K_validation():
    ms = ct.ModulusSet.constant(0.5)
    for bad in (4, 6, 3, 0, -5, 21.0):
        with pytest.raises(DomainError):
            ct.certify_invertibility(2.0, ms, K=bad)


def test_invertibility_grid_caveat():
    g = ct.ModulusSet.grid(0.1, 0.9, 3)
    r = ct.certify_invertibility(2.0, g, K=21)
    assert "grid points only" in r.caveats
    ms = ct.ModulusSet.explicit([0.1, 0.5, 0.9])
    r2 = ct.certify_invertibility(2.0, ms, K=21)
    assert "grid points only" not in r2.caveats


def test_p2_sharp_pass_at_0p9909():
    r = ct.certify_p2_sharp(ct.ModulusSet.constant(0.9909))
    assert r.verdict == "PASS"
    assert r.criterion == "p2-sharp"
    assert r.rhs == qt.mu0()
    assert abs(r.margin - (qt.mu0() - 0.9909)) < 1e-15
    assert "S(q)=" in r.caveats


def test_p2_sharp_diagnostic_stays_below_one_on_every_pass():
    # S increases in q and is 1 at mu0, so up to the last PASS modulus,
    # 1e-9 below mu0, it stays near 0.75: no PASS contradicts it
    for mu in (0.5, 0.9909, qt.mu0() - 1.5e-9):
        r = ct.certify_p2_sharp(ct.ModulusSet.constant(mu))
        assert r.verdict == "PASS"
        s = float(r.caveats.split("S(q)=", 1)[1].split(" ", 1)[0])
        assert 0.0 < s < 0.7601


def test_firstcond_takes_one_kp_for_any_set(monkeypatch):
    # K_p increases in mu, so the sup over 1,000 nodes is one K_p
    ms = ct.ModulusSet.grid(0.1, 0.9, 1000)
    calls = _counting(monkeypatch, ct, "kp")
    r = ct.certify_firstcond(2.0, ms)
    assert calls[0] == 1
    assert r.lhs == el.kp(2.0, 0.9)


def test_p2_sharp_small_mu():
    r = ct.certify_p2_sharp(ct.ModulusSet.constant(0.5))
    assert r.verdict == "PASS"
    assert r.margin > 0.49


def test_p2_sharp_near_one_is_inconclusive():
    # the margin mu0 - sup mu lies inside the 1e-9 slack; the reported
    # nome is the closed form's, checked against 40-digit mpmath
    for mu in (1.0 - 1e-9, 1.0 - 1e-10, float(np.nextafter(1.0, 0.0))):
        r = ct.certify_p2_sharp(ct.ModulusSet.constant(mu))
        assert r.verdict == "INCONCLUSIVE"
        assert r.margin == r.rhs - r.lhs
        q = float(r.caveats.rsplit("at q=", 1)[1])
        with mpmath.workdps(40):
            m = mpmath.mpf(mu) ** 2
            ref = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - m) / mpmath.ellipk(m))
            assert abs(q - ref) <= 1e-15 * ref


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="1 - 1e-9 lies below mu0 (1 - mu0 = 4.57e-16), so no correct "
    "certificate returns FAIL there; its margin is inside the slack",
)
def test_p2_sharp_fail_example():
    r = ct.certify_p2_sharp(ct.ModulusSet.constant(1.0 - 1e-9))
    assert r.verdict == "FAIL"


def test_soundness_coupling():
    # whenever the K_p test passes, the coefficient test must also pass:
    # the first condition is strictly stronger at the default truncation
    cases = [
        (1.35, ct.ModulusSet.constant(0.5)),
        (1.5, ct.ModulusSet.constant(0.3)),
        (1.5, ct.ModulusSet.constant(0.7)),
        (2.0, ct.ModulusSet.constant(0.5)),
        (2.0, ct.ModulusSet.constant(0.9)),
        (2.0, ct.ModulusSet.explicit([0.1, 0.2, 0.3])),
        (3.0, ct.ModulusSet.constant(0.6)),
        (3.0, ct.ModulusSet.constant(0.9)),
        (5.0, ct.ModulusSet.constant(0.5)),
        (2.0, ct.ModulusSet.grid(0.05, 0.9, 4)),
    ]
    for p, ms in cases:
        f = ct.certify_firstcond(p, ms)
        assert f.verdict == "PASS", (p, ms.kind)
        i = ct.certify_invertibility(p, ms, K=21)
        assert i.verdict == "PASS", (p, ms.kind)


def test_p2_chain_orderings():
    # at p = 2 the K_p test gives out near mu = 0.99845 while the sharp
    # test keeps passing essentially up to 1
    for mu in (0.91, 0.95, 0.985):
        assert ct.certify_firstcond(2.0, ct.ModulusSet.constant(mu)).verdict == "PASS"
        assert ct.certify_p2_sharp(ct.ModulusSet.constant(mu)).verdict == "PASS"
    hi = ct.ModulusSet.constant(0.9995)
    assert ct.certify_firstcond(2.0, hi).verdict == "FAIL"
    assert ct.certify_p2_sharp(hi).verdict == "PASS"


def test_reports_are_deterministic():
    ms = ct.ModulusSet.explicit([0.2, 0.6])
    a = ct.certify_firstcond(2.0, ms)
    b = ct.certify_firstcond(2.0, ms)
    assert a == b
    a = ct.certify_invertibility(2.0, ms, K=21)
    b = ct.certify_invertibility(2.0, ms, K=21)
    assert a == b
    a = ct.certify_p2_sharp(ms)
    b = ct.certify_p2_sharp(ms)
    assert a == b


def test_region_scan_rows_sorted_and_flagged():
    rows = ct.region_scan([0.8, 0.2, 0.5], [0.9, 0.3, 0.6])
    assert len(rows) == 9
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)
    for op, mu, val, inside in rows:
        assert val == el.kp(1.0 / op, mu)
        assert inside == int(val < ct.FIRSTCOND_RHS)
    # large p with moderate mu is inside; p near 1 is outside for all mu
    by_key = {(r[0], r[1]): r[3] for r in rows}
    assert by_key[(0.2, 0.3)] == 1
    assert by_key[(0.8, 0.3)] == 0


def test_region_scan_monotone_prefix():
    # K_p increases with mu, so each fixed-p row is 1s then 0s
    ops = list(np.linspace(0.1, 0.9, 9))
    mus = list(np.linspace(0.05, 0.999, 12))
    rows = ct.region_scan(ops, mus)
    for op in ops:
        flags = [r[3] for r in rows if r[0] == float(op)]
        assert len(flags) == 12
        assert flags == sorted(flags, reverse=True)


def test_region_scan_large_grid_matches_kp_across_fallback(monkeypatch):
    # 96 points: the first chunk of 64 is one batched quadrature, the
    # second holds the 24 points at p = 51/50, where the quadrature in s
    # once failed; they finish in their batch like the other 8 points of
    # that chunk, with no scalar quadrature, and equal scalar kp
    ops = [0.2, 0.4, 0.6, 50.0 / 51.0]
    mus = list(np.linspace(0.05, 0.999, 24))
    quadratures = _counting(monkeypatch, el, "kp_quadrature")
    rows = ct.region_scan(ops, mus)
    assert len(rows) == 96
    assert quadratures[0] == 0
    for op, mu, val, inside in rows:
        assert val == el.kp(1.0 / op, mu)
        assert inside == int(val < ct.FIRSTCOND_RHS)


@pytest.mark.parametrize(
    "op, mu", [(0.5, 0.3), (np.float64(0.5), 0.999), (np.array(0.4), np.array(0.3))]
)
def test_region_scan_takes_one_value_as_a_one_element_list(op, mu):
    # a float, a numpy float or a 0-d array for 1/p or mu gives the rows of
    # the one-element lists, alone or beside a list for the other grid
    one = ct.region_scan([float(op)], [float(mu)])
    assert ct.region_scan(op, mu) == one
    assert ct.region_scan(op, [float(mu)]) == one
    assert ct.region_scan([float(op)], mu) == one
    assert ct.region_scan(op, [0.2, float(mu)]) == ct.region_scan([float(op)], [0.2, float(mu)])
    assert all(type(v) is float for v in one[0][:3])


def test_region_scan_validation():
    with pytest.raises(DomainError):
        ct.region_scan([], [0.5])
    with pytest.raises(DomainError):
        ct.region_scan([0.5], [])
    with pytest.raises(DomainError):
        ct.region_scan([0.0], [0.5])
    with pytest.raises(DomainError):
        ct.region_scan([1.0], [0.5])
    with pytest.raises(DomainError):
        ct.region_scan([0.5], [0.9995])
    with pytest.raises(DomainError):
        ct.region_scan([0.5], [0.0])


def test_region_csv_format():
    rows = ct.region_scan([0.25, 0.75], [0.4, 0.8])
    text = ct.region_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "one_over_p,mu,kp,inside"
    assert text.endswith("\n") and lines[-1] == ""
    assert len(lines) == 2 + len(rows)
    for line in lines[1:-1]:
        parts = line.split(",")
        assert len(parts) == 4
        assert parts[3] in ("0", "1")
        # 17 significant digits round-trip exactly
        assert float(parts[2]) == el.kp(1.0 / float(parts[0]), float(parts[1]))


def test_firstcond_boundary_p2():
    b = ct.firstcond_boundary(2.0)
    assert abs(b - 0.99845491904082090) < 1e-8
    assert abs(el.kp(2.0, b) - ct.FIRSTCOND_RHS) < 1e-7


def test_firstcond_boundary_nome_matches_documented_decimal():
    b = ct.firstcond_boundary(2.0)
    assert abs(qt.nome_from_modulus(b) - 0.315323) < 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="0.996912 is the square of the boundary modulus (the parameter "
    "m = mu^2), not the modulus itself, which is 0.998455",
)
def test_firstcond_boundary_printed_decimal():
    b = ct.firstcond_boundary(2.0)
    assert abs(b - 0.996912) < 1e-4


def test_firstcond_boundary_squared_matches_printed_decimal():
    b = ct.firstcond_boundary(2.0)
    assert abs(b * b - 0.996912) < 1e-4


def test_firstcond_boundary_out_of_range():
    # K_{1.2} exceeds the threshold already at mu = 0, so no crossing
    # exists inside the scan window
    with pytest.raises(NoSignChange):
        ct.firstcond_boundary(1.2)


def test_firstcond_boundary_no_crossing_above_p_2_02():
    # K_p(0.999) < 8/(pi^2 - 8) for p beyond about 2.02, so the crossing
    # lies above the scan window
    assert el.kp(2.03, 0.999) < ct.FIRSTCOND_RHS
    with pytest.raises(NoSignChange):
        ct.firstcond_boundary(2.03)


def _seeded_ps(n, seed=26, lo=1.26, hi=2.02):
    rng = random.Random(seed)
    return sorted(round(rng.uniform(lo, hi), 4) for _ in range(n))


def _newton_gap(p, b):
    # one Newton step on the 30-digit K_p = pi/(p sin(pi/p)) 2F1(a, a; 1; x),
    # a = 1/p, x = mu^p, with dK/dmu = pi/(p sin(pi/p)) a^2 2F1(a+1, a+1; 2; x)
    # p mu^(p-1), lands within the square of the root's error of the root
    with mpmath.workdps(30):
        P, M = mpmath.mpf(p), mpmath.mpf(b)
        a, x = 1 / P, M**P
        pref = mpmath.pi / (P * mpmath.sin(mpmath.pi / P))
        K = pref * mpmath.hyp2f1(a, a, 1, x)
        dK = pref * a * a * mpmath.hyp2f1(a + 1, a + 1, 2, x) * P * M ** (P - 1)
        return abs(float((K - 8 / (mpmath.pi**2 - 8)) / dK))


# both ends of the crossing range, the values p = 1.3, 1.5 and 2.0, both
# sides of p = 1.86, the 7 inner points of 9 evenly spaced over
# [1.26, 2.02], and 20 seeded values in [1.26, 2.02]
_NEWTON_PS = [1.26, 1.3, 1.5, 2.0, 2.02, 1.86, float(np.nextafter(1.86, 2.0))]
_NEWTON_PS += np.linspace(1.26, 2.02, 9)[1:-1].tolist() + _seeded_ps(20)


@pytest.mark.parametrize("p", _NEWTON_PS)
def test_firstcond_boundary_matches_mpmath_newton_step(p):
    assert _newton_gap(p, ct.firstcond_boundary(p)) < 1e-12


def test_firstcond_boundary_newton_sweep_with_both_window_ends():
    # 40 seeded p over [1.26, 2.02], and 10 within 0.002 of each end of
    # that span: every root within 1e-12 of the 30-digit Newton step (the
    # worst of 609 seeded p over the whole crossing range was 2.3e-14)
    ps = _seeded_ps(40, seed=45)
    ps += _seeded_ps(10, seed=46, hi=1.262) + _seeded_ps(10, seed=47, lo=2.018)
    for p in ps:
        assert _newton_gap(p, ct.firstcond_boundary(p)) < 1e-12, p


def test_firstcond_boundary_within_its_stop_of_the_mpmath_root():
    # a 16-node grid with inverse interpolation once returned
    # 0.3708114882440681 here, 1.34e-12 off the 30-digit root of
    # pi/(p sin(pi/p)) 2F1(a, a; 1; mu^p) = 8/(pi^2 - 8), a = 1/p,
    # 0.3708114882427266...
    p = 1.3087812341441019
    with mpmath.workdps(30):
        P = mpmath.mpf(p)
        pref = mpmath.pi / (P * mpmath.sin(mpmath.pi / P))
        root = mpmath.findroot(
            lambda m: pref * mpmath.hyp2f1(1 / P, 1 / P, 1, m**P)
            - 8 / (mpmath.pi**2 - 8),
            0.3708114882,
        )
    assert abs(float(root) - 0.37081148824272666) < 1e-16
    assert abs(ct.firstcond_boundary(p) - float(root)) <= 1e-12


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _spy_kp(monkeypatch):
    """The moduli the scalar kp (or its stand-in) is called at, in order."""
    seen = []
    kp = ct.kp

    def spy(p_, mu):
        seen.append(mu)
        return kp(p_, mu)

    monkeypatch.setattr(ct, "kp", spy)
    return seen


def _spy_sum(monkeypatch):
    """The moduli mu = (1 - e^t)^(1/p) the sum is asked at, in order."""
    seen = []

    class Series(el._KpSeries):
        def __call__(self, t):
            seen.append((-math.expm1(t)) ** (1.0 / self.p))
            return super().__call__(t)

    monkeypatch.setattr(ct, "_KpSeries", Series)
    return seen


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 2.02])
def test_firstcond_boundary_takes_few_kp_evaluations(monkeypatch, p):
    # bisection alone would need log2(0.999 / 1e-12) + 2, about 42; Newton
    # on the sum needs one scalar kp, at its root
    calls = _counting(monkeypatch, ct, "kp")
    b = ct.firstcond_boundary(p)
    assert calls[0] == 1
    assert abs(el.kp(p, b) - ct.FIRSTCOND_RHS) < 1e-11


@pytest.mark.parametrize(
    "p", [1.2, 1.255, 1.5, 2.02, 2.021, 2.023976105481417, 2.0241, 2.03, 1e100, 1e300]
)
def test_firstcond_boundary_makes_one_scalar_kp_and_no_batch_at_every_p(
    monkeypatch, p
):
    # inside the crossing range, at its top end and beyond it on both
    # sides: no _kp_rows batch, every quadrature a point, and one scalar
    # kp, none where K_p(0) is at the threshold or 0.999^p rounds to 0
    el._kp.cache_clear()
    batches = _counting(monkeypatch, ct, "_kp_rows")
    scalars = _counting(monkeypatch, ct, "kp")
    shapes = []
    driver = el._tanh_sinh

    def spy(F, ea, tol):
        def G(lev, x, cx, rows):
            out = F(lev, x, cx, rows)
            shapes.append(out.ndim)
            return out

        return driver(G, ea, tol)

    monkeypatch.setattr(el, "_tanh_sinh", spy)
    if 1.2497941463776217 <= p <= 2.023976105481417:
        assert _newton_gap(p, ct.firstcond_boundary(p)) < 1e-12
        assert scalars[0] == 1
    else:
        with pytest.raises(NoSignChange):
            ct.firstcond_boundary(p)
        assert scalars[0] == (p < 1e3 and p > 1.25)
    assert batches[0] == 0 and set(shapes) <= {1}


@pytest.mark.parametrize(
    "p",
    [1.0 + 1e-15, 1.1, 1.2, 1.2497, 2.0241, 2.03, 2.1, 3.0, 50.0, 700.0, 1e4, 7e5,
     1e10, 1e100, 1e300],
)
def test_firstcond_boundary_raises_only_no_sign_change_beyond_the_range(p):
    # from p just above 1, where K_p(0) is about 1e15, to p = 1e300, where
    # 0.999^p is 0, and through p = 700, where the y-series' leading term
    # stays below the threshold: NoSignChange, and no other exception
    with pytest.raises(NoSignChange):
        ct.firstcond_boundary(p)


@pytest.mark.parametrize("p", [1.26, 1.2605, 1.2619, 2.0181, 2.0199, 2.02])
def test_firstcond_boundary_window_shifts_inside_the_scan_range(monkeypatch, p):
    # within 0.002 of either end of [1.26, 2.02] the root lies near an end
    # of the scan range; every Newton iterate, clamped to that range, asks
    # the sum at a modulus inside [1e-6, 0.999], and so does the one kp
    sums = _spy_sum(monkeypatch)
    seen = _spy_kp(monkeypatch)
    b = ct.firstcond_boundary(p)
    assert 1e-6 <= b <= 0.999 and _newton_gap(p, b) < 1e-12
    assert all(1e-6 * (1 - 1e-9) <= mu <= 0.999 * (1 + 1e-15) for mu in sums + seen)


@pytest.mark.parametrize("p", [1.3, 1.5, 1.7, 1.86])
def test_firstcond_boundary_skips_the_moduli_above_0_99_up_to_the_cut(
    monkeypatch, p
):
    # the crossing lies below mu = 0.99 for every p <= 1.86, and neither
    # the sum nor the scalar kp is asked above it
    sums = _spy_sum(monkeypatch)
    seen = _spy_kp(monkeypatch)
    b = ct.firstcond_boundary(p)
    assert b < 0.99 and max(sums + seen) < 0.99


def test_kp_does_not_increase_in_p():
    # a seeded grid of 40 p, log-uniform in [1.001, 50], by 30 moduli in
    # [0, 1 - 1e-15], half uniform and half with 1 - mu log-uniform
    rng = random.Random(186)
    ps = [1.001, 50.0]
    ps += [math.exp(rng.uniform(math.log(1.001), math.log(50.0))) for _ in range(38)]
    mus = [0.0, 1.0 - 1e-15] + [rng.uniform(0.0, 1.0) for _ in range(14)]
    mus += [1.0 - 10.0 ** rng.uniform(-15.0, 0.0) for _ in range(14)]
    for mu in mus:
        row = [el.kp(p, mu) for p in sorted(ps)]
        assert all(a >= b for a, b in zip(row, row[1:])), mu


@pytest.mark.parametrize("p", [1.3, 1.5, 1.7, 1.86])
def test_firstcond_boundary_builds_no_level_5_kp_factor_below_the_cut(
    monkeypatch, p
):
    # the one scalar kp, at a root below mu = 0.99, stops at level 4 for
    # p up to 1.86
    el._kp.cache_clear()
    levels = []
    driver = el._tanh_sinh

    def spy(F, ea, tol):
        def asked(lev, *args):
            levels.append(lev)
            return F(lev, *args)

        return driver(asked, ea, tol)

    monkeypatch.setattr(el, "_tanh_sinh", spy)
    ct.firstcond_boundary(p)
    assert levels and max(levels) < 5


def test_firstcond_boundary_sweep_over_the_whole_crossing_range():
    # the crossing exists for p in [1.2497941463776217, 2.023976105481417],
    # where K_p(1e-6) and K_p(0.999) equal the threshold; 200 seeded p in
    # each sliver outside [1.26, 2.02], where the root is near an end of
    # the scan range, both ends, and 40 seeded p inside: every root lies
    # in the scan range and within 1e-12 of the 30-digit Newton step (the
    # worst of these 442 p was 2.3e-14)
    lo, hi = 1.2497941463776217, 2.023976105481417
    ps = [lo, hi] + _seeded_ps(40, seed=460)
    rng = random.Random(461)
    ps += [rng.uniform(lo, 1.26) for _ in range(200)]
    ps += [rng.uniform(2.02, hi) for _ in range(200)]
    for p in ps:
        b = ct.firstcond_boundary(p)
        assert 1e-6 <= b <= 0.999, p
        assert _newton_gap(p, b) < 1e-12, p


@pytest.mark.parametrize("p", [1.2, 1.3, 1.5, 2.0, 2.02, 2.03, 1e300])
def test_firstcond_boundary_builds_the_sum_once_per_call(monkeypatch, p):
    # one per-p evaluator serves the start, every Newton step and the
    # closing slope, whether or not a crossing exists; no sum runs where
    # K_p(0) is at the threshold (p = 1.2) or 0.999^p rounds to 0
    sums = _spy_sum(monkeypatch)
    series = _counting(monkeypatch, ct, "_KpSeries")
    try:
        ct.firstcond_boundary(p)
    except NoSignChange:
        pass
    assert series[0] == 1
    assert (len(sums) > 0) == (1.25 < p < 1e3)


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan, math.inf])
def test_firstcond_boundary_rejects_p_before_any_kp_work(monkeypatch, p):
    # p is checked before the sum or a quadrature runs
    quads = _counting(monkeypatch, el, "_tanh_sinh")
    scalars = _counting(monkeypatch, ct, "kp")
    series = _counting(monkeypatch, ct, "_KpSeries")
    with pytest.raises(DomainError):
        ct.firstcond_boundary(p)
    assert quads[0] == scalars[0] == series[0] == 0


# the p of the stand-in tests, and t = log(1 - mu^p) at mu = 0.35, where
# each stand-in crosses or bends; its scan range in t is [-6.65, -1.6e-8]
_STAND_IN_P = 1.3
_T35 = math.log1p(-(0.35**_STAND_IN_P))


def _stand_in(monkeypatch, f, df, kp):
    """The sum's values replaced by (threshold + f(t), df(t)), its start
    kept, and the scalar kp by kp(mu); the moduli kp is called at, in
    order."""

    class Series(el._KpSeries):
        def __call__(self, t):
            return ct.FIRSTCOND_RHS + f(t), df(t)

    monkeypatch.setattr(ct, "_KpSeries", Series)
    seen = []

    def scalar(p, mu):
        seen.append(mu)
        return ct.FIRSTCOND_RHS + kp(mu)

    monkeypatch.setattr(ct, "kp", scalar)
    return seen


def _t(mu):
    return math.log1p(-(mu**_STAND_IN_P))


def test_firstcond_boundary_returns_an_evaluated_modulus_on_the_threshold(
    monkeypatch,
):
    # the stand-in kp equals the threshold on [0.345, 0.355], around the
    # sum's root 0.35; the one scalar call lands there and is returned as
    # it is
    seen = _stand_in(
        monkeypatch,
        lambda t: _T35 - t,
        lambda t: -1.0,
        lambda mu: min(mu - 0.345, 0.0) + max(mu - 0.355, 0.0),
    )
    b = ct.firstcond_boundary(_STAND_IN_P)
    assert 0.345 <= b <= 0.355 and abs(b - 0.35) <= 1e-15
    assert seen == [b]


def test_firstcond_boundary_stops_on_the_estimate_alone(monkeypatch):
    # a stand-in sum linear in t: the first Newton step lands on its root,
    # the second is below 1e-9 and stops the loop; the stand-in kp, 1e-3
    # lower in t, moves the root there by the one step on kp
    sums = []

    def f(t):
        sums.append(t)
        return _T35 - t

    seen = _stand_in(monkeypatch, f, lambda t: -1.0, lambda mu: _T35 - 1e-3 - _t(mu))
    b = ct.firstcond_boundary(_STAND_IN_P)
    assert len(sums) == 2 and abs(sums[1] - _T35) <= 1e-15
    assert len(seen) == 1 and abs(seen[0] - 0.35) <= 1e-15
    assert abs(_t(b) - (_T35 - 1e-3)) <= 1e-15


@pytest.mark.parametrize("end", [1e-6, 0.999])
def test_firstcond_boundary_leaves_a_clamped_end_to_kp(monkeypatch, end):
    # the stand-in sum crosses beyond an end of the scan range, so Newton's
    # iterate stays clamped there; kp at that end, 1e-6 or 0.999 exactly,
    # puts the crossing just inside, and the step from the end on kp's
    # value returns it
    lo_t, hi_t = _t(0.999), _t(1e-6)
    beyond = lo_t - 0.01 if end == 0.999 else hi_t + 1e-9
    inside = lo_t + 1e-4 if end == 0.999 else hi_t - 1e-9
    seen = _stand_in(
        monkeypatch, lambda t: beyond - t, lambda t: -1.0, lambda mu: inside - _t(mu)
    )
    b = ct.firstcond_boundary(_STAND_IN_P)
    assert seen == [end]
    assert 1e-6 <= b <= 0.999
    assert b == pytest.approx((-math.expm1(inside)) ** (1.0 / _STAND_IN_P), rel=1e-15)


@pytest.mark.parametrize("end", [1e-6, 0.999])
def test_firstcond_boundary_raises_no_sign_change_that_kp_decides(monkeypatch, end):
    # the stand-in sum and kp both cross beyond an end of the scan range:
    # kp at that end decides, and NoSignChange is raised
    lo_t, hi_t = _t(0.999), _t(1e-6)
    beyond = lo_t - 0.01 if end == 0.999 else hi_t + 1e-9
    seen = _stand_in(
        monkeypatch, lambda t: beyond - t, lambda t: -1.0, lambda mu: beyond - _t(mu)
    )
    with pytest.raises(NoSignChange):
        ct.firstcond_boundary(_STAND_IN_P)
    assert seen == [end]


def test_firstcond_boundary_raises_max_iterations_on_a_cycling_sum(monkeypatch):
    # -sign(t - t0) sqrt|t - t0| sends Newton from t to 2 t0 - t and back,
    # inside the scan range and never closer: MaxIterations after 50
    # steps, before any kp
    t0 = _T35
    seen = _stand_in(
        monkeypatch,
        lambda t: math.copysign(math.sqrt(abs(t - t0)), t0 - t),
        lambda t: -0.5 / math.sqrt(abs(t - t0)),
        lambda mu: 0.0,
    )
    with pytest.raises(MaxIterations):
        ct.firstcond_boundary(_STAND_IN_P)
    assert seen == []


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9909, 0.999])
def test_nome_from_modulus_takes_few_evaluations(monkeypatch, mu):
    # the closed form evaluates no theta-series modulus
    calls = _counting(monkeypatch, qt, "modulus_from_nome")
    q = qt.nome_from_modulus(mu)
    assert calls[0] == 0
    assert abs(qt.modulus_from_nome(q) - mu) < 1e-12
