"""Certificate and region-scan tests.

Verdicts are cross-checked against directly computed inequality sides,
and the three-way partition (PASS / INCONCLUSIVE / FAIL) is exercised at
its edges.  The p = 2 firstcond boundary modulus was confirmed with a
50-digit computation: mu* = 0.99845491904082089811, whose square is
0.99691222... and whose nome is 0.31532299...
"""

import bisect
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


@pytest.fixture(autouse=True, scope="module")
def _anchors():
    # the one-time anchor batch runs here, so no test that counts K_p calls
    # or levels sees it, and no stand-in K_p ever reaches it
    ct._anchor_roots()


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
# sides of p = 1.86, every anchor, and 20 seeded values in [1.26, 2.02]
_NEWTON_PS = [1.26, 1.3, 1.5, 2.0, 2.02, 1.86, float(np.nextafter(1.86, 2.0))]
_NEWTON_PS += list(ct._ANCHOR_PS[1:-1]) + _seeded_ps(20)


@pytest.mark.parametrize("p", _NEWTON_PS)
def test_firstcond_boundary_matches_mpmath_newton_step(p):
    assert _newton_gap(p, ct.firstcond_boundary(p)) < 1e-12


def test_firstcond_boundary_newton_sweep_with_both_window_ends():
    # 40 seeded p over [1.26, 2.02], and 10 within 0.002 of each end, where
    # the window is shifted to stay inside [1e-6, 0.999]: every root within
    # 1e-12 of the 30-digit Newton step (the worst of 2,200 such p, seed 7,
    # was 7.1e-14)
    ps = _seeded_ps(40, seed=45)
    ps += _seeded_ps(10, seed=46, hi=1.262) + _seeded_ps(10, seed=47, lo=2.018)
    for p in ps:
        assert _newton_gap(p, ct.firstcond_boundary(p)) < 1e-12, p


def test_firstcond_boundary_within_its_stop_of_the_mpmath_root():
    # the 16-node grid alone returned 0.3708114882440681 here after one
    # scalar kp, 1.34e-12 off; the window's points are 0.05 apart in t,
    # so the 7-point root is within 5e-16 of the 30-digit root of
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


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 2.02])
def test_firstcond_boundary_takes_few_kp_evaluations(monkeypatch, p):
    # bisection alone would need log2(0.999 / 1e-12) + 2, about 42
    calls = _counting(monkeypatch, ct, "kp")
    b = ct.firstcond_boundary(p)
    assert calls[0] <= 2
    assert abs(el.kp(p, b) - ct.FIRSTCOND_RHS) < 1e-11


def _spy_batches(monkeypatch):
    """The moduli of each _kp_rows call that firstcond_boundary makes."""
    batches = []
    rows = ct._kp_rows

    def spy(ps, mus):
        batches.append(list(mus))
        return rows(ps, mus)

    monkeypatch.setattr(ct, "_kp_rows", spy)
    return batches


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 2.02])
def test_firstcond_boundary_brackets_from_one_batch(monkeypatch, p):
    # the window of 7 moduli, one _kp_rows call, narrows the bracket to
    # one window interval and holds the points the first interpolant runs
    # through, so at most a few scalar evaluations inside it are needed
    batches = _spy_batches(monkeypatch)
    calls = _counting(monkeypatch, ct, "kp")
    b = ct.firstcond_boundary(p)
    assert batches == [ct._window(p)] and len(batches[0]) == 7
    assert batches[0][0] < b < batches[0][-1]
    assert calls[0] <= 2
    assert abs(el.kp(p, b) - ct.FIRSTCOND_RHS) < 1e-11


@pytest.mark.parametrize("p", [1.26, 1.2605, 1.2619, 2.0181, 2.0199, 2.02])
def test_firstcond_boundary_window_shifts_inside_the_scan_range(p):
    # within 0.002 of either end of the anchors' span the window centred on
    # the predicted root would leave [1e-6, 0.999]; shifted, it stands on
    # that end of the range, its 7 moduli increasing and 0.05 apart in t
    mus = ct._window(p)
    ts = np.log1p(-(np.array(mus) ** p))
    assert len(mus) == 7 and 1e-6 <= mus[0] and mus[-1] <= 0.999
    assert np.allclose(np.diff(ts), -ct._WINDOW_STEP, rtol=0.0, atol=1e-9)
    assert mus[0] == pytest.approx(1e-6, rel=1e-8) if p < 1.5 else mus[-1] == 0.999


def test_anchor_cubic_predicts_the_root_well_inside_the_window():
    # the anchors' roots, the grid's 7-point roots at their p, are within
    # 1.3e-4 of t_b = log(1 - mu_b^p) (at p = 1.26; below 4e-5 elsewhere),
    # and the cubic through the 4 nearest predicts t_b to 7e-3 at 200
    # seeded p (7.0e-3 at worst of 1,500), well inside the window's
    # half-width 0.15
    roots = ct._anchor_roots()
    for a, t in zip(ct._ANCHOR_PS, roots):
        assert abs(t - math.log1p(-(ct.firstcond_boundary(a) ** a))) < 2e-4
    for p in _seeded_ps(200, seed=86):
        pts = [(a - p, t) for a, t in zip(ct._ANCHOR_PS, roots)]
        t_hat = ct._inverse_roots(pts, 4)[-1]
        assert abs(t_hat - math.log1p(-(ct.firstcond_boundary(p) ** p))) < 7e-3


def test_anchor_roots_come_from_one_batch_once(monkeypatch):
    # 9 x 16 rows in one _kp_rows call, no scalar kp, and not again
    batches = _spy_batches(monkeypatch)
    calls = _counting(monkeypatch, ct, "kp")
    roots = ct._anchor_roots()
    ct._anchor_roots.cache_clear()
    assert ct._anchor_roots() == roots and ct._anchor_roots() == roots
    assert batches == [ct._BOUNDARY_MUS.tolist() * 9] and calls[0] == 0


@pytest.mark.parametrize("p", [1.3, 1.5, 1.7, 1.86])
def test_firstcond_boundary_skips_the_moduli_above_0_99_up_to_the_cut(
    monkeypatch, p
):
    # the crossing lies below mu = 0.99 for every p <= 1.86, and the one
    # batch, the window, holds none of the five grid moduli above 0.99
    batches = _spy_batches(monkeypatch)
    b = ct.firstcond_boundary(p)
    assert batches == [ct._window(p)]
    assert not set(batches[0]) & set(ct._BOUNDARY_MUS[11:].tolist())
    assert b < ct._BOUNDARY_MUS[10]


@pytest.mark.parametrize("p", [1.2, 2.021, 2.03])
def test_firstcond_boundary_runs_the_grid_outside_the_anchor_span(monkeypatch, p):
    # no window outside [1.26, 2.02]: the batch is the grid of 16, which
    # finds the crossing at p = 2.021 and shows none at 1.2 or 2.03
    batches = _spy_batches(monkeypatch)
    if p == 2.021:
        assert _newton_gap(p, ct.firstcond_boundary(p)) < 1e-12
    else:
        with pytest.raises(NoSignChange):
            ct.firstcond_boundary(p)
    assert batches == [ct._BOUNDARY_MUS.tolist()]


@pytest.mark.parametrize("p", [1.3, 1.5, 1.7, 1.86])
def test_firstcond_boundary_builds_no_level_5_kp_factor_below_the_cut(
    monkeypatch, p
):
    # the window's rows and the scalar refinements stop at level 4 for p up
    # to 1.88 (checked 0.0005 apart); from about 1.8805 on, the window's
    # top rows, above mu = 0.9929, need level 5
    el._kp.cache_clear()
    levels = []
    factor = el._kp_p_factor

    def spy(ps, lev):
        levels.append(lev)
        return factor(ps, lev)

    monkeypatch.setattr(el, "_kp_p_factor", spy)
    ct.firstcond_boundary(p)
    assert levels and max(levels) < 5


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


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 2.02])
def test_firstcond_boundary_takes_bracket_ends_from_its_batch(monkeypatch, p):
    # the batch holds K_p at every window modulus, so scalar kp only ever
    # sees the moduli tried inside the bracket (one at p = 1.3, none at
    # the others, where the window's 7-point root meets the stop)
    seen = _spy_kp(monkeypatch)
    ct.firstcond_boundary(p)
    assert len(seen) == (p == 1.3)
    assert not set(seen) & set(ct._window(p))


def test_firstcond_boundary_stays_inside_the_batch_bracket(monkeypatch):
    # 200 values of p over the whole crossing range [1.3, 2.02], both ends
    # included: every scalar K_p lies strictly inside the window interval
    # that holds the root, and the error-estimate stop needs at most 2 of
    # them, 0.15 on average
    rng = random.Random(2024)
    ps = [1.3, 2.02] + [rng.uniform(1.3, 2.02) for _ in range(198)]
    seen = _spy_kp(monkeypatch)
    counts = []
    for p in ps:
        seen.clear()
        window = ct._window(p)
        b = ct.firstcond_boundary(p)
        k = bisect.bisect_left(window, b)
        assert 0 < k < len(window)
        assert all(window[k - 1] < mu < window[k] for mu in seen)
        counts.append(len(seen))
    assert sum(counts) / len(counts) <= 0.3
    assert max(counts) <= 2


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan, math.inf])
def test_firstcond_boundary_rejects_p_before_any_kp_work(monkeypatch, p):
    # _kp_rows checks p before its quadrature runs
    quads = _counting(monkeypatch, el, "_tanh_sinh")
    scalars = _counting(monkeypatch, ct, "kp")
    with pytest.raises(DomainError):
        ct.firstcond_boundary(p)
    assert quads[0] == scalars[0] == 0


def _stand_in_kp(monkeypatch, f):
    """K_p replaced by the strictly increasing f(mu), batch and scalar; the
    moduli of each batch, in order.  Each stand-in below crosses far below
    the window at p = 2, near 0.9985, so the grid batch follows it."""
    batches = []

    def rows(ps, mus):
        batches.append(list(mus))
        return (f(np.asarray(mus)),)

    monkeypatch.setattr(ct, "_kp_rows", rows)
    monkeypatch.setattr(ct, "kp", lambda p, mu: float(f(np.float64(mu))))
    return batches


def test_firstcond_boundary_returns_a_grid_node_on_the_threshold(monkeypatch):
    # the window shows no sign change, so the grid is the bracket's batch
    node = ct._BOUNDARY_MUS[7]
    batches = _stand_in_kp(monkeypatch, lambda mu: ct.FIRSTCOND_RHS + (mu - node))
    scalars = _counting(monkeypatch, ct, "kp")
    assert ct.firstcond_boundary(2.0) == node
    assert scalars[0] == 0
    assert batches == [ct._window(2.0), ct._BOUNDARY_MUS.tolist()]


def test_firstcond_boundary_bisects_a_step_that_leaves_the_bracket(monkeypatch):
    # a root where the stand-in bends sharply: the 7-point interpolant
    # through the batch lands outside the bracket [0.6019, 0.7488], so the
    # first scalar call is at the bracket's midpoint in t = log(1 - mu^2)
    _stand_in_kp(
        monkeypatch, lambda mu: ct.FIRSTCOND_RHS + np.arctan(50.0 * (mu - 0.7))
    )
    seen = _spy_kp(monkeypatch)
    assert abs(ct.firstcond_boundary(2.0) - 0.7) <= 1e-12
    a, b = np.log1p(-(ct._BOUNDARY_MUS[2:4] ** 2.0)).tolist()
    assert seen[0] == (-math.expm1(0.5 * (a + b))) ** 0.5
    monkeypatch.setattr(ct, "_BOUNDARY_ITER", 2)
    with pytest.raises(MaxIterations):
        ct.firstcond_boundary(2.0)


def test_firstcond_boundary_returns_an_evaluated_modulus_on_the_threshold(
    monkeypatch,
):
    # the stand-in equals the threshold on [0.69, 0.71], between two grid
    # nodes; the second scalar call lands there and is returned as it is
    _stand_in_kp(
        monkeypatch,
        lambda mu: ct.FIRSTCOND_RHS
        + np.minimum(mu - 0.69, 0.0)
        + np.maximum(mu - 0.71, 0.0),
    )
    seen = _spy_kp(monkeypatch)
    b = ct.firstcond_boundary(2.0)
    assert 0.69 <= b <= 0.71
    assert len(seen) == 2 and seen[-1] == b


def test_firstcond_boundary_stops_on_the_estimate_alone(monkeypatch):
    # a stand-in linear in t = log(1 - mu^2): the inverse 7- and 6-point
    # interpolants through the batch agree to rounding, so the estimate stop
    # returns the root before any scalar call
    t0 = math.log1p(-0.49)
    _stand_in_kp(monkeypatch, lambda mu: ct.FIRSTCOND_RHS + t0 - np.log1p(-(mu**2)))
    seen = _spy_kp(monkeypatch)
    assert abs(ct.firstcond_boundary(2.0) - 0.7) <= 1e-15
    assert seen == []


def test_firstcond_boundary_stops_on_a_narrow_bracket(monkeypatch):
    # a jump of 1 at 0.7 defeats the interpolants, whose estimate never
    # gets small; the bracket, halved by each step that leaves it, does
    _stand_in_kp(
        monkeypatch, lambda mu: ct.FIRSTCOND_RHS + np.where(mu < 0.7, mu - 1.0, mu)
    )
    seen = _spy_kp(monkeypatch)
    b = ct.firstcond_boundary(2.0)
    assert abs(b - 0.7) <= ct._BOUNDARY_TOL
    assert 20 <= len(seen) <= ct._BOUNDARY_ITER


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9909, 0.999])
def test_nome_from_modulus_takes_few_evaluations(monkeypatch, mu):
    # the closed form evaluates no theta-series modulus
    calls = _counting(monkeypatch, qt, "modulus_from_nome")
    q = qt.nome_from_modulus(mu)
    assert calls[0] == 0
    assert abs(qt.modulus_from_nome(q) - mu) < 1e-12
