"""Tests for theta constants, nome maps, Lambert series and q0."""

import math
import random

import mpmath
import numpy as np
import pytest

import pelliptic.elliptic as el
import pelliptic.qtheta as qt
from pelliptic.errors import DomainError, SlowConvergence

# Erdos-Borwein constant sum 1/(2^n - 1)
_EB = 1.6066951524152917638


def test_agm_sn_degenerates_to_sine():
    for y in [0.3, 1.0, 2.5]:
        assert abs(qt.agm_jacobi_sn(y, 0.0) - math.sin(y)) < 1e-12


def test_agm_sn_quarter_period_maximum():
    for mu in [0.2, 0.5, 0.9]:
        K = el.kp(2.0, mu)
        assert abs(qt.agm_jacobi_sn(K, mu) - 1.0) < 1e-10


def test_agm_sn_matches_snp_pointwise():
    assert abs(qt.agm_jacobi_sn(0.7, 0.5) - el.snp(2.0, 0.5, 0.7)) < 1e-9


def test_agm_sn_matches_snp_grid():
    for mu in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
        K = el.kp(2.0, mu)
        for i in range(20):
            y = 4.0 * K * i / 19.0
            assert abs(qt.agm_jacobi_sn(y, mu) - el.snp(2.0, mu, y)) < 1e-9


def test_agm_sn_domain():
    with pytest.raises(DomainError):
        qt.agm_jacobi_sn(0.5, 1.0)
    with pytest.raises(DomainError):
        qt.agm_jacobi_sn(0.5, -0.1)
    for y in (math.nan, math.inf):
        with pytest.raises(DomainError):
            qt.agm_jacobi_sn(y, 0.5)


def test_agm_stops_at_a_step_that_changes_nothing():
    # once a and b are adjacent doubles each step repeats the last, with c
    # at half their ulp, above 1e-17 a; the AGM stops there instead of at
    # its 60-step cap: at most 7 steps on seeded moduli up to 1 - 1e-11,
    # and at most 8 from there to the last double below 1
    rng = random.Random(48)
    mus = [rng.random() for _ in range(2000)]
    mus += [1.0 - 10.0 ** -rng.uniform(1.0, 11.0) for _ in range(2000)]
    near_one = [1.0 - 10.0 ** -rng.uniform(11.0, 15.9) for _ in range(500)]
    near_one.append(math.nextafter(1.0, 0.0))

    def steps(mu):
        return len(qt._agm(math.sqrt((1.0 - mu) * (1.0 + mu)), mu)[1])

    assert max(map(steps, mus)) <= 7
    assert max(map(steps, near_one)) <= 8
    # 0.123 stalled: a step that moves neither a nor b ends the loop
    a, landen = qt._agm(math.sqrt((1.0 - 0.123) * (1.0 + 0.123)), 0.123)
    assert len(landen) == 3


def test_agm_sn_at_huge_y_returns_a_value_or_names_y():
    # y = 1e300 scales by 2**n, n <= 8, and stays finite at every modulus;
    # near the largest double the start angle overflows, and DomainError
    # names y instead of math's bare "math domain error"
    assert -1.0 <= qt.agm_jacobi_sn(1e300, 0.123) <= 1.0
    rng = random.Random(49)
    for mu in [rng.random() for _ in range(2000)] + [math.nextafter(1.0, 0.0)]:
        assert -1.0 <= qt.agm_jacobi_sn(1e300, mu) <= 1.0, mu
    for y in (1.7e308, -1.7e308, 1.7976931348623157e308):
        with pytest.raises(DomainError, match=r"y = .*overflows"):
            qt.agm_jacobi_sn(y, 0.123)


def test_theta_constants_at_zero():
    assert qt._theta_sums(0.0) == (0.0, 1.0, 1.0)


def test_theta_constants_series_value():
    theta2, theta3, theta4 = qt._theta_sums(0.1)
    assert abs(theta3 - 1.2002000020000003) < 1e-12
    assert abs(theta4 - 0.8001999980000002) < 1e-12
    assert theta2 >= 0.0


def test_theta_constants_rejects_slow_zone():
    # the theta series are summed only behind modulus_from_nome, which
    # refuses the slow zone
    for q in (1.0, 0.995, -0.1):
        with pytest.raises(DomainError):
            qt.modulus_from_nome(q)


def test_modulus_from_nome_endpoints_and_growth():
    assert qt.modulus_from_nome(0.0) == 0.0
    qs = [0.72 * i / 49 for i in range(50)]
    vals = [qt.modulus_from_nome(q) for q in qs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # saturation zone still reports a modulus strictly below 1
    assert qt.modulus_from_nome(0.9) < 1.0


def test_theta_constants_and_modulus_match_mpmath():
    # 40-digit oracle at seeded nomes and q0.  Where theta2/theta3 >= 0.95
    # the modulus comes from the theta4 complement; plain r^2 is over 4 ulp
    # off there on this grid, so the 1 ulp bound holds only on that route.
    rng = random.Random(0)
    qs = [0.98 * (1.0 - rng.random()) for _ in range(400)] + [qt.solve_q0()]
    with mpmath.workdps(40):
        for q in qs:
            theta2, theta3, theta4 = qt._theta_sums(q)
            t2, t3 = mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q)
            t4 = mpmath.jtheta(4, 0, q)
            assert abs(theta2 - t2) <= 1e-15 * t2
            assert abs(theta3 - t3) <= 1e-15 * t3
            assert abs(theta4 - t4) <= 1e-15 * t3
            mu = (t2 / t3) ** 2
            if float(mu) == 1.0:
                continue  # nextafter(1, 0) is returned there by design
            ulps = abs(qt.modulus_from_nome(q) - mu) / np.spacing(float(mu))
            assert ulps <= (8.0 if theta2 / theta3 < 0.95 else 1.0), q


def test_modulus_at_q0_nearly_one():
    assert 1.0 - qt.modulus_from_nome(0.768062) < 1e-7


def test_nome_round_trips():
    assert qt.nome_from_modulus(0.0) == 0.0
    q = 0.3
    assert abs(qt.nome_from_modulus(qt.modulus_from_nome(q)) - q) < 1e-10
    q = 0.01
    assert abs(qt.nome_from_modulus(qt.modulus_from_nome(q)) - q) < 1e-10
    mu = qt.modulus_from_nome(0.5)
    assert abs(qt.nome_from_modulus(mu) - 0.5) < 1e-10


def test_nome_of_zero_modulus_takes_no_modulus_evaluation(monkeypatch):
    # the closed form never evaluates the theta-series modulus
    calls = []
    modulus_from_nome = qt.modulus_from_nome

    def counted(q):
        calls.append(q)
        return modulus_from_nome(q)

    monkeypatch.setattr(qt, "modulus_from_nome", counted)
    assert qt.nome_from_modulus(0.0) == 0.0
    assert calls == []


@pytest.mark.xfail(
    strict=True,
    reason="0.996912 is a squared modulus: its own nome is 0.2848, while "
    "0.315323 is the nome of sqrt(0.996912)",
)
def test_nome_of_0996912_documented_value():
    assert abs(qt.nome_from_modulus(0.996912) - 0.315323) < 1e-5


def test_nome_of_firstcond_boundary_modulus():
    # the same constant in modulus units: sqrt(0.996912)
    assert abs(qt.nome_from_modulus(math.sqrt(0.996912)) - 0.315323) < 1e-5


def test_nome_from_modulus_errors():
    with pytest.raises(DomainError):
        qt.nome_from_modulus(1.0)
    with pytest.raises(DomainError):
        qt.nome_from_modulus(-0.2)


@pytest.mark.parametrize(
    "mu",
    [1e-8, 0.01, 0.1, 0.5, 0.9, 0.9909, 1.0 - 1e-6, 1.0 - 2e-9, 1.0 - 1e-9,
     1.0 - 1e-12, float(np.nextafter(1.0, 0.0))],
)
def test_nome_matches_mpmath(mu):
    # 40-digit exp(-pi K(1 - m) / K(m)), m = mu^2 of the exact double; the
    # last modulus has the smallest complement of a double, mu' = 1.49e-8
    with mpmath.workdps(40):
        m = mpmath.mpf(mu) ** 2
        ref = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - m) / mpmath.ellipk(m))
        assert abs(qt.nome_from_modulus(mu) - ref) <= 1e-14 * ref


def test_nome_agrees_with_quarter_period_ratio():
    # independent formula q = exp(-pi K(mu') / K(mu)), mu' the complement
    for mu in [0.5, 0.9]:
        muc = math.sqrt((1.0 - mu) * (1.0 + mu))
        ref = math.exp(-math.pi * el.kp(2.0, muc) / el.kp(2.0, mu))
        assert abs(qt.nome_from_modulus(mu) - ref) < 1e-10


def test_lambert_L_values():
    assert abs(qt.lambert_L(0.5) - _EB) < 1e-12
    assert abs(qt.lambert_L(1e-8) - 1e-8) < 1e-15


def test_lambert_L_domain():
    for bad in [0.0, 1.0, -0.5, 0.995]:
        with pytest.raises(DomainError):
            qt.lambert_L(bad)


def test_lambert_via_digamma_agreement():
    assert abs(qt.lambert_via_digamma(0.5) - _EB) < 1e-10
    assert abs(qt.lambert_via_digamma(0.1) - qt.lambert_L(0.1)) < 1e-12
    for i in range(1, 10):
        b = i / 10.0
        assert abs(qt.lambert_via_digamma(b) - qt.lambert_L(b)) < 1e-10


def test_q_digamma_reduces_to_lambert_at_one():
    want = -math.log(0.5) + math.log(0.5) * qt.lambert_L(0.5)
    assert abs(qt.q_digamma(0.5, 1.0) - want) < 1e-12


def test_q_digamma_increasing_in_x():
    vals = [qt.q_digamma(0.5, x) for x in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_q_digamma_domain():
    with pytest.raises(DomainError):
        qt.q_digamma(0.5, 0.0)
    with pytest.raises(DomainError):
        qt.q_digamma(0.0, 1.0)
    with pytest.raises(DomainError):
        qt.q_digamma(1.0, 1.0)
    with pytest.raises(DomainError):
        qt.q_digamma(0.5, math.inf)


def test_q_digamma_refuses_a_slow_series_at_small_x():
    # its terms fall like (q^x)^n, so at x = 1e-9 the series would run for
    # about 2e10 terms: refused by the 0.99 rule the module applies to q
    slow = r"^q\*\*x = 0\.99\d+ > 0\.99; q-digamma series too slow$"
    for q, x in ((0.5, 1e-9), (0.5, 1e-3), (0.99, 0.5)):
        with pytest.raises(SlowConvergence, match=slow):
            qt.q_digamma(q, x)
    # the guard moves no value; q^x = 0.99 itself, as q = 0.99, is summed
    got = [qt.q_digamma(0.5, x).hex() for x in (0.5, 1.0, 2.0)]
    assert got == ["-0x1.a377c62b4cbd8p+0", "-0x1.ae9f29c64f8a2p-2", "0x1.17293618f7b36p-2"]
    assert qt.q_digamma(0.99, 1.0).hex() == "-0x1.263ff1223af68p-1"


def test_odd_lambert_sum_small_q():
    assert abs(qt.odd_lambert_sum(1e-6) - 1e-6) < 1e-11


def test_odd_lambert_sum_identity_grid():
    # the direct sum against the Lambert-series combination that the
    # sharp equation uses
    for i in range(1, 10):
        q = i / 10.0
        rq = math.sqrt(q)
        combo = (
            qt.lambert_L(rq) - 2.0 * qt.lambert_L(q) + qt.lambert_L(q * q)
        ) / rq - 1.0 / (1.0 - q)
        assert qt.odd_lambert_sum(q) > 0.0
        assert abs(qt.odd_lambert_sum(q) - combo) <= 1e-9


def test_odd_lambert_sum_at_q0_gives_unit_s():
    q0 = qt.solve_q0()
    assert abs((1.0 - q0) * qt.odd_lambert_sum(q0) - 1.0) < 1e-4


def test_solve_q0_value_and_bracket():
    q0 = qt.solve_q0()
    assert abs(q0 - 0.768062) < 1e-4
    sharp = lambda q: qt.odd_lambert_sum(q) - 1.0 / (1.0 - q)
    assert sharp(0.5) * sharp(0.95) < 0.0
    assert qt.solve_q0() == qt.solve_q0()


def test_q0_is_where_the_float_sharp_equation_changes_sign():
    # the float sharp equation is negative one double below q0 and >= 0 at it
    q0 = qt.solve_q0()
    sharp = lambda q: qt.odd_lambert_sum(q) - 1.0 / (1.0 - q)
    assert sharp(math.nextafter(q0, 0.0)) < 0.0
    assert sharp(q0) >= 0.0


def test_mu0_bounds_and_cache():
    m = qt.mu0()
    assert 1.0 - m < 1e-7
    assert m > 0.9909
    assert m < 1.0
    assert qt.mu0() == m


def test_fraenkel_s_values():
    assert abs(qt.fraenkel_s(0.25, 1) - 8.0 * math.pi / 3.0) < 1e-12
    assert qt.fraenkel_s(0.3, 1) > 0.0
    assert qt.fraenkel_s(0.3, -1) == -qt.fraenkel_s(0.3, 1)
    q = 1e-10
    assert abs(qt.fraenkel_s(q, 1) / math.sqrt(q) - 4.0 * math.pi) < 1e-8
    with pytest.raises(DomainError):
        qt.fraenkel_s(0.3, 2)
    # a sign is the integer +1 or -1: not a bool, a float or 0
    for bad in (True, 1.0, 0):
        with pytest.raises(DomainError):
            qt.fraenkel_s(0.3, bad)
    with pytest.raises(DomainError):
        qt.fraenkel_s(0.0, 1)


def test_rho_profile_increasing_in_q():
    # (1-q) q^j / (1 - q^(2j+1)) grows with q for each fixed j
    for j in (1, 2, 3):
        qs = [0.02 + 0.7 * i / 30 for i in range(31)]
        vals = [(1.0 - q) * q**j / (1.0 - q ** (2 * j + 1)) for q in qs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
