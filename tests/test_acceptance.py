"""Top-level acceptance suite.

Ten end-to-end checks, each printing one summary line (run with -s to
see them all) and asserting both the numeric target and a runtime
budget.  Three checks carry strict xfails where a documented decimal
uses the squared-modulus (parameter m) convention or overshoots by a
constant factor; each xfail sits next to a passing twin that pins the
corrected value, so any behavior change trips the suite either way.
"""

import math
import time

import numpy as np
import pytest

import pelliptic.certify as ct
import pelliptic.eigen as eg
import pelliptic.elliptic as el
import pelliptic.fourier as fr
import pelliptic.qtheta as qt


def _report(tag, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {tag}] {status}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_01_sharp_nome_value():
    t0 = time.perf_counter()
    q0 = qt.solve_q0()
    dt = time.perf_counter() - t0
    ok = abs(q0 - 0.768062) < 1e-4 and dt < 1.0
    _report(1, ok, f"solve_q0 = {q0:.17g}, target 0.768062 +/- 1e-4", dt, 1)
    assert abs(q0 - 0.768062) < 1e-4
    assert dt < 1.0


def test_02_sharp_modulus_close_to_one():
    t0 = time.perf_counter()
    m0 = qt.mu0()
    dt = time.perf_counter() - t0
    gap = 1.0 - m0
    ok = 0.0 < gap < 1e-7 and dt < 1.0
    _report(2, ok, f"1 - mu0 = {gap:.3g}, target < 1e-7", dt, 1)
    assert 0.0 < gap < 1e-7
    assert dt < 1.0


def test_03_p2_threshold_nome():
    t0 = time.perf_counter()
    b = ct.firstcond_boundary(2.0)
    q = qt.nome_from_modulus(b)
    dt = time.perf_counter() - t0
    ok = abs(q - 0.315323) < 1e-4 and dt < 5.0
    _report(
        3, ok,
        f"K = 8/(pi^2-8) at modulus {b:.9f}, nome {q:.9f} vs 0.315323 +/- 1e-4",
        dt, 5,
    )
    assert abs(q - 0.315323) < 1e-4
    assert dt < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="0.996912 is the squared boundary modulus (parameter m = mu^2); "
    "the bisection on the modulus itself lands at 0.998455, and its nome "
    "matches the documented 0.315323 to 8e-9",
)
def test_03_p2_threshold_modulus_documented_decimal():
    b = ct.firstcond_boundary(2.0)
    assert abs(b - 0.996912) < 1e-4


def test_03_p2_threshold_squared_modulus_twin():
    t0 = time.perf_counter()
    b = ct.firstcond_boundary(2.0)
    dt = time.perf_counter() - t0
    ok = abs(b * b - 0.996912) < 1e-4
    _report(3, ok, f"boundary modulus squared = {b * b:.9f} vs 0.996912 +/- 1e-4", dt, 5)
    assert abs(b * b - 0.996912) < 1e-4
    assert dt < 5.0


def test_04_sharp_beats_firstcond_at_documented_modulus():
    t0 = time.perf_counter()
    rep = ct.certify_p2_sharp(ct.ModulusSet.constant(0.9909))
    dt = time.perf_counter() - t0
    ok = rep.verdict == "PASS" and dt < 10.0
    _report(4, ok, f"p2-sharp verdict at mu = 0.9909: {rep.verdict}", dt, 10)
    assert rep.verdict == "PASS"
    assert dt < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="K_2(0.9909) = 3.4027 is still below the 4.2790 threshold, so the "
    "K_p test passes there too; the two tests separate only above mu = 0.998455",
)
def test_04_firstcond_fails_at_documented_modulus():
    rep = ct.certify_firstcond(2.0, ct.ModulusSet.constant(0.9909))
    assert rep.verdict == "FAIL"


def test_04_improvement_twin_above_threshold():
    # at mu = 0.9995 the K_p test genuinely fails while the sharp p = 2
    # test still passes, which is the intended improvement demonstration
    t0 = time.perf_counter()
    hi = ct.ModulusSet.constant(0.9995)
    f = ct.certify_firstcond(2.0, hi)
    s = ct.certify_p2_sharp(hi)
    dt = time.perf_counter() - t0
    ok = f.verdict == "FAIL" and s.verdict == "PASS"
    _report(
        4, ok,
        f"at mu = 0.9995: firstcond {f.verdict}, p2-sharp {s.verdict}",
        dt, 10,
    )
    assert f.verdict == "FAIL"
    assert s.verdict == "PASS"
    assert dt < 10.0


def test_05_snp_matches_agm_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for mu in np.arange(0.1, 0.95, 0.1):
        mu = float(mu)
        K = el.kp(2.0, mu)
        ys = (np.arange(20) + 0.3) / 20.0 * 4.0 * K
        vals = el.snp(2.0, mu, ys)
        ref = np.array([qt.agm_jacobi_sn(float(y), mu) for y in ys])
        worst = max(worst, float(np.max(np.abs(vals - ref))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 10.0
    _report(5, ok, f"max |snp - agm_sn| = {worst:.3g}, target < 1e-9", dt, 10)
    assert worst < 1e-9
    assert dt < 10.0


def test_06_eigenpair_residual_suite():
    t0 = time.perf_counter()
    worst_fi = 0.0
    worst_ode = 0.0
    worst_bd = 0.0
    grid = np.linspace(0.0, 1.0, 201)
    for p in (1.5, 2.0, 3.0):
        for mu in (0.2, 0.6):
            for n in (1, 2, 3):
                e = eg.eigenpair(p, mu, n)
                fi = eg.first_integral_residual(e, grid)
                worst_fi = max(worst_fi, fi.max_abs_residual / (1e-7 * e.lam**2))
                ode = eg.ode_residual(e, grid)
                scale = e.lam if p == 2.0 else e.lam**2
                worst_ode = max(worst_ode, ode.max_abs_residual / (1e-6 * scale))
                worst_bd = max(
                    worst_bd,
                    abs(eg.eigenfunction_eval(e, 0.0)),
                    abs(eg.eigenfunction_eval(e, 1.0)),
                )
    dt = time.perf_counter() - t0
    ok = worst_fi < 1.0 and worst_ode < 1.0 and worst_bd < 1e-10 and dt < 60.0
    _report(
        6, ok,
        "18 eigenpairs: first-integral residual at "
        f"{worst_fi:.2g}x tolerance, ODE residual at {worst_ode:.2g}x, "
        f"boundary values {worst_bd:.2g}",
        dt, 60,
    )
    assert worst_fi < 1.0
    assert worst_ode < 1.0
    assert worst_bd < 1e-10
    assert dt < 60.0


def test_07_fourier_bound_suite():
    t0 = time.perf_counter()
    floor = 4.0 * math.sqrt(2.0) / math.pi**2
    worst_even = 0.0
    worst_floor = math.inf
    worst_bound = -math.inf
    for p in (1.2, 1.5, 2.0, 3.0, 5.0):
        for mu in (0.05, 0.3, 0.6, 0.9):
            K = el.kp(p, mu)
            for k in range(2, 21, 2):
                worst_even = max(worst_even, abs(fr.tau_k(p, mu, k)))
            worst_floor = min(worst_floor, fr.tau_k(p, mu, 1) - floor)
            for k in range(3, 22, 2):
                bound = 4.0 * math.sqrt(2.0) * K / (math.pi**2 * k**2)
                worst_bound = max(worst_bound, abs(fr.tau_k(p, mu, k)) - bound)
    dt = time.perf_counter() - t0
    ok = worst_even < 1e-10 and worst_floor > -1e-10 and worst_bound < 0.0
    _report(
        7, ok,
        f"even tau at {worst_even:.2g}, tau_1 floor margin {worst_floor:.3g}, "
        f"per-k bound slack {-worst_bound:.3g}",
        dt, 120,
    )
    assert worst_even < 1e-10
    assert worst_floor > -1e-10
    assert worst_bound < 0.0
    assert dt < 120.0


def test_08_lambert_identity_suite():
    t0 = time.perf_counter()
    worst_dig = 0.0
    worst_sum = 0.0
    for q in np.arange(0.1, 0.95, 0.1):
        q = float(q)
        worst_dig = max(worst_dig, abs(qt.lambert_L(q) - qt.lambert_via_digamma(q)))
        rq = math.sqrt(q)
        combo = (
            qt.lambert_L(rq) - 2.0 * qt.lambert_L(q) + qt.lambert_L(q * q)
        ) / rq - 1.0 / (1.0 - q)
        worst_sum = max(worst_sum, abs(qt.odd_lambert_sum(q) - combo))
    q0 = qt.solve_q0()
    rho_total = (1.0 - q0) * qt.odd_lambert_sum(q0)
    dt = time.perf_counter() - t0
    ok = worst_dig < 1e-10 and worst_sum < 1e-10 and abs(rho_total - 1.0) < 1e-4
    _report(
        8, ok,
        f"digamma route off by {worst_dig:.2g}, odd-sum split off by "
        f"{worst_sum:.2g}, sum of rho at q0 = {rho_total:.12f}",
        dt, 1,
    )
    assert worst_dig < 1e-10
    assert worst_sum < 1e-10
    assert abs(rho_total - 1.0) < 1e-4
    assert dt < 1.0


def test_09_region_scan_monotone():
    t0 = time.perf_counter()
    ops = [(i + 1.0) / 51.0 for i in range(50)]
    mus = [0.999 * ((j + 1.0) / 50.0) for j in range(50)]
    rows = ct.region_scan(ops, mus)
    assert len(rows) == 2500
    bad = 0
    for op in ops:
        flags = [r[3] for r in rows if r[0] == op]
        if flags != sorted(flags, reverse=True):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 120.0
    _report(9, ok, f"50x50 scan: {bad} rows break the ones-then-zeros pattern", dt, 120)
    assert bad == 0
    assert dt < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="0.9969 is the squared boundary modulus; the modulus itself is "
    "0.998455, off the documented decimal by 1.6e-3",
)
def test_09_boundary_documented_decimal():
    b = ct.firstcond_boundary(2.0)
    assert abs(b - 0.9969) < 1e-3


def test_09_boundary_squared_twin():
    t0 = time.perf_counter()
    b = ct.firstcond_boundary(2.0)
    dt = time.perf_counter() - t0
    ok = abs(b * b - 0.9969) < 1e-3
    _report(9, ok, f"boundary modulus squared = {b * b:.6f} vs 0.9969 +/- 1e-3", dt, 120)
    assert abs(b * b - 0.9969) < 1e-3
    assert dt < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the scale 2^(5/2) pi n sqrt(q)/(1-q) overshoots the "
    "reconstruction by a factor sqrt(2); the matching scale is "
    "4 pi n sqrt(q)/(1-q)",
)
def test_10_reconstruction_documented_scale():
    mu = 0.3
    q = qt.nome_from_modulus(mu)
    e = eg.eigenpair(2.0, mu, 1)
    scale = 2.0**2.5 * math.pi * math.sqrt(q) / (1.0 - q)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 1.0, 20):
        lhs = scale * fr.g_eval(q, float(x))
        rhs = eg.eigenfunction_eval(e, float(x))
        assert abs(lhs - rhs) < 1e-7


def test_10_reconstruction_matches_eigenfunction():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(11)
    for mu in (0.3, 0.7):
        q = qt.nome_from_modulus(mu)
        for n in (1, 3):
            e = eg.eigenpair(2.0, mu, n)
            scale = 4.0 * math.pi * n * math.sqrt(q) / (1.0 - q)
            for x in rng.uniform(0.0, 1.0, 20):
                lhs = scale * fr.g_eval(q, n * float(x))
                rhs = eg.eigenfunction_eval(e, float(x))
                worst = max(worst, abs(lhs - rhs))
    dt = time.perf_counter() - t0
    ok = worst < 1e-7 and dt < 10.0
    _report(
        10, ok,
        f"g-series reconstruction off by {worst:.3g}, target < 1e-7",
        dt, 10,
    )
    assert worst < 1e-7
    assert dt < 10.0
