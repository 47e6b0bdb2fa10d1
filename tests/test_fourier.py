"""Tests for sine coefficients, tail bounds and the p=2 series."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import pelliptic.certify as ct
import pelliptic.eigen as eg
import pelliptic.elliptic as el
import pelliptic.fourier as fr
import pelliptic.qtheta as qt
import pelliptic.quadrature as quad
from pelliptic.errors import DomainError, NonConvergence

GRID_P = [1.2, 1.5, 2.0, 3.0, 5.0]
GRID_MU = [0.05, 0.3, 0.6, 0.9]


def test_even_index_coefficients_vanish():
    for p, mu in [(2.0, 0.5), (3.0, 0.6), (1.5, 0.3)]:
        for j in range(1, 6):
            assert abs(fr.tau_k(p, mu, 2 * j)) < 1e-10


def test_tau1_small_mu_limit():
    # sn_2(2Kx, mu) -> sin(pi x), so tau_1 -> sqrt(2)/2
    assert abs(fr.tau_k(2.0, 1e-4, 1) - math.sqrt(2.0) / 2.0) < 1e-5


def test_tau1_at_mu_zero_exact_projection():
    assert abs(fr.tau_k(2.0, 0.0, 1) - math.sqrt(2.0) / 2.0) < 1e-10
    assert fr.tau_k(3.0, 0.0, 1) > 0.0


def test_tau1_floor_constant():
    # 4 sqrt(2)/pi^2; the short decimal 0.5731437 seen in print is only
    # good to about 2e-5
    assert abs(fr._TAU1_FLOOR - 0.5731591682507563) < 1e-15
    assert abs(fr._TAU1_FLOOR - 0.5731437) < 1e-4


def test_tau1_margin_positive_on_grid():
    for p in GRID_P:
        for mu in GRID_MU:
            assert fr.tau1_margin(p, mu) >= -1e-10


def test_per_k_bound_on_grid():
    for p, mu in [(2.0, 0.5), (3.0, 0.6), (1.2, 0.9)]:
        K = el.kp(p, mu)
        for k in range(3, 23, 2):
            bound = 4.0 * math.sqrt(2.0) * K / (math.pi**2 * k**2)
            assert abs(fr.tau_k(p, mu, k)) <= bound + 1e-10


def test_ratio_matches_rho_via_nome():
    for mu in [0.3, 0.6, 0.9]:
        q = qt.nome_from_modulus(mu)
        t1 = fr.tau_k(2.0, mu, 1)
        for j in (1, 2, 3, 4):
            ratio = fr.tau_k(2.0, mu, 2 * j + 1) / t1
            assert abs(ratio - fr.rho_coeff(q, j)) < 1e-8


def test_tau_k_validation():
    with pytest.raises(DomainError):
        fr.tau_k(2.0, 0.5, 0)
    with pytest.raises(DomainError):
        fr.tau_k(1.0, 0.5, 1)
    with pytest.raises(DomainError):
        fr.tau_k(2.0, 1.0, 1)
    for bad in ([], [1, 0, 3], np.array([1.0, 3.0]), np.array([[1, 3], [5, 7]]), [True, 3]):
        with pytest.raises(DomainError):
            fr.tau_k(2.0, 0.5, bad)
    with pytest.raises(DomainError):
        fr.tau_k(2.0, 0.5, True)


def test_tau_k_takes_a_0d_integer_array_as_its_integer():
    # a 0-d integer array is one k, as 3, np.int64(3) and every sn_p entry
    # point's 0-d y are points; a 0-d bool or float array is still refused
    want = fr.tau_k(2.0, 0.5, 3)
    for k in (np.array(3), np.array(3, dtype=np.uint8), np.int64(3)):
        got = fr.tau_k(2.0, 0.5, k)
        assert type(got) is float and got == want
    for bad in (np.array(True), np.array(3.0), np.array(0)):
        with pytest.raises(DomainError, match="k must be an integer in"):
            fr.tau_k(2.0, 0.5, bad)


def test_tau_k_sequence_rows_match_scalar_calls():
    # k = 121..201 run to tanh-sinh level 7, where numpy's sum over the
    # levels would differ between one row and many unless taken per row
    ks = np.arange(1, 202)
    for p in (1.5, 3.0, 6.0):
        batch = fr.tau_k(p, 0.6, ks)
        assert isinstance(batch, np.ndarray) and batch.shape == ks.shape
        for i in list(range(0, 201, 20)) + [199, 200]:
            assert fr.tau_k(p, 0.6, int(ks[i])) == batch[i]
        assert np.array_equal(fr.tau_k(p, 0.6, [201, 3, 1]), batch[[200, 2, 0]])


def test_tau_k_many_moduli_match_one_modulus_calls():
    # one row per (mu, k) in one quadrature: every modulus gets, bit for
    # bit, what a call for it alone gives, in any order, with a modulus
    # repeated, and for odd and even k mixed
    ks = [4, 1, 7, 2, 201, 3]
    for p in (1.5, 3.0):
        alone = {mu: fr.tau_k(p, mu, ks) for mu in (0.2, 0.6, 0.95, 0.0)}
        for mus in ([0.2, 0.6, 0.95], [0.95, 0.0, 0.6, 0.2], [0.6, 0.2, 0.6, 0.6]):
            el._engine.cache_clear()
            batch = fr.tau_k(p, mus, ks)
            assert batch.shape == (len(mus), len(ks))
            for row, mu in zip(batch, mus):
                assert np.array_equal(row, alone[mu]), (p, mus, mu)
            # every k odd keeps the table's order, with no odd-first permutation
            odd = fr.tau_k(p, mus, [1, 7, 201, 3])
            assert np.array_equal(odd, batch[:, [1, 2, 4, 5]]), (p, mus)
            column = fr.tau_k(p, np.array(mus), 7)
            assert column.shape == (len(mus),)
            assert column.tolist() == [fr.tau_k(p, mu, 7) for mu in mus]
    assert fr.tau_k(2.0, np.array(0.5), [3]).shape == (1,)


def test_tau_k_matches_mpmath_reference():
    # 30-digit tau_1 and tau_3 at p in {1.5, 3} from perfbench/make_tau_ref.py,
    # an independent route through the cosine integral of w_p
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tau_ref.json"
    for v in json.loads(path.read_text())["values"]:
        err = abs(fr.tau_k(v["p"], v["mu"], v["k"]) - float(v["digits"]))
        assert err <= 1e-12, (v["p"], v["mu"], v["k"], err)


def _tau_p2_closed_form(mu, ks):
    """Jacobi's sine series of sn(2 K x, mu) read off as tau_k, from scipy
    alone: sqrt(2) pi q^(j+1/2) / (mu K (1 - q^(2j+1))) at k = 2j+1, zero at
    even k."""
    m = mu * mu
    K = float(special.ellipk(m))
    q = math.exp(-math.pi * float(special.ellipkm1(m)) / K)
    j = (ks - 1) // 2
    odd = math.sqrt(2.0) * math.pi / (mu * K) * q ** (j + 0.5)
    odd /= 1.0 - q ** (2 * j + 1)
    return np.where(ks % 2 == 1, odd, 0.0)


def test_tau_k_matches_jacobi_closed_form_at_p2():
    ks = np.arange(1, 202)
    for mu in (0.1, 0.5, 0.9, 0.999):
        err = np.abs(fr.tau_k(2.0, mu, ks) - _tau_p2_closed_form(mu, ks))
        assert err.max() <= 2e-15, (mu, err.max())
        # odd k from one cosine, 2 cos(k pi x1); 4.44e-16 at most, at mu = 0.1
        assert err[0::2].max() <= 5e-16, (mu, err[0::2].max())
        assert err[1::2].max() <= 1e-15, (mu, err[1::2].max())


def test_sn_l2_matches_closed_form_at_p2():
    # int_0^1 sn^2(2 K x) dx = (K - E) / (mu^2 K)
    for mu in (0.1, 0.5, 0.9, 0.999):
        m = mu * mu
        K, E = float(special.ellipk(m)), float(special.ellipe(m))
        assert abs(fr._sn_l2(2.0, mu) - (K - E) / (m * K)) <= 1e-13, mu


def _tau_k_by_inversion(p, mu, ks):
    """tau_k straight from the definition, sqrt(2) int_0^1 s(x) sin(k pi x)
    dx with s(x) = sn_p(2 K_p x) inverted at every node: the integral is
    split at x = 1/2 and each half mapped to u in [0, 1]."""
    K = el.kp(p, mu)
    kh = (0.5 * ks * math.pi)[:, None]

    def F(lev, u, cu, rows):
        a = el.snp(p, mu, K * u)
        b = el.snp(p, mu, K * (1.0 + u))
        return a * np.sin(kh[rows] * u) + b * np.sin(kh[rows] * (1.0 + u))

    return math.sqrt(2.0) * 0.5 * quad._tanh_sinh(F, 1.0, 1e-11)[0]


def test_tau_k_matches_snp_inversion_route():
    ks = np.arange(1, 202)
    for p in (1.05, 1.2, 1.5, 3.0, 6.0):
        for mu in (0.3, 0.9, 1.0 - 1e-9):
            diff = np.abs(fr.tau_k(p, mu, ks) - _tau_k_by_inversion(p, mu, ks))
            assert diff.max() <= 5e-14, (p, mu, diff.max())


def test_tau_k_and_sn_l2_converge_on_the_whole_domain():
    for p in (1.05, 1.1, 1.2, 1.3, 1.5, 2.0, 3.0, 6.0, 10.0):
        for mu in (0.0, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            assert np.all(np.isfinite(fr.tau_k(p, mu, range(1, 202)))), (p, mu)
            assert 0.0 < fr._sn_l2(p, mu) < 1.0, (p, mu)
    # below p = 1.05 the w_p tail panels refuse to build
    with pytest.raises(NonConvergence):
        fr.tau_k(1.03, 0.5, 1)


def _engine_counter(monkeypatch):
    """Clear the engine cache, and with it every profile, and record, from
    then on, what any engine evaluates: the first list gets ("wp_many", n)
    for a w_p call on n points, ("_tail", n) for a tail sum on n points
    and ("powers", n) for a power matrix of the profile fill over n
    nodes; the second the points of every sn_p inversion."""
    evaluated, inversions = [], []
    wp_many, tail, invert = el._SnpEngine.wp_many, el._SnpEngine._tail, el._SnpEngine.invert
    powers = fr._series_powers

    def counting_wp(self, z):
        evaluated.append(("wp_many", np.size(z)))
        return wp_many(self, z)

    def counting_tail(self, e):
        evaluated.append(("_tail", np.size(e)))
        return tail(self, e)

    def counting_powers(z, p, n):
        evaluated.append(("powers", np.size(z)))
        return powers(z, p, n)

    def counting_invert(self, t):
        inversions.append(np.size(t))
        return invert(self, t)

    monkeypatch.setattr(el._SnpEngine, "wp_many", counting_wp)
    monkeypatch.setattr(el._SnpEngine, "_tail", counting_tail)
    monkeypatch.setattr(fr, "_series_powers", counting_powers)
    monkeypatch.setattr(el._SnpEngine, "invert", counting_invert)
    el._engine.cache_clear()
    return evaluated, inversions


def test_warm_profile_makes_no_snp_call(monkeypatch):
    evaluated, inversions = _engine_counter(monkeypatch)
    first = fr.fourier_profile(2.5, 0.45, 41)
    assert ("_tail", 97) in evaluated
    evaluated.clear()
    assert fr.fourier_profile(2.5, 0.45, 41) == first
    assert fr._sn_l2(2.5, 0.45) > 0.0
    assert evaluated == [] and inversions == []


def test_warm_certificate_of_200_moduli_reuses_every_profile(monkeypatch):
    # each modulus's profile lives on its engine, so a set of 200 moduli
    # keeps all of them, under the engine cache's bound of 256
    evaluated, inversions = _engine_counter(monkeypatch)
    ms = ct.ModulusSet.grid(0.05, 0.95, 200)
    cold = ct.certify_invertibility(1.5, ms, K=21)
    evaluated.clear()
    misses = el._engine.cache_info().misses
    assert ct.certify_invertibility(1.5, ms, K=21) == cold
    assert evaluated == [] and inversions == []
    assert el._engine.cache_info().misses == misses


def test_profile_checks_its_k_run_once(monkeypatch):
    # fourier_profile builds k = 1..K_max from its checked K_max, so no k
    # is checked again; the other check is the tail bound's start K
    names = []
    check_int = fr._check_int

    def counting(name, *args, **kwargs):
        names.append(name)
        return check_int(name, *args, **kwargs)

    monkeypatch.setattr(fr, "_check_int", counting)
    fr.fourier_profile(2.0, 0.5, 201)
    assert names == ["K_max", "K"]


def _fill_work(start, lev, p, engines=1):
    """What one fill pass of ``engines`` engines at p from node ``start``
    through level ``lev`` evaluates, as _engine_counter records it: one
    power matrix over the distinct series nodes at or above the cut, then
    one tail sum per engine over the distinct tail nodes."""
    series, tail, _ = fr._fill_nodes(start, lev)
    above = series.size - series.searchsorted(el._SERIES_ROUNDS_AWAY ** (1.0 / p))
    return [("powers", above)] + [("_tail", tail.size)] * engines


def test_cold_profile_fills_first_levels_in_one_call(monkeypatch):
    evaluated, inversions = _engine_counter(monkeypatch)
    cuts = quad._ts_nodes()[3]
    assert cuts[fr._FILL_LEVEL + 1] == 391
    series, tail, back = fr._fill_nodes(0, fr._FILL_LEVEL)
    # 297 distinct nodes: the 95 that round to z = 1 are one
    assert (series.size, tail.size, back.size) == (200, 97, 391)
    first = _fill_work(0, fr._FILL_LEVEL, 2.5)
    assert 0 < first[0][1] < series.size
    fr.fourier_profile(2.5, 0.45, 21)
    # levels 0..5 in one pass over their distinct nodes, no w_p call and
    # no sn_p at all
    assert evaluated == first
    assert el._engine(2.5, 0.45).x1.size == 391
    evaluated.clear()
    el._engine.cache_clear()
    fr.fourier_profile(2.5, 0.45, 201)
    # levels 0..5 in one pass, then levels 6 and 7 one pass each
    assert evaluated == first + _fill_work(cuts[6], 6, 2.5) + _fill_work(cuts[7], 7, 2.5)
    assert el._engine(2.5, 0.45).x1.size == cuts[8] == 1561
    evaluated.clear()
    el._engine.cache_clear()
    fr.tau_k(2.5, 0.45, 1)
    assert evaluated == first
    assert inversions == []


def test_cold_set_fills_with_one_power_matrix(monkeypatch):
    # the engines of a set share p, so one pass serves them all: one
    # power matrix, and one tail sum per distinct modulus
    evaluated, inversions = _engine_counter(monkeypatch)
    mus = [0.1, 0.3, 0.5, 0.7, 0.9, 0.3]
    fr.tau_k(1.5, mus, np.arange(1, 22))
    assert evaluated == _fill_work(0, fr._FILL_LEVEL, 1.5, engines=5)
    assert inversions == []


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 6.0, 50.0])
def test_fill_has_the_bits_of_wp_many_node_by_node(p):
    # engines whose series differ in length (at p = 50 every series has
    # two terms), filled from the start through level 5, then level 6
    # alone, then levels 7 and 8 in one pass; each x1 must be w_p / (2 K_p)
    # as wp_many gives it on each node alone
    nodes, _, _, cuts = quad._ts_nodes(8)
    engines = [el._SnpEngine(p, mu) for mu in (0.0, 0.5, 1.0 - 1e-15)]
    assert len({eng._series.size for eng in engines}) > 1 or p == 50.0
    for start, lev in [(0, 5), (cuts[6], 6), (cuts[7], 8)]:
        fr._fill(engines, start, lev)
    for eng in engines:
        with np.errstate(divide="ignore"):
            want = [eng.wp_many(z) / (2.0 * eng.K) for z in nodes[: cuts[9]].tolist()]
        assert eng.x1.tobytes() == np.array(want).tobytes(), (p, eng.mu)


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 6.0, 50.0, 1000.0])
def test_wp_is_z_at_every_table_node_below_the_cut(p):
    # on the series side, z <= 0.6, where z**p < _SERIES_ROUNDS_AWAY the
    # series sum rounds away, which the fill takes as w_p = z without a
    # sum; wp_many sums it
    nodes = np.sort(quad._ts_nodes()[0])
    below = nodes[(nodes <= 0.6) & (nodes < el._SERIES_ROUNDS_AWAY ** (1.0 / p))]
    assert np.all(np.power(below, p) < 2.0**-56) and below.size > 100
    for mu in (0.0, 0.5, 1.0 - 1e-15):
        assert np.array_equal(el._SnpEngine(p, mu).wp_many(below), below), mu


def test_grouped_fill_matches_per_level_fill():
    # the one-call fill of the first levels gives, bit for bit, what one
    # w_p call per level gives, since w_p treats each point alone
    nodes, _, _, cuts = quad._ts_nodes()
    rng = np.random.default_rng(2024)
    for p in (1.2, 2.0, 3.5, 6.0):
        for mu in rng.uniform(0.0, 0.999, 2).tolist() + [0.999]:
            el._engine.cache_clear()
            eng = el._engine(p, mu)
            eng.x1 = np.concatenate(
                [
                    eng.wp_many(nodes[cuts[lev] : cuts[lev + 1]]) / (2.0 * eng.K)
                    for lev in range(9)
                ]
            )
            queries = [
                lambda: fr._sn_l2(p, mu),
                lambda: fr.tau_k(p, mu, 1),
                lambda: fr.tau_k(p, mu, np.arange(1, 22)),
                lambda: fr.tau_k(p, mu, np.arange(1, 202)),
            ]
            warm = [q() for q in queries]
            for q, want in zip(queries, warm):
                el._engine.cache_clear()
                assert np.array_equal(q(), want), (p, mu)


def _driver_tally(monkeypatch):
    """Wrap fourier's driver so that every F call records its level and
    the number of integrand values it returns (live rows times nodes)."""
    calls = []
    drive = fr._tanh_sinh

    def wrapped(F, *args, **kwargs):
        def G(lev, x, cx, rows):
            out = F(lev, x, cx, rows)
            calls.append((lev, np.size(out)))
            return out

        return drive(G, *args, **kwargs)

    monkeypatch.setattr(fr, "_tanh_sinh", wrapped)
    return calls


def test_tau_k_rows_cost_their_own_levels_only(monkeypatch):
    # a batch of (mu, k) evaluates each row in the block of levels 0-4,
    # then through its own stop level and no further, so it costs what the
    # rows cost one by one, each of them paying for the block alone too
    calls = _driver_tally(monkeypatch)
    block = quad._ts_nodes()[3][quad._BLOCK_LEVEL + 1]
    for mus, ks in [([0.5], list(range(1, 22, 2))), ([0.5, 0.9, 0.1], [1, 2, 9, 151])]:
        calls.clear()
        batch = fr.tau_k(2.0, mus, ks)
        assert len([c for c in calls if c[0] == quad._BLOCK_LEVEL]) == 1
        total = sum(n for _, n in calls)
        alone, stops = 0, set()
        for i, mu in enumerate(mus):
            for j, k in enumerate(ks):
                calls.clear()
                assert fr.tau_k(2.0, mu, k) == batch[i, j]
                assert calls[0] == (quad._BLOCK_LEVEL, block)
                stops.add(calls[-1][0])
                alone += sum(n for _, n in calls)
        assert len(stops) > 1
        assert total == alone


def test_certificate_is_one_driver_call_per_chunk(monkeypatch):
    # every tau_k of a modulus set comes from one tau_k call, whose rows
    # go through one driver call per chunk of at most _ROWS rows; the
    # report is what one call per modulus gives
    ms = ct.ModulusSet.explicit([0.2, 0.6, 0.9])
    ks = np.arange(1, 22, 2)
    taus = np.array([fr.tau_k(1.5, mu, ks) for mu in ms.values])
    calls = _driver_tally(monkeypatch)
    drives = lambda: sum(lev == quad._BLOCK_LEVEL for lev, _ in calls)
    rep = ct.certify_invertibility(1.5, ms, 21)
    assert drives() == 1
    assert rep.rhs == float(np.min(taus[:, 0]))
    assert rep.lhs == math.fsum(np.max(np.abs(taus[:, 1:]), axis=0))
    calls.clear()
    monkeypatch.setattr(fr, "_ROWS", 2 * ks.size)
    assert ct.certify_invertibility(1.5, ms, 21) == rep
    assert drives() == 2


def test_rho_coeff_values():
    for q in (0.1, 0.5, 0.9):
        assert fr.rho_coeff(q, 0) == 1.0
    assert abs(fr.rho_coeff(0.5, 1) - 0.25 / 0.875) < 1e-12
    with pytest.raises(DomainError):
        fr.rho_coeff(0.0, 1)
    with pytest.raises(DomainError):
        fr.rho_coeff(0.5, -1)
    with pytest.raises(DomainError):
        fr.rho_coeff(0.5, True)


def test_rho_sum_at_q0_is_one():
    q0 = qt.solve_q0()
    total = sum(fr.rho_coeff(q0, j) for j in range(1, 200))
    assert abs(total - 1.0) < 1e-4


def test_tail_bound_formula_and_validation():
    K = el.kp(2.0, 0.5)
    want = 4.0 * math.sqrt(2.0) * K / math.pi**2 / (2.0 * (5 - 2))
    assert abs(fr.tau_tail_bound(2.0, K, 5) - want) < 1e-15
    for bad in (4, 1, -3, 2):
        with pytest.raises(DomainError):
            fr.tau_tail_bound(2.0, K, bad)
    with pytest.raises(DomainError):
        fr.tau_tail_bound(2.0, 0.0, 5)
    with pytest.raises(DomainError):
        fr.tau_tail_bound(1.0, K, 5)


def test_tail_bound_dominates_exact_tail_constant():
    # T(3) = 1/2 exceeds the exact sum pi^2/8 - 1 of k^-2 over odd k >= 3
    K = el.kp(2.0, 0.5)
    paper_tail = 4.0 * math.sqrt(2.0) * K / math.pi**2 * (math.pi**2 / 8.0 - 1.0)
    assert fr.tau_tail_bound(2.0, K, 3) >= paper_tail


def test_tail_bound_decreases_to_zero():
    vals = [fr.tau_tail_bound(2.0, 1.0, K) for K in range(3, 44, 2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0
    assert fr.tau_tail_bound(2.0, 1.0, 20001) < 1e-4


def test_tail_bound_actually_dominates_computed_tail():
    # sum of computed |tau_k| for odd k in [K, 41] stays below the bound
    p, mu = 2.0, 0.5
    K_p = el.kp(p, mu)
    for start in (5, 11):
        partial = sum(abs(fr.tau_k(p, mu, k)) for k in range(start, 43, 2))
        assert partial <= fr.tau_tail_bound(p, K_p, start)


def test_g_eval_basics():
    assert fr.g_eval(0.3, 0.0) == 0.0
    # x = 1/2 collapses to the alternating series
    q = 0.4
    direct = (1.0 - q) * math.sqrt(2.0) * math.fsum(
        (-1.0) ** j * q**j / (1.0 - q ** (2 * j + 1)) for j in range(200)
    )
    assert abs(fr.g_eval(q, 0.5) - direct) < 1e-14
    with pytest.raises(DomainError):
        fr.g_eval(1.0, 0.3)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            fr.g_eval(0.5, x)


def test_g_tail_bound_controls_truncation():
    # g_eval sums 200 terms; the rest is at most sqrt(2) q^200 / (1 - q^401),
    # which only nomes near 1 make larger than the rounding
    js = np.arange(4000)
    for q in (0.9, 0.95, 0.98):
        bound = math.sqrt(2.0) * q**200 / (1.0 - q**401)
        for x in (0.21, 0.77):
            terms = q**js / (1.0 - q ** (2 * js + 1)) * np.sin((2 * js + 1) * math.pi * x)
            full = (1.0 - q) * math.sqrt(2.0) * math.fsum(terms)
            assert abs(fr.g_eval(q, x) - full) <= bound + 1e-14


def test_eigenfunction_reconstruction_scale():
    # u_n(x) = (4 pi n sqrt(q)/(1-q)) g(q, n x) for the p=2 eigenpair
    # with modulus mu(q)
    q = 0.3
    mu = qt.modulus_from_nome(q)
    rng = np.random.default_rng(7)
    for n in (1, 2):
        e = eg.eigenpair(2.0, mu, n)
        scale = 4.0 * math.pi * n * math.sqrt(q) / (1.0 - q)
        for x in rng.uniform(0.0, 1.0, 20):
            lhs = scale * fr.g_eval(q, n * float(x))
            rhs = eg.eigenfunction_eval(e, float(x))
            assert abs(lhs - rhs) < 1e-7


@pytest.mark.xfail(
    strict=True,
    reason="the scale 2**(5/2) pi n sqrt(q)/(1-q) overshoots the "
    "reconstruction by a factor sqrt(2); the matching scale is "
    "4 pi n sqrt(q)/(1-q)",
)
def test_eigenfunction_reconstruction_five_halves_scale():
    q = 0.3
    mu = qt.modulus_from_nome(q)
    e = eg.eigenpair(2.0, mu, 1)
    scale = 2.0**2.5 * math.pi * math.sqrt(q) / (1.0 - q)
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1.0, 20):
        lhs = scale * fr.g_eval(q, float(x))
        rhs = eg.eigenfunction_eval(e, float(x))
        assert abs(lhs - rhs) < 1e-7


def test_parseval_sanity():
    p, mu = 3.0, 0.6
    prof = fr.fourier_profile(p, mu, 201)
    ssum = math.fsum(c * c for c in prof.coefficients)
    l2 = fr._sn_l2(p, mu)
    assert ssum <= 2.0 * l2 + 1e-8
    # true equality trend: the partial sums approach the L2 norm from below
    gaps = []
    for kmax in (21, 51, 201):
        pr = fr.fourier_profile(p, mu, kmax)
        gaps.append(l2 - math.fsum(c * c for c in pr.coefficients))
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-7


def test_fourier_profile_invariants():
    prof = fr.fourier_profile(2.0, 0.5, 41)
    assert len(prof.coefficients) == 41 and prof.K_max == 41
    assert prof.coefficients[0] >= fr._TAU1_FLOOR - 1e-10
    K = el.kp(2.0, 0.5)
    for k in range(3, 42, 2):
        bound = 4.0 * math.sqrt(2.0) * K / (math.pi**2 * k**2)
        assert abs(prof.coefficients[k - 1]) <= bound + 1e-10
    for k in range(2, 42, 2):
        assert abs(prof.coefficients[k - 1]) < 1e-10
    assert prof.tail_bound > 0.0
    with pytest.raises(DomainError):
        fr.fourier_profile(2.0, 0.5, 0)
    with pytest.raises(DomainError):
        fr.fourier_profile(2.0, 0.5, True)
