"""Reference values that never call pelliptic.

* p = 2: scipy.  ``ellipk``/``ellipkm1`` give K and the nome
  q = exp(-pi K'/K), ``ellipj`` gives sn, and the Jacobi Fourier series
  gives tau_(2j+1) = sqrt2 pi / (mu K) q^(j+1/2) / (1 - q^(2j+1)).
* p != 2: mpmath at 30 digits.  K_p = pi / (p sin(pi/p))
  2F1(1/p, 1/p; 1; mu^p); w_p by tanh-sinh quadrature, in the forward
  variable below z = 0.9 and above it as K_p minus the tail, written in
  the variable r with r^m = 1 - s^p, m = p/(p-1), where the integrand is
  smooth; tau_1 and tau_3 of the tau_warm pool come from ``tau_ref.json``
  (see ``make_tau_ref.py``).
* mu0, the modulus of the sharp p = 2 nome, from mpmath root finding on
  (1-q) sum q^n / (1 - q^(2n+1)) = 1 and Jacobi theta constants.

Every comparison adds one check and records the error
``abs(x - ref) / max(1, abs(ref))``; bound checks (a residual under its
limit, a coefficient above its floor) add a check with no error.
"""

from __future__ import annotations

import json
import math
import os

import mpmath
from scipy import special

mp = mpmath.mp
HERE = os.path.dirname(os.path.abspath(__file__))

FIRSTCOND_RHS = 8.0 / (math.pi**2 - 8.0)
TAU1_FLOOR = 4.0 * math.sqrt(2.0) / math.pi**2
SLACK = 1e-9  # the certificates' numeric slack, from their documentation

# tolerances, from the accuracy each routine documents
TOL_K = 1e-11  # kp: 1e-13 absolute, 1e-11 on the last rung of its ladder
TOL_SN = 1e-11  # sn_p inversion: about 1e-12 on the value
TOL_TAU = 1e-10  # tau_k: 1e-11 per coefficient; sums of ten of them
TOL_MU = 1e-9  # firstcond_boundary: bracket width 1e-10
TOL_Q = 1e-12  # nome inversion: bracket width 1e-13
TOL_MU0 = 1e-15


def tau_tail(sup_k: float, K: int) -> float:
    """The documented tail bound over odd k > K: 4 sqrt2 sup K_p / (pi^2 2K)."""
    return 4.0 * math.sqrt(2.0) * sup_k / math.pi**2 / (2.0 * K)


def verdicts(lhs: float, rhs: float, tail: float, fuzz: float) -> set:
    """Verdicts consistent with the documented rule when lhs and rhs are
    known to within fuzz: PASS if rhs - lhs > tail + slack, FAIL if below
    -(tail + slack), otherwise INCONCLUSIVE."""
    margin = rhs - lhs
    edge = tail + SLACK
    out = set()
    if margin + fuzz > edge:
        out.add("PASS")
    if margin - fuzz < -edge:
        out.add("FAIL")
    if abs(margin) - fuzz <= edge:
        out.add("INCONCLUSIVE")
    return out


class Oracle:
    def __init__(self):
        mp.dps = 30
        self.checks = 0
        self.err_max = 0.0
        self._k: dict = {}
        self._mu0 = None
        self._tau: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def close(self, what: str, x: float, ref, tol: float, fails: list) -> None:
        self.checks += 1
        err = float(abs(mpmath.mpf(x) - ref) / max(1, abs(ref)))
        self.err_max = max(self.err_max, err)
        if not err <= tol:
            fails.append(f"{what}: {x!r} vs {float(ref)!r} (err {err:.3e} > {tol:.0e})")

    def holds(self, what: str, ok: bool, fails: list) -> None:
        self.checks += 1
        if not ok:
            fails.append(what)

    # -- reference values --------------------------------------------------

    def K(self, p: float, mu: float):
        key = (p, mu)
        if key not in self._k:
            if p == 2.0:
                self._k[key] = mpmath.mpf(float(special.ellipk(mu * mu)))
            else:
                P, M = mpmath.mpf(p), mpmath.mpf(mu)
                pref = mpmath.pi / (P * mpmath.sin(mpmath.pi / P))
                self._k[key] = pref * mpmath.hyp2f1(1 / P, 1 / P, 1, M**P)
        return self._k[key]

    def dK_dmu(self, p: float, mu: float):
        P, M = mpmath.mpf(p), mpmath.mpf(mu)
        a = 1 / P
        pref = mpmath.pi / (P * mpmath.sin(mpmath.pi / P))
        return pref * a * a * mpmath.hyp2f1(a + 1, a + 1, 2, M**P) * P * M ** (P - 1)

    def nome(self, mu: float) -> float:
        m = mu * mu
        return math.exp(-math.pi * float(special.ellipkm1(m)) / float(special.ellipk(m)))

    def tau_p2(self, mu: float, k: int) -> float:
        """Jacobi closed form of tau_k at p = 2 (odd k)."""
        m = mu * mu
        K = float(special.ellipk(m))
        q = math.exp(-math.pi * float(special.ellipkm1(m)) / K)
        j = (k - 1) // 2
        return math.sqrt(2.0) * math.pi / (mu * K) * q ** (j + 0.5) / (1.0 - q ** (2 * j + 1))

    def tau_pool(self, p: float, mu: float, k: int) -> float:
        if not self._tau:
            with open(os.path.join(HERE, "tau_ref.json")) as fh:
                for r in json.load(fh)["values"]:
                    self._tau[(r["p"], r["mu"], r["k"])] = r["tau"]
        return self._tau[(p, mu, k)]

    def mu0(self):
        if self._mu0 is None:
            def s_minus_one(q):
                total = mpmath.nsum(lambda n: q**n / (1 - q ** (2 * n + 1)), [1, mpmath.inf])
                return (1 - q) * total - 1

            q0 = mpmath.findroot(s_minus_one, (mpmath.mpf("0.5"), mpmath.mpf("0.95")), solver="anderson")
            ratio = mpmath.jtheta(2, 0, q0) / mpmath.jtheta(3, 0, q0)
            self._mu0 = ratio**2
        return self._mu0

    def s_sum(self, q: float):
        Q = mpmath.mpf(q)
        return (1 - Q) * mpmath.nsum(lambda n: Q**n / (1 - Q ** (2 * n + 1)), [1, mpmath.inf])

    def w_parts(self, p: float, mu: float, z):
        """(w_p(z), None) below z = 0.9, else (None, K_p - w_p(z)), both
        from 30-digit quadrature with smooth integrands."""
        P, M, Z = mpmath.mpf(p), mpmath.mpf(mu), mpmath.mpf(z)
        if Z <= mpmath.mpf("0.9"):
            f = lambda s: ((1 - s**P) * (1 - (M * s) ** P)) ** (-1 / P)  # noqa: E731
            return mpmath.quad(f, [0, Z]), None
        m = P / (P - 1)
        eps = 1 - M**P
        f = lambda r: (1 - r**m) ** (1 / P - 1) * (eps + M**P * r**m) ** (-1 / P)  # noqa: E731
        return None, mpmath.quad(f, [0, (1 - Z**P) ** (1 / m)]) / (P - 1)

    def sn_error(self, p: float, mu: float, K, x: float, z: float):
        """Forward error of z as sn_p(2 K x) for x in (0, 1), first period.

        With u = 2 K x folded into [0, K], the exact value z* solves
        w_p(z*) = u, or, near the top, K - w_p(z*) = K - u = K |1 - 2x|.
        One Newton step from z gives z - z* to first order.
        """
        P, M, Z, X = mpmath.mpf(p), mpmath.mpf(mu), mpmath.mpf(z), mpmath.mpf(x)
        deriv = ((1 - Z**P) * (1 - (M * Z) ** P)) ** (-1 / P)
        w, tail = self.w_parts(p, mu, z)
        if tail is None:
            resid = w - K * (1 - abs(1 - 2 * X))
        else:
            resid = K * abs(1 - 2 * X) - tail
        return resid / deriv

    # -- per-workload checks -----------------------------------------------

    def check(self, workload: str, task: dict, out: dict) -> list:
        fails: list = []
        getattr(self, "_check_" + workload)(task, out, fails)
        return fails

    def _check_invert(self, p, mus, K, taus, rep, fails):
        """certify_invertibility against the reference tau_k in ``taus``,
        keyed (mu, k); whatever is missing is checked by bounds only."""
        sup_k = max(self.K(p, mu) for mu in mus)
        tail = tau_tail(float(sup_k), K)
        self.close("invert.tail", rep["tail"], tail, TOL_TAU, fails)
        if all((mu, 1) in taus for mu in mus):
            rhs = min(taus[(mu, 1)] for mu in mus)
            self.close("invert.rhs", rep["rhs"], rhs, TOL_TAU, fails)
        else:
            self.holds("invert.rhs >= tau_1 floor", rep["rhs"] >= TAU1_FLOOR - TOL_TAU, fails)
        odd = range(3, K + 1, 2)
        if all((mu, k) in taus for mu in mus for k in odd):
            lhs = math.fsum(max(abs(taus[(mu, k)]) for mu in mus) for k in odd)
            self.close("invert.lhs", rep["lhs"], lhs, TOL_TAU, fails)
            expected = verdicts(lhs, rhs, tail, TOL_TAU)
        else:
            if all((mu, 3) in taus for mu in mus):
                lhs3 = max(abs(taus[(mu, 3)]) for mu in mus)
                self.holds("invert.lhs >= max|tau_3|", rep["lhs"] >= lhs3 - TOL_TAU, fails)
            expected = verdicts(rep["lhs"], rep["rhs"], rep["tail"], 0.0)
        self.holds(f"invert.verdict {rep['verdict']} not in {sorted(expected)}",
                   rep["verdict"] in expected, fails)

    def _p2_taus(self, mus, K):
        return {(mu, k): self.tau_p2(mu, k) for mu in mus for k in range(1, K + 1, 2)}

    def _check_pipeline_cold(self, task, out, fails):
        p, mus, xs = task["p"], tuple(task["mus"]), task["xs"]
        mu = min(mus)
        K = self.K(p, mu)
        amp = 2 ** ((mpmath.mpf(p) + 1) / p) * mu * K
        lam = 2 ** mpmath.mpf(p) * (1 + mpmath.mpf(mu) ** p) * K**p
        self.close("amplitude", out["amplitude"], amp, TOL_SN, fails)
        self.close("lambda", out["lam"], lam, TOL_SN, fails)
        self.holds("sign", out["sign"] == 1, fails)
        self.holds(
            f"first integral residual {out['residual']:.3e} above 1e-6 lam^2",
            out["residual"] <= 1e-6 * float(lam) ** 2,
            fails,
        )
        if p == 2.0:
            for x, phi in zip(xs, out["phis"]):
                sn = special.ellipj(2.0 * float(K) * x, mu * mu)[0]
                self.close(f"phi({x})", phi, amp * sn, TOL_SN, fails)
        else:
            x, phi = xs[0], out["phis"][0]
            z = phi / out["amplitude"]
            dz = self.sn_error(p, mu, K, x, z)
            self.close(f"phi({x})", phi, amp * (mpmath.mpf(z) - dz), TOL_SN, fails)
        fc = out["firstcond"]
        sup_k = max(self.K(p, m) for m in mus)
        self.close("firstcond.lhs", fc["lhs"], sup_k, TOL_K, fails)
        self.close("firstcond.rhs", fc["rhs"], FIRSTCOND_RHS, TOL_MU0, fails)
        ok = fc["verdict"] in verdicts(float(sup_k), FIRSTCOND_RHS, 0.0, TOL_K * float(sup_k))
        self.holds(f"firstcond.verdict {fc['verdict']}", ok, fails)
        taus = self._p2_taus(mus, 21) if p == 2.0 else {}
        self._check_invert(p, mus, 21, taus, out["invert"], fails)

    def _check_tau_warm(self, task, out, fails):
        p, mus, K = task["p"], tuple(task["mus"]), task["K"]
        if p == 2.0:
            taus = self._p2_taus(mus, K)
        else:
            taus = {(mu, k): self.tau_pool(p, mu, k) for mu in mus for k in (1, 3)}
        self._check_invert(p, mus, K, taus, out["invert"], fails)

    def _check_kp_scan(self, task, out, fails):
        rows = out["rows"]
        ops, mus = sorted(task["ops"]), sorted(task["tile_mus"])
        want = [(op, mu) for op in ops for mu in mus]
        self.holds("region rows", [(r[0], r[1]) for r in rows] == want, fails)
        for r in rows:
            self.holds("region inside flag", r[3] == int(r[2] < FIRSTCOND_RHS), fails)
        # two corners per tile against 30-digit K_p: the last row is the
        # tile's p nearest 1 at its largest mu, the hardest point
        for op, mu, val, _inside in (rows[0], rows[-1]):
            ref = self.K(1.0 / op, mu)
            self.close(f"region K_p(1/{op}, {mu})", val, ref, TOL_K, fails)
        pb, mub = task["p_boundary"], out["boundary"]
        dmu = (self.K(pb, mub) - FIRSTCOND_RHS) / self.dK_dmu(pb, mub)
        self.close(f"firstcond_boundary({pb})", mub, mpmath.mpf(mub) - dmu, TOL_MU, fails)
        env = out["cli"]
        self.holds("cli exit code", out["cli_exit"] == 0, fails)
        sup = max(task["sharp_mus"])
        self.holds("cli lhs", float(env.get("lhs", "nan")) == sup, fails)
        mu0 = self.mu0()
        self.close("cli rhs (mu0)", float(env["rhs"]), mu0, TOL_MU0, fails)
        self.holds("cli verdict", env.get("verdict") == "PASS", fails)
        caveat = env.get("caveats", "")
        try:
            s_txt, q_txt = caveat.split(";")[0].split(" at ")
            s_val = float(s_txt.split("=")[1])
            q_val = float(q_txt.split("=")[1])
        except (ValueError, IndexError):
            self.holds(f"cli caveats unparsable: {caveat!r}", False, fails)
            return
        q_ref = self.nome(sup)
        self.close("cli nome", q_val, q_ref, TOL_Q, fails)
        self.close("cli S(q)", s_val, self.s_sum(q_ref), 10 * TOL_Q, fails)

