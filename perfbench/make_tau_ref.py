"""Write tau_ref.json: 30-digit tau_1 and tau_3 of the tau_warm pool at p != 2.

For odd k, symmetry about x = 1/2, the substitution 2 K x = w_p(z) on
the rising quarter and one integration by parts give

    tau_k = 2 sqrt2 / (k pi) * integral_0^1 cos(k pi w_p(z) / (2 K)) dz,

with w_p from the oracle's 30-digit quadrature.  The same formula is
first checked at p = 2 against the Jacobi closed form.  Takes about twenty
seconds; run from the repository root:

    python3 perfbench/make_tau_ref.py
"""

from __future__ import annotations

import json
import os
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import Oracle  # noqa: E402
from workloads import POOL_MU, POOL_P  # noqa: E402


def taus(orc: Oracle, p: float, mu: float, ks) -> dict:
    K = orc.K(p, mu)
    memo: dict = {}

    def w(z):
        if z not in memo:
            head, tail = orc.w_parts(p, mu, z)
            memo[z] = head if tail is None else K - tail
        return memo[z]

    out = {}
    for k in ks:
        integral = mpmath.quad(lambda z: mpmath.cos(k * mpmath.pi * w(z) / (2 * K)), [0, 0.9, 1])
        out[k] = 2 * mpmath.sqrt(2) / (k * mpmath.pi) * integral
    return out


def main() -> int:
    orc = Oracle()
    for mu in POOL_MU:
        got = taus(orc, 2.0, mu, (1, 3))
        for k, val in got.items():
            ref = orc.tau_p2(mu, k)
            if abs(float(val) - ref) > 1e-14:
                sys.exit(f"p=2 self-check failed: mu={mu} k={k}: {val} vs {ref}")
    values = []
    for p in POOL_P:
        if p == 2.0:
            continue
        for mu in POOL_MU:
            for k, val in taus(orc, p, mu, (1, 3)).items():
                values.append({"p": p, "mu": mu, "k": k, "tau": float(val), "digits": mpmath.nstr(val, 25)})
                print(p, mu, k, mpmath.nstr(val, 25), flush=True)
    doc = {
        "about": "tau_k of the tau_warm pool at p != 2, 30-digit mpmath; made by make_tau_ref.py",
        "values": values,
    }
    with open(os.path.join(HERE, "tau_ref.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
