"""The generalized sine amplitude sn_p: symmetry, periodicity, slopes.

sn_p is odd, 4K_p-periodic, rises from 0 to 1 over one quarter period,
and at p = 2 coincides with the classical Jacobi sn.  For p > 2 the
second derivative blows up where the profile touches +-1, so derivative
evaluation excludes a small margin around odd multiples of K_p.
"""

import numpy as np

import pelliptic as pl
from pelliptic.errors import SingularPoint

p, mu = 3.0, 0.6
K = pl.kp(p, mu)
print(f"p = {p}, mu = {mu}, K_p = {K:.12f}")

print()
print("one full period, 13 samples:")
ys = np.linspace(0.0, 4.0 * K, 13)
vals = pl.snp(p, mu, ys)
for y, v in zip(ys, vals):
    bar = "#" * int(round(20.0 * (v + 1.0) / 2.0))
    print(f"  sn_p({y:8.4f}) = {v:+.12f}  |{bar}")

print()
print("oddness and periodicity at machine precision:")
y = 0.37 * K
print(f"  sn_p(y) + sn_p(-y)   = {pl.snp(p, mu, y) + pl.snp(p, mu, -y):.2e}")
print(f"  sn_p(y+4K) - sn_p(y) = {pl.snp(p, mu, y + 4.0 * K) - pl.snp(p, mu, y):.2e}")

print()
print("classical limit at p = 2 against the AGM evaluator:")
for y in (0.4, 1.1, 2.3):
    a = pl.snp(2.0, 0.7, y)
    b = pl.agm_jacobi_sn(y, 0.7)
    print(f"  y = {y}: snp {a:.15f}  agm {b:.15f}  diff {abs(a - b):.1e}")

print()
print("derivative near the peak (p > 2 is singular exactly at K_p):")
for frac in (0.9, 0.99, 0.999):
    d = pl.snp_deriv(p, mu, frac * K)
    print(f"  sn_p'({frac:.3f} K) = {d:.6e}")
try:
    pl.snp_second_deriv(p, mu, K)
except SingularPoint as exc:
    print(f"  sn_p''(K) raises SingularPoint: {exc}")
