"""The sharp p = 2 threshold: q_0, mu_0, and the theta-series rebuild.

At p = 2 the invertibility question has an exact answer in terms of the
nome.  The critical nome q_0 solves S(q) (1 - q) = 1 with S the odd
Lambert sum, the corresponding modulus mu_0 sits within machine epsilon
of 1, and below the threshold the rho-weights form a convex combination.
The g-series reproduces the p = 2 eigenfunction up to an explicit scale.
"""

import numpy as np

import pelliptic as pl

q0 = pl.solve_q0()
m0 = pl.mu0()
print(f"q_0  = {q0:.16f}")
print(f"mu_0 = {m0:.16f}  (1 - mu_0 = {1.0 - m0:.3e})")
print(f"check: (1 - q_0) S(q_0) = {(1.0 - q0) * pl.odd_lambert_sum(q0):.16f}")

print()
print("rho-weights at a few nomes (they sum to 1 exactly at q_0):")
for q in (0.3, 0.6, q0):
    total = sum(pl.rho_coeff(q, j) for j in range(1, 200))
    print(f"  q = {q:.6f}: sum_j rho_j = {total:.12f}")

print()
print("Lambert sum against the q-digamma route:")
for q in (0.2, 0.5, 0.8):
    via_psi = pl.lambert_via_digamma(q)
    print(f"  q = {q}: L = {pl.lambert_L(q):.15f}, digamma route {via_psi:.15f}")

print()
print("rebuilding the p = 2 eigenfunction from the g-series:")
mu = 0.7
q = pl.nome_from_modulus(mu)
e = pl.eigenpair(2.0, mu, 1)
xs = np.linspace(0.05, 0.95, 7)
scale = 4.0 * np.pi * np.sqrt(q) / (1.0 - q)
worst = 0.0
for x in xs:
    lhs = e.amplitude * pl.snp(2.0, mu, 2.0 * pl.kp(2.0, mu) * x)
    rhs = scale * pl.g_eval(q, x)
    worst = max(worst, abs(lhs - rhs))
    print(f"  x = {x:.2f}: phi_1 = {lhs:+.12f}, series {rhs:+.12f}")
print(f"  worst gap {worst:.3e} with scale 4 pi sqrt(q)/(1 - q) = {scale:.12f}")
