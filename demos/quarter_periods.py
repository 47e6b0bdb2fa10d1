"""Quarter periods K_p(mu) across exponents and moduli.

K_p(0) has the closed form pi / (p sin(pi/p)); as mu -> 1 the period
diverges for p <= 2 and saturates for p > 2.  The quadrature route and
the hypergeometric series are independent, so their agreement is a live
cross-check.
"""

import math

import pelliptic as pl

print("closed form at mu = 0:")
for p in (1.5, 2.0, 3.0, 5.0):
    exact = math.pi / (p * math.sin(math.pi / p))
    print(f"  K_{p}(0) = {pl.kp(p, 0.0):.15f}   pi/(p sin(pi/p)) = {exact:.15f}")

print()
print("growth toward mu = 1 (note the p-dependence):")
for p in (1.5, 2.0, 3.0):
    row = "  ".join(f"{pl.kp(p, mu):10.6f}" for mu in (0.5, 0.9, 0.99, 1.0 - 1e-9))
    print(f"  p = {p}:  {row}")

print()
print("independent routes, same numbers:")
for p, mu in ((2.0, 0.5), (3.0, 0.7), (1.3, 0.6)):
    quad = pl.kp_quadrature(p, mu)
    series = pl.kp_via_2f1(p, mu)
    print(
        f"  K_{p}({mu}): quadrature {quad.value:.15f} "
        f"(est err {quad.abs_error_estimate:.1e}), series {series:.15f}, "
        f"diff {abs(quad.value - series):.1e}"
    )

print()
print("p close to 1, where K_p grows like 1/(p-1), is the same quadrature:")
for p, mu in ((1.02, 0.5), (1.001, 0.5)):
    quad = pl.kp_quadrature(p, mu)
    series = pl.kp_via_2f1(p, mu)
    print(
        f"  K_{p}({mu}): quadrature {quad.value:.12f}, series {series:.12f}, "
        f"rel diff {abs(quad.value - series) / series:.1e}"
    )
