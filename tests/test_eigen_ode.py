"""An ODE oracle for the eigenpairs, independent of K_p, w_p and sn_p.

The first eigenfunction solves (psi)' = (p-1) sgn(phi) (|phi|**(2p-1)
- lam |phi|**(p-1)) with psi = |phi'|**(p-2) phi', so phi' = sgn(psi)
|psi|**(1/(p-1)).  Started at the crest x = 1/2 from phi = amplitude,
psi = 0, and integrated back to x = 0 by scipy's DOP853, it meets the
library's eigenpair only through the amplitude and lam it starts from:
it must reach phi(0) = 0 with slope phi'(0) = c, and pass through
eigenfunction_eval on the way.

Measured with scipy 1.17.1 at rtol 1e-13 over the grid below (10 solves,
about 0.1 s of CPU): |phi(0)| / amplitude <= 3.8e-11, |phi'(0) / c - 1|
<= 5.5e-12, and the dense solution within 1.0e-11 of eigenfunction_eval,
relative to the amplitude, at 7 seeded x in [0.05, 0.5].  The bounds
are those figures with some room, as the solver's error, not the
library's, sets them.
"""

import random

import numpy as np
import pytest

import pelliptic.eigen as eg

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp


def _solve(e):
    """DOP853 from the crest x = 1/2 back to x = 0: the dense solution of
    (phi, psi)."""
    p, amp, lam = e.p, e.amplitude, e.lam

    def rhs(x, y):
        phi, psi = y
        dphi = np.sign(psi) * abs(psi) ** (1.0 / (p - 1.0))
        dpsi = (p - 1.0) * np.sign(phi) * (
            abs(phi) ** (2.0 * p - 1.0) - lam * abs(phi) ** (p - 1.0)
        )
        return [dphi, dpsi]

    sol = solve_ivp(
        rhs, (0.5, 0.0), [amp, 0.0], method="DOP853",
        rtol=1e-13, atol=1e-14 * amp, dense_output=True,
    )
    assert sol.success
    return sol


@pytest.mark.parametrize("mu", [0.5, 0.99])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
def test_first_eigenpair_solves_its_ode_from_the_crest(p, mu):
    e = eg.eigenpair(p, mu, 1)
    sol = _solve(e)
    phi0, psi0 = sol.y[:, -1]
    dphi0 = np.sign(psi0) * abs(psi0) ** (1.0 / (p - 1.0))
    assert abs(phi0) <= 1e-10 * e.amplitude
    assert abs(dphi0 / e.c - 1.0) <= 2e-11
    rng = random.Random(15)
    for x in [rng.uniform(0.05, 0.5) for _ in range(7)]:
        phi = sol.sol(x)[0]
        assert abs(phi - eg.eigenfunction_eval(e, x)) <= 4e-11 * e.amplitude, x
