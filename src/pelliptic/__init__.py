"""Generalized elliptic functions, p-Laplacian Schrodinger eigenpairs on
(0, 1), and Riesz basis certificates for the eigenfunction families.

Conventions: mu always denotes the modulus (the k of classical elliptic
function theory, not the parameter m = k**2); all eigenfunction profiles
live on the unit interval with the orthonormal sine basis sqrt(2) sin(k pi x).
"""

from .errors import (
    DomainError,
    GridTooCoarse,
    InvalidExponent,
    MaxIterations,
    NoSignChange,
    NonConvergence,
    SingularPoint,
    SlowConvergence,
)
from .quadrature import (
    QuadratureResult,
    SingularIntegrand,
    bracketed_root,
    integrate_singular,
)
from .elliptic import (
    SnpValue,
    jordan_margins,
    kp,
    kp_quadrature,
    kp_via_2f1,
    snp,
    snp_deriv,
    snp_deriv_many,
    snp_many,
    snp_second_deriv,
    snp_second_deriv_many,
    snp_value,
    wp,
)
from .qtheta import (
    ThetaConstants,
    agm_jacobi_sn,
    fraenkel_s,
    lambert_L,
    lambert_via_digamma,
    modulus_from_nome,
    mu0,
    nome_from_modulus,
    odd_lambert_sum,
    q_digamma,
    solve_q0,
    theta_constants,
)
from .eigen import (
    EigenPair,
    ResidualReport,
    eigenfunction_eval,
    eigenpair,
    first_integral_residual,
    ode_residual,
)
from .fourier import (
    FourierProfile,
    fourier_profile,
    g_eval,
    g_tail_bound,
    rho_coeff,
    tau1_margin,
    tau_k,
    tau_tail_bound,
)
from .certify import (
    FIRSTCOND_RHS,
    CertificateReport,
    ModulusSet,
    certify_firstcond,
    certify_invertibility,
    certify_p2_sharp,
    firstcond_boundary,
    region_csv,
    region_scan,
)

__version__ = "0.1.0"
