"""Generalized elliptic functions, p-Laplacian Schrodinger eigenpairs on
(0, 1), and Riesz basis certificates for the eigenfunction families.

Conventions: mu always denotes the modulus (the k of classical elliptic
function theory, not the parameter m = k**2); all eigenfunction profiles
live on the unit interval with the orthonormal sine basis sqrt(2) sin(k pi x).

Each module's ``__all__`` is the one list of its public names.
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
from .quadrature import *
from .elliptic import *
from .qtheta import *
from .eigen import *
from .fourier import *
from .certify import *

__version__ = "0.1.0"
