"""Exact rational arithmetic for moment functionals, their monic
orthogonal polynomial sequences, and the spectral transformations that
connect them.

Producers compute one route.  Where the theory offers a second route —
determinants against recurrences, eliminations against ratio formulas,
series against convolutions — it lives in the `verify` identity that
compares the two at exact equality.
"""

__version__ = "0.1.0"

from .rational import BACKEND, Rational, ONE, ZERO, parse_rational, rat, rat_str
from .errors import (
    DegenerateParameter,
    NotQuasiDefinite,
    OpolyError,
    TruncationExhausted,
    ZeroFirstMoment,
    ZeroPivot,
)
from .poly import Polynomial, X, wronskian
from .functional import (
    MomentFunctional,
    delta,
    derivative,
    divide_power,
    geronimus,
    invert,
    multiply_poly,
    quadratic_geronimus,
)
from .orthopoly import (
    OrthogonalSystem,
    RecurrenceCoefficients,
    hankel_minor,
    jacobi_matrix,
    moments_from_jacobi,
    polys_from_recurrence,
    smop_from_moments,
)
from .associated import (
    associated_functional,
    associated_polys,
    corecursive_functional,
    inverse_connection,
    inverse_recurrence,
    inverse_smop,
)
from .darboux import christoffel_lu, geronimus_ul
from .quadratic import quadratic_factorization, quadratic_geronimus_smop
from .stieltjes import stieltjes_series
from .reports import CheckReport

__all__ = [
    "__version__",
    "BACKEND",
    "Rational",
    "ONE",
    "ZERO",
    "parse_rational",
    "rat",
    "rat_str",
    "OpolyError",
    "ZeroFirstMoment",
    "TruncationExhausted",
    "NotQuasiDefinite",
    "ZeroPivot",
    "DegenerateParameter",
    "Polynomial",
    "X",
    "wronskian",
    "MomentFunctional",
    "delta",
    "derivative",
    "invert",
    "multiply_poly",
    "divide_power",
    "geronimus",
    "quadratic_geronimus",
    "RecurrenceCoefficients",
    "OrthogonalSystem",
    "smop_from_moments",
    "polys_from_recurrence",
    "jacobi_matrix",
    "moments_from_jacobi",
    "hankel_minor",
    "associated_polys",
    "associated_functional",
    "corecursive_functional",
    "inverse_connection",
    "inverse_smop",
    "inverse_recurrence",
    "christoffel_lu",
    "geronimus_ul",
    "quadratic_geronimus_smop",
    "quadratic_factorization",
    "stieltjes_series",
    "CheckReport",
]
