"""Degree-one spectral transformations as bidiagonal factorizations.

Multiplying a functional by (x - c) corresponds to factoring J - cI into
a unit lower bidiagonal times an upper bidiagonal and swapping the
factors; dividing by (x - c) (with a free mass at c) factors it the
other way around.  Both read their pivots off values at c of the
recurrence that `orthopoly` forms on integers, so neither runs an
elimination of its own.  Both take the recurrence of J and return the
factors with the transformed recurrence; no dense matrix is built here.
A two-term kernel connection is a band identity J_A U = U J_B on Jacobi
matrices (`_kernel_step_level`, shared with `composition`), so repChris
builds no polynomial.
"""

from . import functional as fa
from .errors import DegenerateParameter, ZeroPivot
from .matrices import UnitLowerBidiagonal, UpperBidiagonal, connection_level
from .orthopoly import (
    RecurrenceCoefficients,
    jacobi_matrix,
    kernel_values,
    smop_from_moments,
    values_and_slopes,
)
from .rational import ONE, ZERO, Rational, rat
from .reports import CheckReport, combine


def christoffel_lu(rc, c):
    """Factor J - cI = L U and swap: returns (L, U, transformed recurrence).

    J is the Jacobi matrix of rc at size rc.length.  The pivots are read
    off the values at c of rc (`values_and_slopes`): beta_n =
    -P_{n+1}(c)/P_n(c) and ell_n = a_n/beta_{n-1} = -a_n P_{n-1}(c)/P_n(c).
    The first vanishing pivot, at a zero c of P_{n+1}, raises ZeroPivot(n).
    The transformed recurrence, of length rc.length - 1, is assembled
    from the factors, so the swapped product's corrupt corner is not read.
    """
    c = rat(c)
    n = rc.length
    p, _, den = values_and_slopes(rc, c, n)
    if 0 in p:
        raise ZeroPivot(p.index(0) - 1)
    betas = [Rational(-p[k + 1] * den[k], den[k + 1] * p[k]) for k in range(n)]
    ells = [a / beta for a, beta in zip(rc.a, betas)]
    new_b = tuple(betas[k] + ells[k] + c for k in range(n - 1))
    new_a = tuple(betas[k] * ells[k - 1] for k in range(1, n - 1))
    transformed = RecurrenceCoefficients(new_b, new_a)
    return UnitLowerBidiagonal(n, ells), UpperBidiagonal(n, betas), transformed


def geronimus_ul(rc, c, beta0):
    """Factor J - cI = U L with prescribed corner beta_0 and swap.

    beta_0 = v_0 / vhat_0 encodes the free mass of the inverse transform;
    beta_0 = 0 makes the elimination undefined (DegenerateParameter).
    J is the Jacobi matrix of rc at size rc.length.  The pivots are ratios
    of the kernel values Z_n = P_n(c) + beta_0 P^(1)_{n-1}(c) of rc
    (`kernel_values`): ell_n = -Z_n/Z_{n-1} and
    beta_n = a_n/ell_n = -a_n Z_{n-1}/Z_n, and the first vanishing Z_n
    raises ZeroPivot(n).  The swapped product L U is exact on the full
    truncation, so the transformed recurrence keeps the length of rc.
    """
    c = rat(c)
    beta0 = rat(beta0)
    if beta0 == 0:
        raise DegenerateParameter("beta_0 = 0 leaves the elimination undefined")
    n = rc.length
    z, _, den = kernel_values(rc, c, ONE, beta0, ZERO, n - 1)
    if 0 in z:
        raise ZeroPivot(z.index(0))
    ells = [Rational(-z[k] * den[k - 1], den[k] * z[k - 1]) for k in range(1, n)]
    betas = [beta0] + [a / ell for a, ell in zip(rc.a, ells)]
    new_b = [betas[0] + c] + [betas[k] + ells[k - 1] + c for k in range(1, n)]
    new_a = [ells[k - 1] * betas[k - 1] for k in range(1, n)]
    transformed = RecurrenceCoefficients(new_b, new_a)
    return UnitLowerBidiagonal(n, ells), UpperBidiagonal(n, betas), transformed


def _kernel_step_level(j_a, diag, rc_b, c, n_max):
    """The first of levels 1..n_max where (x - c) A_{n-1} = B_n + diag[n-1] B_{n-1}
    fails, or None, for A with Jacobi matrix j_a and B the SMOP of rc_b.

    Level 1, x - c = B_1 + diag[0], holds when diag[0] = b_0 - c of rc_b.
    Then (x - c) A = U B, U with diagonal `diag` and a unit superdiagonal,
    decides levels 2..n_max on the rows of J_A U = U J_B (`connection_level`).
    """
    if diag[0] != rc_b.b[0] - c:
        return 1
    upper = UpperBidiagonal(n_max, diag).to_band()
    level = connection_level(j_a, upper, jacobi_matrix(rc_b, n_max), n_max - 1)
    return None if level is None else level + 1


def christoffel_connection_check(u, c, n):
    """Identity "repChris" plus the elimination's closed forms.

    Checks, against the SMOP of (x - c) u computed independently from its
    moments by the Chebyshev algorithm: the kernel representation
    (x - c) Ptilde_m = P_{m+1} + d_m P_m, d_m = -P_{m+1}(c)/P_m(c) from
    the values at c of u's recurrence, as the band identity Jtilde U = U J
    (level m + 1 of `_kernel_step_level`); the pivot values beta_m = d_m;
    and that the swapped factorization reproduces the transformed recurrence.
    """
    c = rat(c)
    rc, _ = smop_from_moments(u, n + 1)
    tilde_rc, _ = smop_from_moments(fa.multiply_poly(u, (-c, ONE)), n)
    _, upper, transformed = christoffel_lu(rc, c)
    # christoffel_lu has raised ZeroPivot if any P_m(c) vanishes
    p, _, den = values_and_slopes(rc, c, n + 1)
    diag = [Rational(-p[m + 1] * den[m], den[m + 1] * p[m]) for m in range(n + 1)]
    level = _kernel_step_level(jacobi_matrix(tilde_rc, n), diag[:n], rc, c, n)
    failure = None if level is None else {"level": level - 1}
    reports = [CheckReport("kernel-representation", "fail" if failure else "pass", n - 1, failure)]
    failure = next(({"level": m} for m in range(n + 1) if upper.diag[m] != diag[m]), None)
    reports.append(CheckReport("pivot-closed-form", "fail" if failure else "pass", n, failure))
    failure = None if tilde_rc == transformed else {"level": "matrix"}
    reports.append(CheckReport("transformed-recurrence", "fail" if failure else "pass", n, failure))
    return combine("repChris", reports, c=str(c))
