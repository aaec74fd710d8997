"""Degree-one spectral transformations as bidiagonal factorizations.

Multiplying a functional by (x - c) corresponds to factoring J - cI into
a unit lower bidiagonal times an upper bidiagonal and swapping the
factors; dividing by (x - c) (with a free mass at c) factors it the
other way around.  Both read their pivots off values at c of the
recurrence that `orthopoly` forms on integers, so neither runs an
elimination of its own.  Both take the recurrence of J and return the
factors with the transformed recurrence; no matrix is built here.
"""

from . import functional as fa
from .errors import DegenerateParameter, ZeroPivot
from .matrices import UnitLowerBidiagonal, UpperBidiagonal
from .orthopoly import (
    RecurrenceCoefficients,
    kernel_values,
    polys_from_recurrence,
    smop_from_moments,
    values_and_slopes,
)
from .poly import X, _combine
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


def christoffel_connection_check(u, c, n):
    """Identity "repChris" plus the elimination's closed forms.

    Checks, against the SMOP of (x - c) u computed independently from its
    moments by the Chebyshev algorithm: the kernel representation
    (x - c) Ptilde_n = P_{n+1} - (P_{n+1}(c)/P_n(c)) P_n; the pivot values
    beta_n = -P_{n+1}(c)/P_n(c); and that the swapped factorization
    reproduces the transformed recurrence.
    """
    c = rat(c)
    rc, _ = smop_from_moments(u, n + 1)
    base = polys_from_recurrence(rc, n + 1)
    tilde_u = fa.multiply_poly(u, X - c)
    tilde_rc, tilde_sys = smop_from_moments(tilde_u, n)
    _, upper, transformed = christoffel_lu(rc, c)
    # P_{m+1}(c)/P_m(c) by evaluation, for both parts; christoffel_lu has
    # raised ZeroPivot if any P_m(c) vanishes
    ratios = [base[m + 1](c) / base[m](c) for m in range(n + 1)]
    tilde, shift = tilde_sys.polys, X - c
    failure = None
    for m in range(n):
        if any(_combine([(1, tilde[m], shift), (-1, base[m + 1]), (ratios[m], base[m])])[0]):
            failure = {"level": m}
            break
    reports = [CheckReport("kernel-representation", "fail" if failure else "pass", n - 1, failure)]
    failure = next(({"level": m} for m in range(n + 1) if upper.diag[m] != -ratios[m]), None)
    reports.append(CheckReport("pivot-closed-form", "fail" if failure else "pass", n, failure))
    failure = None if tilde_rc == transformed else {"level": "matrix"}
    reports.append(CheckReport("transformed-recurrence", "fail" if failure else "pass", n, failure))
    return combine("repChris", reports, c=str(c))

