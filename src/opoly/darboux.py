"""Degree-one spectral transformations as bidiagonal factorizations.

Multiplying a functional by (x - c) corresponds to factoring J - cI into
a unit lower bidiagonal times an upper bidiagonal and swapping the
factors; dividing by (x - c) (with a free mass at c) runs the same
elimination the other way around.  Both eliminations are exact; only the
swapped product loses its bottom-right corner to truncation, which the
margin bookkeeping records.
"""

from . import functional as fa
from .errors import DegenerateParameter, ZeroPivot
from .matrices import UnitLowerBidiagonal, UpperBidiagonal
from .orthopoly import (
    RecurrenceCoefficients,
    jacobi_matrix,
    polys_from_recurrence,
    recurrence_from_jacobi,
    smop_from_moments,
)
from .poly import X
from .rational import rat
from .reports import CheckReport, combine


def _jacobi_data(j):
    rc = recurrence_from_jacobi(j)
    return rc.b, rc.a


def christoffel_lu(j, c):
    """Factor J - cI = L U and swap: returns (L, U, transformed Jacobi).

    The pivots are beta_n = -P_{n+1}(c)/P_n(c); a vanishing pivot means c
    is a zero of some P_{n+1} and raises ZeroPivot(n).  The transformed
    matrix is assembled entrywise from the factors, so all of its size-1
    entries are exact despite the swapped product's corrupt corner.
    """
    c = rat(c)
    b, a = _jacobi_data(j)
    n = j.size
    betas = [b[0] - c]
    ells = []
    if betas[0] == 0:
        raise ZeroPivot(0)
    for k in range(1, n):
        ell = a[k - 1] / betas[k - 1]
        ells.append(ell)
        beta = b[k] - c - ell
        betas.append(beta)
        if beta == 0:
            raise ZeroPivot(k)
    new_b = tuple(betas[k] + ells[k] + c for k in range(n - 1))
    new_a = tuple(betas[k] * ells[k - 1] for k in range(1, n - 1))
    transformed = jacobi_matrix(RecurrenceCoefficients(new_b, new_a), n - 1)
    return UnitLowerBidiagonal(n, ells), UpperBidiagonal(n, betas), transformed


def geronimus_ul(j, c, beta0):
    """Factor J - cI = U L with prescribed corner beta_0 and swap.

    beta_0 = v_0 / vhat_0 encodes the free mass of the inverse transform;
    beta_0 = 0 makes the elimination undefined (DegenerateParameter), and
    a vanishing ell_n pivot raises ZeroPivot(n).  The swapped product
    L U is exact on the full truncation, so the transformed Jacobi matrix
    keeps the original size.
    """
    c = rat(c)
    beta0 = rat(beta0)
    if beta0 == 0:
        raise DegenerateParameter("beta_0 = 0 leaves the elimination undefined")
    b, a = _jacobi_data(j)
    n = j.size
    betas = [beta0]
    ells = []
    for k in range(1, n):
        ell = b[k - 1] - c - betas[k - 1]
        if ell == 0:
            raise ZeroPivot(k)
        ells.append(ell)
        betas.append(a[k - 1] / ell)
    new_b = [betas[0] + c] + [betas[k] + ells[k - 1] + c for k in range(1, n)]
    new_a = [ells[k - 1] * betas[k - 1] for k in range(1, n)]
    transformed = jacobi_matrix(RecurrenceCoefficients(new_b, new_a), n)
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
    lower, upper, transformed = christoffel_lu(jacobi_matrix(rc, n + 1), c)
    reports = []
    failure = None
    for m in range(n):
        lhs = (X - c) * tilde_sys.polys[m]
        rhs = base[m + 1] - (base[m + 1](c) / base[m](c)) * base[m]
        if lhs != rhs:
            failure = {"level": m}
            break
    reports.append(
        CheckReport("kernel-representation", "fail" if failure else "pass", n - 1, failure)
    )
    failure = None
    for m in range(n + 1):
        if upper.diag[m] != -base[m + 1](c) / base[m](c):
            failure = {"level": m}
            break
    reports.append(
        CheckReport("pivot-closed-form", "fail" if failure else "pass", n, failure)
    )
    match = jacobi_matrix(tilde_rc, n) == transformed
    reports.append(
        CheckReport(
            "transformed-recurrence",
            "pass" if match else "fail",
            n,
            None if match else {"level": "matrix"},
        )
    )
    return combine("repChris", reports, c=str(c))


def geronimus_connection_check(v, c, m0, n):
    """Division by (x - c) with mass m0: connection and pivot identities.

    Verifies, with the SMOP of vhat = geronimus(v, c, m0) computed from
    its moments by the Chebyshev algorithm:
    Phat_n = P_n + ell_n P_{n-1}; (x - c) P_n = Phat_{n+1} + beta_n Phat_n
    with beta_n = -Phat_{n+1}(c)/Phat_n(c); the ell_n ratio formula in
    terms of P, the first associated sequence, and the masses; and that
    the elimination's transformed matrix equals the Jacobi matrix of vhat.
    """
    c = rat(c)
    m0 = rat(m0)
    if m0 == 0:
        raise DegenerateParameter("the transformed functional needs a nonzero mass m0")
    v0 = v.moment(0)
    rc, _ = smop_from_moments(v, n + 1)
    base = polys_from_recurrence(rc, n + 1)
    first = polys_from_recurrence(rc.shifted(1), n)
    vhat = fa.geronimus(v, c, m0)
    hat_rc, hat_sys = smop_from_moments(vhat, n + 1)
    lower, upper, transformed = geronimus_ul(jacobi_matrix(rc, n + 1), c, v0 / m0)
    hat = hat_sys.polys
    reports = []
    failure = None
    for m in range(1, n + 1):
        if hat[m] != base[m] + lower.sub[m - 1] * base[m - 1]:
            failure = {"level": m}
            break
    reports.append(
        CheckReport("connection", "fail" if failure else "pass", n, failure)
    )
    failure = None
    for m in range(n):
        lhs = (X - c) * base[m]
        rhs = hat[m + 1] + upper.diag[m] * hat[m]
        if lhs != rhs or upper.diag[m] != -hat[m + 1](c) / hat[m](c):
            failure = {"level": m}
            break
    reports.append(
        CheckReport("inverse-connection", "fail" if failure else "pass", n - 1, failure)
    )
    failure = None
    for m in range(1, n + 1):
        num = v0 * (first[m - 1](c) if m >= 1 else 0) + m0 * base[m](c)
        den = v0 * (first[m - 2](c) if m >= 2 else 0) + m0 * base[m - 1](c)
        if den == 0 or lower.sub[m - 1] != -num / den:
            failure = {"level": m}
            break
    reports.append(
        CheckReport("pivot-ratio", "fail" if failure else "pass", n, failure)
    )
    match = jacobi_matrix(hat_rc, n + 1) == transformed
    reports.append(
        CheckReport(
            "transformed-recurrence",
            "pass" if match else "fail",
            n + 1,
            None if match else {"level": "matrix"},
        )
    )
    return combine("geronimus-connection", reports, c=str(c), m0=str(m0))
