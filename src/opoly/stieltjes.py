"""Moment generating series in 1/z and their exact identities.

Each moment functional yields the window sum u_n z^{-n-1}; products and
shifts track how far down the result is provably correct, so every check
here compares series only on certified coefficients.
"""

from . import functional as fa
from .errors import DegenerateParameter, TruncationExhausted
from .orthopoly import first_moment_off, polys_from_recurrence, smop_from_moments
from .poly import ONE_POLY, X
from .rational import ONE, rat
from .reports import CheckReport
from .series import (
    LaurentSeries,
    first_series_mismatch,
    from_polynomial,
    monomial_series,
    series_add,
    series_multiply,
    series_scale,
    series_shift,
    series_sub,
)


def stieltjes_series(u):
    """sum_n u_n z^{-n-1} over the stored moments (top power -1)."""
    return LaurentSeries(-1, u.moments)


def inverse_series_check(u):
    """Identity "identidad": S_u(z) S_{u^{-1}}(z) = z^{-2}."""
    s_u = stieltjes_series(u)
    s_inv = stieltjes_series(fa.invert(u))
    product = series_multiply(s_u, s_inv)
    rhs = monomial_series(-2)
    bad = first_series_mismatch(product, rhs)
    if bad is None:
        return CheckReport.passing("identidad", -product.min_power)
    return CheckReport.failing("identidad", -product.min_power, {"power": bad})


def pade_approximation_check(u, n):
    """Identity "pade": S_u P_n - u_0 P^(1)_{n-1} vanishes from z^{n-1} through z^{-n},
    and its first surviving coefficient, at z^{-n-1}, is the norm K_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if u.order < 2 * n + 1:
        raise TruncationExhausted("need %d moments for index %d" % (2 * n + 1, n))
    rc, system = smop_from_moments(u, n)
    p_n = system.polys[n]
    norm_n = fa.apply(u, X ** n * p_n)
    if n == 1:
        first_assoc = ONE_POLY
    else:
        first_assoc = polys_from_recurrence(rc.shifted(1), n - 1)[n - 1]
    err = series_sub(
        series_multiply(stieltjes_series(u), from_polynomial(p_n)),
        series_scale(u.moment(0), from_polynomial(first_assoc)),
    )
    for m in range(n - 1, -n - 1, -1):
        if err.coefficient(m) != 0:
            return CheckReport.failing("pade", n, {"power": m})
    residue = err.coefficient(-n - 1)
    if residue != norm_n:
        return CheckReport.failing("pade", n, {"power": -n - 1, "value": str(residue)})
    return CheckReport.passing("pade", n, residue=str(residue))


def first_kind_series_check(u, norm1=ONE):
    """Identity "relationS": S_{u^(1)} = -(u_0 norm1/a_1) z^2 S_{u^{-1}} + (norm1/a_1)(z - b_0).

    The positive powers introduced by z^2 and the linear polynomial must
    cancel exactly, highest power first.  Below them z^{-k-1} holds moment
    k of the right side's functional, compared as in "fu1": moment k
    failing is power -k-1 failing.
    """
    norm1 = rat(norm1)
    depth = u.order // 2
    if depth < 2:
        raise TruncationExhausted("need at least 4 moments")
    rc, _ = smop_from_moments(u, depth)
    u0 = u.moment(0)
    a1 = rc.a_at(1)
    if norm1 == 0:
        raise DegenerateParameter("the associated functional needs a nonzero first moment")
    shifted_inverse = series_shift(stieltjes_series(fa.invert(u)), 2)
    rhs = series_add(
        series_scale(-(u0 * norm1) / a1, shifted_inverse),
        series_scale(norm1 / a1, from_polynomial(X - rc.b_at(0))),
    )
    count = 2 * depth - 3
    bad = next((m for m in range(rhs.max_power, -1, -1) if rhs.coefficient(m)), None)
    if bad is None:
        w = fa.MomentFunctional([rhs.coefficient(-k - 1) for k in range(count)])
        k = first_moment_off(w, rc.shifted(1), count, norm1)
        bad = None if k is None else -k - 1
    if bad is None:
        return CheckReport.passing("relationS", count, norm1=str(norm1))
    return CheckReport.failing("relationS", count, {"power": bad}, norm1=str(norm1))
