"""Moment generating series in 1/z and their exact identities.

Each coefficient these identities read is formed on integers by the
functional algebra.  With S_u(z) = sum_n u_n z^{-n-1}, S_u S_v has moment
k of u * v at z^{-k-2}; for a polynomial p, S_u p has moment k of p u at
z^{-k-1}, and u_0 times p's divided difference against u as its
polynomial part.  A failure is reported at the power of z it stands at.
"""

from . import functional as fa
from .associated import _fu1_route, divided_difference
from .errors import TruncationExhausted
from .orthopoly import polys_from_recurrence, smop_from_moments
from .poly import ONE_POLY, X
from .rational import ONE, rat
from .reports import CheckReport
from .series import LaurentSeries


def stieltjes_series(u):
    """sum_n u_n z^{-n-1} over the stored moments (top power -1)."""
    return LaurentSeries(-1, u.moments)


def inverse_series_check(u):
    """Identity "identidad": S_u(z) S_{u^{-1}}(z) = z^{-2}.

    The z^{-k-2} coefficient of the product is moment k of u * u^{-1},
    which must be (1, 0, 0, ...); the order moments certify it down to
    z^{-order-1}.
    """
    product = fa.convolve(u, fa.invert(u))
    level = product.order + 1
    # (1, 0, 0, ...) is the numerators (1, 0, 0, ...) over 1
    for k, value in enumerate(product.num):
        if value != (product.den if k == 0 else 0):
            return CheckReport.failing("identidad", level, {"power": -k - 2})
    return CheckReport.passing("identidad", level)


def pade_approximation_check(u, n):
    """Identity "pade": S_u P_n - u_0 P^(1)_{n-1} vanishes from z^{n-1} through z^{-n},
    and its first surviving coefficient, at z^{-n-1}, is the norm K_n.

    Its z^m coefficient, m >= 0, is u_0 times that of the divided
    difference of P_n against u minus P^(1)_{n-1}; its z^{-k-1}
    coefficient is moment k of P_n u.
    """
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
    quotient = divided_difference(u, p_n)
    for m in range(n - 1, -1, -1):
        if quotient.coefficient(m) != first_assoc.coefficient(m):
            return CheckReport.failing("pade", n, {"power": m})
    tail = fa.multiply_poly(u, p_n)
    for k in range(n):
        if tail.num[k]:
            return CheckReport.failing("pade", n, {"power": -k - 1})
    residue = tail.moment(n)
    if residue != norm_n:
        return CheckReport.failing("pade", n, {"power": -n - 1, "value": str(residue)})
    return CheckReport.passing("pade", n, residue=str(residue))


def first_kind_series_check(u, norm1=ONE):
    """Identity "relationS": S_{u^(1)} = -(u_0 norm1/a_1) z^2 S_{u^{-1}} + (norm1/a_1)(z - b_0).

    With v = u^{-1} and s = -u_0 norm1/a_1, the right side's z and 1
    coefficients, s v_0 + norm1/a_1 and s v_1 - (norm1/a_1) b_0, must
    vanish, z first.  Below them z^{-k-1} holds moment k of s x^2 v,
    compared as in "fu1": moment k failing is power -k-1 failing.
    """
    norm1 = rat(norm1)
    rc, s, inverse, count, off = _fu1_route(u, norm1)
    lead = norm1 / rc.a_at(1)
    if s * inverse.moment(0) + lead:
        bad = 1
    elif s * inverse.moment(1) - lead * rc.b_at(0):
        bad = 0
    else:
        bad = None if off is None else -off - 1
    if bad is None:
        return CheckReport.passing("relationS", count, norm1=str(norm1))
    return CheckReport.failing("relationS", count, {"power": bad}, norm1=str(norm1))
