"""Associated sequences, co-recursive perturbations, and the inverse functional.

The k-th associated sequence drops the first k recurrence coefficients.
The inverse functional (under moment convolution) has an SMOP expressible
through first-associated polynomials and Wronskians at the origin; this
module builds that system and its recurrence by two independent routes.
"""

from . import functional as fa
from .errors import DegenerateParameter, NotQuasiDefinite, TruncationExhausted, ZeroFirstMoment
from .orthopoly import (
    OrthogonalSystem,
    RecurrenceCoefficients,
    jacobi_matrix,
    moments_from_jacobi,
    polys_from_recurrence,
    smop_from_moments,
)
from .poly import Polynomial, X
from .rational import ZERO, ONE, rat
from .reports import CheckReport


def associated_polys(rc, k, n_max):
    """The k-th associated SMOP, from the shifted recurrence."""
    return polys_from_recurrence(rc.shifted(k), n_max)


def associated_functional(rc, k, norm0, n):
    """n moments of the k-th associated functional, scaled so its first is norm0.

    norm0 = 0 would give the zero functional, so it raises DegenerateParameter.
    """
    if rat(norm0) == 0:
        raise DegenerateParameter("the associated functional needs a nonzero first moment")
    shifted = rc.shifted(k)
    return moments_from_jacobi(jacobi_matrix(shifted, shifted.length), norm0, n)


def divided_difference(u, p):
    """(1/u_0) <u_y, (p(x) - p(y))/(x - y)> as a polynomial in x.

    Expanding the difference quotient monomial by monomial, the x^i
    coefficient is sum_{j > i} p_j u_{j-1-i}, scaled by 1/u_0.
    """
    u0 = u.moments[0]
    if u0 == 0:
        raise ZeroFirstMoment("divided difference needs u_0 != 0")
    if p.degree > u.order:
        raise TruncationExhausted(
            "divided difference of degree %d needs %d moments" % (p.degree, p.degree)
        )
    coeffs = []
    for i in range(max(p.degree, 0)):
        acc = ZERO
        for j in range(i + 1, p.degree + 1):
            acc += p.coeffs[j] * u.moments[j - 1 - i]
        coeffs.append(acc / u0)
    return Polynomial(coeffs)


def assoc_representation_check(u, k, n):
    """Divided-difference route to the k-th associated SMOP vs the shifted recurrence.

    For each degree j <= n, compares the (j-1)-st k-associated polynomial
    with the divided difference of the j-th (k-1)-associated polynomial
    against the (k-1)-associated functional.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    depth = n + k - 1
    rc, _ = smop_from_moments(u, depth)
    target = associated_polys(rc, k, n - 1)
    if k == 1:
        base_polys = polys_from_recurrence(rc, n)
        base_u = u
    else:
        base_polys = associated_polys(rc, k - 1, n)
        base_u = associated_functional(rc, k - 1, ONE, n + 1)
    for j in range(1, n + 1):
        got = divided_difference(base_u, base_polys[j])
        if got != target[j - 1]:
            return CheckReport.failing(
                "asociadosrepr",
                n,
                {"level": j, "k": k},
                k=k,
            )
    return CheckReport.passing("asociadosrepr", n, k=k)


def linear_combination_check(u, k, n):
    """k-th associated polynomials as a polynomial combination of P and the first kind.

    Checks P^(k)_{m-k} = A P_m + B P^(1)_{m-1} for k <= m <= n, where
    A = -P^(1)_{k-2} / (a_1 ... a_{k-1}) and B = P_{k-1} / (a_1 ... a_{k-1}).
    """
    if k < 1 or n < k:
        raise ValueError("need 1 <= k <= n")
    rc, _ = smop_from_moments(u, n)
    base = polys_from_recurrence(rc, n)
    first = associated_polys(rc, 1, n - 1)
    kth = associated_polys(rc, k, n - k)
    prod = ONE
    for m in range(1, k):
        prod *= rc.a_at(m)
    a_poly = (-first[k - 2] if k >= 2 else Polynomial()) * (1 / prod)
    b_poly = base[k - 1] * (1 / prod)
    for m in range(k, n + 1):
        lhs = kth[m - k]
        rhs = a_poly * base[m] + b_poly * first[m - 1]
        if lhs != rhs:
            return CheckReport.failing(
                "linearcombination", n, {"level": m, "k": k}, k=k
            )
    return CheckReport.passing("linearcombination", n, k=k)


def corecursive_polys(rc, alpha, n_max):
    """SMOP of the recurrence with b_0 perturbed by alpha."""
    return polys_from_recurrence(rc.corecursive(alpha), n_max)


def corecursive_two_route_check(rc, alpha, n_max):
    """Perturbed recurrence vs the subtraction formula P_n - alpha * P^(1)_{n-1}."""
    alpha = rat(alpha)
    routed = corecursive_polys(rc, alpha, n_max)
    base = polys_from_recurrence(rc, n_max)
    first = associated_polys(rc, 1, n_max - 1)
    for n in range(n_max + 1):
        rhs = base[n] - (alpha * first[n - 1] if n >= 1 else Polynomial())
        if routed[n] != rhs:
            return CheckReport.failing(
                "co-recursive-routes", n_max, {"level": n, "alpha": str(alpha)}
            )
    return CheckReport.passing("co-recursive-routes", n_max)


def corecursive_functional(u, alpha, norm0=None):
    """Moments of the co-recursive functional, via convolution inverses.

    The perturbed functional is a scalar multiple of the convolution
    inverse of u^{-1} + (alpha/u_0) * delta_0'; norm0 fixes its first
    moment (defaults to u_0).
    """
    alpha = rat(alpha)
    u0 = u.moments[0]
    if u0 == 0:
        raise ZeroFirstMoment("co-recursive transform needs u_0 != 0")
    if norm0 is None:
        norm0 = u0
    tilt = fa.scale(alpha / u0, fa.derivative(fa.delta(0, u.order)))
    core = fa.invert(fa.add(fa.invert(u), tilt))
    return fa.scale(rat(norm0) / u0, core)


def corecursive_functional_check(u, alpha):
    """Identity "funccorre": the co-recursive moments agree with the perturbed recurrence."""
    alpha = rat(alpha)
    n_base = u.order // 2
    if n_base < 1:
        raise TruncationExhausted("need at least 2 moments")
    rc, _ = smop_from_moments(u, n_base)
    perturbed = rc.corecursive(alpha)
    j = jacobi_matrix(perturbed, perturbed.length)
    via_recurrence = moments_from_jacobi(j, u.moments[0], 2 * perturbed.length - 1)
    via_inversion = corecursive_functional(u, alpha)
    order = min(via_recurrence.order, via_inversion.order)
    if fa.equal_normalized(via_recurrence, via_inversion, order=order):
        return CheckReport.passing(
            "funccorre", order - 1, predicate="normalized", alpha=str(alpha)
        )
    k = fa.first_moment_mismatch(via_recurrence.normalized(), via_inversion.normalized())
    return CheckReport.failing(
        "funccorre",
        order - 1,
        {"moment": k},
        predicate="normalized",
        alpha=str(alpha),
    )


def inverse_functional_identity_check(u, norm1=ONE):
    """Identity "fu1": the first-associated functional is a multiple of x^2 u^{-1}.

    Exact on the nose: u^(1) = -(norm1 * u_0 / a_1) x^2 u^{-1}, where
    norm1 is the chosen first moment of u^(1).
    """
    norm1 = rat(norm1)
    if u.order < 4:
        raise TruncationExhausted("need at least 4 moments")
    n_base = u.order // 2
    rc, _ = smop_from_moments(u, n_base)
    a1 = rc.a_at(1)
    u0 = u.moments[0]
    lhs = associated_functional(rc, 1, norm1, 2 * (n_base - 1) - 1)
    rhs = fa.scale(-(norm1 * u0) / a1, fa.multiply_poly(fa.invert(u), X * X))
    order = min(lhs.order, rhs.order)
    if fa.equal_functionals(lhs, rhs, order=order):
        return CheckReport.passing("fu1", order - 1, norm1=str(norm1))
    k = fa.first_moment_mismatch(lhs, rhs)
    return CheckReport.failing("fu1", order - 1, {"moment": k}, norm1=str(norm1))


def origin_wronskians(u, n_max):
    """Origin Wronskians of the SMOP of u, from its recurrence in O(n_max).

    Returns (rc, skips, ws): ws[n] = W(P_n, P_{n-1})(0) for n = 1..n_max+1
    and skips[n] = W(P_{n+1}, P_{n-1})(0) for n = 1..n_max, as dicts,
    with W(p, q)(0) = p(0) q'(0) - p'(0) q(0).  The values p[m] = P_m(0)
    and slopes dp[m] = P_m'(0) run through the recurrence at x = 0 and
    its derivative, P_{m+1}' = P_m + (x - b_m) P_m' - a_m P_{m-1}'.
    """
    rc, _ = smop_from_moments(u, n_max + 1)
    p = [ONE]
    dp = [ZERO]
    for m in range(n_max + 1):
        value = -rc.b[m] * p[m]
        slope = p[m] - rc.b[m] * dp[m]
        if m >= 1:
            value -= rc.a[m - 1] * p[m - 1]
            slope -= rc.a[m - 1] * dp[m - 1]
        p.append(value)
        dp.append(slope)
    ws = {n: p[n] * dp[n - 1] - dp[n] * p[n - 1] for n in range(1, n_max + 2)}
    skips = {n: p[n + 1] * dp[n - 1] - dp[n + 1] * p[n - 1] for n in range(1, n_max + 1)}
    return rc, skips, ws


def inverse_level_one(rc):
    """The quantity -(b_0^2 + a_1); it is a_1^- and must be nonzero at level one."""
    return -(rc.b_at(0) ** 2 + rc.a_at(1))


def _inverse_guards(rc, ws, top):
    """Quasi-definiteness guards for the inverse functional.

    Level one fails exactly when b_0^2 + a_1 = 0 (the inverse's second
    Hankel minor vanishes); level n >= 2 fails when the normalized
    origin Wronskian d*_n = W(P_n, P_{n-1})(0)/u_0^2 vanishes.
    """
    if inverse_level_one(rc) == 0:
        raise NotQuasiDefinite(1, guard="b_0^2 + a_1")
    for n in range(2, top + 1):
        if ws[n] == 0:
            raise NotQuasiDefinite(n, guard="d_star")


def inverse_connection(u, n_max):
    """Connection coefficients of the inverse SMOP over the first-associated basis.

    Returns (alpha1, alpha2, d_star): alpha1[n] multiplies P^(1)_{n-1} for
    n = 1..n_max, alpha2[n] multiplies P^(1)_{n-2} for n = 2..n_max, and
    d_star[n] = W(P_n, P_{n-1})(0)/u_0^2 for n = 1..n_max+1, all as dicts.
    """
    if u.moments[0] == 0:
        raise ZeroFirstMoment("inverse transform needs u_0 != 0")
    rc, skips, ws = origin_wronskians(u, n_max)
    _inverse_guards(rc, ws, n_max)
    u0sq = u.moments[0] ** 2
    d_star = {n: ws[n] / u0sq for n in range(1, n_max + 2)}
    alpha1 = {n: -skips[n] / ws[n] for n in range(1, n_max + 1)}
    alpha2 = {n: ws[n + 1] / ws[n] for n in range(2, n_max + 1)}
    return alpha1, alpha2, d_star


def inverse_smop(u, n_max):
    """The SMOP of the convolution inverse, built from Wronskian data.

    Degrees 0 and 1 are explicit; degree n >= 2 combines three consecutive
    first-associated polynomials with the connection coefficients.  Norms
    are evaluated against the inverse moments, so the returned system
    carries its own quasi-definiteness certificate.  Also returns the
    d*_n sequence (as a dict indexed from 1).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    alpha1, alpha2, d_star = inverse_connection(u, n_max)
    rc, _ = smop_from_moments(u, n_max + 1)
    first = associated_polys(rc, 1, n_max)
    polys = [Polynomial((1,)), X + rc.b_at(0)]
    for n in range(2, n_max + 1):
        polys.append(first[n] + alpha1[n] * first[n - 1] + alpha2[n] * first[n - 2])
    uinv = fa.invert(u)
    norms = [fa.apply(uinv, p * p) for p in polys[:-1]]
    return OrthogonalSystem(polys, norms), d_star


def inverse_recurrence(u, n_max):
    """Recurrence coefficients of the inverse SMOP, by Wronskian ratios.

    b^-_0 = -b_0 (the degree-one polynomial is x + b_0); for n >= 1,
    b^-_n telescopes two consecutive Wronskian ratios against b_{n+1};
    a^-_1 = -(b_0^2 + a_1) and higher a^-_n scale a_{n-1} by a square of
    Wronskian ratios.  The result is cross-checked against the
    moments-to-recurrence route (the Chebyshev algorithm) on the inverted
    moments, which uses no Wronskian, before being returned.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rc, skips, ws = origin_wronskians(u, n_max)
    _inverse_guards(rc, ws, n_max)
    bs = [-rc.b_at(0)]
    for n in range(1, n_max):
        middle = skips[n] / ws[n]
        last = skips[n + 1] / ws[n + 1]
        bs.append(rc.b_at(n + 1) - middle + last)
    a_s = []
    if n_max >= 2:
        a_s.append(inverse_level_one(rc))
    for n in range(2, n_max):
        ratio = ws[n + 1] * ws[n - 1] / ws[n] ** 2
        a_s.append(ratio * rc.a_at(n - 1))
    result = RecurrenceCoefficients(bs, a_s)
    check_depth = min(n_max, u.order // 2)
    direct, _ = smop_from_moments(fa.invert(u), check_depth)
    if direct != result.truncated(check_depth):
        raise AssertionError("Wronskian route disagrees with the moments of u^{-1}")
    return result
