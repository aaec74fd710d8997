"""Associated sequences, co-recursive perturbations, and the inverse functional.

The k-th associated sequence drops the first k recurrence coefficients;
its functional comes from the moments, by "fu1" applied k times through
the convolution inverse (`associated_functional`); the checks read such
moments' recurrence and compare it with the shifted or perturbed one
(`first_moment_off`), so no check regenerates moments from a recurrence.
Division by (x - c)^2 has an O(n) kernel over values and slopes at c
(`quadratic_kernel`).  The inverse functional (under moment convolution)
is that division at c = 0 of a multiple of the first-associated
functional, so its SMOP, connection and recurrence come from the same
kernel (`inverse_kernel`).
"""

from collections import namedtuple
from operator import mul

from . import functional as fa
from .errors import DegenerateParameter, NotQuasiDefinite, TruncationExhausted, ZeroFirstMoment
from .orthopoly import (
    OrthogonalSystem,
    RecurrenceCoefficients,
    first_moment_off,
    polys_from_recurrence,
    smop_from_moments,
    values_and_slopes,
)
from .poly import ONE_POLY, ZERO_POLY, Polynomial, X, _combine
from .rational import ZERO, ONE, Rational, rat
from .reports import CheckReport


def associated_polys(rc, k, n_max):
    """The k-th associated SMOP, from the shifted recurrence."""
    return polys_from_recurrence(rc.shifted(k), n_max)


def associated_functional(u, k, norm0, n):
    """n moments of the k-th associated functional of u, scaled so its first is norm0.

    Applies "fu1" k times, reading no recurrence: the first associated
    functional of w is a multiple of x^2 w^{-1}, whose first moment is
    -a_1 when w_0 = 1.  Step j starts from the (j-1)-st associated
    functional at first moment 1, so a_j = 0 is the vanishing first
    moment that raises NotQuasiDefinite(j, guard="norm"), u's first
    vanishing Hankel minor (u_0 = 0 is level 0).  Needs n + 2k moments;
    norm0 = 0 would give the zero functional (DegenerateParameter).
    """
    norm0 = rat(norm0)
    if norm0 == 0:
        raise DegenerateParameter("the associated functional needs a nonzero first moment")
    if u.order < n + 2 * k:
        raise TruncationExhausted(
            "level %d needs %d moments for %d, have %d" % (k, n + 2 * k, n, u.order)
        )
    w = u.truncated(n + 2 * k)
    for j in range(k + 1):
        if w.num[0] == 0:
            raise NotQuasiDefinite(j, guard="norm")
        if j == k:
            return fa.scale(norm0, w.normalized())
        w = fa.multiply_poly(fa.invert(w.normalized()), X * X)


def divided_difference(u, p):
    """(1/u_0) <u_y, (p(x) - p(y))/(x - y)> as a polynomial in x.

    Expanding the difference quotient monomial by monomial, the x^i
    coefficient is sum_{j > i} p_j u_{j-1-i}, scaled by 1/u_0.  The sums
    run on p's integer numerators and the moments' numerators N_k; with
    u_k = N_k / D, the factor 1/u_0 = D / N_0 cancels D, so the result is
    one integer polynomial over p's denominator times |N_0|.
    """
    nums = u.num
    first = nums[0]
    if first == 0:
        raise ZeroFirstMoment("divided difference needs u_0 != 0")
    if p.degree > u.order:
        raise TruncationExhausted(
            "divided difference of degree %d needs %d moments" % (p.degree, p.degree)
        )
    sign = 1 if first > 0 else -1
    coeffs = p.num
    return Polynomial.from_integers(
        [sign * sum(map(mul, coeffs[i + 1 :], nums)) for i in range(max(p.degree, 0))],
        p.den * abs(first),
    )


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
    # at n = 1 the target P^(k)_0 = 1 reads no shifted coefficient
    target = associated_polys(rc, k, n - 1) if n > 1 else (ONE_POLY,)
    if k == 1:
        base_polys = polys_from_recurrence(rc, n)
        base_u = u
    else:
        base_polys = associated_polys(rc, k - 1, n)
        base_u = associated_functional(u, k - 1, ONE, n + 1)
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
    # P^(j)_0 = 1 reads no shifted coefficient (n = 1 for j = 1, n = k for j = k)
    first = associated_polys(rc, 1, n - 1) if n > 1 else (ONE_POLY,)
    kth = associated_polys(rc, k, n - k) if n > k else (ONE_POLY,)
    prod = ONE
    for m in range(1, k):
        prod *= rc.a_at(m)
    a_poly = first[k - 2] if k >= 2 else ZERO_POLY
    for m in range(k, n + 1):
        # prod (P^(k)_{m-k} - A P_m - B P^(1)_{m-1}), which clears A and B's 1/prod
        terms = [(prod, kth[m - k]), (1, base[m], a_poly), (-1, first[m - 1], base[k - 1])]
        if any(_combine(terms)[0]):
            return CheckReport.failing(
                "linearcombination", n, {"level": m, "k": k}, k=k
            )
    return CheckReport.passing("linearcombination", n, k=k)


def corecursive_functional(u, alpha, norm0=None):
    """Moments of the co-recursive functional, via convolution inverses.

    The perturbed functional is a scalar multiple of the convolution
    inverse of u^{-1} + (alpha/u_0) * delta_0'; norm0 fixes its first
    moment (defaults to u_0).
    """
    alpha = rat(alpha)
    u0 = u.moment(0)
    if u0 == 0:
        raise ZeroFirstMoment("co-recursive transform needs u_0 != 0")
    if norm0 is None:
        norm0 = u0
    tilt = fa.scale(alpha / u0, fa.derivative(fa.delta(0, u.order)))
    core = fa.invert(fa.add(fa.invert(u), tilt))
    return fa.scale(rat(norm0) / u0, core)


def corecursive_functional_check(u, alpha):
    """Identity "funccorre": the co-recursive moments agree with the perturbed recurrence,
    normalized, on the 2 * (order // 2) - 1 moments that it fixes."""
    alpha = rat(alpha)
    n_base = u.order // 2
    if n_base < 1:
        raise TruncationExhausted("need at least 2 moments")
    rc, _ = smop_from_moments(u, n_base)
    order = 2 * n_base - 1
    k = first_moment_off(corecursive_functional(u, alpha), rc.corecursive(alpha), order)
    if k is None:
        return CheckReport.passing(
            "funccorre", order - 1, predicate="normalized", alpha=str(alpha)
        )
    return CheckReport.failing(
        "funccorre",
        order - 1,
        {"moment": k},
        predicate="normalized",
        alpha=str(alpha),
    )


def _fu1_route(u, norm1, inverse=None):
    """(rc, s, u^{-1}, count, off): fu1's route to u^(1) = s x^2 u^{-1}, with
    s = -norm1 u_0 / a_1, compared with u's shifted recurrence rc.shifted(1)
    on the count = 2 * (order // 2) - 3 moments it fixes; off is the first
    that differs, or None.  A caller that holds u^{-1} passes it as
    `inverse`, and the route does not invert u again."""
    if u.order < 4:
        raise TruncationExhausted("need at least 4 moments")
    rc, _ = smop_from_moments(u, u.order // 2)
    a1 = rc.a_at(1)
    u0 = u.moment(0)
    if norm1 == 0:
        raise DegenerateParameter("the associated functional needs a nonzero first moment")
    s = -(norm1 * u0) / a1
    if inverse is None:
        inverse = fa.invert(u)
    count = 2 * (u.order // 2) - 3
    rhs = fa.scale(s, fa.multiply_poly(inverse, X * X))
    return rc, s, inverse, count, first_moment_off(rhs, rc.shifted(1), count, norm1)


def inverse_functional_identity_check(u, norm1=ONE):
    """Identity "fu1": the first-associated functional is a multiple of x^2 u^{-1}.

    Exact on the nose: u^(1) = -(norm1 * u_0 / a_1) x^2 u^{-1}, where
    norm1 is the chosen first moment of u^(1); checked on the
    2 * (order // 2) - 3 moments that u's shifted recurrence fixes.
    """
    norm1 = rat(norm1)
    _, _, _, count, k = _fu1_route(u, norm1)
    if k is None:
        return CheckReport.passing("fu1", count - 1, norm1=str(norm1))
    return CheckReport.failing("fu1", count - 1, {"moment": k}, norm1=str(norm1))


Division = namedtuple("Division", "alpha1 alpha2 d_star recurrence norms base_norms")


def quadratic_kernel(rc, w0, c, m0, m1, s, t, den, n_max):
    """The SMOP of v with (x - c)^2 v = w, v_0 = m0 and v_1 = m1, in O(n_max).

    rc is the recurrence of w and w0 its first moment.  For n = 0..n_max,
    S_n(c) = s[n] / den[n] and T_n(c) = t[n] / den[n], integers over one
    denominator per level, where S_n = (m1 - c m0) P_n + w0 P^(1)_{n-1}
    spans the kernel of the map back to w and T_n = S_n'(c) + m0 P_n(c).
    Negating s negates every d*_n, and scaling s and t by one constant
    scales every d*_n by its square; neither changes anything else.
    Returns a Division of:

    - d_star[n] = S_{n-2} T_{n-1} - S_{n-1} T_{n-2} for n = 2..n_max+1;
    - alpha1[n] (n = 1..n_max) and alpha2[n] = d*_{n+1}/d*_n
      (n = 2..n_max), with Q_n = P_n + alpha1[n] P_{n-1} + alpha2[n] P_{n-2};
    - the recurrence of the Q_n (length n_max) and their norms K_0 = m0,
      K_1 = (w0 m0 - (m1 - c m0)^2)/m0 and K_n = alpha2[n] k_{n-2}, with
      k the norms of w, since <v, Q_n (x - c)^2 P_{n-2}> = <w, Q_n P_{n-2}>;
    - base_norms, the norms k_0 = w0, k_n = k_{n-1} a_n of w for
      n < n_max, from which `quadratic._factors` reads U.

    d*_n, alpha1[n] and alpha2[n] are integer cross products of s and t
    over products of the level denominators, one rational each:
    with D_n = s[n-2] t[n-1] - s[n-1] t[n-2], d*_n = D_n / (den[n-2]
    den[n-1]), alpha1[n] = (t[n-2] s[n] - t[n] s[n-2]) den[n-1] /
    (den[n] D_n) and alpha2[n] = D_{n+1} den[n-2] / (den[n] D_n).

    Raises NotQuasiDefinite(n - 1, guard="d_star") at the first n = 2..n_max
    with d*_n = 0: then K_{n-1} = 0, so the (n-1)-st Hankel minor of v is
    its first to vanish.
    """
    cross = {n: s[n - 2] * t[n - 1] - s[n - 1] * t[n - 2] for n in range(2, n_max + 2)}
    d_star = {n: Rational(d, den[n - 2] * den[n - 1]) for n, d in cross.items()}
    alpha1 = {1: rc.b[0] - m1 / m0}
    alpha2 = {}
    for n in range(2, n_max + 1):
        d = cross[n]
        if d == 0:
            raise NotQuasiDefinite(n - 1, guard="d_star")
        alpha1[n] = Rational((t[n - 2] * s[n] - t[n] * s[n - 2]) * den[n - 1], den[n] * d)
        alpha2[n] = Rational(cross[n + 1] * den[n - 2], den[n] * d)
    base_norms = [w0]
    for n in range(1, n_max):
        base_norms.append(base_norms[-1] * rc.a[n - 1])
    norms = [m0]
    if n_max >= 2:
        norms.append((w0 * m0 - (m1 - c * m0) ** 2) / m0)
    norms += [alpha2[n] * base_norms[n - 2] for n in range(2, n_max)]
    bs = [m1 / m0] + [rc.b[n] + alpha1[n] - alpha1[n + 1] for n in range(1, n_max)]
    a_s = [norms[n] / norms[n - 1] for n in range(1, n_max)]
    return Division(alpha1, alpha2, d_star, RecurrenceCoefficients(bs, a_s), norms, base_norms)


def inverse_kernel(u, n_max):
    """The inverse functional as a quadratic Geronimus transform at 0.

    By "fu1", x^2 u^{-1} = kappa u^(1) with kappa = -a_1/u_0, and u^{-1}
    has moments 1/u_0 and -b_0/u_0.  So u^{-1} is `quadratic_kernel` at
    c = 0 on w = kappa u^(1), whose recurrence is u's shifted by one.
    From P_{n+1} = (x - b_0) P^(1)_n - a_1 P^(2)_{n-1}, the kernel values
    are S_n(0) = -P_{n+1}(0)/u_0 and T_n(0) = P_{n+1}'(0)/u_0 on u's own
    recurrence.  The kernel runs on P_{n+1}(0) and P_{n+1}'(0) as they
    are, which scales S and T by u_0 and negates S: only d* changes, and
    one factor -1/u_0^2 gives back d*_n = W(P_n, P_{n-1})(0)/u_0^2, which
    holds for d*_1 = -1/u_0^2 too.  Needs 2*(n_max + 1) moments.
    """
    u0 = u.moment(0)
    if u0 == 0:
        raise ZeroFirstMoment("inverse transform needs u_0 != 0")
    rc, _ = smop_from_moments(u, n_max + 1)
    p, dp, den = values_and_slopes(rc, ZERO, n_max + 1)
    kernel = quadratic_kernel(
        rc.shifted(1),
        -rc.a_at(1) / u0,
        ZERO,
        1 / u0,
        -rc.b_at(0) / u0,
        p[1:],
        dp[1:],
        den[1:],
        n_max,
    )
    scale = -1 / u0 ** 2
    d_star = {n: scale * d for n, d in kernel.d_star.items()}
    return kernel._replace(d_star={1: scale, **d_star})


def inverse_connection(u, n_max):
    """Connection coefficients of the inverse SMOP over the first-associated basis.

    Returns (alpha1, alpha2, d_star): alpha1[n] multiplies P^(1)_{n-1} for
    n = 1..n_max, alpha2[n] multiplies P^(1)_{n-2} for n = 2..n_max, and
    d_star[n] = W(P_n, P_{n-1})(0)/u_0^2 for n = 1..n_max+1, all as dicts.
    """
    kernel = inverse_kernel(u, n_max)
    return kernel.alpha1, kernel.alpha2, kernel.d_star


def inverse_smop(u, n_max):
    """The SMOP of the convolution inverse, with the d*_n sequence (a dict from 1).

    Degree n >= 2 is P^(1)_n + alpha1[n] P^(1)_{n-1} + alpha2[n] P^(1)_{n-2};
    the system holds the recurrence and the norms `inverse_kernel` reads
    off the connection, not the inverse moments, and builds the
    polynomials when they are read.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    kernel = inverse_kernel(u, n_max)
    return OrthogonalSystem(kernel.recurrence, kernel.norms), kernel.d_star


def inverse_recurrence(u, n_max):
    """Recurrence coefficients of the inverse SMOP, from `inverse_kernel`.

    b^-_0 = -b_0, b^-_n = b_{n+1} + alpha1[n] - alpha1[n+1], and
    a^-_n = K^-_n / K^-_{n-1}, so a^-_1 = -(b_0^2 + a_1).  The result is
    cross-checked against the moments-to-recurrence route (the Chebyshev
    algorithm) on the inverted moments, which uses no kernel, before
    being returned.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    result = inverse_kernel(u, n_max).recurrence
    check_depth = min(n_max, u.order // 2)
    direct, _ = smop_from_moments(fa.invert(u), check_depth)
    if direct != result.truncated(check_depth):
        raise AssertionError("the kernel route disagrees with the moments of u^{-1}")
    return result
