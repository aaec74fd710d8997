"""Classical families with exact rational moments and closed-form data.

Every functional here is normalized to first moment 1.  The frozen
closed forms (inverse recurrences, connection coefficients, elimination
entries) were derived independently of the library code and back the
regression and acceptance tests; `FAMILIES` is the one list of families,
each with its moments and the tables of them that `opoly example` checks.
"""

import functools
import math
from collections import namedtuple

from .functional import MomentFunctional
from .orthopoly import RecurrenceCoefficients
from .rational import ONE, ZERO, rat


def pochhammer(x, n):
    """Rising factorial x (x+1) ... (x+n-1)."""
    out = ONE
    for k in range(n):
        out = out * (rat(x) + k)
    return out


def _even_moments(order, central, label):
    """Moments central(k) / 4^k at 2k and zero at odd indices, over one
    denominator 4^K (K the last even index's k)."""
    top = (order - 1) // 2
    nums = []
    for n in range(order):
        nums.append(0 if n % 2 else central(n // 2) * 4 ** (top - n // 2))
    return MomentFunctional.from_integers(nums, 4 ** top, label)


def chebyshev_u(order):
    """Moments of the normalized weight sqrt(1-x^2) on [-1, 1]:
    moment 2k is Catalan(k)/4^k = binom(2k, k)/((k+1) 4^k), odd moments
    vanish."""
    return _even_moments(order, lambda k: math.comb(2 * k, k) // (k + 1), "chebyshev-u")


def chebyshev_t(order):
    """Moments of the normalized weight 1/sqrt(1-x^2) on [-1, 1]:
    moment 2k is binom(2k, k)/4^k, odd moments vanish."""
    return _even_moments(order, lambda k: math.comb(2 * k, k), "chebyshev-t")


def laguerre(alpha, order):
    """Moments (alpha+2)_n of the normalized weight x^(alpha+1) e^(-x)
    on [0, inf); requires alpha > -1.

    With alpha = p/q, (alpha+2)_n = prod_{k<n} (p + (k+2) q) / q^n: a
    running integer product, brought over the one denominator q^(N-1)."""
    alpha = rat(alpha)
    if not alpha > -1:
        raise ValueError("alpha must exceed -1")
    p, q = alpha.numerator, alpha.denominator
    nums = []
    acc = 1
    for n in range(order):
        nums.append(acc)
        acc *= p + (n + 2) * q
    scale = 1
    for n in range(order - 1, -1, -1):
        nums[n] *= scale
        scale *= q
    return MomentFunctional.from_integers(nums, scale // q, "laguerre")


def chebyshev_u_recurrence(n_max):
    """b_n = 0, a_n = 1/4."""
    return RecurrenceCoefficients(
        (ZERO,) * n_max, (rat(1, 4),) * (n_max - 1)
    )


def chebyshev_t_recurrence(n_max):
    """b_n = 0, a_1 = 1/2, a_n = 1/4 afterwards."""
    a = tuple(rat(1, 2) if n == 1 else rat(1, 4) for n in range(1, n_max))
    return RecurrenceCoefficients((ZERO,) * n_max, a)


def laguerre_recurrence(alpha, n_max):
    """b_n = 2n + alpha + 2, a_n = n (n + alpha + 1)."""
    alpha = rat(alpha)
    b = tuple(2 * n + alpha + 2 for n in range(n_max))
    a = tuple(n * (n + alpha + 1) for n in range(1, n_max))
    return RecurrenceCoefficients(b, a)


# -- frozen inverse-transform tables ------------------------------------

def chebyshev_u_d_star(n):
    """Wronskian minors at the origin, first-moment normalized."""
    if n < 1:
        raise ValueError("n must be at least 1")
    num = -n if n % 2 == 0 else -(n + 1)
    return rat(num, 2 ** (2 * n - 1))


def chebyshev_t_d_star(n):
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return rat(-1)
    num = 1 - n if n % 2 == 0 else -n
    return rat(num, 2 ** (2 * n - 3))


def chebyshev_u_alpha2(n):
    """Second connection coefficient onto the first-associated basis."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return rat(n + 2, 4 * n) if n % 2 == 0 else rat(1, 4)


def chebyshev_t_alpha2(n):
    if n < 2:
        raise ValueError("n must be at least 2")
    return rat(n + 1, 4 * (n - 1)) if n % 2 == 0 else rat(1, 4)


def chebyshev_u_inverse_b(n):
    return ZERO


def chebyshev_t_inverse_b(n):
    return ZERO


def chebyshev_u_inverse_a(n):
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return rat(-1, 4)
    return rat(n + 2, 4 * n) if n % 2 == 0 else rat(n - 1, 4 * (n + 1))


def chebyshev_t_inverse_a(n):
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return rat(-1, 2)
    return rat(n + 1, 4 * (n - 1)) if n % 2 == 0 else rat(n - 2, 4 * n)


# -- frozen Laguerre closed forms ---------------------------------------

def laguerre_value_at_zero(alpha, n):
    """Monic value at the origin: (-1)^n (alpha+2)_n."""
    sign = -1 if n % 2 else 1
    return sign * pochhammer(rat(alpha) + 2, n)


def laguerre_derivative_at_zero(alpha, n):
    """Monic derivative at the origin: (-1)^(n+1) n (alpha+3)_(n-1)."""
    if n == 0:
        return ZERO
    sign = 1 if n % 2 else -1
    return sign * n * pochhammer(rat(alpha) + 3, n - 1)


def laguerre_assoc_zero_value(alpha, n):
    """First-associated value at the origin:
    (-1)^n ((alpha+2)_(n+1) - (n+1)!) / (alpha+1)."""
    alpha = rat(alpha)
    sign = -1 if n % 2 else 1
    return sign * (pochhammer(alpha + 2, n + 1) - math.factorial(n + 1)) / (alpha + 1)


def laguerre_d_star(alpha, n):
    """-(alpha+2)_(n-1) (alpha+3)_(n-1), first-moment normalized."""
    if n < 1:
        raise ValueError("n must be at least 1")
    alpha = rat(alpha)
    return -(pochhammer(alpha + 2, n - 1) * pochhammer(alpha + 3, n - 1))


def laguerre_inverse_alpha1(alpha, n):
    """First connection coefficient onto the first-associated basis."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 2 * (n + rat(alpha) + 2)


def laguerre_inverse_alpha2(alpha, n):
    if n < 2:
        raise ValueError("n must be at least 2")
    alpha = rat(alpha)
    return (n + alpha + 1) * (n + alpha + 2)


def laguerre_inverse_b(alpha, n):
    alpha = rat(alpha)
    if n == 0:
        return -(alpha + 2)
    return 2 * n + alpha + 2


def laguerre_inverse_a(alpha, n):
    if n < 1:
        raise ValueError("n must be at least 1")
    alpha = rat(alpha)
    if n == 1:
        return -((alpha + 2) * (alpha + 3))
    return (n - 1) * (n + alpha + 2)


# -- frozen factorization entries ---------------------------------------

def chebyshev_u_christoffel_ell(n):
    """Lower entry of the kernel step at c = 1: -n / (2(n+1))."""
    return rat(-n, 2 * (n + 1))


def chebyshev_u_christoffel_beta(n):
    """Pivot of the kernel step at c = 1: -(n+2) / (2(n+1))."""
    return rat(-(n + 2), 2 * (n + 1))


def laguerre_geronimus_ell(n):
    """Lower entry of the inverse kernel step at c = 0, m0 = 1/(alpha+1)."""
    return rat(n)


def laguerre_geronimus_beta(alpha, n):
    """Pivot of the inverse kernel step at c = 0: alpha + n + 1."""
    return rat(alpha) + n + 1


# -- the family table ----------------------------------------------------

# A closed-form table that `opoly example` checks: its name, which is also
# the key of its library route in `opoly.cli.ROUTES`; one closed form
# want(n) per sequence of that route; and what a factorization route
# passes after the recurrence: c, and beta_0 for the UL factors.
Table = namedtuple("Table", "name wants params", defaults=((),))

# moments(alpha, order) and tables(alpha), the tables `opoly example` checks
Family = namedtuple("Family", "moments tables")


def _inverse_tables(*wants):
    """The convolution inverse's b, a, d*, alpha1 and alpha2 tables."""
    names = ("b-minus-table", "a-minus-table", "d-star-table", "alpha1-table", "alpha2-table")
    return tuple(Table(name, (want,)) for name, want in zip(names, wants, strict=True))


CHEBYSHEV_U_TABLES = _inverse_tables(
    chebyshev_u_inverse_b, chebyshev_u_inverse_a, chebyshev_u_d_star,
    lambda n: ZERO, chebyshev_u_alpha2,
) + (
    Table("kernel-step-table", (chebyshev_u_christoffel_beta, chebyshev_u_christoffel_ell), (ONE,)),
)

CHEBYSHEV_T_TABLES = _inverse_tables(
    chebyshev_t_inverse_b, chebyshev_t_inverse_a, chebyshev_t_d_star,
    lambda n: ZERO, chebyshev_t_alpha2,
)


def laguerre_tables(alpha):
    """The Laguerre tables, their closed forms taken at alpha."""
    at = functools.partial
    return _inverse_tables(
        at(laguerre_inverse_b, alpha), at(laguerre_inverse_a, alpha),
        at(laguerre_d_star, alpha), at(laguerre_inverse_alpha1, alpha),
        at(laguerre_inverse_alpha2, alpha),
    ) + (
        # c = 0 and m0 = 1/(alpha + 1): beta_0 = u_0/m0 = alpha + 1, as u_0 = 1
        Table(
            "inverse-kernel-step-table",
            (at(laguerre_geronimus_beta, alpha), laguerre_geronimus_ell),
            (ZERO, rat(alpha) + 1),
        ),
        Table(
            "value-at-zero-table",
            (at(laguerre_value_at_zero, alpha), at(laguerre_derivative_at_zero, alpha)),
        ),
        Table("assoc-value-at-zero-table", (at(laguerre_assoc_zero_value, alpha),)),
    )


FAMILIES = {
    "chebyshev-u": Family(lambda alpha, order: chebyshev_u(order), lambda alpha: CHEBYSHEV_U_TABLES),
    "chebyshev-t": Family(lambda alpha, order: chebyshev_t(order), lambda alpha: CHEBYSHEV_T_TABLES),
    "laguerre": Family(laguerre, laguerre_tables),
}
