"""Polynomial arithmetic, point evaluation with derivatives, and the
integer combination kernel that sums and the identity checks share."""

import random

import pytest
from conftest import FractionPolynomial, derivatives_at, is_monic, linear_power, monomial

from opoly.poly import (
    ONE_POLY,
    X,
    ZERO_POLY,
    Polynomial,
    _combine,
    wronskian,
)
from opoly.rational import rat


def test_trailing_zeros_are_stripped():
    p = Polynomial((1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (1, 2)


def test_zero_polynomial_has_degree_minus_one():
    assert ZERO_POLY.degree == -1
    assert ZERO_POLY.is_zero
    assert Polynomial((0, 0)).degree == -1


def test_monic_detection():
    assert is_monic(X)
    assert is_monic(X * X - rat(1, 4))
    assert not is_monic(2 * X)
    assert not is_monic(ZERO_POLY)


def test_arithmetic_identities():
    assert (X + 1) * (X - 1) == X * X - 1
    assert (X + rat(1, 2)) ** 2 == X * X + X + rat(1, 4)
    assert 2 - X == -(X - 2)
    assert X + ZERO_POLY == X
    assert X * ZERO_POLY == ZERO_POLY


def test_scalar_coercion():
    assert X + rat(1, 3) == Polynomial((rat(1, 3), 1))
    assert rat(2) * X == Polynomial((0, 2))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Polynomial((0.5,))
    with pytest.raises(TypeError):
        X + 0.5


def test_power_requires_nonnegative_integer():
    with pytest.raises(ValueError):
        X ** -1


def test_evaluation_is_exact():
    p = X * X - rat(1, 4)
    assert p(rat(1, 2)) == 0
    assert p(rat(1, 3)) == rat(1, 9) - rat(1, 4)
    assert p("1/2") == 0


def test_monomial_and_linear_power():
    assert monomial(3) == X ** 3
    assert monomial(2, rat(1, 2)) == rat(1, 2) * X * X
    assert linear_power(rat(1, 2), 3) == (X - rat(1, 2)) ** 3


def test_derivative():
    p = X ** 3 - 2 * X
    assert p.derivative() == 3 * X * X - 2
    assert ONE_POLY.derivative() == ZERO_POLY


def test_derivatives_at_matches_repeated_differentiation():
    p = (X - 3) ** 4 + X
    values = derivatives_at(p, rat(1, 2), 4)
    q = p
    for k in range(5):
        assert values[k] == q(rat(1, 2))
        q = q.derivative()


def test_derivatives_at_taylor_contraction():
    p = (X - 3) ** 4
    assert derivatives_at(p, 3, 4) == (0, 0, 0, 0, 24)


def test_derivatives_beyond_degree_are_zero():
    assert derivatives_at(X, 5, 3) == (5, 1, 0, 0)
    assert derivatives_at(ZERO_POLY, 1, 2) == (0, 0, 0)


def test_wronskian_of_consecutive_chebyshev_like_polys():
    # P_2 = x^2 - 1/4 and P_1 = x: W(P_2, P_1)(0) = P_2(0)*1 - 0*0 = -1/4
    p2 = X * X - rat(1, 4)
    assert wronskian(p2, X, 0) == rat(-1, 4)


def test_wronskian_is_antisymmetric():
    p = X ** 3 - X
    q = 2 * X * X + 1
    at = rat(2, 3)
    assert wronskian(p, q, at) == -wronskian(q, p, at)
    assert wronskian(p, p, at) == 0


def _draw_poly(rng, degree):
    """A random polynomial of the given degree (-1 is zero), wide and narrow coefficients."""
    if degree < 0:
        return ZERO_POLY
    coeffs = [rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
    top = rat(rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.randint(1, 10**12))
    return Polynomial(coeffs + [top])


def _draw_scalar(rng):
    return rng.choice([0, 1, -1, rat(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9))])


def _reference(terms):
    """The sum of the terms with one Fraction per coefficient operation."""
    total = FractionPolynomial()
    for scalar, p, *f in terms:
        term = FractionPolynomial(p.coeffs) * scalar
        for g in f:
            term = term * FractionPolynomial(g.coeffs)
        total = total + term
    return total


def _draw_terms(rng):
    """One to four terms: zero scalars and zero polynomials, mixed degrees,
    no factor, (x - c), (x - c)^2 with c of either sign, or a general factor;
    then, half the time, a term that cancels the sum's top degree or all of it."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        p = _draw_poly(rng, rng.randint(-1, 6))
        c = rat(rng.randint(-9, 9), rng.randint(1, 9))
        factor = rng.choice([(), (X - c,), ((X - c) ** 2,), (_draw_poly(rng, rng.randint(-1, 3)),)])
        terms.append((_draw_scalar(rng), p) + factor)
    total = _reference(terms)
    cancel = rng.choice(["none", "top", "all"])
    if total.coeffs and cancel == "top":
        terms.append((-total.coeffs[-1], X ** total.degree))
    elif total.coeffs and cancel == "all":
        scale = rat(rng.randint(1, 9), rng.randint(1, 9))
        terms.append((-1 / scale, Polynomial(total.coeffs), Polynomial((scale,))))
    return terms


def test_the_combination_kernel_matches_the_fraction_reference():
    rng = random.Random(23)
    vanishing = 0
    for draw in range(300):
        terms = _draw_terms(rng)
        want = _reference(terms)
        nums, den = _combine(terms)
        assert den > 0 and all(type(v) is int for v in nums), draw
        assert any(nums) == bool(want.coeffs), draw
        got = Polynomial.from_integers(nums, den)
        assert got.coeffs == want.coeffs and got == Polynomial(want.coeffs), draw
        vanishing += not want.coeffs
    # the cancelling terms make the zero test see both answers
    assert 50 < vanishing < 250


def test_the_combination_kernel_works_over_the_lcm_without_reducing():
    # 1/6 + x/3 over 6 and 1/4 (x - 1/2) over 8 meet over their lcm, 24
    p = Polynomial((rat(1, 6), rat(1, 3)))
    assert _combine([(1, p), (rat(1, 4), ONE_POLY, X - rat(1, 2))]) == ([1, 14], 24)
    # 1/2 + 1/2 stays 2/2: no gcd runs over the numerators
    half = Polynomial((rat(1, 2),))
    assert _combine([(1, half), (1, half)]) == ([2], 2)
    # a vanishing combination keeps its zero numerators
    assert _combine([(2, X * X), (-1, X, 2 * X)]) == ([0, 0, 0], 1)
    assert _combine([]) == ([], 1)
    assert _combine([(0, X), (5, ZERO_POLY, X)]) == ([], 1)
