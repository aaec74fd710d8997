"""Polynomial arithmetic, exact division, and point evaluation with derivatives."""

import pytest
from conftest import linear_power, monomial

from opoly.poly import (
    ONE_POLY,
    X,
    ZERO_POLY,
    Polynomial,
    derivatives_at,
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
    assert ZERO_POLY.leading_coefficient == 0


def test_monic_detection():
    assert X.is_monic
    assert (X * X - rat(1, 4)).is_monic
    assert not (2 * X).is_monic
    assert not ZERO_POLY.is_monic


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


def test_exact_division():
    q, r = divmod(X ** 3 - 1, X - 1)
    assert q == X * X + X + 1
    assert r.is_zero
    assert (X ** 3 - 1) // (X - 1) == q
    assert (X ** 3 - 1) % (X - 1) == ZERO_POLY


def test_division_with_remainder_reconstructs():
    num = monomial(5)
    den = linear_power(2, 2)
    q, r = divmod(num, den)
    assert q * den + r == num
    assert r.degree < den.degree


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(X, ZERO_POLY)


def test_division_by_higher_degree_gives_zero_quotient():
    q, r = divmod(X, X ** 3)
    assert q.is_zero
    assert r == X


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
