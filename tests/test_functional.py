"""Moment functionals and their algebra: convolution, polynomial action, division."""

import pytest
from conftest import linear_power

from opoly import families
from opoly import functional as fa
from opoly.errors import (
    DegenerateParameter,
    TruncationExhausted,
    ZeroFirstMoment,
)
from opoly.functional import MomentFunctional
from opoly.poly import X, ZERO_POLY
from opoly.rational import rat


def test_construction_and_order():
    u = MomentFunctional((1, 2, 3))
    assert u.order == 3
    assert u.moment(2) == 3
    with pytest.raises(TruncationExhausted):
        u.moment(3)
    with pytest.raises(ValueError):
        MomentFunctional(())


def test_truncated_and_relabeled():
    u = MomentFunctional((1, 2, 3), label="demo")
    t = u.truncated(2)
    assert t.moments == (1, 2) and t.label == "demo"
    assert u.relabeled("other").label == "other"
    with pytest.raises(TruncationExhausted):
        u.truncated(4)
    with pytest.raises(ValueError):
        u.truncated(0)


def test_normalized():
    u = MomentFunctional((2, 3))
    assert u.normalized().moments == (1, rat(3, 2))
    with pytest.raises(ZeroFirstMoment):
        MomentFunctional((0, 1)).normalized()


def test_delta_and_derivative():
    d = fa.delta(rat(1, 2), 4)
    assert d.moments == (1, rat(1, 2), rat(1, 4), rat(1, 8))
    dprime = fa.derivative(fa.delta(0, 5))
    assert dprime.moments == (0, -1, 0, 0, 0)
    with pytest.raises(TruncationExhausted):
        fa.derivative(MomentFunctional((1,)))


def test_linear_combinations():
    u = MomentFunctional((1, 2))
    v = MomentFunctional((3, 4, 5))
    assert fa.add(u, v).moments == (4, 6)
    assert fa.sub(v, u).moments == (2, 2)
    assert fa.scale(rat(1, 2), u).moments == (rat(1, 2), 1)


def test_convolution_and_inverse_unit():
    u = MomentFunctional((1, 1, 1, 1))
    v = MomentFunctional((1, 2, 3, 4))
    w = fa.convolve(u, v)
    assert w.moments == (1, 3, 6, 10)
    unit = fa.convolve(u, fa.invert(u))
    assert unit.moments == (1, 0, 0, 0)


def test_invert_requires_nonzero_first_moment():
    with pytest.raises(ZeroFirstMoment):
        fa.invert(MomentFunctional((0, 1)))


def test_invert_is_an_involution():
    u = families.laguerre(rat(1, 3), 10)
    assert fa.invert(fa.invert(u)).moments == u.moments


def test_inverse_moments_of_chebyshev_u():
    # u_n = Catalan moments; the convolution inverse starts
    # 1, 0, -1/4, 0, -1/16, 0, -1/32, 0 (derived by clearing the
    # convolution triangle by hand).
    u = families.chebyshev_u(8)
    assert fa.invert(u).moments == (
        1, 0, rat(-1, 4), 0, rat(-1, 16), 0, rat(-1, 32), 0,
    )


def test_inverse_moments_of_laguerre():
    # (n+1)! moments invert to 1, -2, -2, -8, -44 (hand triangle).
    u = families.laguerre(0, 5)
    assert fa.invert(u).moments == (1, -2, -2, -8, -44)


def test_apply():
    u = MomentFunctional((1, 2, 3))
    assert fa.apply(u, X * X - 1) == 3 - 1
    assert fa.apply(u, ZERO_POLY) == 0
    with pytest.raises(TruncationExhausted):
        fa.apply(u, X ** 3)


def test_multiply_poly_drops_order_and_shifts():
    u = MomentFunctional((1, 2, 3, 4))
    tilde = fa.multiply_poly(u, X - 1)
    assert tilde.order == 3
    assert tilde.moments == (2 - 1, 3 - 2, 4 - 3)
    with pytest.raises(TruncationExhausted):
        fa.multiply_poly(u, X ** 4)
    with pytest.raises(DegenerateParameter):
        fa.multiply_poly(u, ZERO_POLY)


def test_multiply_poly_accepts_coefficient_sequences():
    u = MomentFunctional((1, 2, 3, 4))
    assert fa.multiply_poly(u, (0, 1)).moments == fa.multiply_poly(u, X).moments


def test_divide_power_prepends_vanishing_moments():
    u = families.chebyshev_u(8)
    w = fa.divide_power(u, rat(1, 2), 2)
    assert w.order == u.order + 2
    assert w.moments[0] == 0 and w.moments[1] == 0
    # multiplying back by (x - c)^2 recovers u exactly
    back = fa.multiply_poly(w, linear_power(rat(1, 2), 2))
    assert back.moments == u.moments
    with pytest.raises(ValueError):
        fa.divide_power(u, 0, 0)


def test_geronimus_round_trip_and_mass():
    u = families.chebyshev_t(10)
    v = fa.geronimus(u, rat(1, 3), rat(-2, 5))
    assert v.order == u.order + 1
    assert v.moments[0] == rat(-2, 5)
    assert fa.multiply_poly(v, X - rat(1, 3)).moments == u.moments


def test_quadratic_geronimus_round_trip_and_masses():
    u = families.laguerre(rat(1, 2), 10)
    v = fa.quadratic_geronimus(u, rat(-1), rat(1), rat(1, 5))
    assert v.order == u.order + 2
    assert v.moments[0] == 1 and v.moments[1] == rat(1, 5)
    assert fa.multiply_poly(v, linear_power(rat(-1), 2)).moments == u.moments


def test_equality_predicates():
    u = MomentFunctional((1, 2, 3))
    v = MomentFunctional((2, 4, 6, 100))
    # equality reads the whole window; a shorter window is a truncation
    assert u == u.truncated(3) and u != v
    assert v.truncated(3).normalized() == u.normalized()
    assert MomentFunctional((1, 2, 3, 4)).truncated(3) == u
    with pytest.raises(TruncationExhausted):
        u.truncated(4)
