"""Randomized exact-arithmetic properties (hypothesis)."""

import pytest
from conftest import gram_schmidt
from hypothesis import assume, given, settings, strategies as st

from opoly import functional as fa
from opoly.associated import corecursive_two_route_check, origin_wronskians
from opoly.errors import NotQuasiDefinite
from opoly.matrices import band_from_entries, mat_multiply, mat_power
from opoly.orthopoly import (
    OrthogonalSystem,
    RecurrenceCoefficients,
    hankel_minor,
    jacobi_matrix,
    moments_from_jacobi,
    polys_from_recurrence,
    smop_from_moments,
)
from opoly.poly import linear_power, wronskian
from opoly.rational import ONE, rat
from opoly.series import LaurentSeries, series_multiply

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=25)
settings.load_profile("suite")

rationals = st.builds(rat, st.integers(-9, 9), st.integers(1, 9))
nonzero = st.builds(
    rat, st.integers(-9, 9).filter(lambda n: n != 0), st.integers(1, 9)
)
small = st.integers(-3, 3)


def make_functional(first, rest):
    return fa.functional((first,) + tuple(rest))


@given(nonzero, st.lists(rationals, min_size=3, max_size=9))
def test_convolution_inverse_is_an_involution(first, rest):
    u = make_functional(first, rest)
    assert fa.equal_functionals(fa.invert(fa.invert(u)), u)


@given(nonzero, st.lists(rationals, min_size=3, max_size=9), rationals)
def test_divide_undoes_multiply(first, rest, c):
    u = make_functional(first, rest)
    product = fa.multiply_poly(u, linear_power(c, 1))
    back = fa.divide_power(product, c, 1)
    # the quotient functional carries no mass at c; restoring u's mass
    # there reproduces u exactly, at full order
    restored = fa.add(back, fa.scale(u.moments[0], fa.delta(c, back.order)))
    assert restored.order == u.order
    assert fa.equal_functionals(restored, u)


@given(nonzero, st.lists(rationals, min_size=3, max_size=9), rationals, nonzero)
def test_multiply_undoes_geronimus(first, rest, c, m0):
    u = make_functional(first, rest)
    transformed = fa.geronimus(u, c, m0)
    back = fa.multiply_poly(transformed, linear_power(c, 1))
    assert fa.equal_functionals(back, u)


@given(
    st.lists(rationals, min_size=4, max_size=6),
    st.lists(nonzero, min_size=3, max_size=5),
    nonzero,
)
def test_favard_round_trip(b, a, norm0):
    size = min(len(b), len(a) + 1)
    rc = RecurrenceCoefficients(b[:size], a[: size - 1])
    u = moments_from_jacobi(jacobi_matrix(rc, size), norm0, 2 * size - 1)
    depth = (2 * size - 1) // 2
    again, system = smop_from_moments(u, depth)
    assert again.b == rc.b[:depth]
    assert again.a == rc.a[: depth - 1]
    acc = norm0
    assert system.norms[0] == acc
    for k in range(1, depth):
        acc = acc * rc.a_at(k)
        assert system.norms[k] == acc


@given(
    st.lists(rationals, min_size=5, max_size=7),
    st.lists(nonzero, min_size=4, max_size=6),
    rationals,
)
def test_corecursive_two_routes_agree(b, a, alpha):
    size = min(len(b), len(a) + 1)
    rc = RecurrenceCoefficients(b[:size], a[: size - 1])
    report = corecursive_two_route_check(rc, alpha, size - 1)
    assert report.passed


@given(
    nonzero,
    st.lists(rationals, min_size=1, max_size=4),
    nonzero,
    st.lists(rationals, min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_series_products_are_sound_on_their_window(x0, xrest, y0, yrest, up_x, up_y):
    xs = [x0] + xrest
    ys = [y0] + yrest
    s = LaurentSeries(up_x, xs)
    t = LaurentSeries(up_y, ys)
    product = series_multiply(s, t)
    for power in range(product.max_power, product.min_power - 1, -1):
        total = rat(0)
        for i, x in enumerate(xs):
            j = power - (up_x - i)
            if t.knows(j):
                total += x * t.coefficient(j)
        assert product.coefficient(power) == total


@given(st.data())
def test_band_products_match_dense_products(data):
    size = data.draw(st.integers(2, 6))

    def draw_band():
        lowest = data.draw(st.integers(-2, 0))
        highest = data.draw(st.integers(0, 2))
        grid = [[data.draw(rationals) for _ in range(size)] for _ in range(size)]
        return band_from_entries(size, lowest, highest, lambda i, j: grid[i][j])

    left = draw_band()
    right = draw_band()
    product = mat_multiply(left, right)
    for i in range(size):
        for j in range(size):
            want = sum(
                (left.entry(i, k) * right.entry(k, j) for k in range(size)),
                rat(0),
            )
            assert product.entry(i, j) == want


# -- moments -> recurrence: the Chebyshev algorithm against independent routes

@st.composite
def recurrence_moments(draw, min_order=4, max_order=40):
    """(rc, u): a random quasi-definite recurrence and `order` of its moments.

    rc has order // 2 + 1 coefficients, enough to determine every moment.
    """
    order = draw(st.integers(min_order, max_order))
    length = order // 2 + 1
    b = draw(st.lists(rationals, min_size=length, max_size=length))
    a = draw(st.lists(nonzero, min_size=length - 1, max_size=length - 1))
    rc = RecurrenceCoefficients(b, a)
    u = moments_from_jacobi(jacobi_matrix(rc, length), draw(nonzero), order)
    return rc, u


@given(recurrence_moments())
def test_chebyshev_algorithm_matches_gram_schmidt_and_hankel_ratios(drawn):
    rc, u = drawn
    n_max = u.order // 2
    got_rc, got = smop_from_moments(u, n_max)
    want_rc, want = gram_schmidt(u, n_max)
    assert got_rc == want_rc == rc.truncated(n_max)
    assert got.norms == want.norms
    minors = [hankel_minor(u, k) for k in range(n_max)]
    assert got.norms[0] == minors[0]
    for k in range(1, n_max):
        assert got.norms[k] == minors[k] / minors[k - 1]


@given(recurrence_moments(min_order=6), st.data())
def test_a_vanishing_a_k_fails_at_level_k_on_every_route(drawn, data):
    rc, _ = drawn
    n_max = rc.length - 1
    level = data.draw(st.integers(1, n_max - 1))
    a = list(rc.a)
    a[level - 1] = rat(0)
    broken = RecurrenceCoefficients(rc.b, a)
    u = moments_from_jacobi(jacobi_matrix(broken, broken.length), 1, 2 * n_max)
    for route in (smop_from_moments, gram_schmidt):
        with pytest.raises(NotQuasiDefinite) as excinfo:
            route(u, n_max)
        assert (excinfo.value.level, excinfo.value.guard) == (level, "norm")
    assert all(hankel_minor(u, k) != 0 for k in range(level))
    assert hankel_minor(u, level) == 0


@given(recurrence_moments())
def test_lazy_system_builds_the_eager_polynomials(drawn):
    _, u = drawn
    n_max = u.order // 2
    rc, lazy = smop_from_moments(u, n_max)
    eager = OrthogonalSystem(polys_from_recurrence(rc, n_max), lazy.norms)
    assert lazy.n_max == eager.n_max == n_max
    assert lazy.polys == eager.polys == gram_schmidt(u, n_max)[1].polys


@given(recurrence_moments(min_order=6))
def test_origin_wronskians_match_polynomial_wronskians(drawn):
    rc, u = drawn
    n_max = u.order // 2 - 1
    got_rc, skips, ws = origin_wronskians(u, n_max)
    assert got_rc == rc.truncated(n_max + 1)
    base = polys_from_recurrence(rc, n_max + 1)
    assert ws == {n: wronskian(base[n], base[n - 1], 0) for n in range(1, n_max + 2)}
    assert skips == {
        n: wronskian(base[n + 1], base[n - 1], 0) for n in range(1, n_max + 1)
    }


@given(st.data())
def test_banded_moments_match_matrix_powers(data):
    size = data.draw(st.integers(3, 8))
    lowest = data.draw(st.integers(-3, 0))
    highest = data.draw(st.integers(0, 3))
    margin = data.draw(st.integers(1, size - 1))
    unit_top = data.draw(st.booleans())
    grid = [[data.draw(rationals) for _ in range(size)] for _ in range(size)]

    def entry(i, j):
        return ONE if unit_top and j - i == highest else grid[i][j]

    j = band_from_entries(size, lowest, highest, entry, margin=margin)
    assume(j.lower > 1 or j.upper > 1)
    u0 = data.draw(nonzero)
    n = data.draw(st.integers(1, 2 * j.reliable - 1))
    got = moments_from_jacobi(j, u0, n)
    assert list(got.moments) == [u0 * mat_power(j, k).entry(0, 0) for k in range(n)]
