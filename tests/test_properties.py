"""Randomized exact-arithmetic properties (hypothesis)."""

import json
from math import gcd

import pytest
from conftest import (
    FractionPolynomial,
    chebyshev_reference,
    christoffel_lu_reference,
    corecursive_by_subtraction,
    divide_power_reference,
    divided_difference_reference,
    first_block_mismatch_reference,
    first_moment_mismatch_reference,
    fraction_derivatives_at,
    fraction_wronskian,
    geronimus_ul_reference,
    gram_schmidt,
    invert_reference,
    linear_power,
    multiply_poly_reference,
    polys_reference,
    power_reference,
    product_reference,
    quadratic_kernel_reference,
    run_cli,
    series_multiply_reference,
    shifted_reference,
    values_and_slopes_reference,
)
from hypothesis import Phase, assume, given, settings, strategies as st

from opoly import functional as fa
from opoly import quadratic, serialize
from opoly.associated import (
    divided_difference,
    associated_functional,
    associated_polys,
    corecursive_functional,
    corecursive_polys,
    inverse_connection,
    inverse_kernel,
    inverse_recurrence,
    inverse_smop,
    quadratic_kernel,
)
from opoly.darboux import christoffel_lu, geronimus_ul
from opoly.errors import DegenerateParameter, NotQuasiDefinite, ZeroPivot
from opoly.functional import MomentFunctional
from opoly.matrices import (
    BandMatrix,
    band_from_entries,
    first_block_mismatch,
    identity,
    mat_multiply,
    mat_power,
    shift_cols_left,
    shift_rows_up,
    shifted,
)
from opoly.orthopoly import (
    OrthogonalSystem,
    RecurrenceCoefficients,
    first_moment_off,
    hankel_minor,
    jacobi_matrix,
    kernel_values,
    moments_from_jacobi,
    polys_from_recurrence,
    smop_from_moments,
    values_and_slopes,
)
from opoly.poly import Polynomial, X, derivatives_at, wronskian
from opoly.quadratic import (
    assoc_inverse_factorization,
    quadratic_connection,
    quadratic_factorization,
    quadratic_geronimus_smop,
    quadratic_recurrence,
)
from opoly.rational import ONE, Rational, rat
from opoly.series import LaurentSeries, series_multiply

# no explain phase: on a failure with huge rational reprs it can run for
# minutes before the report; every example is still generated and shrunk
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=25,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
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
    assert fa.invert(fa.invert(u)) == u


@given(nonzero, st.lists(rationals, min_size=3, max_size=9), rationals)
def test_divide_undoes_multiply(first, rest, c):
    u = make_functional(first, rest)
    product = fa.multiply_poly(u, linear_power(c, 1))
    back = fa.divide_power(product, c, 1)
    # the quotient functional carries no mass at c; restoring u's mass
    # there reproduces u exactly, at full order
    restored = fa.add(back, fa.scale(u.moments[0], fa.delta(c, back.order)))
    assert restored.order == u.order
    assert restored == u


@given(nonzero, st.lists(rationals, min_size=3, max_size=9), rationals, nonzero)
def test_multiply_undoes_geronimus(first, rest, c, m0):
    u = make_functional(first, rest)
    transformed = fa.geronimus(u, c, m0)
    back = fa.multiply_poly(transformed, linear_power(c, 1))
    assert back == u


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
    assert corecursive_polys(rc, alpha, size - 1) == corecursive_by_subtraction(rc, alpha, size - 1)


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


# large, mostly coprime denominators, so one common denominator is big
wide_denominators = st.one_of(
    st.sampled_from((1, 2, 3, 7, 101, 9973, 65537, 999983, 2**31 - 1)),
    st.integers(1, 10**9),
)
wide_rationals = st.one_of(
    st.just(rat(0)), st.builds(rat, st.integers(-(10**9), 10**9), wide_denominators)
)
wide_nonzero = st.builds(
    rat, st.integers(-(10**9), 10**9).filter(lambda n: n != 0), wide_denominators
)
scalars = st.one_of(rationals, wide_rationals)


@st.composite
def wide_recurrence_moments(draw, min_order=4, max_order=16):
    """(rc, u) as in recurrence_moments, with coefficients and u_0 of wide height.

    Many b's are zero; u_0 is any nonzero rational, negative included.
    """
    order = draw(st.integers(min_order, max_order))
    length = order // 2 + 1
    b = draw(st.lists(wide_rationals, min_size=length, max_size=length))
    a = draw(st.lists(wide_nonzero, min_size=length - 1, max_size=length - 1))
    rc = RecurrenceCoefficients(b, a)
    u = moments_from_jacobi(jacobi_matrix(rc, length), draw(wide_nonzero), order)
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


@given(
    st.one_of(recurrence_moments(min_order=6), wide_recurrence_moments(min_order=6, max_order=12)),
    st.data(),
)
def test_a_vanishing_a_k_fails_at_level_k_on_every_route(drawn, data):
    rc, u = drawn
    n_max = rc.length - 1
    level = data.draw(st.integers(1, n_max - 1))
    a = list(rc.a)
    a[level - 1] = rat(0)
    broken = RecurrenceCoefficients(rc.b, a)
    u = moments_from_jacobi(jacobi_matrix(broken, broken.length), u.moments[0], 2 * n_max)
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


@given(recurrence_moments(), rationals)
def test_values_and_slopes_match_derivatives_at(drawn, c):
    rc, _ = drawn
    n = rc.length
    polys = polys_from_recurrence(rc, n)
    for at in (c, rat(0)):
        values, slopes, dens = values_and_slopes(rc, at, n)
        assert [(Rational(v, d), Rational(s, d)) for v, s, d in zip(values, slopes, dens)] == [
            derivatives_at(p, at, 1) for p in polys
        ]


# -- the inverse functional is the quadratic Geronimus transform at 0

@given(recurrence_moments(min_order=6))
def test_inverse_d_star_is_the_origin_wronskian(drawn):
    rc, u = drawn
    n_max = u.order // 2 - 1
    base = polys_from_recurrence(rc, n_max + 1)
    ws = {m: wronskian(base[m], base[m - 1], 0) for m in range(1, n_max + 2)}
    assume(all(ws[m] != 0 for m in range(2, n_max + 1)))
    _, _, d_star = inverse_connection(u, n_max)
    assert d_star == {m: w / u.moments[0] ** 2 for m, w in ws.items()}


@given(recurrence_moments(min_order=12))
def test_inverse_producers_are_the_quadratic_ones_on_the_scaled_associated(drawn):
    # x^2 u^{-1} = kappa u^(1), with kappa = -a_1/u_0, and u^{-1} has
    # moments 1/u_0, -b_0/u_0: each inverse producer must agree with its
    # quadratic counterpart run on the moments of kappa u^(1) at c = 0
    rc, u = drawn
    u0 = u.moments[0]
    n = rc.length - 4
    # w by the shifted recurrence, independent of the invert route that
    # both associated_functional and the inverse producers take
    shifted = rc.shifted(1)
    w = moments_from_jacobi(jacobi_matrix(shifted, shifted.length), -rc.a_at(1) / u0, 2 * rc.length - 3)
    m0, m1 = 1 / u0, -rc.b_at(0) / u0
    try:
        want_rc = quadratic_recurrence(w, 0, m0, m1, n)
    except NotQuasiDefinite:
        assume(False)
    assert inverse_recurrence(u, n) == want_rc
    got, got_d = inverse_smop(u, n)
    want, want_d = quadratic_geronimus_smop(w, 0, m0, m1, n)
    assert got.polys == want.polys and got.norms == want.norms
    assert got_d[1] == -1 / u0 ** 2
    assert all(got_d[m] == -want_d[m] for m in range(2, n + 2))
    got_l, got_u = assoc_inverse_factorization(u, n)
    want_l, want_u = quadratic_factorization(w, 0, m0, m1, n)
    assert got_l.to_band() == want_l.to_band() and got_u.to_band() == want_u.to_band()


# -- degenerate transforms fail at the first vanishing Hankel minor

@given(recurrence_moments(min_order=8), rationals, rationals, st.data())
def test_a_vanishing_d_star_fails_every_quadratic_producer_at_its_minor(drawn, c, weight, data):
    # with the weight m1 - c m0 fixed, S_n does not depend on m0 and
    # T_n = S_n'(c) + m0 P_n(c) is affine in it, so d*_{k+1} is too
    rc, u = drawn
    level = data.draw(st.integers(1, u.order // 2 - 3))
    base = polys_from_recurrence(rc, level + 1)
    first = associated_polys(rc, 1, level)
    s, ds, p = [], [], []
    for n in (level - 1, level):
        s_poly = weight * base[n] + (u.moments[0] * first[n - 1] if n else 0)
        s_value, s_slope = derivatives_at(s_poly, c, 1)
        s.append(s_value)
        ds.append(s_slope)
        p.append(base[n](c))
    slope_part = s[0] * ds[1] - s[1] * ds[0]
    mass_part = s[0] * p[1] - s[1] * p[0]
    assume(mass_part != 0 and slope_part != 0)
    m0 = -slope_part / mass_part
    m1 = weight + c * m0
    v = fa.quadratic_geronimus(u, c, m0, m1)
    assume(all(hankel_minor(v, k) != 0 for k in range(level)))
    assert hankel_minor(v, level) == 0
    producers = (
        lambda: quadratic_geronimus_smop(u, c, m0, m1, level + 1),
        lambda: quadratic_connection(u, c, m0, m1, level + 1),
        lambda: quadratic_recurrence(u, c, m0, m1, level + 1),
        lambda: quadratic_factorization(u, c, m0, m1, level + 1),
    )
    for producer in producers:
        with pytest.raises(NotQuasiDefinite) as excinfo:
            producer()
        assert (excinfo.value.level, excinfo.value.guard) == (level, "d_star")
    # and so does every CLI consumer of the kernel: factorize quadratic at
    # its default (largest) size, conex2 at --n reading d*_2..d*_{n+2} and
    # propLUinversa at --n reading d*_2..d*_n
    params = ["--c=%s" % c, "--m0=%s" % m0, "--m1=%s" % m1]
    assert_cli_fails_at(["factorize", "quadratic"] + params, u, level)
    for name, n in (("conex2", max(1, level - 1)), ("propLUinversa", level + 1)):
        assert_cli_fails_at(["verify", name, "--n", str(n)] + params, u, level)


@given(recurrence_moments(min_order=8), st.data())
def test_a_vanishing_origin_wronskian_fails_every_inverse_producer_at_its_minor(drawn, data):
    # W(P_{k+1}, P_k)(0) = a_k W(P_k, P_{k-1})(0) - P_k(0)^2 is affine in a_k
    rc, u = drawn
    level = data.draw(st.integers(1, u.order // 2 - 2))
    base = polys_from_recurrence(rc, level)
    ws = [wronskian(base[m], base[m - 1], 0) for m in range(1, level + 1)]
    assume(all(ws))
    a = list(rc.a)
    a[level - 1] = base[level](0) ** 2 / ws[-1]
    assume(a[level - 1] != 0)
    rc = RecurrenceCoefficients(rc.b, a)
    u = moments_from_jacobi(jacobi_matrix(rc, rc.length), u.moments[0], u.order)
    inverse = fa.invert(u)
    assert all(hankel_minor(inverse, k) != 0 for k in range(level))
    assert hankel_minor(inverse, level) == 0
    producers = (
        lambda: inverse_connection(u, level + 1),
        lambda: inverse_smop(u, level + 1),
        lambda: inverse_recurrence(u, level + 1),
        lambda: assoc_inverse_factorization(u, level + 1),
    )
    for producer in producers:
        with pytest.raises(NotQuasiDefinite) as excinfo:
            producer()
        assert (excinfo.value.level, excinfo.value.guard) == (level, "d_star")
    # relationlu and g-matrix at --n both read the inverse's d*_2..d*_n
    # off one inverse kernel
    for name in ("relationlu", "g-matrix"):
        assert_cli_fails_at(["verify", name, "--n", str(max(3, level + 1))], u, level)


def assert_cli_fails_at(argv, u, level):
    """`opoly argv` on u's moments exits 1 with a typed d* failure at level."""
    code, out, _ = run_cli(argv, serialize.dumps(serialize.moments_record(u)))
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotQuasiDefinite"
    assert (payload["level"], payload["guard"]) == (level, "d_star")


@given(st.data())
def test_moments_from_jacobi_rejects_a_band_that_is_not_monic_jacobi(data):
    # a general band: moments_from_jacobi takes only diagonal b, subdiagonal
    # a and a unit superdiagonal, and matrix powers stay the reference for
    # the draws that have that shape
    size = data.draw(st.integers(3, 8))
    lowest = data.draw(st.integers(-3, 0))
    highest = data.draw(st.integers(0, 3))
    unit_top = data.draw(st.booleans())
    entries = data.draw(st.sampled_from((rationals, wide_rationals)))
    grid = [[data.draw(entries) for _ in range(size)] for _ in range(size)]

    def entry(i, j):
        return ONE if unit_top and j - i == highest else grid[i][j]

    j = band_from_entries(size, lowest, highest, entry)
    u0 = data.draw(st.one_of(nonzero, wide_nonzero))
    n = data.draw(st.integers(1, 2 * size - 1))
    superdiagonal = j.diagonals.get(1, (rat(0),))
    if set(j.diagonals) <= {-1, 0, 1} and all(x == 1 for x in superdiagonal):
        got = moments_from_jacobi(j, u0, n)
        assert list(got.moments) == [u0 * mat_power(j, k).entry(0, 0) for k in range(n)]
    else:
        with pytest.raises(ValueError):
            moments_from_jacobi(j, u0, n)


# -- the integer kernels against the rational loops they replaced and matrix powers

@given(wide_recurrence_moments())
def test_integer_chebyshev_matches_the_rational_loop(drawn):
    rc, u = drawn
    n_max = u.order // 2
    got_rc, got = smop_from_moments(u, n_max)
    bs, a_s, norms = chebyshev_reference(u, n_max)
    assert got_rc == RecurrenceCoefficients(bs, a_s) == rc.truncated(n_max)
    assert got.norms == tuple(norms)
    assert all(type(x) is type(ONE) for x in got_rc.b + got_rc.a + got.norms)


@given(st.lists(wide_rationals, min_size=2, max_size=14))
def test_integer_chebyshev_fails_where_the_rational_loop_does(moments):
    # arbitrary moments: both routes agree on the recurrence or on the level
    u = fa.functional(moments)
    n_max = u.order // 2
    try:
        want = chebyshev_reference(u, n_max)
    except NotQuasiDefinite as exc:
        with pytest.raises(NotQuasiDefinite) as excinfo:
            smop_from_moments(u, n_max)
        assert (excinfo.value.level, excinfo.value.guard) == (exc.level, "norm")
        assert hankel_minor(u, exc.level) == 0
        return
    got_rc, got = smop_from_moments(u, n_max)
    assert [list(got_rc.b), list(got_rc.a), list(got.norms)] == list(want)


@given(wide_recurrence_moments(max_order=10), wide_nonzero)
def test_integer_vector_iteration_matches_matrix_powers(drawn, u0):
    rc, _ = drawn
    j = jacobi_matrix(rc, rc.length)
    n = 2 * rc.length - 1
    got = moments_from_jacobi(j, u0, n)
    assert list(got.moments) == [u0 * mat_power(j, k).entry(0, 0) for k in range(n)]


@given(wide_nonzero, st.lists(wide_rationals, min_size=0, max_size=16))
def test_integer_inverse_matches_the_rational_loop_and_convolves_to_delta(first, rest):
    u = make_functional(first, rest)
    inverse = fa.invert(u)
    assert inverse == invert_reference(u)
    assert fa.convolve(u, inverse) == fa.delta(0, u.order)


# -- MomentFunctional on integer numerators over one denominator

def assert_canonical(u):
    assert u.den > 0 and gcd(u.den, *u.num) == 1
    assert all(type(v) is int for v in u.num)


@given(st.lists(scalars, min_size=1, max_size=12), st.integers(1, 10**6), st.data())
def test_a_functional_from_rationals_equals_one_from_integers(ms, spread, data):
    u = MomentFunctional(ms)
    den = 1
    for m in ms:
        den = den * m.denominator // gcd(den, m.denominator)
    # the same values over a denominator that is not the least one
    nums = [m.numerator * (den // m.denominator) * spread for m in ms]
    v = MomentFunctional.from_integers(nums, den * spread)
    for w in (u, v):
        assert_canonical(w)
        assert w.moments == tuple(ms) and w.order == len(ms)
        assert all(type(m) is type(ONE) for m in w.moments)
    assert (u.num, u.den) == (v.num, v.den)
    assert u == v and hash(u) == hash(v) and repr(u) == repr(v)
    k = data.draw(st.integers(0, len(ms) - 1))
    assert v.moment(k) == ms[k]
    if any(ms):
        other = list(ms)
        other[k] += 1
        assert MomentFunctional(other) != u
        assert first_moment_mismatch_reference(MomentFunctional(other), u) == k


@given(st.lists(scalars, min_size=1, max_size=12), st.data())
def test_truncated_normalized_and_relabeled_keep_exact_values(ms, data):
    built = MomentFunctional(ms)
    u = MomentFunctional.from_integers(built.num, built.den, label="drawn")
    order = data.draw(st.integers(1, len(ms)))
    cut = u.truncated(order)
    assert cut.moments == tuple(ms[:order]) and cut.label == "drawn"
    assert_canonical(cut)
    assert u.truncated(order) == cut
    renamed = u.relabeled("other")
    assert renamed == u and renamed.label == "other" and renamed.moments == tuple(ms)
    if ms[0] != 0:
        unit = u.normalized()
        assert unit.moments == tuple(m / ms[0] for m in ms)
        assert_canonical(unit)
        assert fa.scale(data.draw(nonzero), u).normalized() == unit


@given(
    st.lists(scalars, min_size=2, max_size=10),
    st.lists(scalars, min_size=1, max_size=10),
    scalars,
)
def test_the_functional_algebra_on_integers_matches_the_rational_formulas(ms, ns, c):
    u, v = MomentFunctional(ms), MomentFunctional(ns)
    order = min(len(ms), len(ns))
    assert fa.add(u, v).moments == tuple(ms[k] + ns[k] for k in range(order))
    assert fa.sub(u, v).moments == tuple(ms[k] - ns[k] for k in range(order))
    assert fa.scale(c, u).moments == tuple(c * m for m in ms)
    assert fa.convolve(u, v).moments == tuple(
        sum((ms[k] * ns[n - k] for k in range(n + 1)), rat(0)) for n in range(order)
    )
    assert fa.delta(c, len(ms)).moments == tuple(c**k for k in range(len(ms)))
    assert fa.derivative(u).moments == (rat(0),) + tuple(
        -n * ms[n - 1] for n in range(1, len(ms))
    )
    p = Polynomial(ns[: len(ms)])
    assert fa.apply(u, p) == sum((a * m for a, m in zip(p.coeffs, ms)), rat(0))
    for w in (fa.add(u, v), fa.scale(c, u), fa.convolve(u, v), fa.delta(c, len(ms))):
        assert_canonical(w)


@given(
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from(("zero", "negative", "any")),
    st.booleans(),
    st.data(),
)
def test_the_fused_moments_loop_matches_matrix_powers(size, b_zero, first, full, data):
    # b = 0 leaves the main diagonal unstored, size 1 has no off-diagonals
    b = [rat(0)] * size if b_zero else data.draw(
        st.lists(wide_rationals, min_size=size, max_size=size)
    )
    a = data.draw(st.lists(wide_nonzero, min_size=size - 1, max_size=size - 1))
    u0 = {
        "zero": rat(0),
        "negative": -abs(data.draw(wide_nonzero)),
        "any": data.draw(wide_rationals),
    }[first]
    j = jacobi_matrix(RecurrenceCoefficients(b, a), size)
    assert (0 in j.diagonals) == any(b)
    n = 2 * size - 1 if full else data.draw(st.integers(1, 2 * size - 1))
    got = moments_from_jacobi(j, u0, n)
    assert_canonical(got)
    assert list(got.moments) == [u0 * mat_power(j, k).entry(0, 0) for k in range(n)]


# -- smop_from_moments keeps the deepest recurrence on the functional

def assert_matches_a_fresh_run(u, n):
    """smop_from_moments(u, n), memo and all, equals a run on a copy of u."""
    got_rc, got = smop_from_moments(u, n)
    want_rc, want = smop_from_moments(MomentFunctional(u.moments), n)
    assert got_rc == want_rc and got_rc.length == n
    assert got.norms == want.norms and got.n_max == n
    assert got.polys == want.polys


@given(wide_recurrence_moments(), st.data())
def test_every_depth_from_the_memo_equals_a_fresh_run(drawn, data):
    _, u = drawn
    top = u.order // 2
    fresh = MomentFunctional(u.moments)
    smop_from_moments(u, top)
    assert u == fresh and hash(u) == hash(fresh) and repr(u) == repr(fresh)
    for n in range(1, top + 1):
        assert_matches_a_fresh_run(u, n)
    # any order of depths: deeper calls run again, shallower ones truncate
    u = MomentFunctional(u.moments)
    for n in data.draw(st.lists(st.integers(1, top), min_size=1, max_size=6)):
        assert_matches_a_fresh_run(u, n)


@given(recurrence_moments(min_order=6), st.data())
def test_a_run_that_fails_leaves_the_memo_correct(drawn, data):
    # a_level = 0 makes K_level the first vanishing norm
    rc, u = drawn
    top = u.order // 2
    level = data.draw(st.integers(1, top - 1))
    a = list(rc.a)
    a[level - 1] = rat(0)
    u = with_moments_of(RecurrenceCoefficients(rc.b, a), u)
    before = data.draw(st.integers(0, level))
    if before:
        smop_from_moments(u, before)
    with pytest.raises(NotQuasiDefinite) as excinfo:
        smop_from_moments(u, data.draw(st.integers(level + 1, top)))
    assert excinfo.value.level == level
    for n in range(1, top + 1):
        if n <= level:
            assert_matches_a_fresh_run(u, n)
        else:
            with pytest.raises(NotQuasiDefinite) as excinfo:
                smop_from_moments(u, n)
            assert (excinfo.value.level, excinfo.value.guard) == (level, "norm")


# -- values, slopes and the quadratic kernel on integers, against the
# rational loops they replaced

@given(wide_recurrence_moments(), scalars)
def test_integer_values_and_slopes_match_the_rational_loop(drawn, c):
    rc, _ = drawn
    for at in (c, rat(0)):
        p, dp, den = values_and_slopes(rc, at, rc.length)
        want_p, want_dp = values_and_slopes_reference(rc, at, rc.length)
        assert [Rational(x, d) for x, d in zip(p, den)] == want_p
        assert [Rational(x, d) for x, d in zip(dp, den)] == want_dp
        assert all(d > 0 and gcd(d, x, y) == 1 for x, y, d in zip(p, dp, den))


def same_kernel_or_error(got, want):
    """Both calls give the same Division, or both fail at the same level."""
    try:
        expected = want()
    except NotQuasiDefinite as exc:
        with pytest.raises(NotQuasiDefinite) as excinfo:
            got()
        assert (excinfo.value.level, excinfo.value.guard) == (exc.level, exc.guard)
        return
    division = got()
    assert division == expected
    assert all(
        type(x) is type(ONE)
        for x in list(division.alpha1.values()) + list(division.alpha2.values())
        + list(division.d_star.values()) + division.norms + division.base_norms
    )


# s and t numerators: small ones make a vanishing d* likely
kernel_numerators = st.one_of(st.integers(-3, 3), st.integers(-(10**9), 10**9))


@given(wide_recurrence_moments(min_order=6), wide_nonzero, scalars, wide_nonzero, scalars, st.data())
def test_integer_quadratic_kernel_matches_the_rational_one(drawn, w0, c, m0, m1, data):
    # the kernel is algebra on s and t, so any values over any
    # denominators test it
    rc, _ = drawn
    n_max = data.draw(st.integers(1, rc.length))
    assume(w0 * m0 != (m1 - c * m0) ** 2)
    count = n_max + 1
    s = data.draw(st.lists(kernel_numerators, min_size=count, max_size=count))
    t = data.draw(st.lists(kernel_numerators, min_size=count, max_size=count))
    den = data.draw(st.lists(wide_denominators, min_size=count, max_size=count))
    same_kernel_or_error(
        lambda: quadratic_kernel(rc, w0, c, m0, m1, s, t, den, n_max),
        lambda: quadratic_kernel_reference(
            rc, w0, c, m0, m1,
            [Rational(x, d) for x, d in zip(s, den)],
            [Rational(x, d) for x, d in zip(t, den)],
            n_max,
        ),
    )


@given(wide_recurrence_moments(min_order=6), scalars, wide_nonzero, scalars)
def test_the_division_producers_match_the_rational_kernel(drawn, c, m0, m1):
    rc, u = drawn
    u0 = u.moments[0]
    n = u.order // 2 - 1

    def inverse_reference():
        # S_n(0) = -P_{n+1}(0)/u_0 and T_n(0) = P_{n+1}'(0)/u_0
        p, dp = values_and_slopes_reference(rc, 0, n + 1)
        kernel = quadratic_kernel_reference(
            rc.shifted(1), -rc.a_at(1) / u0, rat(0), 1 / u0, -rc.b_at(0) / u0,
            [-x / u0 for x in p[1:]], [x / u0 for x in dp[1:]], n,
        )
        return kernel._replace(d_star={1: -1 / u0 ** 2, **kernel.d_star})

    def division_reference():
        p, dp = values_and_slopes_reference(rc, c, n)
        q, dq = values_and_slopes_reference(rc.shifted(1), c, n - 1)
        q, dq = [0] + q, [0] + dq
        weight = m1 - c * m0
        s = [weight * p[k] + u0 * q[k] for k in range(n + 1)]
        t = [weight * dp[k] + u0 * dq[k] + m0 * p[k] for k in range(n + 1)]
        return quadratic_kernel_reference(rc, u0, c, m0, m1, s, t, n)

    same_kernel_or_error(lambda: inverse_kernel(u, n), inverse_reference)
    same_kernel_or_error(lambda: quadratic._division(u, c, m0, m1, n), division_reference)


@given(wide_recurrence_moments(), scalars, scalars, scalars, scalars, st.data())
def test_kernel_values_combine_the_rational_values_and_slopes(drawn, c, weight, mass, tilt, data):
    rc, _ = drawn
    n = data.draw(st.integers(0, rc.length))
    z, t, den = kernel_values(rc, c, weight, mass, tilt, n)
    p, dp = values_and_slopes_reference(rc, c, n)
    q, dq = values_and_slopes_reference(rc.shifted(1), c, n - 1) if n else ([], [])
    q, dq = [0] + q, [0] + dq
    assert [Rational(x, d) for x, d in zip(z, den)] == [
        weight * p[k] + mass * q[k] for k in range(n + 1)
    ]
    assert [Rational(x, d) for x, d in zip(t, den)] == [
        weight * dp[k] + mass * dq[k] + tilt * p[k] for k in range(n + 1)
    ]
    assert all(d > 0 and gcd(d, x, y) == 1 for x, y, d in zip(z, t, den))


# -- the LU and UL factors read off the values at c, against the
# eliminations they replaced

def same_factors_or_error(got, want):
    """Both calls give the same L, U and transformed Jacobi matrix, or both
    raise ZeroPivot at the same index, or both DegenerateParameter."""
    try:
        expected = want()
    except ZeroPivot as exc:
        with pytest.raises(ZeroPivot) as excinfo:
            got()
        assert excinfo.value.index == exc.index
        return
    except DegenerateParameter:
        with pytest.raises(DegenerateParameter):
            got()
        return
    lower, upper, transformed = got()
    assert lower.sub == expected[0].sub
    assert upper.diag == expected[1].diag
    assert transformed == expected[2]


@given(wide_recurrence_moments(), scalars, st.data())
def test_the_lu_factors_match_the_elimination(drawn, c, data):
    rc, _ = drawn
    rc = rc.truncated(data.draw(st.integers(2, rc.length)))
    same_factors_or_error(lambda: christoffel_lu(rc, c), lambda: christoffel_lu_reference(rc, c))


@given(wide_recurrence_moments(), scalars, st.one_of(st.just(rat(0)), wide_nonzero), st.data())
def test_the_ul_factors_match_the_elimination(drawn, c, beta0, data):
    # beta_0 = 0 must be DegenerateParameter on both routes
    rc, _ = drawn
    rc = rc.truncated(data.draw(st.integers(1, rc.length)))
    same_factors_or_error(
        lambda: geronimus_ul(rc, c, beta0), lambda: geronimus_ul_reference(rc, c, beta0)
    )


@given(wide_recurrence_moments(), scalars, st.data())
def test_a_zero_of_p_k_plus_1_stops_both_lu_routes_at_k(drawn, c, data):
    # P_{k+1}(c) = (c - b_k) P_k(c) - a_k P_{k-1}(c) is affine in b_k
    rc, _ = drawn
    level = data.draw(st.integers(0, rc.length - 1))
    p, _ = values_and_slopes_reference(rc, c, level)
    assume(all(p))
    b = list(rc.b)
    b[level] = c - (rc.a_at(level) * p[level - 1] / p[level] if level else 0)
    rc = RecurrenceCoefficients(b, rc.a)
    rc = rc.truncated(data.draw(st.integers(level + 1, rc.length)))
    for route in (christoffel_lu, christoffel_lu_reference):
        with pytest.raises(ZeroPivot) as excinfo:
            route(rc, c)
        assert excinfo.value.index == level


@given(wide_recurrence_moments(), scalars, st.data())
def test_a_corner_that_zeroes_z_k_stops_both_ul_routes_at_k(drawn, c, data):
    # Z_k = P_k(c) + beta_0 P^(1)_{k-1}(c) is affine in beta_0
    rc, _ = drawn
    level = data.draw(st.integers(1, rc.length - 1))
    p, _ = values_and_slopes_reference(rc, c, level)
    q, _ = values_and_slopes_reference(rc.shifted(1), c, level - 1)
    assume(q[level - 1] != 0 and p[level] != 0)
    beta0 = -p[level] / q[level - 1]
    assume(all(p[k] + beta0 * q[k - 1] for k in range(1, level)))
    rc = rc.truncated(data.draw(st.integers(level + 1, rc.length)))
    for route in (geronimus_ul, geronimus_ul_reference):
        with pytest.raises(ZeroPivot) as excinfo:
            route(rc, c, beta0)
        assert excinfo.value.index == level


# -- Polynomial on integer numerators over one denominator, against the
# reference with one Fraction per coefficient

poly_coeffs = st.lists(st.one_of(rationals, wide_rationals), max_size=7)
# a non-integer point of wide height
fractional = st.builds(rat, st.integers(-(10**9), 10**9), st.integers(2, 10**9)).filter(
    lambda c: c.denominator > 1
)


def assert_matches(p, ref):
    """p is in canonical form and has the reference's coefficients."""
    assert isinstance(p, Polynomial)
    assert p.den > 0
    assert gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert p.coeffs == ref.coeffs
    assert all(type(x) is type(ONE) for x in p.coeffs)


@given(poly_coeffs, poly_coeffs, scalars)
def test_polynomial_operators_match_the_fraction_reference(cs, ds, scalar):
    p, q = Polynomial(cs), Polynomial(ds)
    rp, rq = FractionPolynomial(cs), FractionPolynomial(ds)
    constant = FractionPolynomial((scalar,))
    assert_matches(p, rp)
    assert_matches(p + q, rp + rq)
    assert_matches(p - q, rp - rq)
    assert_matches(-p, -rp)
    assert_matches(p * q, rp * rq)
    assert_matches(p * scalar, rp * scalar)
    assert_matches(scalar * p, rp * scalar)
    assert_matches(p + scalar, rp + constant)
    assert_matches(scalar + p, rp + constant)
    assert_matches(p - scalar, rp - constant)
    assert_matches(scalar - p, constant - rp)
    assert_matches(p ** 3, rp ** 3)
    assert_matches(p.derivative(), rp.derivative())
    assert (p == q) == (rp == rq)
    assert (p == scalar) == (rp == constant)
    assert p.degree == rp.degree
    assert p.leading_coefficient == (rp.coeffs[-1] if rp.coeffs else 0)
    assert p.is_monic == (bool(rp.coeffs) and rp.coeffs[-1] == 1)
    assert [p.coefficient(k) for k in range(-1, 9)] == [rp.coefficient(k) for k in range(-1, 9)]
    if rq.coeffs:
        quotient, remainder = divmod(p, q)
        want_quotient, want_remainder = divmod(rp, rq)
        assert_matches(quotient, want_quotient)
        assert_matches(remainder, want_remainder)
        assert p // q == quotient and p % q == remainder


@given(poly_coeffs, wide_nonzero, st.integers(1, 10**6))
def test_equal_polynomials_have_one_representation_and_one_hash(cs, scalar, spread):
    p = Polynomial(cs)
    others = (
        (p * scalar) * (1 / scalar),
        p * X * (1 / scalar) * scalar - p * X + p,
        Polynomial.from_integers([v * spread for v in p.num], p.den * spread),
    )
    for other in others:
        assert (other.num, other.den) == (p.num, p.den)
        assert other == p and hash(other) == hash(p)
    assert p + 1 != p
    for constant in (Polynomial((scalar,)), Polynomial(), Polynomial((spread,))):
        value = constant.coefficient(0)
        assert constant == value and hash(constant) == hash(value)
    assert hash(Polynomial((spread,))) == hash(spread)
    with pytest.raises(ValueError):
        Polynomial.from_integers(p.num, -p.den)


@given(poly_coeffs, poly_coeffs, st.integers(-5, 5), scalars, fractional, st.integers(0, 4))
def test_values_derivatives_and_wronskians_match_the_fraction_reference(cs, ds, k, c, frac, order):
    p, q = Polynomial(cs), Polynomial(ds)
    rp, rq = FractionPolynomial(cs), FractionPolynomial(ds)
    for at in (k, rat(k), c, frac):
        assert p(at) == p.evaluate(at) == rp.evaluate(at)
        assert type(p(at)) is type(ONE)
        assert derivatives_at(p, at, order) == fraction_derivatives_at(rp, at, order)
        assert wronskian(p, q, at) == fraction_wronskian(rp, rq, at)
        assert type(wronskian(p, q, at)) is type(ONE)


@given(st.data())
def test_polys_from_recurrence_matches_the_fraction_reference_on_wide_recurrences(data):
    # denominators up to 10^9, many zero b's, a's of either sign (zero too)
    length = data.draw(st.integers(1, 9))
    b = data.draw(st.lists(wide_rationals, min_size=length, max_size=length))
    a = data.draw(st.lists(wide_rationals, min_size=length - 1, max_size=length - 1))
    rc = RecurrenceCoefficients(b, a)
    got = polys_from_recurrence(rc, length)
    want = polys_reference(rc, length)
    assert len(got) == len(want) == length + 1
    for n, (p, ref) in enumerate(zip(got, want)):
        assert_matches(p, ref)
        assert p.degree == n and p.is_monic


@given(nonzero, st.lists(scalars, min_size=0, max_size=9), st.integers(-5, 5), fractional)
def test_divide_power_matches_long_division(first, rest, k, frac):
    u = make_functional(first, rest)
    for c in (rat(0), rat(k), frac):
        for m in (1, 2, 3):
            got = fa.divide_power(u, c, m)
            assert got == divide_power_reference(u, c, m)
            assert got.order == u.order + m


@st.composite
def wide_band(draw, size):
    """A BandMatrix of wide-height entries: random offsets, some diagonals all
    zero (dropped, so the bandwidths shrink).  Some matrices
    take their entries from {-1, 0, 1} instead, so that diagonals of their
    products often cancel to zero."""
    offsets = draw(st.lists(st.integers(-(size - 1), size - 1), unique=True, max_size=4))
    values = draw(st.sampled_from([wide_rationals, st.sampled_from([rat(-1), rat(0), rat(1)])]))
    diagonals = {}
    for d in offsets:
        entries = draw(st.lists(values, min_size=size - abs(d), max_size=size - abs(d)))
        diagonals[d] = [0] * len(entries) if draw(st.integers(0, 3)) == 0 else entries
    return BandMatrix(size, diagonals)


@settings(max_examples=80)
@given(st.data())
def test_mat_multiply_matches_the_fraction_dot_product(data):
    # entries and bandwidths of band products with denominators
    # up to 10^9
    size = data.draw(st.integers(1, 6))
    a, b = data.draw(wide_band(size)), data.draw(wide_band(size))
    got = mat_multiply(a, b)
    want = product_reference(a, b)
    for i in range(size):
        for j in range(size):
            assert got.entry(i, j) == want[i][j]
            assert type(got.entry(i, j)) is Rational
    # exactly the diagonals where the product is nonzero are stored
    support = {j - i for i in range(size) for j in range(size) if want[i][j] != 0}
    assert set(got.diagonals) == support
    assert got.lower == max([-d for d in support] + [0])
    assert got.upper == max(support | {0})


# -- the certificate kernels against their entry-by-entry references

def assert_same_matrix(got, want_rows):
    size = len(want_rows)
    assert got.size == size
    for i in range(size):
        for j in range(size):
            assert got.entry(i, j) == want_rows[i][j]
            assert type(got.entry(i, j)) is Rational


@st.composite
def full_band(draw, size, lower, upper):
    """A BandMatrix with every diagonal in [-lower, upper] drawn (some may
    come out all zero and be dropped)."""
    diagonals = {
        d: draw(st.lists(wide_rationals, min_size=size - abs(d), max_size=size - abs(d)))
        for d in range(-min(lower, size - 1), min(upper, size - 1) + 1)
    }
    return BandMatrix(size, diagonals)


@settings(max_examples=60)
@given(st.data())
def test_products_of_full_bands_match_the_fraction_dot_product(data):
    # every diagonal in the band drawn, with unequal bandwidths on the two sides
    size = data.draw(st.integers(1, 7))
    a = data.draw(full_band(size, data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))))
    b = data.draw(full_band(size, data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))))
    got = mat_multiply(a, b)
    want = product_reference(a, b)
    assert_same_matrix(got, want)
    assert set(got.diagonals) == {j - i for i in range(size) for j in range(size) if want[i][j] != 0}


@given(st.data())
def test_a_product_whose_diagonal_cancels_drops_it(data):
    # (I + S)(I - S) = I - S^2 for S on one off-diagonal: that diagonal cancels
    size = data.draw(st.integers(2, 7))
    offset = data.draw(st.sampled_from([d for d in range(-(size - 1), size) if d]))
    length = size - abs(offset)
    entries = data.draw(st.lists(wide_nonzero, min_size=length, max_size=length))
    ones = (1,) * size
    plus = BandMatrix(size, {0: ones, offset: entries})
    minus = BandMatrix(size, {0: ones, offset: [-x for x in entries]})
    got = mat_multiply(plus, minus)
    assert offset not in got.diagonals
    assert_same_matrix(got, product_reference(plus, minus))
    square = {2 * offset} if abs(2 * offset) < size else set()
    assert set(got.diagonals) == {0} | square


@given(st.data())
def test_block_equality_finds_one_mismatch_inside_or_outside_the_band(data):
    size = data.draw(st.integers(1, 6))
    a = data.draw(full_band(size, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))))
    i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    # a different value at (i, j); the offset j - i may lie outside a's band
    new = a.entry(i, j) + data.draw(wide_nonzero)
    changed = band_from_entries(
        size,
        -(size - 1),
        size - 1,
        lambda r, s: new if (r, s) == (i, j) else a.entry(r, s),
    )
    for k in range(size + 1):
        for x, y in ((a, changed), (changed, a)):
            got = first_block_mismatch(x, y, k)
            assert got == (max(i, j) + 1 if max(i, j) < k else None)
            assert got == first_block_mismatch_reference(x, y, k)
            assert first_block_mismatch(x, x, k) is None
    assert a != changed
    with pytest.raises(ValueError):
        first_block_mismatch(a, changed, size + 1)


@given(st.data(), scalars)
def test_a_shift_rewrites_only_the_main_diagonal(data, c):
    size = data.draw(st.integers(1, 6))
    a = data.draw(full_band(size, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))))
    for point in (c, rat(0)):
        assert_same_matrix(shifted(a, point), shifted_reference(a, point))
        assert shifted(a, 0) == a and shifted(a, 0).diagonals == a.diagonals
    # a main diagonal of c's shifts to zero and is dropped
    corner = {size - 1: (1,)} if size > 1 else {}
    flat = BandMatrix(size, {0: (c,) * size, **corner})
    assert set(shifted(flat, c).diagonals) == set(corner)


@given(st.data())
def test_powers_start_from_the_matrix(data):
    size = data.draw(st.integers(1, 6))
    a = data.draw(full_band(size, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))))
    assert_same_matrix(mat_power(a, 0), power_reference(a, 0))
    assert mat_power(a, 0) == identity(size)
    assert_same_matrix(mat_power(a, 1), power_reference(a, 1))
    assert_same_matrix(mat_power(a, 2), power_reference(a, 2))
    with pytest.raises(ValueError):
        mat_power(a, -1)


@given(st.data())
def test_one_sided_shifts_move_the_stored_diagonals(data):
    # entry by entry against the definition, with the row or column
    # shifted in taken as zero; a diagonal that shifts to all zeros (a
    # one-entry diagonal, or one nonzero only at its start) is dropped
    size = data.draw(st.integers(1, 6))
    a = data.draw(st.one_of(wide_band(size), full_band(size, 2, 2)))
    for got, want in (
        (shift_rows_up(a), lambda i, j: a.entry(i + 1, j) if i + 1 < size else 0),
        (shift_cols_left(a), lambda i, j: a.entry(i, j + 1) if j + 1 < size else 0),
    ):
        rows = [[want(i, j) for j in range(size)] for i in range(size)]
        assert_same_matrix(got, rows)
        support = {j - i for i in range(size) for j in range(size) if rows[i][j] != 0}
        assert set(got.diagonals) == support


window = st.lists(st.one_of(rationals, wide_rationals), max_size=6)


@given(window, window, st.integers(-4, 4), st.integers(-4, 4), st.booleans(), st.booleans())
def test_series_products_match_the_fraction_convolution(xs, ys, up_x, up_y, exact_x, exact_y):
    # exact and truncated windows, empty ones and zeros at either end included
    s = LaurentSeries(up_x, xs, exact=exact_x)
    t = LaurentSeries(up_y, ys, exact=exact_y)
    for left, right in ((s, t), (t, s)):
        got = series_multiply(left, right)
        want = series_multiply_reference(left, right)
        assert (got.max_power, got.coeffs, got.exact) == (want.max_power, want.coeffs, want.exact)
        assert all(type(x) is Rational for x in got.coeffs)


@given(st.one_of(nonzero, wide_nonzero), st.lists(scalars, min_size=0, max_size=9), poly_coeffs)
def test_polynomial_products_and_divided_differences_match_the_fraction_sums(first, rest, cs):
    # u_0 of either sign and any height; p of degree up to 6
    u = make_functional(first, rest)
    p = Polynomial(cs)
    if not p.is_zero and p.degree < u.order:
        got = fa.multiply_poly(u, p)
        assert got == multiply_poly_reference(u, p)
        assert all(type(x) is Rational for x in got.moments)
    if p.degree <= u.order:
        got = divided_difference(u, p)
        want = divided_difference_reference(u, p)
        assert got.coeffs == want.coeffs and got == want


# -- degenerate degree-one transforms and the associated shift: the library
# and the `transform | smop` pipeline fail at the transform's first
# vanishing Hankel minor

def assert_pipeline_fails_at(u, transform_args, level):
    """`transform ... | smop` on u exits 1 with a typed NotQuasiDefinite at level."""
    stdin = serialize.dumps(serialize.moments_record(u))
    _, transformed, _ = run_cli(["transform"] + transform_args, stdin)
    code, out, _ = run_cli(["smop"], transformed)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotQuasiDefinite"
    assert (payload["level"], payload["guard"]) == (level, "norm")


def assert_factorize_fails_at(u, factorize_args, level):
    """`factorize ...` on u exits 1 with a typed ZeroPivot at level."""
    code, out, _ = run_cli(["factorize"] + factorize_args, serialize.dumps(serialize.moments_record(u)))
    assert code == 1
    payload = json.loads(out)
    assert (payload["error"], payload["level"]) == ("ZeroPivot", level)


def assert_verify_fails_at(u, names, verify_args, level):
    """Each `verify` identity on u exits 1 with a typed NotQuasiDefinite or
    ZeroPivot at level: never exit 2, a traceback or a failing report."""
    stdin = serialize.dumps(serialize.moments_record(u))
    for name in names:
        code, out, _ = run_cli(["verify", name] + verify_args, stdin)
        assert code == 1, name
        payload = json.loads(out)
        assert payload["error"] in ("NotQuasiDefinite", "ZeroPivot"), (name, payload)
        assert payload["level"] == level, (name, payload)


def assert_first_vanishing_minor(v, level):
    assert all(hankel_minor(v, k) != 0 for k in range(level))
    assert hankel_minor(v, level) == 0
    with pytest.raises(NotQuasiDefinite) as excinfo:
        smop_from_moments(v, v.order // 2)
    assert (excinfo.value.level, excinfo.value.guard) == (level, "norm")


def with_moments_of(rc, u):
    """The functional of rc with u's first moment and order."""
    return moments_from_jacobi(jacobi_matrix(rc, rc.length), u.moments[0], u.order)


@given(recurrence_moments(min_order=6), rationals, st.data())
def test_a_christoffel_point_at_a_zero_of_p_k_plus_1_fails_at_level_k(drawn, c, data):
    # H_k((x - c) u) is a nonzero multiple of P_{k+1}(c), and
    # P_{k+1}(c) = (c - b_k) P_k(c) - a_k P_{k-1}(c) is affine in b_k
    rc, u = drawn
    level = data.draw(st.integers(0, (u.order - 1) // 2 - 1))
    values, _, dens = values_and_slopes(rc, c, level)
    assume(all(values))
    b = list(rc.b)
    b[level] = c - (
        rc.a_at(level) * Rational(values[level - 1] * dens[level], dens[level - 1] * values[level])
        if level
        else 0
    )
    rc = RecurrenceCoefficients(b, rc.a)
    u = with_moments_of(rc, u)
    assert_first_vanishing_minor(fa.multiply_poly(u, linear_power(c, 1)), level)
    with pytest.raises(ZeroPivot) as excinfo:
        christoffel_lu(rc.truncated(level + 2), c)
    assert excinfo.value.index == level
    assert_factorize_fails_at(u, ["lu", "--c=%s" % c], level)
    assert_pipeline_fails_at(u, ["christoffel", "--c=%s" % c], level)
    # the largest --n the input supports reaches the level; coro1 has no
    # --n and reads the SMOP of (x - c) u only below depth order/2 - 1
    names = ["repChris", "shifted-lu", "christoffel+assoc"]
    if level < u.order // 2 - 1:
        names.append("coro1")
    args = ["--c=%s" % c, "--n", str(u.order // 2 - 1)]
    assert_verify_fails_at(u, names, args, level)


@given(recurrence_moments(min_order=6), rationals, st.data())
def test_a_geronimus_mass_that_kills_a_minor_fails_at_its_level(drawn, c, data):
    # v = base + m0 delta_c, so each Hankel minor of v is affine in m0
    rc, u = drawn
    base = fa.divide_power(u, c, 1)
    level = data.draw(st.integers(1, base.order // 2 - 1))
    without = hankel_minor(base, level)
    with_unit_mass = hankel_minor(fa.add(base, fa.delta(c, base.order)), level)
    assume(with_unit_mass != without)
    m0 = without / (without - with_unit_mass)
    assume(m0 != 0)
    v = fa.geronimus(u, c, m0)
    assume(all(hankel_minor(v, k) != 0 for k in range(level)))
    assert_first_vanishing_minor(v, level)
    with pytest.raises(ZeroPivot) as excinfo:
        geronimus_ul(rc.truncated(level + 1), c, u.moments[0] / m0)
    assert excinfo.value.index == level
    if level < u.order // 2:
        # factorize's default size, u.order // 2, reaches the pivot, and so
        # does verify's largest --n, whose elimination has size --n + 1
        assert_factorize_fails_at(u, ["ul", "--c=%s" % c, "--m0=%s" % m0], level)
        args = ["--c=%s" % c, "--m0=%s" % m0, "--n", str(u.order // 2 - 1)]
        assert_verify_fails_at(u, ["gero1", "gero2", "pro6", "geronimus+assoc"], args, level)
    assert_pipeline_fails_at(u, ["geronimus", "--c=%s" % c, "--m0=%s" % m0], level)


@given(recurrence_moments(min_order=6), rationals, st.data())
def test_a_corecursive_transform_keeps_the_level_of_a_vanishing_a_k(drawn, alpha, data):
    # H_k = u_0^(k+1) a_1^k ... a_k: the perturbation of b_0 moves no minor
    rc, u = drawn
    level = data.draw(st.integers(1, u.order // 2 - 1))
    a = list(rc.a)
    a[level - 1] = rat(0)
    u = with_moments_of(RecurrenceCoefficients(rc.b, a), u)
    assert_first_vanishing_minor(corecursive_functional(u, alpha), level)
    assert_pipeline_fails_at(u, ["corecursive", "--alpha=%s" % alpha], level)


@given(recurrence_moments(min_order=8), st.integers(1, 2), nonzero, st.data())
def test_an_associated_functional_fails_where_its_shifted_a_vanishes(drawn, k, norm0, data):
    # the k-th associated functional has the recurrence shifted by k, so a
    # vanishing a_{k+j} is its level j; the CLI reads u's recurrence first,
    # which fails at level k + j, and smop passes that typed error on
    rc, u = drawn
    assume(rc.length - k - 2 >= 1)
    level = data.draw(st.integers(1, rc.length - k - 2))
    a = list(rc.a)
    a[k + level - 1] = rat(0)
    broken = RecurrenceCoefficients(rc.b, a)
    u = with_moments_of(broken, u)
    w = associated_functional(u, k, norm0, u.order - 2 * k)
    assert_first_vanishing_minor(w, level)
    assert_pipeline_fails_at(u, ["associated", "--k", str(k), "--norm=%s" % norm0], k + level)


@given(
    wide_recurrence_moments(min_order=6),
    st.sampled_from(("raw", "christoffel", "geronimus")),
    scalars,
    wide_nonzero,
    wide_nonzero,
)
def test_the_associated_functional_is_the_shifted_recurrence_route(drawn, kind, c, m0, norm0):
    # "fu1" applied k times through u^{-1} gives exactly the moments of the
    # recurrence shifted by k, on raw functionals and on their transforms
    _, u = drawn
    if kind == "christoffel":
        u = fa.multiply_poly(u, X - c)
    elif kind == "geronimus":
        u = fa.geronimus(u, c, m0)
    try:
        rc, _ = smop_from_moments(u, u.order // 2)
    except NotQuasiDefinite:
        assume(False)
    for k in range(1, min(3, rc.length - 1) + 1):
        shifted = rc.shifted(k)
        n = 2 * shifted.length - 1
        want = moments_from_jacobi(jacobi_matrix(shifted, shifted.length), norm0, n)
        assert associated_functional(u, k, norm0, n) == want


@given(recurrence_moments(min_order=10), st.integers(1, 3), nonzero, st.data())
def test_a_vanishing_a_j_below_the_level_is_a_typed_error_everywhere(drawn, k, norm0, data):
    # step j of the producer starts from the (j-1)-st associated functional,
    # whose x^2 w^{-1} has first moment -a_j: a_j = 0 with j <= k is u's
    # first vanishing minor, raised as such and never as ZeroDivisionError;
    # every CLI reader of the producer reports that level, with exit 1
    rc, u = drawn
    j = data.draw(st.integers(1, k))
    a = list(rc.a)
    a[j - 1] = rat(0)
    u = with_moments_of(RecurrenceCoefficients(rc.b, a), u)
    assert_first_vanishing_minor(u, j)
    with pytest.raises(NotQuasiDefinite) as excinfo:
        associated_functional(u, k, norm0, u.order - 2 * k)
    assert (excinfo.value.level, excinfo.value.guard) == (j, "norm")
    stdin = serialize.dumps(serialize.moments_record(u))
    for argv in (
        ["transform", "associated", "--k", str(k), "--norm=%s" % norm0],
        ["verify", "coro1", "--c=%s" % (rc.b[0] + 1)],
        ["verify", "pro6", "--n", "3"],
        ["verify", "asociadosrepr", "--k", str(k), "--n", "3"],
    ):
        code, out, _ = run_cli(argv, stdin)
        payload = json.loads(out)
        assert code == 1, argv
        assert (payload["error"], payload["level"], payload["guard"]) == (
            "NotQuasiDefinite", j, "norm"
        ), argv



@given(recurrence_moments(min_order=3), nonzero, nonzero, st.data())
def test_the_recurrence_comparison_finds_the_first_differing_moment(drawn, scale, delta, data):
    # comparing w's (b_0, a_1, b_1, ...) with rc's finds the first moment
    # that w and rc's functional do not share, on odd and even windows,
    # exactly and after normalizing, as comparing moment by moment does
    rc, u = drawn
    u0 = u.moments[0]
    count = data.draw(st.integers(1, u.order))
    assert first_moment_off(u, rc, count, u0) is None
    assert first_moment_off(fa.scale(scale, u), rc, count) is None
    moments = list(u.moments)
    j = data.draw(st.integers(0, count - 1))
    moments[j] += delta
    w = MomentFunctional(moments)
    assert first_moment_mismatch_reference(w.truncated(count), u) == j
    assert first_moment_off(w, rc, count, u0) == j
    if moments[0] != 0:
        want = first_moment_mismatch_reference(
            w.truncated(count).normalized(), u.truncated(count).normalized()
        )
        assert first_moment_off(fa.scale(scale, w), rc, count) == want


@given(recurrence_moments(min_order=4), st.data())
def test_a_vanishing_norm_of_w_is_a_difference_at_its_even_moment(drawn, data):
    # a_k = 0 in w's recurrence keeps moments 0..2k-1 and makes K_k = 0,
    # where rc's functional has K_k != 0: moment 2k differs, unless b_i
    # moved too, for some i < k, and moment 2i + 1 differs first
    rc, u = drawn
    k = data.draw(st.integers(1, rc.length - 1))
    i = data.draw(st.integers(0, k))
    b, a = list(rc.b), list(rc.a)
    a[k - 1] = rat(0)
    if i < k:
        b[i] += 1
    w = with_moments_of(RecurrenceCoefficients(b, a), u)
    count = data.draw(st.integers(1, u.order))
    first = 2 * i + 1 if i < k else 2 * k
    want = first if count > first else None
    assert first_moment_mismatch_reference(w.truncated(count), u) == want
    assert first_moment_off(w, rc, count, u.moments[0]) == want
    assert first_moment_off(w, rc, count) == want

@given(recurrence_moments(min_order=8), st.data())
def test_a_vanishing_a_k_is_u_s_own_level_in_the_identities_that_read_u(drawn, data):
    # H_k = u_0^(k+1) a_1^k ... a_k: a_k = 0 is u's first vanishing minor,
    # and every identity below reads u's recurrence past it before any
    # second route; identidad reads no recurrence, and S_u S_{u^{-1}} =
    # z^{-2} holds for every u with u_0 != 0, so it passes
    rc, u = drawn
    n = u.order // 2 - 1
    level = data.draw(st.integers(1, min(6, n - 1)))
    a = list(rc.a)
    a[level - 1] = rat(0)
    u = with_moments_of(RecurrenceCoefficients(rc.b, a), u)
    assert_first_vanishing_minor(u, level)
    # u_1 - c u_0 = -u_0 != 0, so pro5's (x - c) u has a first moment
    c = rc.b[0] + 1
    assert_verify_fails_at(u, ["fu1", "relationS", "funccorre"], [], level)
    assert_verify_fails_at(u, ["pade", "pro5"], ["--c=%s" % c, "--n", str(n)], level)
    assert_verify_fails_at(
        u, ["asociadosrepr", "linearcombination"], ["--k", "2", "--n", str(n)], level
    )
    code, out, _ = run_cli(["verify", "identidad"], serialize.dumps(serialize.moments_record(u)))
    assert code == 0 and json.loads(out)["checks"][0]["status"] == "pass"


def moved_inverse(j):
    """`fa.invert` with moment j of every result moved by one."""
    real = fa.invert

    def invert(u):
        moments = list(real(u).moments)
        moments[j] += 1
        return MomentFunctional(moments)

    return invert


# the failing (identity, first_failure) pairs of each identity whose moment
# side goes through u^{-1}, when moment j of every convolution inverse is
# moved by one, on Laguerre(1) at order 24 with c = -1/3, m0 = 7/3, --n 8;
# fu1, coro1 and pro6 read the inverse from its moment 2 on
BROKEN_INVERSE_RECORDS = [
    ("fu1", 0, []),
    ("fu1", 2, [("fu1", {"moment": 0})]),
    ("fu1", 3, [("fu1", {"moment": 1})]),
    ("fu1", 6, [("fu1", {"moment": 4})]),
    ("relationS", 0, [("relationS", {"power": 1})]),
    ("relationS", 1, [("relationS", {"power": 0})]),
    ("relationS", 2, [("relationS", {"power": -1})]),
    ("relationS", 6, [("relationS", {"power": -5})]),
    ("funccorre", 0, [("funccorre", {"moment": 1})]),
    ("funccorre", 1, [("funccorre", {"moment": 2})]),
    ("funccorre", 6, [("funccorre", {"moment": 7})]),
    ("coro1", 1, []),
    ("coro1", 2, [("coro1", {"moment": 1})]),
    ("coro1", 3, [("coro1", {"moment": 1})]),
    ("coro1", 6, [("coro1", {"moment": 4})]),
    ("pro6", 1, []),
    ("pro6", 2, [("pro6", {"part": "moment-identity", "failure": {"moment": 1}})]),
    ("pro6", 6, [("pro6", {"part": "moment-identity", "failure": {"moment": 4}})]),
    ("geronimus+assoc", 1, [("S-corecursive", {"route": "functional", "moment": 2})]),
    (
        "geronimus+assoc",
        3,
        [
            ("S-corecursive", {"route": "functional", "moment": 4}),
            ("pro6", {"part": "moment-identity", "failure": {"moment": 1}}),
        ],
    ),
    ("christoffel+assoc", 4, [("coro1", {"moment": 2})]),
]


@pytest.mark.parametrize("name, j, want", BROKEN_INVERSE_RECORDS)
def test_a_wrong_inverse_fails_each_identity_at_the_moment_it_moves(monkeypatch, name, j, want):
    monkeypatch.setattr(fa, "invert", moved_inverse(j))
    argv = ["verify", name, "--family", "laguerre", "--order", "24"]
    code, out, _ = run_cli(argv + ["--c=-1/3", "--m0=7/3", "--n", "8"], "")
    failures = [
        (check["identity"], check["first_failure"])
        for check in json.loads(out)["checks"]
        if check["status"] == "fail"
    ]
    assert (code, failures) == (1 if want else 0, want)
