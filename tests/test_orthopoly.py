"""Moments to recurrence and back: Chebyshev algorithm, Jacobi truncations, Hankel minors."""

import random
from math import gcd

import pytest
from conftest import gram_schmidt

from opoly import families, orthopoly
from opoly import functional as fa
from opoly.associated import inverse_kernel
from opoly.errors import NotQuasiDefinite, TruncationExhausted
from opoly.functional import MomentFunctional
from opoly.orthopoly import (
    OrthogonalSystem,
    RecurrenceCoefficients,
    hankel_minor,
    jacobi_matrix,
    moments_from_jacobi,
    polys_from_recurrence,
    smop_from_moments,
)
from opoly.poly import ONE_POLY, X
from opoly.rational import rat


def test_recurrence_coefficients_validation_and_indexing():
    rc = RecurrenceCoefficients((1, 2, 3), (4, 5))
    assert rc.length == 3
    assert rc.b_at(2) == 3
    assert rc.a_at(1) == 4 and rc.a_at(2) == 5
    with pytest.raises(IndexError):
        rc.a_at(0)
    with pytest.raises(ValueError):
        RecurrenceCoefficients((1, 2), (1, 2))
    with pytest.raises(ValueError):
        RecurrenceCoefficients((), ())


def test_recurrence_shift_truncate_corecursive():
    rc = RecurrenceCoefficients((1, 2, 3), (4, 5))
    assert rc.shifted(1) == RecurrenceCoefficients((2, 3), (5,))
    assert rc.truncated(2) == RecurrenceCoefficients((1, 2), (4,))
    assert rc.corecursive(10) == RecurrenceCoefficients((11, 2, 3), (4, 5))
    with pytest.raises(TruncationExhausted):
        rc.shifted(3)
    with pytest.raises(TruncationExhausted):
        rc.truncated(4)


def test_orthogonal_system_holds_one_norm_per_recurrence_coefficient():
    rc = RecurrenceCoefficients((0, 1), (2,))
    with pytest.raises(ValueError):
        OrthogonalSystem(rc, (1,))
    system = OrthogonalSystem(rc, (1, 2))
    assert system.n_max == 2
    assert system.polys == (ONE_POLY, X, X * X - X - 2)


def test_smop_recovers_the_closed_chebyshev_u_recurrence():
    u = families.chebyshev_u(24)
    rc, system = smop_from_moments(u, 12)
    assert rc == families.chebyshev_u_recurrence(12)
    # norms K_n = (1/4)^n and the first few polynomials in closed form
    for n in range(12):
        assert system.norms[n] == rat(1, 4) ** n
    assert system.polys[2] == X * X - rat(1, 4)
    assert system.polys[3] == X ** 3 - rat(1, 2) * X
    assert system.polys[4] == X ** 4 - rat(3, 4) * X * X + rat(1, 16)


def test_smop_recovers_the_closed_chebyshev_t_recurrence():
    u = families.chebyshev_t(24)
    rc, system = smop_from_moments(u, 12)
    assert rc == families.chebyshev_t_recurrence(12)
    assert system.norms[0] == 1
    for n in range(1, 12):
        assert system.norms[n] == rat(1, 2) * rat(1, 4) ** (n - 1)
    assert system.polys[2] == X * X - rat(1, 2)
    assert system.polys[3] == X ** 3 - rat(3, 4) * X


def test_smop_recovers_the_closed_laguerre_recurrence():
    for alpha in (rat(0), rat(1, 2), rat(3)):
        u = families.laguerre(alpha, 20)
        rc, system = smop_from_moments(u, 10)
        assert rc == families.laguerre_recurrence(alpha, 10)
        # K_n = n! * (alpha + 2)_n
        acc = rat(1)
        for n in range(10):
            assert system.norms[n] == acc
            acc *= (n + 1) * (alpha + 2 + n)
    u0 = families.laguerre(0, 8)
    _, system = smop_from_moments(u0, 4)
    assert system.polys[1] == X - 2
    assert system.polys[2] == X * X - 6 * X + 6


def test_smop_needs_enough_moments():
    u = families.chebyshev_u(8)
    with pytest.raises(TruncationExhausted):
        smop_from_moments(u, 5)
    with pytest.raises(ValueError):
        smop_from_moments(u, 0)


def draw_recurrence(rng, length, b_den, a_den):
    """b_n in (1/b_den)Z and a_n in (1/a_den)Z \\ {0}, with small numerators."""
    b = [rat(rng.randint(-60, 60), b_den) for _ in range(length)]
    a = [rat(rng.choice((-1, 1)) * rng.randint(1, 60), a_den) for _ in range(length - 1)]
    return RecurrenceCoefficients(b, a)


# (a) b in Z/3 and a in Z/2, the benchmark's random recurrences: the
# Chebyshev algorithm carries every row of their moments unreduced;
# (b) b over 10007 and a over 10009: moments_from_jacobi's denominator
# grows about 27 bits a step and is reduced a few times part way through;
# and the moments of invert(u), case (c), grow fast enough that the
# Chebyshev algorithm reduces most of their rows
ORDER_128_KINDS = {"thirds-halves": (3, 2), "large-primes": (10007, 10009)}


def order_128_functional(rng, rc):
    """The moments u_0..u_127 of rc (65 coefficients) with a drawn u_0."""
    u0 = rat(rng.choice((-1, 1)) * rng.randint(1, 9), 7)
    return moments_from_jacobi(jacobi_matrix(rc, rc.length), u0, 2 * (rc.length - 1))


def order_128_cases():
    """(label, rc, u, order): kinds (a) and (b) at order 128, and (c) invert(u) of (a).

    u has 2 * (rc.length - 1) moments; each u is drawn again until its
    convolution inverse is quasi-definite, so that (c) and the inverse
    kernel exist.  (c)'s recurrence comes from `inverse_kernel`, a route
    that reads no inverse moment.  `order` is how many moments the
    recurrence -> moments direction rebuilds: all of them for (a) and
    (b), 31 for (c), whose coefficients' denominators have an lcm of
    about 40000 bits, so that `moments_from_jacobi` takes seconds at the
    full order.
    """
    rng = random.Random(128)
    cases = []
    for label, (b_den, a_den) in ORDER_128_KINDS.items():
        while True:
            rc = draw_recurrence(rng, 65, b_den, a_den)
            u = order_128_functional(rng, rc)
            try:
                inverse = inverse_kernel(u, 63).recurrence
                break
            except NotQuasiDefinite:
                pass
        cases.append((label, rc, u, u.order))
        if label == "thirds-halves":
            cases.append(("inverse of thirds-halves", inverse, fa.invert(u).truncated(124), 31))
    return cases


def test_smop_raises_at_the_first_vanishing_norm():
    # moments of delta_0: P_1 = x has <u, x^2> = 0
    u = MomentFunctional((1, 0, 0, 0, 0, 0))
    with pytest.raises(NotQuasiDefinite) as info:
        smop_from_moments(u, 3)
    assert info.value.level == 1
    assert info.value.guard == "norm"
    # a_k = 0 at a drawn level of an order-128 recurrence: the norms
    # u_0 a_1 ... a_j stay nonzero below k, so K_k is the first to vanish
    rng = random.Random(7)
    for label, (b_den, a_den) in ORDER_128_KINDS.items():
        for _ in range(2):
            rc = draw_recurrence(rng, 65, b_den, a_den)
            level = rng.randint(1, 63)
            a = list(rc.a)
            a[level - 1] = rat(0)
            u = order_128_functional(rng, RecurrenceCoefficients(rc.b, a))
            with pytest.raises(NotQuasiDefinite) as info:
                smop_from_moments(u, 64)
            assert (info.value.level, info.value.guard) == (level, "norm"), label


def test_polys_from_recurrence_matches_gram_schmidt():
    u = families.chebyshev_t(20)
    rc, _ = smop_from_moments(u, 10)
    assert polys_from_recurrence(rc, 10) == gram_schmidt(u, 10)[1]
    with pytest.raises(TruncationExhausted):
        polys_from_recurrence(rc, 11)


def test_smop_builds_its_polynomials_only_when_read(monkeypatch):
    built = []

    def counting(rc, n_max):
        built.append(n_max)
        return polys_from_recurrence(rc, n_max)

    monkeypatch.setattr(orthopoly, "polys_from_recurrence", counting)
    rc, system = smop_from_moments(families.laguerre(0, 16), 8)
    assert built == [] and system.n_max == 8
    assert system.polys[8] == polys_from_recurrence(rc, 8)[8]
    assert system.polys is system.polys
    assert built == [8]


def test_jacobi_matrix_layout():
    rc = RecurrenceCoefficients((1, 2, 3), (4, 5))
    j = jacobi_matrix(rc, 3)
    assert j.entry(0, 0) == 1 and j.entry(2, 2) == 3
    assert j.entry(1, 0) == 4 and j.entry(2, 1) == 5
    assert j.entry(0, 1) == 1 and j.entry(1, 2) == 1
    with pytest.raises(TruncationExhausted):
        jacobi_matrix(rc, 4)
    with pytest.raises(ValueError):
        jacobi_matrix(rc, 0)


def test_moments_round_trip_through_the_jacobi_matrix():
    u = families.chebyshev_u(16)
    rc, _ = smop_from_moments(u, 8)
    back = moments_from_jacobi(jacobi_matrix(rc, 8), 1, 15)
    assert back.moments == u.moments[:15]
    for label, rc, u, order in order_128_cases():
        back = moments_from_jacobi(jacobi_matrix(rc, order // 2 + 1), u.moment(0), order)
        assert back == u.truncated(order), label
        assert gcd(back.den, *back.num) == 1, label
        n = u.order // 2
        got, system = smop_from_moments(u, n)
        assert got == rc.truncated(n), label
        norm = u.moment(0)
        for k in range(n):
            assert system.norms[k] == norm, (label, k)
            norm *= rc.a_at(k + 1)
        got, _ = smop_from_moments(fa.invert(u), n - 1)
        assert got == inverse_kernel(u, n - 1).recurrence, label


def test_moments_from_jacobi_respects_the_reliable_window():
    rc = families.chebyshev_u_recurrence(5)
    j = jacobi_matrix(rc, 5)
    assert moments_from_jacobi(j, 1, 9).order == 9
    with pytest.raises(TruncationExhausted):
        moments_from_jacobi(j, 1, 10)
    with pytest.raises(ValueError):
        moments_from_jacobi(j, 1, 0)


def test_hankel_minors_are_products_of_norms():
    u = families.laguerre(rat(1, 2), 16)
    _, system = smop_from_moments(u, 8)
    prod = rat(1)
    for k in range(8):
        prod *= system.norms[k]
        assert hankel_minor(u, k) == prod
    with pytest.raises(TruncationExhausted):
        hankel_minor(u, 8)


def test_hankel_minor_detects_degeneracy():
    u = MomentFunctional((1, 0, 0))
    assert hankel_minor(u, 1) == 0
