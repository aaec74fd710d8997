"""Associated sequences, co-recursive perturbations, and the inverse-functional SMOP."""

import pytest
from conftest import corecursive_by_subtraction, corecursive_polys

from opoly import families
from opoly import functional as fa
from opoly.associated import (
    assoc_representation_check,
    associated_functional,
    associated_polys,
    corecursive_functional,
    corecursive_functional_check,
    divided_difference,
    inverse_connection,
    inverse_functional_identity_check,
    inverse_recurrence,
    inverse_smop,
    linear_combination_check,
)
from opoly.errors import (
    DegenerateParameter,
    NotQuasiDefinite,
    TruncationExhausted,
    ZeroFirstMoment,
)
from opoly.functional import MomentFunctional
from opoly.orthopoly import (
    RecurrenceCoefficients,
    jacobi_matrix,
    moments_from_jacobi,
    smop_from_moments,
)
from opoly.poly import X
from opoly.rational import rat


def test_first_associated_of_chebyshev_t_is_chebyshev_u():
    u = families.chebyshev_t(22)
    rc, _ = smop_from_moments(u, 11)
    first = associated_polys(rc, 1, 10)
    u_rc = families.chebyshev_u_recurrence(10)
    from opoly.orthopoly import polys_from_recurrence

    assert first == polys_from_recurrence(u_rc, 10)


def test_associated_functional_has_prescribed_first_moment():
    u = families.chebyshev_u(20)
    w = associated_functional(u, 1, rat(5, 7), 9)
    assert w.moments[0] == rat(5, 7)
    assert w.order == 9


def test_associated_functionals_of_chebyshev_t_are_chebyshev_u():
    # T's recurrence shifted by any k >= 1 is U's: every level's
    # functional is U's normalized moments, through u^{-1} at each step
    t = families.chebyshev_t(24)
    for k in (1, 2, 3):
        assert associated_functional(t, k, 1, 24 - 2 * k) == families.chebyshev_u(24 - 2 * k)


def test_associated_functional_typed_errors():
    # a_1 = 1/2, a_2 = 0: level 1 passes, level 2 meets the vanishing minor
    u = moments_from_jacobi(
        jacobi_matrix(RecurrenceCoefficients((0, 1, 2, 3), (rat(1, 2), 0, 5)), 4), 1, 7
    )
    assert associated_functional(u, 1, 1, 5).moment(0) == 1
    for k in (2, 3):
        with pytest.raises(NotQuasiDefinite) as excinfo:
            associated_functional(u, k, 1, 1)
        assert (excinfo.value.level, excinfo.value.guard) == (2, "norm")
    with pytest.raises(NotQuasiDefinite) as excinfo:
        associated_functional(MomentFunctional((0, 1, 2, 3)), 1, 1, 2)
    assert excinfo.value.level == 0
    with pytest.raises(DegenerateParameter):
        associated_functional(u, 1, 0, 5)
    with pytest.raises(TruncationExhausted):
        associated_functional(u, 1, 1, 6)


def test_divided_difference_small_oracle():
    # p = x^2, u arbitrary: <u_y, (x^2 - y^2)/(x - y)> = u_0 x + u_1
    u = MomentFunctional((2, 3, 5))
    got = divided_difference(u, X * X)
    assert got == X + rat(3, 2)
    with pytest.raises(ZeroFirstMoment):
        divided_difference(MomentFunctional((0, 1)), X)


def test_representation_and_linear_combination_checks_pass():
    u = families.chebyshev_u(24)
    assert assoc_representation_check(u, 1, 8).passed
    assert assoc_representation_check(u, 2, 8).passed
    lag = families.laguerre(rat(1, 2), 24)
    assert assoc_representation_check(lag, 2, 8).passed
    assert linear_combination_check(u, 2, 8).passed
    assert linear_combination_check(lag, 3, 8).passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_representation_check_at_degree_one_reads_no_shifted_coefficient(k):
    # the target P^(k)_0 = 1 needs none of the k shifted coefficients
    for u in (families.chebyshev_t(24), families.chebyshev_u(24), families.laguerre(1, 24)):
        report = assoc_representation_check(u, k, 1)
        assert report.passed and report.max_level == 1


def test_corecursive_two_routes_agree():
    rc = families.laguerre_recurrence(rat(1, 2), 8)
    assert corecursive_polys(rc, rat(-2, 3), 7) == corecursive_by_subtraction(rc, rat(-2, 3), 7)
    assert corecursive_polys(rc, 0, 5) == associated_polys(rc, 0, 5)


def test_corecursive_functional_matches_the_perturbed_recurrence():
    u = families.chebyshev_u(20)
    alpha = rat(1, 3)
    got = corecursive_functional(u, alpha)
    rc, _ = smop_from_moments(u, 10)
    want = moments_from_jacobi(
        jacobi_matrix(rc.corecursive(alpha), 10), 1, min(got.order, 19)
    )
    assert got.truncated(want.order).normalized() == want.normalized()
    assert corecursive_functional_check(u, alpha).passed
    assert corecursive_functional_check(u, 0).passed


def test_corecursive_functional_keeps_norm0():
    u = families.laguerre(0, 12)
    got = corecursive_functional(u, rat(1, 2), norm0=rat(7))
    assert got.moments[0] == 7


def test_first_kind_functional_scaling_identity():
    for u in (families.chebyshev_u(20), families.chebyshev_t(20), families.laguerre(0, 20)):
        report = inverse_functional_identity_check(u, rat(3, 2))
        assert report.passed
        assert report.identity == "fu1"


def test_inverse_connection_tables_match_closed_forms():
    u = families.chebyshev_u(24)
    alpha1, alpha2, d_star = inverse_connection(u, 10)
    for n in range(1, 11):
        assert alpha1[n] == 0
    for n in range(2, 11):
        assert alpha2[n] == families.chebyshev_u_alpha2(n)
    for n in range(1, 12):
        assert d_star[n] == families.chebyshev_u_d_star(n)

    t = families.chebyshev_t(24)
    alpha1, alpha2, d_star = inverse_connection(t, 10)
    for n in range(1, 11):
        assert alpha1[n] == 0
    for n in range(2, 11):
        assert alpha2[n] == families.chebyshev_t_alpha2(n)
    for n in range(1, 12):
        assert d_star[n] == families.chebyshev_t_d_star(n)

    lag = families.laguerre(rat(1, 2), 22)
    alpha1, alpha2, d_star = inverse_connection(lag, 9)
    for n in range(1, 10):
        assert alpha1[n] == families.laguerre_inverse_alpha1(rat(1, 2), n)
    for n in range(2, 10):
        assert alpha2[n] == families.laguerre_inverse_alpha2(rat(1, 2), n)
    for n in range(1, 11):
        assert d_star[n] == families.laguerre_d_star(rat(1, 2), n)


def test_inverse_smop_agrees_with_gram_schmidt_on_inverted_moments():
    for u in (
        families.chebyshev_u(22),
        families.chebyshev_t(22),
        families.laguerre(0, 22),
        families.laguerre(rat(1, 2), 22),
    ):
        system, d_star = inverse_smop(u, 10)
        rc_direct, direct = smop_from_moments(fa.invert(u), 10)
        assert system.polys == direct.polys
        assert system.norms == direct.norms
        assert set(d_star) == set(range(1, 12))


def test_inverse_smop_degree_two_for_chebyshev_u():
    system, _ = inverse_smop(families.chebyshev_u(10), 2)
    assert system.polys[1] == X  # b_0 = 0, so degree one is x + b_0 = x
    assert system.polys[2] == X * X + rat(1, 4)


def test_inverse_recurrence_conventions():
    # b^-_0 = -b_0 and a^-_1 = -(b_0^2 + a_1), here on Laguerre
    alpha = rat(1, 2)
    u = families.laguerre(alpha, 20)
    rc_inv = inverse_recurrence(u, 8)
    assert rc_inv.b[0] == -(alpha + 2)
    assert rc_inv.a[0] == -(alpha + 2) * (alpha + 3)
    rc, _ = smop_from_moments(u, 2)
    assert -(rc.b_at(0) ** 2 + rc.a_at(1)) == rc_inv.a[0]
    for n in range(8):
        assert rc_inv.b[n] == families.laguerre_inverse_b(alpha, n)
    for n in range(1, 8):
        assert rc_inv.a[n - 1] == families.laguerre_inverse_a(alpha, n)


def test_inverse_recurrence_chebyshev_tables():
    u = families.chebyshev_u(24)
    rc_inv = inverse_recurrence(u, 11)
    assert all(b == 0 for b in rc_inv.b)
    for n in range(1, 11):
        assert rc_inv.a[n - 1] == families.chebyshev_u_inverse_a(n)

    t = families.chebyshev_t(24)
    rc_inv = inverse_recurrence(t, 11)
    assert all(b == 0 for b in rc_inv.b)
    for n in range(1, 11):
        assert rc_inv.a[n - 1] == families.chebyshev_t_inverse_a(n)


def test_level_one_guard_fires_when_b0_squared_plus_a1_vanishes():
    # b_0 = 1, a_1 = -1 gives b_0^2 + a_1 = 0, so d*_2 = 0: the inverse's
    # level-one Hankel minor vanishes and it has no quasi-definite SMOP
    # past level one.  A one-term inverse recurrence does not reach it.
    rc = RecurrenceCoefficients((1, 0, 0, 0), (-1, 1, 1))
    u = moments_from_jacobi(jacobi_matrix(rc, 4), 1, 7)
    for producer in (inverse_recurrence, inverse_connection, inverse_smop):
        with pytest.raises(NotQuasiDefinite) as info:
            producer(u, 2)
        assert (info.value.level, info.value.guard) == (1, "d_star")
    assert inverse_recurrence(u, 1).b == (-1,)


def test_inverse_transform_requires_nonzero_first_moment():
    u = MomentFunctional((0, 1, 2, 3))
    with pytest.raises(ZeroFirstMoment):
        inverse_connection(u, 1)
