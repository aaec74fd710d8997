"""Division by (x - c)^2: determinant SMOP, tri-band factorizations, origin analogues."""

import random

import pytest
from conftest import (
    band_from_entries,
    conex2_failure_reference,
    derivatives_at,
    product_reference,
    random_functional,
    solve_unit_lower_reference,
    triband_failure_reference,
    wronskian_betas_reference,
)

from opoly import families, orthopoly, quadratic
from opoly import functional as fa
from opoly.associated import (
    associated_polys,
    inverse_connection,
    inverse_kernel,
    inverse_recurrence,
)
from opoly.errors import DegenerateParameter, NotQuasiDefinite, TruncationExhausted
from opoly.functional import MomentFunctional
from opoly.matrices import UnitLowerTriband, UpperTriband, first_block_mismatch, shifted
from opoly.orthopoly import (
    RecurrenceCoefficients,
    hankel_minor,
    jacobi_matrix,
    polys_from_recurrence,
    smop_from_moments,
)
from opoly.quadratic import (
    assoc_inverse_factorization,
    assoc_inverse_factorization_check,
    g_matrix_check,
    quadratic_connection_check,
    quadratic_factorization,
    quadratic_factorization_check,
    quadratic_geronimus_smop,
    quadratic_recurrence,
)
from opoly.rational import ZERO, rat

PARAMS = (
    (families.chebyshev_u(24), rat(1), rat(1), rat(1, 5)),
    (families.chebyshev_t(24), rat(3), rat(1), rat(1, 5)),
    (families.laguerre(0, 24), rat(-1), rat(1), rat(1, 5)),
)


def test_determinant_smop_equals_gram_schmidt_on_the_transform():
    for u, c, m0, m1 in PARAMS:
        system, d_star = quadratic_geronimus_smop(u, c, m0, m1, 8)
        v = fa.quadratic_geronimus(u, c, m0, m1)
        assert v.moments[:2] == (m0, m1)
        _, direct = smop_from_moments(v, 8)
        assert system.polys == direct.polys
        assert system.norms == direct.norms
        assert set(d_star) == set(range(2, 10))


def test_first_associated_derivative_at_c_is_a_moment_of_the_division():
    # (P^(1)_{n-1})'(c) = <(x - c)^{-2} u, P_n> / u_0, with (x - c)^{-2} u
    # the division that adds no mass at c
    for u, c, _, _ in PARAMS:
        rc, _ = smop_from_moments(u, 9)
        base = polys_from_recurrence(rc, 9)
        first = associated_polys(rc, 1, 8)
        residual = fa.divide_power(u, c, 2)
        for n in range(1, 10):
            slope = derivatives_at(first[n - 1], c, 1)[1]
            assert slope == fa.apply(residual, base[n]) / u.moments[0]


def test_degree_one_polynomial_carries_the_mass_ratio():
    from opoly.poly import X

    u = families.chebyshev_u(16)
    system, _ = quadratic_geronimus_smop(u, 1, rat(2), rat(1, 5), 2)
    assert system.polys[1] == X - rat(1, 10)


def test_quadratic_recurrence_matches_gram_schmidt():
    for u, c, m0, m1 in PARAMS:
        rc = quadratic_recurrence(u, c, m0, m1, 8)
        v = fa.quadratic_geronimus(u, c, m0, m1)
        direct, _ = smop_from_moments(v, 8)
        assert rc == direct


def test_connection_coefficients_connect():
    # the L factor's subdiagonals are alpha1[1..8] and alpha2[2..8]
    for u, c, m0, m1 in PARAMS:
        lower, _ = quadratic_factorization(u, c, m0, m1, 9)
        alpha1, alpha2 = (None,) + lower.sub1, (None, None) + lower.sub2
        system, _ = quadratic_geronimus_smop(u, c, m0, m1, 8)
        rc, _ = smop_from_moments(u, 9)
        base = polys_from_recurrence(rc, 8)
        for n in range(2, 9):
            assert system.polys[n] == base[n] + alpha1[n] * base[n - 1] + alpha2[n] * base[n - 2]


def test_zero_mass_is_rejected():
    u = families.chebyshev_u(16)
    with pytest.raises(DegenerateParameter):
        quadratic_geronimus_smop(u, 1, 0, 1, 4)


def test_known_degenerate_instance_trips_the_d_star_guard():
    # chebyshev-u, c = 1, m0 = 1, m1 = 0: S_1(1) = 0 and T_1(1) = 0 make
    # d*_2 vanish, and with it the transform's level-one Hankel minor
    u = families.chebyshev_u(16)
    with pytest.raises(NotQuasiDefinite) as info:
        quadratic_geronimus_smop(u, 1, 1, 0, 4)
    assert info.value.level == 1
    assert info.value.guard == "d_star"
    with pytest.raises(NotQuasiDefinite):
        quadratic_factorization(u, 1, 1, 0, 4)
    v = fa.quadratic_geronimus(u, 1, 1, 0)
    assert hankel_minor(v, 0) != 0 and hankel_minor(v, 1) == 0
    with pytest.raises(NotQuasiDefinite) as info:
        smop_from_moments(v, 4)
    assert info.value.level == 1


def perturbing_sub1(factorization, index):
    """The factorization with one first-subdiagonal entry of L moved by 1."""

    def producer(*args):
        lower, upper = factorization(*args)
        sub1 = list(lower.sub1)
        sub1[index] += 1
        return UnitLowerTriband(lower.size, sub1, lower.sub2), upper

    return producer


def test_factorization_checks_locate_a_perturbed_lower_factor(monkeypatch):
    u, c, m0, m1 = PARAMS[1]
    monkeypatch.setattr(
        quadratic, "quadratic_factorization", perturbing_sub1(quadratic_factorization, 3)
    )
    report = quadratic_factorization_check(u, c, m0, m1, 8)
    assert report.status == "fail"
    assert report.first_failure == {"part": "Q = L P", "level": 4}
    monkeypatch.setattr(
        quadratic, "assoc_inverse_factorization", perturbing_sub1(assoc_inverse_factorization, 3)
    )
    report = assoc_inverse_factorization_check(families.chebyshev_t(28), 1, 8)
    assert report.status == "fail"
    assert report.first_failure == {"part": "(J^(1))^2 = U L", "block": 4}


def test_origin_factorization_check_reads_u_once_and_inverts_it_once(monkeypatch):
    # u's recurrence is read once, at fu1's depth order/2, which the
    # factors and J^(1) read a truncation of; u^{-1} and fu1's moment side
    # run once each, and the fu1 part reads the u^{-1} the factors' check made
    u = MomentFunctional(families.laguerre(1, 32).moments)
    want = assoc_inverse_factorization_check(u, 1, 13).to_json()
    runs, inversions = [], []
    chebyshev, invert = orthopoly._chebyshev, fa.invert

    def counted_chebyshev(nums, den, n_max):
        runs.append(n_max)
        return chebyshev(nums, den, n_max)

    def counted_invert(w):
        inversions.append(w)
        return invert(w)

    monkeypatch.setattr(orthopoly, "_chebyshev", counted_chebyshev)
    monkeypatch.setattr(fa, "invert", counted_invert)
    fresh = MomentFunctional(u.moments)
    assert assoc_inverse_factorization_check(fresh, 1, 13).to_json() == want
    assert runs == [16, 13, 15]
    assert inversions == [fresh]


def test_origin_factorization_check_reports_a_failed_scaling_identity(monkeypatch):
    # the fu1 route finds moment 2 off
    route = quadratic._fu1_route
    monkeypatch.setattr(quadratic, "_fu1_route", lambda *args: route(*args)[:4] + (2,))
    report = assoc_inverse_factorization_check(families.chebyshev_u(28), 1, 8)
    assert report.status == "fail"
    assert report.first_failure == {"part": "fu1", "moment": 2}


def test_connection_check_passes():
    for u, c, m0, m1 in PARAMS:
        report = quadratic_connection_check(u, c, m0, m1, 8)
        assert report.passed
        assert report.identity == "conex2"


# the inputs and parameters on which the band identities of propLUinversa
# and conex2 must fail where the monomial route over built P's and Q's does
BAND_INPUTS = (
    families.chebyshev_u(24),
    families.chebyshev_t(24),
    families.laguerre(1, 24),
    random_functional()[0],
)
C, M0, M1 = rat(1, 3), rat(7, 3), rat(1, 5)


def moved_copies(entries):
    """Lists of the sequences in `entries`, once for each entry, with that entry moved by one."""
    for i, seq in enumerate(entries):
        for k in range(len(seq)):
            moved = [list(s) for s in entries]
            moved[i][k] += 1
            yield moved


def test_factor_band_identities_fail_where_the_monomial_route_does():
    # every entry of L and U moved by one at sizes 2-9; at size 2 only the
    # level-0 comparison reads diag[0] and super1[0], and diag[size - 1]
    # is read by no level
    cases = passed = 0
    for u in BAND_INPUTS:
        for size in range(2, 10):
            lower, upper = quadratic_factorization(u, C, M0, M1, size)
            rc, _ = smop_from_moments(u, size)
            hat_rc, _ = smop_from_moments(fa.quadratic_geronimus(u, C, M0, M1), size)
            j = shifted(jacobi_matrix(rc, size), C)
            j_hat = shifted(jacobi_matrix(hat_rc, size), C)
            base = polys_from_recurrence(rc, size - 1)
            q_polys = polys_from_recurrence(hat_rc, size)
            factors = (lower.sub1, lower.sub2, upper.diag, upper.super1)
            for sub1, sub2, diag, super1 in [factors, *moved_copies(factors)]:
                moved_lower = UnitLowerTriband(size, sub1, sub2)
                moved_upper = UpperTriband(size, diag, super1)
                got = quadratic._connection_failure(j, j_hat, moved_lower, moved_upper)
                want = triband_failure_reference(base, q_polys, moved_lower, moved_upper, C)
                assert got == want, (size, sub1, sub2, diag, super1)
                cases += 1
                passed += want is None
    # one unmoved and one moved diag[size - 1] pass per size
    assert (cases, passed) == (4 * 8 + 576, 4 * 8 * 2)


def conex2_sides(u, n_max, q_rc):
    """J and Jhat shifted by C at size n_max + 2, and P_0..P_{n_max} and
    Q_0..Q_{n_max+2} built from u's recurrence and q_rc."""
    rc, _ = smop_from_moments(u, n_max + 2)
    size = n_max + 2
    j = shifted(jacobi_matrix(rc, size), C)
    j_hat = shifted(jacobi_matrix(q_rc, size), C)
    return j, j_hat, polys_from_recurrence(rc, n_max), polys_from_recurrence(q_rc, n_max + 2)


def test_conex2_band_identity_fails_where_the_monomial_route_does():
    # every Wronskian coefficient moved by one; U's last diagonal entry,
    # which no level reads, is left zero as conex2 leaves it
    cases = 0
    for u in BAND_INPUTS:
        for n_max in range(1, 10):
            if u.order < 2 * n_max + 6:
                continue
            assert quadratic_connection_check(u, C, M0, M1, n_max).passed
            q_rc = quadratic_recurrence(u, C, M0, M1, n_max + 2)
            j, j_hat, base, q_polys = conex2_sides(u, n_max, q_rc)
            betas = wronskian_betas_reference(q_polys, C, n_max)
            assert len(betas) == n_max + 1
            for diag, super1 in moved_copies(list(zip(*betas))):
                upper = UpperTriband(n_max + 2, diag + [ZERO], super1)
                got = quadratic._upper_failure(j, j_hat, upper)
                want = conex2_failure_reference(base, q_polys, list(zip(diag, super1)), C, n_max)
                assert want is not None and got == want, (n_max, diag, super1)
                cases += 1
    assert cases == 3 * sum(2 * (n + 1) for n in range(1, 10)) + sum(
        2 * (n + 1) for n in range(1, 8)
    )


def test_conex2_on_a_moved_kernel_recurrence_fails_where_the_monomial_route_does(monkeypatch):
    # each entry of the kernel's recurrence moved by one, and a_1 set to
    # -(c - b_0)^2, where W(Q_1, Q_2)(c) = (c - b_0)^2 + a_1 vanishes: the
    # whole record, Wronskians and levels, matches the monomial route
    division = quadratic._division
    records = []
    for u in BAND_INPUTS:
        for n_max in (1, 2, 5, 9):
            if u.order < 2 * n_max + 6:
                continue
            kernel = division(u, C, M0, M1, n_max + 2)
            b, a = kernel.recurrence.b, kernel.recurrence.a
            vanishing = [-((C - b[0]) ** 2)] + list(a[1:])
            for moved_b, moved_a in [(b, vanishing), *moved_copies((b, a))]:
                q_rc = RecurrenceCoefficients(moved_b, moved_a)
                monkeypatch.setattr(
                    quadratic, "_division", lambda *args: kernel._replace(recurrence=q_rc)
                )
                got = quadratic_connection_check(u, C, M0, M1, n_max).to_json()
                _, _, base, q_polys = conex2_sides(u, n_max, q_rc)
                betas = wronskian_betas_reference(q_polys, C, n_max)
                want = conex2_failure_reference(base, q_polys, betas, C, n_max)
                assert got.get("first_failure") == want, (n_max, moved_b, moved_a)
                records.append(want)
    assert {"level": 1, "reason": "W(Q_{n+1}, Q_n)(c) = 0"} in records


def test_factorization_check_passes_and_reports_blocks():
    for u, c, m0, m1 in PARAMS:
        report = quadratic_factorization_check(u, c, m0, m1, 8)
        assert report.passed
        assert report.identity == "propLUinversa"
        assert report.details["ul_block"] == 6
        assert report.details["lu_block"] == 7


def test_factorization_check_at_size_two_compares_the_blocks_it_reports():
    # at size 2 the truncation cuts off the second off-diagonals of L and
    # U, so U L is certified on no block and L U on the leading entry
    for u, c, m0, m1 in PARAMS:
        report = quadratic_factorization_check(u, c, m0, m1, 2)
        assert report.passed
        assert (report.details["ul_block"], report.details["lu_block"]) == (0, 1)


def test_factorization_structure():
    u, c, m0, m1 = PARAMS[0]
    lower, upper = quadratic_factorization(u, c, m0, m1, 8)
    assert lower.size == 8 and upper.size == 8
    assert len(lower.sub1) == 7 and len(lower.sub2) == 6
    band = upper.to_band()
    for n in range(6):
        assert band.entry(n, n + 2) == 1
    with pytest.raises(ValueError):
        quadratic_factorization(u, c, m0, m1, 1)


def test_origin_factorization_and_g_matrix():
    for u in (families.chebyshev_u(28), families.chebyshev_t(28), families.laguerre(0, 28)):
        report = assoc_inverse_factorization_check(u, 1, 8)
        assert report.passed
        assert report.identity == "relationlu"
        g_report = g_matrix_check(u, 8)
        assert g_report.passed
        assert g_report.identity == "g-matrix"
        # at size 2 the compared block is empty: the truncated product's
        # last row is never read, even when L's subdiagonal vanishes
        assert g_matrix_check(u, 2).details == {"gl_block": 0}


def test_the_band_identity_fails_first_where_the_quotient_does():
    # J^- L = L J^(1) on bands against G L = J^(1) with G = L^{-1} J^-
    # formed by forward substitution, on the inverse connection and on
    # copies with sub1, sub2 or both perturbed at one random entry: the
    # same first failing block of the leading size - 2, or no failure
    rng = random.Random(18)
    passed = failed = 0
    inputs = (
        families.laguerre(1, 20),
        families.chebyshev_t(20),
        families.chebyshev_u(20),
        random_functional()[0],
    )
    for u in inputs:
        for size in range(3, 10):
            alpha1, alpha2, _ = inverse_connection(u, size - 1)
            rc, _ = smop_from_moments(u, size + 1)
            j_first = jacobi_matrix(rc.shifted(1), size)
            j_minus = jacobi_matrix(inverse_recurrence(u, size), size)
            assert g_matrix_check(u, size).details == {"gl_block": size - 2}
            for perturb in ((), (0,), (1,), (0, 1)):
                subs = [
                    [alpha1[n] for n in range(1, size)],
                    [alpha2[n] for n in range(2, size)],
                ]
                for which in perturb:
                    k = rng.randrange(len(subs[which]))
                    subs[which][k] += rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                lower = UnitLowerTriband(size, *subs)
                l_band = lower.to_band()
                gl = product_reference(solve_unit_lower_reference(l_band, j_minus), l_band)
                gl_band = band_from_entries(size, 1 - size, size - 1, lambda i, j: gl[i][j])
                block = first_block_mismatch(gl_band, j_first, size - 2)
                want = None if block is None else {"part": "G L = J^(1)", "block": block}
                assert quadratic._g_matrix_failure(lower, j_first, j_minus) == want
                passed += block is None
                failed += block is not None
    assert passed > 28 and failed > 28


def test_g_matrix_reports_a_kernel_that_disagrees_with_the_moments_as_a_failure(monkeypatch):
    # alpha2[4] of the inverse kernel is entry (4, 2) of L: J^- L first
    # reads it in row 3
    def moved(u, n_max):
        kernel = inverse_kernel(u, n_max)
        return kernel._replace(alpha2={**kernel.alpha2, 4: kernel.alpha2[4] + 1})

    monkeypatch.setattr(quadratic, "inverse_kernel", moved)
    report = g_matrix_check(families.laguerre(1, 28), 8)
    assert report.status == "fail"
    assert report.first_failure == {"part": "G L = J^(1)", "block": 4}


def test_g_matrix_and_relationlu_read_the_same_moments():
    # both read 2 * size + 2 moments of u off one inverse kernel, so a
    # short input raises the same TruncationExhausted for both, naming them
    for size in range(3, 7):
        for order in range(6, 2 * size + 2):
            u = families.chebyshev_t(28).truncated(order)
            want = "need %d moments for n_max=%d, have %d" % (2 * size + 2, size + 1, order)
            for check in (g_matrix_check, lambda u, n: assoc_inverse_factorization_check(u, 1, n)):
                with pytest.raises(TruncationExhausted) as excinfo:
                    check(u, size)
                assert str(excinfo.value) == want


def test_origin_factorization_returns_tribands():
    u = families.chebyshev_u(28)
    lower, upper = assoc_inverse_factorization(u, 6)
    assert lower.size == 6 and upper.size == 6
    # its first subdiagonal carries the inverse connection coefficients,
    # which vanish for a symmetric family
    assert all(x == 0 for x in lower.sub1)
    assert all(x != 0 for x in lower.sub2)


def test_producers_guard_only_the_levels_they_read():
    # with m1 = 0 at c = 1, chebyshev-u's transform has a vanishing level-1
    # Hankel minor; a depth-1 recurrence reads only level 0
    u = families.chebyshev_u(24)
    assert quadratic_recurrence(u, 1, 1, 0, 1).b == (0,)
    assert hankel_minor(fa.quadratic_geronimus(u, 1, 1, 0), 1) == 0
    for read_level_one in (
        lambda: quadratic_recurrence(u, 1, 1, 0, 2),
        lambda: quadratic_factorization(u, 1, 1, 0, 2),
    ):
        with pytest.raises(NotQuasiDefinite) as excinfo:
            read_level_one()
        assert (excinfo.value.level, excinfo.value.guard) == (1, "d_star")


def test_producers_need_two_moments_per_size_and_two_more():
    for u, c, m0, m1 in PARAMS:
        short = u.truncated(18)
        assert quadratic_recurrence(short, c, m0, m1, 8) == quadratic_recurrence(u, c, m0, m1, 8)
        lower, upper = quadratic_factorization(short, c, m0, m1, 8)
        want_lower, want_upper = quadratic_factorization(u, c, m0, m1, 8)
        assert lower.to_band() == want_lower.to_band()
        assert upper.to_band() == want_upper.to_band()
        with pytest.raises(TruncationExhausted):
            quadratic_factorization(u.truncated(17), c, m0, m1, 8)
    lower, _ = assoc_inverse_factorization(families.chebyshev_u(14), 6)
    assert lower.size == 6
