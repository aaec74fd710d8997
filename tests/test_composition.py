"""Interplay of the degree-one transformations with the associated shift."""

import io
import sys

import pytest

from conftest import (
    christoffel_assoc_polys,
    connection_reference,
    gero1_reference,
    gero2_reference,
    geronimus_assoc_polys,
    pro5_reference,
    random_functional,
    s_corecursive_reference,
    with_b1_moved,
)

from opoly import cli, composition, darboux, families, orthopoly, serialize
from opoly import functional as fa
from opoly.composition import (
    christoffel_assoc_chain,
    christoffel_assoc_check,
    christoffel_assoc_functional_check,
    corecursive_parameter,
    geronimus_assoc_chain,
    geronimus_assoc_connection_check,
    geronimus_assoc_factor_check,
    geronimus_assoc_second_check,
    shifted_factor_check,
)
from opoly.errors import DegenerateParameter, NotQuasiDefinite, OpolyError, ZeroPivot
from opoly.functional import MomentFunctional
from opoly.matrices import UnitLowerBidiagonal, UpperBidiagonal
from opoly.orthopoly import RecurrenceCoefficients, smop_from_moments
from opoly.poly import X
from opoly.rational import rat


def test_combination_smop_leading_instances():
    # chebyshev-u at c = 1: R_0 = 1 and R_1 = x - 1/4
    u = families.chebyshev_u(12)
    polys = christoffel_assoc_polys(u, 1, 3)
    assert polys[0] == 1 + 0 * X
    assert polys[1] == X - rat(1, 4)
    # laguerre(0) at c = 0: R_1 = x - 3
    lag = families.laguerre(0, 12)
    polys = christoffel_assoc_polys(lag, 0, 3)
    assert polys[1] == X - 3


def test_corecursive_parameter_values():
    assert corecursive_parameter(families.chebyshev_u(8), 1) == rat(1, 4)
    assert corecursive_parameter(families.laguerre(0, 8), 0) == -1


def test_corecursive_parameter_degenerates_when_the_mass_vanishes():
    # u_1 - c u_0 = 0 at c = 2 for laguerre(0) (u_0 = 1, u_1 = 2): the
    # level-0 minor of (x - c) u vanishes, as the Chebyshev algorithm says
    for route in (
        lambda: corecursive_parameter(families.laguerre(0, 8), 2),
        lambda: christoffel_assoc_check(families.laguerre(0, 12), 2, 3),
    ):
        with pytest.raises(NotQuasiDefinite) as caught:
            route()
        assert (caught.value.level, caught.value.guard) == (0, "norm")


def test_multiplication_side_checks_individually():
    u = families.chebyshev_u(20)
    assert christoffel_assoc_check(u, 1, 8).passed
    assert chain_report(christoffel_assoc_chain(u, 1, 8), "christoffel-assoc-connection").passed
    assert christoffel_assoc_functional_check(u, 1).passed
    report = shifted_factor_check(u, 1, 8)
    assert report.passed
    assert report.details["parts"] == {
        "corner-scalar": "pass",
        "tail-product": "pass",
        "swapped-tail-product": "pass",
    }


def test_corner_scalar_hand_value():
    # b_1 + alpha - c = 0 + 1/4 - 1 = -3/4 must equal the second pivot
    u = families.chebyshev_u(20)
    from opoly.darboux import christoffel_lu
    from opoly.orthopoly import smop_from_moments

    rc, _ = smop_from_moments(u, 9)
    _, upper, _ = christoffel_lu(rc, 1)
    assert upper.diag[1] == rat(-3, 4)


def test_division_side_checks_individually():
    v = families.laguerre(0, 20)
    assert chain_report(geronimus_assoc_chain(v, 0, 1, 8), "S-corecursive").passed
    assert geronimus_assoc_connection_check(v, 0, 1, 8).passed
    assert geronimus_assoc_second_check(v, 0, 1, 8).passed
    report = geronimus_assoc_factor_check(v, 0, 1, 8)
    assert report.passed
    assert report.details["parts"] == {
        "moment-identity": "pass",
        "shifted-product": "pass",
        "swapped-shifted-product": "pass",
        "shift-structure": "pass",
    }


def test_kernel_sequence_is_corecursive_with_parameter_minus_v0_over_m0():
    v = families.laguerre(rat(1, 2), 20)
    report = chain_report(geronimus_assoc_chain(v, 0, rat(2, 3), 8), "S-corecursive")
    assert report.passed
    assert report.details["alpha"] == "-3/2"  # -(v_0/m0) = -(alpha + 1)


def chain_report(reports, identity):
    """The one report of a chain that checks `identity`."""
    (report,) = [r for r in reports if r.identity == identity]
    return report


def test_the_shifted_factor_checks_read_the_transformed_recurrence(monkeypatch):
    # b_1 of each transform is the (0, 0) entry of its shifted Jacobi
    # matrix, so only the part that compares the swapped product with
    # that matrix may fail
    monkeypatch.setattr(composition, "christoffel_lu", with_b1_moved(darboux.christoffel_lu))
    monkeypatch.setattr(composition, "geronimus_ul", with_b1_moved(darboux.geronimus_ul))
    report = shifted_factor_check(families.chebyshev_u(20), 1, 8)
    assert report.details["parts"] == {
        "corner-scalar": "pass",
        "tail-product": "pass",
        "swapped-tail-product": "fail",
    }
    report = geronimus_assoc_factor_check(families.laguerre(0, 20), 0, 1, 8)
    assert report.details["parts"] == {
        "moment-identity": "pass",
        "shifted-product": "pass",
        "swapped-shifted-product": "fail",
        "shift-structure": "pass",
    }


def test_the_shifted_factor_parts_compare_the_blocks_truncation_leaves_exact(monkeypatch):
    # L_1 U_1 and Lhat Uhat on all of size rows, the swapped products off
    # the last row and column, and Uhat's structure off its unknown last
    # row, at every size on the three families
    seen = []

    def spy(name, left, right, block):
        seen.append((name, block))
        return block_report(name, left, right, block)

    block_report = composition._block_report
    monkeypatch.setattr(composition, "_block_report", spy)
    c, m0 = rat(1, 3), rat(7, 3)
    for u in (families.chebyshev_u(32), families.chebyshev_t(32), families.laguerre(1, 32)):
        for size in range(2, 13):
            seen.clear()
            assert shifted_factor_check(u, c, size).passed
            assert seen == [("tail-product", size), ("swapped-tail-product", size - 1)]
            seen.clear()
            assert geronimus_assoc_factor_check(u, c, m0, size).passed
            assert seen == [
                ("shifted-product", size),
                ("swapped-shifted-product", size - 1),
                ("shift-structure", size),
            ]


def test_kernel_sequence_closed_form():
    from opoly.associated import associated_polys
    from opoly.orthopoly import polys_from_recurrence, smop_from_moments

    v = families.chebyshev_u(20)
    m0 = rat(-1, 2)
    s_polys = geronimus_assoc_polys(v, m0, 6)
    rc, _ = smop_from_moments(v, 7)
    base = polys_from_recurrence(rc, 6)
    first = associated_polys(rc, 1, 5)
    for n in range(1, 7):
        assert s_polys[n] == base[n] + (1 / m0) * first[n - 1]


def test_geronimus_transform_of_laguerre_unit_mass_has_factorial_moments():
    v = families.laguerre(0, 12)
    vhat = fa.geronimus(v, 0, 1)
    acc = rat(1)
    for n, m in enumerate(vhat.moments):
        assert m == acc
        acc *= n + 1


def test_both_chains_pass_on_the_classical_instances():
    u = families.chebyshev_u(20)
    for report in christoffel_assoc_chain(u, 1, 8):
        assert report.passed, report.identity
    for report in geronimus_assoc_chain(u, 1, rat(-1, 2), 8):
        assert report.passed, report.identity
    lag = families.laguerre(0, 20)
    for report in christoffel_assoc_chain(lag, 0, 8):
        assert report.passed, report.identity
    for report in geronimus_assoc_chain(lag, 0, 1, 8):
        assert report.passed, report.identity


def test_both_chains_pass_on_the_committed_random_functional():
    u, c, m0 = random_functional()
    assert u.order == 20
    names = []
    for report in christoffel_assoc_chain(u, c, 8) + geronimus_assoc_chain(u, c, m0, 8):
        assert report.passed, report.identity
        names.append(report.identity)
    assert names == [
        "pro5",
        "christoffel-assoc-connection",
        "coro1",
        "shifted-lu",
        "S-corecursive",
        "gero1",
        "gero2",
        "pro6",
    ]


def test_the_division_chain_reads_the_recurrence_once(monkeypatch):
    # every check reads v's recurrence through smop_from_moments; the memo
    # on v must let the Chebyshev algorithm run once for all four, so a
    # check that recomputes the recurrence on its own copy of v fails here;
    # the runs on the moment sides that the checks compare are not counted
    u, c, m0 = random_functional()
    want = [report.to_json() for report in geronimus_assoc_chain(u, c, m0, 8)]

    def fresh():
        return MomentFunctional(u.moments)

    runs = counting(
        monkeypatch, orthopoly, "_chebyshev", lambda nums, den, n_max: (nums, den) == (u.num, u.den)
    )
    assert [report.to_json() for report in geronimus_assoc_chain(fresh(), c, m0, 8)] == want
    assert runs == [(u.num, u.den, 9)]
    # gero1 and gero2 on their own reuse the recurrence that the
    # factorization route read
    for check in (geronimus_assoc_connection_check, geronimus_assoc_second_check):
        runs.clear()
        assert check(fresh(), c, m0, 8).passed
        assert runs == [(u.num, u.den, 9)]


def test_the_division_chain_reports_a_zero_mass_before_a_vanishing_minor():
    # H_1 = u_0 u_2 - u_1^2 = 0: the recurrence fails at level 1
    v = MomentFunctional((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(DegenerateParameter):
        geronimus_assoc_chain(v, 1, 0, 4)
    with pytest.raises(NotQuasiDefinite) as caught:
        geronimus_assoc_chain(v, 1, 1, 4)
    assert caught.value.level == 1


def test_a_vanishing_normalization_is_reported_by_the_step_that_reads_it_first():
    # chebyshev-u at c = 1/2: P_2(1/2) = 0, so the perturbed recurrence's
    # b_0 - c vanishes in coro1, and with m0 = -2 b_0 - v_0/m0 = c in pro6;
    # (x - c) u fails at level 1 and the UL elimination at pivot 1 first
    u = families.chebyshev_u(16)
    c = rat(1, 2)
    for check in (
        lambda: christoffel_assoc_functional_check(u, c),
        lambda: christoffel_assoc_chain(u, c, 6),
    ):
        with pytest.raises(NotQuasiDefinite) as caught:
            check()
        assert (caught.value.level, caught.value.guard) == (1, "norm")
    for check in (
        lambda: geronimus_assoc_factor_check(u, c, -2, 6),
        lambda: geronimus_assoc_chain(u, c, -2, 6),
    ):
        with pytest.raises(ZeroPivot) as caught:
            check()
        assert caught.value.index == 1


def counting(monkeypatch, module, name, keep=lambda *args: True):
    """Calls of module.name, as argument tuples, for those that `keep` selects."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        if keep(*args):
            calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_multiplication_chain_builds_and_reads_each_functional_once(monkeypatch):
    # u and (x - c)u run the Chebyshev algorithm once each, at the deepest
    # depth a check reads (coro1's), and (x - c)u is built once; the runs
    # on coro1's moment side are not counted
    u, c, m0 = random_functional()
    want = [report.to_json() for report in christoffel_assoc_chain(u, c, 8)]
    fresh = MomentFunctional(u.moments)
    tilde = fa.multiply_poly(u, X - c)
    read = {(u.num, u.den), (tilde.num, tilde.den)}
    runs = counting(
        monkeypatch, orthopoly, "_chebyshev", lambda nums, den, n_max: (nums, den) in read
    )
    products = counting(
        monkeypatch, fa, "multiply_poly", lambda w, p: w is fresh and tuple(p) == (-c, 1)
    )
    assert [report.to_json() for report in christoffel_assoc_chain(fresh, c, 8)] == want
    assert [n_max for _, _, n_max in runs] == [10, 9]
    assert len(products) == 1
    runs.clear()
    assert christoffel_assoc_functional_check(MomentFunctional(u.moments), c).passed
    assert [n_max for _, _, n_max in runs] == [10, 9]


def refuse_polynomials(monkeypatch):
    """Make polys_from_recurrence raise under every name that opoly binds it to."""

    def refused(*args):
        raise AssertionError("polys_from_recurrence was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "opoly" and hasattr(module, "polys_from_recurrence"):
            monkeypatch.setattr(module, "polys_from_recurrence", refused)


def test_the_division_chain_eliminates_once_and_builds_no_polynomial(monkeypatch):
    # the checks compare recurrences and band identities, and gero1, gero2
    # and pro6 share one UL elimination
    u, c, m0 = random_functional()
    want = [report.to_json() for report in geronimus_assoc_chain(u, c, m0, 8)]
    refuse_polynomials(monkeypatch)
    eliminations = counting(monkeypatch, composition, "geronimus_ul")
    fresh = MomentFunctional(u.moments)
    assert [report.to_json() for report in geronimus_assoc_chain(fresh, c, m0, 8)] == want
    assert len(eliminations) == 1


def test_verify_christoffel_assoc_builds_no_polynomial(monkeypatch, capsys):
    # pro5 and the connection read R off u's recurrence, and the connection
    # its ratios P_{n+1}(c)/P_n(c) off the values at c
    refuse_polynomials(monkeypatch)
    argv = ["verify", "christoffel+assoc", "--family", "laguerre", "--c=-1/3", "--n", "8"]
    assert cli.main(argv) == 0
    capsys.readouterr()


# the inputs on which the recurrence and band forms of the interplay
# checks must give the records of the monomial route over built polynomials
BAND_INPUTS = (
    families.chebyshev_u(24),
    families.chebyshev_t(24),
    families.laguerre(1, 24),
    random_functional()[0],
)
C, M0 = rat(1, 3), rat(7, 3)


def moved_recurrences(rc):
    """rc with each entry, b_k then a_k, moved by one."""
    for k in range(rc.length):
        b = list(rc.b)
        b[k] += 1
        yield RecurrenceCoefficients(b, rc.a)
    for k in range(rc.length - 1):
        a = list(rc.a)
        a[k] += 1
        yield RecurrenceCoefficients(rc.b, a)


def moved_entries(entries):
    """Tuples of `entries` with one entry moved by one, each in turn."""
    for k in range(len(entries)):
        moved = list(entries)
        moved[k] += 1
        yield tuple(moved)


def outcome(check, *args):
    """A check's record, or the typed error it raises, for comparison."""
    try:
        return check(*args).to_json()
    except OpolyError as exc:
        return type(exc).__name__, str(exc)


def test_the_interplay_checks_give_the_monomial_records_on_moved_inputs():
    # every entry of u's and (x - c) u's recurrences and alpha moved by
    # one on the multiplication side, and of v's recurrence, the
    # transformed recurrence, L, U's diagonal and alpha on the division
    # side, at sizes 1-9: each check's whole record, or its typed error,
    # is the monomial route's
    cases = []
    for u in BAND_INPUTS:
        tilde_u = fa.multiply_poly(u, X - C)
        for n in range(1, 10):
            scale = u.moment(0) / (u.moment(1) - C * u.moment(0))
            rc, _ = smop_from_moments(u, n + 1)
            alpha = corecursive_parameter(u, C)
            tilde_rc, _ = smop_from_moments(tilde_u, n)
            inputs = [(alpha, rc, tilde_rc)]
            inputs += [(alpha, moved, tilde_rc) for moved in moved_recurrences(rc)]
            inputs += [(alpha, rc, moved) for moved in moved_recurrences(tilde_rc)]
            inputs += [(alpha + 1, rc, tilde_rc)]
            for a, r, t in inputs:
                cases += [
                    (composition._pro5, pro5_reference, (C, a, n, r, scale)),
                    (composition._connection, connection_reference, (C, n, r, scale, t)),
                ]
            rc, alpha, lower, upper, hat_rc = composition._hat_first(u, C, M0, n)
            inputs = [(alpha, rc, lower.sub, upper.diag, hat_rc)]
            inputs += [(alpha, m, lower.sub, upper.diag, hat_rc) for m in moved_recurrences(rc)]
            inputs += [(alpha, rc, lower.sub, upper.diag, m) for m in moved_recurrences(hat_rc)]
            inputs += [(alpha, rc, m, upper.diag, hat_rc) for m in moved_entries(lower.sub)]
            inputs += [(alpha, rc, lower.sub, m, hat_rc) for m in moved_entries(upper.diag)]
            inputs += [(alpha + 1, rc, lower.sub, upper.diag, hat_rc)]
            for a, r, sub, diag, h in inputs:
                moved_lower = UnitLowerBidiagonal(n + 1, sub)
                moved_upper = UpperBidiagonal(n + 1, diag)
                cases += [
                    (composition._s_corecursive, s_corecursive_reference, (u, M0, n, r, a)),
                    (composition._gero1, gero1_reference, (C, M0, n, r, a, moved_lower, h)),
                    (composition._gero2, gero2_reference, (C, M0, n, r, a, moved_upper, h)),
                ]
    failed = 0
    for check, reference, args in cases:
        got = outcome(check, *args)
        assert got == outcome(reference, *args), (check.__name__, args)
        failed += isinstance(got, tuple) or got["status"] == "fail"
    # 26 n + 19 cases per input and size n, 2796 of them failing or raising
    assert (len(cases), failed) == (4 * sum(26 * n + 19 for n in range(1, 10)), 2796)


def test_no_associated_functional_reads_moments_from_a_recurrence(monkeypatch, capsys):
    # the producer goes through u^{-1} and every check reads its moment
    # side's recurrence: with moments_from_jacobi raising under every name
    # that opoly binds it to, the producer and every identity still run
    u, c, m0 = random_functional()

    def refused(*args):
        raise AssertionError("moments_from_jacobi was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "opoly" and hasattr(module, "moments_from_jacobi"):
            monkeypatch.setattr(module, "moments_from_jacobi", refused)
    stdin = serialize.dumps(serialize.moments_record(u))
    verify = [
        ["verify", name, "--c=%s" % c, "--m0=%s" % m0, "--n", "6"] for name in cli.IDENTITIES
    ]
    for argv in [["transform", "associated", "--k", "2"]] + verify:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
