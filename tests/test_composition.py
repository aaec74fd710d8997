"""Interplay of the degree-one transformations with the associated shift."""

import io
import sys
from collections import Counter

import pytest

from conftest import random_functional, with_b1_moved

from opoly import associated, cli, composition, darboux, families, orthopoly, serialize
from opoly import functional as fa
from opoly.composition import (
    christoffel_assoc_chain,
    christoffel_assoc_check,
    christoffel_assoc_functional_check,
    christoffel_assoc_polys,
    corecursive_parameter,
    geronimus_assoc_chain,
    geronimus_assoc_polys,
    geronimus_assoc_connection_check,
    geronimus_assoc_factor_check,
    geronimus_assoc_second_check,
    shifted_factor_check,
)
from opoly.errors import DegenerateParameter, NotQuasiDefinite, ZeroPivot
from opoly.functional import MomentFunctional
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
        lambda: christoffel_assoc_polys(families.laguerre(0, 12), 2, 3),
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
        monkeypatch, fa, "multiply_poly", lambda w, p: w is fresh and p == X - c
    )
    assert [report.to_json() for report in christoffel_assoc_chain(fresh, c, 8)] == want
    assert [n_max for _, _, n_max in runs] == [10, 9]
    assert len(products) == 1
    runs.clear()
    assert christoffel_assoc_functional_check(MomentFunctional(u.moments), c).passed
    assert [n_max for _, _, n_max in runs] == [10, 9]


def test_the_division_chain_eliminates_and_builds_s_once(monkeypatch):
    # four polynomial sequences, each built once: P and P^(1) for S, the
    # co-recursive route, and Phat^(1), which gero1 reads a prefix of
    u, c, m0 = random_functional()
    want = [report.to_json() for report in geronimus_assoc_chain(u, c, m0, 8)]
    eliminations = counting(monkeypatch, composition, "geronimus_ul")
    s_builds = counting(monkeypatch, composition, "geronimus_assoc_polys")
    builds = [
        counting(monkeypatch, module, "polys_from_recurrence")
        for module in (orthopoly, associated, composition)
    ]
    fresh = MomentFunctional(u.moments)
    assert [report.to_json() for report in geronimus_assoc_chain(fresh, c, m0, 8)] == want
    assert len(eliminations) == len(s_builds) == 1
    made = Counter(call for calls in builds for call in calls)
    assert sum(made.values()) == len(made) == 4


def test_verify_christoffel_assoc_builds_each_polynomial_sequence_once(monkeypatch, capsys):
    # P_0..P_{n+1} of u is built once, for R_n; the connection check reads
    # its ratios P_{n+1}(c)/P_n(c) off the values at c instead
    builds = [
        counting(monkeypatch, module, "polys_from_recurrence")
        for module in (orthopoly, associated, composition)
    ]
    argv = ["verify", "christoffel+assoc", "--family", "laguerre", "--c=-1/3", "--n", "8"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    made = Counter(call for calls in builds for call in calls)
    assert max(made.values()) == 1
    assert any(n_max == 9 for _, n_max in made)


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
