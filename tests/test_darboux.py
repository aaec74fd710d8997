"""Bidiagonal factorizations of J - cI and the degree-one transformation checks."""

import sys

import pytest
from conftest import rep_chris_reference, run_cli, with_b1_moved
from test_composition import BAND_INPUTS, moved_entries, moved_recurrences, outcome
from test_mutations import INPUTS

from opoly import darboux, families
from opoly import functional as fa
from opoly.darboux import (
    christoffel_connection_check,
    christoffel_lu,
    geronimus_ul,
)
from opoly.errors import DegenerateParameter, OpolyError, ZeroPivot
from opoly.matrices import UpperBidiagonal, first_block_mismatch, mat_multiply, shifted
from opoly.orthopoly import OrthogonalSystem, jacobi_matrix, smop_from_moments
from opoly.poly import Polynomial, X
from opoly.rational import ONE, rat


def test_christoffel_lu_reproduces_the_matrix_and_the_transform():
    u = families.chebyshev_u(24)
    rc, _ = smop_from_moments(u, 12)
    j = jacobi_matrix(rc, 12)
    lower, upper, transformed = christoffel_lu(rc, rat(1))
    product = mat_multiply(lower.to_band(), upper.to_band())
    assert first_block_mismatch(product, shifted(j, 1), 12) is None
    # the transformed matrix is the Jacobi matrix of (x - 1) u
    tilde_rc, _ = smop_from_moments(fa.multiply_poly(u, X - 1), 11)
    assert transformed == tilde_rc


def test_christoffel_lu_chebyshev_u_closed_forms():
    u = families.chebyshev_u(20)
    rc, _ = smop_from_moments(u, 10)
    lower, upper, _ = christoffel_lu(rc, rat(1))
    for n in range(10):
        assert upper.diag[n] == families.chebyshev_u_christoffel_beta(n)
    for n in range(1, 10):
        assert lower.sub[n - 1] == families.chebyshev_u_christoffel_ell(n)


def test_christoffel_lu_pivot_vanishes_at_a_zero_of_some_polynomial():
    # P_1(0) = 0 for the symmetric family, so c = 0 dies immediately
    u = families.chebyshev_u(12)
    rc, _ = smop_from_moments(u, 6)
    with pytest.raises(ZeroPivot) as info:
        christoffel_lu(rc, 0)
    assert info.value.index == 0
    # P_2(1/2) = 0: the pivot at step 1 vanishes
    with pytest.raises(ZeroPivot) as info:
        christoffel_lu(rc, rat(1, 2))
    assert info.value.index == 1


def test_geronimus_ul_reproduces_the_matrix_and_the_transform():
    u = families.chebyshev_u(20)
    c, m0 = rat(1), rat(-1, 2)
    rc, _ = smop_from_moments(u, 10)
    j = jacobi_matrix(rc, 10)
    lower, upper, transformed = geronimus_ul(rc, c, u.moments[0] / m0)
    product = mat_multiply(upper.to_band(), lower.to_band())
    assert first_block_mismatch(product, shifted(j, c), 9) is None
    hat_rc, _ = smop_from_moments(fa.geronimus(u, c, m0), 10)
    assert transformed == hat_rc


def test_geronimus_ul_chebyshev_u_hand_values():
    u = families.chebyshev_u(12)
    rc, _ = smop_from_moments(u, 6)
    lower, upper, _ = geronimus_ul(rc, rat(1), rat(1) / rat(-1, 2))
    assert upper.diag[0] == -2
    assert lower.sub[0] == 1
    assert upper.diag[1] == rat(1, 4)
    assert lower.sub[1] == rat(-5, 4)


def test_geronimus_ul_laguerre_closed_forms():
    for alpha in (rat(0), rat(1, 2)):
        u = families.laguerre(alpha, 20)
        rc, _ = smop_from_moments(u, 10)
        lower, upper, hat = geronimus_ul(rc, 0, u.moments[0] * (alpha + 1))
        for n in range(10):
            assert upper.diag[n] == families.laguerre_geronimus_beta(alpha, n)
        for n in range(1, 10):
            assert lower.sub[n - 1] == families.laguerre_geronimus_ell(n)
        # the transform has the recurrence of the weight with parameter
        # lowered by one: b_n = 2n + alpha + 1, a_n = n (n + alpha)
        for n in range(10):
            assert hat.b[n] == 2 * n + alpha + 1
        for n in range(1, 10):
            assert hat.a[n - 1] == n * (n + alpha)


def test_geronimus_ul_rejects_a_zero_corner():
    u = families.chebyshev_u(12)
    rc, _ = smop_from_moments(u, 6)
    with pytest.raises(DegenerateParameter):
        geronimus_ul(rc, 1, 0)


def test_geronimus_ul_pivot_failure_is_typed():
    # c = 1, beta_0 = b_0 - c = -1 makes ell_1 = b_0 - c - beta_0 = 0
    u = families.chebyshev_u(12)
    rc, _ = smop_from_moments(u, 6)
    with pytest.raises(ZeroPivot) as info:
        geronimus_ul(rc, 1, rc.b_at(0) - 1)
    assert info.value.index == 1


def test_connection_check_passes_on_all_families():
    assert christoffel_connection_check(families.chebyshev_u(24), rat(1), 10).passed
    assert christoffel_connection_check(families.chebyshev_t(24), rat(3), 10).passed
    assert christoffel_connection_check(families.laguerre(0, 24), rat(-1), 10).passed


def test_the_connection_check_reads_the_transformed_recurrence(monkeypatch):
    monkeypatch.setattr(darboux, "christoffel_lu", with_b1_moved(darboux.christoffel_lu))
    report = christoffel_connection_check(families.chebyshev_u(24), rat(1), 10)
    assert report.details["parts"] == {
        "kernel-representation": "pass",
        "pivot-closed-form": "pass",
        "transformed-recurrence": "fail",
    }


def test_verify_rep_chris_builds_no_polynomial(monkeypatch):
    # the kernel representation is a band identity on the two recurrences,
    # its ratios come off the values at c, and (x - c) u is formed from
    # its coefficients, so no polynomial is built, combined or evaluated
    def refused(*args):
        raise AssertionError("a polynomial was built, combined or evaluated")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "opoly":
            for attr in ("polys_from_recurrence", "_combine"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refused)
    monkeypatch.setattr(OrthogonalSystem, "polys", property(refused))
    monkeypatch.setattr(Polynomial, "evaluate", refused)
    monkeypatch.setattr(Polynomial, "__call__", refused)
    for args, stdin_text, _ in INPUTS.values():
        argv = ["verify", "repChris", "--n", "8", "--c=1/3"] + args
        code, out, err = run_cli(argv, stdin_text)
        assert (code, err) == (0, ""), (argv, out, err)


def _band_outcome(u, c, n, rc, tilde_rc, lu):
    """repChris's record, or its typed error, with u's and (x - c) u's
    recurrences read as rc and tilde_rc and the LU elimination as lu().
    Each recurrence comes with its own system (norms unread), so a check
    that builds polynomials from the system sees the moved recurrence too."""

    def smop(w, _):
        moved = rc if w is u else tilde_rc
        return moved, OrthogonalSystem(moved, (ONE,) * moved.length)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(darboux, "smop_from_moments", smop)
        patch.setattr(darboux, "christoffel_lu", lambda *_: lu())
        return outcome(christoffel_connection_check, u, c, n)


def _moved_stages(rc, tilde_rc, c, n):
    """(rc, tilde_rc, lu) with one entry of u's or (x - c) u's recurrence,
    of U's diagonal or of the transformed recurrence moved by one, each in
    turn, after the unmoved stages; a moved rc is refactored, as the
    elimination reads it too."""
    yield rc, tilde_rc, lambda: christoffel_lu(rc, c)
    for moved in moved_recurrences(rc):
        yield moved, tilde_rc, lambda moved=moved: christoffel_lu(moved, c)
    for moved in moved_recurrences(tilde_rc):
        yield rc, moved, lambda: christoffel_lu(rc, c)
    try:
        lower, upper, transformed = christoffel_lu(rc, c)
    except ZeroPivot:
        return
    for diag in moved_entries(upper.diag):
        yield rc, tilde_rc, lambda diag=diag: (lower, UpperBidiagonal(n + 1, diag), transformed)
    for moved in moved_recurrences(transformed):
        yield rc, tilde_rc, lambda moved=moved: (lower, upper, moved)


def test_rep_chris_gives_the_monomial_records_on_moved_inputs():
    # at sizes 1-7 and three points c, the band route's whole record, or
    # its typed error, is the monomial route's on every moved stage
    cases, failed = 0, 0
    for u in BAND_INPUTS:
        for c in (rat(1, 3), rat(-1), rat(2)):
            tilde_u = fa.multiply_poly(u, X - c)
            for n in range(1, 8):
                rc, _ = smop_from_moments(u, n + 1)
                try:
                    tilde_rc, _ = smop_from_moments(tilde_u, n)
                except OpolyError:
                    # (x - 2) u is not quasi-definite on the random
                    # fixture (level 0), nor on Laguerre(1) (level 1)
                    continue
                for r, t, lu in _moved_stages(rc, tilde_rc, c, n):
                    got = _band_outcome(u, c, n, r, t, lu)
                    assert got == outcome(lambda: rep_chris_reference(c, n, r, t, lu())), (n, r, t)
                    cases += 1
                    failed += isinstance(got, tuple) or got["status"] == "fail"
    # 7 n + 1 cases per input, point and size, less those at c = 2 and
    # the pivot and transform moves where P_2(2) = 0 on Laguerre(1) at n = 1
    assert (cases, failed) == (2035, 1894)
