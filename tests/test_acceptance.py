"""Acceptance gate: eight structural criteria at exact rational equality.

Each criterion prints one line, `ACCEPTANCE <n> <label>: PASS|FAIL`.
Runnable standalone (`python3 tests/test_acceptance.py`, exit 1 on any
failure) or under pytest, where each criterion is one test.
"""

import json
import random
import sys
from pathlib import Path

from conftest import (
    continued_fraction_mismatch,
    corecursive_by_subtraction,
    corecursive_polys,
    linear_power,
)
from opoly import families
from opoly import functional as fa
from opoly import serialize
from opoly.associated import (
    associated_polys,
    corecursive_functional_check,
    inverse_connection,
    inverse_recurrence,
    inverse_smop,
)
from opoly.composition import christoffel_assoc_chain, geronimus_assoc_chain
from opoly.darboux import christoffel_lu, geronimus_ul
from opoly.functional import MomentFunctional
from opoly.matrices import first_block_mismatch, mat_multiply, shifted
from opoly.orthopoly import (
    RecurrenceCoefficients,
    jacobi_matrix,
    moments_from_jacobi,
    polys_from_recurrence,
    smop_from_moments,
)
from opoly.quadratic import (
    assoc_inverse_factorization_check,
    g_matrix_check,
    quadratic_factorization_check,
    quadratic_geronimus_smop,
)
from opoly.rational import parse_rational, rat
from opoly.stieltjes import (
    first_kind_series_check,
    inverse_series_check,
    pade_approximation_check,
)

FIXTURES = Path(__file__).parent / "fixtures"

ORDER = 28
HALF = rat(1, 2)

FAMILIES = {
    "chebyshev-u": families.chebyshev_u(ORDER),
    "chebyshev-t": families.chebyshev_t(ORDER),
    "laguerre:0": families.laguerre(0, ORDER),
    "laguerre:1/2": families.laguerre(HALF, ORDER),
}

# quasi-definite quadratic-division parameters (c, m0, m1) per family
QUAD_PARAMS = {
    "chebyshev-u": (rat(1), rat(1), rat(1, 5)),
    "chebyshev-t": (rat(3), rat(1), rat(1, 5)),
    "laguerre:0": (rat(-1), rat(1), rat(1, 5)),
    "laguerre:1/2": (rat(-1), rat(1), rat(1, 5)),
}

# linear factorization instances per family: LU shift, UL (shift, mass)
LU_SHIFT = {
    "chebyshev-u": rat(1),
    "chebyshev-t": rat(3),
    "laguerre:0": rat(-1),
    "laguerre:1/2": rat(-1),
}
UL_PARAMS = {
    "chebyshev-u": (rat(1), rat(-1, 2)),
    "chebyshev-t": (rat(3), rat(1)),
    "laguerre:0": (rat(0), rat(1)),
    "laguerre:1/2": (rat(0), rat(2, 3)),
}


def committed_random_functional():
    obj = json.loads((FIXTURES / "random_order20.json").read_text())
    u = serialize.functional_from_json(obj)
    return u, parse_rational(obj["params"]["c"]), parse_rational(obj["params"]["m0"])


def criterion_1():
    """chebyshev-u: recurrence, inverse recurrence, and connection tables."""
    u = FAMILIES["chebyshev-u"]
    rc, _ = smop_from_moments(u, 13)
    for n in range(13):
        assert rc.b_at(n) == 0
        if n >= 1:
            assert rc.a_at(n) == rat(1, 4)
    rc_inv = inverse_recurrence(u, 11)
    for n in range(11):
        assert rc_inv.b[n] == 0
    for n in range(1, 11):
        assert rc_inv.a[n - 1] == families.chebyshev_u_inverse_a(n)
    _, alpha2, _ = inverse_connection(u, 10)
    for n in range(2, 11):
        assert alpha2[n] == families.chebyshev_u_alpha2(n)


def criterion_2():
    """chebyshev-t: recurrence, first-associated = chebyshev-u, inverse table."""
    u = FAMILIES["chebyshev-t"]
    rc, _ = smop_from_moments(u, 13)
    for n in range(13):
        assert rc.b_at(n) == 0
    assert rc.a_at(1) == rat(1, 2)
    for n in range(2, 13):
        assert rc.a_at(n) == rat(1, 4)
    assoc = associated_polys(rc, 1, 10)
    u_polys = polys_from_recurrence(families.chebyshev_u_recurrence(11), 10)
    for n in range(11):
        assert assoc[n] == u_polys[n]
    rc_inv = inverse_recurrence(u, 11)
    for n in range(11):
        assert rc_inv.b[n] == 0
    for n in range(1, 11):
        assert rc_inv.a[n - 1] == families.chebyshev_t_inverse_a(n)


def criterion_3():
    """laguerre (alpha = 0 and 1/2): recurrence, inverse, connection,
    the shift-by-zero division factorization, and boundary values."""
    for alpha in (rat(0), HALF):
        u = FAMILIES["laguerre:0" if alpha == 0 else "laguerre:1/2"]
        rc, _ = smop_from_moments(u, 9)
        for n in range(9):
            assert rc.b_at(n) == 2 * n + alpha + 2
            if n >= 1:
                assert rc.a_at(n) == n * (n + alpha + 1)
        rc_inv = inverse_recurrence(u, 9)
        for n in range(9):
            assert rc_inv.b[n] == families.laguerre_inverse_b(alpha, n)
        for n in range(1, 9):
            assert rc_inv.a[n - 1] == families.laguerre_inverse_a(alpha, n)
        alpha1, alpha2, _ = inverse_connection(u, 8)
        for n in range(1, 9):
            assert alpha1[n] == 2 * (n + alpha + 2)
        for n in range(2, 9):
            assert alpha2[n] == (n + alpha + 1) * (n + alpha + 2)
        rc10, _ = smop_from_moments(u, 10)
        lower, upper, hat = geronimus_ul(rc10, 0, alpha + 1)
        for n in range(1, 10):
            assert lower.sub[n - 1] == n
        for n in range(10):
            assert upper.diag[n] == alpha + n + 1
        for n in range(10):
            assert hat.b[n] == 2 * n + alpha + 1
            if n >= 1:
                assert hat.a[n - 1] == n * (n + alpha)
        first = associated_polys(rc, 1, 8)
        for n in range(9):
            assert first[n](0) == families.laguerre_assoc_zero_value(alpha, n)


def criterion_4():
    """Transformed SMOP builders equal Gram-Schmidt on the transformed moments."""
    for name, u in FAMILIES.items():
        system_inv, _ = inverse_smop(u, 10)
        _, direct = smop_from_moments(fa.invert(u), 10)
        assert system_inv.polys == direct.polys
        assert system_inv.norms == direct.norms
        c, m0, m1 = QUAD_PARAMS[name]
        system_quad, _ = quadratic_geronimus_smop(u, c, m0, m1, 10)
        _, direct = smop_from_moments(fa.quadratic_geronimus(u, c, m0, m1), 10)
        assert system_quad.polys == direct.polys
        assert system_quad.norms == direct.norms


def criterion_5():
    """Factorization suite at size 12: bidiagonal residuals and the
    triband identities, for every family."""
    for name, u in FAMILIES.items():
        rc, _ = smop_from_moments(u, 12)
        j = jacobi_matrix(rc, 12)
        lower, upper, _ = christoffel_lu(rc, LU_SHIFT[name])
        # L U reads no entry past the truncation: equal on all 12 rows
        product = mat_multiply(lower.to_band(), upper.to_band())
        assert first_block_mismatch(product, shifted(j, LU_SHIFT[name]), 12) is None
        c, m0 = UL_PARAMS[name]
        lower, upper, _ = geronimus_ul(rc, c, u.moments[0] / m0)
        # U L misses one term past the truncation in its last entry
        product = mat_multiply(upper.to_band(), lower.to_band())
        assert first_block_mismatch(product, shifted(j, c), 11) is None
        cq, mq0, mq1 = QUAD_PARAMS[name]
        assert quadratic_factorization_check(u, cq, mq0, mq1, 12).passed
        assert assoc_inverse_factorization_check(u, 1, 12).passed
        assert g_matrix_check(u, 12).passed


def criterion_6():
    """Series suite at order 16: reciprocal product, continued fraction,
    first-associated relation, and Pade behavior through n = 4."""
    for builder in (
        lambda: families.chebyshev_u(16),
        lambda: families.chebyshev_t(16),
        lambda: families.laguerre(0, 16),
        lambda: families.laguerre(HALF, 16),
    ):
        u = builder()
        assert inverse_series_check(u).passed
        assert continued_fraction_mismatch(u) is None
        assert first_kind_series_check(u).passed
        for n in range(1, 5):
            assert pade_approximation_check(u, n).passed


def criterion_7():
    """Interplay chains at depth 8 on two classical instances and the
    committed random quasi-definite functional."""
    random_u, random_c, random_m0 = committed_random_functional()
    instances = (
        (FAMILIES["chebyshev-u"], rat(1), rat(-1, 2)),
        (FAMILIES["laguerre:0"], rat(0), rat(1)),
        (random_u, random_c, random_m0),
    )
    for u, c, m0 in instances:
        for report in christoffel_assoc_chain(u, c, 8):
            assert report.passed, report.identity
        for report in geronimus_assoc_chain(u, c, m0, 8):
            assert report.passed, report.identity


def criterion_8():
    """Randomized property suite: 200 exact cases across six properties."""
    rng = random.Random(414243)

    def draw_rat(nonzero=False, positive=False):
        lo = 1 if positive else -4
        while True:
            p = rng.randint(lo, 4)
            if p == 0 and (nonzero or positive):
                continue
            return rat(p, rng.choice((1, 2, 3)))

    def draw_functional(order):
        moments = [draw_rat(nonzero=True)]
        moments += [draw_rat() for _ in range(order - 1)]
        return MomentFunctional(moments)

    def draw_recurrence(size, positive_a=False):
        b = [draw_rat() for _ in range(size)]
        a = [draw_rat(nonzero=True, positive=positive_a) for _ in range(size - 1)]
        return RecurrenceCoefficients(b, a)

    # 34 cases: the convolution inverse is an involution
    for _ in range(34):
        u = draw_functional(rng.randint(6, 12))
        assert fa.invert(fa.invert(u)) == u

    # 34 cases: division and multiplication undo each other
    for i in range(34):
        u = draw_functional(rng.randint(6, 12))
        c = draw_rat()
        if i % 3 == 0:
            back = fa.multiply_poly(
                fa.geronimus(u, c, draw_rat(nonzero=True)), linear_power(c, 1)
            )
            assert back == u
        elif i % 3 == 1:
            back = fa.multiply_poly(
                fa.quadratic_geronimus(u, c, draw_rat(), draw_rat()),
                linear_power(c, 2),
            )
            assert back == u
        else:
            quotient = fa.divide_power(fa.multiply_poly(u, linear_power(c, 1)), c, 1)
            back = fa.add(quotient, fa.scale(u.moments[0], fa.delta(c, u.order)))
            assert back == u

    # 33 cases: moments from a recurrence recover that recurrence (Favard)
    for _ in range(33):
        size = rng.randint(4, 6)
        norm0 = draw_rat(nonzero=True)
        rc = draw_recurrence(size)
        u = moments_from_jacobi(jacobi_matrix(rc, size), norm0, 2 * size - 1)
        depth = (2 * size - 1) // 2
        again, system = smop_from_moments(u, depth)
        assert again.b == rc.b[:depth]
        assert again.a == rc.a[: depth - 1]
        acc = norm0
        for k in range(depth):
            if k:
                acc = acc * rc.a_at(k)
            assert system.norms[k] == acc

    # 33 cases: both co-recursive routes agree
    for _ in range(33):
        size = rng.randint(4, 6)
        rc = draw_recurrence(size)
        alpha = draw_rat()
        assert corecursive_polys(rc, alpha, size - 1) == corecursive_by_subtraction(
            rc, alpha, size - 1
        )

    # 33 cases: a_1 > 0 forces a_1^- < 0 (the sign obstruction)
    for _ in range(33):
        size = rng.randint(4, 5)
        rc = draw_recurrence(size, positive_a=True)
        u = moments_from_jacobi(jacobi_matrix(rc, size), 1, 2 * size - 1)
        level_one = -(rc.b_at(0) ** 2 + rc.a_at(1))
        assert rc.a_at(1) > 0
        assert level_one < 0
        rc_inv = inverse_recurrence(u, 2)
        assert rc_inv.a[0] == level_one

    # 33 cases: co-recursive moments via the perturbed recurrence and via
    # the inverse-functional route agree
    for _ in range(33):
        size = rng.randint(4, 6)
        rc = draw_recurrence(size)
        u = moments_from_jacobi(
            jacobi_matrix(rc, size), draw_rat(nonzero=True), 2 * size - 1
        )
        assert corecursive_functional_check(u, draw_rat()).passed


CRITERIA = (
    ("chebyshev-u tables", criterion_1),
    ("chebyshev-t tables", criterion_2),
    ("laguerre tables", criterion_3),
    ("transformed SMOP oracle equivalence", criterion_4),
    ("factorization suite", criterion_5),
    ("series suite", criterion_6),
    ("interplay chains", criterion_7),
    ("randomized property suite", criterion_8),
)


def run_criterion(index):
    label, fn = CRITERIA[index - 1]
    try:
        fn()
    except BaseException:
        print("ACCEPTANCE %d %s: FAIL" % (index, label))
        raise
    print("ACCEPTANCE %d %s: PASS" % (index, label))


def test_criterion_1():
    run_criterion(1)


def test_criterion_2():
    run_criterion(2)


def test_criterion_3():
    run_criterion(3)


def test_criterion_4():
    run_criterion(4)


def test_criterion_5():
    run_criterion(5)


def test_criterion_6():
    run_criterion(6)


def test_criterion_7():
    run_criterion(7)


def test_criterion_8():
    run_criterion(8)


def main():
    failures = 0
    for index in range(1, len(CRITERIA) + 1):
        try:
            run_criterion(index)
        except BaseException:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
