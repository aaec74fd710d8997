"""Regenerate the committed fixture files, deterministically.

Run from anywhere:  python3 tests/fixtures/make_fixtures.py

Everything here is seeded or closed-form, so the output is reproducible
byte for byte; the test suite compares against the committed copies and
never calls this script.
"""

import random
from pathlib import Path

from opoly import families
from opoly import serialize
from opoly.composition import christoffel_assoc_chain, geronimus_assoc_chain
from opoly.errors import OpolyError
from opoly.functional import MomentFunctional
from opoly.orthopoly import RecurrenceCoefficients, jacobi_matrix, moments_from_jacobi
from opoly.rational import rat, rat_str

HERE = Path(__file__).parent

SEED = 271828
RANDOM_ORDER = 20
RANDOM_DEPTH = 11  # a size-11 truncation determines 2*11 - 1 = 21 >= 20 moments

FAMILY_ORDER = 28


def write(name, payload):
    path = HERE / name
    path.write_text(serialize.dumps(payload))
    print("wrote %s" % path.name)


def family_moment_files():
    for name, u in (
        ("chebyshev_u_moments.json", families.chebyshev_u(FAMILY_ORDER)),
        ("chebyshev_t_moments.json", families.chebyshev_t(FAMILY_ORDER)),
        ("laguerre_moments_alpha_0.json", families.laguerre(0, FAMILY_ORDER)),
        ("laguerre_moments_alpha_1_2.json", families.laguerre(rat(1, 2), FAMILY_ORDER)),
    ):
        write(name, serialize.moments_record(u))


def inverse_table_file():
    """Closed-form inverse/connection tables, frozen as literal strings."""
    tables = {}
    for key, d_star, alpha2, inv_b, inv_a, top in (
        (
            "chebyshev-u",
            families.chebyshev_u_d_star,
            families.chebyshev_u_alpha2,
            families.chebyshev_u_inverse_b,
            families.chebyshev_u_inverse_a,
            10,
        ),
        (
            "chebyshev-t",
            families.chebyshev_t_d_star,
            families.chebyshev_t_alpha2,
            families.chebyshev_t_inverse_b,
            families.chebyshev_t_inverse_a,
            10,
        ),
    ):
        tables[key] = {
            "b_minus": [rat_str(inv_b(n)) for n in range(top + 1)],
            "a_minus": [rat_str(inv_a(n)) for n in range(1, top + 1)],
            "alpha2": [rat_str(alpha2(n)) for n in range(2, top + 1)],
            "d_star": [rat_str(d_star(n)) for n in range(1, top + 2)],
        }
    tables["chebyshev-u"]["christoffel_ell"] = [
        rat_str(families.chebyshev_u_christoffel_ell(n)) for n in range(1, 9)
    ]
    tables["chebyshev-u"]["christoffel_beta"] = [
        rat_str(families.chebyshev_u_christoffel_beta(n)) for n in range(9)
    ]
    for key, alpha in (("laguerre:0", rat(0)), ("laguerre:1/2", rat(1, 2))):
        top = 8
        tables[key] = {
            "b_minus": [rat_str(families.laguerre_inverse_b(alpha, n)) for n in range(top + 1)],
            "a_minus": [rat_str(families.laguerre_inverse_a(alpha, n)) for n in range(1, top + 1)],
            "alpha1": [rat_str(families.laguerre_inverse_alpha1(alpha, n)) for n in range(1, top + 1)],
            "alpha2": [rat_str(families.laguerre_inverse_alpha2(alpha, n)) for n in range(2, top + 1)],
            "d_star": [rat_str(families.laguerre_d_star(alpha, n)) for n in range(1, top + 2)],
            "value_at_zero": [
                rat_str(families.laguerre_value_at_zero(alpha, n)) for n in range(top + 1)
            ],
            "derivative_at_zero": [
                rat_str(families.laguerre_derivative_at_zero(alpha, n)) for n in range(top + 1)
            ],
            "assoc_value_at_zero": [
                rat_str(families.laguerre_assoc_zero_value(alpha, n)) for n in range(top + 1)
            ],
            "geronimus_ell": [rat_str(families.laguerre_geronimus_ell(n)) for n in range(1, 9)],
            "geronimus_beta": [
                rat_str(families.laguerre_geronimus_beta(alpha, n)) for n in range(9)
            ],
        }
    write("inverse_tables.json", tables)


def random_rational(rng, allow_zero):
    while True:
        p = rng.randint(-3, 3)
        if p == 0 and not allow_zero:
            continue
        return rat(p, rng.choice((1, 2, 3)))


def random_functional_file():
    """A non-classical quasi-definite functional with a working parameter pair.

    Quasi-definiteness is automatic: the moments are produced from a
    random recurrence whose a_n never vanish, so every Gram-Schmidt norm
    is a nonzero product of them.  The shift c and mass m0 are the first
    candidates under which every interplay check passes at depth 8.
    """
    rng = random.Random(SEED)
    b = [random_rational(rng, allow_zero=True) for _ in range(RANDOM_DEPTH)]
    a = [random_rational(rng, allow_zero=False) for _ in range(RANDOM_DEPTH - 1)]
    rc = RecurrenceCoefficients(b, a)
    u = moments_from_jacobi(jacobi_matrix(rc, RANDOM_DEPTH), 1, RANDOM_ORDER)
    u = MomentFunctional(u.moments, label="random-quasi-definite")

    chosen = None
    for c in (rat(2), rat(3), rat(5, 2), rat(-2), rat(4)):
        for m0 in (rat(1), rat(1, 2), rat(-1, 2), rat(2), rat(1, 3)):
            try:
                reports = christoffel_assoc_chain(u, c, 8)
                reports += geronimus_assoc_chain(u, c, m0, 8)
            except OpolyError:
                continue
            if all(r.passed for r in reports):
                chosen = (c, m0)
                break
        if chosen:
            break
    if not chosen:
        raise SystemExit("no candidate (c, m0) survived; widen the search")

    payload = serialize.moments_record(u)
    payload["params"] = {"c": rat_str(chosen[0]), "m0": rat_str(chosen[1])}
    payload["source_b"] = serialize.rational_list(rc.b)
    payload["source_a"] = serialize.rational_list(rc.a)
    write("random_order20.json", payload)


if __name__ == "__main__":
    family_moment_files()
    inverse_table_file()
    random_functional_file()
