"""A seeded sample of the `verify` sweep, through `cli.main`.

Every identity runs at its least --n and two above it, on the three
families, the random fixture and a functional with a_k = 0 at a drawn
level k.  Every call exits 0 or 1 with a JSON record, never with a
traceback; exit 2 is only linearcombination's usage error for --k > --n.
On the degenerate input, an identity that reads u's recurrence past
level k reports u's first vanishing Hankel minor: NotQuasiDefinite at
level k, guard "norm".

On the two Chebyshev families, a Laguerre functional and the random
fixture, a mass drawn to zero the UL kernel value Z_k at a drawn level
k >= 2 stops `factorize ul` and every identity that runs the UL
elimination at ZeroPivot(k).

On random recurrences whose b_k is drawn to zero P_{k+1}(c) at a drawn
k >= 2, the LU elimination at c stops at ZeroPivot(k), and the
identities that read the recurrence of (x - c) u report its first
vanishing Hankel minor, NotQuasiDefinite(k, "norm").
"""

import json
import random

import pytest
from conftest import fixture_functional, fixture_json, run_cli, values_and_slopes_reference

from opoly import cli, families, serialize
from opoly.orthopoly import (
    RecurrenceCoefficients,
    jacobi_matrix,
    moments_from_jacobi,
    smop_from_moments,
)
from opoly.rational import rat

ORDER = 20
rng = random.Random(20)

# the depth of u's recurrence each identity reads, from --n, the order and --k
READ_DEPTH = {
    "repChris": lambda n, order, k: n + 1,
    "fu1": lambda n, order, k: order // 2,
    "identidad": lambda n, order, k: 0,
    "relationS": lambda n, order, k: order // 2,
    "funccorre": lambda n, order, k: order // 2,
    "pade": lambda n, order, k: n,
    # the double-kernel SMOP reads two levels past the others
    "conex2": lambda n, order, k: n + 3,
    "propLUinversa": lambda n, order, k: n + 1,
    # the bundled fu1 check reads all of u's recurrence
    "relationlu": lambda n, order, k: order // 2,
    "g-matrix": lambda n, order, k: n + 1,
    # the co-recursive parameter reads a_1
    "pro5": lambda n, order, k: max(n + 1, 2),
    "coro1": lambda n, order, k: order // 2,
    "shifted-lu": lambda n, order, k: n + 1,
    "gero1": lambda n, order, k: n + 1,
    "gero2": lambda n, order, k: n + 1,
    "pro6": lambda n, order, k: n + 1,
    "asociadosrepr": lambda n, order, k: n + k - 1,
    "linearcombination": lambda n, order, k: n,
    # coro1 reads all of u's recurrence
    "christoffel+assoc": lambda n, order, k: order // 2,
    "geronimus+assoc": lambda n, order, k: n + 1,
}


def _small():
    return rat(rng.randint(-9, 9), rng.randint(1, 9))


def _nonzero():
    value = _small()
    return value if value else rat(1)


def _degenerate(level):
    """ORDER moments of a random recurrence with a_level = 0."""
    length = ORDER // 2 + 1
    a = [_nonzero() for _ in range(length - 1)]
    a[level - 1] = rat(0)
    rc = RecurrenceCoefficients([_small() for _ in range(length)], a)
    return moments_from_jacobi(jacobi_matrix(rc, length), _nonzero(), ORDER)


def _stdin(u):
    return serialize.dumps(serialize.moments_record(u))


LEVEL = rng.randint(1, 3)
INPUTS = {
    "chebyshev-u": (["--family", "chebyshev-u", "--order", str(ORDER)], ""),
    "chebyshev-t": (["--family", "chebyshev-t", "--order", str(ORDER)], ""),
    "laguerre": (["--family", "laguerre", "--order", str(ORDER), "--alpha=%s" % abs(_small())], ""),
    "random": ([], json.dumps(fixture_json("random_order20.json"))),
    "degenerate": ([], _stdin(_degenerate(LEVEL))),
}
PARAMS = {name: (_nonzero(), _nonzero(), _small(), _nonzero(), rng.randint(1, 3)) for name in INPUTS}


def _zeroing_mass(u, level):
    """(c, m0) whose UL kernel values on u have Z_level = 0 and no earlier zero.

    Z_j = P_j(c) + beta_0 P^(1)_{j-1}(c) is affine in beta_0, so
    beta_0 = -P_k(c)/P^(1)_{k-1}(c) zeroes Z_k, and m0 = u_0/beta_0; c is
    drawn again until beta_0 exists, is nonzero and zeroes no Z_j, j < k.
    """
    rc, _ = smop_from_moments(u, ORDER // 2)
    while True:
        c = _small()
        p, _ = values_and_slopes_reference(rc, c, level)
        q, _ = values_and_slopes_reference(rc.shifted(1), c, level - 1)
        if p[level] == 0 or q[level - 1] == 0:
            continue
        beta0 = -p[level] / q[level - 1]
        if all(p[j] + beta0 * q[j - 1] for j in range(1, level)):
            return c, u.moments[0] / beta0


# each input at two drawn levels k >= 2 that the order reaches: UL at
# size ORDER // 2 forms Z_1..Z_{ORDER // 2 - 1}
ZERO_PIVOTS = [
    pytest.param(level, _stdin(u), *_zeroing_mass(u, level), id="%s-%d" % (source, level))
    for source, u in [
        ("chebyshev-u", families.chebyshev_u(ORDER)),
        ("chebyshev-t", families.chebyshev_t(ORDER)),
        ("laguerre", families.laguerre(abs(_small()), ORDER)),
        ("random", fixture_functional("random_order20.json")),
    ]
    for level in rng.sample(range(2, ORDER // 2), 2)
]


def assert_zero_pivot(argv, stdin_text, level):
    code, out, err = run_cli(argv, stdin_text)
    assert (code, err) == (1, ""), argv
    payload = json.loads(out)
    assert (payload["error"], payload["level"]) == ("ZeroPivot", level), argv


@pytest.mark.parametrize("level,stdin_text,c,m0", ZERO_PIVOTS)
def test_a_mass_that_zeroes_z_k_stops_every_ul_elimination_at_k(level, stdin_text, c, m0):
    for size in ([], ["--size", str(level + 1)]):
        argv = ["factorize", "ul", "--c=%s" % c, "--m0=%s" % m0] + size
        assert_zero_pivot(argv, stdin_text, level)
    for name in ("gero1", "gero2", "pro6", "geronimus+assoc"):
        for n in (level, ORDER // 2 - 1):
            argv = ["verify", name, "--n", str(n), "--c=%s" % c, "--m0=%s" % m0]
            assert_zero_pivot(argv, stdin_text, level)


def test_the_depth_table_names_every_identity():
    assert list(READ_DEPTH) == list(cli.IDENTITIES)


@pytest.mark.parametrize("name", cli.IDENTITIES)
def test_every_identity_exits_with_a_record(name):
    least = cli.IDENTITIES[name].least_n
    for source, (args, stdin_text) in INPUTS.items():
        c, m0, m1, norm, k = PARAMS[source]
        for n in (least, least + 2):
            argv = ["verify", name, "--n", str(n), "--k", str(k), "--norm=%s" % norm]
            argv += ["--c=%s" % c, "--m0=%s" % m0, "--m1=%s" % m1] + args
            code, out, err = run_cli(argv, stdin_text)
            if code == 2:
                assert (name, err) == (
                    "linearcombination",
                    "opoly: linearcombination needs --k <= --n\n",
                ) and k > n, argv
                continue
            assert code in (0, 1) and err == "", (argv, err)
            payload = json.loads(out)
            assert ("checks" in payload) != ("error" in payload), argv
            if "checks" in payload:
                assert all(check["status"] in ("pass", "fail") for check in payload["checks"])
                passed = all(check["status"] == "pass" for check in payload["checks"])
                assert code == (0 if passed else 1), argv
            if source == "degenerate" and LEVEL < READ_DEPTH[name](n, ORDER, k):
                got = (payload.get("error"), payload.get("level"), payload.get("guard"))
                assert got == ("NotQuasiDefinite", LEVEL, "norm"), argv


def test_verify_alpha_is_both_the_laguerre_parameter_and_the_perturbation():
    # --alpha=-2 is a valid perturbation, but not a Laguerre parameter
    code, out, err = run_cli(["verify", "funccorre", "--family", "laguerre", "--alpha=-2"])
    assert (code, out, err) == (2, "", "opoly: alpha must exceed -1\n")
    # --alpha 1/2 perturbs Laguerre(1/2) by 1/2
    got = run_cli(["verify", "funccorre", "--family", "laguerre", "--alpha", "1/2"])
    stdin_text = _stdin(families.laguerre(rat(1, 2), cli.DEFAULT_ORDER))
    assert got == run_cli(["verify", "funccorre", "--alpha", "1/2"], stdin_text)
    assert json.loads(got[1])["checks"][0]["details"]["alpha"] == "1/2"


def _lu_pivot_at(level):
    """(stdin, c): ORDER moments of a random recurrence with P_{level+1}(c) = 0
    and P_j(c) != 0 for j <= level.

    P_{k+1}(c) = (c - b_k) P_k(c) - a_k P_{k-1}(c), so b_k = c - a_k
    P_{k-1}(c)/P_k(c) zeroes it; the draw repeats until P_j(c) != 0 for
    j <= k.  The first vanishing Hankel minor of (x - c) u is then at
    level k, and u itself stays quasi-definite.
    """
    length = ORDER // 2 + 1
    while True:
        c = _nonzero()
        b = [_small() for _ in range(length)]
        a = [_nonzero() for _ in range(length - 1)]
        p, _ = values_and_slopes_reference(RecurrenceCoefficients(b, a), c, level)
        if all(p):
            b[level] = c - a[level - 1] * p[level - 1] / p[level]
            rc = RecurrenceCoefficients(b, a)
            u = moments_from_jacobi(jacobi_matrix(rc, length), _nonzero(), ORDER)
            return _stdin(u), c


# four draws of a level k >= 2 that leaves (x - c) u a deeper read than k
LU_PIVOTS = [
    pytest.param(level, *_lu_pivot_at(level), id="level-%d-%d" % (level, draw))
    for draw, level in enumerate(rng.choice(range(2, ORDER // 2 - 3)) for _ in range(4))
]


@pytest.mark.parametrize("level,stdin_text,c", LU_PIVOTS)
def test_a_zero_of_p_k_plus_1_at_c_stops_the_lu_elimination_at_k(level, stdin_text, c):
    for size in ([], ["--size", str(level + 1)]):
        assert_zero_pivot(["factorize", "lu", "--c=%s" % c] + size, stdin_text, level)
    deepest = ORDER // 2 - 1
    for n in (level, deepest):
        assert_zero_pivot(["verify", "shifted-lu", "--n", str(n), "--c=%s" % c], stdin_text, level)
    for n in (level + 1, deepest):
        for name in ("repChris", "christoffel+assoc", "coro1"):
            argv = ["verify", name, "--n", str(n), "--c=%s" % c]
            code, out, err = run_cli(argv, stdin_text)
            payload = json.loads(out)
            got = (code, err, payload.get("error"), payload.get("level"), payload.get("guard"))
            assert got == (1, "", "NotQuasiDefinite", level, "norm"), argv
        # the kernel-combination route needs only utilde_0 != 0
        argv = ["verify", "pro5", "--n", str(n), "--c=%s" % c]
        code, out, err = run_cli(argv, stdin_text)
        assert (code, err, json.loads(out)["checks"][0]["status"]) == (0, "", "pass"), argv
