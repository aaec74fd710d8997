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

On the two Chebyshev families, a Laguerre functional and the random
fixture, a zero d* at a drawn level k stops every reader of the kernel
at NotQuasiDefinite(k, "d_star"): an a_k drawn to zero d*_{k+1} of the
inverse stops relationlu and g-matrix, and an m0 drawn to zero
d*_{k+1} of the quadratic kernel stops `factorize quadratic`, conex2
and propLUinversa.
"""

import json
import random

import pytest
from conftest import (
    fixture_functional,
    fixture_json,
    random_source_recurrence,
    run_cli,
    values_and_slopes_reference,
)

from opoly import cli, families, serialize
from opoly import functional as fa
from opoly.orthopoly import (
    RecurrenceCoefficients,
    hankel_minor,
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


def _inverse_d_star_zero(rc, u0, level):
    """ORDER moments of rc with a_level moved to zero d*_{level+1} of the
    inverse, or None where no such a_level exists.

    W(P_{k+1}, P_k)(0) = a_k W(P_k, P_{k-1})(0) - P_k(0)^2 is affine in
    a_k, and d*_{k+1} = W(P_{k+1}, P_k)(0)/u_0^2, so a_k = P_k(0)^2 /
    W(P_k, P_{k-1})(0) makes level k the first vanishing Hankel minor of
    u^{-1}, when no W(P_m, P_{m-1})(0), m <= k, vanishes.  P_k(0) = 0 would
    give a_k = 0, and u would stop being quasi-definite.
    """
    p, dp = values_and_slopes_reference(rc, 0, level)
    ws = [p[m] * dp[m - 1] - dp[m] * p[m - 1] for m in range(1, level + 1)]
    if not all(ws) or p[level] == 0:
        return None
    a = list(rc.a)
    a[level - 1] = p[level] ** 2 / ws[-1]
    rc = RecurrenceCoefficients(rc.b, a)
    return moments_from_jacobi(jacobi_matrix(rc, rc.length), u0, ORDER)


def _inverse_draws(source, rc, u0):
    """Two drawn levels k >= 1 whose moved a_k exists, with their inputs."""
    found = {}
    for level in rng.sample(range(1, ORDER // 2 - 1), ORDER // 2 - 2):
        u = _inverse_d_star_zero(rc, u0, level)
        if u is not None:
            found[level] = u
        if len(found) == 2:
            break
    return [
        pytest.param(level, _stdin(u), id="%s-%d" % (source, level))
        for level, u in sorted(found.items())
    ]


def _quadratic_d_star_zero(u, level):
    """(c, m0, m1) whose quadratic kernel on u has d*_{level+1} = 0 first.

    With the weight m1 - c m0 fixed, S_n = weight P_n + u_0 P^(1)_{n-1}
    does not depend on m0, and T_n = S_n'(c) + m0 P_n(c) is affine in it,
    so d*_{k+1} = S_{k-1} T_k - S_k T_{k-1} is too; m0 is its root.  c and
    the weight are drawn again until m0 exists and is nonzero and the
    transform's Hankel minors below level k do not vanish.
    """
    rc, _ = smop_from_moments(u, ORDER // 2)
    u0 = u.moments[0]
    while True:
        c, weight = _small(), _small()
        p, dp = values_and_slopes_reference(rc, c, level)
        q, dq = values_and_slopes_reference(rc.shifted(1), c, level - 1)
        # S_n(c) and S_n'(c) at n = level - 1 and level, with P^(1)_{-1} = 0
        s = [weight * p[n] + (u0 * q[n - 1] if n else 0) for n in (level - 1, level)]
        ds = [weight * dp[n] + (u0 * dq[n - 1] if n else 0) for n in (level - 1, level)]
        slope_part = s[0] * ds[1] - s[1] * ds[0]
        mass_part = s[0] * p[level] - s[1] * p[level - 1]
        if mass_part == 0 or slope_part == 0:
            continue
        m0 = -slope_part / mass_part
        m1 = weight + c * m0
        v = fa.quadratic_geronimus(u, c, m0, m1)
        if all(hankel_minor(v, k) for k in range(level)):
            assert hankel_minor(v, level) == 0
            return c, m0, m1


# each input with the recurrence its moments come from, of length ORDER // 2 + 1
ALPHA = abs(_small())
LENGTH = ORDER // 2 + 1
SWEEP_SOURCES = [
    ("chebyshev-u", families.chebyshev_u(ORDER), families.chebyshev_u_recurrence(LENGTH)),
    ("chebyshev-t", families.chebyshev_t(ORDER), families.chebyshev_t_recurrence(LENGTH)),
    ("laguerre", families.laguerre(ALPHA, ORDER), families.laguerre_recurrence(ALPHA, LENGTH)),
    (
        "random",
        fixture_functional("random_order20.json"),
        RecurrenceCoefficients(*random_source_recurrence()),
    ),
]

# each input with a_k moved at two drawn levels k >= 1 that relationlu
# and g-matrix reach: at --n they read d*_2..d*_n of the inverse
INVERSE_D_STARS = [
    param
    for source, u, rc in SWEEP_SOURCES
    for param in _inverse_draws(source, rc, u.moments[0])
]


def assert_d_star(argv, stdin_text, level):
    code, out, err = run_cli(argv, stdin_text)
    assert (code, err) == (1, ""), argv
    payload = json.loads(out)
    got = (payload["error"], payload["level"], payload["guard"])
    assert got == ("NotQuasiDefinite", level, "d_star"), argv


@pytest.mark.parametrize("level,stdin_text", INVERSE_D_STARS)
def test_a_zero_inverse_d_star_stops_relationlu_and_g_matrix_at_k(level, stdin_text):
    for name in ("relationlu", "g-matrix"):
        for n in (max(3, level + 1), ORDER // 2 - 1):
            assert_d_star(["verify", name, "--n", str(n)], stdin_text, level)


# each input at two drawn levels k >= 1 that propLUinversa at --n k + 1
# and conex2 at --n k - 1 reach: they read d*_2..d*_{n} and d*_2..d*_{n+2}
QUADRATIC_D_STARS = [
    pytest.param(level, _stdin(u), *_quadratic_d_star_zero(u, level), id="%s-%d" % (source, level))
    for source, u, _ in SWEEP_SOURCES
    for level in sorted(rng.sample(range(1, ORDER // 2 - 2), 2))
]


@pytest.mark.parametrize("level,stdin_text,c,m0,m1", QUADRATIC_D_STARS)
def test_a_zero_quadratic_d_star_stops_every_kernel_reader_at_k(level, stdin_text, c, m0, m1):
    params = ["--c=%s" % c, "--m0=%s" % m0, "--m1=%s" % m1]
    for size in ([], ["--size", str(max(3, level + 1))]):
        assert_d_star(["factorize", "quadratic"] + size + params, stdin_text, level)
    for name, least, deepest in (
        ("conex2", max(1, level - 1), ORDER // 2 - 3),
        ("propLUinversa", level + 1, ORDER // 2 - 1),
    ):
        for n in (least, deepest):
            assert_d_star(["verify", name, "--n", str(n)] + params, stdin_text, level)
