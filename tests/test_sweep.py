"""A seeded sample of the `verify` sweep, through `cli.main`.

Every identity runs at its least --n and two above it, on the three
families, the random fixture and a functional with a_k = 0 at a drawn
level k.  Every call exits 0 or 1 with a JSON record, never with a
traceback; exit 2 is only linearcombination's usage error for --k > --n.
On the degenerate input, an identity that reads u's recurrence past
level k reports u's first vanishing Hankel minor: NotQuasiDefinite at
level k, guard "norm".
"""

import json
import random

import pytest
from conftest import fixture_json, run_cli

from opoly import cli, families, serialize
from opoly.orthopoly import RecurrenceCoefficients, jacobi_matrix, moments_from_jacobi
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
