"""Mutation rows for the producers that the series, polynomial and factor identities read.

Each row moves one output entry of a producer by one, at seeded indices
among the entries an identity reads, and runs that identity through
`cli.main`: it must exit 1 with a failing record at the power, moment,
level or block that the index fixes.  The producer is patched wherever
it is looked up, so a row whose identity never calls it runs unmutated
and must pass; for the LU and UL eliminations, whose U diagonal every
factor identity receives, and for the (x - c)^2 division's factors and
recurrence, an identity that does not read the moved entry must pass too.
"""

import json
import random
import sys

import pytest
from conftest import fixture_json, run_cli

from opoly import associated, darboux, orthopoly, quadratic
from opoly import functional as fa
from opoly.associated import divided_difference
from opoly.matrices import UnitLowerTriband, UpperBidiagonal, UpperTriband
from opoly.orthopoly import RecurrenceCoefficients
from opoly.poly import Polynomial

PRODUCERS = {
    "invert": fa.invert,
    "convolve": fa.convolve,
    "multiply_poly": fa.multiply_poly,
    "divided_difference": divided_difference,
}


def _count(order):
    """The moments of x^2 u^{-1} that u's shifted recurrence fixes."""
    return 2 * (order // 2) - 3


# (producer, identity): (the entries the identity reads, as a range of
# (n, order), and the first failure that moving entry k gives).
# S_u S_{u^{-1}} holds moment k of u * u^{-1} at z^{-k-2}; z^2 S_{u^{-1}}
# holds v_k at z^{1-k}; S_u P_n holds moment k of P_n u at z^{-k-1} and
# u_0 times the divided difference's x^m at z^m
ROWS = {
    ("invert", "identidad"): (lambda n, order: range(order), lambda k: {"power": -k - 2}),
    ("convolve", "identidad"): (lambda n, order: range(order), lambda k: {"power": -k - 2}),
    ("invert", "relationS"): (
        lambda n, order: range(_count(order) + 2),
        lambda k: {"power": 1 - k},
    ),
    ("multiply_poly", "relationS"): (
        lambda n, order: range(_count(order)),
        lambda k: {"power": -k - 1},
    ),
    ("invert", "fu1"): (
        lambda n, order: range(2, _count(order) + 2),
        lambda k: {"moment": k - 2},
    ),
    ("multiply_poly", "fu1"): (lambda n, order: range(_count(order)), lambda k: {"moment": k}),
    ("multiply_poly", "pade"): (lambda n, order: range(n + 1), lambda k: {"power": -k - 1}),
    ("divided_difference", "pade"): (lambda n, order: range(n), lambda k: {"power": k}),
}

IDENTITIES = ("identidad", "pade", "relationS", "fu1")

INPUTS = {
    "chebyshev-u": (["--family", "chebyshev-u", "--order", "24"], "", 24),
    "chebyshev-t": (["--family", "chebyshev-t", "--order", "24"], "", 24),
    "laguerre": (["--family", "laguerre", "--order", "24"], "", 24),
    "random": ([], json.dumps(fixture_json("random_order20.json")), 20),
}


def moved(real, k, calls):
    """`real` with output entry k moved by one; each call is logged."""

    def producer(*args):
        out = real(*args)
        calls.append(k)
        num = list(out.num)
        num[k] += out.den
        return type(out).from_integers(num, out.den)

    return producer


def patch_everywhere(monkeypatch, real, replacement):
    """Rebind every name under which an opoly module looks `real` up."""
    for name, module in list(sys.modules.items()):
        if name == "opoly" or name.startswith("opoly."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("identity", IDENTITIES)
@pytest.mark.parametrize("producer", PRODUCERS)
def test_a_moved_entry_fails_each_identity_that_reads_it(producer, identity, source):
    rng = random.Random("%s %s %s" % (producer, identity, source))
    args, stdin_text, order = INPUTS[source]
    n = rng.randint(1, (order - 1) // 2)
    reads, where = ROWS.get((producer, identity), (lambda n, order: range(1), None))
    entries = reads(n, order)
    # the first two and the last entry read, where an off-by-one shows,
    # and one drawn between them
    for k in sorted(set(entries[:2]) | {entries[-1], rng.choice(entries)}):
        calls = []
        real = PRODUCERS[producer]
        with pytest.MonkeyPatch.context() as patch:
            patch_everywhere(patch, real, moved(real, k, calls))
            code, out, _ = run_cli(["verify", identity, "--n", str(n)] + args, stdin_text)
        (check,) = json.loads(out)["checks"]
        if not calls:
            # the identity does not read this producer
            assert (code, check["status"]) == (0, "pass")
            return
        assert len(calls) == 1 and where is not None, (producer, identity)
        want = where(k)
        assert (code, check["status"]) == (1, "fail"), (k, check)
        got = check["first_failure"]
        assert {key: got[key] for key in want} == want, (k, n, got)


# the identities whose polynomial identities `poly._combine` compares on
# polynomials that `polys_from_recurrence` builds, and
# the two chains through them, at --k 2: for each, the first level that
# reads the moved P_j, and the level the failure must name where that
# follows from j alone (None where it also depends on the polynomials)
POLY_ROWS = {
    # a move of x^d that is a multiple of P_{j-1} cancels against the moved
    # ratio P_j(c)/P_{j-1}(c) at level j - 1
    "repChris": {"repChris": (lambda j: max(j - 1, 0), None)},
    "gero1": {"gero1": (lambda j: max(j, 1), lambda j: max(j, 1))},
    # S_j and Phat^(1)_j move alike; S_{j+1} reads P^(1)_j times v_0/m0 and
    # the right side Phat^(1)_j times beta_{j+1}; S_0 = 1 is not produced
    "gero2": {"gero2": (lambda j: j, lambda j: j + 1 if j else 0)},
    "linearcombination": {"linearcombination": (lambda j: 2, lambda j: max(j, 2))},
    "christoffel+assoc": {
        "pro5": (lambda j: max(j - 1, 0), lambda j: max(j - 1, 0)),
        "christoffel-assoc-connection": (lambda j: max(j - 1, 1), lambda j: max(j - 1, 1)),
    },
    "geronimus+assoc": {
        "S-corecursive": (lambda j: j, lambda j: j + 1 if j else 0),
        "gero1": (lambda j: max(j, 1), lambda j: max(j, 1)),
        "gero2": (lambda j: j, lambda j: j + 1 if j else 0),
    },
}


def moved_polys(real, j, d, calls):
    """`real` with the x^d coefficient of P_j moved by one in every output that reaches P_j."""

    def producer(rc, n_max):
        out = real(rc, n_max)
        calls.append(n_max)
        if j > n_max:
            return out
        num = list(out[j].num)
        num[d] += out[j].den
        return out[:j] + (Polynomial.from_integers(num, out[j].den),) + out[j + 1 :]

    return producer


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("identity", POLY_ROWS)
def test_a_moved_polynomial_coefficient_fails_each_polynomial_identity(identity, source):
    rng = random.Random("polys_from_recurrence %s %s" % (identity, source))
    args, stdin_text, _ = INPUTS[source]
    real = orthopoly.polys_from_recurrence
    for _ in range(3):
        n = rng.randint(3, 6)
        # below the top degree each identity reads: there gero2 reads P_j of
        # both routes with coefficient one, and a move common to both
        # routes cancels
        j = rng.randint(0, n - 2)
        d = rng.randint(0, j)
        argv = ["verify", identity, "--n", str(n), "--k", "2", "--c=1/3", "--m0=7/3", "--m1=1/5"]
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            # OrthogonalSystem.polys looks the producer up in orthopoly too
            patch_everywhere(patch, real, moved_polys(real, j, d, calls))
            code, out, err = run_cli(argv + args, stdin_text)
        assert calls and (code, err) == (1, ""), (argv, j, d, out, err)
        payload = json.loads(out)
        assert "error" not in payload, (argv, j, d, payload)
        failures = {
            check["identity"]: check["first_failure"]
            for check in payload["checks"]
            if check["status"] == "fail"
        }
        for name, (first, level) in POLY_ROWS[identity].items():
            assert name in failures, (argv, j, d, name, failures)
            got = failures[name]
            if name == "repChris":
                got = got["failure"]
            assert got["level"] >= first(j), (argv, j, d, name, got)
            if level is not None:
                assert got["level"] == level(j), (argv, j, d, name, got)


def _tail_product(k):
    # b_1 + alpha - c = beta_1 reads the entry at 1; L_1 U_1 reads the rest
    if k == 1:
        return {"part": "corner-scalar"}
    return {"part": "tail-product", "failure": {"block": k}}


# (producer, identity): for each check of the record that reads the U
# diagonal of size n + 1, the entries it reads, as a range of n, and the
# failure that moving entry k gives; every other check must pass.
# repChris compares every pivot with its closed form; the tails of
# shifted-lu drop beta_0; gero1 reads only L; gero2 reads beta_n at level
# n >= 1; pro6's one-sided shift drops beta_0 with column 0, and its
# shifted product meets beta_k in row k only below the size
PIVOT_ROWS = {
    ("christoffel_lu", "repChris"): {
        "repChris": (
            lambda n: range(n + 1),
            lambda k: {"part": "pivot-closed-form", "failure": {"level": k}},
        ),
    },
    ("christoffel_lu", "shifted-lu"): {"shifted-lu": (lambda n: range(1, n + 1), _tail_product)},
    ("christoffel_lu", "christoffel+assoc"): {
        "shifted-lu": (lambda n: range(1, n + 1), _tail_product),
    },
    ("geronimus_ul", "gero1"): {},
    ("geronimus_ul", "gero2"): {"gero2": (lambda n: range(1, n + 1), lambda k: {"level": k})},
    ("geronimus_ul", "pro6"): {
        "pro6": (
            lambda n: range(1, n),
            lambda k: {"part": "shifted-product", "failure": {"block": k + 1}},
        ),
    },
    ("geronimus_ul", "geronimus+assoc"): {
        "gero2": (lambda n: range(1, n + 1), lambda k: {"level": k}),
        "pro6": (
            lambda n: range(1, n),
            lambda k: {"part": "shifted-product", "failure": {"block": k + 1}},
        ),
    },
}


def moved_pivot(real, k, calls):
    """`real` with the U diagonal entry k of its (L, U, recurrence) moved by one."""

    def producer(*args):
        lower, upper, transformed = real(*args)
        calls.append(k)
        diag = list(upper.diag)
        diag[k] += 1
        return lower, UpperBidiagonal(upper.size, diag), transformed

    return producer


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("producer,identity", PIVOT_ROWS)
def test_a_moved_pivot_fails_each_identity_that_reads_it(producer, identity, source):
    rng = random.Random("%s %s %s" % (producer, identity, source))
    args, stdin_text, _ = INPUTS[source]
    n = rng.randint(2, 6)
    real = getattr(darboux, producer)
    # both ends, where an off-by-one shows, and one drawn between them
    for k in sorted({0, 1, n, rng.randint(0, n)}):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch_everywhere(patch, real, moved_pivot(real, k, calls))
            argv = ["verify", identity, "--n", str(n), "--c=1/3", "--m0=7/3"]
            code, out, err = run_cli(argv + args, stdin_text)
        payload = json.loads(out)
        assert calls == [k] and err == "" and "error" not in payload, (argv, k, payload)
        reading = {
            name: want(k) for name, (reads, want) in PIVOT_ROWS[producer, identity].items()
            if k in reads(n)
        }
        assert code == (1 if reading else 0), (argv, k, payload)
        for check in payload["checks"]:
            want = reading.get(check["identity"])
            assert check["status"] == ("pass" if want is None else "fail"), (argv, k, check)
            if want is not None:
                got = check["first_failure"]
                assert {key: got[key] for key in want} == want, (argv, k, got)


def moved_factor(real, part, k, calls):
    """`real` with entry k of one diagonal of its tri-band (L, U) moved by one:
    part names it, sub1 or sub2 of L, diag or super1 of U."""

    def producer(*args):
        lower, upper = real(*args)
        calls.append(k)
        parts = {name: list(getattr(lower, name)) for name in ("sub1", "sub2")}
        parts.update({name: list(getattr(upper, name)) for name in ("diag", "super1")})
        parts[part][k] += 1
        return (
            UnitLowerTriband(lower.size, parts["sub1"], parts["sub2"]),
            UpperTriband(upper.size, parts["diag"], parts["super1"]),
        )

    return producer


def moved_recurrence(real, part, k, calls):
    """`real` with b_k (part "b") or a_k (part "a") of its Division's recurrence moved by one."""

    def producer(*args):
        kernel = real(*args)
        calls.append(k)
        rc = kernel.recurrence
        parts = {"b": list(rc.b), "a": [None] + list(rc.a)}
        parts[part][k] += 1
        return kernel._replace(recurrence=RecurrenceCoefficients(parts["b"], parts["a"][1:]))

    return producer


def _factor_failure(n, part, k):
    # Q = L P reads sub1[k] at level k + 1 and sub2[k] at level k + 2;
    # (x - c)^2 P = U Q reads diag[k] and super1[k] at level k <= n - 2,
    # and no part reads diag[n - 1]
    if part in ("sub1", "sub2"):
        return {"part": "Q = L P", "level": k + (1 if part == "sub1" else 2)}
    if k <= n - 2:
        return {"part": "(x - c)^2 P = U Q", "level": k}
    return None


def _recurrence_failure(n, part, k):
    # the Wronskian coefficients are refitted to the moved Q's, and level 0
    # always holds.  Moving b_k or a_k moves Q_{k+1} by a multiple of Q_k or
    # Q_{k-1}, which level k - 1 absorbs; at level k, Q_{k+2} then leaves
    # span(Q_{k+1}, Q_k) by a_k Q_{k-1} or a_{k-1} Q_{k-2}, both nonzero
    # for k >= 1 and k >= 2.  So b_0 and a_1 fail at a level the index
    # alone does not fix ({}), and b_{n+1} and a_{n+1} are absorbed at the
    # top level n
    if k == n + 1:
        return None
    if (part, k) in (("b", 0), ("a", 1)):
        return {}
    return {"level": k}


# producer: (the identity, the moved output, the moved parts and their
# indices at --n n, and the failure that moving one gives: a dict of the
# record keys it fixes, or None where the identity must pass)
QUADRATIC_ROWS = {
    "quadratic_factorization": (
        "propLUinversa",
        moved_factor,
        lambda n: {
            "sub1": range(n - 1),
            "sub2": range(n - 2),
            "diag": range(n),
            "super1": range(n - 1),
        },
        _factor_failure,
    ),
    "quadratic_kernel": (
        "conex2",
        moved_recurrence,
        lambda n: {"b": range(n + 2), "a": range(1, n + 2)},
        _recurrence_failure,
    ),
}

QUADRATIC_PRODUCERS = {
    "quadratic_factorization": quadratic.quadratic_factorization,
    "quadratic_kernel": associated.quadratic_kernel,
}


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("producer", QUADRATIC_ROWS)
def test_a_moved_quadratic_entry_fails_the_identity_at_its_level(producer, source):
    rng = random.Random("%s %s" % (producer, source))
    args, stdin_text, _ = INPUTS[source]
    identity, mover, reads, where = QUADRATIC_ROWS[producer]
    real = QUADRATIC_PRODUCERS[producer]
    n = rng.randint(2, 6)
    for part, entries in reads(n).items():
        # both ends, where an off-by-one shows, and one drawn between them
        for k in sorted({entries[0], entries[-1], rng.choice(entries)}):
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch_everywhere(patch, real, mover(real, part, k, calls))
                argv = ["verify", identity, "--n", str(n), "--c=1/3", "--m0=7/3", "--m1=1/5"]
                code, out, err = run_cli(argv + args, stdin_text)
            payload = json.loads(out)
            assert calls and err == "" and "error" not in payload, (argv, part, k, payload)
            (check,) = payload["checks"]
            want = where(n, part, k)
            status = (0, "pass") if want is None else (1, "fail")
            assert (code, check["status"]) == status, (argv, part, k, check)
            if want is not None:
                got = check["first_failure"]
                assert {key: got[key] for key in want} == want, (argv, part, k, got)
                if identity == "conex2":
                    # refitted coefficients always hold level 0
                    assert got["level"] >= 1, (argv, part, k, got)
