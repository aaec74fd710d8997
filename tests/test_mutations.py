"""Mutation rows for the producers that the series, polynomial and factor identities read.

Each row moves one output entry of a producer by one, at seeded indices
among the entries an identity reads, and runs that identity through
`cli.main`: it must exit 1 with a failing record at the power, moment,
level or block that the index fixes.  The producer is patched wherever
it is looked up, so a row whose identity never calls it runs unmutated
and must pass; for the LU and UL eliminations, whose factors and
transformed recurrence every factor identity receives, for the input's
recurrence, and for the (x - c)^2 division's factors and recurrence, an
identity that does not read the moved entry must pass too.
"""

import json
import random
import sys

import pytest
from conftest import fixture_json, run_cli

from opoly import associated, darboux, orthopoly, quadratic
from opoly import functional as fa
from opoly.associated import divided_difference
from opoly.matrices import UnitLowerBidiagonal, UnitLowerTriband, UpperBidiagonal, UpperTriband
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
# polynomials that `polys_from_recurrence` builds, at --k 2: for each,
# the first level that reads the moved P_j, and the level the failure
# must name where that follows from j alone (None where it also depends
# on the polynomials).  repChris and the degree-one interplay checks
# (pro5, the christoffel+assoc connection, S-corecursive, gero1 and
# gero2) build no polynomial; the recurrence and factor rows below move
# what they read
POLY_ROWS = {
    "linearcombination": {"linearcombination": (lambda j: 2, lambda j: max(j, 2))},
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
        j = rng.randint(0, n)
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


def assert_records(real, replacement, argv, source, reading):
    """Run `argv` on `source` with `real` replaced wherever opoly looks it
    up: each check of the record that `reading` names fails with the keys
    it gives, and every other check passes, with no typed error and
    nothing on stderr."""
    args, stdin_text, _ = INPUTS[source]
    with pytest.MonkeyPatch.context() as patch:
        patch_everywhere(patch, real, replacement)
        code, out, err = run_cli(argv + args, stdin_text)
    payload = json.loads(out)
    assert err == "" and "error" not in payload, (argv, payload)
    failing = any(check["identity"] in reading for check in payload["checks"])
    assert code == (1 if failing else 0), (argv, payload)
    for check in payload["checks"]:
        want = reading.get(check["identity"])
        assert check["status"] == ("pass" if want is None else "fail"), (argv, check)
        if want is not None:
            got = check["first_failure"]
            assert {key: got[key] for key in want} == want, (argv, got)


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("producer,identity", PIVOT_ROWS)
def test_a_moved_pivot_fails_each_identity_that_reads_it(producer, identity, source):
    rng = random.Random("%s %s %s" % (producer, identity, source))
    n = rng.randint(2, 6)
    real = getattr(darboux, producer)
    # both ends, where an off-by-one shows, and one drawn between them
    for k in sorted({0, 1, n, rng.randint(0, n)}):
        calls = []
        argv = ["verify", identity, "--n", str(n), "--c=1/3", "--m0=7/3"]
        reading = {
            name: want(k) for name, (reads, want) in PIVOT_ROWS[producer, identity].items()
            if k in reads(n)
        }
        assert_records(real, moved_pivot(real, k, calls), argv, source, reading)
        assert calls == [k], (argv, calls)


def _lower_tail_product(k):
    return {"part": "tail-product", "failure": {"block": k}}


def _gero1_level(k):
    return {"level": k}


def _lower_shifted_product(k):
    return {"part": "shifted-product", "failure": {"block": k}}


# (producer, identity): as PIVOT_ROWS, for ell_k, k = 1..n, the L factor's
# subdiagonal entry k - 1.  shifted-lu's tail L_1 drops ell_1 with L's
# first row, and L_1 U_1 meets ell_k first in row k - 1; no other check
# reads the LU elimination's L, so its ell_1 goes unread.  gero1 compares
# ell_1 with b_0 + alpha - c at level 1, and U's diagonal ell_2..ell_n in
# rows 0..n - 2 of Jhat^(1) U = U J_alpha, where ell_k first shows in row
# k - 2, level k; pro6's one-sided shift of L puts ell_k on row k - 1 of
# Lhat Uhat, block k; gero2 reads no L
LOWER_ROWS = {
    ("christoffel_lu", "repChris"): {},
    ("christoffel_lu", "shifted-lu"): {
        "shifted-lu": (lambda n: range(2, n + 1), _lower_tail_product),
    },
    ("christoffel_lu", "christoffel+assoc"): {
        "shifted-lu": (lambda n: range(2, n + 1), _lower_tail_product),
    },
    ("geronimus_ul", "gero1"): {"gero1": (lambda n: range(1, n + 1), _gero1_level)},
    ("geronimus_ul", "gero2"): {},
    ("geronimus_ul", "pro6"): {"pro6": (lambda n: range(1, n + 1), _lower_shifted_product)},
    ("geronimus_ul", "geronimus+assoc"): {
        "gero1": (lambda n: range(1, n + 1), _gero1_level),
        "pro6": (lambda n: range(1, n + 1), _lower_shifted_product),
    },
}


def moved_lower(real, k, calls):
    """`real` with ell_k, entry k - 1 of its L factor's subdiagonal, moved by one."""

    def producer(*args):
        lower, upper, transformed = real(*args)
        calls.append(k)
        sub = list(lower.sub)
        sub[k - 1] += 1
        return UnitLowerBidiagonal(lower.size, sub), upper, transformed

    return producer


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("producer,identity", LOWER_ROWS)
def test_a_moved_lower_entry_fails_each_identity_that_reads_it(producer, identity, source):
    rng = random.Random("%s %s %s" % (producer, identity, source))
    n = rng.randint(2, 6)
    real = getattr(darboux, producer)
    for k in sorted({1, 2, n, rng.randint(1, n)}):
        calls = []
        argv = ["verify", identity, "--n", str(n), "--c=1/3", "--m0=7/3"]
        reading = {
            name: want(k) for name, (reads, want) in LOWER_ROWS[producer, identity].items()
            if k in reads(n)
        }
        assert_records(real, moved_lower(real, k, calls), argv, source, reading)
        assert calls == [k], (argv, calls)


def moved_entry(rc, part, k):
    """rc with b_k (part "b") or a_k (part "a") moved by one, where rc has it."""
    parts = {"b": list(rc.b), "a": [None] + list(rc.a)}
    if k < rc.length:
        parts[part][k] += 1
    return RecurrenceCoefficients(parts["b"], parts["a"][1:])


def moved_transform(real, part, k, calls):
    """An LU or UL producer whose transformed recurrence has one entry moved by one."""

    def producer(*args):
        lower, upper, transformed = real(*args)
        calls.append(k)
        return lower, upper, moved_entry(transformed, part, k)

    return producer


def moved_input(real, part, k, calls):
    """`smop_from_moments` with one entry moved by one in every recurrence it
    returns for the first functional it is called on, the identity's input."""

    def producer(u, n_max):
        rc, system = real(u, n_max)
        calls.append(u)
        if u is not calls[0]:
            return rc, system
        return moved_entry(rc, part, k), system

    return producer


def _transform_reader(last, failure):
    """A check that reads bhat_1..bhat_last and ahat_2..ahat_last (n -> last),
    and fails at failure(k) on entry k."""

    def want(n, part, k):
        return failure(k) if (1 if part == "b" else 2) <= k <= last(n) else None

    return want


def _swapped_block(k):
    return {"part": "swapped-shifted-product", "failure": {"block": k}}


def _rep_chris_part(part, level="matrix"):
    return {"part": part, "failure": {"level": level}}


def _rep_chris_transform(n, part, k):
    # the LU elimination's transformed recurrence has length n, all of it
    # compared with the recurrence of (x - c) u's moments
    return _rep_chris_part("transformed-recurrence") if k < n else None


def _rep_chris_input(n, part, k):
    # u's recurrence as the values at c and the LU elimination read it.  A
    # move of b_k moves P_{k+1} by -P_k and the ratio -P_{k+1}(c)/P_k(c) by
    # one, which cancel at level k; level k + 1 then fails.  a_k moves
    # P_{k+1} by -P_{k-1}, level k.  b_{n-1} and a_n reach only levels past
    # n - 1 in the kernel part, but move the transformed recurrence; no
    # route reads b_n but the pivot P_{n+1}(c)/P_n(c), on both sides
    if part == "a" and k < n:
        return _rep_chris_part("kernel-representation", k)
    if part == "b" and k < n - 1:
        return _rep_chris_part("kernel-representation", k + 1)
    return _rep_chris_part("transformed-recurrence") if k < n + (part == "a") else None


# Jhat^(1) drops bhat_0 and ahat_1 of the UL elimination's transformed
# recurrence, and its row k - 1 holds bhat_k and ahat_k: gero2 compares
# rows 0..n - 1 of J_alpha M = M Jhat^(1), where row k - 1 names level k;
# gero1 compares rows 0..n - 2 of Jhat^(1) U = U J_alpha, where it names
# level k + 1; pro6 compares Uhat Lhat with Jhat^(1) - cI on the leading
# n - 1 block.  No check reads bhat_0 or ahat_1 (bhat_0 = beta_0 + c)
TRANSFORM_READERS = {
    "gero1": _transform_reader(lambda n: n - 1, lambda k: {"level": k + 1}),
    "gero2": _transform_reader(lambda n: n, lambda k: {"level": k}),
    "pro6": _transform_reader(lambda n: n - 1, _swapped_block),
}


def _s_corecursive_moment(n, part, k):
    # the functional route reads the perturbed recurrence on 2n + 1
    # moments: b_k at moment 2k + 1 and a_k at 2k
    moment = 2 * k + (part == "b")
    return {"route": "functional", "moment": moment} if moment <= 2 * n else None


def _perturbed_moment(part, k, count):
    """Where `_perturbed_moment_off` names a moved entry k of the perturbed
    recurrence it reads on `count` moments, or None.  w there is built
    from the perturbed b_0, so a move of b_0 shows at w's a_1, moment 1;
    b_k shows at w's moment 2k + 1 and a_k at 2k, named one below."""
    if (part, k) == ("b", 0):
        return 1
    moment = 2 * k + (part == "b")
    return moment - 1 if moment < count else None


def _pro6_moment(n, part, k):
    # pro6 reads v_alpha's recurrence on 2n - 1 moments
    moment = _perturbed_moment(part, k, 2 * n - 1)
    return None if moment is None else {"part": "moment-identity", "failure": {"moment": moment}}


def _coro1_moment(n, part, k):
    # coro1 reads u^(1)'s recurrence with b_0 moved by alpha: b_{k+1} and
    # a_{k+1} of u are its b_k and a_k, and alpha follows a_1
    if (part, k) == ("b", 0):
        return None
    if (part, k) == ("a", 1):
        part = "b"
    return {"moment": _perturbed_moment(part, k - 1, 2 * n + 2)}


def _first_only(failure):
    """A check that reads u's b_0 only, failing with `failure` there."""
    return lambda n, part, k: failure if (part, k) == ("b", 0) else None


def _connection_level(n, part, k):
    # b_0 moves R_0 off 1, level 1.  A move of b_k moves R_k by -R_{k-1}
    # and beta_k by one, which cancel at level k; level k + 1 then keeps
    # a_k R_{k-2} and fails for k >= 2, and no level is left for b_n.  a_k
    # moves R_k by -R_{k-2} and beta_k by P_{k-1}(c)/P_k(c) != 0, level k,
    # but a_1 cancels at level 1 and fails at a level it does not fix
    if (part, k) in (("b", 1), ("a", 1)):
        return {}
    if part == "a":
        return {"level": k}
    if k == 0:
        return {"level": 1}
    return {"level": k + 1} if k < n else None


# v's (or u's) recurrence, as `smop_from_moments` returns it for the
# input: gero1 and gero2 read it only where the UL elimination reads it
# too, so a move there is a consistent recurrence and both pass; the
# checks that compare it with moments fail.  On the multiplication side,
# pro5 reads u's recurrence along both routes, R and the perturbed SMOP,
# and fails only where scale = u_0/utilde_0 meets b_0; shifted-lu fails
# where alpha, from u's moments, meets the LU elimination's b_0
INPUT_READERS = {
    "S-corecursive": _s_corecursive_moment,
    "pro6": _pro6_moment,
    "pro5": _first_only({"level": 0}),
    "christoffel-assoc-connection": _connection_level,
    "coro1": _coro1_moment,
    "shifted-lu": _first_only({"part": "corner-scalar"}),
}

# (producer, identity): the readers, by check, of the moved recurrence;
# a check without a reader must pass
RECURRENCE_ROWS = {
    ("christoffel_lu", "repChris"): {"repChris": _rep_chris_transform},
    ("smop_from_moments", "repChris"): {"repChris": _rep_chris_input},
    ("geronimus_ul", "gero1"): TRANSFORM_READERS,
    ("geronimus_ul", "gero2"): TRANSFORM_READERS,
    ("geronimus_ul", "geronimus+assoc"): TRANSFORM_READERS,
    ("smop_from_moments", "gero1"): {},
    ("smop_from_moments", "gero2"): {},
    ("smop_from_moments", "geronimus+assoc"): INPUT_READERS,
    ("smop_from_moments", "pro5"): INPUT_READERS,
    ("smop_from_moments", "christoffel+assoc"): INPUT_READERS,
}

RECURRENCE_PRODUCERS = {
    "christoffel_lu": (darboux.christoffel_lu, moved_transform),
    "geronimus_ul": (darboux.geronimus_ul, moved_transform),
    "smop_from_moments": (orthopoly.smop_from_moments, moved_input),
}


@pytest.mark.parametrize("source", INPUTS)
@pytest.mark.parametrize("producer,identity", RECURRENCE_ROWS)
def test_a_moved_recurrence_entry_fails_each_identity_that_reads_it(producer, identity, source):
    rng = random.Random("%s %s %s" % (producer, identity, source))
    n = rng.randint(2, 6)
    real, mover = RECURRENCE_PRODUCERS[producer]
    readers = RECURRENCE_ROWS[producer, identity]
    for part, first in (("b", 0), ("a", 1)):
        # both ends, where an off-by-one shows, and one drawn between them
        for k in sorted({first, first + 1, n, rng.randint(first, n)}):
            calls = []
            argv = ["verify", identity, "--n", str(n), "--c=1/3", "--m0=7/3"]
            reading = {name: want(n, part, k) for name, want in readers.items()}
            reading = {name: want for name, want in reading.items() if want is not None}
            assert_records(real, mover(real, part, k, calls), argv, source, reading)
            assert calls, argv


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
