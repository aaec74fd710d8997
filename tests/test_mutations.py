"""Mutation rows for the producers that the series identities read.

Each row moves one output entry of a producer by one, at seeded indices
among the entries an identity reads, and runs that identity through
`cli.main`: it must exit 1 with a failing record at the power or moment
that the index fixes.  The producer is patched wherever it is looked up,
so a row whose identity never calls it runs unmutated and must pass.
"""

import json
import random
import sys

import pytest
from conftest import fixture_json, run_cli

from opoly import functional as fa
from opoly.associated import divided_difference

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
