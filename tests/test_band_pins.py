"""Per-record byte pins for the identities that read band products.

Each case is one in-process `verify` call, and its pin is the sha256 of
its exit status and standard output, failing records included.  The
cases are the eleven identities that compare band products (repChris,
propLUinversa, conex2, relationlu, g-matrix, shifted-lu, pro6, gero1,
gero2 and both chains) at their least --n and the three sizes above it,
on the three families and the random fixture, at c = 1/3 and c = -1;
and the factor, pivot and recurrence mutation rows of test_mutations.py
at --n 4 on Laguerre(1), whose records fail.  The table in
fixtures/band_pins.json holds the digests of the checks that formed
every entry of both products as a Rational, and repChris's those of the
check that built both families of polynomials; run this file to print
the table afresh:

    PYTHONPATH=src python tests/test_band_pins.py > tests/fixtures/band_pins.json
"""

import hashlib
import json

import pytest
import test_mutations as mutations
from conftest import FIXTURE_DIR, run_cli

from opoly import associated, cli, darboux, quadratic

BAND_IDENTITIES = (
    "repChris",
    "propLUinversa",
    "conex2",
    "relationlu",
    "g-matrix",
    "shifted-lu",
    "pro6",
    "gero1",
    "gero2",
    "christoffel+assoc",
    "geronimus+assoc",
)

PARAMS = ["--m0=7/3", "--m1=1/5"]
ROW_SIZE = 4
ROW_SOURCE = "laguerre"
TABLE = FIXTURE_DIR / "band_pins.json"


def _digest(argv, source, real=None, replacement=None):
    """The pin of one call, with `real` replaced wherever opoly looks it up."""
    args, stdin_text, _ = mutations.INPUTS[source]
    with pytest.MonkeyPatch.context() as patch:
        if real is not None:
            mutations.patch_everywhere(patch, real, replacement)
        code, out, _ = run_cli(argv + args, stdin_text)
    return hashlib.sha256(b"%d\n%s" % (code, out.encode())).hexdigest()


def _identity_cases():
    """(name, argv, source) of each identity case."""
    for name in BAND_IDENTITIES:
        least = cli.IDENTITIES[name].least_n
        for n in range(least, least + 4):
            for source in mutations.INPUTS:
                for c in ("1/3", "-1"):
                    argv = ["verify", name, "--n", str(n), "--c=" + c] + PARAMS
                    yield " ".join(argv + ["@" + source]), argv, source


def _row_cases():
    """(name, argv, real, replacement) of each mutation row whose identity
    is one of the eleven, at every entry index at --n ROW_SIZE."""
    n = ROW_SIZE

    def argv(name):
        return ["verify", name, "--n", str(n), "--c=1/3"] + PARAMS

    for table, mover, ks in (
        (mutations.PIVOT_ROWS, mutations.moved_pivot, range(n + 1)),
        (mutations.LOWER_ROWS, mutations.moved_lower, range(1, n + 1)),
    ):
        for producer, name in table:
            if name in BAND_IDENTITIES:
                real = getattr(darboux, producer)
                for k in ks:
                    key = "%s %s %s k=%d" % (mover.__name__, producer, name, k)
                    yield key, argv(name), real, mover(real, k, [])
    for producer, name in mutations.RECURRENCE_ROWS:
        if name in BAND_IDENTITIES:
            real, mover = mutations.RECURRENCE_PRODUCERS[producer]
            for part, first in (("b", 0), ("a", 1)):
                for k in range(first, n + 1):
                    key = "%s %s %s %s%d" % (mover.__name__, producer, name, part, k)
                    yield key, argv(name), real, mover(real, part, k, [])
    producers = {
        "quadratic_factorization": quadratic.quadratic_factorization,
        "quadratic_kernel": associated.quadratic_kernel,
    }
    for producer, (name, mover, reads, _) in mutations.QUADRATIC_ROWS.items():
        real = producers[producer]
        for part, entries in reads(n).items():
            for k in entries:
                key = "%s %s %s %s%d" % (mover.__name__, producer, name, part, k)
                yield key, argv(name), real, mover(real, part, k, [])


def band_pins():
    """The digest of every case, by its name."""
    pins = {key: _digest(argv, source) for key, argv, source in _identity_cases()}
    for key, argv, real, replacement in _row_cases():
        pins[key] = _digest(argv, ROW_SOURCE, real, replacement)
    return pins


def test_every_band_record_keeps_its_bytes():
    want = json.loads(TABLE.read_text())
    got = band_pins()
    assert got.keys() == want.keys()
    assert [key for key in want if got[key] != want[key]] == []


if __name__ == "__main__":
    print(json.dumps(band_pins(), indent=1, sort_keys=True))
