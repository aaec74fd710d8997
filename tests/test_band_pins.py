"""Per-record byte pins of in-process `opoly` calls, failing records included.

Each case is one call, and its pin is the sha256 of its exit status and
standard output, and of its standard error where it wrote any.  The
table in fixtures/band_pins.json holds:

- the eleven identities that compare band products (repChris,
  propLUinversa, conex2, relationlu, g-matrix, shifted-lu, pro6, gero1,
  gero2 and both chains) at their least --n and the three sizes above
  it, on the three families and the random fixture, at c = 1/3 and
  c = -1, pinned at the checks that formed every entry of both products
  as a Rational and, for repChris, at the check that built both
  families of polynomials;
- the factor, pivot and recurrence mutation rows of test_mutations.py at
  --n 4 on Laguerre(1), whose records fail;
- the outputs that carry computed values, on the same four inputs
  (24 moments of each family, or the random fixture): `smop`, every
  `transform` kind, and `factorize lu/ul/quadratic` at c = 1/3 and c = -1;
- usage errors (exit 2, pinned with their stderr), verify's `--alpha`
  pair, every case of each degenerate-input table of test_sweep.py, and
  `smop` and every identity at its least --n on test_sweep.py's a_k = 0
  input;
- the pinned CLI pipelines below order 256 (`CLI_GROUPS`): each call on
  its own, keyed by its pipeline and its OPOLY_MAX_ORDER, and each group
  as one sha256 of its calls' stdout, concatenated in order, every call
  exiting 0.

The order-256 pipelines take about 4 s, so they live in high_order_pins.py,
which tier-1 does not collect, with their table in
fixtures/high_order_pins.json.  Run either file to print its table
afresh:

    PYTHONPATH=src python tests/test_band_pins.py > tests/fixtures/band_pins.json
    PYTHONPATH=src python tests/high_order_pins.py > tests/fixtures/high_order_pins.json
"""

import functools
import hashlib
import json

import pytest
import test_mutations as mutations
import test_sweep as sweep
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
C_VALUES = ("1/3", "-1")
ROW_SIZE = 4
ROW_SOURCE = "laguerre"
TABLE = FIXTURE_DIR / "band_pins.json"


def _run(argv, stdin_text="", cap=None, real=None, replacement=None):
    """(exit status, stdout, stderr) of one call with OPOLY_MAX_ORDER set
    to `cap` (unset where None) and `real` replaced wherever opoly looks
    it up."""
    with pytest.MonkeyPatch.context() as patch:
        # argparse wraps a usage error's stderr at the terminal's width
        patch.setenv("COLUMNS", "80")
        if cap is None:
            patch.delenv("OPOLY_MAX_ORDER", raising=False)
        else:
            patch.setenv("OPOLY_MAX_ORDER", cap)
        if real is not None:
            mutations.patch_everywhere(patch, real, replacement)
        return run_cli(argv, stdin_text)


def _digest(code, out, err):
    """The pin of one call; stderr counts only where the call wrote any."""
    data = b"%d\n%s" % (code, out.encode())
    if err:
        data += b"\nstderr:\n" + err.encode()
    return hashlib.sha256(data).hexdigest()


@functools.cache
def piped(stages, cap=None):
    """The stdout of `stages`, opoly calls joined by " | ", each reading
    the one before it; every stage must exit 0."""
    head, _, call = stages.rpartition(" | ")
    code, out, _ = _run(call.split(), piped(head, cap) if head else "", cap)
    assert code == 0, stages
    return out


def _source_input(argv, source):
    """argv and stdin of a call on one of test_mutations' inputs."""
    args, stdin_text, _ = mutations.INPUTS[source]
    return argv + args, stdin_text


def _source_moments(source):
    """The moments record of one of test_mutations' inputs, for the
    commands that read only stdin."""
    args, stdin_text, _ = mutations.INPUTS[source]
    # a family's args are --family <name> --order <order>
    return stdin_text or piped(" ".join(["moments"] + args[1:]))


def _identity_cases():
    """(name, argv, stdin) of each identity case."""
    for name in BAND_IDENTITIES:
        least = cli.IDENTITIES[name].least_n
        for n in range(least, least + 4):
            for source in mutations.INPUTS:
                for c in C_VALUES:
                    argv = ["verify", name, "--n", str(n), "--c=" + c] + PARAMS
                    yield (" ".join(argv + ["@" + source]),) + _source_input(argv, source)


def _value_cases():
    """(name, argv, stdin) of each output that carries computed values."""
    with_c = (
        "factorize lu --c=%s",
        "factorize ul --c=%s --m0=7/3",
        "factorize quadratic --c=%s --m0=7/3 --m1=1/5",
        "transform christoffel --c=%s",
        "transform geronimus --c=%s --m0=7/3",
        "transform quadratic-geronimus --c=%s --m0=7/3 --m1=1/5",
    )
    for source in mutations.INPUTS:
        calls = ["smop", "transform associated", "transform corecursive", "transform inverse"]
        calls += [call % c for call in with_c for c in C_VALUES]
        for call in calls:
            yield "%s @%s" % (call, source), call.split(), _source_moments(source)


def _sweep_cases():
    """(name, argv, stdin) of a usage error, verify's `--alpha` pair,
    every case of each degenerate-input table of test_sweep.py, on
    commands that its test runs at that case's level, and `smop` and
    every identity at its least --n on its a_k = 0 input."""
    # argparse's rejection exits 2 through SystemExit
    yield "smop --n x @laguerre", ["smop", "--n", "x"], _source_moments("laguerre")
    # --alpha is both the Laguerre parameter and the perturbation
    for alpha in (["--alpha=-2"], ["--alpha", "1/2"]):
        argv = ["verify", "funccorre", "--family", "laguerre"] + alpha
        yield " ".join(argv), argv, ""
    degenerate = {
        "ZERO_PIVOTS": lambda level, c, m0: [
            "%s --c=%s --m0=%s" % (call, c, m0)
            for call in ("factorize ul", "verify gero1 --n %d" % level)
        ],
        "LU_PIVOTS": lambda level, c: [
            "%s --c=%s" % (call, c)
            for call in (
                "factorize lu",
                "verify shifted-lu --n %d" % level,
                "verify repChris --n %d" % (level + 1),
            )
        ],
        "INVERSE_D_STARS": lambda level: [
            "verify %s --n %d" % (name, max(3, level + 1)) for name in ("relationlu", "g-matrix")
        ],
        "QUADRATIC_D_STARS": lambda level, c, m0, m1: [
            "%s --c=%s --m0=%s --m1=%s" % (call, c, m0, m1)
            for call in ("factorize quadratic", "verify propLUinversa --n %d" % (level + 1))
        ],
    }
    for table, calls in degenerate.items():
        for param in getattr(sweep, table):
            level, stdin_text, *options = param.values
            for call in calls(level, *options):
                yield "%s @%s[%s]" % (call, table, param.id), call.split(), stdin_text
    # the a_k = 0 input, as test_sweep's every-identity test runs it
    _, stdin_text = sweep.INPUTS["degenerate"]
    c, m0, m1, norm, k = sweep.PARAMS["degenerate"]
    yield "smop @degenerate", ["smop"], stdin_text
    for name, identity in cli.IDENTITIES.items():
        argv = ["verify", name, "--n", str(identity.least_n), "--k", str(k), "--norm=%s" % norm]
        argv += ["--c=%s" % c, "--m0=%s" % m0, "--m1=%s" % m1]
        yield " ".join(argv) + " @degenerate", argv, stdin_text


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


# the pinned CLI pipelines: each group is (OPOLY_MAX_ORDER or None for
# unset, its pipelines in order), and a pipeline's last stage is the call
# it pins, its earlier stages the input, built once per cap
LAGUERRE64 = "moments laguerre --order 64 --alpha 1"
T128 = "moments laguerre --order 129 --alpha 1 | transform christoffel --c=-1/3"
G130 = "moments laguerre --order 129 --alpha 1 | transform geronimus --c=-1/3 --m0=7/3"
FAMILIES = ("chebyshev-u", "chebyshev-t", "laguerre")


def on_input(stages, names, options):
    """`verify name options` for each name, reading `stages`' output."""
    return ["%s | verify %s %s" % (stages, name, options) for name in names]


def at_small_sizes(sizes, names, options):
    """`verify name --family f --n n options`, by family, then size, then name."""
    return [
        "verify %s --family %s --n %d %s" % (name, family, n, options)
        for family in FAMILIES
        for n in sizes
        for name in names
    ]


CLI_GROUPS = {
    # the fu1 route through u^{-1}, pinned at the shifted-recurrence route
    # it replaced
    "associated functional of a Christoffel transform at order 64": (
        None,
        [LAGUERRE64 + " | transform christoffel --c=-1 | transform associated --k 2"],
    ),
    # pinned at the rational eliminations that the values at c replaced
    "LU factors of Laguerre(1) at order 64": (None, [LAGUERRE64 + " | factorize lu --c=-1/3"]),
    "UL factors of Laguerre(1) at order 64": (
        None,
        [LAGUERRE64 + " | factorize ul --c=-1/3 --m0=7/3"],
    ),
    # pinned at the producers that took and returned Jacobi matrices
    "factorization-reading identities on Laguerre(1) at order 64": (
        None,
        on_input(
            LAGUERRE64,
            ("repChris", "shifted-lu", "gero1", "gero2", "pro6")
            + ("christoffel+assoc", "geronimus+assoc"),
            "--n 31 --c=-1/3 --m0=7/3",
        ),
    ),
    # pinned at the blocks that the matrices' truncation margins gave
    "shifted-factor identities at sizes 2-6": (
        None,
        at_small_sizes(
            range(2, 7),
            ("shifted-lu", "pro6", "christoffel+assoc", "geronimus+assoc"),
            "--c=1/3 --m0=7/3",
        ),
    ),
    # pinned at second routes that regenerated moments from a shifted or
    # perturbed recurrence
    "recurrence-comparing identities on a Christoffel transform at order 128": (
        "129",
        on_input(
            T128,
            ("fu1", "relationS", "funccorre", "coro1", "pro6")
            + ("christoffel+assoc", "geronimus+assoc"),
            "--n 32 --c=-1 --m0=7/3",
        ),
    ),
    # pinned at the checks that built both sides as reduced polynomials
    "polynomial identities on a Christoffel transform at order 128": (
        "129",
        on_input(
            T128,
            ("repChris", "pade", "conex2", "propLUinversa", "pro5", "gero1", "gero2")
            + ("asociadosrepr", "linearcombination"),
            "--n 32 --k 2 --c=-1 --m0=7/3",
        ),
    ),
    # rows with large denominators, pinned at the Chebyshev kernel that
    # reduced every row
    "recurrence of a Christoffel transform at order 128": ("129", [T128 + " | smop"]),
    "recurrence of the inverse of a Christoffel transform at order 128": (
        "129",
        [T128 + " | transform inverse | smop"],
    ),
    # pinned at the g-matrix check that formed G = L^{-1} J^- densely
    "inverse-connection identities on Laguerre(1) at order 64": (
        "129",
        on_input(LAGUERRE64, ("g-matrix", "relationlu"), "--n 31"),
    ),
    "inverse-connection identities on a Christoffel transform at order 128": (
        "129",
        on_input(T128, ("g-matrix", "relationlu"), "--n 63"),
    ),
    # pinned at the checks that built P and Q degree by degree
    "quadratic-division identities at sizes 2-6": (
        "257",
        at_small_sizes(range(2, 7), ("conex2", "propLUinversa"), "--c=1/3 --m0=7/3 --m1=1/5"),
    ),
    # the largest denominators of any pinned input, pinned at the checks
    # that formed every entry of both products as a Rational; the
    # transform adds one moment, so the cap is 130
    "band-reading identities on a Geronimus transform at order 130": (
        "130",
        on_input(
            G130,
            ("propLUinversa", "conex2", "relationlu", "g-matrix", "shifted-lu", "pro6")
            + ("gero1", "gero2"),
            "--n 32 --c=-1 --m0=7/3 --m1=1/5",
        ),
    ),
    # pinned at the checks that built R, S and the associated polynomials
    "degree-one interplay identities at sizes 1-6": (
        "257",
        at_small_sizes(range(1, 7), ("pro5", "gero1", "gero2"), "--c=1/3 --m0=7/3"),
    ),
    # pinned at the check that built P and Ptilde
    "kernel representation at sizes 1-6": (
        "257",
        at_small_sizes(range(1, 7), ("repChris",), "--c=1/3"),
    ),
    # pinned at the per-family branches that the family table replaced
    "family table of chebyshev-u at order 64": (None, ["example chebyshev-u --order 64"]),
    "family table of chebyshev-t at order 64": (None, ["example chebyshev-t --order 64"]),
    "family table of Laguerre(1/3) at order 64": (
        None,
        ["example laguerre --alpha 1/3 --order 64"],
    ),
}


def pipeline_pins(groups):
    """The digest of every pipeline of `groups`, by its cap and pipeline,
    and the sha256 of each group's stdout, by the group's name."""
    pins = {}
    for name, (cap, pipelines) in groups.items():
        prefix = "" if cap is None else "OPOLY_MAX_ORDER=%s " % cap
        stdout = []
        for pipeline in pipelines:
            stages, _, call = pipeline.rpartition(" | ")
            code, out, err = _run(call.split(), piped(stages, cap) if stages else "", cap)
            # every call exits 0, as the loops' `|| exit 1` required
            assert code == 0, pipeline
            pins[prefix + pipeline] = _digest(code, out, err)
            stdout.append(out)
        pins["group: " + name] = hashlib.sha256("".join(stdout).encode()).hexdigest()
    return pins


def band_pins():
    """The digest of every case, by its name."""
    pins = {}
    for cases in (_identity_cases(), _value_cases(), _sweep_cases()):
        pins.update((key, _digest(*_run(argv, stdin_text))) for key, argv, stdin_text in cases)
    for key, argv, real, replacement in _row_cases():
        argv, stdin_text = _source_input(argv, ROW_SOURCE)
        pins[key] = _digest(*_run(argv, stdin_text, real=real, replacement=replacement))
    pins.update(pipeline_pins(CLI_GROUPS))
    return pins


def assert_pins_hold(got, table):
    want = json.loads(table.read_text())
    assert got.keys() == want.keys()
    assert [key for key in want if got[key] != want[key]] == []


def test_every_band_record_keeps_its_bytes():
    assert_pins_hold(band_pins(), TABLE)


if __name__ == "__main__":
    print(json.dumps(band_pins(), indent=1, sort_keys=True))
