"""Command-line interface: pipelines and identity checks as JSON on stdio.

Subcommands compose through JSON records (rationals travel as strings
"p/q"); CSV is available for plain coefficient tables.  Exit status is
0 when everything requested passed, 1 for mathematical failures or
failed checks (with a JSON report), 2 for usage errors.  The
environment variable OPOLY_MAX_ORDER (default 64) caps every order,
depth and size argument as a safety valve.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections import namedtuple

from . import __version__
from . import families
from . import functional as fa
from . import serialize
from .associated import (
    assoc_representation_check,
    associated_functional,
    associated_polys,
    corecursive_functional,
    corecursive_functional_check,
    inverse_functional_identity_check,
    inverse_kernel,
    linear_combination_check,
)
from .composition import (
    christoffel_assoc_chain,
    christoffel_assoc_check,
    christoffel_assoc_functional_check,
    geronimus_assoc_chain,
    geronimus_assoc_connection_check,
    geronimus_assoc_factor_check,
    geronimus_assoc_second_check,
    shifted_factor_check,
)
from .darboux import christoffel_lu, christoffel_connection_check, geronimus_ul
from .errors import (
    DegenerateParameter,
    NotQuasiDefinite,
    OpolyError,
    TruncationExhausted,
    ZeroPivot,
)
from .orthopoly import smop_from_moments
from .poly import X
from .quadratic import (
    assoc_inverse_factorization_check,
    g_matrix_check,
    quadratic_connection_check,
    quadratic_factorization,
    quadratic_factorization_check,
)
from .rational import parse_rational, rat, rat_str
from .reports import CheckReport
from .stieltjes import (
    first_kind_series_check,
    inverse_series_check,
    pade_approximation_check,
)

DEFAULT_ORDER = 24


class UsageError(Exception):
    """Bad arguments or malformed input; maps to exit status 2."""


class UpstreamError(OpolyError):
    """A typed error record on stdin: an earlier stage of the pipeline failed.

    It is passed on unchanged, with exit status 1.
    """

    def __init__(self, payload):
        self.payload = payload
        super().__init__(payload.get("message", payload["error"]))


def max_order_cap():
    raw = os.environ.get("OPOLY_MAX_ORDER", "64")
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("OPOLY_MAX_ORDER must be an integer, got %r" % raw)
    if cap < 4:
        raise UsageError("OPOLY_MAX_ORDER must be at least 4")
    return cap


def checked_size(value, what, least=1):
    if value < least:
        raise UsageError("%s must be at least %d" % (what, least))
    cap = max_order_cap()
    if value > cap:
        raise UsageError("%s %d exceeds OPOLY_MAX_ORDER = %d" % (what, value, cap))
    return value


def parse_param(text, what):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad rational for %s: %s" % (what, exc))


def read_functional(stream):
    data = stream.read()
    if not data.strip():
        raise UsageError("expected a moments record (or list) on standard input")
    try:
        obj = serialize.loads(data)
    except json.JSONDecodeError as exc:
        raise UsageError("malformed JSON on standard input: %s" % exc)
    if isinstance(obj, dict) and isinstance(obj.get("error"), str):
        raise UpstreamError(obj)
    try:
        u = serialize.functional_from_json(obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad moments record: %s" % exc)
    checked_size(u.order, "input order")
    return u


def build_family(name, alpha, order):
    if name not in families.FAMILIES:
        raise UsageError(
            "unknown family %r (choose from %s)" % (name, ", ".join(sorted(families.FAMILIES)))
        )
    checked_size(order, "order")
    try:
        return families.FAMILIES[name].moments(alpha, order)
    except ValueError as exc:
        raise UsageError(str(exc))


def input_functional(args):
    """Moments from --family if given, else from standard input."""
    family = getattr(args, "family", None)
    if family:
        alpha = parse_param(getattr(args, "alpha", "1"), "--alpha")
        return build_family(family, alpha, getattr(args, "order", DEFAULT_ORDER))
    if sys.stdin.isatty():
        raise UsageError("no input: pipe a moments record or pass --family")
    return read_functional(sys.stdin)


def emit_text(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def emit_json(payload, out_path):
    emit_text(serialize.dumps(payload), out_path)


def emit_csv(header, rows, out_path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    emit_text(buf.getvalue(), out_path)


def error_payload(exc):
    if isinstance(exc, UpstreamError):
        return exc.payload
    payload = {"version": __version__, "error": type(exc).__name__}
    if isinstance(exc, NotQuasiDefinite):
        payload["level"] = exc.level
        if exc.guard:
            payload["guard"] = exc.guard
    elif isinstance(exc, ZeroPivot):
        payload["level"] = exc.index
    message = str(exc)
    if message:
        payload["message"] = message
    return payload


# -- subcommand handlers -------------------------------------------------

def cmd_moments(args):
    if args.source in families.FAMILIES:
        alpha = parse_param(args.alpha, "--alpha")
        u = build_family(args.source, alpha, args.order)
    else:
        try:
            with open(args.source) as handle:
                u = read_functional(handle)
        except OSError as exc:
            raise UsageError("cannot read %r: %s" % (args.source, exc))
    if args.csv:
        rows = [(n, rat_str(m)) for n, m in enumerate(u.moments)]
        emit_csv(("n", "moment"), rows, args.out)
        return True
    payload = {"version": __version__}
    payload.update(serialize.moments_record(u))
    emit_json(payload, args.out)
    return True


def cmd_smop(args):
    u = read_functional(sys.stdin)
    if args.n is not None:
        n = checked_size(args.n, "--n")
    else:
        # by default the largest depth the input supports; an input too
        # short for depth 1 is a mathematical failure, not a usage error
        n = u.order // 2
        if n < 1:
            raise TruncationExhausted(
                "smop needs 2 moments for its smallest depth 1, have %d" % u.order
            )
        checked_size(n, "--n")
    rc, system = smop_from_moments(u, n)
    if args.csv:
        rows = []
        for k in range(n):
            a_entry = rat_str(rc.a_at(k)) if k >= 1 else ""
            rows.append((k, rat_str(rc.b_at(k)), a_entry, rat_str(system.norms[k])))
        emit_csv(("n", "b", "a", "norm"), rows, args.out)
        return True
    payload = {"version": __version__}
    payload.update(serialize.recurrence_record(rc, system.norms))
    emit_json(payload, args.out)
    return True


def _associated(u, k, norm0):
    depth = u.order // 2
    count = 2 * (depth - k) - 1
    if count < 1:
        # the input, not --k, is at fault: a mathematical failure
        raise TruncationExhausted(
            "associated at level k=%d needs %d moments, have %d" % (k, 2 * k + 2, u.order)
        )
    # the moment route does not see a vanishing Hankel minor beyond level
    # k, so u's recurrence is read to the depth the input supports
    smop_from_moments(u, depth)
    return associated_functional(u, k, norm0, count).relabeled("associated-%d" % k)


# every `transform` kind: the options it reads, in order, and its producer,
# called as produce(u, *values); a result without a label takes the kind's
Transform = namedtuple("Transform", "params produce")

TRANSFORMS = {
    "christoffel": Transform(("c",), lambda u, c: fa.multiply_poly(u, X - c)),
    "geronimus": Transform(("c", "m0"), fa.geronimus),
    "quadratic-geronimus": Transform(("c", "m0", "m1"), fa.quadratic_geronimus),
    "associated": Transform(("k", "norm"), _associated),
    "corecursive": Transform(("alpha",), corecursive_functional),
    "inverse": Transform((), fa.invert),
}


def cmd_transform(args):
    u = read_functional(sys.stdin)
    transform = TRANSFORMS[args.kind]
    values = [
        checked_size(args.k, "--k") if name == "k" else parse_param(getattr(args, name), "--" + name)
        for name in transform.params
    ]
    result = transform.produce(u, *values)
    payload = {"version": __version__}
    payload.update(serialize.moments_record(result.relabeled(result.label or args.kind)))
    emit_json(payload, args.out)
    return True


def cmd_factorize(args):
    u = read_functional(sys.stdin)
    c = parse_param(args.c, "--c")
    # lu/ul read 2*size moments, quadratic 2*size + 2; a quadratic
    # (triband) factorization needs three rows, lu and ul two
    extra = 2 if args.mode == "quadratic" else 0
    least = 3 if args.mode == "quadratic" else 2
    if args.size is not None:
        size = checked_size(args.size, "--size", least=least)
    else:
        # by default the largest size the input supports; an input too
        # short for the smallest is a mathematical failure, not a usage error
        size = (u.order - extra) // 2
        if size < least:
            raise TruncationExhausted(
                "factorize %s needs %d moments for its smallest size %d, have %d"
                % (args.mode, 2 * least + extra, least, u.order)
            )
        checked_size(size, "--size")
    if args.mode == "lu":
        rc, _ = smop_from_moments(u, size)
        lower, upper, transformed = christoffel_lu(rc, c)
        record = serialize.factor_record(c, lower.sub, upper.diag, transformed)
    elif args.mode == "ul":
        m0 = parse_param(args.m0, "--m0")
        if m0 == 0:
            raise DegenerateParameter("the transformed functional needs a nonzero mass m0")
        rc, _ = smop_from_moments(u, size)
        beta0 = u.moment(0) / m0
        lower, upper, transformed = geronimus_ul(rc, c, beta0)
        record = serialize.factor_record(c, lower.sub, upper.diag, transformed)
    else:
        m0 = parse_param(args.m0, "--m0")
        m1 = parse_param(args.m1, "--m1")
        lower, upper = quadratic_factorization(u, c, m0, m1, size)
        record = serialize.triband_record(lower, upper)
    payload = {"version": __version__}
    payload.update(record)
    emit_json(payload, args.out)
    return True


# run(u, params) returns an identity's CheckReports; least_n is the smallest
# --n its matrices can use; chain marks a bundle reported as a chain record
Identity = namedtuple("Identity", "summary run least_n chain", defaults=(1, False))


def _linear_combination(u, p):
    if p["k"] > p["n"]:
        raise UsageError("linearcombination needs --k <= --n")
    return [linear_combination_check(u, p["k"], p["n"])]


# every `verify` identity, in `verify --list` order
IDENTITIES = {
    "repChris": Identity(
        "multiplication step: (x-c) times each transformed polynomial is a two-term combination of the originals, with pivots matching value ratios",
        lambda u, p: [christoffel_connection_check(u, p["c"], p["n"])],
    ),
    "fu1": Identity(
        "the first-associated functional equals an explicit multiple of x^2 times the convolution inverse",
        lambda u, p: [inverse_functional_identity_check(u, p["norm"])],
    ),
    "identidad": Identity(
        "the generating series of a functional and of its convolution inverse multiply to z^-2",
        lambda u, p: [inverse_series_check(u)],
    ),
    "relationS": Identity(
        "the first-associated generating series as an affine expression in the inverse one",
        lambda u, p: [first_kind_series_check(u, p["norm"])],
    ),
    "funccorre": Identity(
        "the co-recursive functional via normalization of the perturbed inverse",
        lambda u, p: [corecursive_functional_check(u, p["alpha"])],
    ),
    "pade": Identity(
        "the series remainder against P_n vanishes from z^(n-1) through z^-n and resumes with the norm",
        lambda u, p: [pade_approximation_check(u, p["n"])],
    ),
    "conex2": Identity(
        "(x-c)^2 times each polynomial is a three-term combination of the double-kernel SMOP",
        lambda u, p: [quadratic_connection_check(u, p["c"], p["m0"], p["m1"], p["n"])],
    ),
    "propLUinversa": Identity(
        "the squared shifted Jacobi matrices factor as the two swapped products of one triband pair",
        lambda u, p: [quadratic_factorization_check(u, p["c"], p["m0"], p["m1"], p["n"])],
        least_n=2,
    ),
    "relationlu": Identity(
        "the origin analogue of the swapped triband factorization for the inverse SMOP",
        lambda u, p: [assoc_inverse_factorization_check(u, p["norm"], p["n"])],
        least_n=3,
    ),
    "g-matrix": Identity(
        "the inverse Jacobi matrix times the lower factor is the lower factor times the first-associated Jacobi matrix, J^- L = L J^(1)",
        lambda u, p: [g_matrix_check(u, p["n"])],
        least_n=3,
    ),
    "pro5": Identity(
        "associated-then-multiplied SMOP equals a one-parameter perturbation of the first-associated SMOP",
        lambda u, p: [christoffel_assoc_check(u, p["c"], p["n"])],
    ),
    "coro1": Identity(
        "the first-associated functional of the multiplied functional is the multiplied perturbed functional (normalized)",
        lambda u, p: [christoffel_assoc_functional_check(u, p["c"])],
    ),
    "shifted-lu": Identity(
        "dropping the leading row and column of both factors refactors the perturbed matrix",
        lambda u, p: [shifted_factor_check(u, p["c"], p["n"])],
        least_n=2,
    ),
    "gero1": Identity(
        "(x-c) times the transformed first-associated polynomials is a two-term combination of the auxiliary family",
        lambda u, p: [geronimus_assoc_connection_check(u, p["c"], p["m0"], p["n"])],
    ),
    "gero2": Identity(
        "the auxiliary family is a two-term combination of the transformed first-associated polynomials",
        lambda u, p: [geronimus_assoc_second_check(u, p["c"], p["m0"], p["n"])],
    ),
    "pro6": Identity(
        "the transformed functional's first-associated is a multiplication transform of the perturbed one, with matching shifted factors",
        lambda u, p: [geronimus_assoc_factor_check(u, p["c"], p["m0"], p["n"])],
        least_n=2,
    ),
    "asociadosrepr": Identity(
        "each associated polynomial is a divided difference of the previous associated level",
        lambda u, p: [assoc_representation_check(u, p["k"], p["n"])],
    ),
    "linearcombination": Identity(
        "higher associated polynomials as a fixed polynomial combination of the base and first-associated families",
        _linear_combination,
    ),
    "christoffel+assoc": Identity(
        "the full multiplication-side interplay bundle",
        lambda u, p: christoffel_assoc_chain(u, p["c"], p["n"]),
        least_n=2,
        chain=True,
    ),
    "geronimus+assoc": Identity(
        "the full division-side interplay bundle",
        lambda u, p: geronimus_assoc_chain(u, p["c"], p["m0"], p["n"]),
        least_n=2,
        chain=True,
    ),
}

# the benchmark's verify-catalogue workload reads this (perfbench/workloads.py)
VERIFY_SUMMARIES = {name: identity.summary for name, identity in IDENTITIES.items()}


def run_verify(name, u, params):
    """The CheckReports of one registered identity."""
    return IDENTITIES[name].run(u, params)


def cmd_verify(args):
    if args.list:
        payload = {
            "version": __version__,
            "identities": [
                {"name": name, "summary": summary}
                for name, summary in VERIFY_SUMMARIES.items()
            ],
        }
        emit_json(payload, args.out)
        return True
    if not args.name:
        raise UsageError("name an identity to verify, or pass --list")
    name = args.name
    if name not in IDENTITIES:
        raise UsageError(
            "unknown identity %r; run `opoly verify --list` for the catalogue" % name
        )
    u = input_functional(args)
    params = {
        "c": parse_param(args.c, "--c"),
        "m0": parse_param(args.m0, "--m0"),
        "m1": parse_param(args.m1, "--m1"),
        "alpha": parse_param(args.alpha, "--alpha"),
        "k": checked_size(args.k, "--k"),
        "norm": parse_param(args.norm, "--norm"),
        "n": checked_size(args.n, "--n", least=IDENTITIES[name].least_n),
    }
    reports = run_verify(name, u, params)
    if IDENTITIES[name].chain:
        shown = {
            "m0": rat_str(params["m0"]),
            "n": params["n"],
            "size": params["n"],
        }
        payload = {"version": __version__}
        payload.update(serialize.chain_record(name, params["c"], shown, reports))
    else:
        payload = {
            "version": __version__,
            "identity": name,
            "checks": [r.to_json() for r in reports],
        }
    emit_json(payload, args.out)
    return all(r.passed for r in reports)


def _table_check(table, columns):
    """Each column of (n, value) against its closed form want(n), exactly."""
    rows = [
        (n, got, want(n))
        for column, want in zip(columns, table.wants, strict=True)
        for n, got in column
    ]
    top = rows[-1][0] if rows else 0
    for idx, got, want in rows:
        if got != want:
            return CheckReport.failing(
                table.name,
                top,
                {"level": idx, "got": rat_str(got), "want": rat_str(want)},
            )
    return CheckReport.passing(table.name, top)


def _factor_columns(lower, upper, transformed):
    """The pivots beta_n from n = 0 and the lower entries ell_n from n = 1."""
    return [enumerate(upper.diag), enumerate(lower.sub, 1)]


# the library route of each family table (`families.Table`), by its name:
# route(kernel, rc, system, table) gives one column of (n, value) per
# closed form of the table, from u's inverse kernel to depth order/2 - 1
# and u's recurrence and SMOP to depth order/2
ROUTES = {
    "b-minus-table": lambda kernel, rc, system, table: [enumerate(kernel.recurrence.b)],
    "a-minus-table": lambda kernel, rc, system, table: [enumerate(kernel.recurrence.a, 1)],
    "d-star-table": lambda kernel, rc, system, table: [kernel.d_star.items()],
    "alpha1-table": lambda kernel, rc, system, table: [kernel.alpha1.items()],
    "alpha2-table": lambda kernel, rc, system, table: [kernel.alpha2.items()],
    "kernel-step-table": lambda kernel, rc, system, table: _factor_columns(
        *christoffel_lu(rc, *table.params)
    ),
    "inverse-kernel-step-table": lambda kernel, rc, system, table: _factor_columns(
        *geronimus_ul(rc, *table.params)
    ),
    "value-at-zero-table": lambda kernel, rc, system, table: [
        enumerate(p(0) for p in system.polys),
        enumerate(p.derivative()(0) for p in system.polys),
    ],
    "assoc-value-at-zero-table": lambda kernel, rc, system, table: [
        enumerate(p(0) for p in associated_polys(rc, 1, rc.length - 1))
    ],
}


def family_reproduction(name, alpha, order):
    """A family's closed-form tables (`families.FAMILIES`), each compared
    against the library route of the same name."""
    u = build_family(name, alpha, order)
    # one kernel gives the inverse tables; their closed forms check it
    kernel = inverse_kernel(u, order // 2 - 1)
    rc, system = smop_from_moments(u, order // 2)
    checks = [
        _table_check(table, ROUTES[table.name](kernel, rc, system, table))
        for table in families.FAMILIES[name].tables(alpha)
    ]
    payload = {
        "version": __version__,
        "family": name,
        "alpha": rat_str(rat(alpha)),
        "order": order,
        "b_minus": serialize.rational_list(kernel.recurrence.b),
        "a_minus": serialize.rational_list(kernel.recurrence.a),
        "d_star": serialize.rational_list(kernel.d_star.values()),
        "alpha1": serialize.rational_list(kernel.alpha1.values()),
        "alpha2": serialize.rational_list(kernel.alpha2.values()),
        "checks": [r.to_json() for r in checks],
    }
    return payload, all(r.passed for r in checks)


def cmd_example(args):
    alpha = parse_param(args.alpha, "--alpha")
    checked_size(args.order, "--order", least=4)
    payload, ok = family_reproduction(args.family, alpha, args.order)
    emit_json(payload, args.out)
    return ok


# -- parser --------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="opoly",
        description="Exact moment-functional pipelines and identity checks.",
    )
    parser.add_argument("--version", action="version", version="opoly " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_moments = sub.add_parser(
        "moments", help="emit the moments of a classical family or of a JSON file"
    )
    p_moments.add_argument("source", help="family name (%s) or path" % "|".join(sorted(families.FAMILIES)))
    p_moments.add_argument("--alpha", default="1", help="family parameter (default 1)")
    p_moments.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_moments.add_argument("--csv", action="store_true", help="coefficient table as CSV")
    p_moments.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_moments.set_defaults(handler=cmd_moments)

    p_smop = sub.add_parser(
        "smop", help="recurrence coefficients and norms from moments on stdin"
    )
    p_smop.add_argument("--n", type=int, default=None, help="depth (default order/2)")
    p_smop.add_argument("--csv", action="store_true", help="coefficient table as CSV")
    p_smop.add_argument("--out", default=None)
    p_smop.set_defaults(handler=cmd_smop)

    p_transform = sub.add_parser(
        "transform", help="apply a spectral transformation to moments on stdin"
    )
    p_transform.add_argument(
        "kind",
        choices=list(TRANSFORMS),
    )
    p_transform.add_argument("--c", default="1", help="shift point (default 1)")
    p_transform.add_argument("--m0", default="1", help="new mass at c (default 1)")
    p_transform.add_argument("--m1", default="0", help="derivative mass at c (default 0)")
    p_transform.add_argument("--alpha", default="1", help="perturbation (default 1)")
    p_transform.add_argument("--k", type=int, default=1, help="association level (default 1)")
    p_transform.add_argument("--norm", default="1", help="first moment of the result (default 1)")
    p_transform.add_argument("--out", default=None)
    p_transform.set_defaults(handler=cmd_transform)

    p_factor = sub.add_parser(
        "factorize", help="bidiagonal or triband factorization of the Jacobi matrix"
    )
    p_factor.add_argument("mode", choices=["lu", "ul", "quadratic"])
    p_factor.add_argument("--c", default="1", help="shift point (default 1)")
    p_factor.add_argument("--m0", default="1", help="mass for ul/quadratic (default 1)")
    p_factor.add_argument("--m1", default="0", help="derivative mass for quadratic (default 0)")
    p_factor.add_argument(
        "--size",
        type=int,
        default=None,
        help="matrix size (default: the largest the input supports, order/2, or order/2 - 1 "
        "for quadratic)",
    )
    p_factor.add_argument("--out", default=None)
    p_factor.set_defaults(handler=cmd_factorize)

    p_verify = sub.add_parser("verify", help="run one identity check (JSON report)")
    p_verify.add_argument("name", nargs="?", default=None)
    p_verify.add_argument("--list", action="store_true", help="enumerate all identities")
    p_verify.add_argument("--family", default=None, help="use a built-in family instead of stdin")
    p_verify.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_verify.add_argument("--c", default="1", help="shift point (default 1)")
    p_verify.add_argument("--m0", default="1", help="mass (default 1)")
    p_verify.add_argument("--m1", default="0", help="derivative mass (default 0)")
    p_verify.add_argument("--alpha", default="1", help="perturbation / family parameter (default 1)")
    p_verify.add_argument("--k", type=int, default=1, help="association level (default 1)")
    p_verify.add_argument("--norm", default="1", help="free first moment (default 1)")
    p_verify.add_argument("--n", type=int, default=8, help="depth / size (default 8)")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_example = sub.add_parser(
        "example", help="reproduce a family's closed-form tables and check them"
    )
    p_example.add_argument("family", choices=sorted(families.FAMILIES))
    p_example.add_argument("--alpha", default="1", help="family parameter (default 1)")
    p_example.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_example.add_argument("--out", default=None)
    p_example.set_defaults(handler=cmd_example)

    return parser


@functools.cache
def shared_parser():
    """The parser of this process, built on the first `main` call.

    argparse keeps no state between parses: every `parse_args` starts a
    fresh namespace from the defaults, so one parser serves every call.
    """
    return build_parser()


def main(argv=None):
    args = shared_parser().parse_args(argv)
    try:
        ok = args.handler(args)
    except UsageError as exc:
        print("opoly: %s" % exc, file=sys.stderr)
        return 2
    except OpolyError as exc:
        emit_json(error_payload(exc), getattr(args, "out", None))
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
