"""The benchmark's three workloads: seeded inputs, the timed call, the oracle.

Each workload hands out rounds of items.  A round is a fixed list of
slots: slot s has the same kind and size in every round and under every
seed, and the seed only draws the values inside it (coefficients, shift
points, masses, depths).  So a slot's rounds differ only in those values
and in how busy the host was at the time, and run.py takes each slot's
fastest round as its latency.  `round_items(r)` is a pure function of
(seed, r).

Every item goes through `execute` (the only timed part: calls into
opoly, or opoly processes) and then `check`, which classifies it as
"pass", "expected-error" (a typed error the oracle predicted) or
"failed", and returns the output bytes that feed the workload digest.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from fractions import Fraction

import oracle
# Library calls go through module attributes, so traced runs see the wrappers.
from opoly import associated, families, orthopoly
from opoly.errors import NotQuasiDefinite, OpolyError

PASS = "pass"
EXPECTED = "expected-error"
FAILED = "failed"


class Item:
    """One unit of work: an id, a kind, and the kind's parameters."""

    def __init__(self, ident, kind, **params):
        self.ident = ident
        self.kind = kind
        self.params = params

    def __getattr__(self, name):
        try:
            return self.params[name]
        except KeyError:
            raise AttributeError(name)


# -- seeded draws ----------------------------------------------------------

def round_rng(workload, seed, r):
    return random.Random("%s:%d:%d" % (workload, seed, r))


def draw_shift(rng):
    """A shift point with denominator 5 or 7.

    Every input family here has recurrence coefficients in Z[1/6], so its
    polynomials have no rational zero with such a denominator: the
    Christoffel and LU steps at c never meet a zero pivot.
    """
    q = rng.choice((5, 7))
    p = rng.choice([p for p in range(1, 31) if p % q])
    return Fraction(rng.choice((-1, 1)) * p, q)


MASS_NUMERATORS = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173)
MASS_DENOMINATORS = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def draw_mass(rng):
    """A free mass +-p/q with p and q primes between 50 and 180.

    A mass makes a Geronimus step degenerate only at a few rationals built
    from the small numbers in c and the recurrence.  At level one that is
    u_0 / (b_0 - c) or its inverse, whose numerator or denominator has no
    prime factor above 30, so such a mass never hits it; deeper levels
    give rationals of growing height that it matches only by chance.
    """
    p = rng.choice(MASS_NUMERATORS)
    return Fraction(rng.choice((-1, 1)) * p, rng.choice(MASS_DENOMINATORS))


def random_recurrence(rng, length):
    """b_n in (1/3)Z, a_n in (1/2)Z \\ {0}: quasi-definite by construction.

    Fixed denominators keep the bit growth, and so the cost, of one slot
    nearly the same from draw to draw.
    """
    b = [Fraction(rng.randint(-6, 6), 3) for _ in range(length)]
    a = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), 2) for _ in range(length - 1)]
    return b, a


def invertible_recurrence(rng, length, top):
    """A random recurrence whose convolution inverse is quasi-definite to `top`."""
    while True:
        b, a = random_recurrence(rng, length)
        if oracle.origin_wronskians_nonzero(b, a, top):
            return b, a


def closed_form(family, alpha, length):
    """(b, a) of a classical family from its closed form in families.py."""
    if family == "chebyshev-u":
        rc = families.chebyshev_u_recurrence(length)
    elif family == "chebyshev-t":
        rc = families.chebyshev_t_recurrence(length)
    else:
        rc = families.laguerre_recurrence(alpha, length)
    return list(rc.b), list(rc.a)


def closed_form_moments(family, alpha, order):
    if family == "chebyshev-u":
        return list(families.chebyshev_u(order).moments)
    if family == "chebyshev-t":
        return list(families.chebyshev_t(order).moments)
    return list(families.laguerre(alpha, order).moments)


def closed_form_inverse(family, alpha, n_max):
    """(b, a) of the convolution inverse's recurrence, from families.py."""
    if family == "chebyshev-u":
        b_of, a_of = families.chebyshev_u_inverse_b, families.chebyshev_u_inverse_a
    elif family == "chebyshev-t":
        b_of, a_of = families.chebyshev_t_inverse_b, families.chebyshev_t_inverse_a
    else:
        b_of = lambda n: families.laguerre_inverse_b(alpha, n)  # noqa: E731
        a_of = lambda n: families.laguerre_inverse_a(alpha, n)  # noqa: E731
    return [b_of(n) for n in range(n_max)], [a_of(n) for n in range(1, n_max)]


def rationals(values):
    return [str(v) for v in values]


def error_text(exc):
    level = getattr(exc, "level", None)
    return "error %s level=%s guard=%s" % (type(exc).__name__, level, getattr(exc, "guard", None))


# -- roundtrip-high-order ---------------------------------------------------

class Roundtrip:
    """moments_from_jacobi -> smop_from_moments must give back the source
    recurrence exactly; at orders <= 64 inverse_recurrence runs as well."""

    name = "roundtrip-high-order"
    trace_rounds = 1
    min_rounds = 5
    # (kind, order, with inverse_recurrence); a round takes about 3 s on a
    # 2-vCPU x86_64 host, so a 50 s run gives each slot about fifteen
    # chances at a moment when the host is quiet.
    SLOTS = (
        ("degenerate", 64, False),
        ("random", 32, True),
        ("chebyshev-t", 64, True),
        ("laguerre", 64, True),
        ("random", 64, True),
        ("random", 96, False),
        ("random", 128, False),
    )

    def __init__(self, seed):
        self.seed = seed

    def round_items(self, r):
        rng = round_rng(self.name, self.seed, r)
        items = []
        for slot, (kind, order, inverse) in enumerate(self.SLOTS):
            ident = "r%d.%d %s@%d" % (r, slot, kind, order)
            length = order // 2 + 1
            alpha = None
            level = None
            if kind == "random":
                u0 = Fraction(rng.randint(1, 9), 7)
                if inverse:
                    b, a = invertible_recurrence(rng, length, order // 2 - 1)
                else:
                    b, a = random_recurrence(rng, length)
            elif kind == "degenerate":
                u0 = Fraction(rng.randint(1, 9), 7)
                b, a = random_recurrence(rng, length)
                level = rng.randint(2, order // 2 - 2)
                a[level - 1] = Fraction(0)
            else:
                u0 = Fraction(1)
                # half-integers alike in cost: 1/2 .. 9/2
                alpha = Fraction(2 * rng.randint(0, 4) + 1, 2) if kind == "laguerre" else None
                b, a = closed_form(kind, alpha, length)
            items.append(
                Item(ident, kind, order=order, inverse=inverse, b=b, a=a, u0=u0,
                     alpha=alpha, level=level)
            )
        return items

    def execute(self, item, traced=False):
        rc = orthopoly.RecurrenceCoefficients(item.b, item.a)
        u = orthopoly.moments_from_jacobi(orthopoly.jacobi_matrix(rc, len(item.b)), item.u0, item.order)
        rc, system = orthopoly.smop_from_moments(u, item.order // 2)
        inv = associated.inverse_recurrence(u, item.order // 2 - 1) if item.inverse else None
        return u, rc, system, inv

    def check(self, item, raw):
        if isinstance(raw, BaseException):
            if (
                item.kind == "degenerate"
                and type(raw) is NotQuasiDefinite
                and raw.level == item.level
                and raw.guard == "norm"
            ):
                return EXPECTED, error_text(raw)
            return FAILED, error_text(raw)
        if item.kind == "degenerate":
            return FAILED, "no error at a vanishing a_%d" % item.level
        u, rc, system, inv = raw
        n = item.order // 2
        want_b, want_a = item.b[:n], item.a[: n - 1]
        ok = list(rc.b) == want_b and list(rc.a) == want_a
        ok = ok and list(system.norms) == oracle.recurrence_norms(want_a, item.u0, n)
        if item.kind in ("laguerre", "chebyshev-t"):
            ok = ok and list(u.moments) == closed_form_moments(item.kind, item.alpha, item.order)
        text = "b=%s a=%s" % (",".join(rationals(rc.b)), ",".join(rationals(rc.a)))
        if inv is not None:
            if item.kind == "random":
                moments = oracle.inverse_moments(list(u.moments))
                count = 2 * len(inv.b)
                ok = ok and oracle.recurrence_moments(
                    list(inv.b), list(inv.a), moments[0], count
                ) == moments[:count]
            else:
                ok = ok and [list(inv.b), list(inv.a)] == list(
                    closed_form_inverse(item.kind, item.alpha, len(inv.b))
                )
            text += " inv_b=%s inv_a=%s" % (",".join(rationals(inv.b)), ",".join(rationals(inv.a)))
        return (PASS if ok else FAILED), text


# -- verify-catalogue -------------------------------------------------------

class VerifyCatalogue:
    """All registered identities through cli.main(["verify", ...]) in process."""

    name = "verify-catalogue"
    trace_rounds = 1
    min_rounds = 5
    INPUTS = ("chebyshev-u", "chebyshev-t", "laguerre-int", "laguerre-half", "random")

    def __init__(self, seed):
        from opoly import cli

        self.seed = seed
        self.cli = cli
        self.identities = list(cli.VERIFY_SUMMARIES)

    def round_items(self, r):
        rng = round_rng(self.name, self.seed, r)
        items = []
        # every identity on two inputs, every input under eight identities,
        # depths spread over 8..16
        inputs = self.INPUTS
        slots = [(name, inputs[(2 * i + j) % len(inputs)])
                 for i, name in enumerate(self.identities) for j in (0, 1)]
        for slot, (name, source) in enumerate(slots):
            n = 8 + 4 * slot % 9
            order = 2 * n + 6
            c = draw_shift(rng)
            params = [
                "--n=" + str(n),
                "--c=" + str(c),
                "--m0=" + str(draw_mass(rng)),
                "--m1=" + str(draw_mass(rng)),
                "--k=" + str(rng.randint(1, 3)),
                "--norm=" + str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), 3)),
            ]
            stdin = ""
            if source == "random":
                b, a = invertible_recurrence(rng, order // 2 + 1, n + 2)
                moments = oracle.recurrence_moments(b, a, Fraction(1), order)
                stdin = json.dumps({"label": "random", "order": order, "moments": rationals(moments)})
                params += ["--alpha=" + str(Fraction(rng.randint(-9, 9), 3))]
            else:
                family = source.split("-")[0] if source.startswith("laguerre") else source
                if source == "laguerre-int":
                    alpha = Fraction(rng.randint(0, 4))
                elif source == "laguerre-half":
                    alpha = Fraction(2 * rng.randint(0, 4) + 1, 2)
                else:
                    alpha = Fraction(rng.randint(-9, 9), 3)
                params += ["--family", family, "--order=" + str(order), "--alpha=" + str(alpha)]
            ident = "r%d.%d %s/%s n=%d" % (r, slot, name, source, n)
            items.append(Item(ident, "verify", argv=["verify", name] + params, name=name, stdin=stdin))
        return items

    def execute(self, item, traced=False):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(item.stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(item.argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def check(self, item, raw):
        if isinstance(raw, BaseException):
            return FAILED, error_text(raw)
        code, out, err = raw
        if code != 0:
            return FAILED, "exit %s: %s%s" % (code, out, err)
        try:
            payload = json.loads(out)
        except ValueError:
            return FAILED, out
        label = payload.get("chain") if item.name.endswith("+assoc") else payload.get("identity")
        checks = payload.get("checks") or []
        ok = label == item.name and checks and all(c.get("status") == "pass" for c in checks)
        return (PASS if ok else FAILED), out


# -- cli-pipeline -----------------------------------------------------------

class CliPipeline:
    """Fresh `python -m opoly` processes, one stage at a time, stdout to stdin."""

    name = "cli-pipeline"
    trace_rounds = 1
    min_rounds = 5
    FAMILIES = ("chebyshev-u", "chebyshev-t", "laguerre")
    TRANSFORMS = (
        "christoffel", "geronimus", "quadratic-geronimus", "associated", "corecursive", "inverse",
    )
    # (kind, variant)
    SLOTS = (
        (("example", "chebyshev-u"), ("example", "chebyshev-t"), ("example", "laguerre"))
        + (("smop", "family"), ("smop", "random"), ("smop", "degenerate"))
        + (("factorize", "lu"), ("factorize", "ul"), ("factorize", "quadratic"))
        + tuple(("transform", kind) for kind in TRANSFORMS)
    )

    def __init__(self, seed, root, work_dir):
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.traced_cli = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
        self.spans_files = []

    def round_items(self, r):
        rng = round_rng(self.name, self.seed, r)
        items = []
        for slot, (kind, variant) in enumerate(self.SLOTS):
            order = 24 + 2 * (5 * slot % 13)  # 24..48
            family = variant if kind == "example" else self.FAMILIES[slot % len(self.FAMILIES)]
            alpha = Fraction(rng.randint(1, 9), 2) if family == "laguerre" else Fraction(1)
            ident = "r%d.%d %s-%s@%d" % (r, slot, kind, variant, order)
            moments_cmd = ["moments", family, "--order=" + str(order), "--alpha=" + str(alpha)]
            p = {"order": order, "family": family, "alpha": alpha, "variant": variant}
            if kind == "example":
                stages = [["example", family, "--order=" + str(order), "--alpha=" + str(alpha)]]
            elif kind == "smop" and variant == "family":
                stages = [moments_cmd, ["smop"]]
            elif kind == "smop":
                p["u0"] = Fraction(rng.randint(1, 9), 7)
                p["b"], p["a"] = random_recurrence(rng, order // 2 + 1)
                if variant == "degenerate":
                    p["level"] = rng.randint(2, order // 2 - 2)
                    p["a"][p["level"] - 1] = Fraction(0)
                path = os.path.join(self.work_dir, "r%d-%d.json" % (r, slot))
                moments = oracle.recurrence_moments(p["b"], p["a"], p["u0"], order)
                with open(path, "w") as handle:
                    json.dump({"label": "random", "order": order, "moments": rationals(moments)}, handle)
                stages = [["moments", path], ["smop"]]
            elif kind == "transform":
                args = ["transform", variant]
                if variant in ("christoffel", "geronimus", "quadratic-geronimus"):
                    p["c"] = draw_shift(rng)
                    args += ["--c=" + str(p["c"])]
                if variant in ("geronimus", "quadratic-geronimus"):
                    p["m0"] = draw_mass(rng)
                    args += ["--m0=" + str(p["m0"])]
                if variant == "quadratic-geronimus":
                    p["m1"] = draw_mass(rng)
                    args += ["--m1=" + str(p["m1"])]
                if variant == "associated":
                    p["k"] = rng.randint(1, 3)
                    p["norm"] = Fraction(rng.randint(1, 20), 3)
                    args += ["--k=" + str(p["k"]), "--norm=" + str(p["norm"])]
                if variant == "corecursive":
                    p["shift"] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), 3)
                    args += ["--alpha=" + str(p["shift"])]
                stages = [moments_cmd, args, ["smop"]]
            else:
                p["c"] = draw_shift(rng)
                args = ["factorize", variant, "--c=" + str(p["c"])]
                if variant in ("ul", "quadratic"):
                    p["m0"] = draw_mass(rng)
                    args += ["--m0=" + str(p["m0"])]
                if variant == "quadratic":
                    p["m1"] = draw_mass(rng)
                    p["size"] = order // 2 - 2
                    args += ["--m1=" + str(p["m1"]), "--size=" + str(p["size"])]
                stages = [moments_cmd, args]
            items.append(Item(ident, kind, stages=stages, **p))
        return items

    def execute(self, item, traced=False):
        """Run the stages in turn; each one's stdout is the next one's stdin."""
        results = []
        data = b""
        for args in item.stages:
            if traced:
                spans = os.path.join(self.work_dir, "spans-%d.jsonl" % len(self.spans_files))
                self.spans_files.append(spans)
                cmd = [sys.executable, self.traced_cli, spans, item.ident] + args
            else:
                cmd = [sys.executable, "-m", "opoly"] + args
            proc = subprocess.run(
                cmd, input=data, capture_output=True, cwd=self.root, env=self.env, timeout=120
            )
            results.append((proc.returncode, proc.stdout, proc.stderr))
            if proc.returncode != 0:
                break
            data = proc.stdout
        return results

    def expected_moments(self, item):
        """Moments the transform stage must print, from the oracle."""
        n = item.order
        b, a = closed_form(item.family, item.alpha, n // 2 + 2)
        u = closed_form_moments(item.family, item.alpha, n)
        v = item.variant
        if v == "christoffel":
            return oracle.christoffel_moments(u, item.c)
        if v == "geronimus":
            return oracle.geronimus_moments(u, item.c, item.m0)
        if v == "quadratic-geronimus":
            return oracle.quadratic_geronimus_moments(u, item.c, item.m0, item.m1)
        if v == "associated":
            depth = n // 2
            count = 2 * (depth - item.k) - 1
            return oracle.recurrence_moments(b[item.k:], a[item.k:], item.norm, count)
        if v == "corecursive":
            return oracle.recurrence_moments([b[0] + item.shift] + b[1:], a, u[0], n)
        return oracle.inverse_moments(u)

    def check(self, item, raw):
        if isinstance(raw, BaseException):
            return FAILED, error_text(raw)
        text = b"".join(out for _, out, _ in raw).decode()
        code, out, err = raw[-1]
        if len(raw) != len(item.stages) or any(c != 0 for c, _, _ in raw[:-1]):
            return FAILED, text
        if item.kind == "smop" and item.variant == "degenerate":
            try:
                payload = json.loads(out)
            except ValueError:
                return FAILED, text
            ok = code == 1 and not err and payload.get("error") == "NotQuasiDefinite"
            ok = ok and payload.get("level") == item.level and payload.get("guard") == "norm"
            return (EXPECTED if ok else FAILED), text
        if code != 0 or err:
            return FAILED, text + err.decode(errors="replace")
        try:
            payload = json.loads(out)
            ok = self._matches(item, raw, payload)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        return (PASS if ok else FAILED), text

    def _matches(self, item, raw, payload):
        frac = lambda values: [Fraction(x) for x in values]  # noqa: E731
        if item.kind == "example":
            n_max = item.order // 2 - 1
            want_b, want_a = closed_form_inverse(item.family, item.alpha, n_max)
            checks = payload["checks"]
            return (
                payload["family"] == item.family
                and payload["order"] == item.order
                and frac(payload["b_minus"]) == want_b
                and frac(payload["a_minus"]) == want_a
                and len(checks) >= 5
                and all(c["status"] == "pass" for c in checks)
            )
        if item.kind == "smop":
            n = item.order // 2
            if item.variant == "family":
                b, a = closed_form(item.family, item.alpha, n)
                u0 = Fraction(1)
            else:
                b, a, u0 = item.b[:n], item.a[: n - 1], item.u0
            return (
                payload["n"] == n
                and frac(payload["b"]) == b
                and frac(payload["a"]) == a
                and frac(payload["norms"]) == oracle.recurrence_norms(a, u0, n)
            )
        if item.kind == "transform":
            moments = frac(json.loads(raw[1][1])["moments"])
            want = self.expected_moments(item)
            return moments == want and oracle.reproduces(
                frac(payload["b"]), frac(payload["a"]), frac(payload["norms"]), want
            )
        b, a = closed_form(item.family, item.alpha, item.order // 2 + 2)
        if item.variant == "lu":
            return oracle.lu_matches(
                b, a, item.c, frac(payload["ell"]), frac(payload["beta"]),
                frac(payload["transformed_b"]), frac(payload["transformed_a"]),
            )
        if item.variant == "ul":
            return oracle.ul_matches(
                b, a, item.c, 1 / item.m0, frac(payload["ell"]), frac(payload["beta"]),
                frac(payload["transformed_b"]), frac(payload["transformed_a"]),
            )
        return len(payload["diag"]) == item.size and oracle.triband_matches(
            b, a, item.c, frac(payload["sub1"]), frac(payload["sub2"]),
            frac(payload["diag"]), frac(payload["super1"]),
        )


WORKLOADS = {w.name: w for w in (Roundtrip, VerifyCatalogue, CliPipeline)}


def make(name, seed, root, work_dir):
    cls = WORKLOADS[name]
    if cls is CliPipeline:
        return cls(seed, root, work_dir)
    return cls(seed)


def run_item(workload, item, clock, traced=False):
    """Time one item's execute, then classify it.  Returns (seconds, status, text)."""
    start = clock()
    try:
        raw = workload.execute(item, traced)
    except OpolyError as exc:
        raw = exc
    except Exception as exc:  # a crash inside the library is a failed item, not a benchmark error
        exc.detail = traceback.format_exc()
        raw = exc
    elapsed = clock() - start
    status, text = workload.check(item, raw)
    if status == FAILED and getattr(raw, "detail", None):
        text += "\n" + raw.detail
    return elapsed, status, text
