"""Exact rational scalars with a selectable backend.

gmpy2's mpq is used when it is importable (C-accelerated big rationals);
otherwise fractions.Fraction.  The environment variable
OPOLY_RATIONAL_BACKEND forces the choice: "gmpy2", "fraction", or "auto"
(the default).  Both backends canonicalise sign and gcd, print as "p/q"
or "p", and expose .numerator/.denominator, so everything above this
module is backend-agnostic.
"""

import os
import re
from fractions import Fraction
from math import lcm

_requested = os.environ.get("OPOLY_RATIONAL_BACKEND", "auto").strip().lower()

if _requested in ("auto", "gmpy2", ""):
    try:
        from gmpy2 import mpq as Rational
        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise ImportError(
                "OPOLY_RATIONAL_BACKEND=gmpy2 was requested but gmpy2 is not installed"
            )
        Rational = Fraction
        BACKEND = "fraction"
elif _requested in ("fraction", "fractions", "python"):
    Rational = Fraction
    BACKEND = "fraction"
else:
    raise ValueError("unknown OPOLY_RATIONAL_BACKEND value: %r" % _requested)

ZERO = Rational(0)
ONE = Rational(1)

_RAT_RE = re.compile(r"^[+-]?\d+(?:/[+-]?\d+)?$")


def parse_rational(text):
    """Parse 'p', 'p/q', or '-p/q' (ASCII or U+2212 minus) into a Rational."""
    s = text.strip().replace("−", "-")
    if not _RAT_RE.match(s):
        raise ValueError("not a rational literal: %r" % text)
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ZeroDivisionError("zero denominator in %r" % text)
        return Rational(int(p), int(q))
    return Rational(int(s))


def rat(p=0, q=None):
    """Coerce to Rational.  Accepts ints, rational strings, and rationals.

    Floats are rejected: they would silently smuggle binary rounding into
    an exact computation.  A Rational comes back as itself: rationals are
    immutable, so rebuilding one would only repeat its gcd.
    """
    if q is None and type(p) is Rational:
        return p
    if isinstance(p, float) or isinstance(q, float):
        raise TypeError("floats are not exact; pass ints, strings, or rationals")
    if q is not None:
        if isinstance(p, str) or isinstance(q, str):
            return rat(p) / rat(q)
        return Rational(p, q)
    if isinstance(p, str):
        return parse_rational(p)
    return Rational(p)


def rat_str(x):
    """Canonical string form: 'p/q' with q > 0 and gcd(p,q)=1, or 'p'."""
    return str(Rational(x) if not isinstance(x, type(ONE)) else x)


def is_zero(x):
    return x == 0


def common_denominator(values):
    """Integers (n_0, ...) and the least den > 0 with values[i] = n_i / den.

    Reads only .numerator and .denominator, so the integer kernels built on
    it run the same over either backend; `Rational(n_i, den)` goes back.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
