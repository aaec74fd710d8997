"""Exact rational scalars: the standard library's fractions.Fraction.

Fraction canonicalises sign and gcd, prints as "p/q" or "p", and
exposes the .numerator/.denominator that the integer kernels read.
BACKEND names the scalar type for benchmark records.
"""

import re
from fractions import Fraction
from math import lcm

Rational = Fraction
BACKEND = "fraction"

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
    return str(x if isinstance(x, Rational) else Rational(x))


def common_denominator(values):
    """Integers (n_0, ...) and the least den > 0 with values[i] = n_i / den.

    Reads only .numerator and .denominator; `Rational(n_i, den)` goes back.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
