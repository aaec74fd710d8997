"""Finite windows of formal Laurent series in descending powers of z.

A window stores coefficients from max_power down to min_power.  Powers
above max_power are exactly zero by construction; powers below min_power
are unknown unless the series is marked exact (then they are zero too).
Operations propagate the largest window on which the result is provably
correct, so comparing two series never silently reads unknown terms.
A product convolves the two windows on integers: each factor's
coefficients are numerators over one common denominator, and each
coefficient of the result is one rational.

No `verify` identity reads these windows: the checks compare moments.
The window algebra stays as the tests' reference route for relationS's
continued fraction, and `series_multiply` is the layer the benchmark's
`--trace 1` spans wrap (`perfbench/spans.py`), so deleting it breaks
that run.
"""

from .errors import TruncationExhausted
from .rational import ZERO, Rational, common_denominator, rat


class LaurentSeries:
    __slots__ = ("max_power", "coeffs", "exact")

    def __init__(self, max_power, coeffs, exact=False):
        coeffs = [rat(c) for c in coeffs]
        # zeros at the top stay known after stripping, so this is lossless
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            max_power -= 1
        if exact:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        self.max_power = max_power
        self.coeffs = tuple(coeffs)
        self.exact = bool(exact)

    @property
    def min_power(self):
        return self.max_power - len(self.coeffs) + 1

    def knows(self, m):
        return self.exact or m >= self.min_power

    def coefficient(self, m):
        if m > self.max_power:
            return ZERO
        if m >= self.min_power:
            return self.coeffs[self.max_power - m]
        if self.exact:
            return ZERO
        raise TruncationExhausted(
            "coefficient of z^%d is below the known window (min power %d)"
            % (m, self.min_power)
        )

    def is_known_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.max_power == other.max_power
            and self.coeffs == other.coeffs
            and self.exact == other.exact
        )

    def __hash__(self):
        return hash((self.max_power, self.coeffs, self.exact))

    def __repr__(self):
        tail = "exact" if self.exact else "min_power=%d" % self.min_power
        return "LaurentSeries(max_power=%d, %d coeffs, %s)" % (
            self.max_power,
            len(self.coeffs),
            tail,
        )


def from_polynomial(p):
    """The polynomial viewed as an exact series in z."""
    return LaurentSeries(p.degree, tuple(reversed(p.coeffs)), exact=True)


def monomial_series(power, coefficient=1):
    return LaurentSeries(power, (rat(coefficient),), exact=True)


def series_neg(s):
    return LaurentSeries(s.max_power, tuple(-c for c in s.coeffs), exact=s.exact)


def series_scale(c, s):
    c = rat(c)
    return LaurentSeries(s.max_power, tuple(c * x for x in s.coeffs), exact=s.exact)


def series_shift(s, k):
    """Multiply by z**k."""
    return LaurentSeries(s.max_power + k, s.coeffs, exact=s.exact)


def series_add(s, t):
    hi = max(s.max_power, t.max_power)
    exact = s.exact and t.exact
    if exact:
        lo = min(s.min_power, t.min_power)
        if not s.coeffs and not t.coeffs:
            return LaurentSeries(0, (), exact=True)
    else:
        candidates = []
        if not s.exact:
            candidates.append(s.min_power)
        if not t.exact:
            candidates.append(t.min_power)
        lo = max(candidates)
    if lo > hi:
        return LaurentSeries(hi, (), exact=exact)
    return LaurentSeries(
        hi,
        tuple(s.coefficient(m) + t.coefficient(m) for m in range(hi, lo - 1, -1)),
        exact=exact,
    )


def series_sub(s, t):
    return series_add(s, series_neg(t))


def series_multiply(s, t):
    """Product on the largest provably-correct window.

    A coefficient of the product is known when every contribution that
    could involve an unknown factor coefficient is provably zero: below
    max_power(other) + min_power(non-exact side) that guarantee is lost.
    Inside the window the product is the convolution of the stored
    coefficients, run on each factor's integer numerators over its one
    common denominator, with one rational per coefficient of the result.
    """
    exact = s.exact and t.exact
    hi = s.max_power + t.max_power
    if exact:
        if not s.coeffs or not t.coeffs:
            return LaurentSeries(0, (), exact=True)
        lo = s.min_power + t.min_power
    else:
        candidates = []
        if not s.exact:
            candidates.append(s.min_power + t.max_power)
        if not t.exact:
            candidates.append(t.min_power + s.max_power)
        lo = max(candidates)
    if lo > hi:
        return LaurentSeries(hi, (), exact=exact)
    # coeffs[i] multiplies z^(max_power - i), so index r of the product
    # (power hi - r) sums x[i] y[r - i]
    x, x_den = common_denominator(s.coeffs)
    y, y_den = common_denominator(t.coeffs)
    den = x_den * y_den
    out = []
    for r in range(hi - lo + 1):
        first = max(0, r - len(y) + 1)
        total = sum(x[i] * y[r - i] for i in range(first, min(r + 1, len(x))))
        out.append(Rational(total, den))
    return LaurentSeries(hi, out, exact=exact)


def common_known_floor(s, t):
    """Lowest power at which both series are known, or None if unbounded below."""
    if s.exact and t.exact:
        return None
    candidates = []
    if not s.exact:
        candidates.append(s.min_power)
    if not t.exact:
        candidates.append(t.min_power)
    return max(candidates)


def first_series_mismatch(s, t):
    """Highest power where the two series disagree on their common window, or None."""
    hi = max(s.max_power, t.max_power)
    lo = common_known_floor(s, t)
    if lo is None:
        lo = min(s.min_power, t.min_power) if (s.coeffs or t.coeffs) else 0
    for m in range(hi, lo - 1, -1):
        if s.coefficient(m) != t.coefficient(m):
            return m
    return None
