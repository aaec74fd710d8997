"""Dense univariate polynomials over exact rationals.

A polynomial is stored as integer numerators over one positive
denominator: coefficient k is num[k] / den, with gcd(den, *num) = 1 and
no trailing zero numerator, so equal polynomials have equal (num, den).
A polynomial is a ring element: sums are one integer combination
(`_combine`), which also compares the checks' polynomial identities
unreduced; products are one convolution; there is no division, since
the library reads its quotients off recurrences and kernels at c.  Evaluation, derivatives and Wronskians build one
rational per value they return; `coeffs`, the rational coefficients,
is built when read.
"""

from itertools import zip_longest
from math import gcd, lcm

from .rational import ZERO, Rational, common_denominator, rat


def _scalar(value):
    """(numerator, denominator) of an exact scalar; floats are rejected by `rat`."""
    if type(value) is int:
        return value, 1
    value = rat(value)
    return value.numerator, value.denominator


def _convolve(a, b):
    """The integer coefficients of the product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _combine(terms):
    """The sum of scalar * p * f over terms (scalar, p) or (scalar, p, f), with
    p and f Polynomials, as (numerators, den) over one integer denominator.

    Each term reaches den, the lcm of the terms' denominators, by
    cross-multiplication: no gcd runs over the coefficients and no
    Polynomial is built.  So an identity vanishes exactly when no
    numerator is nonzero, and `Polynomial.from_integers` reduces a sum once.
    """
    rows = []
    for scalar, p, *f in terms:
        sp = scalar.numerator
        if sp and p.num:
            row, den = p.num, scalar.denominator * p.den
            for g in f:
                # the factor, the shorter list, runs the outer loop
                row, den = _convolve(g.num, row), den * g.den
            rows.append((sp, row, den))
    den = lcm(*[d for _, _, d in rows])
    scaled = []
    for sp, row, d in rows:
        m = sp * (den // d)
        scaled.append([m * v for v in row])
    return list(map(sum, zip_longest(*scaled, fillvalue=0))), den


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    p, q = _scalar(value)
    return Polynomial.from_integers([p], q)


class Polynomial:
    """A polynomial in one variable; coeffs[k] is the coefficient of x**k.

    `num` is the tuple of integer numerators and `den` the positive
    common denominator, reduced and without trailing zeros, so degree and
    monicity read off the tuple directly.  The zero polynomial
    has degree -1, num == () and den == 1.
    """

    __slots__ = ("num", "den", "_coeffs")

    def __init__(self, coeffs=()):
        self._set(*common_denominator([rat(c) for c in coeffs]))

    def _set(self, num, den):
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        else:
            g = gcd(den, *num)
            if g > 1:
                num = [v // g for v in num]
                den //= g
        self.num = tuple(num)
        self.den = den
        self._coeffs = None

    @classmethod
    def from_integers(cls, num, den):
        """The polynomial with coefficients num[k] / den, for integers num and den > 0."""
        if den <= 0:
            raise ValueError("the common denominator must be positive, got %d" % den)
        p = cls.__new__(cls)
        p._set(list(num), den)
        return p

    @property
    def coeffs(self):
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Rational(v, den) for v in self.num)
        return self._coeffs

    @property
    def degree(self):
        return len(self.num) - 1

    @property
    def is_zero(self):
        return not self.num

    def coefficient(self, k):
        """Coefficient of x**k (zero outside the stored range)."""
        if 0 <= k < len(self.num):
            return Rational(self.num[k], self.den)
        return ZERO

    def evaluate(self, c):
        """Exact value at a rational point c = p/q, by Horner's scheme on integers.

        sum_k num[k] p^k q^(d-k) is one integer; the value is it over den q^d.
        """
        p, q = _scalar(c)
        if not self.num:
            return ZERO
        acc, scale = 0, 1
        for v in reversed(self.num):
            acc = acc * p + v * scale
            scale *= q
        # scale is q^(d+1) after the loop
        return Rational(acc, self.den * (scale // q))

    __call__ = evaluate

    def derivative(self):
        return Polynomial.from_integers([k * v for k, v in enumerate(self.num)][1:], self.den)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            try:
                other = _coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        if len(self.num) <= 1:
            # a constant equals its scalar, so it hashes like it
            return hash(self.coefficient(0))
        return hash((self.num, self.den))

    def __neg__(self):
        return Polynomial.from_integers([-v for v in self.num], self.den)

    def __add__(self, other):
        return Polynomial.from_integers(*_combine([(1, self), (1, _coerce(other))]))

    __radd__ = __add__

    def __sub__(self, other):
        return Polynomial.from_integers(*_combine([(1, self), (-1, _coerce(other))]))

    def __rsub__(self, other):
        return Polynomial.from_integers(*_combine([(1, _coerce(other)), (-1, self)]))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial.from_integers(_convolve(self.num, other.num), self.den * other.den)
        p, q = _scalar(other)
        return Polynomial.from_integers([p * v for v in self.num], self.den * q)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = ONE_POLY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        parts = []
        for k in range(self.degree, -1, -1):
            a = self.coefficient(k)
            if a == 0:
                continue
            if k == 0:
                term = str(a if a > 0 else -a)
            else:
                mag = a if a > 0 else -a
                head = "" if mag == 1 else str(mag) + "*"
                term = head + ("x" if k == 1 else "x^%d" % k)
            if not parts:
                parts.append(("-" if a < 0 else "") + term)
            else:
                parts.append(("- " if a < 0 else "+ ") + term)
        return "Polynomial(%s)" % " ".join(parts)


ZERO_POLY = Polynomial()
ONE_POLY = Polynomial((1,))
X = Polynomial((0, 1))


def _taylor(p, cp, cq, k):
    """Integer Taylor coefficients of p at c = cp/cq, through order k.

    With D = max(deg p, k), r(x) = den cq^D p(x / cq) has the integer
    coefficients num[i] cq^(D-i), and its Taylor coefficients at the
    integer cp are R_j = den cq^(D-j) p^(j)(c) / j!.  Each comes from one
    synthetic-division pass by (x - cp).  Returns (R_0..R_k, D).
    """
    d = max(p.degree, k)
    rem = [v * cq ** (d - i) for i, v in enumerate(p.num)]
    taylor = []
    for _ in range(k + 1):
        if not rem:
            taylor.append(0)
            continue
        # one synthetic-division pass; rem[0] becomes the remainder
        carry = 0
        for i in range(len(rem) - 1, -1, -1):
            carry = rem[i] + carry * cp
            rem[i] = carry
        taylor.append(rem.pop(0))
    return taylor, d


def wronskian(p, q, c):
    """W(p, q)(c) = p(c) q'(c) - p'(c) q(c), from one `_taylor` pass each.

    At c = cp/cq a pass gives p(c) = v / d and p'(c) = cq s / d with
    d = den cq^D, so W is cq (v_p s_q - s_p v_q) / (d_p d_q).
    """
    cp, cq = _scalar(c)
    (vp, sp), dp = _taylor(p, cp, cq, 1)
    (vq, sq), dq = _taylor(q, cp, cq, 1)
    return Rational(cq * (vp * sq - sp * vq), p.den * q.den * cq ** (dp + dq))
