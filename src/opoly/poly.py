"""Dense univariate polynomials over exact rationals."""

from .rational import ZERO, ONE, rat


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    return Polynomial((rat(value),))


class Polynomial:
    """A polynomial in one variable; coeffs[k] is the coefficient of x**k.

    Trailing zero coefficients are never stored, so degree and leading
    coefficient read off the tuple directly.  The zero polynomial has
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else ZERO

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k):
        """Coefficient of x**k (zero outside the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def evaluate(self, c):
        """Exact value at a rational point, by Horner's scheme."""
        c = rat(c)
        acc = ZERO
        for a in reversed(self.coeffs):
            acc = acc * c + a
        return acc

    __call__ = evaluate

    def derivative(self):
        return Polynomial(tuple(k * a for k, a in enumerate(self.coeffs) if k))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        try:
            other = _coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Polynomial(tuple(-a for a in self.coeffs))

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = rat(other)
            return Polynomial(tuple(c * a for a in self.coeffs))
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

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

    def __divmod__(self, other):
        """Exact rational polynomial division: self = q*other + r, deg r < deg other."""
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dq = len(rem) - len(dv)
        if dq < 0:
            return Polynomial(), self
        quot = [ZERO] * (dq + 1)
        inv_lead = 1 / dv[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(dv) - 1] * inv_lead
            quot[k] = c
            if c != 0:
                for j, b in enumerate(dv):
                    rem[k + j] -= c * b
        return Polynomial(quot), Polynomial(rem[: len(dv) - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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


def monomial(k, c=1):
    return Polynomial((ZERO,) * k + (rat(c),))


def linear_power(c, m):
    """(x - c)**m."""
    return Polynomial((-rat(c), ONE)) ** m


def derivatives_at(p, c, k):
    """(p(c), p'(c), ..., p^(k)(c)) by repeated synthetic division at c.

    Dividing repeatedly by (x - c) yields the Taylor coefficients at c;
    multiplying by factorials recovers the derivatives exactly.
    """
    c = rat(c)
    rem = list(p.coeffs)
    taylor = []
    for _ in range(k + 1):
        if not rem:
            taylor.append(ZERO)
            continue
        # one synthetic-division pass by (x - c); rem[0] becomes the remainder
        carry = ZERO
        for i in range(len(rem) - 1, -1, -1):
            carry = rem[i] + carry * c
            rem[i] = carry
        taylor.append(rem.pop(0))
    out = []
    fact = 1
    for i, t in enumerate(taylor):
        if i:
            fact *= i
        out.append(t * fact)
    return tuple(out)


def wronskian(p, q, c):
    """W(p, q)(c) = p(c) q'(c) - p'(c) q(c)."""
    c = rat(c)
    pc, dpc = derivatives_at(p, c, 1)
    qc, dqc = derivatives_at(q, c, 1)
    return pc * dqc - dpc * qc
