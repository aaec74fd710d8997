"""Moment linear functionals stored as finite exact moment sequences.

A functional of order N carries the moments (u_0, ..., u_{N-1}), i.e. its
values on 1, x, ..., x^{N-1}.  Every operation states how the order moves:
products with a polynomial lose its degree, division by a power of (x - c)
gains that power, everything else preserves or intersects orders.

The moments are held as integer numerators over one denominator, and the
algebra below runs on those integers, reducing once per result.
"""

from math import gcd, lcm
from operator import mul

from .errors import DegenerateParameter, TruncationExhausted, ZeroFirstMoment
from .poly import Polynomial
from .rational import Rational, common_denominator, rat


class MomentFunctional:
    """The moments (u_0, ..., u_{N-1}) of a functional, with an optional label.

    The moments are stored as integer numerators over one denominator:
    u_k = num[k] / den, with den > 0 and gcd(den, *num) = 1, so equal
    functionals have equal (num, den), and equality and hashing read that
    pair.  The kernels work on `num` and `den` directly; `moments`, the
    tuple of rationals, is built only when read.

    `_recurrence` is `smop_from_moments`'s memo: the recurrence and norms
    of the deepest Chebyshev run that succeeded on these moments, or None.
    Shallower depths are its truncations, so a functional runs the
    algorithm again only when asked for a deeper recurrence than it holds.
    Equality, hashing and repr ignore it.
    """

    __slots__ = ("num", "den", "label", "_moments", "_recurrence")

    def __init__(self, moments, label=None):
        ms = tuple(rat(m) for m in moments)
        if not ms:
            raise ValueError("a moment functional needs at least one moment")
        # the least common denominator of reduced rationals leaves
        # numerators with no common factor with it
        num, self.den = common_denominator(ms)
        self.num = tuple(num)
        self.label = label
        self._moments = ms
        self._recurrence = None

    @classmethod
    def from_integers(cls, num, den, label=None):
        """The functional with moments num[k] / den, for integers num and den > 0."""
        if not num:
            raise ValueError("a moment functional needs at least one moment")
        if den <= 0:
            raise ValueError("the common denominator must be positive, got %d" % den)
        g = gcd(den, *num)
        if g > 1:
            return cls._reduced(tuple(v // g for v in num), den // g, label)
        return cls._reduced(tuple(num), den, label)

    @classmethod
    def _reduced(cls, num, den, label):
        """The functional of a numerator tuple and denominator already reduced."""
        u = cls.__new__(cls)
        u.num = num
        u.den = den
        u.label = label
        u._moments = None
        u._recurrence = None
        return u

    @property
    def moments(self):
        if self._moments is None:
            den = self.den
            self._moments = tuple(Rational(v, den) for v in self.num)
        return self._moments

    @property
    def order(self):
        return len(self.num)

    def moment(self, k):
        if 0 <= k < len(self.num):
            return Rational(self.num[k], self.den)
        raise TruncationExhausted(
            "moment %d requested but only %d are stored" % (k, len(self.num))
        )

    def truncated(self, order):
        if order < 1:
            raise ValueError("order must be at least 1")
        if order > len(self.num):
            raise TruncationExhausted(
                "cannot extend order %d to %d" % (len(self.num), order)
            )
        return MomentFunctional.from_integers(self.num[:order], self.den, label=self.label)

    def normalized(self):
        """Scale so the first moment is 1: u_k / u_0 = num[k] / num[0]."""
        first = self.num[0]
        if first == 0:
            raise ZeroFirstMoment("cannot normalize: u_0 = 0")
        if first < 0:
            return MomentFunctional.from_integers([-v for v in self.num], -first, self.label)
        return MomentFunctional.from_integers(self.num, first, self.label)

    def relabeled(self, label):
        u = MomentFunctional._reduced(self.num, self.den, label)
        u._moments = self._moments
        return u

    def __eq__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        head = ", ".join(str(Rational(v, self.den)) for v in self.num[:4])
        if len(self.num) > 4:
            head += ", ..."
        name = " %r" % self.label if self.label else ""
        return "MomentFunctional(%s order=%d: %s)" % (name, len(self.num), head)


def delta(c, order):
    """Point evaluation at c = p/q: moments c^k = p^k q^(N-1-k) / q^(N-1)."""
    c = rat(c)
    p, q = c.numerator, c.denominator
    out = [1]
    for _ in range(order - 1):
        out.append(out[-1] * p)
    scale = 1
    for k in range(len(out) - 1, -1, -1):
        out[k] *= scale
        scale *= q
    return MomentFunctional.from_integers(out, scale // q)


def derivative(u):
    """Distributional derivative: (u')_n = -n * u_{n-1}; the order carries over."""
    if u.order < 2:
        raise TruncationExhausted("need order >= 2 to differentiate a functional")
    return MomentFunctional.from_integers(
        [0] + [-n * v for n, v in enumerate(u.num[:-1], 1)], u.den
    )


def add(u, v):
    den = lcm(u.den, v.den)
    su, sv = den // u.den, den // v.den
    return MomentFunctional.from_integers(
        [a * su + b * sv for a, b in zip(u.num, v.num)], den
    )


def sub(u, v):
    return add(u, scale(-1, v))


def scale(c, u):
    c = rat(c)
    p = c.numerator
    return MomentFunctional.from_integers([p * v for v in u.num], u.den * c.denominator)


def convolve(u, v):
    """Cauchy product of the moment sequences; order is the min of the inputs'."""
    un, vn = u.num, v.num
    order = min(len(un), len(vn))
    return MomentFunctional.from_integers(
        [sum(map(mul, un[: n + 1], vn[n::-1])) for n in range(order)], u.den * v.den
    )


def invert(u):
    """Convolution inverse: u * invert(u) has moments (1, 0, 0, ...).

    Runs on integers: u_n = N_n / D over u's common denominator, and the
    inverse moments found so far are v_k = V_k / E over the least common
    one.  The next is v_n = -(sum_{k<n} N_{n-k} V_k) / (N_0 E), reduced
    by one gcd; V is brought over the lcm of E and its denominator, so
    the integers stay the size of the reduced moments.
    """
    nums, den = u.num, u.den
    p0 = nums[0]
    if p0 == 0:
        raise ZeroFirstMoment("u_0 = 0 has no convolution inverse")
    # 1/u_0 = den / p0 = sign den / |p0|; denominators stay positive
    sign = 1 if p0 > 0 else -1
    p0 = abs(p0)
    g = gcd(den, p0)
    vs, e = [sign * den // g], p0 // g
    for n in range(1, len(nums)):
        num = -sign * sum(map(mul, nums[n:0:-1], vs))
        d = e * p0
        g = gcd(num, d)
        num, d = num // g, d // g
        scale = d // gcd(e, d)
        if scale > 1:
            vs = [v * scale for v in vs]
            e *= scale
        vs.append(num * (e // d))
    return MomentFunctional.from_integers(vs, e)


def apply(u, p):
    """Value of the functional on a polynomial."""
    if p.degree >= u.order:
        raise TruncationExhausted(
            "degree %d exceeds stored moments (order %d)" % (p.degree, u.order)
        )
    return Rational(sum(map(mul, p.num, u.num)), p.den * u.den)


def multiply_poly(u, p):
    """Left multiplication by a polynomial: (p u)_n = <u, p x^n>.

    The order drops by deg p, since the top moments are consumed.  Each
    moment is a dot product of p's integer numerators with the moments'
    numerators, all over one common denominator.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial((rat(p),)) if not isinstance(p, (list, tuple)) else Polynomial(p)
    if p.is_zero:
        raise DegenerateParameter("multiplying a functional by the zero polynomial")
    order = u.order - p.degree
    if order < 1:
        raise TruncationExhausted(
            "order %d cannot absorb a degree-%d factor" % (u.order, p.degree)
        )
    nums, coeffs = u.num, p.num
    return MomentFunctional.from_integers(
        [sum(map(mul, coeffs, nums[n:])) for n in range(order)], u.den * p.den
    )


def divide_power(u, c, m):
    """The m-th order division by (x - c) that adds no mass at c.

    Moment n of the result is <u, q_n> with q_n the exact polynomial
    quotient of x^n by (x - c)^m; the first m moments vanish and the
    order grows by m.  Since x^n // (x - c) = sum_{k<n} c^{n-1-k} x^k,
    one division is Maroni's step w_0 = 0, w_{n+1} = c w_n + u_n, i.e.
    <(x - c)^{-1} u, p> = <u, (p - p(c))/(x - c)> (P. Maroni, Une théorie
    algébrique des polynômes orthogonaux, 1991).  Because
    (p // (x - c)) // (x - c) = p // (x - c)^2, division by (x - c)^m is
    that step applied m times, in O(order * m).  Adding multiples of
    evaluations/derivatives at c is the caller's business (see geronimus /
    quadratic_geronimus).

    On integers, with c = p/q and u_n = N_n / D: W_1 = N_0 and
    W_{n+1} = p W_n + q^n N_n give w_n = W_n / (D q^(n-1)), which go over
    the one denominator D q^(N-1) of the N + 1 results.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    c = rat(c)
    p, q = c.numerator, c.denominator
    for _ in range(m):
        nums = u.num
        # q^0 .. q^(N-1)
        powers = [1]
        for _ in range(len(nums) - 1):
            powers.append(powers[-1] * q)
        w, acc = [0], 0
        for n, v in enumerate(nums):
            acc = p * acc + powers[n] * v
            w.append(acc * powers[-1 - n])
        u = MomentFunctional.from_integers(w, u.den * powers[-1])
    return u


def geronimus(u, c, m0):
    """A functional v with (x - c) v = u and v_0 = m0; order grows by one."""
    c = rat(c)
    m0 = rat(m0)
    base = divide_power(u, c, 1)
    return add(base, scale(m0, delta(c, base.order)))


def quadratic_geronimus(u, c, m0, m1):
    """A functional v with (x - c)^2 v = u, v_0 = m0, v_1 = m1; order grows by two."""
    c = rat(c)
    m0 = rat(m0)
    m1 = rat(m1)
    base = divide_power(u, c, 2)
    mass = scale(m0, delta(c, base.order))
    tilt = scale(c * m0 - m1, derivative(delta(c, base.order)))
    return add(add(base, mass), tilt)
