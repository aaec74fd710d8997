"""Moment linear functionals stored as finite exact moment sequences.

A functional of order N carries the moments (u_0, ..., u_{N-1}), i.e. its
values on 1, x, ..., x^{N-1}.  Every operation states how the order moves:
products with a polynomial lose its degree, division by a power of (x - c)
gains that power, everything else preserves or intersects orders.
"""

from math import gcd

from .errors import DegenerateParameter, TruncationExhausted, ZeroFirstMoment
from .poly import Polynomial
from .rational import ZERO, ONE, Rational, common_denominator, rat


class MomentFunctional:
    """The moments (u_0, ..., u_{N-1}) of a functional, with an optional label.

    `_recurrence` is `smop_from_moments`'s memo: the recurrence and norms
    of the deepest Chebyshev run that succeeded on these moments, or None.
    Shallower depths are its truncations, so a functional runs the
    algorithm again only when asked for a deeper recurrence than it holds.
    Equality, hashing and repr read the moments alone.
    """

    __slots__ = ("moments", "label", "_recurrence")

    def __init__(self, moments, label=None):
        ms = tuple(rat(m) for m in moments)
        if not ms:
            raise ValueError("a moment functional needs at least one moment")
        self.moments = ms
        self.label = label
        self._recurrence = None

    @property
    def order(self):
        return len(self.moments)

    def moment(self, k):
        if 0 <= k < len(self.moments):
            return self.moments[k]
        raise TruncationExhausted(
            "moment %d requested but only %d are stored" % (k, len(self.moments))
        )

    def truncated(self, order):
        if order < 1:
            raise ValueError("order must be at least 1")
        if order > len(self.moments):
            raise TruncationExhausted(
                "cannot extend order %d to %d" % (len(self.moments), order)
            )
        return MomentFunctional(self.moments[:order], label=self.label)

    def normalized(self):
        """Scale so the first moment is 1."""
        u0 = self.moments[0]
        if u0 == 0:
            raise ZeroFirstMoment("cannot normalize: u_0 = 0")
        return MomentFunctional(tuple(m / u0 for m in self.moments), label=self.label)

    def relabeled(self, label):
        return MomentFunctional(self.moments, label=label)

    def __eq__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return self.moments == other.moments

    def __hash__(self):
        return hash(self.moments)

    def __repr__(self):
        head = ", ".join(str(m) for m in self.moments[:4])
        if len(self.moments) > 4:
            head += ", ..."
        name = " %r" % self.label if self.label else ""
        return "MomentFunctional(%s order=%d: %s)" % (name, len(self.moments), head)


def functional(moments, label=None):
    if isinstance(moments, MomentFunctional):
        return moments
    return MomentFunctional(moments, label=label)


def delta(c, order):
    """Point evaluation at c: moments c^k."""
    c = rat(c)
    out = [ONE]
    for _ in range(order - 1):
        out.append(out[-1] * c)
    return MomentFunctional(out)


def derivative(u):
    """Distributional derivative: (u')_n = -n * u_{n-1}; the order carries over."""
    if u.order < 2:
        raise TruncationExhausted("need order >= 2 to differentiate a functional")
    out = [ZERO]
    for n in range(1, u.order):
        out.append(-n * u.moments[n - 1])
    return MomentFunctional(out)


def add(u, v):
    order = min(u.order, v.order)
    return MomentFunctional(
        tuple(u.moments[k] + v.moments[k] for k in range(order))
    )


def sub(u, v):
    return add(u, scale(-1, v))


def scale(c, u):
    c = rat(c)
    return MomentFunctional(tuple(c * m for m in u.moments))


def convolve(u, v):
    """Cauchy product of the moment sequences; order is the min of the inputs'."""
    order = min(u.order, v.order)
    out = []
    for n in range(order):
        out.append(sum((u.moments[k] * v.moments[n - k] for k in range(n + 1)), ZERO))
    return MomentFunctional(out)


def invert(u):
    """Convolution inverse: u * invert(u) has moments (1, 0, 0, ...).

    Runs on integers: u_n = N_n / D over one common denominator, and the
    inverse moments found so far are v_k = V_k / E over the least common
    one.  The next is v_n = -(sum_{k<n} N_{n-k} V_k) / (D E u_0), reduced
    by one gcd; V is brought over the lcm of E and its denominator, so
    the integers stay the size of the reduced moments.
    """
    nums, den = common_denominator(u.moments)
    p0, q0 = u.moments[0].numerator, u.moments[0].denominator
    if p0 == 0:
        raise ZeroFirstMoment("u_0 = 0 has no convolution inverse")
    # 1/u_0 = sign q0 / |p0|; denominators stay positive
    sign = 1 if p0 > 0 else -1
    vs, e = [sign * q0], abs(p0)
    for n in range(1, u.order):
        num = -sign * q0 * sum(nums[n - k] * vs[k] for k in range(n))
        d = den * e * abs(p0)
        g = gcd(num, d)
        num, d = num // g, d // g
        scale = d // gcd(e, d)
        if scale > 1:
            vs = [v * scale for v in vs]
            e *= scale
        vs.append(num * (e // d))
    return MomentFunctional(Rational(v, e) for v in vs)


def apply(u, p):
    """Value of the functional on a polynomial."""
    if p.degree >= u.order:
        raise TruncationExhausted(
            "degree %d exceeds stored moments (order %d)" % (p.degree, u.order)
        )
    return sum((c * u.moments[k] for k, c in enumerate(p.coeffs)), ZERO)


def multiply_poly(u, p):
    """Left multiplication by a polynomial: (p u)_n = <u, p x^n>.

    The order drops by deg p, since the top moments are consumed.  Each
    moment is a dot product of p's integer numerators with the moments'
    numerators over one common denominator, and one rational.
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
    nums, den = common_denominator(u.moments)
    den *= p.den
    coeffs = p.num
    return MomentFunctional(
        Rational(sum(c * v for c, v in zip(coeffs, nums[n:])), den) for n in range(order)
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
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    c = rat(c)
    moments = u.moments
    for _ in range(m):
        w = [ZERO]
        for un in moments:
            w.append(c * w[-1] + un)
        moments = w
    return MomentFunctional(moments)


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


def equal_functionals(u, v, order=None):
    """On-the-nose equality of the common (or requested) moment prefix."""
    n = min(u.order, v.order)
    if order is not None:
        if order > n:
            raise TruncationExhausted(
                "cannot compare %d moments; only %d are shared" % (order, n)
            )
        n = order
    return u.moments[:n] == v.moments[:n]


def equal_normalized(u, v, order=None):
    """Equality after scaling both first moments to 1."""
    return equal_functionals(u.normalized(), v.normalized(), order=order)


def first_moment_mismatch(u, v):
    """Index of the first differing shared moment, or None."""
    for k in range(min(u.order, v.order)):
        if u.moments[k] != v.moments[k]:
            return k
    return None
