"""Shared helpers for the test suite: committed fixtures, family builders,
the Gram-Schmidt reference for moments to recurrence, and the rational
(one Fraction per entry) code that the integer kernels replaced, kept as
references for the property tests: the Chebyshev and inverse loops, the
polynomial with one Fraction per coefficient, the recurrence run on it,
division by (x - c)^m through long division, the matrix product with
one Fraction per multiply-add, and the values, slopes and quadratic
kernel with one Fraction per operation, the LU and UL eliminations
that the values at c replaced; the identity matrix and its powers,
which no library check forms; the block and connection comparisons on
whole products, one Fraction per multiply-add, compared entry by entry;
and the certificate kernels
that read one entry or one coefficient at a time: the shift, power and
block comparison of the matrices, the series product, the product of a
functional by a polynomial and the divided difference; forward
substitution, which forms the quotient G = L^{-1} J^- that "g-matrix"
no longer builds; the monomial route of propLUinversa's and conex2's
polynomial identities, degree by degree on built P's and Q's, of
repChris's kernel representation on built P's and Ptilde's, and of
the degree-one interplay checks (pro5, the christoffel+assoc
connection, S-corecursive, gero1 and gero2) on built R's, S's and
associated and co-recursive polynomials, that their recurrence and
band forms replaced; a band matrix built from an entry function
(`band_from_entries`), which only the tests need; and two statements
that follow from registered identities, asserted directly: the
co-recursive subtraction formula and the cleared continued fraction;
`is_monic` and `derivatives_at`, oracles that no library code calls;
and `run_cli`, one in-process `opoly` call."""

import contextlib
import io
import json
import sys
from pathlib import Path

from opoly import functional as fa
from opoly.associated import Division, associated_polys, corecursive_functional
from opoly.cli import main
from opoly.errors import (
    DegenerateParameter,
    NotQuasiDefinite,
    TruncationExhausted,
    ZeroFirstMoment,
    ZeroPivot,
)
from opoly.functional import MomentFunctional
from opoly.matrices import (
    BandMatrix,
    UnitLowerBidiagonal,
    UpperBidiagonal,
    mat_multiply,
)
from opoly.orthopoly import (
    RecurrenceCoefficients,
    first_moment_off,
    jacobi_matrix,
    moments_from_jacobi,
    polys_from_recurrence,
    smop_from_moments,
)
from opoly.poly import ONE_POLY, Polynomial, X, _combine, _scalar, _taylor, wronskian
from opoly.serialize import functional_from_json, parse_rational_list
from opoly.rational import ONE, ZERO, Rational, parse_rational, rat
from opoly.reports import CheckReport, combine
from opoly.series import (
    LaurentSeries,
    first_series_mismatch,
    from_polynomial,
    monomial_series,
    series_multiply,
    series_scale,
    series_sub,
)
from opoly.stieltjes import stieltjes_series

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def run_cli(argv, stdin_text=""):
    """(exit status, stdout, stderr) of one in-process `opoly` call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse rejects bad arguments with SystemExit(2)
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def fixture_json(name):
    return json.loads((FIXTURE_DIR / name).read_text())


def fixture_functional(name):
    return functional_from_json(fixture_json(name))


def fixture_table(family_key, table_key):
    """One frozen rational table from inverse_tables.json, parsed."""
    return parse_rational_list(fixture_json("inverse_tables.json")[family_key][table_key])


def random_functional():
    """The committed non-classical quasi-definite functional and its (c, m0)."""
    obj = fixture_json("random_order20.json")
    u = functional_from_json(obj)
    c = parse_rational(obj["params"]["c"])
    m0 = parse_rational(obj["params"]["m0"])
    return u, c, m0


def random_source_recurrence():
    """The recurrence that generated the random fixture's moments."""
    obj = fixture_json("random_order20.json")
    return parse_rational_list(obj["source_b"]), parse_rational_list(obj["source_a"])


def gram_schmidt(u, n_max):
    """Reference route: Gram-Schmidt on 1, x, x^2, ... in O(n_max^3).

    Norms are <u, P_k^2> and b_k = <u, x P_k^2> / K_k, formed from
    polynomial products, so it shares no step with the mixed moments.
    Returns (recurrence, P_0..P_{n_max}, K_0..K_{n_max - 1}).
    """
    polys = [ONE_POLY]
    norms = []
    bs = []
    a_s = []
    for k in range(n_max):
        pk = polys[k]
        norm = fa.apply(u, pk * pk)
        if norm == 0:
            raise NotQuasiDefinite(k, guard="norm")
        b = fa.apply(u, X * pk * pk) / norm
        nxt = (X - b) * pk
        if k >= 1:
            a = norm / norms[k - 1]
            a_s.append(a)
            nxt = nxt - a * polys[k - 1]
        norms.append(norm)
        bs.append(b)
        polys.append(nxt)
    return RecurrenceCoefficients(bs, a_s), tuple(polys), tuple(norms)


def chebyshev_reference(u, n_max):
    """The Chebyshev algorithm with one rational per mixed moment.

    s_{k,l} = s_{k-1,l+1} - b_{k-1} s_{k-1,l} - a_{k-1} s_{k-2,l}; returns
    (b's, a's, norms) as lists and raises at the first vanishing norm.
    """
    width = 2 * n_max
    below = [ZERO] * width
    sigma = list(u.moments[:width])
    norms, bs, a_s = [], [], []
    for k in range(n_max):
        if k >= 1:
            b = bs[k - 1]
            a = a_s[k - 2] if k >= 2 else ZERO
            below, sigma = sigma, [ZERO] * k + [
                sigma[l + 1] - b * sigma[l] - a * below[l] for l in range(k, width - k)
            ]
        norm_k = sigma[k]
        if norm_k == 0:
            raise NotQuasiDefinite(k, guard="norm")
        b_k = sigma[k + 1] / norm_k
        if k >= 1:
            b_k -= below[k] / norms[k - 1]
            a_s.append(norm_k / norms[k - 1])
        norms.append(norm_k)
        bs.append(b_k)
    return bs, a_s, norms


def invert_reference(u):
    """Convolution inverse, one rational per term: v_n = -(1/u_0) sum_{k<n} u_{n-k} v_k."""
    u0 = u.moments[0]
    if u0 == 0:
        raise ZeroFirstMoment("u_0 = 0 has no convolution inverse")
    out = [1 / u0]
    for n in range(1, u.order):
        acc = sum((u.moments[n - k] * out[k] for k in range(n)), ZERO)
        out.append(-acc / u0)
    return MomentFunctional(out)


def monomial(k, c=1):
    """c x^k."""
    return Polynomial((ZERO,) * k + (rat(c),))


def linear_power(c, m):
    """(x - c)**m."""
    return Polynomial((-rat(c), ONE)) ** m


class FractionPolynomial:
    """Reference polynomial: one Fraction per coefficient, coeffs[k] of x**k.

    Trailing zero coefficients are never stored; the zero polynomial has
    degree -1.  Every operation makes a rational per coefficient
    operation, the way opoly's Polynomial did before it moved to integer
    numerators over one denominator.
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

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def evaluate(self, c):
        c = rat(c)
        acc = ZERO
        for a in reversed(self.coeffs):
            acc = acc * c + a
        return acc

    def derivative(self):
        return FractionPolynomial(tuple(k * a for k, a in enumerate(self.coeffs) if k))

    def __eq__(self, other):
        return isinstance(other, FractionPolynomial) and self.coeffs == other.coeffs

    def __neg__(self):
        return FractionPolynomial(tuple(-a for a in self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPolynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPolynomial):
            c = rat(other)
            return FractionPolynomial(tuple(c * a for a in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return FractionPolynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def __pow__(self, n):
        result = FractionPolynomial((1,))
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other):
        """Long division: self = q*other + r with deg r < deg other."""
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.coeffs
        dq = len(rem) - len(dv)
        if dq < 0:
            return FractionPolynomial(), self
        quot = [ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(dv) - 1] / dv[-1]
            quot[k] = c
            for j, b in enumerate(dv):
                rem[k + j] -= c * b
        return FractionPolynomial(quot), FractionPolynomial(rem[: len(dv) - 1])


def is_monic(p):
    """Whether p is nonzero with leading coefficient 1."""
    return bool(p.num) and p.num[-1] == p.den


def derivatives_at(p, c, k):
    """(p(c), p'(c), ..., p^(k)(c)) by repeated synthetic division at c.

    Dividing repeatedly by (x - c) yields the Taylor coefficients at c;
    multiplying by factorials recovers the derivatives exactly.  The
    passes run on integers (`poly._taylor`), with one rational per value.
    """
    cp, cq = _scalar(c)
    taylor, d = _taylor(p, cp, cq, k)
    out = []
    fact = 1
    for j, t in enumerate(taylor):
        if j:
            fact *= j
        out.append(Rational(t * fact, p.den * cq ** (d - j)))
    return tuple(out)


def fraction_derivatives_at(p, c, k):
    """(p(c), ..., p^(k)(c)) of a FractionPolynomial, by repeated synthetic division."""
    c = rat(c)
    rem = list(p.coeffs)
    out = []
    fact = 1
    for i in range(k + 1):
        if i:
            fact *= i
        if not rem:
            out.append(ZERO)
            continue
        carry = ZERO
        for j in range(len(rem) - 1, -1, -1):
            carry = rem[j] + carry * c
            rem[j] = carry
        out.append(rem.pop(0) * fact)
    return tuple(out)


def fraction_wronskian(p, q, c):
    """p(c) q'(c) - p'(c) q(c) of two FractionPolynomials."""
    pc, dpc = fraction_derivatives_at(p, c, 1)
    qc, dqc = fraction_derivatives_at(q, c, 1)
    return pc * dqc - dpc * qc


def corecursive_polys(rc, alpha, n_max):
    """The SMOP of rc with b_0 perturbed by alpha, built."""
    return polys_from_recurrence(rc.corecursive(alpha), n_max)


def corecursive_by_subtraction(rc, alpha, n_max):
    """P_n - alpha P^(1)_{n-1} for n = 0..n_max: the co-recursive SMOP by
    the subtraction formula, the route its perturbed recurrence must match."""
    alpha = rat(alpha)
    base = polys_from_recurrence(rc, n_max)
    first = associated_polys(rc, 1, n_max - 1)
    return (base[0],) + tuple(base[n] - alpha * first[n - 1] for n in range(1, n_max + 1))


def first_moment_mismatch_reference(u, v):
    """Index of the first differing shared moment of u and v, or None: the
    moment-by-moment comparison that the checks' recurrence comparison
    (`orthopoly.first_moment_off`) replaced."""
    for k, (x, y) in enumerate(zip(u.moments, v.moments)):
        if x != y:
            return k
    return None


def continued_fraction_mismatch(u, norm1=ONE):
    """The first power at which the cleared one-step continued fraction
    (z - b_0) S_u - (a_1/norm1) S_{u^(1)} S_u = u_0 fails, None if it holds
    on the window; S_{u^(1)} comes from the moments of u's shifted
    recurrence, scaled to first moment norm1."""
    rc, _ = smop_from_moments(u, u.order // 2)
    shifted = rc.shifted(1)
    first = moments_from_jacobi(
        jacobi_matrix(shifted, shifted.length), norm1, 2 * shifted.length - 1
    )
    s_u = stieltjes_series(u)
    lhs = series_sub(
        series_multiply(from_polynomial(X - rc.b_at(0)), s_u),
        series_scale(rc.a_at(1) / norm1, series_multiply(stieltjes_series(first), s_u)),
    )
    return first_series_mismatch(lhs, monomial_series(0, u.moment(0)))


def polys_reference(rc, n_max):
    """P_0..P_{n_max} as FractionPolynomials, one rational per coefficient operation."""
    rows = [[ONE]]
    for k in range(n_max):
        nxt = [ZERO] + rows[k]
        for i, c in enumerate(rows[k]):
            nxt[i] -= rc.b[k] * c
        if k >= 1:
            for i, c in enumerate(rows[k - 1]):
                nxt[i] -= rc.a[k - 1] * c
        rows.append(nxt)
    return tuple(FractionPolynomial(row) for row in rows)


def connection_off_reference(p, square, q, diag, super1):
    """Whether square * p differs from q[2] + super1 q[1] + diag q[0], as
    one integer combination of the built polynomials."""
    terms = [(-1, p, square), (1, q[2]), (super1, q[1]), (diag, q[0])]
    return any(_combine(terms)[0])


def triband_failure_reference(base, q_polys, lower, upper, c):
    """Where Q = L P or (x - c)^2 P = U Q first fails degree by degree on
    built polynomials P_0..P_{size-1} and Q_0..Q_size, or None: the
    monomial route that propLUinversa's band identities replaced."""
    for n in range(lower.size):
        terms = [(-1, q_polys[n]), (1, base[n])]
        if n >= 1:
            terms.append((lower.sub1[n - 1], base[n - 1]))
        if n >= 2:
            terms.append((lower.sub2[n - 2], base[n - 2]))
        if any(_combine(terms)[0]):
            return {"part": "Q = L P", "level": n}
    square = (X - c) ** 2
    for n in range(upper.size - 1):
        q = q_polys[n : n + 3]
        if connection_off_reference(base[n], square, q, upper.diag[n], upper.super1[n]):
            return {"part": "(x - c)^2 P = U Q", "level": n}
    return None


def wronskian_betas_reference(q_polys, c, n_max):
    """conex2's (beta_{n,n}, beta_{n,n+1}) for n = 0..n_max from the
    Wronskians at c of built Q's, up to the first level whose
    W(Q_n, Q_{n+1})(c) vanishes."""
    betas = []
    for n in range(n_max + 1):
        w = wronskian(q_polys[n], q_polys[n + 1], c)
        if w == 0:
            break
        betas.append(
            (
                wronskian(q_polys[n + 1], q_polys[n + 2], c) / w,
                wronskian(q_polys[n + 2], q_polys[n], c) / w,
            )
        )
    return betas


def conex2_failure_reference(base, q_polys, betas, c, n_max):
    """conex2's first failure on built polynomials: level n fails where
    (x - c)^2 P_n leaves Q_{n+2} + beta_{n,n+1} Q_{n+1} + beta_{n,n} Q_n,
    and the first level without betas is a vanishing Wronskian."""
    square = (X - c) ** 2
    for n in range(n_max + 1):
        if n == len(betas):
            return {"level": n, "reason": "W(Q_{n+1}, Q_n)(c) = 0"}
        diag, super1 = betas[n]
        if connection_off_reference(base[n], square, q_polys[n : n + 3], diag, super1):
            return {"level": n}
    return None


def divide_power_reference(u, c, m):
    """Moment n is <u, x^n // (x - c)^m>, the quotient found by long division."""
    lp = FractionPolynomial((-rat(c), ONE)) ** m
    out = []
    for n in range(u.order + m):
        q = divmod(FractionPolynomial((ZERO,) * n + (ONE,)), lp)[0]
        out.append(sum((a * u.moments[k] for k, a in enumerate(q.coeffs)), ZERO))
    return MomentFunctional(out)


def identity(size):
    return BandMatrix(size, {0: (ONE,) * size})


def mat_power(a, k):
    """a**k as k - 1 products starting from a; a**0 is the identity."""
    if k < 0:
        raise ValueError("only nonnegative matrix powers are supported")
    if k == 0:
        return identity(a.size)
    result = a
    for _ in range(k - 1):
        result = mat_multiply(result, a)
    return result


def band_from_entries(size, lowest, highest, fn):
    """A BandMatrix from an entry function supported on offsets [lowest, highest]."""
    lowest = max(lowest, -(size - 1))
    highest = min(highest, size - 1)
    diagonals = {}
    for d in range(lowest, highest + 1):
        n = size - abs(d)
        if d >= 0:
            diagonals[d] = tuple(fn(i, i + d) for i in range(n))
        else:
            diagonals[d] = tuple(fn(j - d, j) for j in range(n))
    return BandMatrix(size, diagonals)


def rows_of(m):
    """The rows of m as lists: plain rows as they are, a matrix entry by entry."""
    if isinstance(m, list):
        return m
    return [[m.entry(i, j) for j in range(m.size)] for i in range(m.size)]


def product_reference(a, b):
    """Rows of a b, one rational per multiply-add over every k: no band
    limits.  Either factor may be a matrix or plain rows."""
    a, b = rows_of(a), rows_of(b)
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]


def shifted_reference(a, c):
    """Rows of a - c I: each entry a_ij - c [i = j], one rational per entry."""
    n = a.size
    return [[a.entry(i, j) - (c if i == j else ZERO) for j in range(n)] for i in range(n)]


def power_reference(a, k):
    """Rows of a**k: k products by a, starting from the identity."""
    result = rows_of(identity(a.size))
    for _ in range(k):
        result = product_reference(result, a)
    return result


def _product_reference(side):
    """A side of a block comparison as one matrix: a pair (a, b) made the
    full product a b, one Rational per multiply-add (`product_reference`)."""
    if isinstance(side, BandMatrix):
        return side
    a, b = side
    if a.size != b.size:
        raise ValueError("size mismatch: %d vs %d" % (a.size, b.size))
    rows = product_reference(a, b)
    return band_from_entries(a.size, 1 - a.size, a.size - 1, lambda i, j: rows[i][j])


def product_block_mismatch_reference(a, b, k):
    """`matrices.first_block_mismatch` on sides that may be pairs of
    factors: both products formed whole, then compared entry by entry."""
    a, b = _product_reference(a), _product_reference(b)
    if k > min(a.size, b.size):
        raise ValueError("block size %d exceeds matrix sizes" % k)
    return first_block_mismatch_reference(a, b, k)


def connection_level_reference(j_a, m, j_b, rows):
    """`matrices.connection_level`: n + 1 for the first of the leading
    `rows` rows n where the whole products J_A M and M J_B differ, entry
    by entry, or None."""
    a, b = _product_reference((j_a, m)), _product_reference((m, j_b))
    for n in range(min(rows, a.size)):
        if any(a.entry(n, j) != b.entry(n, j) for j in range(a.size)):
            return n + 1
    return None


def first_block_mismatch_reference(a, b, k):
    """Smallest m <= k whose leading m x m blocks differ, entry by entry, or None."""
    for m in range(1, k + 1):
        edge = [(m - 1, j) for j in range(m)] + [(j, m - 1) for j in range(m)]
        if any(a.entry(i, j) != b.entry(i, j) for i, j in edge):
            return m
    return None


def solve_unit_lower_reference(lower_mat, rhs):
    """Rows of X with L X = B, forward substitution with one rational per term."""
    n = lower_mat.size
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = rhs.entry(i, j)
            for k in range(i):
                acc -= lower_mat.entry(i, k) * rows[k][j]
            rows[i][j] = acc
    return rows


def series_multiply_reference(s, t):
    """`series.series_multiply` reading one coefficient at a time, one rational
    per multiply-add."""
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
    out = []
    for m in range(hi, lo - 1, -1):
        acc = ZERO
        for p in range(s.min_power, s.max_power + 1):
            q = m - p
            if t.min_power <= q <= t.max_power:
                acc += s.coefficient(p) * t.coefficient(q)
        out.append(acc)
    return LaurentSeries(hi, out, exact=exact)


def multiply_poly_reference(u, p):
    """Moments of p u: (p u)_n = sum_k p_k u_{n+k}, one rational per term."""
    order = u.order - p.degree
    return MomentFunctional(
        sum((c * u.moments[n + k] for k, c in enumerate(p.coeffs)), ZERO) for n in range(order)
    )


def divided_difference_reference(u, p):
    """(1/u_0) <u_y, (p(x) - p(y))/(x - y)> coefficient by coefficient, one
    rational per term."""
    coeffs = []
    for i in range(max(p.degree, 0)):
        acc = ZERO
        for j in range(i + 1, p.degree + 1):
            acc += p.coefficient(j) * u.moments[j - 1 - i]
        coeffs.append(acc / u.moments[0])
    return Polynomial(coeffs)


def values_and_slopes_reference(rc, c, n):
    """P_m(c) and P_m'(c) for m = 0..n as two lists, one rational per operation."""
    if n > rc.length:
        raise TruncationExhausted("recurrence too short")
    c = rat(c)
    p = [ONE]
    dp = [ZERO]
    for m in range(n):
        shift = c - rc.b[m]
        value = shift * p[m]
        slope = p[m] + shift * dp[m]
        if m >= 1:
            value -= rc.a[m - 1] * p[m - 1]
            slope -= rc.a[m - 1] * dp[m - 1]
        p.append(value)
        dp.append(slope)
    return p, dp


def christoffel_lu_reference(rc, c):
    """`darboux.christoffel_lu` as the forward elimination it replaced: beta_0 =
    b_0 - c, ell_k = a_k/beta_{k-1}, beta_k = b_k - c - ell_k, one rational
    per operation, ZeroPivot(k) at the first beta_k = 0."""
    c = rat(c)
    b, a, n = rc.b, rc.a, rc.length
    betas = [b[0] - c]
    ells = []
    if betas[0] == 0:
        raise ZeroPivot(0)
    for k in range(1, n):
        ell = a[k - 1] / betas[k - 1]
        ells.append(ell)
        beta = b[k] - c - ell
        betas.append(beta)
        if beta == 0:
            raise ZeroPivot(k)
    new_b = tuple(betas[k] + ells[k] + c for k in range(n - 1))
    new_a = tuple(betas[k] * ells[k - 1] for k in range(1, n - 1))
    transformed = RecurrenceCoefficients(new_b, new_a)
    return UnitLowerBidiagonal(n, ells), UpperBidiagonal(n, betas), transformed


def geronimus_ul_reference(rc, c, beta0):
    """`darboux.geronimus_ul` as the elimination it replaced: ell_k = b_{k-1} -
    c - beta_{k-1}, beta_k = a_k/ell_k from the prescribed beta_0, one
    rational per operation, ZeroPivot(k) at the first ell_k = 0."""
    c = rat(c)
    beta0 = rat(beta0)
    if beta0 == 0:
        raise DegenerateParameter("beta_0 = 0 leaves the elimination undefined")
    b, a, n = rc.b, rc.a, rc.length
    betas = [beta0]
    ells = []
    for k in range(1, n):
        ell = b[k - 1] - c - betas[k - 1]
        if ell == 0:
            raise ZeroPivot(k)
        ells.append(ell)
        betas.append(a[k - 1] / ell)
    new_b = [betas[0] + c] + [betas[k] + ells[k - 1] + c for k in range(1, n)]
    new_a = [ells[k - 1] * betas[k - 1] for k in range(1, n)]
    transformed = RecurrenceCoefficients(new_b, new_a)
    return UnitLowerBidiagonal(n, ells), UpperBidiagonal(n, betas), transformed


def with_b1_moved(producer):
    """An LU or UL producer whose transformed recurrence has b_1 moved by
    one: a wrong transform, for checks that must read it."""

    def moved(*args):
        lower, upper, transformed = producer(*args)
        b = list(transformed.b)
        b[1] += 1
        return lower, upper, RecurrenceCoefficients(b, transformed.a)

    return moved


def quadratic_kernel_reference(rc, w0, c, m0, m1, s, t, n_max):
    """`associated.quadratic_kernel` on rational S_n(c) = s[n] and T_n(c) = t[n],
    one rational per operation."""
    d_star = {n: s[n - 2] * t[n - 1] - s[n - 1] * t[n - 2] for n in range(2, n_max + 2)}
    alpha1 = {1: rc.b[0] - m1 / m0}
    alpha2 = {}
    for n in range(2, n_max + 1):
        if d_star[n] == 0:
            raise NotQuasiDefinite(n - 1, guard="d_star")
        alpha1[n] = (t[n - 2] * s[n] - t[n] * s[n - 2]) / d_star[n]
        alpha2[n] = d_star[n + 1] / d_star[n]
    base_norms = [w0]
    for n in range(1, n_max):
        base_norms.append(base_norms[-1] * rc.a[n - 1])
    norms = [m0]
    if n_max >= 2:
        norms.append((w0 * m0 - (m1 - c * m0) ** 2) / m0)
    norms += [alpha2[n] * base_norms[n - 2] for n in range(2, n_max)]
    bs = [m1 / m0] + [rc.b[n] + alpha1[n] - alpha1[n + 1] for n in range(1, n_max)]
    a_s = [norms[n] / norms[n - 1] for n in range(1, n_max)]
    return Division(alpha1, alpha2, d_star, RecurrenceCoefficients(bs, a_s), norms, base_norms)


def rep_chris_reference(c, n, rc, tilde_rc, lu):
    """repChris degree by degree, on u's recurrence rc, (x - c) u's
    tilde_rc and the LU elimination `lu` of rc: the kernel representation
    on P's and Ptilde's built from them (Ptilde as `OrthogonalSystem.polys`
    builds it), with the ratios P_{m+1}(c)/P_m(c) evaluated on the P's."""
    _, upper, transformed = lu
    base = polys_from_recurrence(rc, n + 1)
    tilde = polys_from_recurrence(tilde_rc, n)
    ratios = [base[m + 1](c) / base[m](c) for m in range(n + 1)]
    failure = None
    for m in range(n):
        if any(_combine([(1, tilde[m], X - c), (-1, base[m + 1]), (ratios[m], base[m])])[0]):
            failure = {"level": m}
            break
    reports = [CheckReport("kernel-representation", "fail" if failure else "pass", n - 1, failure)]
    failure = next(({"level": m} for m in range(n + 1) if upper.diag[m] != -ratios[m]), None)
    reports.append(CheckReport("pivot-closed-form", "fail" if failure else "pass", n, failure))
    failure = None if tilde_rc == transformed else {"level": "matrix"}
    reports.append(CheckReport("transformed-recurrence", "fail" if failure else "pass", n, failure))
    return combine("repChris", reports, c=str(c))


def combination_polys_reference(rc, scale, c, n_max):
    """R_n = scale [(x - c) P^(1)_n - P_{n+1}], n = 0..n_max, built from rc."""
    base = polys_from_recurrence(rc, n_max + 1)
    first = associated_polys(rc, 1, n_max)
    shift, minus = X - c, -scale
    return tuple(
        Polynomial.from_integers(*_combine([(scale, first[n], shift), (minus, base[n + 1])]))
        for n in range(n_max + 1)
    )


def christoffel_assoc_polys(u, c, n_max):
    """The SMOP of the associated-then-perturbed route, R_n with scale
    u_0/utilde_0, utilde_0 = u_1 - c u_0 the first transformed moment."""
    c = rat(c)
    tilde0 = u.moment(1) - c * u.moment(0)
    if tilde0 == 0:
        raise NotQuasiDefinite(0, guard="norm")
    rc, _ = smop_from_moments(u, n_max + 1)
    return combination_polys_reference(rc, u.moment(0) / tilde0, c, n_max)


def kernel_sequence_reference(rc, ratio, n_max):
    """S_n = P_n + ratio P^(1)_{n-1}, n = 0..n_max, built from rc."""
    base = polys_from_recurrence(rc, n_max)
    first = associated_polys(rc, 1, n_max - 1)
    return (ONE_POLY,) + tuple(
        Polynomial.from_integers(*_combine([(1, base[n]), (ratio, first[n - 1])]))
        for n in range(1, n_max + 1)
    )


def geronimus_assoc_polys(v, m0, n_max):
    """S_n = P_n + (v_0/m0) P^(1)_{n-1}: the kernel sequence of the division step."""
    m0 = rat(m0)
    if m0 == 0:
        raise DegenerateParameter("the transformed functional needs a nonzero mass m0")
    rc, _ = smop_from_moments(v, n_max + 1)
    return kernel_sequence_reference(rc, v.moment(0) / m0, n_max)


def pro5_reference(c, alpha, n_max, rc, scale):
    """pro5 degree by degree: built R_n against the co-recursive polynomials of u^(1)."""
    direct = combination_polys_reference(rc, scale, c, n_max)
    routed = corecursive_polys(rc.shifted(1), alpha, n_max)
    for n in range(n_max + 1):
        if direct[n] != routed[n]:
            return CheckReport.failing("pro5", n_max, {"level": n}, c=str(c), alpha=str(alpha))
    return CheckReport.passing("pro5", n_max, c=str(c), alpha=str(alpha))


def connection_reference(c, n_max, rc, scale, tilde_rc):
    """The christoffel+assoc connection degree by degree, with the ratios
    P_{n+1}(c)/P_n(c) evaluated on built P's."""
    base = polys_from_recurrence(rc, n_max + 1)
    tilde_first = associated_polys(tilde_rc, 1, n_max - 1)
    combo = combination_polys_reference(rc, scale, c, n_max)
    for n in range(1, n_max + 1):
        if base[n](c) == 0:
            raise ZeroPivot(n)
        ratio = base[n + 1](c) / base[n](c)
        terms = [(1, tilde_first[n - 1], X - c), (-1, combo[n]), (ratio, combo[n - 1])]
        if any(_combine(terms)[0]):
            return CheckReport.failing(
                "christoffel-assoc-connection", n_max, {"level": n}, c=str(c)
            )
    return CheckReport.passing("christoffel-assoc-connection", n_max, c=str(c))


def s_corecursive_reference(v, m0, n_max, rc, alpha):
    """S-corecursive with its polynomial part degree by degree on built S's."""
    direct = kernel_sequence_reference(rc, v.moment(0) / m0, n_max)
    routed = corecursive_polys(rc.truncated(n_max), alpha, n_max)
    for n in range(n_max + 1):
        if direct[n] != routed[n]:
            return CheckReport.failing("S-corecursive", n_max, {"level": n, "route": "polynomial"})
    k = first_moment_off(corecursive_functional(v, alpha), rc.corecursive(alpha), 2 * n_max + 1)
    if k is not None:
        return CheckReport.failing("S-corecursive", n_max, {"route": "functional", "moment": k})
    return CheckReport.passing("S-corecursive", n_max, alpha=str(alpha))


def gero1_reference(c, m0, n_max, rc, alpha, lower, hat_rc):
    """gero1 degree by degree: (x - c) Phat^(1)_{n-1} against S_n + ell_n S_{n-1}."""
    s_polys = kernel_sequence_reference(rc, -alpha, n_max)
    hat_first = polys_from_recurrence(hat_rc.shifted(1), n_max - 1)
    for n in range(1, n_max + 1):
        terms = [(-1, hat_first[n - 1], X - c), (1, s_polys[n]), (lower.sub[n - 1], s_polys[n - 1])]
        if any(_combine(terms)[0]):
            return CheckReport.failing("gero1", n_max, {"level": n}, c=str(c))
    return CheckReport.passing("gero1", n_max, c=str(c), m0=str(rat(m0)))


def gero2_reference(c, m0, n_max, rc, alpha, upper, hat_rc):
    """gero2 degree by degree: S_n against Phat^(1)_n + beta_n Phat^(1)_{n-1}."""
    s_polys = kernel_sequence_reference(rc, -alpha, n_max)
    hat_first = polys_from_recurrence(hat_rc.shifted(1), n_max)
    for n in range(n_max + 1):
        terms = [(-1, s_polys[n]), (1, hat_first[n])]
        if n >= 1:
            terms.append((upper.diag[n], hat_first[n - 1]))
        if any(_combine(terms)[0]):
            return CheckReport.failing("gero2", n_max, {"level": n}, c=str(c))
    return CheckReport.passing("gero2", n_max, c=str(c), m0=str(rat(m0)))
