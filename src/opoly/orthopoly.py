"""Monic orthogonal polynomial sequences: moments to recurrence and back."""

from math import gcd, lcm

from .errors import NotQuasiDefinite, TruncationExhausted, ZeroFirstMoment
from .functional import MomentFunctional
from .matrices import BandMatrix
from .poly import ONE_POLY, Polynomial
from .rational import ZERO, ONE, Rational, common_denominator, rat


class RecurrenceCoefficients:
    """Coefficients of x P_k = P_{k+1} + b_k P_k + a_k P_{k-1}.

    `b` holds (b_0, ..., b_{n-1}) and `a` holds (a_1, ..., a_{n-1}); the
    index conventions match the recurrence, so a[0] is a_1.
    """

    __slots__ = ("b", "a")

    def __init__(self, b, a):
        self.b = tuple(rat(x) for x in b)
        self.a = tuple(rat(x) for x in a)
        if not self.b:
            raise ValueError("need at least b_0")
        if len(self.a) != len(self.b) - 1:
            raise ValueError(
                "got %d b's but %d a's; expected one fewer a" % (len(self.b), len(self.a))
            )

    @property
    def length(self):
        return len(self.b)

    def b_at(self, n):
        return self.b[n]

    def a_at(self, n):
        if n < 1:
            raise IndexError("a_n starts at n = 1")
        return self.a[n - 1]

    def truncated(self, n):
        if n > len(self.b):
            raise TruncationExhausted("only %d coefficients available" % len(self.b))
        return RecurrenceCoefficients(self.b[:n], self.a[: n - 1])

    def shifted(self, k):
        """Drop the first k coefficients of each sequence (the associated shift)."""
        if k < 0 or k >= len(self.b):
            raise TruncationExhausted(
                "cannot shift %d coefficients by %d" % (len(self.b), k)
            )
        return RecurrenceCoefficients(self.b[k:], self.a[k:])

    def corecursive(self, alpha):
        """Perturb only b_0 by alpha."""
        alpha = rat(alpha)
        return RecurrenceCoefficients((self.b[0] + alpha,) + self.b[1:], self.a)

    def __eq__(self, other):
        if not isinstance(other, RecurrenceCoefficients):
            return NotImplemented
        return self.b == other.b and self.a == other.a

    def __hash__(self):
        return hash((self.b, self.a))

    def __repr__(self):
        return "RecurrenceCoefficients(b=%s, a=%s)" % (self.b, self.a)


class OrthogonalSystem:
    """The monic polynomials P_0..P_n of a recurrence, with the norms K_k = <u, P_k^2>.

    An SMOP is its three-term recurrence (b_0..b_{n-1}, a_1..a_{n-1})
    with its norms K_0..K_{n-1}: one norm per coefficient b, since the
    top norm would need moments beyond those that determined P_n.  The
    producers that build a system (`smop_from_moments`,
    `associated.inverse_smop`, `quadratic.quadratic_geronimus_smop`)
    have found every norm nonzero; a vanishing norm is exactly failure
    of quasi-definiteness.  `polys` is built from the recurrence on
    first read.
    """

    __slots__ = ("_polys", "_rc", "norms")

    def __init__(self, rc, norms):
        norms = tuple(norms)
        if len(norms) != rc.length:
            raise ValueError("expected %d norms, got %d" % (rc.length, len(norms)))
        self._polys = None
        self._rc = rc
        self.norms = norms

    @property
    def polys(self):
        if self._polys is None:
            self._polys = polys_from_recurrence(self._rc, self._rc.length)
        return self._polys

    @property
    def n_max(self):
        return len(self.norms)

    def __repr__(self):
        return "OrthogonalSystem(n_max=%d)" % self.n_max


def smop_from_moments(u, n_max):
    """Moments to recurrence by the Chebyshev algorithm (`_chebyshev`), in O(n_max^2).

    Needs 2*n_max moments.  Returns the recurrence coefficients
    (b_0..b_{n_max-1}, a_1..a_{n_max-1}) and the system P_0..P_{n_max}
    with norms K_0..K_{n_max-1}; the polynomials are built only when
    read.  Raises NotQuasiDefinite at the first vanishing norm, whose
    index equals the offending Hankel level, since K_k = H_k / H_{k-1}.

    The recurrence and norms of the deepest run that succeeded on u are
    kept on u (`MomentFunctional._recurrence`), and a call no deeper
    returns their truncation: producers and checks that read one
    functional share one run, and only a deeper call runs again.  A run
    that raises keeps nothing.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if u.order < 2 * n_max:
        raise TruncationExhausted(
            "need %d moments for n_max=%d, have %d" % (2 * n_max, n_max, u.order)
        )
    if u._recurrence is not None and u._recurrence[0].length >= n_max:
        rc, norms = u._recurrence
        if rc.length > n_max:
            rc, norms = rc.truncated(n_max), norms[:n_max]
    else:
        rc, norms = u._recurrence = _chebyshev(u.num, u.den, n_max)
    return rc, OrthogonalSystem(rc, norms)


def _read_deepest(u, depth):
    """Run the Chebyshev algorithm on u at the deepest depth its checks read.

    `smop_from_moments` keeps the run on u, so the checks' reads are its
    truncations.  A run that raises keeps nothing and is left to the
    checks, so each meets the error it meets on its own, in order.
    """
    depth = min(depth, u.order // 2)
    if depth >= 1:
        try:
            smop_from_moments(u, depth)
        except NotQuasiDefinite:
            pass


def _chebyshev(nums, den, n_max):
    """The recurrence (length n_max) and norms of the moments nums[l] / den, l < 2*n_max.

    Runs over the mixed moments s_{k,l} = <u, P_k x^l>, two rows at a
    time: s_{k,l} = s_{k-1,l+1} - b_{k-1} s_{k-1,l} - a_{k-1} s_{k-2,l},
    K_k = s_{k,k}, a_k = K_k / K_{k-1} and
    b_k = s_{k,k+1} / K_k - s_{k-1,k} / K_{k-1} (Gautschi, Orthogonal
    Polynomials: Computation and Approximation, 2004, section 2.1.7).

    Each row runs on integers over one denominator: s_{k,l} = sigma[l] /
    den.  The row is formed with integer factors that bring both terms of
    the recurrence over the lcm of their denominators (`_step`), so no
    entry is a rational, and is divided by gcd(den, *row) only when den
    has doubled in bits since the last division (`_reduce_if_doubled`).
    No output reads how far a row is reduced: b_k needs no denominator
    at all, b_k = sigma_k[k+1]/sigma_k[k] - sigma_{k-1}[k]/sigma_{k-1}[k-1];
    K_k and a_k carry den and are built as reduced rationals; and
    sigma[k] == 0 does not depend on the row's scale.  Raises
    NotQuasiDefinite(k) at the first k with K_k = 0.
    """
    width = 2 * n_max
    # s_{k,l} = sigma[l] / den and s_{k-1,l} = below[l] / below_den; only
    # l >= k is used
    sigma, den, limit = _reduce_if_doubled(list(nums[:width]), den, -1)
    below, below_den = [0] * width, 1
    norms = []
    bs = []
    a_s = []
    for k in range(n_max):
        if k >= 1:
            b = bs[k - 1]
            a = a_s[k - 2] if k >= 2 else ZERO
            # s_{k,l} = s_{k-1,l+1} - b s_{k-1,l} - a s_{k-2,l} over new_den
            new_den, x, y, z = _step(
                den, b.numerator, b.denominator, below_den, a.numerator, a.denominator
            )
            row = [x * sigma[l + 1] - y * sigma[l] - z * below[l] for l in range(k, width - k)]
            row, new_den, limit = _reduce_if_doubled(row, new_den, limit)
            below, below_den = sigma, den
            sigma, den = [0] * k + row, new_den
        if sigma[k] == 0:
            raise NotQuasiDefinite(k, guard="norm")
        norm_k = Rational(sigma[k], den)
        if k == 0:
            b_k = Rational(sigma[1], sigma[0])
        else:
            b_k = Rational(
                sigma[k + 1] * below[k - 1] - below[k] * sigma[k], sigma[k] * below[k - 1]
            )
            a_s.append(Rational(sigma[k] * below_den, den * below[k - 1]))
        norms.append(norm_k)
        bs.append(b_k)
    return RecurrenceCoefficients(bs, a_s), tuple(norms)


def _step(den, pb, qb, below_den, pa, qa):
    """Integer factors of one three-term step: (new_den, x, y, z).

    With b = pb/qb and a = pa/qa, new_den is the lcm of den qb and
    below_den qa, and x / new_den = 1 / den, y / new_den = b / den and
    z / new_den = a / below_den.  So (x - b) cur / den - a below /
    below_den is (x X cur - y cur - z below) / new_den on integers, for a
    polynomial (X cur the shift) as for a mixed-moment row or a value.
    """
    left = den * qb
    right = below_den * qa
    new_den = lcm(left, right)
    f_left = new_den // left
    return new_den, f_left * qb, f_left * pb, new_den // right * pa


def _reduce_if_doubled(vec, den, limit):
    """(vec, den, limit), with vec and den divided by gcd(den, *vec) if den exceeds limit bits.

    The integer kernels carry a vector over one denominator and reduce it
    only when den.bit_length() > limit; a reduction resets limit to
    2 * den.bit_length() + 64, so den at most doubles in bits between
    two gcd passes.  On slowly growing denominators no pass runs, and on
    fast growing ones den stays within one step of twice its reduced
    size plus 64 bits.  A limit of -1 reduces now.
    """
    if den.bit_length() <= limit:
        return vec, den, limit
    g = gcd(den, *vec)
    if g > 1:
        vec = [v // g for v in vec]
        den //= g
    return vec, den, 2 * den.bit_length() + 64


def first_moment_off(w, rc, count, u0=None):
    """The first of w's `count` moments that the functional of (u0, rc) does not share, or None.

    Compares w's recurrence (`_chebyshev`) with rc's ceil(count/2) in the
    order b_0, a_1, b_1, a_2, ...: u_{2k} brings in a_k and u_{2k+1}
    brings in b_k, each times u_0 a_1 ... a_k != 0 on rc's side, so the
    first differing coefficient is the first differing moment, and a
    vanishing norm K_k of w differs at moment 2k.  u0=None compares after
    normalizing, which the recurrence does not see.  An odd count pads
    one moment, which reaches only the uncompared last b.
    """
    if u0 is None and w.num[0] == 0:
        raise ZeroFirstMoment("cannot normalize: u_0 = 0")
    if u0 is not None and w.moment(0) != u0:
        return 0
    try:
        got, _ = _chebyshev(w.num[:count] + (0,) * (count % 2), w.den, (count + 1) // 2)
    except NotQuasiDefinite as exc:
        off = first_moment_off(w, rc, 2 * exc.level, u0)
        return 2 * exc.level if off is None else off
    for m in range(1, count):
        k = m // 2
        if (got.b[k] != rc.b[k]) if m % 2 else (got.a[k - 1] != rc.a[k - 1]):
            return m
    return None


def polys_from_recurrence(rc, n_max):
    """Run the three-term recurrence forward; P_0..P_{n_max}.

    Each P_k is integers over one denominator (`Polynomial.num`, `.den`).
    With b_k = pb/qb and a_k = pa/qa, P_{k+1} = (x - b_k) P_k - a_k P_{k-1}
    is formed, as in `_chebyshev`, with integer factors that bring both
    terms over the lcm of their denominators (`_step`): a shift minus
    scaled copies, reduced once by `Polynomial.from_integers`.
    """
    if n_max > rc.length:
        raise TruncationExhausted(
            "recurrence has %d coefficients; cannot reach degree %d" % (rc.length, n_max)
        )
    polys = [ONE_POLY]
    below, below_den, a = (), 1, ZERO
    for k in range(n_max):
        cur, den = polys[k].num, polys[k].den
        b = rc.b[k]
        if k >= 1:
            a = rc.a[k - 1]
            below, below_den = polys[k - 1].num, polys[k - 1].den
        # (x - b) cur / den - a below / below_den over new_den:
        # row[i] = x cur[i-1] - y cur[i] - z below[i]
        new_den, x, y, z = _step(
            den, b.numerator, b.denominator, below_den, a.numerator, a.denominator
        )
        row = [
            x * s - y * v - z * w
            for s, v, w in zip((0,) + cur, cur + (0,), below + (0, 0))
        ]
        polys.append(Polynomial.from_integers(row, new_den))
    return tuple(polys)


def values_and_slopes(rc, c, n):
    """P_m(c) and P_m'(c) for m = 0..n in O(n), over one denominator per level.

    Returns three lists (p, dp, den) of integers with P_m(c) = p[m] / den[m]
    and P_m'(c) = dp[m] / den[m], each level reduced: the weight-1 case of
    `kernel_values`.
    """
    return kernel_values(rc, c, ONE, ZERO, ZERO, n)


def kernel_values(rc, c, weight, mass, tilt, n):
    """The kernel combination Z_m = weight P_m + mass P^(1)_{m-1} at c, m = 0..n.

    Returns integer lists (z, t, den): Z_m(c) = z[m] / den[m] and
    T_m(c) = Z_m'(c) + tilt P_m(c) = t[m] / den[m], with P^(1)_{-1} = 0.
    For m >= 1, P_m and P^(1)_{m-1} obey the same recurrence, so Z is one
    run of rc's recurrence from Z_0 = weight, whose first step reads
    a_0 Z_{-1} = -mass, and T one run of its derivative,
    T_{m+1} = Z_m + (c - b_m) T_m - a_m T_{m-1}, from T_0 = tilt and
    T_{-1} = 0; `values_and_slopes` is the run at weight 1, mass 0 and
    tilt 0.  With c - b_m = ps/qs, `_step` brings both terms over the lcm
    of their denominators, and each level is reduced once by
    gcd(den, z, t), so no step makes a rational.  The UL pivots are ratios
    of Z with weight 1 and mass beta_0 (`darboux.geronimus_ul`); the
    division by (x - c)^2 reads S_n(c) and T_n(c) from weight m1 - c m0,
    mass u_0 and tilt m0 (`quadratic._division`).
    """
    if n > rc.length:
        raise TruncationExhausted(
            "recurrence has %d coefficients; cannot reach degree %d" % (rc.length, n)
        )
    c, weight, mass, tilt = rat(c), rat(weight), rat(mass), rat(tilt)
    pc, qc = c.numerator, c.denominator
    d0 = lcm(weight.denominator, tilt.denominator)
    z = [weight.numerator * (d0 // weight.denominator)]
    t = [tilt.numerator * (d0 // tilt.denominator)]
    den = [d0]
    # a_0 Z_{-1} = mass (-1) / 1 and T_{-1} = 0
    below, below_t, below_den, a = -1, 0, 1, mass
    for m in range(n):
        b = rc.b[m]
        qs = lcm(qc, b.denominator)
        ps = pc * (qs // qc) - b.numerator * (qs // b.denominator)
        if m >= 1:
            a = rc.a[m - 1]
            below, below_t, below_den = z[m - 1], t[m - 1], den[m - 1]
        new_den, x, y, f = _step(den[m], ps, qs, below_den, a.numerator, a.denominator)
        value = y * z[m] - f * below
        slope = x * z[m] + y * t[m] - f * below_t
        g = gcd(new_den, value, slope)
        z.append(value // g)
        t.append(slope // g)
        den.append(new_den // g)
    return z, t, den


def jacobi_matrix(rc, size):
    """Monic Jacobi truncation: diagonal b, subdiagonal a, unit superdiagonal.

    As `BandMatrix` does, an all-zero diagonal is not stored (b = 0 for
    the Chebyshev families, or a = 0, as when a_1 = 0 at size 2).
    """
    if size < 1:
        raise ValueError("size must be positive")
    if size > rc.length:
        raise TruncationExhausted(
            "recurrence has %d coefficients; cannot fill size %d" % (rc.length, size)
        )
    diagonals = {}
    b = rc.b[:size]
    if any(b):
        diagonals[0] = b
    if size > 1:
        diagonals[1] = (ONE,) * (size - 1)
        a = rc.a[: size - 1]
        if any(a):
            diagonals[-1] = a
    return BandMatrix._checked(size, diagonals)


def moments_from_jacobi(j, u0, n):
    """Moments u0 * (J^k)_{0,0} for k < n of a monic Jacobi truncation J.

    `j` is a BandMatrix with diagonal b, subdiagonal a and unit
    superdiagonal (as `jacobi_matrix` builds it); any other band raises
    ValueError.  The moments come from the vector iteration
    (J w)_i = a_i w_{i-1} + b_i w_i + w_{i+1} from w = e_0, keeping only
    the entries of J^k e_0 that can still reach the (0, 0) entry.

    Entries of J^k only involve indices up to ceil(k/2), so the truncated
    matrix reproduces the untruncated moments exactly for n <= 2*size - 1.

    The iteration runs on integers: with q the lcm of the denominators of
    b and a, B = q b and A = q a are integer, J^t e_0 = w / den with w an
    integer vector, and the t-th moment is u0 * w[0] / den.  Each step is
    one list comprehension over A, B and three shifted views of w.  w and
    den are divided by gcd(den, *w) only when den has doubled in bits
    since the last division (`_reduce_if_doubled`, from 64 bits), so den
    stays within about twice the size of the entries' reduced
    denominators instead of growing as q^t.  The moments do not depend on
    how far w is reduced: `MomentFunctional.from_integers` reduces them
    once.
    """
    u0 = rat(u0)
    if n < 1:
        raise ValueError("n must be at least 1")
    size = j.size
    diagonals = j.diagonals
    # a diagonal that is not stored is all zeros
    if any(d not in (-1, 0, 1) for d in diagonals) or (
        size > 1 and any(x != 1 for x in diagonals.get(1, (ZERO,)))
    ):
        raise ValueError("matrix is not a monic Jacobi truncation")
    b = diagonals.get(0, (ZERO,) * size)
    a = diagonals.get(-1, (ZERO,) * (size - 1))
    if n > 2 * size - 1:
        raise TruncationExhausted(
            "a reliable %dx%d truncation determines %d moments; %d requested"
            % (size, size, 2 * size - 1, n)
        )
    b_num, b_den = common_denominator(b)
    a_num, a_den = common_denominator(a)
    q = lcm(b_den, a_den)
    big_b = [v * (q // b_den) for v in b_num]
    # A[i] multiplies w[i-1]; row 0 has no subdiagonal entry
    big_a = [0] + [v * (q // a_den) for v in a_num]
    # J^t e_0 = w / den; the moments are u0 * tops[t] / dens[t]
    w, den, limit = [1], 1, 64
    tops, dens = [1], [1]
    for t in range(n - 1):
        # J^(t+1) e_0 is supported on indices <= t+1, and index i can
        # still reach w[0] in the n-2-t steps left only if i <= n-2-t;
        # the other entries never touch a moment
        top = min(size, t + 2, n - 1 - t)
        padded = [0, *w, 0, 0]
        w = [
            x * left + y * mid + q * right
            for x, y, left, mid, right in zip(
                big_a[:top], big_b[:top], padded, padded[1:], padded[2:]
            )
        ]
        w, den, limit = _reduce_if_doubled(w, den * q, limit)
        tops.append(w[0])
        dens.append(den)
    common = lcm(*dens)
    p0 = u0.numerator
    return MomentFunctional.from_integers(
        [p0 * v * (common // d) for v, d in zip(tops, dens)], common * u0.denominator
    )


def hankel_minor(u, k):
    """Leading principal minor det[u_{i+j}] of size (k+1); needs 2k+1 moments."""
    if u.order < 2 * k + 1:
        raise TruncationExhausted(
            "Hankel minor of level %d needs %d moments, have %d" % (k, 2 * k + 1, u.order)
        )
    n = k + 1
    rows = [[u.moments[i + j] for j in range(n)] for i in range(n)]
    det = ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor != 0:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return det

