"""Square band matrices over exact rationals, with truncation tracking.

Every matrix here is a finite truncation of a semi-infinite operator.  A
`margin` records how many trailing rows/columns may disagree with the
untruncated operator; the leading (size - margin) block is exact.  The
margin of a product grows by min(upper bandwidth of the left factor,
lower bandwidth of the right factor) on top of the inherited margins;
entrywise combinations inherit the max.  Dense matrices count as having
full bandwidth size - 1.
"""

from math import gcd

from .rational import ONE, ZERO, Rational, rat


class BandMatrix:
    """Square matrix stored by diagonals.

    `diagonals` maps an offset d (positive above the main diagonal) to the
    entries of that diagonal, indexed by min(row, column).  All-zero
    diagonals are dropped, so the bandwidths reflect actual support.
    """

    __slots__ = ("size", "diagonals", "margin")

    def __init__(self, size, diagonals, margin=0):
        if size < 1:
            raise ValueError("matrix size must be positive")
        clean = {}
        for d, entries in diagonals.items():
            if abs(d) >= size:
                raise ValueError("diagonal offset %d out of range for size %d" % (d, size))
            entries = tuple(rat(x) for x in entries)
            if len(entries) != size - abs(d):
                raise ValueError(
                    "diagonal %d needs %d entries, got %d" % (d, size - abs(d), len(entries))
                )
            if any(x != 0 for x in entries):
                clean[d] = entries
        self.size = size
        self.diagonals = clean
        self.margin = min(int(margin), size)

    @property
    def lower(self):
        return max((-d for d in self.diagonals if d < 0), default=0)

    @property
    def upper(self):
        return max((d for d in self.diagonals if d > 0), default=0)

    @property
    def reliable(self):
        """Size of the leading block guaranteed to match the untruncated operator."""
        return max(self.size - self.margin, 0)

    def entry(self, i, j):
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError("entry (%d, %d) outside size-%d matrix" % (i, j, self.size))
        diag = self.diagonals.get(j - i)
        return diag[min(i, j)] if diag is not None else ZERO

    def to_dense(self):
        return DenseMatrix(
            tuple(tuple(self.entry(i, j) for j in range(self.size)) for i in range(self.size)),
            margin=self.margin,
        )

    def __eq__(self, other):
        if not isinstance(other, (BandMatrix, DenseMatrix)):
            return NotImplemented
        return self.size == other.size and all(
            self.entry(i, j) == other.entry(i, j)
            for i in range(self.size)
            for j in range(self.size)
        )

    def __hash__(self):
        return hash((self.size, tuple(sorted(self.diagonals.items()))))

    def __repr__(self):
        return "BandMatrix(size=%d, lower=%d, upper=%d, margin=%d)" % (
            self.size,
            self.lower,
            self.upper,
            self.margin,
        )


class DenseMatrix:
    """Square matrix stored by rows, same margin semantics as BandMatrix."""

    __slots__ = ("size", "rows", "margin")

    def __init__(self, rows, margin=0):
        rows = tuple(tuple(rat(x) for x in row) for row in rows)
        size = len(rows)
        if size < 1 or any(len(row) != size for row in rows):
            raise ValueError("rows must form a nonempty square matrix")
        self.size = size
        self.rows = rows
        self.margin = min(int(margin), size)

    @property
    def lower(self):
        return self.size - 1

    @property
    def upper(self):
        return self.size - 1

    @property
    def reliable(self):
        return max(self.size - self.margin, 0)

    def entry(self, i, j):
        return self.rows[i][j]

    def to_dense(self):
        return self

    def __eq__(self, other):
        if not isinstance(other, (BandMatrix, DenseMatrix)):
            return NotImplemented
        return self.size == other.size and all(
            self.entry(i, j) == other.entry(i, j)
            for i in range(self.size)
            for j in range(self.size)
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "DenseMatrix(size=%d, margin=%d)" % (self.size, self.margin)


def band_from_entries(size, lowest, highest, fn, margin=0):
    """Build a BandMatrix from an entry function supported on offsets [lowest, highest]."""
    lowest = max(lowest, -(size - 1))
    highest = min(highest, size - 1)
    diagonals = {}
    for d in range(lowest, highest + 1):
        n = size - abs(d)
        if d >= 0:
            diagonals[d] = tuple(fn(i, i + d) for i in range(n))
        else:
            diagonals[d] = tuple(fn(j - d, j) for j in range(n))
    return BandMatrix(size, diagonals, margin=margin)


def identity(size):
    return BandMatrix(size, {0: (ONE,) * size})


def mat_sub(a, b):
    return _combine(a, b, lambda x, y: x - y)


def _combine(a, b, op):
    if a.size != b.size:
        raise ValueError("size mismatch: %d vs %d" % (a.size, b.size))
    margin = max(a.margin, b.margin)
    if isinstance(a, BandMatrix) and isinstance(b, BandMatrix):
        lo = -max(a.lower, b.lower)
        hi = max(a.upper, b.upper)
        return band_from_entries(
            a.size, lo, hi, lambda i, j: op(a.entry(i, j), b.entry(i, j)), margin
        )
    return DenseMatrix(
        tuple(
            tuple(op(a.entry(i, j), b.entry(i, j)) for j in range(a.size))
            for i in range(a.size)
        ),
        margin=margin,
    )


def mat_scale(c, a):
    c = rat(c)
    if isinstance(a, BandMatrix):
        return BandMatrix(
            a.size,
            {d: tuple(c * x for x in diag) for d, diag in a.diagonals.items()},
            margin=a.margin,
        )
    return DenseMatrix(
        tuple(tuple(c * x for x in row) for row in a.rows), margin=a.margin
    )


def shifted(a, c):
    """a - c*I."""
    return mat_sub(a, mat_scale(rat(c), identity(a.size)))


def mat_multiply(a, b):
    """Product with margin tracking; dense if either factor is dense.

    Each entry sums its terms as an integer numerator over one running
    denominator, the lcm of the terms' denominators so far, and becomes
    a single Rational at the end.
    """
    if a.size != b.size:
        raise ValueError("size mismatch: %d vs %d" % (a.size, b.size))
    n = a.size
    a_lower, a_upper, b_lower, b_upper = a.lower, a.upper, b.lower, b.upper
    margin = max(a.margin, b.margin) + min(a_upper, b_lower)
    a_entry, b_entry = a.entry, b.entry

    def dot(i, j):
        lo = max(i - a_lower, j - b_upper, 0)
        hi = min(i + a_upper, j + b_lower, n - 1)
        num, den = 0, 1
        for k in range(lo, hi + 1):
            x = a_entry(i, k)
            if x:
                y = b_entry(k, j)
                d = x.denominator * y.denominator
                if d == den:
                    num += x.numerator * y.numerator
                else:
                    g = gcd(den, d)
                    num = num * (d // g) + x.numerator * y.numerator * (den // g)
                    den = den // g * d
        return Rational(num, den)

    if isinstance(a, BandMatrix) and isinstance(b, BandMatrix):
        return band_from_entries(n, -(a_lower + b_lower), a_upper + b_upper, dot, margin)
    return DenseMatrix(
        tuple(tuple(dot(i, j) for j in range(n)) for i in range(n)), margin=margin
    )


def mat_power(a, k):
    if k < 0:
        raise ValueError("only nonnegative matrix powers are supported")
    result = identity(a.size)
    for _ in range(k):
        result = mat_multiply(result, a)
    return result


def shift_conjugate(a):
    """Drop the first row and column; the margin carries over unchanged."""
    if a.size < 2:
        raise ValueError("cannot shift a 1x1 matrix")
    return band_from_entries(
        a.size - 1,
        -a.lower,
        a.upper,
        lambda i, j: a.entry(i + 1, j + 1),
        margin=a.margin,
    )


def shift_rows_up(a):
    """Row shift: entry (i, j) of the result is entry (i+1, j); last row unknown.

    Every diagonal moves one offset upward, so the band window is
    [-(lower-1), upper+1]."""
    n = a.size

    def fn(i, j):
        return a.entry(i + 1, j) if i + 1 < n else ZERO

    return band_from_entries(n, -max(a.lower - 1, 0), a.upper + 1, fn, margin=a.margin + 1)


def shift_cols_left(a):
    """Column shift: entry (i, j) of the result is entry (i, j+1); last column unknown.

    Every diagonal moves one offset downward, so the band window is
    [-(lower+1), upper-1]."""
    n = a.size

    def fn(i, j):
        return a.entry(i, j + 1) if j + 1 < n else ZERO

    return band_from_entries(n, -(a.lower + 1), max(a.upper - 1, 0), fn, margin=a.margin + 1)


def solve_unit_lower(lower_mat, rhs):
    """Solve L X = B by forward substitution for unit lower-triangular L.

    Because L and its inverse are lower triangular, each entry of X only
    involves the leading block of L and B, so the result's margin is just
    the max of the inputs'.
    """
    n = lower_mat.size
    if rhs.size != n:
        raise ValueError("size mismatch: %d vs %d" % (n, rhs.size))
    if lower_mat.upper != 0:
        raise ValueError("matrix is not lower triangular")
    for i in range(n):
        if lower_mat.entry(i, i) != 1:
            raise ValueError("matrix does not have a unit diagonal")
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        lo = max(0, i - lower_mat.lower)
        for j in range(n):
            acc = rhs.entry(i, j)
            for k in range(lo, i):
                c = lower_mat.entry(i, k)
                if c != 0:
                    acc -= c * rows[k][j]
            rows[i][j] = acc
    return DenseMatrix(tuple(tuple(row) for row in rows), margin=max(lower_mat.margin, rhs.margin))


def equal_on_block(a, b, k):
    """Entrywise equality of the leading k x k blocks."""
    if k > min(a.size, b.size):
        raise ValueError("block size %d exceeds matrix sizes" % k)
    return all(a.entry(i, j) == b.entry(i, j) for i in range(k) for j in range(k))


def common_reliable(*mats):
    """Largest leading block on which every argument is exact."""
    return max(min(m.reliable for m in mats), 0)


def first_block_mismatch(a, b, k):
    """Smallest block size (1-based) at which the leading blocks differ, or None."""
    for m in range(1, k + 1):
        i = m - 1
        if any(a.entry(i, j) != b.entry(i, j) for j in range(m)) or any(
            a.entry(j, i) != b.entry(j, i) for j in range(m)
        ):
            return m
    return None


class UnitLowerBidiagonal:
    """Unit diagonal with entries (l_1, ..., l_{size-1}) below it."""

    __slots__ = ("size", "sub")

    def __init__(self, size, sub):
        self.sub = tuple(rat(x) for x in sub)
        if len(self.sub) != size - 1:
            raise ValueError("need %d subdiagonal entries, got %d" % (size - 1, len(self.sub)))
        self.size = size

    def to_band(self):
        return BandMatrix(self.size, {0: (ONE,) * self.size, -1: self.sub})

    def shifted_tail(self):
        """Drop the first row and column (losing l_1)."""
        return UnitLowerBidiagonal(self.size - 1, self.sub[1:])


class UpperBidiagonal:
    """Diagonal (b_0, ..., b_{size-1}) with an all-ones superdiagonal."""

    __slots__ = ("size", "diag")

    def __init__(self, size, diag):
        self.diag = tuple(rat(x) for x in diag)
        if len(self.diag) != size:
            raise ValueError("need %d diagonal entries, got %d" % (size, len(self.diag)))
        self.size = size

    def to_band(self):
        return BandMatrix(self.size, {0: self.diag, 1: (ONE,) * (self.size - 1)})

    def shifted_tail(self):
        return UpperBidiagonal(self.size - 1, self.diag[1:])


class UnitLowerTriband:
    """Unit diagonal plus two subdiagonals (first then second)."""

    __slots__ = ("size", "sub1", "sub2")

    def __init__(self, size, sub1, sub2):
        self.sub1 = tuple(rat(x) for x in sub1)
        self.sub2 = tuple(rat(x) for x in sub2)
        if len(self.sub1) != size - 1 or len(self.sub2) != size - 2:
            raise ValueError("subdiagonal lengths must be size-1 and size-2")
        self.size = size

    def to_band(self):
        return BandMatrix(
            self.size, {0: (ONE,) * self.size, -1: self.sub1, -2: self.sub2}
        )


class UpperTriband:
    """Diagonal and first superdiagonal entries plus an all-ones second superdiagonal."""

    __slots__ = ("size", "diag", "super1")

    def __init__(self, size, diag, super1):
        self.diag = tuple(rat(x) for x in diag)
        self.super1 = tuple(rat(x) for x in super1)
        if len(self.diag) != size or len(self.super1) != size - 1:
            raise ValueError("diagonal lengths must be size and size-1")
        self.size = size

    def to_band(self):
        return BandMatrix(
            self.size, {0: self.diag, 1: self.super1, 2: (ONE,) * (self.size - 2)}
        )
