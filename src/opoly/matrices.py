"""Square band matrices over exact rationals.

Every matrix here is a finite truncation of a semi-infinite operator,
stored by its diagonals.  Trailing rows and columns of a product or a
one-sided shift may disagree with the untruncated operator; each check
names the leading block or rows that its truncations leave exact and
compares only those (`first_block_mismatch`, `connection_level`).

The kernels follow the storage.  A product convolves the stored
diagonals: diagonal p of the left factor meets diagonal q of the right
one along a slice of each, and lands on diagonal p + q (`_product`).
It forms only the leading entries of each diagonal that the caller
reads, each as an integer pair (numerator, denominator) that sums its
terms by cross-multiplication, with no gcd.  A comparison reads a
product in that form and finds x/d = y/e exactly when x e = y d, so a
check makes no Rational for an entry of a product; `mat_multiply` makes
one per entry of the whole product.  A shift of rows or columns moves
each diagonal by one offset.
"""

from .rational import ONE, ZERO, Rational, rat


class BandMatrix:
    """Square matrix stored by diagonals.

    `diagonals` maps an offset d (positive above the main diagonal) to the
    entries of that diagonal, indexed by min(row, column).  All-zero
    diagonals, the empty one at offset +-size among them, are dropped, so
    the bandwidths reflect actual support.
    """

    __slots__ = ("size", "diagonals")

    def __init__(self, size, diagonals):
        if size < 1:
            raise ValueError("matrix size must be positive")
        clean = {}
        for d, entries in diagonals.items():
            if abs(d) > size:
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

    @classmethod
    def _checked(cls, size, diagonals):
        """A BandMatrix from diagonals that are already tuples of Rationals of
        the right lengths, at offsets in range, none of them all zero."""
        m = cls.__new__(cls)
        m.size = size
        m.diagonals = diagonals
        return m

    @property
    def lower(self):
        return max((-d for d in self.diagonals if d < 0), default=0)

    @property
    def upper(self):
        return max((d for d in self.diagonals if d > 0), default=0)

    def entry(self, i, j):
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError("entry (%d, %d) outside size-%d matrix" % (i, j, self.size))
        diag = self.diagonals.get(j - i)
        return diag[min(i, j)] if diag is not None else ZERO

    def __eq__(self, other):
        if not isinstance(other, BandMatrix):
            return NotImplemented
        # exact, since an all-zero diagonal is never stored
        return self.size == other.size and self.diagonals == other.diagonals

    def __hash__(self):
        return hash((self.size, tuple(sorted(self.diagonals.items()))))

    def __repr__(self):
        return "BandMatrix(size=%d, lower=%d, upper=%d)" % (self.size, self.lower, self.upper)


def shifted(a, c):
    """a - c*I: only the main diagonal is rewritten."""
    c = rat(c)
    diagonals = dict(a.diagonals)
    main = tuple(x - c for x in diagonals.pop(0, (ZERO,) * a.size))
    if any(main):
        diagonals[0] = main
    return BandMatrix._checked(a.size, diagonals)


def _split(entries):
    """Numerators and denominators of a sequence of Rationals, as two lists."""
    return [x.numerator for x in entries], [x.denominator for x in entries]


def _product(a, b, reach):
    """The leading reach(d) <= size - |d| entries of each diagonal d of a b,
    as {d: (numerators, denominators)}, two lists of unreduced integers.

    Row i of diagonal p of a (entry (i, i + p)) meets row i + p of
    diagonal q of b and adds to row i of diagonal d = p + q of the
    product, for every i that keeps all three inside the matrix and the
    entry within reach; a diagonal's entry on row i sits at index
    i + min(offset, 0).  A term over the entry's denominator adds to its
    numerator; any other is cross-multiplied in.
    """
    if a.size != b.size:
        raise ValueError("size mismatch: %d vs %d" % (a.size, b.size))
    n = a.size
    right = [(q, *_split(diag)) for q, diag in b.diagonals.items()]
    sums = {}
    for p, diag in a.diagonals.items():
        xn, xd = _split(diag)
        for q, yn, yd in right:
            d = p + q
            lo = max(0, -p, -d)
            hi = min(n, n - p, n - d, reach(d) - min(d, 0))
            if lo >= hi:
                continue
            if d not in sums:
                sums[d] = ([0] * reach(d), [1] * reach(d))
            nums, dens = sums[d]
            # the three indices of row i: on diagonal p of a, on diagonal q
            # of b (row i + p there) and on diagonal d of the product
            ia, ib, ic = min(p, 0), p + min(q, 0), min(d, 0)
            for i in range(lo, hi):
                x, y = xn[i + ia], yn[i + ib]
                if x and y:
                    k, w = i + ic, xd[i + ia] * yd[i + ib]
                    e = dens[k]
                    if w == e:
                        nums[k] += x * y
                    else:
                        nums[k] = nums[k] * w + x * y * e
                        dens[k] = e * w
    return sums


def mat_multiply(a, b):
    """a b: every entry of `_product`, made one Rational."""
    n = a.size
    sums = _product(a, b, lambda d: n - abs(d))
    diagonals = {
        d: tuple(map(Rational, nums, dens))
        for d, (nums, dens) in sorted(sums.items())
        if any(nums)
    }
    return BandMatrix._checked(n, diagonals)


def _moved_diagonals(a, step):
    """a with every diagonal moved `step` (1 or -1) offsets.

    A diagonal that moves away from the main one, or off it, loses its
    first entry; one that moves toward it gains a zero at its end: the
    row (step 1) or column (step -1) shifted in from past the last one.
    """
    diagonals = {}
    for d, diag in a.diagonals.items():
        moved = diag[1:] if d * step >= 0 else diag + (ZERO,)
        if any(moved):
            diagonals[d + step] = moved
    return BandMatrix._checked(a.size, diagonals)


def shift_rows_up(a):
    """Row shift: entry (i, j) of the result is entry (i+1, j); last row unknown.

    Every diagonal moves one offset upward, so the band window is
    [-(lower-1), upper+1]."""
    return _moved_diagonals(a, 1)


def shift_cols_left(a):
    """Column shift: entry (i, j) of the result is entry (i, j+1); last column unknown.

    Every diagonal moves one offset downward, so the band window is
    [-(lower+1), upper-1]."""
    return _moved_diagonals(a, -1)


def _pairs(side, reach):
    """{d: (numerators, denominators)} of the leading reach(d) entries of
    each diagonal d of side: a BandMatrix, or a pair (a, b) that stands
    for the product a b (`_product`)."""
    if isinstance(side, BandMatrix):
        return {d: _split(diag[: max(reach(d), 0)]) for d, diag in side.diagonals.items()}
    return _product(*side, reach)


def _first_differences(a, b, reach):
    """(d, t) for each diagonal d where sides a and b (`_pairs`) first
    differ, at entry t < reach(d); a diagonal that one side lacks is zero."""
    x, y = _pairs(a, reach), _pairs(b, reach)
    for d in x.keys() | y.keys():
        length = max(reach(d), 0)
        zeros = ([0] * length, [1] * length)
        xn, xd = x.get(d, zeros)
        yn, yd = y.get(d, zeros)
        for t in range(length):
            if xn[t] * yd[t] != yn[t] * xd[t]:
                yield d, t
                break


def first_block_mismatch(a, b, k):
    """Smallest block size at which the leading k x k blocks of a and b
    differ, or None when they are equal.

    Each side is a BandMatrix or a pair (x, y) of them, compared as the
    product x y, of which only the leading block is formed.  Entry t of
    diagonal d is entry (t, t + d) or (t - d, t), so it first enters the
    leading block of size t + |d| + 1.
    """
    if k > min(s.size if isinstance(s, BandMatrix) else s[0].size for s in (a, b)):
        raise ValueError("block size %d exceeds matrix sizes" % k)
    diffs = _first_differences(a, b, lambda d: k - abs(d))
    return min((t + abs(d) + 1 for d, t in diffs), default=None)


def connection_level(j_a, m, j_b, rows):
    """The first level at which a connection A = M B fails, read off the
    leading `rows` rows of J_A M - M J_B, or None.

    With x A = J_A A and x B = J_B B, once A = M B holds up to level n,
    A_{n+1} - (M B)_{n+1} is row n of M J_B - J_A M applied to B (shifting
    both Jacobi matrices by c leaves it unchanged), so when level 0
    holds, the first nonzero row n names level n + 1.  Entry t of
    diagonal d lies in row t + max(-d, 0); only those rows of the two
    products are formed.
    """
    diffs = _first_differences(
        (j_a, m), (m, j_b), lambda d: min(rows - max(-d, 0), j_a.size - abs(d))
    )
    return min((t + max(-d, 0) + 1 for d, t in diffs), default=None)


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
        return BandMatrix(self.size, {0: (ONE,) * self.size, -1: self.sub1, -2: self.sub2})


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
        return BandMatrix(self.size, {0: self.diag, 1: self.super1, 2: (ONE,) * (self.size - 2)})
