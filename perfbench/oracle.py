"""Reference values that do not depend on the code being timed.

Everything here is plain `fractions.Fraction` arithmetic written for the
benchmark: moments read off a recurrence, the moments of each spectral
transform, and the products that a factorization must reproduce.  The
benchmark compares the library's output against these, so a faster but
wrong result is counted as a failure.
"""

from fractions import Fraction


def recurrence_moments(b, a, u0, count):
    """Moments u0 * (J^k)_{00}, k < count, of the monic Jacobi matrix with
    diagonal b, subdiagonal a (a[0] is a_1) and unit superdiagonal.

    A walk of length k from row 0 back to row 0 never passes row k // 2,
    so len(b) >= count // 2 + 1 coefficients make every moment exact.
    """
    size = len(b)
    if count > 2 * size:
        raise ValueError("%d coefficients fix only %d moments" % (size, 2 * size))
    w = [Fraction(0)] * size
    w[0] = Fraction(1)
    out = []
    for _ in range(count):
        out.append(u0 * w[0])
        nxt = []
        for i in range(size):
            acc = b[i] * w[i]
            if i + 1 < size:
                acc += w[i + 1]
            if i > 0:
                acc += a[i - 1] * w[i - 1]
            nxt.append(acc)
        w = nxt
    return out


def recurrence_norms(a, u0, count):
    """Norms K_0 = u0, K_n = a_n K_{n-1} of the first `count` polynomials."""
    norms = [u0]
    for n in range(1, count):
        norms.append(a[n - 1] * norms[-1])
    return norms


def reproduces(b, a, norms, moments):
    """True when (b, a, norms) is the monic recurrence of `moments`.

    n coefficients b_0..b_{n-1} are fixed by moments 0..2n-1; comparing
    those moments and the norm chain certifies every returned value.
    """
    n = len(b)
    if len(a) != n - 1 or len(norms) != n or len(moments) < 2 * n:
        return False
    if recurrence_norms(a, moments[0], n) != list(norms):
        return False
    return recurrence_moments(b, a, moments[0], 2 * n) == list(moments[: 2 * n])


def christoffel_moments(u, c):
    """(x - c) u."""
    return [u[n + 1] - c * u[n] for n in range(len(u) - 1)]


def geronimus_moments(u, c, m0):
    """v with (x - c) v = u and v_0 = m0."""
    v = [m0]
    for n in range(len(u)):
        v.append(c * v[n] + u[n])
    return v


def quadratic_geronimus_moments(u, c, m0, m1):
    """v with (x - c)^2 v = u, v_0 = m0 and v_1 = m1."""
    v = [m0, m1]
    for n in range(len(u)):
        v.append(2 * c * v[n + 1] - c * c * v[n] + u[n])
    return v


def inverse_moments(u):
    """Convolution inverse: sum_k u_{n-k} v_k = [n == 0]."""
    v = [1 / u[0]]
    for n in range(1, len(u)):
        v.append(-sum(u[n - k] * v[k] for k in range(n)) / u[0])
    return v


def origin_wronskians_nonzero(b, a, top):
    """Whether the convolution inverse of the recurrence's functional is
    quasi-definite through level `top`: b_0^2 + a_1 != 0 and
    W(P_n, P_{n-1})(0) != 0 for 2 <= n <= top, from P_n(0) and P_n'(0).
    """
    if b[0] * b[0] + a[0] == 0:
        return False
    p_prev, p = Fraction(1), -b[0]
    d_prev, d = Fraction(0), Fraction(1)
    for n in range(1, top + 1):
        if n >= 2 and p * d_prev - d * p_prev == 0:
            return False
        p_prev, p = p, -b[n] * p - a[n - 1] * p_prev
        d_prev, d = d, p_prev - b[n] * d - a[n - 1] * d_prev
    return True


def lu_matches(b, a, c, ell, beta, new_b, new_a):
    """J - cI = L U (unit lower L with `ell`, upper U with `beta` and unit
    superdiagonal) on the full truncation, and U L + cI has the returned
    recurrence on its exact (size - 1) block."""
    n = len(beta)
    if len(ell) != n - 1 or len(new_b) != n - 1 or len(new_a) != max(n - 2, 0):
        return False
    if beta[0] != b[0] - c:
        return False
    for i in range(1, n):
        if ell[i - 1] * beta[i - 1] != a[i - 1] or ell[i - 1] + beta[i] != b[i] - c:
            return False
    if any(new_b[k] != beta[k] + ell[k] + c for k in range(n - 1)):
        return False
    return all(new_a[k - 1] == beta[k] * ell[k - 1] for k in range(1, n - 1))


def ul_matches(b, a, c, beta0, ell, beta, new_b, new_a):
    """J - cI = U L with U's corner fixed to beta0, and L U + cI has the
    returned recurrence."""
    n = len(beta)
    if len(ell) != n - 1 or len(new_b) != n or len(new_a) != n - 1:
        return False
    if beta[0] != beta0:
        return False
    for i in range(n - 1):
        if beta[i] + ell[i] != b[i] - c or beta[i + 1] * ell[i] != a[i]:
            return False
    if new_b[0] != beta[0] + c:
        return False
    if any(new_b[k] != beta[k] + ell[k - 1] + c for k in range(1, n)):
        return False
    return all(new_a[k - 1] == ell[k - 1] * beta[k - 1] for k in range(1, n))


def _band_product(left, right, size):
    """Dense product of two matrices given as {(i, j): value} dicts."""
    out = {}
    for (i, k), x in left.items():
        for j in range(size):
            y = right.get((k, j))
            if y is not None:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return out


def triband_matches(b, a, c, sub1, sub2, diag, super1):
    """(J - cI)^2 = U L on the leading (size - 2) block, for L unit lower
    with two subdiagonals and U upper with `diag`, `super1` and an
    all-ones second superdiagonal."""
    size = len(diag)
    if len(sub1) != size - 1 or len(sub2) != size - 2 or len(super1) != size - 1:
        return False
    shifted = {(i, i): b[i] - c for i in range(size)}
    for i in range(size - 1):
        shifted[(i, i + 1)] = Fraction(1)
        shifted[(i + 1, i)] = a[i]
    square = _band_product(shifted, shifted, size)
    lower = {(i, i): Fraction(1) for i in range(size)}
    lower.update({(i + 1, i): x for i, x in enumerate(sub1)})
    lower.update({(i + 2, i): x for i, x in enumerate(sub2)})
    upper = {(i, i): x for i, x in enumerate(diag)}
    upper.update({(i, i + 1): x for i, x in enumerate(super1)})
    upper.update({(i, i + 2): Fraction(1) for i in range(size - 2)})
    product = _band_product(upper, lower, size)
    block = size - 2
    return all(
        square.get((i, j), 0) == product.get((i, j), 0)
        for i in range(block)
        for j in range(block)
    )
