"""Division by (x - c)^2 and the tri-band factorizations it induces.

The transformed SMOP lives three terms wide over the original one: Q = L P
with L unit lower tri-band, and (x - c)^2 P = U Q with U upper tri-band.
Consequently (J - cI)^2 = U L and (Jhat - cI)^2 = L U on the leading
blocks that truncation leaves exact.  Every producer here reads its
result off one O(n) kernel over values and slopes at c
(`associated.quadratic_kernel`).  The inverse functional is the same
division at c = 0 (`inverse_kernel`), so the same code factors the
squared Jacobi matrices of the first-associated and inverse SMOPs.  The
checks build no polynomial: they compare band identities (J U = U Jhat).
"""

from . import functional as fa
from .associated import _fu1_route, inverse_kernel, quadratic_kernel
from .errors import DegenerateParameter, ZeroFirstMoment
from .matrices import (
    UnitLowerTriband,
    UpperTriband,
    connection_level,
    first_block_mismatch,
    shifted,
)
from .orthopoly import (
    OrthogonalSystem,
    _read_deepest,
    jacobi_matrix,
    kernel_values,
    smop_from_moments,
    values_and_slopes,
)
from .rational import ZERO, Rational, rat
from .reports import CheckReport


def _division(u, c, m0, m1, n_max):
    """`quadratic_kernel` for (x - c)^2 v = u with v_0 = m0 and v_1 = m1.

    S_n(c) = (m1 - c m0) P_n(c) + u_0 P^(1)_{n-1}(c) and
    T_n = S_n'(c) + m0 P_n(c), n = 0..n_max, are the kernel values at c
    of u's recurrence (`orthopoly.kernel_values`), integers over one
    denominator per level.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    c, m0, m1 = rat(c), rat(m0), rat(m1)
    if m0 == 0:
        raise DegenerateParameter("the transformed functional needs a nonzero mass m0")
    u0 = u.moment(0)
    rc, _ = smop_from_moments(u, n_max + 1)
    s, t, den = kernel_values(rc, c, m1 - c * m0, u0, m0, n_max)
    return quadratic_kernel(rc, u0, c, m0, m1, s, t, den, n_max)


def quadratic_geronimus_smop(u, c, m0, m1, n_max):
    """SMOP of the functional with (x - c)^2 v = u, v_0 = m0, v_1 = m1.

    Q_0 = 1, Q_1 = x - m1/m0, and Q_n = P_n + alpha1[n] P_{n-1} +
    alpha2[n] P_{n-2}, with the connection coefficients that
    `quadratic_factorization` returns as its L factor.
    The system holds the kernel's recurrence and norms, not norms taken
    against the transformed moments, and builds the polynomials when
    they are read.

    Returns (system, d_star) with d_star[n] for n = 2..n_max+1.
    """
    kernel = _division(u, c, m0, m1, n_max)
    return OrthogonalSystem(kernel.recurrence, kernel.norms), kernel.d_star


def quadratic_recurrence(u, c, m0, m1, n_max):
    """Recurrence of the transformed SMOP from the connection coefficients.

    bhat_0 = m1/m0, bhat_n = b_n + alpha1[n] - alpha1[n+1], and
    ahat_n = K_n / K_{n-1} with the norms of `quadratic_kernel`, so
    ahat_1 = (u_0 m0 - (m1 - c m0)^2)/m0^2.  Needs 2*n_max + 2 moments
    and guards d*_2..d*_{n_max}, the levels the result reads.
    """
    return _division(u, c, m0, m1, n_max).recurrence


def _factors(kernel, b, c, size):
    """The size-N tri-band factors L and U from a kernel with n_max >= N.

    b is the diagonal of the divided functional's recurrence.  L carries
    the connection coefficients.  U is (x - c)^2 P_n = Q_{n+2} +
    super1[n] Q_{n+1} + diag[n] Q_n: pairing with Q_n under the
    transformed functional gives diag[n] = k_n/K_n, with k the norms of
    the divided functional and K those of the transformed one, and the
    x^{n+1} coefficients give super1[n] = b_n + b_{n+1} - 2c - alpha1[n+2].
    The kernel leaves U to this function, so producers that need only
    the recurrence or the connection do not pay for it.
    """
    diag = [k / norm for k, norm in zip(kernel.base_norms[:size], kernel.norms)]
    super1 = [b[n] + b[n + 1] - 2 * c - kernel.alpha1[n + 2] for n in range(size - 1)]
    return _lower_factor(kernel, size), UpperTriband(size, diag, super1)


def _lower_factor(kernel, size):
    """The size-N unit lower tri-band L of a kernel's connection coefficients."""
    return UnitLowerTriband(
        size,
        [kernel.alpha1[n] for n in range(1, size)],
        [kernel.alpha2[n] for n in range(2, size)],
    )


def quadratic_factorization(u, c, m0, m1, size):
    """Tri-band factors: Q = L P and (x - c)^2 P = U Q on a size-N truncation.

    L carries the connection coefficients and U the kernel's norm ratios
    and coefficient differences (its second superdiagonal is all ones).
    Needs 2*size + 2 moments and guards d*_2..d*_size.  Returns (L, U);
    `quadratic_factorization_check` certifies them.
    """
    if size < 2:
        raise ValueError("need size >= 2")
    kernel = _division(u, c, m0, m1, size)
    rc, _ = smop_from_moments(u, size + 1)
    return _factors(kernel, rc.b, rat(c), size)


def _connection_failure(j, j_hat, lower, upper):
    """Where Q = L P or (x - c)^2 P = U Q first fails, as a record, or None.

    Q = L P is Jhat L = L J on the leading size - 1 rows, the exact ones
    (`connection_level`); level 0, Q_0 = P_0, holds by construction.
    """
    level = connection_level(j_hat, lower.to_band(), j, lower.size - 1)
    if level is not None:
        return {"part": "Q = L P", "level": level}
    return _upper_failure(j, j_hat, upper, part="(x - c)^2 P = U Q")


def _upper_failure(j, j_hat, upper, **part):
    """Where (x - c)^2 P = U Q first fails, as `part` and the level, or None.

    With J and Jhat shifted by c, level 0, y^2 = Q_2 + super1[0] Q_1 +
    diag[0] in y = x - c, holds when super1[0] = Jhat_00 + Jhat_11 and
    diag[0] = Jhat_00^2 + Jhat_10; no level reads U's last diagonal entry.
    """
    b0, b1, a1 = j_hat.entry(0, 0), j_hat.entry(1, 1), j_hat.entry(1, 0)
    if (upper.super1[0], upper.diag[0]) != (b0 + b1, b0 * b0 + a1):
        return {**part, "level": 0}
    level = connection_level(j, upper.to_band(), j_hat, upper.size - 2)
    return None if level is None else {**part, "level": level}


def _squares_failure(parts, left, right, lower, upper):
    """Where left^2 = U L or right^2 = L U first fails on its exact block, or None.

    U L is compared on the leading size - 2 block and L U on size - 1,
    the blocks the passing records report: a row of a truncated product
    is exact when its left factor reaches no column past the size, and
    U reaches two columns past the diagonal, a Jacobi matrix one.  The
    blocks follow from the sizes alone, also at size 2, where the second
    off-diagonals of L and U are cut off.  `parts` names the two
    identities for the failure record.
    """
    size = lower.size
    l_band = lower.to_band()
    u_band = upper.to_band()
    for part, m, product, block in zip(
        parts, (left, right), ((u_band, l_band), (l_band, u_band)), (size - 2, size - 1)
    ):
        bad = first_block_mismatch((m, m), product, block)
        if bad is not None:
            return {"part": part, "block": bad}
    return None


def quadratic_factorization_check(u, c, m0, m1, size):
    """Identity "propLUinversa": the tri-band factors against the transform's moments.

    The factors come from the kernel at c; J and Jhat from the moments
    of u and (x - c)^{-2} u by the Chebyshev algorithm.  Q = L P (Q_0 =
    P_0) is Jhat L = L J on the leading size - 1 rows, the exact ones,
    and row n names level n + 1 (`_connection_failure`).  J U = U Jhat
    fixes a level of (x - c)^2 P = U Q only once level 0 holds, so level
    0 is compared on its own, then the exact rows 0..size - 3 decide
    levels 1..size - 2 (`_upper_failure`).  Then (J - cI)^2 = U L and
    (Jhat - cI)^2 = L U on exact blocks (`_squares_failure`).
    """
    c, m0, m1 = rat(c), rat(m0), rat(m1)
    lower, upper = quadratic_factorization(u, c, m0, m1, size)
    rc, _ = smop_from_moments(u, size)
    hat_rc, _ = smop_from_moments(fa.quadratic_geronimus(u, c, m0, m1), size)
    j = shifted(jacobi_matrix(rc, size), c)
    j_hat = shifted(jacobi_matrix(hat_rc, size), c)
    failure = _connection_failure(j, j_hat, lower, upper) or _squares_failure(
        ("(J - cI)^2 = U L", "(Jhat - cI)^2 = L U"), j, j_hat, lower, upper
    )
    if failure:
        return CheckReport.failing("propLUinversa", size, failure)
    return CheckReport.passing(
        "propLUinversa",
        size,
        c=str(c),
        m0=str(m0),
        m1=str(m1),
        ul_block=size - 2,
        lu_block=size - 1,
    )


def quadratic_connection_check(u, c, m0, m1, n_max):
    """Identity "conex2": (x - c)^2 P_n = Q_{n+2} + beta_{n,n+1} Q_{n+1} + beta_{n,n} Q_n.

    The betas solve its value and slope at c by Cramer's rule, with
    W_{i,k} = W(Q_i, Q_k)(c): beta_{n,n} = W_{n+1,n+2} / W_{n,n+1} and
    beta_{n,n+1} = W_{n+2,n} / W_{n,n+1}.  `values_and_slopes` on the
    kernel's recurrence gives Q_m(c) = p[m] / den[m] and Q_m'(c) =
    dp[m] / den[m], so W_{i,k} = (p[i] dp[k] - dp[i] p[k]) / (den[i]
    den[k]).  The betas form U, certified as in propLUinversa with J and
    the kernel's Jhat at size n_max + 2: level 0 on its own, then levels
    1..n_max from J U = U Jhat; a zero W_{n,n+1} is named after those below.
    """
    c, m0, m1 = rat(c), rat(m0), rat(m1)
    q_rc = _division(u, c, m0, m1, n_max + 2).recurrence
    rc, _ = smop_from_moments(u, n_max + 2)
    p, dp, den = values_and_slopes(q_rc, c, n_max + 2)
    w = [p[m] * dp[m + 1] - dp[m] * p[m + 1] for m in range(n_max + 2)]
    diag, super1 = [], []
    for n in range(n_max + 1):
        if w[n] == 0:
            break
        scale = den[n + 2] * w[n]
        diag.append(Rational(w[n + 1] * den[n], scale))
        super1.append(Rational((p[n + 2] * dp[n] - dp[n + 2] * p[n]) * den[n + 1], scale))
    # W_{0,1} = 1, so size >= 2; U's last diagonal entry is a placeholder
    size = len(diag) + 1
    j, j_hat = (shifted(jacobi_matrix(r, size), c) for r in (rc, q_rc))
    failure = _upper_failure(j, j_hat, UpperTriband(size, diag + [ZERO], super1))
    if failure is None and size <= n_max + 1:
        failure = {"level": size - 1, "reason": "W(Q_{n+1}, Q_n)(c) = 0"}
    if failure:
        return CheckReport.failing("conex2", n_max, failure, c=str(c))
    return CheckReport.passing("conex2", n_max, c=str(c), m0=str(m0), m1=str(m1))


def assoc_inverse_factorization(u, size):
    """Tri-band factors linking the first-associated and inverse SMOPs at c = 0.

    The same L/U construction as `quadratic_factorization`, on `inverse_kernel`:
    L carries the inverse connection and U turns x^2 P^(1)_n into the
    inverse SMOP.  Needs 2*size + 2 moments and guards the inverse's
    levels up to size - 1.  Returns (L, U);
    `assoc_inverse_factorization_check` certifies them.
    """
    if size < 2:
        raise ValueError("need size >= 2")
    kernel = inverse_kernel(u, size)
    rc, _ = smop_from_moments(u, size + 1)
    return _factors(kernel, rc.b[1:], ZERO, size)


def assoc_inverse_factorization_check(u, norm1, size):
    """Identity "relationlu": (J^(1))^2 = U L and (J^-)^2 = L U on exact blocks.

    J^(1) is the shifted recurrence of u and J^- comes from the moments
    of u^{-1} by the Chebyshev algorithm, neither from the factors.  The
    first-associated scaling identity "fu1" at norm1 rides along, on the
    same u^{-1}.
    """
    if u.moment(0) == 0:
        raise ZeroFirstMoment("inverse transform needs u_0 != 0")
    # the factors, J^(1) and fu1 read one recurrence of u, fu1 the deepest
    _read_deepest(u, u.order // 2)
    rc, _ = smop_from_moments(u, size + 1)
    lower, upper = assoc_inverse_factorization(u, size)
    inverse = fa.invert(u)
    inverse_rc, _ = smop_from_moments(inverse, size)
    j_first, j_minus = jacobi_matrix(rc.shifted(1), size), jacobi_matrix(inverse_rc, size)
    failure = _squares_failure(("(J^(1))^2 = U L", "(J^-)^2 = L U"), j_first, j_minus, lower, upper)
    if failure is None:
        _, _, _, _, off = _fu1_route(u, rat(norm1), inverse)
        if off is not None:
            failure = {"part": "fu1", "moment": off}
    if failure:
        return CheckReport.failing("relationlu", size, failure)
    return CheckReport.passing(
        "relationlu", size, norm1=str(rat(norm1)), ul_block=size - 2, lu_block=size - 1
    )


def _g_matrix_failure(lower, j_first, j_minus):
    """Where G L = J^(1) first fails on the leading size - 2 block, or None.

    G = L^{-1} J^- is not formed: L is unit lower triangular, so on every
    leading k-block G L - J^(1) = L^{-1} (J^- L - L J^(1)), and one side
    vanishes exactly when the other does.  The band products J^- L and
    L J^(1) therefore fail first at the same block as G L against J^(1).
    """
    l_band = lower.to_band()
    bad = first_block_mismatch((j_minus, l_band), (l_band, j_first), lower.size - 2)
    return None if bad is None else {"part": "G L = J^(1)", "block": bad}


def g_matrix_check(u, size):
    """Identity "g-matrix": G = L^{-1} J^- satisfies G L = J^(1).

    L is the inverse connection as a unit lower tri-band factor, so the
    identity is the band identity J^- L = L J^(1) (`_g_matrix_failure`);
    L G = J^- holds by construction of G.  The check runs on the leading
    size - 2 block: L reaches two rows below its diagonal, so a truncated
    product with L on the right is exact on its first size - 2 columns;
    at size 2 the block is empty.  As in relationlu, L comes from
    `inverse_kernel` and J^- from the moments of u^{-1} by the Chebyshev
    algorithm, so a kernel that disagrees with those moments is a
    failing record.  Needs 2*size + 2 moments.
    """
    if size < 2:
        raise ValueError("need size >= 2")
    lower = _lower_factor(inverse_kernel(u, size), size)
    rc, _ = smop_from_moments(u, size + 1)
    j_first = jacobi_matrix(rc.shifted(1), size)
    inverse_rc, _ = smop_from_moments(fa.invert(u), size)
    failure = _g_matrix_failure(lower, j_first, jacobi_matrix(inverse_rc, size))
    block = size - 2
    if failure:
        return CheckReport.failing("g-matrix", block, failure)
    return CheckReport.passing("g-matrix", size, gl_block=block)
