"""Division by (x - c)^2 and the tri-band factorizations it induces.

The transformed SMOP lives three terms wide over the original one: Q = L P
with L unit lower tri-band, and (x - c)^2 P = U Q with U upper tri-band.
Consequently (J - cI)^2 = U L and (Jhat - cI)^2 = L U on the reliable
truncation blocks.  The same structure, at c = 0 and with the prescribed
masses coming from the inverse functional, factors the squared Jacobi
matrices of the first-associated and inverse SMOPs.
"""

from . import functional as fa
from .associated import (
    associated_polys,
    inverse_connection,
    inverse_functional_identity_check,
    inverse_recurrence,
    inverse_smop,
)
from .errors import DegenerateParameter, NotQuasiDefinite
from .matrices import (
    UnitLowerTriband,
    UpperTriband,
    common_reliable,
    equal_on_block,
    first_block_mismatch,
    mat_multiply,
    mat_power,
    shifted,
    solve_unit_lower,
)
from .orthopoly import (
    OrthogonalSystem,
    RecurrenceCoefficients,
    jacobi_matrix,
    polys_from_recurrence,
    smop_from_moments,
)
from .poly import Polynomial, X, derivatives_at, wronskian
from .rational import rat
from .reports import CheckReport


def _kernel_data(u, c, m0, m1, n_top):
    """Shared scaffolding: base SMOP, first associated, S_n, and T_n = S'_n(c) + m0 P_n(c).

    S_n = (m1 - c m0) P_n + u_0 P^(1)_{n-1} spans the kernel of the map
    back to u; its values and derivatives at c drive every determinant
    below.  Returns (rc, base, S list, S(c) list, T list).
    """
    c = rat(c)
    m0 = rat(m0)
    m1 = rat(m1)
    if m0 == 0:
        raise DegenerateParameter("the transformed functional needs a nonzero mass m0")
    u0 = u.moments[0]
    rc, _ = smop_from_moments(u, n_top)
    base = polys_from_recurrence(rc, n_top)
    first = associated_polys(rc, 1, n_top - 1)
    weight = m1 - c * m0
    s_polys = [Polynomial((weight,))]
    for n in range(1, n_top + 1):
        s_polys.append(weight * base[n] + u0 * first[n - 1])
    s_at_c = []
    t_at_c = []
    for n in range(n_top + 1):
        sc, dsc = derivatives_at(s_polys[n], c, 1)
        pc = base[n](c)
        s_at_c.append(sc)
        t_at_c.append(dsc + m0 * pc)
    return rc, base, s_polys, s_at_c, t_at_c


def _d_star(s_at_c, t_at_c, n):
    """The 2x2 determinant steering level n (defined for n >= 2)."""
    return s_at_c[n - 2] * t_at_c[n - 1] - s_at_c[n - 1] * t_at_c[n - 2]


def quadratic_geronimus_smop(u, c, m0, m1, n_max):
    """SMOP of the functional with (x - c)^2 v = u, v_0 = m0, v_1 = m1.

    Q_0 = 1, Q_1 = x - m1/m0; higher degrees come from a 3x3 determinant
    mixing P_n, P_{n-1}, P_{n-2} with values of S and S' + m0 P at c,
    normalized by d*_n.  Norms are evaluated against the transformed
    moments.

    Returns (system, d_star) with d_star[n] for n = 2..n_max+1.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    c = rat(c)
    m0 = rat(m0)
    m1 = rat(m1)
    n_top = n_max + 1
    _, base, _, s_at_c, t_at_c = _kernel_data(u, c, m0, m1, n_top)
    d_star = {}
    for n in range(2, n_max + 2):
        d = _d_star(s_at_c, t_at_c, n)
        if d == 0 and n <= n_max:
            raise NotQuasiDefinite(n, guard="d_star")
        d_star[n] = d
    polys = [Polynomial((1,)), X - m1 / m0]
    for n in range(2, n_max + 1):
        minor_n = t_at_c[n - 1] * s_at_c[n - 2] - t_at_c[n - 2] * s_at_c[n - 1]
        minor_n1 = t_at_c[n] * s_at_c[n - 2] - t_at_c[n - 2] * s_at_c[n]
        minor_n2 = t_at_c[n] * s_at_c[n - 1] - t_at_c[n - 1] * s_at_c[n]
        q = (base[n] * minor_n - base[n - 1] * minor_n1 + base[n - 2] * minor_n2) * (
            1 / d_star[n]
        )
        polys.append(q)
    v = fa.quadratic_geronimus(u, c, m0, m1)
    norms = [fa.apply(v, p * p) for p in polys[:-1]]
    return OrthogonalSystem(polys, norms), d_star


def quadratic_connection(u, c, m0, m1, n_max):
    """Connection coefficients Q_n = P_n + alpha1[n] P_{n-1} + alpha2[n] P_{n-2}.

    alpha1[1] = b_0 - m1/m0; for n >= 2 both coefficients are determinant
    ratios: alpha2[n] = d*_{n+1}/d*_n and alpha1[n] trades the middle
    column for the outer ones.
    """
    c = rat(c)
    m0 = rat(m0)
    m1 = rat(m1)
    n_top = n_max + 1
    rc, base, s_polys, s_at_c, t_at_c = _kernel_data(u, c, m0, m1, n_top)
    d_star = {n: _d_star(s_at_c, t_at_c, n) for n in range(2, n_max + 2)}
    for n in range(2, n_max + 1):
        if d_star[n] == 0:
            raise NotQuasiDefinite(n, guard="d_star")
    alpha1 = {1: rc.b_at(0) - m1 / m0}
    alpha2 = {}
    for n in range(2, n_max + 1):
        num = t_at_c[n] * s_at_c[n - 2] - t_at_c[n - 2] * s_at_c[n]
        alpha1[n] = -num / d_star[n]
        alpha2[n] = d_star[n + 1] / d_star[n]
    return alpha1, alpha2, d_star


def quadratic_recurrence(u, c, m0, m1, n_max):
    """Recurrence of the transformed SMOP from the connection coefficients.

    bhat_n = b_n + alpha1[n] - alpha1[n+1]; ahat_1 and ahat_2 have closed
    forms in the masses, and ahat_n = (alpha2[n]/alpha2[n-1]) a_{n-2} for
    n >= 3.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    c = rat(c)
    m0 = rat(m0)
    m1 = rat(m1)
    alpha1, alpha2, _ = quadratic_connection(u, c, m0, m1, n_max + 1)
    rc, _ = smop_from_moments(u, n_max + 1)
    u0 = u.moments[0]
    weight = m1 - c * m0
    denom = u0 * m0 - weight * weight
    if denom == 0:
        raise NotQuasiDefinite(1, guard="u_0 m_0 - (m_1 - c m_0)^2")
    bs = [rc.b_at(0) - alpha1[1]]
    for n in range(1, n_max):
        bs.append(rc.b_at(n) + alpha1[n] - alpha1[n + 1])
    a_s = []
    if n_max >= 2:
        a_s.append(denom / (m0 * m0))
    if n_max >= 3:
        a_s.append(u0 * m0 * alpha2[2] / denom)
    for n in range(3, n_max):
        a_s.append(alpha2[n] / alpha2[n - 1] * rc.a_at(n - 2))
    return RecurrenceCoefficients(bs, a_s)


def quadratic_factorization(u, c, m0, m1, size):
    """Tri-band factors: Q = L P and (x - c)^2 P = U Q on a size-N truncation.

    L carries the connection coefficients; U's entries are Wronskian
    ratios of consecutive Q's at c (the second superdiagonal is all
    ones).  Returns (L, U); `quadratic_factorization_check` certifies them.
    """
    if size < 2:
        raise ValueError("need size >= 2")
    c = rat(c)
    m0 = rat(m0)
    m1 = rat(m1)
    alpha1, alpha2, _ = quadratic_connection(u, c, m0, m1, size - 1)
    system, _ = quadratic_geronimus_smop(u, c, m0, m1, size + 1)
    q_polys = system.polys
    sub1 = [alpha1[n] for n in range(1, size)]
    sub2 = [alpha2[n] for n in range(2, size)]
    lower = UnitLowerTriband(size, sub1, sub2)
    wr = {
        n: wronskian(q_polys[n], q_polys[n + 1], c) for n in range(size + 1)
    }
    for n in range(size + 1):
        if wr[n] == 0:
            raise NotQuasiDefinite(n, guard="W(Q_{n+1}, Q_n)(c)")
    diag = [wr[n + 1] / wr[n] for n in range(size)]
    super1 = [-wronskian(q_polys[n], q_polys[n + 2], c) / wr[n] for n in range(size - 1)]
    return lower, UpperTriband(size, diag, super1)


def _triband_failure(base, q_polys, lower, upper, c):
    """Where Q = L P or (x - c)^2 P = U Q first fails degree by degree, or None."""
    for n in range(lower.size):
        rhs = base[n]
        if n >= 1:
            rhs = rhs + lower.sub1[n - 1] * base[n - 1]
        if n >= 2:
            rhs = rhs + lower.sub2[n - 2] * base[n - 2]
        if q_polys[n] != rhs:
            return {"part": "Q = L P", "level": n}
    for n in range(upper.size - 1):
        lhs = (X - c) * (X - c) * base[n]
        rhs = q_polys[n + 2] + upper.super1[n] * q_polys[n + 1] + upper.diag[n] * q_polys[n]
        if lhs != rhs:
            return {"part": "(x - c)^2 P = U Q", "level": n}
    return None


def _squares_failure(parts, left, right, lower, upper):
    """Where left^2 = U L or right^2 = L U first fails on its reliable block, or None.

    `parts` names the two identities for the failure record.
    """
    l_band = lower.to_band()
    u_band = upper.to_band()
    for part, m, product in zip(parts, (left, right), ((u_band, l_band), (l_band, u_band))):
        square = mat_power(m, 2)
        swapped = mat_multiply(*product)
        block = common_reliable(square, swapped)
        if not equal_on_block(square, swapped, block):
            return {"part": part, "block": first_block_mismatch(square, swapped, block)}
    return None


def quadratic_factorization_check(u, c, m0, m1, size):
    """Identity "propLUinversa": the tri-band factors against the transform's moments.

    The factors come from determinants and Wronskians at c; Jhat and Q
    come from the moments of (x - c)^{-2} u by the Chebyshev algorithm.
    Checks Q = L P and (x - c)^2 P = U Q degree by degree, then
    (J - cI)^2 = U L and (Jhat - cI)^2 = L U on the reliable blocks.
    """
    c = rat(c)
    lower, upper = quadratic_factorization(u, c, m0, m1, size)
    rc, _ = smop_from_moments(u, size)
    hat_rc, _ = smop_from_moments(fa.quadratic_geronimus(u, c, m0, m1), size)
    failure = _triband_failure(
        polys_from_recurrence(rc, size - 1), polys_from_recurrence(hat_rc, size), lower, upper, c
    ) or _squares_failure(
        ("(J - cI)^2 = U L", "(Jhat - cI)^2 = L U"),
        shifted(jacobi_matrix(rc, size), c),
        shifted(jacobi_matrix(hat_rc, size), c),
        lower,
        upper,
    )
    if failure:
        return CheckReport.failing("propLUinversa", size, failure)
    ul_block = size - 2
    lu_block = size - 1
    return CheckReport.passing(
        "propLUinversa",
        size,
        c=str(rat(c)),
        m0=str(rat(m0)),
        m1=str(rat(m1)),
        ul_block=ul_block,
        lu_block=lu_block,
    )


def quadratic_connection_check(u, c, m0, m1, n_max):
    """Identity "conex2": (x - c)^2 P_n = Q_{n+2} + beta_{n,n+1} Q_{n+1} + beta_{n,n} Q_n."""
    c = rat(c)
    m0 = rat(m0)
    m1 = rat(m1)
    system, _ = quadratic_geronimus_smop(u, c, m0, m1, n_max + 2)
    q_polys = system.polys
    rc, _ = smop_from_moments(u, n_max + 1)
    base = polys_from_recurrence(rc, n_max)
    failure = None
    for n in range(n_max + 1):
        wn = wronskian(q_polys[n], q_polys[n + 1], c)
        if wn == 0:
            failure = {"level": n, "reason": "W(Q_{n+1}, Q_n)(c) = 0"}
            break
        beta_nn = wronskian(q_polys[n + 1], q_polys[n + 2], c) / wn
        beta_n_up = -wronskian(q_polys[n], q_polys[n + 2], c) / wn
        lhs = (X - c) * (X - c) * base[n]
        rhs = q_polys[n + 2] + beta_n_up * q_polys[n + 1] + beta_nn * q_polys[n]
        if lhs != rhs:
            failure = {"level": n}
            break
    if failure:
        return CheckReport.failing("conex2", n_max, failure, c=str(c))
    return CheckReport.passing("conex2", n_max, c=str(c), m0=str(m0), m1=str(m1))


def assoc_inverse_factorization(u, size):
    """Tri-band factors linking the first-associated and inverse SMOPs at c = 0.

    L's entries are Wronskian ratios of the base SMOP at 0 (the inverse
    connection); U's are Wronskian ratios of the inverse SMOP at 0.
    Returns (L, U); `assoc_inverse_factorization_check` certifies them.
    """
    if size < 2:
        raise ValueError("need size >= 2")
    alpha1, alpha2, _ = inverse_connection(u, size - 1)
    sub1 = [alpha1[n] for n in range(1, size)]
    sub2 = [alpha2[n] for n in range(2, size)]
    lower = UnitLowerTriband(size, sub1, sub2)
    inv_system, _ = inverse_smop(u, size + 1)
    p_minus = inv_system.polys
    wr = {n: wronskian(p_minus[n], p_minus[n + 1], 0) for n in range(size + 1)}
    for n in range(size + 1):
        if wr[n] == 0:
            raise NotQuasiDefinite(n, guard="W(P-_{n+1}, P-_n)(0)")
    diag = [wr[n + 1] / wr[n] for n in range(size)]
    super1 = [-wronskian(p_minus[n], p_minus[n + 2], 0) / wr[n] for n in range(size - 1)]
    return lower, UpperTriband(size, diag, super1)


def assoc_inverse_factorization_check(u, norm1, size):
    """Identity "relationlu": (J^(1))^2 = U L and (J^-)^2 = L U on reliable blocks.

    J^(1) is the shifted recurrence of u and J^- comes from
    `inverse_recurrence`, neither from the factors.  The first-associated
    scaling identity "fu1" at norm1 rides along.
    """
    lower, upper = assoc_inverse_factorization(u, size)
    rc, _ = smop_from_moments(u, size + 1)
    failure = _squares_failure(
        ("(J^(1))^2 = U L", "(J^-)^2 = L U"),
        jacobi_matrix(rc.shifted(1), size),
        jacobi_matrix(inverse_recurrence(u, size), size),
        lower,
        upper,
    )
    if failure is None:
        scaling = inverse_functional_identity_check(u, norm1)
        if not scaling.passed:
            failure = dict(part="fu1", **scaling.first_failure)
    if failure:
        return CheckReport.failing("relationlu", size, failure)
    return CheckReport.passing(
        "relationlu",
        size,
        norm1=str(rat(norm1)),
        ul_block=size - 2,
        lu_block=size - 1,
    )


def g_matrix_check(u, size):
    """Identity "g-matrix": G = L^{-1} J^- satisfies L G = J^- and G L = J^(1).

    L G = J^- holds exactly on the whole truncation (forward substitution
    never looks ahead); G is dense, so G L is only certified on the
    leading size-2 block — vacuously true at size 2.
    """
    if size < 2:
        raise ValueError("need size >= 2")
    alpha1, alpha2, _ = inverse_connection(u, size - 1)
    lower = UnitLowerTriband(
        size, [alpha1[n] for n in range(1, size)], [alpha2[n] for n in range(2, size)]
    )
    rc, _ = smop_from_moments(u, size + 1)
    j_first = jacobi_matrix(rc.shifted(1), size)
    j_minus = jacobi_matrix(inverse_recurrence(u, size), size)
    g = solve_unit_lower(lower.to_band(), j_minus.to_dense())
    lg = mat_multiply(lower.to_band(), g)
    if not equal_on_block(lg, j_minus, lg.size):
        return CheckReport.failing("g-matrix", size, {"part": "L G = J^-"})
    gl = mat_multiply(g, lower.to_band())
    block = common_reliable(gl, j_first)
    if not equal_on_block(gl, j_first, block):
        return CheckReport.failing(
            "g-matrix",
            block,
            {"part": "G L = J^(1)", "block": first_block_mismatch(gl, j_first, block)},
        )
    return CheckReport.passing("g-matrix", size, gl_block=block)
