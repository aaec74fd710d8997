"""How degree-one transformations interact with the associated map.

Multiplying by (x - c) and then passing to the first associated sequence
is, up to a co-recursive perturbation, the same as doing those steps in
the other order; dividing by (x - c) has a mirror-image story.  Each
statement below is checked along two independently computed routes, on
recurrences and Jacobi matrices rather than built polynomials.  Two
families that obey the same rows from n = 1 on agree once their members
0 and 1 do (pro5, S-corecursive), and a two-term connection between two
families is the band identity J_A M = M J_B on their Jacobi matrices
(gero1, gero2 and the connection check; `matrices.connection_level`).
The two chains compute what their checks share once: (x - c) u, the UL
elimination, and each functional's recurrence at the deepest depth a
check reads.
"""

from . import functional as fa
from .associated import associated_functional, corecursive_functional
from .darboux import _kernel_step_level, christoffel_lu, geronimus_ul
from .errors import (
    DegenerateParameter,
    NotQuasiDefinite,
    TruncationExhausted,
    ZeroPivot,
)
from .matrices import (
    UnitLowerBidiagonal,
    UpperBidiagonal,
    connection_level,
    first_block_mismatch,
    shift_cols_left,
    shift_rows_up,
    shifted,
)
from .orthopoly import (
    RecurrenceCoefficients,
    _read_deepest,
    first_moment_off,
    jacobi_matrix,
    smop_from_moments,
    values_and_slopes,
)
from .rational import ONE, ZERO, Rational, rat
from .reports import CheckReport, combine


def corecursive_parameter(u, c):
    """alpha = -a_1 u_0 / utilde_0, the perturbation matching the two routes."""
    c = rat(c)
    tilde0 = _tilde_first(u, c)
    rc, _ = smop_from_moments(u, 2)
    return -rc.a_at(1) * u.moment(0) / tilde0


def _tilde_first(u, c):
    """utilde_0 = u_1 - c u_0, the first moment (level-0 minor) of (x - c) u."""
    u0 = u.moment(0)
    tilde0 = u.moment(1) - c * u0
    if tilde0 == 0:
        raise NotQuasiDefinite(0, guard="norm")
    return tilde0


def _christoffel(u, c):
    """(x - c) u, once its first moment is known not to vanish."""
    _tilde_first(u, c)
    return fa.multiply_poly(u, (-c, ONE))


def _block_report(name, left, right, block):
    """The part `name`: left = right on the leading block of that size,
    each side a matrix or a pair of factors (`first_block_mismatch`)."""
    bad = first_block_mismatch(left, right, block)
    return CheckReport(
        name, "pass" if bad is None else "fail", block, None if bad is None else {"block": bad}
    )


def _jacobi(rc, size):
    """The Jacobi matrix of rc at a size up to rc.length + 1: a row past rc
    is zero, and a connection compares only rows that do not read it."""
    pad = (ZERO,)
    return jacobi_matrix(RecurrenceCoefficients(rc.b + pad, rc.a + pad), size)


def _level_report(name, n_max, level, c, **passing):
    """The record of a check that names the first failing level, or None."""
    if level is None:
        return CheckReport.passing(name, n_max, c=str(c), **passing)
    return CheckReport.failing(name, n_max, {"level": level}, c=str(c))


def christoffel_assoc_check(u, c, n_max):
    """Identity "pro5": the kernel-combination SMOP is co-recursive for u^(1)."""
    c = rat(c)
    scale = u.moment(0) / _tilde_first(u, c)
    rc, _ = smop_from_moments(u, n_max + 1)
    return _pro5(c, corecursive_parameter(u, c), n_max, rc, scale)


def _pro5(c, alpha, n_max, rc, scale):
    """pro5: R_n = scale [(x - c) P^(1)_n - P_{n+1}], n = 0..n_max, with
    scale = u_0/utilde_0 and P from u's recurrence rc, is the SMOP of
    u^(1) with b_0 moved by alpha.

    R_0 = scale (b_0 - c), and with R_0 = 1, R_1 = x - b_1 + scale a_1.
    From n = 1 on R obeys u^(1)'s rows, as P^(1)_n and P_{n+1} do, and so
    does the perturbed SMOP, so they agree once levels 0 and 1 do.
    """
    if scale * (rc.b[0] - c) != 1:
        level = 0
    elif n_max >= 1 and -scale * rc.a[0] != alpha:
        level = 1
    else:
        return CheckReport.passing("pro5", n_max, c=str(c), alpha=str(alpha))
    return CheckReport.failing("pro5", n_max, {"level": level}, c=str(c), alpha=str(alpha))


def _connection(c, n_max, rc, scale, tilde_rc):
    """Kernel-step connection for R (`_pro5`):
    (x - c) Ptilde^(1)_{n-1} = R_n + beta_n R_{n-1}, with beta_n =
    -P_{n+1}(c)/P_n(c) from the values at c of u's recurrence and
    Ptilde^(1) from tilde_rc, the recurrence of the transformed moments.
    With R_0 = 1, R is the SMOP of its formula's recurrence: u^(1)'s
    with b_0 = b_1 - scale a_1 (`_kernel_step_level`).  Level 1
    also certifies R_0 = scale (b_0 - c) = 1: beta_1 = b_1 - c +
    a_1/(c - b_0), so beta_1 = b_1 - scale a_1 - c exactly then (a_1 != 0).
    """
    p, _, den = values_and_slopes(rc, c, n_max + 1)
    # a tilde_rc too short to shift is reported ahead of a vanishing P_n(c)
    j_tilde = _jacobi(tilde_rc.shifted(1), n_max)
    if 0 in p[1 : n_max + 1]:
        raise ZeroPivot(p.index(0, 1))
    betas = [Rational(-p[n + 1] * den[n], den[n + 1] * p[n]) for n in range(1, n_max + 1)]
    j_r = rc.shifted(1).corecursive(-scale * rc.a[0])
    level = _kernel_step_level(j_tilde, betas, j_r, c, n_max)
    return _level_report("christoffel-assoc-connection", n_max, level, c)


def christoffel_assoc_functional_check(u, c):
    """Identity "coro1": associated-of-transformed equals transformed-of-perturbed.

    The associated functional of (x - c) u is produced from moments and
    compared, after normalization (the associated functionals' first
    moments are free), with (x - c) u_alpha, u_alpha the functional of
    the perturbed recurrence at first moment 1 (`_perturbed_moment_off`).
    """
    c = rat(c)
    return _coro1(u, c, _christoffel(u, c))


def _coro1(u, c, tilde_u):
    depth = u.order // 2
    # the deepest read of u comes first, so `corecursive_parameter` reads
    # its truncation; below 3 the read at 2 raises as it always did
    rc, _ = smop_from_moments(u, max(depth, 2))
    alpha = corecursive_parameter(u, c)
    if depth < 3:
        raise TruncationExhausted("need at least 6 moments for a meaningful check")
    # the moment route does not see a vanishing minor of (x - c) u beyond
    # level 1, so its recurrence is read to the depth the check compares
    smop_from_moments(tilde_u, depth - 1)
    rhs = associated_functional(tilde_u, 1, ONE, 2 * (depth - 2) - 1)
    order = rhs.order
    usable = _perturbed_moment_off(rhs, rc.shifted(1).corecursive(alpha), c, order)
    if usable is None:
        return CheckReport.passing(
            "coro1", order - 1, predicate="normalized", c=str(c), alpha=str(alpha)
        )
    return CheckReport.failing(
        "coro1", order - 1, {"moment": usable}, predicate="normalized", c=str(c)
    )


def _perturbed_moment_off(first, perturbed, c, order):
    """The first of `order` moments where `first` (first moment 1) and
    (x - c) u_alpha differ, normalized, or None; u_alpha has the perturbed
    recurrence and u_alpha_0 = 1, so (x - c) u_alpha has first moment
    b_0 - c.  Compares the recurrence of w with (x - c) w = (b_0 - c) first
    and w_0 = 1, whose moment m is moment m - 1 of (x - c) w.  Both
    callers have found b_0 - c nonzero before: coro1 reads it as level 1
    of (x - c) u (`NotQuasiDefinite(1)`), pro6 as the UL pivot ell_1
    (`ZeroPivot(1)`).
    """
    w = fa.geronimus(fa.scale(perturbed.b[0] - c, first), c, ONE)
    m = first_moment_off(w, perturbed, order + 1, ONE)
    return None if m is None else m - 1


def shifted_factor_check(u, c, size):
    """Identity "shifted-lu": tails of the factors refactor the perturbed matrix.

    With J - cI = L U from the multiplication step, dropping the leading
    row and column of each factor gives L_1, U_1 with
    L_1 U_1 = J_alpha - cI (exact on the whole truncation) and
    U_1 L_1 = Jtilde^(1) - cI (exact off the last row/column).  The
    scalar identity b_1 + alpha - c = beta_1 rides along.
    """
    c = rat(c)
    rc, _ = smop_from_moments(u, size + 1)
    lower, upper, transformed = christoffel_lu(rc, c)
    l1 = lower.shifted_tail().to_band()
    u1 = upper.shifted_tail().to_band()
    alpha = corecursive_parameter(u, c)
    perturbed = rc.shifted(1).corecursive(alpha)
    j_alpha = jacobi_matrix(perturbed, size)
    reports = []
    scalar_ok = rc.b_at(1) + alpha - c == upper.diag[1]
    reports.append(
        CheckReport(
            "corner-scalar",
            "pass" if scalar_ok else "fail",
            1,
            None if scalar_ok else {"lhs": str(rc.b_at(1) + alpha - c)},
        )
    )
    # lower times upper bidiagonal reads no entry past the size: all of it
    reports.append(_block_report("tail-product", (l1, u1), shifted(j_alpha, c), size))
    # U_1 L_1 lacks the last diagonal entry's term from past the size
    assoc_transformed = jacobi_matrix(transformed.shifted(1), size - 1)
    reports.append(
        _block_report("swapped-tail-product", (u1, l1), shifted(assoc_transformed, c), size - 1)
    )
    return combine("shifted-lu", reports, c=str(c), alpha=str(alpha))


def _nonzero_mass(m0):
    m0 = rat(m0)
    if m0 == 0:
        raise DegenerateParameter("the transformed functional needs a nonzero mass m0")
    return m0


def _s_corecursive(v, m0, n_max, rc, alpha):
    """The kernel sequence S_n = P_n + (v_0/m0) P^(1)_{n-1} is co-recursive
    of parameter alpha for v itself, as polynomials and as functionals.

    S_0 = 1, and from n = 1 on S obeys v's rows, as P_n and P^(1)_{n-1}
    do, and so does the perturbed SMOP, so they agree once S_1 =
    x - b_0 + v_0/m0 is x - b_0 - alpha.  The convolution route through
    v^{-1} - (1/m0) delta_0' must have the perturbed recurrence,
    normalized, on the 2 * n_max + 1 moments it fixes.
    """
    if n_max >= 1 and v.moment(0) / m0 != -alpha:
        return CheckReport.failing("S-corecursive", n_max, {"level": 1, "route": "polynomial"})
    k = first_moment_off(corecursive_functional(v, alpha), rc.corecursive(alpha), 2 * n_max + 1)
    if k is not None:
        return CheckReport.failing("S-corecursive", n_max, {"route": "functional", "moment": k})
    return CheckReport.passing("S-corecursive", n_max, alpha=str(alpha))


def _hat_first(v, c, m0, size):
    """Factorization route to the transformed functional's associated SMOP.

    Returns (rc, alpha, lower, upper, hat_rc): v's recurrence, the
    co-recursive parameter -v_0/m0 and the UL elimination at size + 1.
    """
    v0 = v.moment(0)
    rc, _ = smop_from_moments(v, size + 1)
    m0 = _nonzero_mass(m0)
    return (rc, -v0 / m0, *geronimus_ul(rc, rat(c), v0 / m0))


def geronimus_assoc_connection_check(v, c, m0, n_max):
    """Identity "gero1": (x - c) Phat^(1)_{n-1} = S_n + ell_n S_{n-1}.

    Phat^(1) comes from the shifted transformed recurrence (factorization
    route), the ell_n from the elimination, and S, the SMOP of v's
    recurrence with b_0 moved by alpha (`_s_corecursive`), from the
    kernel formula, so the three ingredients are independently produced.
    """
    c = rat(c)
    rc, alpha, lower, _, hat_rc = _hat_first(v, c, m0, n_max)
    return _gero1(c, m0, n_max, rc, alpha, lower, hat_rc)


def _gero1(c, m0, n_max, rc, alpha, lower, hat_rc):
    j_hat = _jacobi(hat_rc.shifted(1), n_max)
    level = _kernel_step_level(j_hat, lower.sub, rc.corecursive(alpha), c, n_max)
    return _level_report("gero1", n_max, level, c, m0=str(rat(m0)))


def geronimus_assoc_second_check(v, c, m0, n_max):
    """Identity "gero2": S_n = Phat^(1)_n + beta_n Phat^(1)_{n-1}.

    S = M Phat^(1), M unit lower bidiagonal with beta_1..beta_{n_max}
    below the diagonal; S_0 = Phat^(1)_0 = 1, so the rows of
    J_alpha M = M Jhat^(1) decide levels 1..n_max (`connection_level`).
    """
    c = rat(c)
    rc, alpha, _, upper, hat_rc = _hat_first(v, c, m0, n_max)
    return _gero2(c, m0, n_max, rc, alpha, upper, hat_rc)


def _gero2(c, m0, n_max, rc, alpha, upper, hat_rc):
    level = connection_level(
        jacobi_matrix(rc.corecursive(alpha), n_max + 1),
        UnitLowerBidiagonal(n_max + 1, upper.diag[1:]).to_band(),
        _jacobi(hat_rc.shifted(1), n_max + 1),
        n_max,
    )
    return _level_report("gero2", n_max, level, c, m0=str(rat(m0)))


def geronimus_assoc_factor_check(v, c, m0, size):
    """Identity "pro6": moments and shifted-factor identities for the division step.

    (i) the associated functional of the transform equals (x - c) times
    the co-recursive functional of parameter -v_0/m0, normalized, as in
    coro1 (`_perturbed_moment_off`); the transform is
    `fa.geronimus(v, c, m0)`, whose recurrence the elimination gives,
    since beta_0 = v_0/m0 (certified by (ii), (iii), gero1 and gero2);
    (ii) J_alpha - cI = Lhat Uhat with Lhat, Uhat the one-sided shifts
    of the elimination factors; (iii) Jhat^(1) - cI = Uhat Lhat; and the
    structural reading of Uhat as the pure index shift of L.
    """
    c = rat(c)
    m0 = _nonzero_mass(m0)
    return _pro6(v, c, m0, size, _hat_first(v, c, m0, size))


def _pro6(v, c, m0, size, hat):
    rc, alpha, lower, upper, hat_rc = hat
    reports = []
    # (i) normalized moment identity, on the 2 * size - 2 moments of
    # (x - c) v_alpha that the perturbed recurrence fixes
    lhs = associated_functional(fa.geronimus(v, c, m0), 1, ONE, 2 * size - 1)
    order = 2 * size - 2
    off = _perturbed_moment_off(lhs, rc.truncated(size).corecursive(alpha), c, order)
    reports.append(
        CheckReport(
            "moment-identity",
            "pass" if off is None else "fail",
            order - 1,
            None if off is None else {"moment": off},
            predicate="normalized",
        )
    )
    # (ii) and (iii): one-sided shifts of the factors
    l_hat = shift_cols_left(upper.to_band())
    u_hat = shift_rows_up(lower.to_band())
    j_alpha = jacobi_matrix(rc.corecursive(alpha), size + 1)
    # Uhat's unknown last row and Lhat's unknown last column meet only in
    # the corner of Lhat Uhat
    reports.append(_block_report("shifted-product", (l_hat, u_hat), shifted(j_alpha, c), size))
    # size - 1 as for shifted-lu's swapped tails, though Uhat Lhat is exact on size
    hat_assoc = jacobi_matrix(hat_rc.shifted(1), size)
    reports.append(
        _block_report("swapped-shifted-product", (u_hat, l_hat), shifted(hat_assoc, c), size - 1)
    )
    # all but Uhat's unknown last row
    structural = UpperBidiagonal(size + 1, lower.sub + (ZERO,)).to_band()
    reports.append(_block_report("shift-structure", u_hat, structural, size))
    return combine("pro6", reports, c=str(c), m0=str(m0), alpha=str(alpha))


def christoffel_assoc_chain(u, c, n_max):
    """All multiplication-side interplay checks, bundled, over one (x - c) u.

    u and (x - c) u run the Chebyshev algorithm once each, at the deepest
    depth a check reads (coro1's order/2 and order/2 - 1, the others'
    n_max + 1 and n_max); pro5 and the connection check read R off one
    recurrence of u.
    """
    c = rat(c)
    tilde_u = _christoffel(u, c)
    depth = u.order // 2
    _read_deepest(u, depth)
    _read_deepest(tilde_u, max(n_max, depth - 1))
    scale = u.moment(0) / _tilde_first(u, c)
    rc, _ = smop_from_moments(u, n_max + 1)
    alpha = corecursive_parameter(u, c)
    tilde_rc, _ = smop_from_moments(tilde_u, n_max)
    return [
        _pro5(c, alpha, n_max, rc, scale),
        _connection(c, n_max, rc, scale, tilde_rc),
        _coro1(u, c, tilde_u),
        shifted_factor_check(u, c, n_max),
    ]


def geronimus_assoc_chain(v, c, m0, n_max):
    """All division-side interplay checks, bundled, over one recurrence of v.

    The UL elimination runs once, for gero1, gero2 and pro6.  The mass is
    tested before the recurrence is read, so a zero m0 is reported ahead
    of a vanishing Hankel minor.
    """
    m0 = _nonzero_mass(m0)
    c = rat(c)
    hat = _hat_first(v, c, m0, n_max)
    rc, alpha, lower, upper, hat_rc = hat
    return [
        _s_corecursive(v, m0, n_max, rc, alpha),
        _gero1(c, m0, n_max, rc, alpha, lower, hat_rc),
        _gero2(c, m0, n_max, rc, alpha, upper, hat_rc),
        _pro6(v, c, m0, n_max, hat),
    ]
