"""Shared helpers for the test suite: committed fixtures, family builders,
the Gram-Schmidt reference for moments to recurrence, and the rational
(one Fraction per entry) Chebyshev and inverse loops that the integer
kernels replaced, kept as references for the property tests."""

import json
from pathlib import Path

from opoly import functional as fa
from opoly.errors import NotQuasiDefinite, ZeroFirstMoment
from opoly.functional import MomentFunctional
from opoly.orthopoly import OrthogonalSystem, RecurrenceCoefficients
from opoly.poly import ONE_POLY, X
from opoly.serialize import functional_from_json, parse_rational_list
from opoly.rational import ZERO, parse_rational

FIXTURE_DIR = Path(__file__).parent / "fixtures"


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
    return RecurrenceCoefficients(bs, a_s), OrthogonalSystem(polys, norms)


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
