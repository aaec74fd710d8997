"""JSON records for functionals, recurrences, factors and check chains.

Rationals travel as strings "p/q" so round trips stay exact.  Record
key order is fixed so identical inputs always serialize to identical
bytes (no timestamps, no environment data).
"""

import json

from .functional import MomentFunctional
from .rational import parse_rational, rat_str


def rational_list(values):
    return [rat_str(v) for v in values]


def parse_rational_list(items):
    return tuple(parse_rational(item) for item in items)


def moments_record(u):
    return {
        "label": u.label or "",
        "order": u.order,
        "moments": rational_list(u.moments),
    }


def functional_from_json(obj):
    """Accept either a bare list of rationals or a moments record."""
    if isinstance(obj, list):
        return MomentFunctional(parse_rational_list(obj))
    if isinstance(obj, dict) and "moments" in obj:
        u = MomentFunctional(
            parse_rational_list(obj["moments"]), label=obj.get("label", "")
        )
        if "order" in obj and obj["order"] != u.order:
            raise ValueError("order field disagrees with moment count")
        return u
    raise ValueError("expected a list of rationals or a moments record")


def recurrence_record(rc, norms=None):
    record = {
        "n": len(rc.b),
        "b": rational_list(rc.b),
        "a": rational_list(rc.a),
    }
    record["norms"] = rational_list(norms) if norms is not None else []
    return record


def factor_record(c, ell, beta, transformed_rc):
    return {
        "c": rat_str(c),
        "beta": rational_list(beta),
        "ell": rational_list(ell),
        "transformed_b": rational_list(transformed_rc.b),
        "transformed_a": rational_list(transformed_rc.a),
    }


def triband_record(lower, upper):
    return {
        "sub1": rational_list(lower.sub1),
        "sub2": rational_list(lower.sub2),
        "diag": rational_list(upper.diag),
        "super1": rational_list(upper.super1),
    }


def chain_record(chain, c, params, reports):
    return {
        "chain": chain,
        "c": rat_str(c),
        "params": params,
        "checks": [r.to_json() for r in reports],
    }


def dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


def loads(text):
    return json.loads(text)
