"""JSON records: exact rational round trips and deterministic output."""

import json

import pytest

from opoly import families
from opoly.functional import MomentFunctional
from opoly.orthopoly import RecurrenceCoefficients
from opoly.rational import rat
from opoly.serialize import (
    chain_record,
    dumps,
    factor_record,
    functional_from_json,
    loads,
    moments_record,
    parse_rational_list,
    rational_list,
    recurrence_record,
    triband_record,
)


def test_rational_list_round_trip():
    values = (rat(1), rat(-2, 3), rat(0), rat(7, 2))
    assert parse_rational_list(rational_list(values)) == values


def test_moments_record_round_trip():
    u = families.chebyshev_t(8)
    record = moments_record(u)
    assert record["label"] == "chebyshev-t"
    assert record["order"] == 8
    assert record["moments"][2] == "1/2"
    again = functional_from_json(record)
    assert again.moments == u.moments
    assert again.label == u.label


def test_unlabeled_functional_serializes_with_empty_label():
    u = MomentFunctional((rat(1), rat(2)))
    assert moments_record(u)["label"] == ""


def test_functional_from_bare_list():
    u = functional_from_json(["1", "-1/2", "0"])
    assert u.moments == (1, rat(-1, 2), 0)


def test_functional_from_json_ignores_extra_keys():
    obj = {"moments": ["1", "2"], "label": "x", "params": {"c": "3"}, "note": 7}
    u = functional_from_json(obj)
    assert u.moments == (1, 2)
    assert u.label == "x"


def test_functional_from_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        functional_from_json({"moments": ["1", "2"], "order": 3})
    with pytest.raises(ValueError):
        functional_from_json({"label": "no-moments"})
    with pytest.raises(ValueError):
        functional_from_json(["1", "garbage"])
    with pytest.raises(ZeroDivisionError):
        functional_from_json(["1", "1/0"])


def test_functional_from_json_accepts_unicode_minus():
    u = functional_from_json(["1", "−1/2"])
    assert u.moments == (1, rat(-1, 2))


def test_recurrence_record_round_trip():
    rc = RecurrenceCoefficients((rat(0), rat(1, 2)), (rat(1, 4),))
    record = recurrence_record(rc, norms=(rat(1), rat(1, 4)))
    assert record == {
        "n": 2,
        "b": ["0", "1/2"],
        "a": ["1/4"],
        "norms": ["1", "1/4"],
    }


def test_recurrence_record_with_no_norms():
    rc = RecurrenceCoefficients((rat(3),), ())
    assert recurrence_record(rc)["norms"] == []


def test_factor_record_shape():
    rc = RecurrenceCoefficients((rat(1),), ())
    record = factor_record(rat(1, 2), [rat(-1, 3)], [rat(2)], rc)
    assert record == {
        "c": "1/2",
        "beta": ["2"],
        "ell": ["-1/3"],
        "transformed_b": ["1"],
        "transformed_a": [],
    }


def test_triband_record_shape():
    from opoly.matrices import UnitLowerTriband, UpperTriband

    lower = UnitLowerTriband(4, (rat(1), rat(2), rat(3)), (rat(4), rat(5)))
    upper = UpperTriband(4, (rat(6), rat(7), rat(8), rat(9)), (rat(1, 2),) * 3)
    record = triband_record(lower, upper)
    assert record == {
        "sub1": ["1", "2", "3"],
        "sub2": ["4", "5"],
        "diag": ["6", "7", "8", "9"],
        "super1": ["1/2", "1/2", "1/2"],
    }


def test_chain_record_embeds_check_reports():
    from opoly.reports import CheckReport

    record = chain_record(
        "demo", rat(1), {"m0": "1"}, [CheckReport.passing("x", 3)]
    )
    assert record["chain"] == "demo"
    assert record["c"] == "1"
    assert record["params"] == {"m0": "1"}
    assert record["checks"][0]["identity"] == "x"
    assert record["checks"][0]["status"] == "pass"


def test_dumps_is_deterministic_and_newline_terminated():
    payload = {"b": ["1"], "a": []}
    first = dumps(payload)
    second = dumps(json.loads(first))
    assert first == second
    assert first.endswith("\n")
    assert first == json.dumps(payload, indent=2) + "\n"
    assert loads(first) == payload
